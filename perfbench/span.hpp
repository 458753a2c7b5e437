// In-memory span recorder for the benchmark program.  Spans are opened and
// closed around calls into the simulator's layers, on the benchmark's own
// thread only; they are kept in memory and written out once at exit.  When
// recording is off, open() and close() cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< layer-qualified name, e.g. "sdr.decode"
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;            ///< index of the enclosing span, -1 at the top
  std::int64_t packet = -1;   ///< packet / batch / unit id, -1 when none
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when recording is off).
  int open(const char* name, std::int64_t packet = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, nowNs(), 0, top(), packet});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    stack_.pop_back();
  }

  /// Records an already finished span (timestamps from a callback) as a
  /// child of the innermost open span.
  void add(const char* name, std::int64_t startNs, std::int64_t endNs,
           std::int64_t packet = -1) {
    if (on_) spans_.push_back(Span{name, startNs, endNs, top(), packet});
  }

  /// [[name, start_ns, end_ns, parent, packet], ...]
  void writeJson(std::ostream& os) const {
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.startNs << ","
         << s.endNs << "," << s.parent << "," << s.packet << "]";
    }
    os << "\n]\n";
  }

 private:
  int top() const { return stack_.empty() ? -1 : stack_.back(); }

  bool on_ = false;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name, std::int64_t packet = -1)
      : rec_(rec), id_(rec.open(name, packet)) {}
  ~SpanScope() { rec_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
