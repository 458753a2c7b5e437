// perfbench: runs one benchmark workload of the adres-sdr simulator
// for a fixed host time and writes its raw measurements as JSON; run.py
// turns them into the benchmark's metrics.  It reaches the simulator
// only through public calls and times each layer by recording spans around
// those calls (span.hpp).
//
//   perfbench --workload direct_short|campaign_grid|cell_long
//                    --seed N --seconds S --trace 0|1 --out FILE
//                    --workdir DIR [--spans FILE] [--setup-only]
//
// stdout carries two lines: "READY" once set-up is done (run.py times
// process start to it as setup_s), then "REFERENCE <ops/s>", the host
// reference loop's rate measured right after.  --setup-only exits there.
//
// Every timed window runs whole work units (one decode, a campaign batch, a
// cell scenario) until --seconds have passed, and always at least the units
// the simulated figures come from (the first pass over the pool, batch 0,
// scenarios 0-2), so those repeat exactly for a seed.  With --trace 1 the
// window is split in two halves: the first runs with the span recorder off
// (its packet rate is the untraced reference), the second with it on.
#include <dirent.h>
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "cell/scheduler.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "dsp/frontend.hpp"
#include "dsp/modem.hpp"
#include "obs/buildinfo.hpp"
#include "obs/metrics.hpp"
#include "platform/packet_farm.hpp"
#include "platform/rx_session.hpp"
#include "power/energy_model.hpp"
#include "sdr/modem_program.hpp"
#include "span.hpp"

using namespace adres;
using perfbench::Clock;
using perfbench::SpanRecorder;
using perfbench::SpanScope;

namespace {

constexpr int kFarmWorkers = 3;  ///< plus the caller thread: 4 busy threads
constexpr int kDirectPool = 256;  ///< pre-generated direct_short waveforms
constexpr int kProbeRepeats = 25;
/// A host reference sample counts only if the process's other threads spent
/// no more than this share of the reference threads' own CPU time over it.
/// One foreign thread busy through a 4-thread sample adds about 25%.
constexpr double kForeignCpuShare = 0.02;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of every thread of the process but the calling one, each read
/// from its own clock.  CLOCK_PROCESS_CPUTIME_ID would not do: it sees a
/// thread that is running on another CPU only as of that CPU's last
/// scheduler tick, so a busy thread can look idle over a millisecond.
double otherThreadsCpuSeconds() {
  double sum = 0;
  DIR* dir = opendir("/proc/self/task");
  if (!dir) throw std::runtime_error("cannot list /proc/self/task");
  const auto self = static_cast<unsigned>(gettid());
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const auto tid = static_cast<unsigned>(std::atoi(e->d_name));
    if (tid == self) continue;
    // The kernel's CPU clock id of thread `tid` (MAKE_THREAD_CPUCLOCK(tid,
    // CPUCLOCK_SCHED)); readable for any thread of the calling process.
    const auto clock = static_cast<clockid_t>((~tid << 3) | 6);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0)
      sum += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  closedir(dir);
  return sum;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  std::string workload;
  std::string out;
  std::string spans;
  std::string workdir = ".";
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setupOnly = false;
};

/// Raw measurements handed to run.py.
struct Report {
  std::map<std::string, double> num;
  std::map<std::string, std::string> str;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::string> failures;
  u64 attempted = 0;
  u64 failed = 0;

  void fail(u64 packets, const std::string& why) {
    failed += packets;
    failures.push_back(why);
  }
  /// Histogram-backed timing: count plus the quantile at every whole
  /// percentile, scaled by `scale` (ns -> µs is 1e-3); run.py picks the
  /// rung it reports.
  void histogram(const std::string& key, const obs::HistogramSnapshot& h,
                 double scale) {
    num[key + ".count"] = static_cast<double>(h.count);
    num[key + ".mean"] = h.mean() * scale;
    for (int p = 1; p < 100; ++p)
      num[key + ".p" + std::to_string(p)] = h.quantile(p / 100.0) * scale;
  }
};

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Non-finite values, which only a failed run produces, are written as 0.
std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void writeReport(const Report& r, std::ostream& os) {
  os << "{\n\"attempted\": " << r.attempted << ",\n\"failed\": " << r.failed
     << ",\n\"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << jsonString(r.failures[i]);
  os << "],\n\"num\": {";
  bool first = true;
  for (const auto& [k, v] : r.num) {
    os << (first ? "\n" : ",\n") << jsonString(k) << ": " << jsonNumber(v);
    first = false;
  }
  os << "},\n\"str\": {";
  first = true;
  for (const auto& [k, v] : r.str) {
    os << (first ? "\n" : ",\n") << jsonString(k) << ": " << jsonString(v);
    first = false;
  }
  os << "},\n\"series\": {";
  first = true;
  for (const auto& [k, v] : r.series) {
    os << (first ? "\n" : ",\n") << jsonString(k) << ": [";
    for (std::size_t i = 0; i < v.size(); ++i)
      os << (i ? "," : "") << jsonNumber(v[i]);
    os << "]";
    first = false;
  }
  os << "}\n}\n";
}

/// Program build and plan decode, the set-up every workload shares.
std::shared_ptr<const sdr::ModemOnProcessor> buildProgram(
    const dsp::ModemConfig& cfg, SpanRecorder& rec, Report& rep) {
  std::shared_ptr<const sdr::ModemOnProcessor> m;
  {
    SpanScope s(rec, "sdr.build_program");
    m = platform::modemProgramFor(cfg);
  }
  {
    SpanScope s(rec, "cga.plans");
    (void)m->plansFor(defaultExecTier());
  }
  const auto& ks = m->program.kernels;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    rep.num["kernel." + std::to_string(i) + ".ii"] = ks[i].ii;
    rep.str["kernel." + std::to_string(i) + ".name"] = ks[i].name;
  }
  return m;
}

/// core.load probe: cold loads of the program and its plans on a fresh
/// processor (no warm-reload shortcut), the cost a default direct decode
/// pays on every packet.
void probeColdLoad(const sdr::ModemOnProcessor& m, SpanRecorder& rec) {
  Processor probe;
  ExecPolicy policy;
  policy.plans = m.plansFor(policy.tier);
  for (int i = 0; i < kProbeRepeats; ++i) {
    SpanScope s(rec, "core.load", i);
    probe.load(m.program, policy);
  }
}

void probeSnapshot(const obs::MetricsRegistry& reg, SpanRecorder& rec) {
  for (int i = 0; i < kProbeRepeats; ++i) {
    SpanScope s(rec, "obs.snapshot", i);
    (void)reg.snapshot();
  }
}

/// Host-speed reference: a fixed single-thread loop of table-driven
/// dispatch, data-dependent branches and small-table lookups, the character
/// of the simulator's hot loops, over an L1-resident working set.  It is
/// timed between work units, so it sees the same host as the units around
/// it, and it shares no code with the simulator: a change to the program
/// moves the packet rate, not this.
class HostReference {
 public:
  HostReference() {
    Rng rng(0x5eed);
    for (Op& op : prog_)
      op = Op{static_cast<u8>(rng.below(6)), static_cast<u8>(rng.below(16)),
              static_cast<u8>(rng.below(16)), static_cast<u8>(rng.below(16))};
    for (u32& t : table_) t = static_cast<u32>(rng.next());
    for (u32& r : regs_) r = static_cast<u32>(rng.next());
  }

  /// Runs one fixed-size sample; commit() adds it to the totals.
  void sample() {
    const auto t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Op& op : prog_) {
        u32& d = regs_[op.dst];
        const u32 a = regs_[op.a], b = regs_[op.b];
        switch (op.kind) {
          case 0: d = a + b; break;
          case 1: d = a ^ (b >> 3); break;
          case 2: d = (a << 5) | (a >> 27); break;
          case 3: d = a * 2654435761u + b; break;
          case 4: d = table_[a & (kTable - 1)] + b; break;
          default: d = (a & 1) ? d + b : d - (b >> 1); break;
        }
      }
    }
    // The registers are never read back: keep the compiler from dropping
    // the loop as dead stores.
    asm volatile("" : : "g"(regs_.data()) : "memory");
    lastWall_ = secondsSince(t0);
  }

  void commit() {
    seconds_ += lastWall_;
    ops_ += static_cast<double>(kPasses) * static_cast<double>(prog_.size());
  }

  /// Reference ops per host second over every sample so far.
  double rate() const { return seconds_ > 0 ? ops_ / seconds_ : 0.0; }
  double ops() const { return ops_; }
  double seconds() const { return seconds_; }

 private:
  struct Op {
    u8 kind, dst, a, b;
  };
  static constexpr int kPasses = 1000;
  static constexpr std::size_t kTable = 1024;
  std::array<Op, 256> prog_{};
  std::array<u32, kTable> table_{};
  std::array<u32, 16> regs_{};
  double seconds_ = 0;
  double ops_ = 0;
  double lastWall_ = 0;
};

/// Reference samples taken and the ones that ran alone (see
/// ReferenceTeam); a run whose reference is mostly contaminated fails.
struct ReferenceCount {
  int taken = 0;
  int clean = 0;
  bool enough() const { return clean >= 5 && 2 * clean >= taken; }
};

/// The reference loop on `threads` threads at once (the caller and
/// threads - 1 helpers, each with its own loop state), so a workload that
/// keeps that many threads busy is compared with the same number of CPUs.
/// The helpers live as long as the team and block between samples.
///
/// A sample counts only if it ran alone: the CPU time the process's other
/// threads spent over it may be no more than kForeignCpuShare of the team's
/// own.  Any other thread of the program that ran meanwhile (an idle farm
/// worker that spins, a background thread) slowed the reference, and would
/// otherwise pass for a faster program.
class ReferenceTeam {
 public:
  explicit ReferenceTeam(int threads)
      : refs_(static_cast<std::size_t>(threads)) {
    for (std::size_t i = 1; i < refs_.size(); ++i) {
      helpers_.emplace_back([this, i] { helperLoop(i); });
      clockid_t c{};
      pthread_getcpuclockid(helpers_.back().native_handle(), &c);
      clocks_.push_back(c);
    }
  }
  ~ReferenceTeam() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    start_.notify_all();
    for (std::thread& t : helpers_) t.join();
  }

  void sample() {
    const double others0 = otherThreadsCpuSeconds();
    const double helpers0 = helpersCpu();
    const double self0 = cpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    {
      std::lock_guard<std::mutex> lk(m_);
      ++generation_;
      pending_ = helpers_.size();
    }
    start_.notify_all();
    refs_[0].sample();
    {
      std::unique_lock<std::mutex> lk(m_);
      done_.wait(lk, [this] { return pending_ == 0; });
    }
    const double self = cpuSeconds(CLOCK_THREAD_CPUTIME_ID) - self0;
    const double others = otherThreadsCpuSeconds() - others0;
    const double helpers = helpersCpu() - helpers0;
    ++count.taken;
    if (others - helpers > kForeignCpuShare * (self + helpers)) return;
    ++count.clean;
    for (HostReference& r : refs_) r.commit();
  }

  /// Reference ops per host second per thread over the clean samples.
  double rate() const {
    double ops = 0, seconds = 0;
    for (const HostReference& r : refs_) {
      ops += r.ops();
      seconds += r.seconds();
    }
    return seconds > 0 ? ops / seconds : 0.0;
  }

  ReferenceCount count;

 private:
  double helpersCpu() const {
    double sum = 0;
    for (clockid_t c : clocks_) sum += cpuSeconds(c);
    return sum;
  }

  void helperLoop(std::size_t i) {
    u64 seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m_);
        start_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      refs_[i].sample();
      std::lock_guard<std::mutex> lk(m_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::vector<HostReference> refs_;
  std::vector<std::thread> helpers_;
  std::vector<clockid_t> clocks_;  ///< the helpers' CPU clocks
  std::mutex m_;
  std::condition_variable start_, done_;
  u64 generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
};

/// Prints READY once set-up is done, then the host reference rate measured
/// right after it (run.py scales setup_s by it).  Exits with code 3 instead
/// when too few reference samples ran alone.
void signalReady() {
  std::fputs("READY\n", stdout);
  std::fflush(stdout);
  ReferenceTeam ref(1);
  for (int i = 0; i < 200; ++i) ref.sample();
  const ReferenceCount& n = ref.count;
  if (!n.enough()) {
    std::fprintf(stderr,
                 "perfbench: only %d of %d host reference samples after "
                 "set-up ran alone\n",
                 n.clean, n.taken);
    std::exit(3);
  }
  std::printf("REFERENCE %.17g\n", ref.rate());
  std::fflush(stdout);
}

/// One work unit: runs unit `k` and returns the packets it did.
using Unit = std::function<u64(int k)>;

/// One timed window: whole work units until `seconds` have passed and at
/// least `minUnits` ran.
struct Window {
  double wall = 0;
  u64 packets = 0;
  double referenceRate = 0;  ///< HostReference ops/s sampled in the window
  ReferenceCount reference;
  double rssAfterMinUnits = 0;  ///< peak RSS once the first units are done
};

Window timedWindow(double seconds, int minUnits, int threads,
                   SpanRecorder& rec, const Unit& unit) {
  Window w;
  ReferenceTeam ref(threads);
  auto lastSample = Clock::now() - std::chrono::seconds(1);
  double sampleWall = 0;
  const auto t0 = Clock::now();
  SpanScope s(rec, "bench.window");
  for (int k = 0; k < minUnits || secondsSince(t0) < seconds; ++k) {
    if (secondsSince(lastSample) >= 0.1) {
      const auto r0 = Clock::now();
      ref.sample();
      lastSample = Clock::now();
      sampleWall += secondsSince(r0);
    }
    w.packets += unit(k);
    if (k + 1 == minUnits) w.rssAfterMinUnits = peakRssMb();
  }
  w.wall = secondsSince(t0) - sampleWall;
  w.referenceRate = ref.rate();
  w.reference = ref.count;
  return w;
}

/// Runs the workload's window, or with --trace 1 an untraced half then a
/// traced half (`between` runs in between, untraced); reports the window
/// whose figures count and returns it.  Peak RSS is read at a fixed amount
/// of work (the first window's first units), so it does not depend on how
/// many units the host managed in the time.
Window measure(const Options& o, int minUnits, int threads, SpanRecorder& rec,
               Report& rep, const Unit& unit,
               const std::function<void()>& between = {}) {
  auto record = [&rep](const Window& w, const std::string& prefix) {
    rep.attempted += w.packets;
    rep.num[prefix + "window.wall_s"] = w.wall;
    rep.num[prefix + "window.packets"] = static_cast<double>(w.packets);
    rep.num[prefix + "window_packets_per_s"] = w.packets / w.wall;
    rep.num[prefix + "window.reference_ops_per_s"] = w.referenceRate;
    rep.num[prefix + "window.reference_samples"] = w.reference.taken;
    rep.num[prefix + "window.reference_clean"] = w.reference.clean;
    if (!w.reference.enough())
      rep.fail(1, prefix + "window: only " + std::to_string(w.reference.clean) +
                      " of " + std::to_string(w.reference.taken) +
                      " host reference samples ran alone");
  };
  double rss = 0;
  if (o.trace) {
    rec.enable(false);
    const Window u = timedWindow(o.seconds / 2, minUnits, threads, rec, unit);
    record(u, "untraced.");
    rss = u.rssAfterMinUnits;
    if (between) between();
    rec.enable(true);
  }
  const Window w = timedWindow(o.trace ? o.seconds / 2 : o.seconds, minUnits,
                               threads, rec, unit);
  record(w, "");
  rep.num["peak_rss_mb"] = o.trace ? rss : w.rssAfterMinUnits;
  return w;
}

// ---------------------------------------------------------------------------
// direct_short: one caller, one reused Processor, default-option
// runModemOnProcessor on pre-generated QAM-64 4-symbol packets.  A unit is
// one decode; unit k decodes pool entry k mod kDirectPool.

void runDirect(const Options& o, SpanRecorder& rec, Report& rep) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 4;
  const auto m = buildProgram(cfg, rec, rep);
  Processor proc;
  signalReady();
  if (o.setupOnly) return;

  // Inputs: flat and 2-tap multipath channels in turn, with a per-packet SNR
  // and CFO.
  std::vector<std::array<std::vector<cint16>, 2>> pool(kDirectPool);
  std::vector<dsp::RxTrace> golden(kDirectPool);
  {
    Rng pick(hashCombine(o.seed, 0xd1ec7));
    dsp::TrialScratch scratch;
    std::vector<u8> bits;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      dsp::ChannelConfig cc;
      cc.flat = i % 2 == 0;
      cc.taps = 2;
      cc.snrDb = 28.0 + 8.0 * pick.uniform();
      cc.cfoPpm = -10.0 + 20.0 * pick.uniform();
      cc.seed = hashCombine(o.seed, 2 * i + 1);
      Rng tx(hashCombine(o.seed, 2 * i));
      SpanScope s(rec, "dsp.generate_trial", static_cast<std::int64_t>(i));
      dsp::generateTrial(cfg, cc, tx, bits, pool[i], scratch);
    }
    for (std::size_t i = 0; i < pool.size(); ++i)
      golden[i] = dsp::receive(cfg, pool[i]);
  }

  std::vector<double> callUs;
  callUs.reserve(1 << 14);
  u64 decodes = 0, cyclesTotal = 0;
  double callUsTotal = 0;
  // The first pass over the pool gives the simulated figures.
  u64 simCycles = 0, simVliw = 0, simCga = 0, simOps = 0, simRegionCycles = 0;
  double simPowerMw = 0;

  // A unit is one call.  The correctness check runs after the timed call:
  // every decode, bit for bit, against the golden receiver's output for the
  // same waveform.
  auto unit = [&](int k) -> u64 {
    const std::size_t idx = static_cast<std::size_t>(k) % pool.size();
    const auto id = static_cast<std::int64_t>(decodes++);
    SpanScope pk(rec, "bench.packet", id);
    sdr::ProcessorRxResult r;
    try {
      SpanScope s(rec, "sdr.decode", id);
      const auto c0 = Clock::now();
      r = sdr::runModemOnProcessor(proc, *m, pool[idx]);
      const double us = secondsSince(c0) * 1e6;
      callUs.push_back(us);
      callUsTotal += us;
    } catch (const std::exception& e) {
      rep.fail(1, std::string("decode threw: ") + e.what());
      return 1;
    }
    const dsp::RxTrace& g = golden[idx];
    if (r.stop != StopReason::kHalt)
      rep.fail(1, "decode did not halt (pool index " + std::to_string(idx) + ")");
    else if (r.detected != g.detected || r.bits != g.bits)
      rep.fail(1, "bits differ from dsp::receive (pool index " +
                      std::to_string(idx) + ")");
    cyclesTotal += r.cycles;
    if (decodes <= pool.size()) {
      simCycles += r.cycles;
      for (const auto& [region, rp] : proc.profiles()) {
        simVliw += rp.vliwCycles;
        simCga += rp.cgaCycles;
        simOps += rp.ops;
        simRegionCycles += rp.cycles;
      }
      simPowerMw += power::averageActiveMw(proc);
    }
    return 1;
  };
  const auto resetTimes = [&] {
    callUs.clear();
    callUsTotal = 0;
    cyclesTotal = 0;
  };
  (void)measure(o, kDirectPool, 1, rec, rep, unit, resetTimes);
  rep.series["decode_us"] = callUs;
  rep.num["core.host_ns_per_sim_cycle"] =
      cyclesTotal ? callUsTotal * 1e3 / static_cast<double>(cyclesTotal) : 0.0;

  const double n = kDirectPool;
  const double bitsPerPacket = dsp::bitsPerOfdmSymbol(cfg) * cfg.numSymbols;
  rep.num["sim.packets"] = n;
  rep.num["sim.cycles_per_packet"] = static_cast<double>(simCycles) / n;
  rep.num["sim.mbps"] = bitsPerPacket * 400.0 / (static_cast<double>(simCycles) / n);
  rep.num["sim.ipc"] =
      static_cast<double>(simOps) / static_cast<double>(simRegionCycles);
  rep.num["sim.power_mw"] = simPowerMw / n;
  rep.num["sim.cycles_vliw_per_packet"] = static_cast<double>(simVliw) / n;
  rep.num["sim.cycles_cga_per_packet"] = static_cast<double>(simCga) / n;

  if (o.trace) probeColdLoad(*m, rec);
}

// ---------------------------------------------------------------------------
// campaign_grid: CampaignRunner over a grid of small QAM-64 4-symbol cells,
// fixed trials per cell, 3 farm workers, inline producer, checkpointing on.
// A unit is one campaign (batch) over the grid, seeded by (seed, unit).

constexpr u64 kTrialsPerCell = 32;

campaign::SweepSpec gridSpec(u64 seed, int batch) {
  campaign::SweepSpec sp;
  sp.seed = hashCombine(seed, static_cast<u64>(batch));
  sp.mods = {dsp::Modulation::kQam64};
  sp.numSymbols = {4};
  sp.taps = {2};
  sp.cfoPpm = {4.0, 8.0};
  sp.snrDb = {20.0, 24.0, 28.0, 32.0};
  sp.batchSize = 16;
  sp.stop.minTrials = kTrialsPerCell;
  sp.stop.maxTrials = kTrialsPerCell;
  sp.stop.errorBudget = kTrialsPerCell + 1;  // never fires: fixed trials
  sp.stop.ciHalfWidth = 0.0;                  // never fires: fixed trials
  return sp;
}

std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void runCampaign(const Options& o, SpanRecorder& rec, Report& rep) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 4;
  (void)buildProgram(cfg, rec, rep);
  signalReady();
  if (o.setupOnly) return;

  const std::string stem = o.workdir + "/campaign-" + std::to_string(o.seed);
  std::string batch0Bytes;
  campaign::CampaignResult batch0;

  // Runs campaign `k` into `res` and returns its runner.
  auto runBatch = [&](int k, int workers, const std::string& path,
                      campaign::CampaignResult& res) {
    campaign::CampaignConfig cc;
    cc.sweep = gridSpec(o.seed, k);
    cc.workers = workers;
    cc.producers = 1;
    cc.checkpointPath = path;
    cc.resume = false;
    auto prev = std::make_shared<std::int64_t>(rec.nowNs());
    cc.log = [&rec, prev, k](const std::string&) {
      const std::int64_t now = rec.nowNs();
      rec.add("campaign.cell", *prev, now, k);
      *prev = now;
    };
    auto runner = std::make_unique<campaign::CampaignRunner>(std::move(cc));
    SpanScope s(rec, "campaign.run", k);
    res = runner->run();
    return runner;
  };

  auto unit = [&](int k) -> u64 {
    campaign::CampaignResult res;
    try {
      (void)runBatch(k, kFarmWorkers, stem + ".json", res);
    } catch (const std::exception& e) {
      rep.fail(1, std::string("campaign threw: ") + e.what());
      return 1;
    }
    const u64 expected = res.cells.size() * kTrialsPerCell;
    if (!res.completed || res.trialsRun != expected)
      rep.fail(expected, "campaign batch " + std::to_string(k) +
                             " did not run every trial");
    if (k == 0 && batch0Bytes.empty()) {
      batch0 = res;
      batch0Bytes = readFile(stem + ".json");
    }
    return res.trialsRun;
  };
  (void)measure(o, 1, kFarmWorkers + 1, rec, rep, unit);

  // Correctness gate: batch 0 again on one farm worker; the checkpoint
  // bytes must not depend on the worker count.  Its runner is kept for the
  // registry probe.
  std::unique_ptr<campaign::CampaignRunner> gateRunner;
  {
    const bool wasOn = rec.on();
    rec.enable(false);
    try {
      campaign::CampaignResult res;
      gateRunner = runBatch(0, 1, stem + "-w1.json", res);
      if (readFile(stem + "-w1.json") != batch0Bytes)
        rep.fail(batch0.trialsRun,
                 "campaign checkpoint bytes differ between 1 and 3 workers");
    } catch (const std::exception& e) {
      rep.fail(1, std::string("campaign gate threw: ") + e.what());
    }
    rec.enable(wasOn);
  }

  u64 cycles = 0, bits = 0, packets = 0;
  double energyNj = 0;
  for (const campaign::CellResult& r : batch0.results) {
    cycles += r.cycles;
    bits += r.bits;
    packets += r.trials;
    energyNj += r.energyNj;
  }
  const double c = static_cast<double>(cycles);
  rep.num["sim.packets"] = static_cast<double>(packets);
  rep.num["sim.cycles_per_packet"] = c / static_cast<double>(packets);
  rep.num["sim.mbps"] = static_cast<double>(bits) * 400.0 / c;
  rep.num["sim.power_mw"] = energyNj * 400.0 / c;

  if (o.trace) {
    probeColdLoad(*platform::modemProgramFor(cfg), rec);
    // campaign.checkpoint_write: the rewrite the runner does after each
    // cell, here of batch 0's full grid.
    const campaign::SweepSpec sp0 = gridSpec(o.seed, 0);
    for (int i = 0; i < kProbeRepeats; ++i) {
      SpanScope s(rec, "campaign.checkpoint_write", i);
      campaign::writeCheckpointFile(stem + "-probe.json", sp0, batch0.cells,
                                    batch0.results);
    }
    // dsp.generate_trial: the vectorized frontend on batch 0's trial seeds,
    // as the runner's inline producer calls it.
    dsp::TrialScratch scratch;
    std::vector<u8> txBits;
    std::array<std::vector<cint16>, 2> rx;
    std::int64_t id = 0;
    for (const campaign::CellSpec& cell : batch0.cells) {
      for (u64 t = 0; t < kTrialsPerCell; ++t) {
        Rng txRng(cell.trialSeed(t, campaign::CellSpec::kTxStream));
        dsp::ChannelConfig cc = cell.channel;
        cc.seed = cell.trialSeed(t, campaign::CellSpec::kChannelStream);
        SpanScope s(rec, "dsp.generate_trial", id++);
        dsp::generateTrial(cell.modem, cc, txRng, txBits, rx, scratch);
      }
    }
    if (gateRunner) {
      obs::MetricsRegistry reg;
      gateRunner->registerMetrics(reg);
      probeSnapshot(reg, rec);
      reg.clear();
    }
  }
}

// ---------------------------------------------------------------------------
// cell_long: CellScheduler over a benchmark-owned ordered PacketFarm, QAM-64
// 32-symbol packets, Poisson users on 2 simulated servers near the knee.  A
// unit is one scenario seeded by (seed, unit); the first kCellGateUnits give
// the simulated and cell figures and are re-run for the correctness gate.

constexpr int kCellGateUnits = 3;

cell::CellScenario cellScenario(u64 seed, int unit) {
  cell::CellScenario s;
  s.seed = hashCombine(seed, static_cast<u64>(unit));
  s.modem.mod = dsp::Modulation::kQam64;
  s.modem.numSymbols = 32;
  s.numServers = 2;
  s.durationUs = 50'000.0;
  cell::FlowClass ue;
  ue.name = "ue";
  ue.users = 10;
  ue.packetsPerSec = 300.0;
  ue.nearM = 10.0;
  ue.farM = 60.0;
  ue.deadlineUs = 1500.0;
  // A low-latency class whose frame budget is shorter than a full decode:
  // its served packets stop at the per-job cycle budget (overrun misses).
  cell::FlowClass ll = ue;
  ll.name = "ll";
  ll.users = 1;
  ll.packetsPerSec = 200.0;
  ll.deadlineUs = 450.0;
  s.classes = {ue, ll};
  return s;
}

platform::FarmConfig cellFarmConfig(const dsp::ModemConfig& modem,
                                    int workers) {
  platform::FarmConfig fc;
  fc.modem = modem;
  fc.numWorkers = workers;
  fc.queueCapacity = static_cast<std::size_t>(2 * workers);
  fc.ordered = true;  // the DES folds outcomes in schedule order
  return fc;
}

std::unique_ptr<platform::PacketFarm> startFarm(const dsp::ModemConfig& modem,
                                                int workers,
                                                SpanRecorder& rec) {
  SpanScope s(rec, "platform.farm_start");
  auto farm = std::make_unique<platform::PacketFarm>(cellFarmConfig(modem, workers));
  while (!farm->ready()) std::this_thread::yield();
  return farm;
}

std::string summaryBytes(const cell::CellScheduler& sched) {
  std::ostringstream os;
  sched.writeSummary(os);
  return os.str();
}

void checkHealth(const platform::PacketFarm& farm, Report& rep) {
  for (const obs::HealthEvent& ev : farm.healthEvents()) {
    // Budget exhaustion is the intended overrun path of the ll class.
    if (ev.kind == obs::HealthEvent::Kind::kBudgetExhausted ||
        ev.kind == obs::HealthEvent::Kind::kOverBudget)
      continue;
    rep.fail(1, "farm health event: " + ev.detail);
  }
}

/// Runs one scenario on `farm`; selfCheck failures count every packet.
std::unique_ptr<cell::CellScheduler> runScenario(const cell::CellScenario& s,
                                                 platform::PacketFarm& farm,
                                                 SpanRecorder& rec,
                                                 Report& rep, int unit) {
  auto sched = std::make_unique<cell::CellScheduler>(s);
  {
    SpanScope span(rec, "cell.run", unit);
    (void)sched->run(farm);
  }
  std::string why;
  if (!sched->selfCheck(&why))
    rep.fail(sched->totals().offered, "cell selfCheck: " + why);
  return sched;
}

void runCell(const Options& o, SpanRecorder& rec, Report& rep) {
  const dsp::ModemConfig modem = cellScenario(o.seed, 0).modem;
  (void)buildProgram(modem, rec, rep);
  auto farm = startFarm(modem, kFarmWorkers, rec);
  signalReady();
  if (o.setupOnly) return;

  std::vector<std::unique_ptr<cell::CellScheduler>> gateUnits;
  std::unique_ptr<cell::CellScheduler> last;
  u64 offeredW = 0, expiredW = 0;

  auto unit = [&](int k) -> u64 {
    std::unique_ptr<cell::CellScheduler> sched;
    try {
      sched = runScenario(cellScenario(o.seed, k), *farm, rec, rep, k);
    } catch (const std::exception& e) {
      rep.fail(1, std::string("cell run threw: ") + e.what());
      return 1;
    }
    const cell::CellTotals& t = sched->totals();
    offeredW += t.offered;
    expiredW += t.missedExpired;
    const u64 n = t.offered;
    if (gateUnits.size() < kCellGateUnits) gateUnits.push_back(std::move(sched));
    else last = std::move(sched);
    return n;
  };
  const auto freshFarm = [&] {
    // The traced half gets its own farm, so its statistics cover it alone.
    (void)farm->finish();
    checkHealth(*farm, rep);
    farm = startFarm(modem, kFarmWorkers, rec);
    offeredW = expiredW = 0;
  };
  const Window w =
      measure(o, kCellGateUnits, kFarmWorkers + 1, rec, rep, unit, freshFarm);
  (void)farm->finish();
  checkHealth(*farm, rep);
  if (gateUnits.size() < kCellGateUnits) {
    rep.fail(1, "cell gate units did not complete");
    return;
  }

  const platform::FarmStats& fs = farm->stats();
  rep.histogram("farm.decode_us", fs.latencyNs, 1e-3);
  rep.histogram("farm.queue_wait_us", fs.queueWaitNs, 1e-3);
  rep.num["farm.submit_blocked_share"] =
      static_cast<double>(fs.submitBackpressureNs) * 1e-9 / w.wall;
  rep.num["farm.worker_busy_share"] =
      static_cast<double>(fs.latencyNs.sum) * 1e-9 / (kFarmWorkers * w.wall);
  rep.num["core.host_ns_per_sim_cycle"] =
      fs.packetCycles.sum
          ? static_cast<double>(fs.latencyNs.sum) /
                static_cast<double>(fs.packetCycles.sum)
          : 0.0;
  rep.num["cell.useful_decode_share"] =
      offeredW ? static_cast<double>(offeredW - expiredW) /
                     static_cast<double>(offeredW)
               : 0.0;

  // Correctness gate: the gate units again on a one-worker farm; each
  // adres.cell.v1 summary must not depend on the host worker count.  That
  // farm's statistics give the simulated figures of exactly these units.
  platform::FarmStats gateStats;
  {
    const bool wasOn = rec.on();
    rec.enable(false);
    try {
      auto farm1 = startFarm(modem, 1, rec);
      for (std::size_t k = 0; k < gateUnits.size(); ++k) {
        const auto again = runScenario(gateUnits[k]->scenario(), *farm1, rec,
                                       rep, static_cast<int>(k));
        if (summaryBytes(*again) != summaryBytes(*gateUnits[k]))
          rep.fail(again->totals().offered,
                   "adres.cell.v1 summary differs between 1 and 3 workers");
      }
      (void)farm1->finish();
      checkHealth(*farm1, rep);
      gateStats = farm1->stats();
    } catch (const std::exception& e) {
      rep.fail(1, std::string("cell gate threw: ") + e.what());
    }
    rec.enable(wasOn);
  }

  cell::CellTotals t;
  u64 goodputBits = 0;
  double durationUs = 0;
  obs::HistogramSnapshot latency;
  for (const auto& s : gateUnits) {
    const cell::CellTotals& u = s->totals();
    t.offered += u.offered;
    t.missedLate += u.missedLate;
    t.missedExpired += u.missedExpired;
    t.missedOverrun += u.missedOverrun;
    goodputBits += s->goodputBits();
    durationUs += s->scenario().durationUs;
    latency.merge(s->latencySnapshot());
  }
  rep.num["cell.offered"] = static_cast<double>(t.offered);
  rep.num["cell.missed_late"] = static_cast<double>(t.missedLate);
  rep.num["cell.missed_expired"] = static_cast<double>(t.missedExpired);
  rep.num["cell.missed_overrun"] = static_cast<double>(t.missedOverrun);
  rep.num["cell.miss_rate"] = t.missRate();
  rep.num["cell.goodput_mbps"] = static_cast<double>(goodputBits) / durationUs;
  rep.histogram("cell.latency_us", latency, 1e-3);

  u64 vliw = 0, cga = 0, ops = 0, regionCycles = 0;
  for (const auto& [key, v] : gateStats.groups["region"]) {
    auto endsWith = [&key](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
    };
    if (endsWith(".vliw_cycles")) vliw += v;
    else if (endsWith(".cga_cycles")) cga += v;
    else if (endsWith(".ops")) ops += v;
    else if (endsWith(".cycles")) regionCycles += v;
  }
  const double n = static_cast<double>(gateStats.packets);
  const double cyc = static_cast<double>(gateStats.packetCycles.sum);
  const double bitsPerPacket = dsp::bitsPerOfdmSymbol(modem) * modem.numSymbols;
  rep.num["sim.packets"] = n;
  rep.num["sim.cycles_per_packet"] = cyc / n;
  rep.num["sim.mbps"] = bitsPerPacket * 400.0 / (cyc / n);
  rep.num["sim.ipc"] =
      static_cast<double>(ops) / static_cast<double>(regionCycles);
  rep.num["sim.cycles_vliw_per_packet"] = static_cast<double>(vliw) / n;
  rep.num["sim.cycles_cga_per_packet"] = static_cast<double>(cga) / n;

  if (o.trace) {
    probeColdLoad(*platform::modemProgramFor(modem), rec);
    // dsp.transmit_channel: the scalar transmit + MimoChannel::run the
    // scheduler performs per packet, on unit 0's first arrivals.
    const cell::CellScheduler& u0 = *gateUnits.front();
    const cell::CellScenario& scn = u0.scenario();
    const std::size_t probe = std::min<std::size_t>(u0.schedule().size(), 64);
    for (std::size_t i = 0; i < probe; ++i) {
      const cell::PacketEvent& ev = u0.schedule()[i];
      const cell::UserFlow& flow = u0.flows()[ev.flowId];
      SpanScope s(rec, "dsp.transmit_channel", static_cast<std::int64_t>(i));
      Rng txRng(cell::packetSeed(scn, ev.flowId, ev.seq, cell::kTxStream));
      const dsp::TxPacket pkt = dsp::transmit(scn.modem, txRng);
      dsp::MimoChannel chan(cell::packetChannel(scn, flow, ev));
      (void)chan.run(pkt.waveform);
    }
    obs::MetricsRegistry reg;
    farm->registerMetrics(reg);
    (last ? *last : *gateUnits.back()).registerMetrics(reg);
    probeSnapshot(reg, rec);
    reg.clear();
  }
}

bool parseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--setup-only") {
      o.setupOnly = true;
      continue;
    }
    if (!(v = value())) return false;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::string(v) == "1";
    else if (a == "--out") o.out = v;
    else if (a == "--spans") o.spans = v;
    else if (a == "--workdir") o.workdir = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0 && (o.setupOnly || !o.out.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parseArgs(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE --workdir DIR [--spans FILE] "
                 "[--setup-only]\n");
    return 2;
  }
  const std::map<std::string,
                 std::function<void(const Options&, SpanRecorder&, Report&)>>
      workloads = {{"direct_short", runDirect},
                   {"campaign_grid", runCampaign},
                   {"cell_long", runCell}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }

  SpanRecorder rec;
  rec.enable(o.trace);
  Report rep;
  const obs::BuildInfo& bi = obs::buildInfo();
  rep.str["build.version"] = bi.version;
  rep.str["build.git"] = bi.gitDescribe;
  rep.str["build.type"] = bi.buildType;
  rep.str["build.sanitize"] = bi.sanitize;
  rep.str["build.compiler"] = bi.compiler;
  rep.str["exec_tier"] = execTierName(defaultExecTier());
  try {
    it->second(o, rec, rep);
  } catch (const std::exception& e) {
    rep.fail(1, std::string("workload threw: ") + e.what());
  }
  if (o.setupOnly) return 0;

  std::ofstream out(o.out);
  writeReport(rep, out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.out.c_str());
    return 2;
  }
  if (o.trace && !o.spans.empty()) {
    std::ofstream sp(o.spans);
    rec.writeJson(sp);
  }
  return 0;
}
