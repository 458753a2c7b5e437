#!/usr/bin/env python3
"""The adres-sdr benchmark: builds perfbench from the source tree, runs one
workload from a seed for a fixed host time, checks the decoded outputs, and
prints every metric by name with its unit.

    python3 perfbench/run.py --workload direct_short --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones, taken from a run that
records spans around the calls into each layer.  The exit code is non-zero
when any output fails its check.  See perfbench/README.md."""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")

sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

VERSION = "perfbench 2"
WORKLOADS = ("campaign_grid", "cell_long")
# Runnable but left out of BENCHMARK.json: direct_short fails its gate, the
# mapped receiver not being bit-exact with dsp::receive on multipath channels
# (README, Known limits).
HELD_WORKLOADS = ("direct_short",)
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191  # never used while tuning; recheck claims on it
SETUP_REPEATS = 5     # set-ups per run; setup_s is their median
# Host timings are scaled to a host that runs perfbench's reference loop at
# this many ops per second per thread.
REFERENCE_OPS_PER_S = 5e8

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("packets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_packet", "cycles"),
    ("sim_mbps", "Mbps"),
)

KERNELS = ("acorr", "cfo_corr", "fshift", "xcorr", "fft_bitrev", "fft_stage1",
           "fft_stage.2", "fft_stage.3", "fft_stage.4", "fft_stage.5",
           "fft_stage.6", "sample_ordering", "sdm_processing", "eq_coeff_norm",
           "eq_coeff_apply", "comp", "demod_qam64")

PER_LAYER = (  # name, unit, better
    ("sdr.build_program_s", "s", "lower"),
    ("sdr.decode_us.p50", "us", "lower"),
    ("sdr.decode_us.p99", "us", "lower"),
    ("sdr.sim_cycles_vliw", "cycles", "lower"),
    ("sdr.sim_cycles_cga", "cycles", "lower"),
    ("cga.plans_ms", "ms", "lower"),
    ("core.load_us", "us", "lower"),
    ("core.host_ns_per_sim_cycle", "ns", "lower"),
) + tuple(("sched.ii." + k, "cycles", "lower") for k in KERNELS) + (
    ("sched.ii_sum", "cycles", "lower"),
    ("dsp.generate_trial_us", "us", "lower"),
    ("dsp.transmit_channel_us", "us", "lower"),
    ("platform.farm_start_ms", "ms", "lower"),
    ("platform.queue_wait_us.p50", "us", "lower"),
    ("platform.queue_wait_us.p99", "us", "lower"),
    ("platform.decode_us.p50", "us", "lower"),
    ("platform.decode_us.p99", "us", "lower"),
    ("platform.submit_blocked_share", "fraction", "lower"),
    ("platform.worker_busy_share", "fraction", "higher"),
    ("campaign.cell_ms.p50", "ms", "lower"),
    ("campaign.cell_ms.max", "ms", "lower"),
    ("campaign.checkpoint_write_ms", "ms", "lower"),
    ("cell.run_s", "s", "lower"),
    ("cell.useful_decode_share", "fraction", "higher"),
    ("cell.missed_late", "count", "lower"),
    ("cell.missed_expired", "count", "lower"),
    ("cell.missed_overrun", "count", "lower"),
    ("obs.snapshot_us", "us", "lower"),
    ("unattributed_share", "fraction", "lower"),
    ("trace.overhead_pps", "1/s", "lower"),
)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings perfbench up to date (a no-op when it
    is).  Build output goes to stderr only on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        die("simulator sources not found next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def spawn(args):
    """Runs perfbench; returns (seconds from spawn to READY, the reference
    rate measured right after it, exit code)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([PROGRAM] + args, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read().split()
        rc = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or rest[:1] != ["REFERENCE"]:
        die("perfbench exited before set-up finished (exit %s)" % proc.returncode)
    return ready, float(rest[1]), rc


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def load_spans(path):
    with open(path) as f:
        rows = json.load(f)
    return [dict(name=r[0], start=r[1], end=r[2], parent=r[3], packet=r[4])
            for r in rows]


def durations(spans, name, scale):
    return [(s["end"] - s["start"]) * scale for s in spans if s["name"] == name]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def kernel_names(raw):
    """Program kernels in order; a repeated name takes a numeric suffix
    (fft_stage serves stages 2-6 after fft_stage1, so it counts from 2)."""
    num, names = raw["num"], []
    i = 0
    while "kernel.%d.ii" % i in num:
        names.append((raw["str"]["kernel.%d.name" % i], num["kernel.%d.ii" % i]))
        i += 1
    totals = {}
    for name, _ in names:
        totals[name] = totals.get(name, 0) + 1
    seen, out = {}, []
    for name, ii in names:
        if totals[name] == 1:
            out.append((name, ii))
            continue
        first = 2 if any(n == name + "1" for n, _ in names) else 1
        seen[name] = seen.get(name, first - 1) + 1
        out.append(("%s.%d" % (name, seen[name]), ii))
    return out


def hist_tail(num, key):
    """(rung, value) of a histogram-backed timing; (None, 0) when absent."""
    count = int(num.get(key + ".count", 0))
    if not count:
        return None, 0.0
    p = M.choose_percentile(count)
    return p, num["%s.p%d" % (key, p)]


def scaled_rate(num, prefix=""):
    """The window's packet rate at the reference host speed; 0 when no
    reference sample ran alone (perfbench has failed the run then)."""
    ref = num[prefix + "window.reference_ops_per_s"]
    if not ref:
        return 0.0
    return M.at_reference_speed(num[prefix + "window_packets_per_s"], ref,
                                REFERENCE_OPS_PER_S)


def end_to_end(raw, setups):
    num = raw["num"]
    return {
        "setup_s": statistics.median(
            M.at_reference_speed(s, ref, REFERENCE_OPS_PER_S, time=True)
            for s, ref in setups),
        "packets_per_s": scaled_rate(num),
        "peak_rss_mb": num["peak_rss_mb"],
        "sim_cycles_per_packet": num["sim.cycles_per_packet"],
        "sim_mbps": num["sim.mbps"],
    }


def extras(raw):
    """Per-workload end-to-end figures outside the shared metric set."""
    num, out = raw["num"], {}
    out["failed_fraction"] = (raw["failed"] / raw["attempted"]
                              if raw["attempted"] else 1.0, "fraction")
    out["window_packets_per_s"] = (num["window_packets_per_s"],
                                   "1/s (as measured, unscaled)")
    out["host_reference_mops"] = (
        num["window.reference_ops_per_s"] * 1e-6,
        "Mop/s (reference loop in the window; %d of %d samples ran alone)"
        % (num["window.reference_clean"], num["window.reference_samples"]))
    samples = raw["series"].get("decode_us")
    if samples:
        out["decode_p50_us"] = (M.percentile(samples, 50), "us")
        p, v = M.tail(samples)
        out["decode_p99_us"] = (v, "us (p%d of %d calls)" % (p, len(samples)))
    elif "farm.decode_us.count" in num:
        out["decode_p50_us"] = (num["farm.decode_us.p50"], "us")
        p, v = hist_tail(num, "farm.decode_us")
        out["decode_p99_us"] = (v, "us (p%d of %d decodes)"
                                % (p, num["farm.decode_us.count"]))
    for key, unit in (("sim.ipc", "ops/cycle"), ("sim.power_mw", "mW")):
        if key in num:
            out[key.replace(".", "_")] = (num[key], unit)
    if "cell.miss_rate" in num:
        out["cell_miss_rate"] = (num["cell.miss_rate"], "fraction")
        out["cell_goodput_mbps"] = (num["cell.goodput_mbps"], "Mbps")
        p, v = hist_tail(num, "cell.latency_us")
        out["cell_latency_p99_us"] = (v, "sim_us (p%d of %d packets)"
                                      % (p, num["cell.latency_us.count"]))
    return out


def per_layer(raw, spans):
    num, out = raw["num"], {name: 0.0 for name, _, _ in PER_LAYER}
    out["sdr.build_program_s"] = sum(durations(spans, "sdr.build_program", 1e-9), 0.0)
    out["cga.plans_ms"] = sum(durations(spans, "cga.plans", 1e-6), 0.0)
    out["platform.farm_start_ms"] = sum(durations(spans, "platform.farm_start", 1e-6), 0.0)
    out["core.load_us"] = median_or_zero(durations(spans, "core.load", 1e-3))
    out["obs.snapshot_us"] = median_or_zero(durations(spans, "obs.snapshot", 1e-3))
    out["campaign.checkpoint_write_ms"] = median_or_zero(
        durations(spans, "campaign.checkpoint_write", 1e-6))
    out["dsp.generate_trial_us"] = median_or_zero(
        durations(spans, "dsp.generate_trial", 1e-3))
    out["dsp.transmit_channel_us"] = median_or_zero(
        durations(spans, "dsp.transmit_channel", 1e-3))
    out["cell.run_s"] = median_or_zero(durations(spans, "cell.run", 1e-9))
    decode = durations(spans, "sdr.decode", 1e-3)
    if decode:
        out["sdr.decode_us.p50"] = M.percentile(decode, 50)
        out["sdr.decode_us.p99"] = M.tail(decode)[1]
    cells = durations(spans, "campaign.cell", 1e-6)
    if cells:
        out["campaign.cell_ms.p50"] = M.percentile(cells, 50)
        out["campaign.cell_ms.max"] = max(cells)
    for src, dst in (("farm.queue_wait_us", "platform.queue_wait_us"),
                     ("farm.decode_us", "platform.decode_us")):
        if src + ".count" in num:
            out[dst + ".p50"] = num[src + ".p50"]
            out[dst + ".p99"] = hist_tail(num, src)[1]
    copies = {
        "sdr.sim_cycles_vliw": "sim.cycles_vliw_per_packet",
        "sdr.sim_cycles_cga": "sim.cycles_cga_per_packet",
        "core.host_ns_per_sim_cycle": "core.host_ns_per_sim_cycle",
        "platform.submit_blocked_share": "farm.submit_blocked_share",
        "platform.worker_busy_share": "farm.worker_busy_share",
        "cell.useful_decode_share": "cell.useful_decode_share",
        "cell.missed_late": "cell.missed_late",
        "cell.missed_expired": "cell.missed_expired",
        "cell.missed_overrun": "cell.missed_overrun",
    }
    for dst, src in copies.items():
        if src in num:
            out[dst] = num[src]
    kernels = kernel_names(raw)
    for name, ii in kernels:
        out["sched.ii." + name] = ii
    out["sched.ii_sum"] = sum(ii for _, ii in kernels)
    out["unattributed_share"] = unattributed(spans)
    out["trace.overhead_pps"] = scaled_rate(num, "untraced.") - scaled_rate(num)
    return out


def unattributed(spans):
    """Share of the traced window outside every layer span (bench.* spans
    are the benchmark's own loop, not a layer)."""
    windows = [i for i, s in enumerate(spans) if s["name"] == "bench.window"]
    if not windows:
        return 0.0
    w = windows[-1]
    inside = set([w])
    layer = []
    for i, s in enumerate(spans):  # parents precede children
        if s["parent"] in inside:
            inside.add(i)
            if not s["name"].startswith("bench."):
                layer.append((s["start"], s["end"]))
    return M.unattributed_share((spans[w]["start"], spans[w]["end"]), layer)


def self_time_table(spans):
    """name -> (count, total ms, self ms)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    table = {}
    for i, s in enumerate(spans):
        n, total, own = table.get(s["name"], (0, 0.0, 0.0))
        total += (s["end"] - s["start"]) * 1e-6
        own += M.self_time((s["start"], s["end"]), children.get(i, [])) * 1e-6
        table[s["name"]] = (n + 1, total, own)
    return table


def provenance(raw, args):
    s = raw["str"]
    build_type = s.get("build.type", "")
    optimized = build_type in ("Release", "RelWithDebInfo") and not s.get("build.sanitize")
    return {
        "benchmark": VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build": {k[len("build."):]: v for k, v in s.items() if k.startswith("build.")},
        "optimized_build": optimized,
        "exec_tier": s.get("exec_tier", ""),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + HELD_WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    stem = os.path.join(WORK_DIR, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--workdir", WORK_DIR]

    setups = [spawn(base + ["--setup-only"])[:2] for _ in range(SETUP_REPEATS - 1)]
    ready, ref, rc = spawn(base + ["--trace", str(args.trace), "--out", stem + ".raw.json",
                                   "--spans", stem + ".spans.json"])
    setups.append((ready, ref))
    if rc != 0:
        die("perfbench failed (exit %d)" % rc)
    with open(stem + ".raw.json") as f:
        raw = json.load(f)

    prov = provenance(raw, args)
    print("%s  workload=%s seed=%d seconds=%g trace=%d" % (
        VERSION, args.workload, args.seed, args.seconds, args.trace))
    print("host: %s, nproc %d; build %s %s (%s), exec tier %s" % (
        prov["cpu_model"], prov["nproc"], prov["build"].get("version"),
        prov["build"].get("type"), prov["build"].get("git"), prov["exec_tier"]))
    if not prov["optimized_build"]:
        print("WARNING: not an optimized build; host timings are not comparable")
    for why in raw["failures"][:20]:
        print("FAILED: " + why)

    report = {"provenance": prov, "raw": raw}
    extra = extras(raw)
    if args.trace:
        spans = load_spans(stem + ".spans.json")
        values = per_layer(raw, spans)
        units = {name: unit for name, unit, _ in PER_LAYER}
        table = self_time_table(spans)
        for name, (n, total, own) in sorted(table.items()):
            print("  span %-28s n=%-6d total %10.1f ms  self %10.1f ms" % (name, n, total, own))
        report["self_time_ms"] = table
    else:
        values = end_to_end(raw, setups)
        units = dict(END_TO_END)
        report["setup_s_samples"] = setups
    for name, value in values.items():
        print("  %-36s %16.6g %s" % (name, value, units[name]))
    for name, (value, unit) in extra.items():
        print("  %-36s %16.6g %s" % (name, value, unit))
    report["extra"] = extra

    correct = raw["failed"] == 0 and raw["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    report["result"] = result
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
