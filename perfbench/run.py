#!/usr/bin/env python3
"""The repository benchmark: one named workload, many one-run processes.

    python3 perfbench/run.py --workload updates --seed 1 --seconds 20 --trace 0

Builds perfbench_run (the library from this checkout plus the benchmark's
per-run program) into .bench_build/perfbench on first use, then launches one
process per run until --seconds have passed, checks every run's result and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians of untraced runs).
--trace 1 alternates untraced and traced runs (plus a one-lane traced run on
sharded workloads) and reports the per-layer metrics, the boundary
accounting and the tracing overhead. A host/build stamp line and a host
line (probe and unscaled medians) precede the result.

The host's speed at serving cache misses drifts by a quarter and more over
minutes on a shared machine, and the engine's runs follow it. So a
memory-speed probe (perfbench_run --probe, independent of the engine) runs
before the first run and after every run, and the end-to-end times are
scaled to a reference host: each run's seconds times PROBE_REF_S over the
geometric mean of the probes on either side of it (sim_speed divided by the
same factor). The per-layer times are reported unscaled.

A run fails when its process fails, its status is not OK, its result
differs from the recorded reference for (workload, seed), or it differs from
the first result of this invocation (untraced, traced and one-lane runs of
one seed must agree bit for bit). `--record` rewrites references.json;
`--smoke` runs the tiny variant of every workload (smoke_test.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_run"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("updates", "fanout", "mixed")
# Workloads that run sharded; their traced runs also measure one lane.
SHARDED = ("fanout",)
RECORD_SEEDS = (1, 2)  # the default seed and one held-out seed
MIN_RUNS = 3
# A run takes a few seconds; together these keep one invocation, a hung run
# included, well inside 180 s.
RUN_TIMEOUT_S = 60
LAUNCH_LIMIT_S = 100
# The probe's time on the reference host; scaled times are host seconds on a
# host whose probe takes this long.
PROBE_REF_S = 0.8

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_speed": "sim-s/s",
    "peak_rss_mb": "MiB",
}

TICK_PHASES = ("begin_tick", "send", "relay", "deliver_apply", "read_path", "feedback")
# Spans whose sum should explain the traced wall_s (boundary accounting).
BOUNDARY_SPANS = (
    "data.build_s", "engine.make_s", "harness.init_s", "engine.init_s",
    "harness.dispatch_s", "source.on_update_s", "tick.s", "finalize_s",
    "obs.take_s",
)

PER_LAYER = {
    "data.build_s": "s",
    "engine.make_s": "s",
    "harness.init_s": "s",
    "engine.init_s": "s",
    "mem.build_mb": "MiB",
    "mem.engine_mb": "MiB",
    "harness.dispatch_s": "s",
    "harness.updates": "count",
    "harness.ns_per_update": "ns",
    "source.on_update_s": "s",
    "tick.s": "s",
    "tick.count": "count",
    "tick.p50_us": "us",
    "tick.p99_us": "us",
    **{f"tick.{phase}_s": "s" for phase in TICK_PHASES},
    "tick.unphased_s": "s",
    "shard.tick_speedup": "ratio",
    "finalize_s": "s",
    "obs.take_s": "s",
    "obs.trace_events": "count",
    "obs.trace_dropped": "count",
    "obs.series_rows": "count",
    "net.refreshes_sent": "count",
    "net.delivery_ratio": "ratio",
    "net.cache_utilization": "ratio",
    "net.feedback_sent": "count",
    "relay.forwarded": "count",
    "relay.max_store": "count",
    "read.reads": "count",
    "read.hit_ratio": "ratio",
    "read.pulls": "count",
    "read.evictions": "count",
    "read.pull_share": "ratio",
    "protocol.invalidations_sent": "count",
    "fault.crashes": "count",
    "fault.resync_deliveries": "count",
    "fault.resync_pending": "count",
    "tick.send_ns_per_refresh": "ns",
    "tick.deliver_ns_per_refresh": "ns",
    "read.ns_per_read": "ns",
    "boundary.sum_s": "s",
    "boundary.wall_s": "s",
    "boundary.ratio": "ratio",
    "trace.overhead": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_run; False if it cannot."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no besync sources next to {BENCH_DIR}; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return BINARY.is_file()


def run_once(workload, seed, traced, smoke, run_threads=None):
    """One process, one run. Returns its parsed output, or {"status": error}."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--traced", "1" if traced else "0"]
    if run_threads is not None:
        command += ["--run_threads", str(run_threads)]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = None
    if not isinstance(out, dict):
        out = {"status": f"exit {proc.returncode}, no result; stderr: {proc.stderr[-500:]}"}
    if proc.returncode != 0 and out.get("status") == "OK":
        out["status"] = f"exit {proc.returncode}"
    return out


def run_probe():
    """Seconds the memory-speed probe takes now."""
    proc = subprocess.run([str(BINARY), "--probe"], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    try:
        return float(json.loads(proc.stdout)["probe_s"])
    except (ValueError, KeyError, TypeError) as error:
        raise RuntimeError(f"probe failed (exit {proc.returncode}): {error}") from error


def sanity_problems(result):
    problems = []
    objective = result.get("total_weighted_divergence")
    if not isinstance(objective, (int, float)) or objective < 0:
        problems.append("objective missing, negative or not finite")
    if result.get("updates", 0) <= 0 or result.get("ticks", 0) <= 0:
        problems.append("no update events or no ticks ran")
    if result.get("read_hits", 0) > result.get("reads_total", 0):
        problems.append("more read hits than reads")
    return problems


class Checker:
    """Result check shared by every run of one invocation."""

    def __init__(self, reference):
        self.reference = reference  # None when (workload, seed) has none
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, out, label):
        self.attempted += 1
        problems = []
        if out.get("status") != "OK":
            problems.append(f"status {out.get('status')!r}")
        else:
            result = out["result"]
            problems += sanity_problems(result)
            if self.reference is not None and result != self.reference:
                problems.append("result differs from the recorded reference: " +
                                diff_summary(self.reference, result))
            if self.first is None:
                self.first = result
            elif result != self.first:
                problems.append("result differs from this invocation's first run: " +
                                diff_summary(self.first, result))
        if problems:
            self.failed += 1
            log(f"perfbench: FAILED {label}: " + "; ".join(problems))
            return False
        return True


def diff_summary(expected, got):
    keys = sorted(set(expected) | set(got))
    diffs = [f"{k}: {expected.get(k)!r} != {got.get(k)!r}"
             for k in keys if expected.get(k) != got.get(k)]
    return ", ".join(diffs[:4]) + (" ..." if len(diffs) > 4 else "")


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_of(out):
    """The per-layer metrics one traced run yields (medians come later)."""
    t, r = out["time"], out["result"]
    window = t["measure_window_phase_s"]
    m = {key: t[key] for key in (
        "data.build_s", "engine.make_s", "harness.init_s", "engine.init_s",
        "mem.build_mb", "mem.engine_mb", "harness.dispatch_s",
        "source.on_update_s", "tick.s", "finalize_s", "obs.take_s")}
    for phase in TICK_PHASES:
        m[f"tick.{phase}_s"] = t[f"tick.{phase}_s"]
    m["tick.unphased_s"] = t["tick.s"] - sum(t[f"tick.{p}_s"] for p in TICK_PHASES)
    m["harness.updates"] = r["updates"]
    m["harness.ns_per_update"] = ratio(t["harness.dispatch_s"] * 1e9, r["updates"])
    m["tick.count"] = r["ticks"]
    m["obs.trace_events"] = r["obs_trace_events"]
    m["obs.trace_dropped"] = r["obs_trace_dropped"]
    m["obs.series_rows"] = r["obs_series_rows"]
    m["net.refreshes_sent"] = r["refreshes_sent"]
    m["net.delivery_ratio"] = ratio(r["refreshes_delivered"], r["refreshes_sent"])
    m["net.cache_utilization"] = r["cache_utilization"]
    m["net.feedback_sent"] = r["feedback_sent"]
    m["relay.forwarded"] = r["relays_forwarded"]
    m["relay.max_store"] = r["max_relay_store"]
    m["read.reads"] = r["reads_total"]
    m["read.hit_ratio"] = ratio(r["read_hits"], r["reads_total"])
    m["read.pulls"] = r["pull_requests_sent"]
    m["read.evictions"] = r["cache_evictions"]
    m["read.pull_share"] = r["pull_bandwidth_share"]
    m["protocol.invalidations_sent"] = r["invalidations_sent"]
    m["fault.crashes"] = r["cache_crashes"]
    m["fault.resync_deliveries"] = r["resync_deliveries"]
    m["fault.resync_pending"] = r["resync_pending"]
    # Measurement-window phase time over measurement-window counts; under
    # invalidation the send and deliver phases also carry invalidations.
    m["tick.send_ns_per_refresh"] = ratio(
        window["send"] * 1e9, r["refreshes_sent"] + r["invalidations_sent"])
    m["tick.deliver_ns_per_refresh"] = ratio(
        window["deliver_apply"] * 1e9, r["refreshes_delivered"] + r["invalidations_received"])
    m["read.ns_per_read"] = ratio(window["read_path"] * 1e9, r["reads_total"])
    m["boundary.sum_s"] = sum(t[key] for key in BOUNDARY_SPANS)
    m["boundary.wall_s"] = t["wall_s"]
    m["boundary.ratio"] = ratio(m["boundary.sum_s"], t["wall_s"])
    return m


def scaled(out, name):
    """One end-to-end value of a run, scaled to the reference host."""
    value = out["time"][name]
    if name == "sim_speed":
        return value / out["host_factor"]
    if name == "peak_rss_mb":
        return value
    return value * out["host_factor"]


def measure(args, checker):
    """Runs processes until --seconds pass; returns the metric values and
    the host line's figures."""
    start = time.monotonic()
    untraced, traced, one_lane = [], [], []
    probes = [run_probe()]
    sharded = args.workload in SHARDED
    label = f"{args.workload} seed {args.seed}"

    def keep(out, bucket, what):
        probes.append(run_probe())
        out["host_factor"] = PROBE_REF_S / (probes[-2] * probes[-1]) ** 0.5
        if checker.check(out, f"{label} {what} run"):
            bucket.append(out)

    cycles = 0
    while True:
        # Launch another cycle only if it should end within the budget.
        elapsed = time.monotonic() - start
        expected_end = elapsed + (elapsed / cycles if cycles else 0.0)
        if cycles >= MIN_RUNS and expected_end > args.seconds:
            break
        if expected_end > LAUNCH_LIMIT_S:
            break
        keep(run_once(args.workload, args.seed, False, args.smoke), untraced, "untraced")
        if args.trace:
            keep(run_once(args.workload, args.seed, True, args.smoke), traced, "traced")
            if sharded:
                keep(run_once(args.workload, args.seed, True, args.smoke, run_threads=1),
                     one_lane, "one-lane traced")
        cycles += 1

    host = {"probe_s": median(probes), "probes": len(probes)}
    host.update({f"unscaled.{name}": median([out["time"][name] for out in untraced])
                 for name in END_TO_END})
    if not args.trace:
        return {name: median([scaled(out, name) for out in untraced])
                for name in END_TO_END}, host

    layers = [per_layer_of(out) for out in traced]
    metrics = {name: median([m[name] for m in layers])
               for name in PER_LAYER if layers and name in layers[0]}
    ticks_us = [ns / 1e3 for out in traced for ns in out["tick_ns"]]
    metrics["tick.p50_us"] = percentile(ticks_us, 50) if ticks_us else 0.0
    metrics["tick.p99_us"] = percentile(ticks_us, 99) if ticks_us else 0.0
    if sharded:
        metrics["shard.tick_speedup"] = ratio(
            median([out["time"]["tick.s"] for out in one_lane]), metrics.get("tick.s", 0.0))
    else:
        metrics["shard.tick_speedup"] = 1.0  # one lane: tick.s at 1 lane is tick.s
    metrics["trace.overhead"] = ratio(
        median([scaled(out, "wall_s") for out in traced]),
        median([scaled(out, "wall_s") for out in untraced])) - 1.0
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)  # only when every traced run failed
    return metrics, host


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the commit
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*")) + \
        sorted(p for p in BENCH_DIR.rglob("*") if p.suffix in (".cc", ".py", ".txt", ".json"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args):
    info = {"nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "smoke": args.smoke}
    try:
        info.update(json.loads(subprocess.run([str(BINARY), "--stamp"], capture_output=True,
                                              text=True, timeout=30).stdout))
    except (subprocess.SubprocessError, json.JSONDecodeError):
        info["compiler"] = info["build_type"] = "unknown"
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    info["commit"] = commit or "unknown (not a git checkout)"
    info["source_digest"] = source_digest()
    return info


def load_references(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


def record(args):
    """Rewrites the reference file: full sizes at RECORD_SEEDS, smoke at 1."""
    refs = {"full": {}, "smoke": {}}
    for scale, seeds in (("full", RECORD_SEEDS), ("smoke", (1,))):
        for workload in WORKLOADS:
            refs[scale][workload] = {}
            for seed in seeds:
                out = run_once(workload, seed, False, scale == "smoke")
                if out.get("status") != "OK":
                    log(f"perfbench: cannot record {scale} {workload} seed {seed}: "
                        f"{out.get('status')}")
                    return 1
                refs[scale][workload][str(seed)] = out["result"]
                log(f"recorded {scale} {workload} seed {seed}")
    Path(args.references).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same code path (the benchmark's own tests)")
    parser.add_argument("--references", default=str(REFERENCES),
                        help="reference results file (default: perfbench/references.json)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference file and exit")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    if not build():
        return 1
    if args.record:
        return record(args)

    refs = load_references(args.references)
    reference = refs.get("smoke" if args.smoke else "full", {}) \
        .get(args.workload, {}).get(str(args.seed))
    checker = Checker(reference)
    try:
        metrics, host = measure(args, checker)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 1
    units = PER_LAYER if args.trace else END_TO_END

    info = stamp(args)
    info["reference"] = "recorded" if reference is not None else "none for this seed"
    print("stamp: " + json.dumps(info, sort_keys=True))
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace:
        print(f"boundary: sum {metrics['boundary.sum_s']:.4f} s of traced wall "
              f"{metrics['boundary.wall_s']:.4f} s (ratio {metrics['boundary.ratio']:.4f}); "
              f"trace overhead {metrics['trace.overhead']:+.4f}")
    print(json.dumps({
        "correct": checker.attempted > 0 and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
