#!/usr/bin/env python3
"""The benchmark's own tests, on the tiny (--smoke) variant of every workload.

    python3 perfbench/smoke_test.py

Checks that (1) every metric BENCHMARK.json names is printed, with its unit,
for --trace 0 and --trace 1; (2) a corrupted reference result is reported as
failed runs; (3) traced and untraced runs of one seed print the same result.
Exits 0 when all pass. Temporary files go under .bench_build/perfbench.
"""

import copy
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (perfbench/run.py)

MANIFEST = bench.ROOT / "BENCHMARK.json"


def run_bench(*extra):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--smoke", "--seconds", "0.5",
         *extra], cwd=bench.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(extra)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed(manifest):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in manifest[section]}
        for workload in bench.WORKLOADS:
            out = run_bench("--workload", workload, "--seed", "1", "--trace", str(trace))
            assert out["correct"] and out["failed"] == 0, (workload, trace, out)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
    print("ok: every metric printed with its unit")


def check_corrupted_reference():
    refs = bench.load_references(bench.REFERENCES)
    corrupted = copy.deepcopy(refs)
    entry = corrupted["smoke"]["updates"]["1"]
    entry["total_weighted_divergence"] += 1.0
    path = bench.BUILD_DIR / "corrupted_references.json"
    path.write_text(json.dumps(corrupted))
    out = run_bench("--workload", "updates", "--seed", "1", "--trace", "0",
                    "--references", str(path))
    assert not out["correct"], out
    assert out["attempted"] >= 1 and out["failed"] == out["attempted"], out
    print("ok: a corrupted reference is reported as failed runs")


def check_traced_matches_untraced():
    for workload in bench.WORKLOADS:
        untraced = bench.run_once(workload, 3, False, True)
        traced = bench.run_once(workload, 3, True, True)
        assert untraced["status"] == "OK" and traced["status"] == "OK", (untraced, traced)
        assert untraced["result"] == traced["result"], \
            (workload, bench.diff_summary(untraced["result"], traced["result"]))
        if workload in bench.SHARDED:
            one_lane = bench.run_once(workload, 3, True, True, run_threads=1)
            assert one_lane["result"] == untraced["result"], workload
    print("ok: traced and untraced runs agree")


def main():
    if not bench.build():
        return 1
    manifest = json.loads(MANIFEST.read_text())
    check_metrics_printed(manifest)
    check_corrupted_reference()
    check_traced_matches_untraced()
    return 0


if __name__ == "__main__":
    sys.exit(main())
