#!/usr/bin/env python3
"""Run every workload untraced and traced, one after the other, and print
every end-to-end metric by name with its unit, then the tracing overhead and
the per-layer metrics.

    python3 perfbench/summary.py [--seed 0] [--seconds 40]

End-to-end metrics: ``setup_s``, ``pass_s`` and ``peak_rss_mb`` (the ones the
benchmark gates), ``pass_tail_s`` (where a run has more than ten passes),
the workload's stage times and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORK, use_checkout_source

UNITS = {"setup_s": "s", "pass_s": "s", "pass_tail_s": "s", "peak_rss_mb": "MB",
         "failed_frac": "ratio", "trace_overhead_s": "s"}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    name = f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return json.loads((WORK / "results" / name).read_text())


def end_to_end(result: dict) -> dict[str, float | None]:
    tail = result["pass_tail_s"]
    values = {
        "setup_s": result["setup_s"],
        "pass_s": statistics.median(result["pass_samples_s"]),
        "pass_tail_s": tail["value"] if tail else None,
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": result["failed_frac"],
    }
    values.update(result["stage_s"])
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()

    use_checkout_source()
    import workloads as wl

    layers = {}
    for workload in wl.WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0)
        traced = run_workload(workload, args.seed, args.seconds, 1)
        row = end_to_end(plain)
        row["trace_overhead_s"] = traced["trace_overhead_s"]
        layers[workload] = traced["layers"]
        print(f"== {workload}: {plain['passes']} passes, seed {args.seed}, "
              f"{plain['attempted']} requests, {plain['failed']} failed; traced counts "
              f"{'repeat' if traced['layer_counts_repeat'] else 'DIFFER'} across passes")
        for name, value in row.items():
            shown = "n/a (10 or fewer passes)" if value is None else f"{value:.6g}"
            print(f"  {name:<22} {shown} {UNITS.get(name, 's')}")
    print("== per-layer (traced passes, medians)")
    print(f"  {'metric':<58}" + "".join(f"{w:>20}" for w in layers))
    for name in sorted({k for per in layers.values() for k in per}):
        print(f"  {name:<58}" + "".join(f"{layers[w][name]:>20.6g}" for w in layers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
