#!/usr/bin/env python3
"""quasihmm benchmark: CLI workloads run in one process, every output checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client drives ``quasihmm.cli.main(argv)`` in a closed loop: one request
at a time, each waiting for the previous one.  A run

1. runs one reference pass on the inputs of the default seed, untimed, and
   checks its outputs against ``reference_seed0.json``;
2. runs passes over the requests of ``--seed`` for ``--seconds`` seconds,
   checking every output;
3. between passes, spread over those seconds, times ``setup_s``: fresh
   interpreters through ``import quasihmm.cli``, median of ``SETUP_SAMPLES``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
installs the tracer on every other pass and reports the per-layer metrics
of the traced passes (medians over them; counts repeat exactly).  The full
result, with the workload's stage times, the tracing overhead and the
environment, goes to ``.perfbench/results/``; the last line of standard
output is the summary JSON.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run fails before any result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 7
MIN_PASSES = 2
#: passes needed beyond the tail percentile of pass_s
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def use_checkout_source() -> None:
    """Import quasihmm from this checkout's ``src/`` or exit nonzero."""
    if not (SRC / "quasihmm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import quasihmm

    if Path(quasihmm.__file__).resolve().parent != (SRC / "quasihmm").resolve():
        sys.exit(f"perfbench: quasihmm imported from {quasihmm.__file__}, not {SRC}")


# --- environment -----------------------------------------------------------------


def _blas_threads() -> int | None:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    blas_threads = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "client_threads": 1,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        # the client thread is one of the BLAS pool's threads
        "load_threads": max(1, blas_threads or 1),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# --- set-up time -------------------------------------------------------------------


def time_import() -> float:
    """Wall time of a fresh interpreter importing ``quasihmm.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import quasihmm.cli"], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"perfbench: import failed: {done.stderr.decode()[-500:]}")
    return elapsed


# --- requests and passes -------------------------------------------------------------


class Runner:
    """Runs requests through ``quasihmm.cli.main`` and checks their outputs.

    ``attempted`` and ``failed`` count requests; a request fails when it
    exits nonzero, raises, or its output fails a check."""

    def __init__(self, tracer=None):
        import checks
        from quasihmm import cli

        self.checks = checks
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: label -> output text of every checked request, when not None
        self.outputs: dict[str, str] | None = None

    def request(self, req, reference=None) -> float:
        if req.out:
            req.out.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is one failed request; the run goes on
            code = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start

        self.attempted += 1
        if code != 0:
            problems = [f"exit {code}: {err.getvalue().strip()[:300]}"]
        elif req.out and not req.out.is_file():
            problems = [f"exit 0 without writing {req.out.name}"]
        else:
            text = req.out.read_text() if req.out else out.getvalue()
            problems = self.checks.check_output(req.expect, text)
            if self.outputs is not None:
                self.outputs[req.label] = text
            if reference is not None:
                problems += self.checks.check_reference(req.expect, text, reference[req.label])
            if req.out and self.tracer is not None and self.tracer.installed:
                self.tracer.add("machine.save_bytes", len(text.encode()))
        if problems:
            self.failed += 1
            self.failures.extend(f"{req.label}: {p}" for p in problems[:3])
        return elapsed

    def run_pass(self, requests, reference=None) -> dict[str, float]:
        return {req.label: self.request(req, reference) for req in requests}


def tail(samples: list[float]) -> dict | None:
    """Highest percentile of ``samples`` with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return {"value": sorted(samples)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import workloads
    from tracer import Tracer

    reference = json.loads((HERE / "reference_seed0.json").read_text())[workload]
    tracer = Tracer() if trace else None
    runner = Runner(tracer)
    time_import()  # compiles bytecode and fills caches; not kept
    runner.run_pass(workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, work), reference)

    requests = workloads.WORKLOADS[workload](seed, work)
    plain: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    layers: list[dict[str, float]] = []
    # set-up samples are spread over the run, so that their median, like
    # that of the passes, does not hang on one moment's machine speed
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(time_import())
        if tracer is not None and len(traced) <= len(plain):
            with tracer:
                traced.append(runner.run_pass(requests))
            layers.append(tracer.take())
        else:
            plain.append(runner.run_pass(requests))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed * (done + 1) / done > seconds:
            break

    while len(setup) < SETUP_SAMPLES:
        setup.append(time_import())

    def pass_s(passes):
        return [sum(p.values()) for p in passes]

    stages = {}
    for stage in dict.fromkeys(r.stage for r in requests if r.stage):
        labels = [r.label for r in requests if r.stage == stage]
        stages[stage] = statistics.median(sum(p[label] for label in labels) for p in plain)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced),
        "requests": [list(r.argv) for r in requests],
        "pass_samples_s": pass_s(plain),
        "request_samples_s": {r.label: [p[r.label] for p in plain] for r in requests},
        "stage_s": stages,
        "pass_tail_s": tail(pass_s(plain)),
        "setup_samples_s": setup,
        "setup_s": statistics.median(setup),
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
    }
    if trace:
        result["traced_pass_samples_s"] = pass_s(traced)
        result["trace_overhead_s"] = (statistics.median(pass_s(traced))
                                      - statistics.median(pass_s(plain)))
        result["layers"] = {key: statistics.median(layer[key] for layer in layers)
                            for key in layers[0]}
        result["layer_counts_repeat"] = all(
            layer[k] == layers[0][k] for layer in layers for k in layer
            if not k.endswith("_s"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-figures", "sns-predictive", "nmachine-optimize"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    env = environment()
    work = WORK / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["env"] = env
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import PER_LAYER

        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": result["setup_s"],
                  "pass_s": statistics.median(result["pass_samples_s"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result["metrics"] = metrics

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"env": env, "result_file": f".perfbench/results/{name}"}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
