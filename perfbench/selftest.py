"""Tests of the benchmark's own code: exact counts on small deterministic
cases, complete patching by the tracer, and failure accounting.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.use_checkout_source()

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from quasihmm import cli, machine, nmachine, processes  # noqa: E402
from quasihmm.measures import perturbed_coin_excess_half  # noqa: E402

ROOT = run.ROOT


def _package_modules():
    return [m for n, m in sys.modules.items()
            if (n == "quasihmm" or n.startswith("quasihmm.")) and m is not None]


def test_words_enumerated_counts_every_word():
    m = processes.perturbed_coin_epsilon(0.3)
    t = tracing.Tracer()
    with t:
        for length in range(7):
            m.conditional_future_matrix(length)
    got = t.take()
    assert got["machine.Machine.conditional_future_matrix.calls"] == 7
    assert got["machine.words_enumerated"] == sum(2**length for length in range(7))


def test_fidelity_counts_split_recursion_from_enumeration():
    unifilar = processes.perturbed_coin_epsilon(0.3)
    generative = processes.sns_g_machine(0.5)
    t = tracing.Tracer()
    with t:
        unifilar.future_fidelity_matrix(5)
        generative.future_fidelity_matrix(4)
    got = t.take()
    assert got["machine.Machine.future_fidelity_matrix.calls"] == 2
    assert got["machine.fidelity_steps"] == 5
    assert got["machine.fidelity_flops"] == 4 * 2 * 2**3 * 5
    assert got["machine.words_enumerated"] == 2**4
    # future_fidelity_matrix classifies twice per call
    assert got["machine.Machine.classify.calls"] == 4


def test_every_binding_is_patched_and_restored():
    originals = {}
    for module, path in tracing.TRACED:
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        originals[(module.__name__, path)] = vars(owner)[attr]
    t = tracing.Tracer()
    with t:
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                assert not any(value is orig for orig in originals.values()), (mod, attr)
        for module, path in tracing.TRACED:
            if "." in path:
                cls, attr = path.split(".")
                assert vars(getattr(module, cls))[attr] is not originals[(module.__name__, path)]
        split = nmachine.build_split_machine(
            processes.perturbed_coin_epsilon(0.3), nmachine.perturbed_coin_split_spec(0.3),
            {"q1": 0.0, "q2": 0.1})
    got = t.take()
    # perturbed_coin_epsilon and build_split_machine each reach make_machine
    # through their own module's binding; only the split solves for pi
    assert got["machine.make_machine.calls"] == 2
    assert got["linalg.fixed_vector_n3"] == split.n_states**3 == 27
    assert machine.make_machine is originals[("quasihmm.machine", "make_machine")]
    assert processes.make_machine is machine.make_machine
    assert nmachine.make_machine is machine.make_machine
    assert vars(machine.Machine)["classify"] is originals[("quasihmm.machine", "Machine.classify")]
    assert cli.main is originals[("quasihmm.cli", "main")]


def test_tracer_is_removed_when_the_traced_code_raises():
    t = tracing.Tracer()
    original = machine.load_machine
    with pytest.raises(ZeroDivisionError), t:
        1 / 0
    assert not t.installed and machine.load_machine is original


def _independent_objective_counts(run_optimize):
    """Count calls of optimize_ideal's nested objective, and those returning
    inf, with the profiler: a count that does not rely on the tracer."""
    code = next(c for c in nmachine.optimize_ideal.__code__.co_consts
                if getattr(c, "co_name", None) == "objective")
    counts = {"calls": 0, "inf": 0}

    def profile(frame, event, arg):
        if frame.f_code is code:
            if event == "call":
                counts["calls"] += 1
            elif event == "return" and arg == math.inf:
                counts["inf"] += 1

    sys.setprofile(profile)
    try:
        run_optimize()
    finally:
        sys.setprofile(None)
    return counts


# the (2, 1) split meets degenerate points; from the box of 3 the search
# ends in NoFeasiblePoint, from the box of 6 it returns
@pytest.mark.parametrize("split,box", [(None, 1.5), ((2, 1), 3.0), ((2, 1), 6.0)])
def test_objective_evals_match_an_independent_count(split, box):
    p = 0.3
    source = processes.perturbed_coin_epsilon(p)
    if split is None:
        spec = nmachine.perturbed_coin_split_spec(p)
    else:
        spec = nmachine.generic_split_spec(source, split)
    opts = nmachine.OptimizeOptions(seed=1, extra_starts=2, min_step=1e-3, start_box=box)
    e_half = perturbed_coin_excess_half(p)

    def optimize():
        try:
            nmachine.optimize_ideal(source, spec, e_half, opts)
        except nmachine.NoFeasiblePoint:
            pass

    expected = _independent_objective_counts(optimize)
    t = tracing.Tracer()
    with t:
        optimize()
    got = t.take()
    assert expected["calls"] > 0
    assert got["nmachine.objective_evals"] == expected["calls"]
    assert got["nmachine.infeasible_evals"] == expected["inf"]


def test_traced_counts_repeat_exactly():
    requests = workloads.paper_figures(0, ROOT / ".perfbench")[:2]
    runner = run.Runner(tracing.Tracer())
    passes = []
    for _ in range(2):
        with runner.tracer:
            runner.run_pass(requests)
        passes.append({k: v for k, v in runner.tracer.take().items() if not k.endswith("_s")})
    assert runner.failed == 0
    assert passes[0] == passes[1]
    assert passes[0]["cli.main.calls"] == 2


class _CorruptingCli:
    """Stands in for quasihmm.cli: runs the real CLI and changes one digit,
    the third after the point, in one cell of the first data row."""

    def __init__(self, column: int):
        self.column = column

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        lines = buf.getvalue().split("\n")
        cells = lines[1].split(",")
        digits = list(cells[self.column])
        digits[4] = "1" if digits[4] != "1" else "2"
        cells[self.column] = "".join(digits)
        lines[1] = ",".join(cells)
        sys.stdout.write("\n".join(lines))
        return code


# E_half is checked against its closed form on every seed; C_g2 only
# against the reference outputs
@pytest.mark.parametrize("column,use_reference", [(4, False), (2, True)])
def test_one_changed_csv_digit_fails_the_request(column, use_reference):
    fig5 = workloads.paper_figures(0, ROOT / ".perfbench")[0]
    assert fig5.label == "reproduce-fig5"
    reference = json.loads((run.HERE / "reference_seed0.json").read_text())["paper-figures"]
    reference = reference if use_reference else None

    clean = run.Runner()
    clean.run_pass([fig5], reference)
    assert (clean.attempted, clean.failed) == (1, 0)

    corrupt = run.Runner()
    corrupt.cli = _CorruptingCli(column)
    corrupt.run_pass([fig5], reference)
    assert corrupt.failed / corrupt.attempted > 0


def test_reference_comparison_sees_a_drift_above_tolerance():
    fig5 = workloads.paper_figures(0, ROOT / ".perfbench")[0]
    reference = json.loads((run.HERE / "reference_seed0.json").read_text())["paper-figures"]
    ref = reference[fig5.label]
    drifted = json.loads(json.dumps(ref))
    drifted["rows"][3][3] *= 1 + 1e-8
    assert checks.compare(ref, ref) == []
    assert checks.compare(drifted, ref) != []
    drifted["rows"][3][3] = ref["rows"][3][3] * (1 + 1e-10)
    assert checks.compare(drifted, ref) == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_manifest_lists_the_default_seed_requests():
    manifest = json.loads((run.HERE / "manifest.json").read_text())
    work = Path("<work>")
    for name in workloads.WORKLOADS:
        argv = [list(r.argv) for r in workloads.WORKLOADS[name](workloads.DEFAULT_SEED, work)]
        assert manifest["workloads"][name]["requests_seed0"] == [
            [str(a) for a in r] for r in argv]
