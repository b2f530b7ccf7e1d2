"""``sweep`` and ``reproduce`` compute only the columns they print.

``REFERENCE_ROWS`` keeps the full-row builders that computed every column of
a process for every p; the CSVs of the column tables must equal theirs byte
for byte.  Counting stubs show that a figure never reaches the layers of the
columns it does not print, and that an SNS row computes its past-future
overlap once.
"""

import json

import numpy as np
import pytest

from quasihmm import cli
from quasihmm import measures as ms
from quasihmm import nmachine as nm
from quasihmm import processes as procs
from quasihmm import quantum as qm
from quasihmm.errors import NonPSD, NumericalError, ValidationError

FULL_COLUMNS = {
    "perturbed-coin": ("p", "C_mu2", "C_g2", "C_q2", "C_n2", "E_half",
                       "negativity", "mana", "advantage"),
    "sns": ("p", "C_mu2", "C_g2", "C_q2", "C_n2", "E_half",
            "negativity", "mana", "advantage"),
    "golden-mean": ("p", "C_mu2", "C_q2", "E_half"),
}


def _perturbed_coin_row(p, horizon, truncation=None):
    machine = procs.perturbed_coin_epsilon(p)
    c_mu2 = ms.renyi_entropy(machine.stationary, 2)
    c_g2 = ms.renyi_entropy(procs.perturbed_coin_rjmc(p).stationary, 2)
    c_q2 = qm.quantum_complexity(qm.gram_from_machine(machine, horizon))
    e_half = ms.perturbed_coin_excess_half(p)
    q1, q2 = nm.perturbed_coin_ideal_params(p, nm.BRANCH_PLUS)
    built = nm.build_split_machine(
        machine, nm.perturbed_coin_split_spec(p), {"q1": q1, "q2": q2}
    )
    result = nm.assess_split_machine(built, {"q1": q1, "q2": q2}, e_half, c_mu2)
    return {
        "p": p, "C_mu2": c_mu2, "C_g2": c_g2, "C_q2": c_q2, "C_n2": result.c_n2,
        "E_half": e_half, "negativity": result.negativity, "mana": result.mana,
        "advantage": result.advantage,
    }


def _sns_row(p, horizon, truncation=None):
    data = procs.sns_renewal_data(p, truncation)
    weights = data.stationary_weights()
    c_mu2 = ms.renyi_entropy(weights / weights.sum(), 2)
    c_g2 = ms.renyi_entropy(procs.sns_g_machine(p).stationary, 2)
    c_q2 = qm.quantum_complexity(qm.sns_gram_ensemble(data))
    e_half, _ = ms.sns_excess_entropy_half(p, truncation)
    gamma, eta = nm.sns_ideal_params(p, truncation, nm.BRANCH_PLUS)
    built = nm.build_split_machine(
        procs.sns_g_machine(p), nm.sns_split_spec(p), {"gamma": gamma, "eta": eta}
    )
    result = nm.assess_split_machine(built, {"gamma": gamma, "eta": eta}, e_half, c_mu2)
    return {
        "p": p, "C_mu2": c_mu2, "C_g2": c_g2, "C_q2": c_q2, "C_n2": result.c_n2,
        "E_half": e_half, "negativity": result.negativity, "mana": result.mana,
        "advantage": result.advantage,
    }


def _golden_mean_row(p, horizon, truncation=None):
    machine = procs.golden_mean_epsilon(p)
    return {
        "p": p,
        "C_mu2": ms.renyi_entropy(machine.stationary, 2),
        "C_q2": qm.quantum_complexity(qm.gram_from_machine(machine, horizon)),
        "E_half": ms.excess_entropy_half(machine, horizon).value,
    }


REFERENCE_ROWS = {
    "perturbed-coin": _perturbed_coin_row,
    "sns": _sns_row,
    "golden-mean": _golden_mean_row,
}


def reference_sweep(process, grid, horizon, truncation, columns):
    """(CSV, error log) of the full-row sweep."""
    columns = list(columns or FULL_COLUMNS[process])
    lines = [",".join(columns)]
    failures = []
    for p in grid:
        try:
            row = REFERENCE_ROWS[process](p, horizon, truncation)
        except (NumericalError, ValidationError, ValueError, OSError) as exc:
            row = {"p": p}
            failures.append(f"p={cli._fmt(p)}: {type(exc).__name__}: {exc}")
        lines.append(",".join(cli._fmt(row.get(c, float("nan"))) for c in columns))
    log = "\n".join(failures) + "\n" if failures else ""
    return "\n".join(lines) + "\n", log


def reference_reproduce(figure, horizon=12, truncation=None):
    process, columns = cli._FIGURES[figure]
    lines = [",".join(columns)]
    for p in cli.default_grid(process):
        row = REFERENCE_ROWS[process](p, horizon, truncation)
        row["negativity_minus_1"] = row.get("negativity", float("nan")) - 1.0
        lines.append(",".join(cli._fmt(row.get(c, float("nan"))) for c in columns))
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_config(capsys, tmp_path, doc):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    return run(capsys, "sweep", "--config", str(config))


class TestReproduceMatchesFullRows:
    @pytest.mark.parametrize("figure", ["fig5", "fig7", "fig9", "fig10"])
    def test_byte_identical(self, capsys, figure):
        code, out, err = run(capsys, "reproduce", figure)
        assert (code, err) == (0, "")
        assert out == reference_reproduce(figure)

    def test_other_horizon_byte_identical(self, capsys):
        code, out, _ = run(capsys, "reproduce", "fig5", "--horizon", "5")
        assert code == 0
        assert out == reference_reproduce("fig5", horizon=5)


SWEEPS = [
    ("perturbed-coin", [0.1, 0.2, 0.3, 0.45, 0.7, 0.9], 12, None),
    ("perturbed-coin", [0.25, 0.8], 6, None),
    ("sns", [0.2, 0.5, 0.8], 12, None),
    ("sns", [0.1, 0.3], 12, 120),
    ("golden-mean", [0.3, 0.5, 0.7], 12, None),
    ("golden-mean", [0.2, 0.6], 5, None),
]

SUBSETS = {
    "perturbed-coin": ["p", "C_mu2", "E_half"],
    "sns": ["E_half", "advantage", "p", "C_g2"],
    "golden-mean": ["C_q2", "p"],
}


class TestSweepMatchesFullRows:
    @pytest.mark.parametrize("process,grid,horizon,truncation", SWEEPS)
    def test_default_columns(self, capsys, process, grid, horizon, truncation):
        argv = ["sweep", "--process", process, "--p-grid", ",".join(map(str, grid)),
                "--horizon", str(horizon)]
        if truncation is not None:
            argv += ["--truncation", str(truncation)]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert (out, err) == reference_sweep(process, grid, horizon, truncation, None)

    @pytest.mark.parametrize("process,grid,horizon,truncation", SWEEPS)
    def test_outputs_subset(self, capsys, tmp_path, process, grid, horizon, truncation):
        out_path = tmp_path / "sweep.csv"
        columns = SUBSETS[process]
        code, _, _ = run_config(capsys, tmp_path, {
            "process": process, "p_grid": grid, "horizon": horizon,
            "truncation": truncation, "outputs": columns, "output_path": str(out_path),
        })
        assert code == 0
        expected, log = reference_sweep(process, grid, horizon, truncation, columns)
        assert log == ""
        assert out_path.read_text() == expected
        assert not (tmp_path / "sweep.csv.errors.log").exists()

    def test_failing_rows_match(self, capsys):
        # a truncation of 60 leaves too much tail mass above p of about 0.6
        grid = [0.2, 0.5, 0.8]
        code, out, err = run(capsys, "sweep", "--process", "sns", "--p-grid", "0.2,0.5,0.8",
                             "--truncation", "60")
        assert code == 0
        assert "TruncationTooCoarse" in err
        assert (out, err) == reference_sweep("sns", grid, 12, 60, None)

    def test_figure_column_in_a_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_config(capsys, tmp_path, {
            "process": "sns", "p_grid": [0.3, 0.6],
            "outputs": ["p", "negativity_minus_1", "advantage"],
            "output_path": str(out_path),
        })
        assert code == 0
        figure = reference_reproduce("fig10").splitlines()
        rows = [line for line in figure if line.split(",")[0] in ("0.3", "0.6")]
        assert out_path.read_text().splitlines() == [figure[0]] + rows

    def test_unknown_column_rejected(self, capsys, tmp_path):
        code, _, err = run_config(capsys, tmp_path, {
            "process": "golden-mean", "p_grid": [0.3], "outputs": ["p", "C_g2"],
        })
        assert code == 2
        assert "C_g2" in json.loads(err)["message"]


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestOnlyPrintedColumnsAreComputed:
    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_split_figures_skip_the_quantum_layer(self, capsys, monkeypatch, figure):
        # the measure table binds quantum_complexity and gram_from_machine
        # by name in measures too
        calls = {}
        for module, name in ((qm, "quantum_complexity"), (ms, "quantum_complexity"),
                             (qm, "gram_from_machine"), (ms, "gram_from_machine"),
                             (qm, "sns_gram_ensemble")):
            _counting(monkeypatch, module, name, calls)
        _counting(monkeypatch, nm, "build_split_machine", calls)
        code, _, _ = run(capsys, "reproduce", figure)
        assert code == 0
        process = cli._FIGURES[figure][0]
        assert calls == {"build_split_machine": len(cli.default_grid(process))}

    @pytest.mark.parametrize("figure", ["fig5", "fig9"])
    def test_memory_figures_build_no_split_machine(self, capsys, monkeypatch, figure):
        calls = {}
        _counting(monkeypatch, nm, "build_split_machine", calls)
        for module in (qm, ms):
            _counting(monkeypatch, module, "quantum_complexity", calls)
        code, _, _ = run(capsys, "reproduce", figure)
        assert code == 0
        process = cli._FIGURES[figure][0]
        assert calls == {"quantum_complexity": len(cli.default_grid(process))}

    @pytest.mark.parametrize("figure", ["fig9", "fig10"])
    def test_one_past_future_overlap_per_sns_row(self, capsys, monkeypatch, figure):
        # the function is bound by name in measures and nmachine too
        calls = {}
        for module in (procs, ms, nm):
            _counting(monkeypatch, module, "sns_past_future_overlap", calls)
        code, _, _ = run(capsys, "reproduce", figure)
        assert code == 0
        assert calls == {"sns_past_future_overlap": len(cli.default_grid("sns"))}

    @pytest.mark.parametrize("figure", ["fig9", "fig10"])
    def test_one_renewal_series_per_sns_row(self, capsys, monkeypatch, figure):
        calls = {}
        for module in (procs, ms, nm):
            _counting(monkeypatch, module, "sns_renewal_data", calls)
        code, _, _ = run(capsys, "reproduce", figure)
        assert code == 0
        assert calls == {"sns_renewal_data": len(cli.default_grid("sns"))}

    def test_no_row_outlives_its_call(self, capsys, monkeypatch):
        calls = {}
        _counting(monkeypatch, procs, "sns_past_future_overlap", calls)
        for _ in range(2):
            assert run(capsys, "sweep", "--process", "sns", "--p-grid", "0.4")[0] == 0
        assert calls == {"sns_past_future_overlap": 2}


def _failing_gram(*args, **kwargs):
    raise NonPSD("synthetic failure")


class TestFailureBlanksOnlyPrintedColumns:
    def test_unprinted_column_failure_keeps_the_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(qm, "sns_gram_ensemble", _failing_gram)
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_config(capsys, tmp_path, {
            "process": "sns", "p_grid": [0.3, 0.6], "outputs": ["p", "C_mu2", "E_half"],
            "output_path": str(out_path),
        })
        assert (code, err) == (0, "")
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert "NaN" not in "".join(lines)
        assert not (tmp_path / "sweep.csv.errors.log").exists()

    def test_printed_column_failure_blanks_the_row(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(qm, "sns_gram_ensemble", _failing_gram)
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_config(capsys, tmp_path, {
            "process": "sns", "p_grid": [0.3, 0.6], "outputs": ["p", "C_mu2", "C_q2"],
            "output_path": str(out_path),
        })
        assert code == 0
        assert out_path.read_text().splitlines()[1:] == ["0.3,NaN,NaN", "0.6,NaN,NaN"]
        log = (tmp_path / "sweep.csv.errors.log").read_text()
        assert log.count("NonPSD: synthetic failure") == 2

    def test_failure_in_a_shared_intermediate_blanks_every_reader(self, capsys, monkeypatch):
        monkeypatch.setattr(procs, "sns_past_future_overlap", _failing_gram)
        code, out, err = run(capsys, "sweep", "--process", "sns", "--p-grid", "0.3")
        assert code == 0
        assert out.splitlines()[1] == "0.3" + ",NaN" * 8
        assert "NonPSD" in err

    def test_reproduce_error_is_reported_once(self, capsys, monkeypatch):
        fig10 = reference_reproduce("fig10")
        monkeypatch.setattr(qm, "sns_gram_ensemble", _failing_gram)
        code, out, err = run(capsys, "reproduce", "fig9")
        assert code == 4
        assert out == ""
        assert json.loads(err) == {"error": "NonPSD", "message": "synthetic failure"}
        # fig10 prints no C_q2, so the failing ensemble is never reached
        code, out, _ = run(capsys, "reproduce", "fig10")
        assert code == 0
        assert out == fig10


def test_column_tables_cover_the_full_rows():
    for process, columns in FULL_COLUMNS.items():
        row_type = cli._SWEEP_ROWS[process]
        assert [c for c in cli.SWEEP_COLUMNS if c in row_type.columns] == list(columns)
    assert set(cli._SWEEP_ROWS) == set(REFERENCE_ROWS)
    for process, columns in cli._FIGURES.values():
        assert set(columns) <= set(cli._SWEEP_ROWS[process].columns)


def test_shared_overlap_gives_the_same_bits():
    for p in (0.05, 0.5, 0.95):
        overlap = procs.sns_past_future_overlap(procs.sns_renewal_data(p))
        assert ms.sns_excess_entropy_half(p, None, overlap) == ms.sns_excess_entropy_half(p)
        shared = np.array(nm.sns_ideal_params(p, None, nm.BRANCH_PLUS, overlap))
        assert shared.tobytes() == np.array(nm.sns_ideal_params(p)).tobytes()
