"""Command-line front end.

Subcommands build the process zoo as machine files, compute measure reports,
run parameter sweeps to CSV, reproduce the standard comparison curves, run
the state-splitting construction, apply similarity maps, and emit the
discrete Wigner machine.  All numeric CSV output uses 12 significant digits
and is byte-deterministic for a fixed configuration and seed.

Exit codes: 0 success; on failure the ``exit_code`` of the error's class (2
input validation, 3 unsupported measure, 4 numerical failure), and 2 for a
``ValueError`` or ``OSError``, which includes every usage error.  Each failure
writes one JSON line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import measures as ms
from . import nmachine as nm
from . import processes as procs
from . import quantum as qm
from . import transforms as tf
from .errors import (
    NumericalError,
    QuasiHmmError,
    UnsupportedProcess,
    ValidationError,
)
from .machine import Machine, load_machine

EXIT_OK = 0
EXIT_VALIDATION = 2

#: the columns ``sweep`` prints when the request names none: those of its
#: process's column table, in this order
SWEEP_COLUMNS = (
    "p",
    "C_mu2",
    "C_g2",
    "C_q2",
    "C_n2",
    "E_half",
    "negativity",
    "mana",
    "advantage",
)


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    return format(float(value), ".12g")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


# --- machine factories -----------------------------------------------------------


def _require_p(args) -> float:
    if args.p is None:
        raise ValueError(f"process {args.process!r} requires --p")
    return args.p


#: the machine of each ``make-machine`` process, built from the parsed arguments
_ZOO: dict[str, Callable[[argparse.Namespace], Machine]] = {
    "perturbed-coin": lambda args: procs.perturbed_coin_epsilon(_require_p(args)),
    "perturbed-coin-rjmc": lambda args: procs.perturbed_coin_rjmc(_require_p(args)),
    "golden-mean": lambda args: procs.golden_mean_epsilon(_require_p(args)),
    "sns-g": lambda args: procs.sns_g_machine(_require_p(args)),
    "sns-epsilon": lambda args: procs.sns_epsilon_truncated(_require_p(args), args.truncation),
    "even": lambda args: procs.even_process_epsilon(),
    "unbiased-coin": lambda args: procs.unbiased_coin(),
}


def cmd_make_machine(args) -> int:
    machine = _ZOO[args.process](args)
    _emit(machine.to_json_text(), args.out)
    return EXIT_OK


# --- measures --------------------------------------------------------------------


def _check_horizon(horizon: int, name: str = "--horizon") -> None:
    """Refuses a horizon below 1, on which no horizon estimate is defined."""
    if horizon < 1:
        raise ValueError(f"{name} must be at least 1, got {horizon}")


def cmd_measures(args) -> int:
    _check_horizon(args.horizon)
    machine = load_machine(args.machine)
    if args.all:
        reports = ms.defined_reports(machine, args.horizon)
    elif args.measure:
        reports = [ms.MEASURES[name](machine, args.horizon) for name in args.measure]
    else:
        raise ValueError("pass --all or at least one --measure")
    _emit_json(
        {"machine": str(args.machine), "reports": [r.to_json_dict() for r in reports]},
        args.out,
    )
    return EXIT_OK


# --- sweeps ----------------------------------------------------------------------


# Column tables, one per process (``_Row.columns``), are built from these
# entries; an entry reads the intermediates of its row.
_SHARED_COLUMNS = {
    "p": lambda row: row.p,
    "C_mu2": lambda row: row.c_mu2,
    "E_half": lambda row: row.e_half,
}
_SPLIT_COLUMNS = {
    "C_n2": lambda row: row.split.c_n2,
    "negativity": lambda row: row.split.negativity,
    "negativity_minus_1": lambda row: row.split.negativity - 1.0,
    "mana": lambda row: row.split.mana,
    "advantage": lambda row: row.split.advantage,
}


class _Row:
    """One row of a sweep or figure, or one ``construct-nmachine`` request:
    its inputs, and the intermediates its columns share.  Each intermediate
    is computed on first use and kept only as long as the row, so a column
    that is not printed costs nothing and one that is costs its own work
    once.

    ``columns`` is the process's column table: each column it offers,
    mapped to the function that computes the column from a row.  A row type
    also gives its process's ``source`` machine, ``e_half``, split ``spec``
    and the split's closed-form ``default_params(branch)``.
    """

    columns: dict[str, Callable[[_Row], float]]
    #: the p at which the process degenerates: generated grids leave it out,
    #: and a given grid that holds it is refused
    degenerate_p: float | None = None

    def __init__(self, p: float, horizon: int, truncation: int | None):
        self.p = p
        self.horizon = horizon
        self.truncation = truncation

    def values(self, columns) -> list[float]:
        return [self.columns[c](self) for c in columns]

    @functools.cached_property
    def c_mu2(self) -> float:
        return ms.renyi_entropy(self.source.stationary, 2)

    @functools.cached_property
    def split(self) -> nm.NMachineResult:
        """The split at the plus branch's ``default_params``."""
        params = self.default_params(nm.BRANCH_PLUS)
        built = nm.build_split_machine(self.source, self.spec, params)
        return nm.assess_split_machine(built, params, self.e_half, self.c_mu2)


class _PerturbedCoinRow(_Row):
    columns = {
        **_SHARED_COLUMNS,
        **_SPLIT_COLUMNS,
        "C_g2": lambda row: ms.renyi_entropy(procs.perturbed_coin_rjmc(row.p).stationary, 2),
        "C_q2": lambda row: ms.MEASURES["c-q2"](row.source, row.horizon).value,
    }
    degenerate_p = 0.5

    @functools.cached_property
    def source(self) -> Machine:
        return procs.perturbed_coin_epsilon(self.p)

    @functools.cached_property
    def e_half(self) -> float:
        return ms.perturbed_coin_excess_half(self.p)

    @property
    def spec(self) -> nm.SplitSpec:
        return nm.perturbed_coin_split_spec(self.p)

    def default_params(self, branch: str) -> dict[str, float]:
        return dict(zip(("q1", "q2"), nm.perturbed_coin_ideal_params(self.p, branch)))


class _SnsRow(_Row):
    columns = {
        **_SHARED_COLUMNS,
        **_SPLIT_COLUMNS,
        "C_g2": lambda row: ms.renyi_entropy(row.source.stationary, 2),
        "C_q2": lambda row: qm.quantum_complexity(qm.sns_gram_ensemble(row.renewal)),
    }

    @functools.cached_property
    def source(self) -> Machine:
        """The generative model, which the split doubles."""
        return procs.sns_g_machine(self.p)

    @functools.cached_property
    def renewal(self) -> procs.SnsRenewalData:
        """The renewal series, shared by C_mu2, C_q2 and the overlap."""
        return procs.sns_renewal_data(self.p, self.truncation)

    @functools.cached_property
    def c_mu2(self) -> float:
        weights = self.renewal.stationary_weights()
        return ms.renyi_entropy(weights / weights.sum(), 2)

    @functools.cached_property
    def overlap(self) -> tuple[float, float]:
        """The past-future overlap, shared by E_half and the ideal split."""
        return procs.sns_past_future_overlap(self.renewal)

    @functools.cached_property
    def e_half(self) -> float:
        return ms.sns_excess_entropy_half(self.p, self.truncation, self.overlap)[0]

    @property
    def spec(self) -> nm.SplitSpec:
        return nm.sns_split_spec(self.p)

    def default_params(self, branch: str) -> dict[str, float]:
        params = nm.sns_ideal_params(self.p, self.truncation, branch, self.overlap)
        return dict(zip(("gamma", "eta"), params))


class _GoldenMeanRow(_Row):
    columns = {
        **_SHARED_COLUMNS,
        "C_q2": lambda row: ms.MEASURES["c-q2"](row.source, row.horizon).value,
    }

    @functools.cached_property
    def source(self) -> Machine:
        return procs.golden_mean_epsilon(self.p)

    @functools.cached_property
    def e_half(self) -> float:
        return ms.excess_entropy_half(self.source, self.horizon).value

    @property
    def spec(self) -> nm.SplitSpec:
        """The split that injects negativity but never lowers memory."""
        return nm.golden_mean_bad_split_spec(self.p)

    def default_params(self, branch: str) -> dict[str, float]:
        return {"q": -0.2}


#: the row of each sweep process, which carries its column table
_SWEEP_ROWS: dict[str, type[_Row]] = {
    "perturbed-coin": _PerturbedCoinRow,
    "sns": _SnsRow,
    "golden-mean": _GoldenMeanRow,
}

#: the row of each ``construct-nmachine`` process, which carries its split
_NMACHINE_ROWS: dict[str, type[_Row]] = {
    "perturbed-coin": _PerturbedCoinRow,
    "sns": _SnsRow,
    "golden-mean-bad": _GoldenMeanRow,
}


def _check_grid(process: str, grid: list[float]) -> list[float]:
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("p grid must be strictly increasing")
    degenerate = _SWEEP_ROWS[process].degenerate_p
    if degenerate is not None and any(p == degenerate for p in grid):
        raise ValueError(f"p grid must exclude {degenerate} for the {process} process")
    if any(not 0.0 < p < 1.0 for p in grid):
        raise ValueError("p grid values must lie strictly between 0 and 1")
    return grid


def _sweep_to_csv(
    process: str,
    grid: list[float],
    horizon: int,
    truncation,
    columns,
    out: str | None,
) -> int:
    row_type = _SWEEP_ROWS[process]
    columns = list(columns) if columns else [c for c in SWEEP_COLUMNS if c in row_type.columns]
    unknown = [c for c in columns if c not in row_type.columns]
    if unknown:
        raise ValueError(f"columns {unknown} not available for process {process!r}")

    lines = [",".join(columns)]
    failures: list[str] = []
    for p in grid:
        try:
            values = row_type(p, horizon, truncation).values(columns)
        except (NumericalError, ValidationError, ValueError, OSError) as exc:
            # a failure in a printed column blanks the row but for p
            values = [p if c == "p" else float("nan") for c in columns]
            failures.append(f"p={_fmt(p)}: {type(exc).__name__}: {exc}")
        lines.append(",".join(map(_fmt, values)))
    _emit("\n".join(lines) + "\n", out)
    if failures:
        log = "\n".join(failures) + "\n"
        if out:
            Path(str(out) + ".errors.log").write_text(log)
        else:
            sys.stderr.write(log)
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


#: the JSON type of each field a sweep config may set, as its error names it
_CONFIG_FIELDS = {
    "process": (str, "a process name"),
    "p_grid": (list, "a list of numbers"),
    "horizon": (int, "an integer"),
    "truncation": (int, "an integer"),
    "outputs": (list, "a list of column names"),
    "output_path": (str, "a path"),
}


def _read_sweep_config(path: str) -> dict:
    """The fields a sweep config file sets, each checked for its JSON type; a
    null field counts as unset, ``p_grid`` must be set, a bool is not a
    number, and a ``horizon`` is at least 1."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("sweep config must be a JSON object")
    doc = {key: value for key, value in doc.items() if value is not None}
    if "p_grid" not in doc:
        raise ValueError("sweep config field 'p_grid' is required")
    for key, (kind, what) in _CONFIG_FIELDS.items():
        if key in doc and (not isinstance(doc[key], kind) or isinstance(doc[key], bool)):
            raise ValueError(f"sweep config field {key!r} must be {what}")
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in doc["p_grid"]):
        raise ValueError("sweep config field 'p_grid' must be a list of numbers")
    if "horizon" in doc:
        _check_horizon(doc["horizon"], "sweep config field 'horizon'")
    return doc


def cmd_sweep(args) -> int:
    _check_horizon(args.horizon)
    if args.config:
        doc = _read_sweep_config(args.config)
        process = doc.get("process", "perturbed-coin")
        grid = [float(p) for p in doc["p_grid"]]
        horizon = doc.get("horizon", args.horizon)
        truncation = doc.get("truncation")
        columns = doc.get("outputs")
        out = doc.get("output_path", args.out)
    else:
        process = args.process
        if args.p_grid is not None:
            grid = _parse_grid(args.p_grid)
        else:
            if not args.p_step > 0:
                raise ValueError(f"--p-step must be positive, got {args.p_step}")
            if args.p_min > args.p_max:
                raise ValueError(f"--p-min {args.p_min} exceeds --p-max {args.p_max}")
            grid = list(np.arange(args.p_min, args.p_max + 1e-12, args.p_step).round(12))
            degenerate = _SWEEP_ROWS[process].degenerate_p
            if degenerate is not None:
                grid = [p for p in grid if abs(p - degenerate) > 1e-12]
        horizon = args.horizon
        truncation = args.truncation
        columns = None
        out = args.out
    if process not in _SWEEP_ROWS:
        raise UnsupportedProcess(f"unknown sweep process {process!r}")
    _check_grid(process, grid)
    return _sweep_to_csv(process, grid, horizon, truncation, columns, out)


_FIGURES = {
    "fig5": ("perturbed-coin", ("p", "C_mu2", "C_g2", "C_q2", "E_half")),
    "fig7": ("perturbed-coin", ("p", "negativity_minus_1", "advantage")),
    "fig9": ("sns", ("p", "C_mu2", "C_g2", "C_q2", "E_half")),
    "fig10": ("sns", ("p", "negativity_minus_1", "advantage")),
}


def default_grid(process: str) -> list[float]:
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    return [p for p in grid if p != _SWEEP_ROWS[process].degenerate_p]


def cmd_reproduce(args) -> int:
    process, columns = _FIGURES[args.figure]
    row_type = _SWEEP_ROWS[process]
    lines = [",".join(columns)]
    for p in default_grid(process):
        values = row_type(p, args.horizon, args.truncation).values(columns)
        lines.append(",".join(map(_fmt, values)))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- construction, transforms, Wigner ----------------------------------------------


def _parse_params(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, value = token.partition("=")
        if not _:
            raise ValueError(f"parameter {token!r} is not of the form name=value")
        out[name.strip()] = float(value)
    return out


def cmd_construct_nmachine(args) -> int:
    if args.horizon < 0:
        raise ValueError(f"--horizon must be nonnegative, got {args.horizon}")
    row = _NMACHINE_ROWS[args.process](args.p, args.horizon, args.truncation)
    source, e_half, c_mu2 = row.source, row.e_half, row.c_mu2
    spec = row.spec
    if args.split:
        counts = tuple(int(tok) for tok in args.split.split(","))
        spec = nm.generic_split_spec(source, counts)

    if args.optimize:
        opts = nm.OptimizeOptions(seed=args.seed)
        result = nm.optimize_ideal(source, spec, e_half, opts, c_mu2=c_mu2)
    else:
        if args.params is not None:
            params = _parse_params(args.params)
        elif args.split:
            params = {name: 0.0 for name in spec.param_names}
        else:
            params = row.default_params(args.branch)
        built = nm.build_split_machine(source, spec, params)
        result = nm.assess_split_machine(built, params, e_half, c_mu2)

    checks = nm.verify_nmachine_properties(source, result.machine, horizon=min(args.horizon, 8))
    doc = result.to_json_dict()
    doc["checks"] = {"worst_residual": checks.worst(), "passed": checks.passed()}
    if args.out:
        result.machine.save(args.out)
        doc["machine_file"] = str(args.out)
    else:
        doc["machine"] = result.machine.to_json_dict()
    _emit_json(doc, None)
    return EXIT_OK


def cmd_transform(args) -> int:
    machine = load_machine(args.machine)
    mapped = tf.apply_map(machine, tf.two_state_map(args.a, args.b))
    _emit(mapped.to_json_text(), args.out)
    return EXIT_OK


def cmd_wigner(args) -> int:
    rep = qm.wigner_qubit_representation(args.p)
    machine = qm.wigner_as_machine(rep)
    _emit(machine.to_json_text(), args.out)
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ``ValueError``, which :func:`main` reports
    like any other failure, instead of printing the usage and exiting."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out", help="output path (default: stdout)")

    parser = _Parser(
        prog="quasihmm",
        description="Classical, quantum, and quasiprobabilistic models of "
        "stationary processes with Renyi memory measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make-machine", parents=[common], help="emit a zoo machine as JSON")
    p_make.add_argument(
        "--process",
        required=True,
        choices=tuple(_ZOO),
    )
    p_make.add_argument("--p", type=float)
    p_make.add_argument("--truncation", type=int)
    p_make.set_defaults(handler=cmd_make_machine)

    p_meas = sub.add_parser("measures", parents=[common], help="measure reports for a machine file")
    p_meas.add_argument("machine")
    p_meas.add_argument("--measure", action="append", choices=tuple(ms.MEASURES))
    p_meas.add_argument("--all", action="store_true")
    p_meas.set_defaults(handler=cmd_measures)

    p_sweep = sub.add_parser("sweep", parents=[common], help="parameter sweep to CSV")
    p_sweep.add_argument("--config", help="JSON sweep configuration file")
    p_sweep.add_argument("--process", choices=tuple(_SWEEP_ROWS), default="perturbed-coin")
    p_sweep.add_argument("--p-grid", help="comma-separated grid values")
    p_sweep.add_argument("--p-min", type=float, default=0.1)
    p_sweep.add_argument("--p-max", type=float, default=0.9)
    p_sweep.add_argument("--p-step", type=float, default=0.1)
    p_sweep.add_argument("--truncation", type=int)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_rep = sub.add_parser("reproduce", parents=[common], help="canned comparison sweeps")
    p_rep.add_argument("figure", choices=tuple(_FIGURES))
    p_rep.add_argument("--truncation", type=int)
    p_rep.set_defaults(handler=cmd_reproduce)

    p_nm = sub.add_parser(
        "construct-nmachine", parents=[common], help="build a state-split machine"
    )
    p_nm.add_argument("--process", required=True, choices=tuple(_NMACHINE_ROWS))
    p_nm.add_argument("--p", type=float, required=True)
    p_nm.add_argument("--split", help="copy counts per source state, e.g. 2,1")
    p_nm.add_argument("--params", help="comma-separated name=value pairs")
    p_nm.add_argument("--optimize", action="store_true")
    p_nm.add_argument("--branch", choices=(nm.BRANCH_PLUS, nm.BRANCH_MINUS),
                      default=nm.BRANCH_PLUS)
    p_nm.add_argument("--truncation", type=int)
    p_nm.add_argument("--seed", type=int, default=0, help="seed of the optimizer's extra starts")
    p_nm.set_defaults(handler=cmd_construct_nmachine)

    p_tf = sub.add_parser("transform", parents=[common], help="apply a 2x2 similarity map")
    p_tf.add_argument("--machine", required=True)
    p_tf.add_argument("--a", type=float, required=True)
    p_tf.add_argument("--b", type=float, required=True)
    p_tf.set_defaults(handler=cmd_transform)

    p_wig = sub.add_parser("wigner", parents=[common],
                           help="discrete Wigner machine of the Perturbed Coin quantum model")
    p_wig.add_argument("--p", type=float, required=True)
    p_wig.set_defaults(handler=cmd_wigner)

    for p_sub in (p_meas, p_sweep, p_rep, p_nm):
        p_sub.add_argument(
            "--horizon", type=int, default=ms.DEFAULT_HORIZON, help="estimation horizon"
        )

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except QuasiHmmError as exc:
        _print_error(exc)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        # includes json.JSONDecodeError via ValueError
        _print_error(exc)
        return EXIT_VALIDATION


def _print_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
