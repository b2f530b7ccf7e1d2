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
import inspect
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


def _refuse_unread(what: str, option: str, value) -> None:
    """Refuses a given option that ``what`` does not read."""
    if value is not None:
        raise ValueError(f"{what} takes no {option}")


#: each ``make-machine`` process, mapped to the name of its ``processes``
#: builder; the options a process reads are its builder's parameters, of
#: ``p`` (required) and ``truncation``
_ZOO = {
    "perturbed-coin": "perturbed_coin_epsilon",
    "perturbed-coin-rjmc": "perturbed_coin_rjmc",
    "golden-mean": "golden_mean_epsilon",
    "sns-g": "sns_g_machine",
    "sns-epsilon": "sns_epsilon_truncated",
    "even": "even_process_epsilon",
    "unbiased-coin": "unbiased_coin",
}


def _reads(process: str) -> list[str]:
    """The options ``process`` reads: the parameters of its builder, which is
    looked up on each call so that a rebinding in ``processes`` is seen."""
    return list(inspect.signature(getattr(procs, _ZOO[process])).parameters)


def _build(process: str, **options) -> Machine:
    """``process``'s machine from the ``options`` its builder reads."""
    return getattr(procs, _ZOO[process])(**{k: options[k] for k in _reads(process)})


def cmd_make_machine(args) -> int:
    reads, what = _reads(args.process), f"process {args.process!r}"
    for option in ("p", "truncation"):
        if option not in reads:
            _refuse_unread(what, "--" + option, getattr(args, option))
    if "p" in reads and args.p is None:
        raise ValueError(f"{what} requires --p")
    _emit(_build(args.process, p=args.p, truncation=args.truncation).to_json_text(), args.out)
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
    "C_q2": lambda row: ms.MEASURES["c-q2"](row.source, row.horizon).value,
    "E_half": lambda row: row.e_half,
}
#: the columns of a process with a generative model and an ideal split
_IDEAL_COLUMNS = {
    **_SHARED_COLUMNS,
    "C_g2": lambda row: ms.renyi_entropy(row.generative.stationary, 2),
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
    mapped to the function that computes the column from a row.  ``models``
    names the process's predictive and generative models by ``_ZOO`` key.
    The predictive model is the ``source`` that the split doubles, and gives
    C_mu2, C_q2 and a measured E_half unless the row type has closed forms.
    A row type also gives its split ``spec`` and the split's closed-form
    ``ideal_params(branch)``, in the order of ``spec.param_names``.
    """

    columns: dict[str, Callable[[_Row], float]] = _IDEAL_COLUMNS
    models: tuple[str, str | None]
    #: the p at which the process degenerates: generated grids leave it out,
    #: and a given grid that holds it is refused
    degenerate_p: float | None = None
    #: whether ``ideal_params`` reads its branch
    branched = True

    def __init__(self, p: float, horizon: int, truncation: int | None):
        self.p = p
        self.horizon = horizon
        self.truncation = truncation

    def values(self, columns) -> list[float]:
        return [self.columns[c](self) for c in columns]

    @functools.cached_property
    def source(self) -> Machine:
        return _build(self.models[0], p=self.p, truncation=self.truncation)

    @functools.cached_property
    def generative(self) -> Machine:
        return _build(self.models[1], p=self.p, truncation=self.truncation)

    @functools.cached_property
    def c_mu2(self) -> float:
        return ms.renyi_entropy(self.source.stationary, 2)

    @functools.cached_property
    def e_half(self) -> float:
        _check_horizon(self.horizon)
        return ms.excess_entropy_half(self.source, self.horizon).value

    def default_params(self, branch: str) -> dict[str, float]:
        return dict(zip(self.spec.param_names, self.ideal_params(branch)))

    def assess(self, spec: nm.SplitSpec, params: dict[str, float]) -> nm.NMachineResult:
        """The split of ``source`` by ``spec`` at ``params``, against the row's
        E_half and C_mu2."""
        built = nm.build_split_machine(self.source, spec, params)
        return nm.assess_split_machine(built, params, self.e_half, self.c_mu2)

    @functools.cached_property
    def split(self) -> nm.NMachineResult:
        """The split at the plus branch's ``default_params``."""
        return self.assess(self.spec, self.default_params(nm.BRANCH_PLUS))


class _PerturbedCoinRow(_Row):
    models = ("perturbed-coin", "perturbed-coin-rjmc")
    degenerate_p = 0.5

    @functools.cached_property
    def e_half(self) -> float:
        return ms.perturbed_coin_excess_half(self.p)

    spec = property(lambda row: nm.perturbed_coin_split_spec(row.p))

    def ideal_params(self, branch: str) -> tuple[float, ...]:
        return nm.perturbed_coin_ideal_params(self.p, branch)


class _SnsRow(_Row):
    columns = {
        **_IDEAL_COLUMNS,
        "C_q2": lambda row: qm.quantum_complexity(qm.sns_gram_ensemble(row.renewal)),
    }
    models = ("sns-epsilon", "sns-g")

    @property
    def source(self) -> Machine:
        """The generative model, which the split doubles."""
        return self.generative

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

    spec = property(lambda row: nm.sns_split_spec(row.p))

    def ideal_params(self, branch: str) -> tuple[float, ...]:
        return nm.sns_ideal_params(self.p, self.truncation, branch, self.overlap)


class _GoldenMeanRow(_Row):
    columns = _SHARED_COLUMNS
    models = ("golden-mean", None)
    branched = False

    #: the split that injects negativity but never lowers memory
    spec = property(lambda row: nm.golden_mean_bad_split_spec(row.p))

    def ideal_params(self, branch: str) -> tuple[float, ...]:
        return (-0.2,)


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


def _sweep_to_csv(process: str, grid: list[float], horizon: int, truncation, columns,
                  out: str | None) -> int:
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


#: most points a ``--p-min``/``--p-max``/``--p-step`` range may hold
MAX_GRID_POINTS = 10**6


def _range_grid(process: str, p_min: float, p_max: float, p_step: float) -> list[float]:
    """The p from ``p_min`` to ``p_max`` in steps of ``p_step``, rounded to 12
    decimals, without the process's degenerate p.  Non-finite bounds, and a
    range of more than ``MAX_GRID_POINTS`` points, are refused before any
    allocation."""
    for option, value in (("--p-min", p_min), ("--p-max", p_max)):
        if not math.isfinite(value):
            raise ValueError(f"{option} must be finite, got {value}")
    if not p_step > 0:
        raise ValueError(f"--p-step must be positive, got {p_step}")
    if p_min > p_max:
        raise ValueError(f"--p-min {p_min} exceeds --p-max {p_max}")
    stop = p_max + 1e-12
    # np.arange makes ceil((stop - p_min) / p_step) points, more than the
    # cap exactly when the quotient is
    if (stop - p_min) / p_step > MAX_GRID_POINTS:
        raise ValueError(
            f"--p-step {p_step} gives more than {MAX_GRID_POINTS} points "
            f"from --p-min {p_min} to --p-max {p_max}"
        )
    grid = list(np.arange(p_min, stop, p_step).round(12))
    degenerate = _SWEEP_ROWS[process].degenerate_p
    return [p for p in grid if degenerate is None or abs(p - degenerate) > 1e-12]


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


#: the sweep flags that a ``--config`` file replaces, and their defaults
_SWEEP_FLAGS = {"process": "perturbed-coin", "p_grid": None, "p_min": 0.1, "p_max": 0.9,
                "p_step": 0.1, "truncation": None}


def cmd_sweep(args) -> int:
    _check_horizon(args.horizon)
    if args.config:
        for key in _SWEEP_FLAGS:
            option = "--" + key.replace("_", "-")
            _refuse_unread("a request with --config", option, getattr(args, key))
        doc = _read_sweep_config(args.config)
        process = doc.get("process", _SWEEP_FLAGS["process"])
        grid = [float(p) for p in doc["p_grid"]]
        horizon = doc.get("horizon", args.horizon)
        truncation = doc.get("truncation")
        columns = doc.get("outputs")
        out = doc.get("output_path", args.out)
    else:
        for key, default in _SWEEP_FLAGS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        process = args.process
        if args.p_grid is not None:
            grid = _parse_grid(args.p_grid)
        else:
            grid = _range_grid(process, args.p_min, args.p_max, args.p_step)
        horizon = args.horizon
        truncation = args.truncation
        columns = None
        out = args.out
    if process not in _SWEEP_ROWS:
        raise UnsupportedProcess(f"unknown sweep process {process!r}")
    if "truncation" not in _reads(_SWEEP_ROWS[process].models[0]):
        option = "sweep config field 'truncation'" if args.config else "--truncation"
        _refuse_unread(f"process {process!r}", option, truncation)
    _check_grid(process, grid)
    return _sweep_to_csv(process, grid, horizon, truncation, columns, out)


_FIGURES = {
    "fig5": ("perturbed-coin", ("p", "C_mu2", "C_g2", "C_q2", "E_half")),
    "fig7": ("perturbed-coin", ("p", "negativity_minus_1", "advantage")),
    "fig9": ("sns", ("p", "C_mu2", "C_g2", "C_q2", "E_half")),
    "fig10": ("sns", ("p", "negativity_minus_1", "advantage")),
}


def default_grid(process: str) -> list[float]:
    return _range_grid(process, 0.05, 0.95, 0.05)


def cmd_reproduce(args) -> int:
    _check_horizon(args.horizon)
    process, columns = _FIGURES[args.figure]
    row_type = _SWEEP_ROWS[process]
    if "truncation" not in _reads(row_type.models[0]):
        _refuse_unread(f"{args.figure} (process {process!r})", "--truncation", args.truncation)
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


def _parse_split(text: str) -> tuple[int, ...]:
    counts = []
    for token in text.split(","):
        try:
            counts.append(int(token))
        except ValueError:
            raise ValueError(f"--split entry {token!r} is not an integer") from None
    return tuple(counts)


def _check_nmachine_options(args) -> None:
    """Refuses an option the request's path does not read: the search reads
    neither ``--params`` nor ``--branch``, given or zero shares read no
    closed-form branch, and only the search reads ``--seed``, which must be
    nonnegative."""
    for option, value, path, taken in (
        ("--params", args.params, "--optimize", args.optimize),
        ("--branch", args.branch, "--optimize", args.optimize),
        ("--branch", args.branch, "--params", args.params is not None),
        ("--branch", args.branch, "--split", args.split is not None),
    ):
        if taken:
            _refuse_unread(f"a request with {path}", option, value)
    if not args.optimize:
        _refuse_unread("a request without --optimize", "--seed", args.seed)
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")


def cmd_construct_nmachine(args) -> int:
    if args.horizon < 0:
        raise ValueError(f"--horizon must be nonnegative, got {args.horizon}")
    _check_nmachine_options(args)
    row_type = _NMACHINE_ROWS[args.process]
    if "truncation" not in _reads(row_type.models[0]):
        _refuse_unread(f"process {args.process!r}", "--truncation", args.truncation)
    if not row_type.branched:
        _refuse_unread(f"process {args.process!r}", "--branch", args.branch)
    row = row_type(args.p, args.horizon, args.truncation)
    source, e_half, c_mu2, spec = row.source, row.e_half, row.c_mu2, row.spec
    if args.split is not None:
        spec = nm.generic_split_spec(source, _parse_split(args.split))

    if args.optimize:
        opts = nm.OptimizeOptions(seed=args.seed or 0)
        result = nm.optimize_ideal(source, spec, e_half, opts, c_mu2=c_mu2)
    else:
        if args.params is not None:
            params = _parse_params(args.params)
        elif args.split is not None:
            params = dict.fromkeys(spec.param_names, 0.0)
        else:
            params = row.default_params(args.branch or nm.BRANCH_PLUS)
        result = row.assess(spec, params)

    checks = nm.verify_nmachine_properties(source, result.machine)
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
    p_make.add_argument("--process", required=True, choices=tuple(_ZOO))
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
    p_sweep.add_argument("--process", choices=tuple(_SWEEP_ROWS))
    p_sweep.add_argument("--p-grid", help="comma-separated grid values")
    p_sweep.add_argument("--p-min", type=float)
    p_sweep.add_argument("--p-max", type=float)
    p_sweep.add_argument("--p-step", type=float)
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
                      help=f"closed-form root (default {nm.BRANCH_PLUS})")
    p_nm.add_argument("--truncation", type=int)
    p_nm.add_argument("--seed", type=int, help="seed of the optimizer's extra starts (default 0)")
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
        # the checks refuse non-finite arithmetic themselves, so numpy's
        # warnings would only put extra lines on stderr
        with np.errstate(all="ignore"):
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
