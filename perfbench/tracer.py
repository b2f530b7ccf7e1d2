"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced function of the quasihmm package by a
timing wrapper, at every binding: module attributes in every quasihmm module
(``make_machine`` is imported by name into ``processes``, ``quantum``,
``nmachine``, ``transforms`` and the package root) and methods on their
class.  ``remove`` puts every original back.

A wrapper records calls, total time and self time (total less the time of
traced calls beneath it) per function, and the work counts below.  Counts
are exact for a given input, so two traced runs of one seed agree on them.

* ``machine.fidelity_steps``: sum of the horizon over calls of
  ``future_fidelity_matrix`` that take the unifilar recursion (those that
  enumerate words call ``conditional_future_matrix`` instead);
  ``machine.fidelity_flops``: 4 |A| n^3 per step, computed.
* ``machine.words_enumerated``: |A|^L per ``conditional_future_matrix(L)``.
* ``machine.load_bytes``: size of each file ``load_machine`` reads;
  ``machine.save_bytes``: size of each machine file a request writes (added
  by the runner, since ``make-machine`` writes through the CLI).
* ``linalg.fixed_vector_n3`` / ``quantum.spectrum_n3``: sum of n^3 over
  fixed-vector solves and Gram spectra, computed.
* ``nmachine.objective_evals`` / ``infeasible_evals``: objective evaluations
  of ``optimize_ideal`` and those that hit a degenerate or non-finite point.
  Each evaluation builds one split machine; after the search,
  ``optimize_ideal`` builds the best point once more to test it and, when it
  returns, once more for the result.  Those builds are not evaluations.
* ``errors.raised``: QuasiHmmError instances that pass through any wrapper,
  each counted once.

``transforms`` and ``wigner`` (2x2, O(1)) are not traced.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter

import numpy as np

from quasihmm import cli, linalg, machine, measures, nmachine, processes, quantum
from quasihmm.errors import (
    DegenerateFixedSpace,
    NoFeasiblePoint,
    NoUnitEigenvalue,
    QuasiHmmError,
    ZeroEntryWithQuasiOrder,
)


def _name(module, path: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{path}"


#: (module, attribute path) of every traced function; ``cli.main`` alone
#: stands for the CLI, so its self time is parsing, formatting and encoding
TRACED = [
    (cli, "main"),
    (linalg, "left_fixed_vector"),
    (machine, "make_machine"),
    (machine, "load_machine"),
    (machine, "Machine.classify"),
    (machine, "Machine.future_fidelity_matrix"),
    (machine, "Machine.conditional_future_matrix"),
    (machine, "Machine.word_distribution"),
    (processes, "sns_epsilon_truncated"),
    (processes, "sns_renewal_data"),
    (processes, "sns_past_future_overlap"),
    (measures, "excess_entropy_half"),
    (measures, "excess_entropy_shannon"),
    (quantum, "gram_from_machine"),
    (quantum, "quantum_complexity"),
    (quantum, "sns_gram_ensemble"),
    (nmachine, "optimize_ideal"),
    (nmachine, "build_split_machine"),
    (nmachine, "verify_nmachine_properties"),
]

COUNTS = (
    "machine.fidelity_steps", "machine.fidelity_flops", "machine.words_enumerated",
    "machine.load_bytes", "machine.save_bytes", "linalg.fixed_vector_n3",
    "quantum.spectrum_n3", "nmachine.objective_evals", "nmachine.infeasible_evals",
    "errors.raised",
)

#: per-layer metrics of the summary line.  Times only of functions that run
#: on every workload, so that none reads 0 for want of a call; the result
#: file has calls, total_s and self_s of every traced function.
PER_LAYER = {
    "cli.main.self_s": "s",
    "machine.make_machine.self_s": "s",
    "linalg.left_fixed_vector.total_s": "s",
    "machine.Machine.conditional_future_matrix.total_s": "s",
    **{f"{_name(module, path)}.calls": "count" for module, path in TRACED},
    "machine.fidelity_steps": "count",
    "machine.fidelity_flops": "flop",
    "machine.words_enumerated": "count",
    "machine.load_bytes": "B",
    "machine.save_bytes": "B",
    "linalg.fixed_vector_n3": "count",
    "quantum.spectrum_n3": "count",
    "nmachine.objective_evals": "count",
    "nmachine.infeasible_evals": "count",
    "nmachine.feasible_ratio": "ratio",
    "errors.raised": "count",
}

_INFEASIBLE = (DegenerateFixedSpace, NoUnitEigenvalue, ZeroEntryWithQuasiOrder)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


_ENUMERATE = "machine.Machine.conditional_future_matrix"


class _Frame:
    __slots__ = ("name", "child_s", "enumerated", "builds")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        #: a direct child enumerated words
        self.enumerated = False
        #: feasibility of each split machine built beneath (optimize_ideal)
        self.builds: list[bool] = []


class Tracer:
    """Wraps the traced functions while installed; ``take`` returns the
    metrics gathered since the last ``take`` and starts afresh."""

    def __init__(self):
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter({k: 0 for k in COUNTS})

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items()
                   if (n == "quasihmm" or n.startswith("quasihmm.")) and m is not None]
        try:
            for module, path in TRACED:
                name = _name(module, path)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except QuasiHmmError as error:
                exc = error
                if not getattr(error, "_traced", False):
                    error._traced = True
                    self.counts["errors.raised"] += 1
                raise
            except BaseException as error:
                exc = error
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
                    if name == _ENUMERATE:
                        stack[-1].enumerated = True
                if hook is not None:
                    hook(frame, args, kwargs, result, exc)

        return wrapper

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _after_left_fixed_vector(self, frame, args, kwargs, result, exc):
        self.counts["linalg.fixed_vector_n3"] += np.shape(_arg(args, kwargs, 0, "m"))[0] ** 3

    def _after_quantum_complexity(self, frame, args, kwargs, result, exc):
        self.counts["quantum.spectrum_n3"] += len(_arg(args, kwargs, 0, "g").weights) ** 3

    def _after_conditional_future_matrix(self, frame, args, kwargs, result, exc):
        if exc is None:
            m, length = args[0], _arg(args, kwargs, 1, "length")
            self.counts["machine.words_enumerated"] += len(m.alphabet) ** length

    def _after_future_fidelity_matrix(self, frame, args, kwargs, result, exc):
        if exc is None and not frame.enumerated:
            m, horizon = args[0], _arg(args, kwargs, 1, "horizon")
            self.counts["machine.fidelity_steps"] += horizon
            self.counts["machine.fidelity_flops"] += 4 * len(m.alphabet) * m.n_states**3 * horizon

    def _after_load_machine(self, frame, args, kwargs, result, exc):
        if exc is None:
            self.counts["machine.load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _after_build_split_machine(self, frame, args, kwargs, result, exc):
        if isinstance(exc, _INFEASIBLE):
            feasible = False
        elif exc is None:
            # the collision entropy -log2(sum pi^2) is finite
            pi = result.stationary
            purity = float(pi @ pi)
            feasible = math.isfinite(purity) and purity > 0.0
        else:
            return
        for outer in reversed(self._stack):
            if outer.name == "nmachine.optimize_ideal":
                outer.builds.append(feasible)
                break

    def _after_optimize_ideal(self, frame, args, kwargs, result, exc):
        spec = _arg(args, kwargs, 1, "spec")
        builds = frame.builds
        if not spec.param_names:
            builds = []
        elif exc is None:
            builds = builds[:-2]
        elif isinstance(exc, NoFeasiblePoint):
            builds = builds[:-1]
        self.counts["nmachine.objective_evals"] += len(builds)
        self.counts["nmachine.infeasible_evals"] += builds.count(False)

    # -- results -------------------------------------------------------------

    def take(self) -> dict[str, float]:
        """Metrics since the last call: per traced function ``calls``,
        ``total_s`` and ``self_s``, plus the counts and the feasible ratio."""
        out: dict[str, float] = {}
        for module, path in TRACED:
            name = _name(module, path)
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)
        evals = self.counts["nmachine.objective_evals"]
        feasible = evals - self.counts["nmachine.infeasible_evals"]
        out["nmachine.feasible_ratio"] = feasible / evals if evals else 0.0
        self._reset()
        return out
