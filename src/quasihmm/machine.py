"""Hidden Markov machines over a finite real state space.

A :class:`Machine` is the quadruple (alphabet, states, symbol-labeled
transition matrices, stationary vector).  Entry ``T[x][j, k]`` is the joint
probability of emitting symbol ``x`` and moving to state ``k`` given state
``j``; rows of ``sum_x T[x]`` sum to 1 but individual entries may be negative
(quasi-stochastic).  The same type therefore covers classical predictive
machines, generative machines, state-split quasiprobabilistic machines, and
phase-space representations of quantum models.

Machines are immutable after construction; all operations are read-only.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .errors import (
    EnumerationCapExceeded,
    MachineFormatError,
    QuasiMachineUnsupported,
    StationaryMismatch,
    UnknownSymbol,
)

#: cap on the number of words enumerated by length-L operations
ENUMERATION_CAP = 2**20

#: relative rank tolerance of :func:`equivalence_residual`, and the largest
#: residual at which :func:`same_process` calls two processes equal
PROCESS_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class MachineClass:
    """Structural classification: sign of the model and unifilarity."""

    classical: bool
    unifilar: bool


def _slots(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A square matrix as slot arrays ``(targets, amps)`` of shape (slots, n):
    slot s of row j holds entry ``amps[s, j]`` in column ``targets[s, j]``,
    one slot per nonzero of the widest row; rows with fewer nonzeros are
    padded with target 0 and amplitude +0.0."""
    n = matrix.shape[0]
    rows, cols = np.nonzero(matrix)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    width = int(rank.max()) + 1 if rows.size else 1
    targets = np.zeros((width, n), dtype=np.intp)
    amps = np.zeros((width, n))
    targets[rank, rows] = cols
    amps[rank, rows] = matrix[rows, cols]
    return targets, amps


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Machine:
    """Immutable (alphabet, states, transition matrices, stationary) quadruple.

    ``groups`` optionally maps each state index to the index of a coarser
    source state; split-machine constructions fill it so that coarse-graining
    checks need no label parsing.

    The transition matrices are one (symbols, n, n) array in alphabet
    order, ``stacked``, which :func:`make_machine` builds read-only; entry
    ``stacked[i]`` is the matrix of symbol ``alphabet[i]``.
    ``stationary_residual`` is computed from the machine's own arrays when
    first read and then remembered.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    stacked: np.ndarray
    stationary: np.ndarray
    groups: tuple[int, ...] | None = None
    #: derived values remembered across calls (residual, classification,
    #: fidelities, slot arrays)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- basic structure ------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def stationary_residual(self) -> float:
        """Largest entry of ``|pi T - pi|``, the stationary vector's
        fixed-point residual; computed when first read and remembered."""
        if "stationary_residual" not in self._memo:
            pi = self.stationary
            residual = np.abs(pi @ self.stacked.sum(axis=0) - pi)
            self._memo["stationary_residual"] = float(residual.max(initial=0.0))
        return self._memo["stationary_residual"]

    # -- word probabilities ----------------------------------------------

    def check_enumeration(self, length: int) -> None:
        """Refuse an enumeration of the length-``length`` words before any
        work: ``ValueError`` for a negative length, ``EnumerationCapExceeded``
        for more than ``ENUMERATION_CAP`` words."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        if len(self.alphabet) ** length > ENUMERATION_CAP:
            raise EnumerationCapExceeded(
                f"{len(self.alphabet)}^{length} words exceed the cap {ENUMERATION_CAP}"
            )

    def conditional_future_matrix(self, length: int) -> np.ndarray:
        """Per-state conditional probabilities of all length-``length`` words.

        Entry ``[k, i]`` is the probability of word i given that the machine
        starts in state ``k``; the words are in the order of
        ``itertools.product(alphabet, repeat=length)``, first symbol most
        significant.  The array is built from a column of ones by ``length``
        calls of :meth:`future_step`, which gathers rows instead of
        multiplying matrices when every symbol's matrix has at most one
        nonzero per row, with the same bits.
        """
        self.check_enumeration(length)
        futures = np.ones((self.n_states, 1))
        for _ in range(length):
            futures = self.future_step(futures)
        return futures

    def future_step(self, futures: np.ndarray) -> np.ndarray:
        """Conditional futures one symbol longer,
        ``np.hstack([T[x] @ futures for x in alphabet])``: the columns of the
        words ``x w`` form block x.

        When every symbol's matrix has at most one exact nonzero per row
        (every unifilar machine at zero tolerance), row j of ``T[x] @
        futures`` is the one product ``T[x][j, t] * futures[t]`` and the
        matrix product adds only exact zeros to it.  The step then gathers
        the rows ``t`` into one array and scales them in place, O(words * n)
        instead of O(words * n^2), with the same bits: a zero product is
        +0.0 in the product's sum, so on machines with negative entries the
        gathered -0.0 are turned into +0.0.  Any other machine takes the
        matrix product.
        """
        slots = self._word_slots()
        if slots is None:
            return np.hstack([matrix @ futures for matrix in self.stacked])
        targets, amps, signed = slots
        out = np.take(futures, targets, axis=0)
        out *= amps[:, :, None]
        if signed:
            out += 0.0
        return out.reshape(self.n_states, -1)

    def _word_slots(self) -> tuple[np.ndarray, np.ndarray, bool] | None:
        """``(targets, amps, signed)`` when every symbol's matrix has at most
        one nonzero per row, else None: column x of the (n, symbols) arrays
        is the one slot of ``T[x]`` (see :func:`_slots`), and ``signed`` tells
        whether any entry is negative."""
        if "word_slots" not in self._memo:
            slots = [_slots(matrix) for matrix in self.stacked]
            found = None
            if all(targets.shape[0] == 1 for targets, _ in slots):
                targets = np.stack([t[0] for t, _ in slots], axis=1)
                amps = np.stack([a[0] for _, a in slots], axis=1)
                found = (targets, amps, bool(np.any(amps < 0)))
            self._memo["word_slots"] = found
        return self._memo["word_slots"]

    def word_distribution(self, length: int) -> dict[str, float]:
        """Map from every length-``length`` word to its probability."""
        probs = self.stationary @ self.conditional_future_matrix(length)
        words = map("".join, itertools.product(self.alphabet, repeat=length))
        return dict(zip(words, probs.tolist()))

    # -- classification -----------------------------------------------------

    def classify(self) -> MachineClass:
        """Sign and unifilarity of the transitions at tolerance
        ``linalg.STRUCT_TOL``; remembered, since the machine never changes."""
        if "classify" not in self._memo:
            tol = linalg.STRUCT_TOL
            classical = np.min(self.stationary) >= -tol and self.stacked.min(initial=0.0) >= -tol
            nonzeros = np.count_nonzero(np.abs(self.stacked) > tol, axis=2)
            self._memo["classify"] = MachineClass(
                classical=bool(classical), unifilar=bool(nonzeros.max(initial=0) <= 1)
            )
        return self._memo["classify"]

    # -- conditional-future fidelities -------------------------------------

    def future_fidelity_matrix(self, horizon: int) -> np.ndarray:
        """Matrix of Bhattacharyya overlaps between per-state futures.

        Entry ``(j, k)`` is ``sum_w sqrt(P(w|j) P(w|k))`` over all words of
        the given length.  For unifilar machines each word has a single
        contributing path, so the sum telescopes into an exact transfer-matrix
        recursion (``fidelity_step``) and any horizon is cheap; otherwise
        words are enumerated (subject to ``ENUMERATION_CAP``).  Requires
        nonnegative transitions.

        The machine remembers the last two horizons it computed: the
        recursion to ``horizon`` yields ``horizon - 1`` on the way, so a
        measure that compares the two (``excess_entropy_half``,
        ``gram_from_machine``) runs it once, and further measures at the same
        horizon reuse it.  The returned array is read-only.
        """
        if not self.classify().classical:
            raise QuasiMachineUnsupported(
                "future fidelities need nonnegative transition probabilities"
            )
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        memo = self._memo.setdefault("fidelity", {})
        if horizon in memo:
            return memo[horizon]
        if self.classify().unifilar:
            prev, fid = None, np.ones((self.n_states, self.n_states))
            for _ in range(horizon):
                prev, fid = fid, self.fidelity_step(fid)
            memo.clear()
            if prev is not None:
                prev.setflags(write=False)
                memo[horizon - 1] = prev
        else:
            futures = self.conditional_future_matrix(horizon)
            roots = np.sqrt(np.clip(futures, 0.0, None))
            fid = roots @ roots.T
            while len(memo) > 1:
                del memo[next(iter(memo))]
        fid.setflags(write=False)
        memo[horizon] = fid
        return fid

    def fidelity_step(self, fid: np.ndarray) -> np.ndarray:
        """One step of the unifilar overlap recursion,
        ``sum_x sqrt(T[x]) @ fid @ sqrt(T[x]).T``.

        Each ``sqrt(T[x])`` is held as per-row slots (target, amplitude), one
        slot per nonzero entry of the widest row, so the step is a gather of
        ``fid`` and two scalings, O(n^2) instead of O(n^3).  With one nonzero
        per row (every unifilar machine at zero tolerance) the products are
        formed in the order of the matrix product and the result is
        bit-identical to it.
        """

        def accumulate(total, term):
            if total is None:
                return term
            total += term
            return total

        out = None
        for targets, amps in self._root_slots():
            for t_q, a_q in zip(targets, amps):
                inner = None
                for t_p, a_p in zip(targets, amps):
                    # two takes gather the same entries as fid[np.ix_(t_p, t_q)],
                    # in about half the time
                    term = fid.take(t_p, axis=0).take(t_q, axis=1)
                    term *= a_p[:, None]
                    inner = accumulate(inner, term)
                inner *= a_q[None, :]
                out = accumulate(out, inner)
        return out

    def _root_slots(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per symbol, ``sqrt(T[x])`` (negative entries clipped) as the slot
        arrays of :func:`_slots`."""
        if "root_slots" not in self._memo:
            self._memo["root_slots"] = [
                _slots(np.sqrt(np.clip(matrix, 0.0, None))) for matrix in self.stacked
            ]
        return self._memo["root_slots"]

    # -- persistence -------------------------------------------------------

    def to_json_dict(self) -> dict:
        doc: dict = {
            "alphabet": list(self.alphabet),
            "states": list(self.states),
            "matrices": dict(zip(self.alphabet, self.stacked.tolist())),
            "stationary": self.stationary.tolist(),
        }
        if self.groups is not None:
            doc["groups"] = list(self.groups)
        return doc

    def to_json_text(self) -> str:
        """The machine file: the same bytes as
        ``json.dumps(self.to_json_dict(), indent=2) + "\n"``.

        The standard encoder falls back to pure Python whenever it indents
        and holds every number as a separate chunk until the end.  Here each
        row is a list filled with ``"0.0"``, and ``float.__repr__`` (the
        function that encoder uses for finite floats, the only ones
        ``make_machine`` admits) is called only on the entries whose bits are
        nonzero, so a -0.0 still reads ``-0.0`` and a sparse row costs its
        nonzeros, not its length.  Each row is encoded in one join, and the
        pieces are joined once.
        """

        def array(items: list[str], pad: str) -> list[str]:
            if not items:
                return ["[]"]
            inner = "\n" + pad + "  "
            return ["[" + inner, ("," + inner).join(items), "\n" + pad + "]"]

        def numbers(values: np.ndarray, pad: str) -> list[str]:
            items = ["0.0"] * values.size
            nonzero = np.flatnonzero(values.view(np.uint64)).tolist()
            for i, text in zip(nonzero, map(float.__repr__, values[nonzero].tolist())):
                items[i] = text
            return array(items, pad)

        def obj(fields: list[tuple[str, list[str]]], pad: str) -> list[str]:
            if not fields:
                return ["{}"]
            inner = "\n" + pad + "  "
            pieces = ["{"]
            for i, (key, value) in enumerate(fields):
                pieces.append(("," if i else "") + inner + json.dumps(key) + ": ")
                pieces.extend(value)
            pieces.append("\n" + pad + "}")
            return pieces

        matrices = [
            (x, array(["".join(numbers(row, "      ")) for row in matrix], "    "))
            for x, matrix in zip(self.alphabet, self.stacked)
        ]
        fields = [
            ("alphabet", array(list(map(json.dumps, self.alphabet)), "  ")),
            ("states", array(list(map(json.dumps, self.states)), "  ")),
            ("matrices", obj(matrices, "  ")),
            ("stationary", numbers(self.stationary, "  ")),
        ]
        if self.groups is not None:
            fields.append(("groups", array(list(map(str, self.groups)), "  ")))
        return "".join(obj(fields, "") + ["\n"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json_text())


def _group_index(g) -> int:
    """One ``groups`` entry as an int: a Python or numpy integer, not a bool."""
    if not isinstance(g, (bool, np.bool_)):
        try:
            return operator.index(g)
        except TypeError:
            pass
    raise MachineFormatError(f"groups entry {g!r} is not an integer")


def make_machine(
    alphabet: Sequence[str],
    states: Sequence[str],
    stacked,
    stationary=None,
    groups: Sequence[int] | None = None,
) -> Machine:
    """Validating constructor.

    ``stacked`` holds the transition matrices as one array-like of shape
    (symbols, n, n) in alphabet order.  It is copied once into the
    read-only ``Machine.stacked``, which is summed once.  Row
    sums of the summed transition matrix must be 1 within
    ``linalg.STRUCT_TOL`` and its entries finite.  When
    ``stationary`` is omitted it is computed as the unique unit-sum left
    fixed vector, and :func:`linalg.left_fixed_vector` is the one place the
    summed matrix is validated; its row-sum failure is raised here as
    ``MachineFormatError``.
    When ``stationary`` is given it is verified rather than trusted, and its
    fixed-point residual is remembered as the machine's
    ``stationary_residual``.  ``groups``, when given, must hold one
    nonnegative integer per state; a bool, float or string entry is refused.
    """
    alphabet = tuple(str(x) for x in alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise MachineFormatError("alphabet has repeated symbols")
    states = tuple(str(s) for s in states)
    n = len(states)
    stack = np.array(stacked, dtype=float, order="C")
    if stack.shape != (len(alphabet), n, n):
        raise MachineFormatError(
            f"transition stack has shape {stack.shape}, expected {(len(alphabet), n, n)}"
        )
    stack.setflags(write=False)
    if groups is not None:
        groups = tuple(_group_index(g) for g in groups)
        if len(groups) != n:
            raise MachineFormatError(f"groups has {len(groups)} entries, expected {n}")
        if min(groups, default=0) < 0:
            raise MachineFormatError(f"groups has a negative entry {min(groups)}")

    total = stack.sum(axis=0)
    residual = None
    if stationary is None:
        try:
            pi = linalg.left_fixed_vector(total)
        except ValueError as exc:
            # the row-sum check; a non-finite entry raises NonFiniteEntries
            res = linalg.row_sum_residual(total)
            raise MachineFormatError(
                f"summed transition matrix row-sum residual {res:.3e}"
            ) from exc
        pi.setflags(write=False)
    else:
        res = linalg.row_sum_residual(total)
        if res > linalg.STRUCT_TOL:
            raise MachineFormatError(f"summed transition matrix row-sum residual {res:.3e}")
        pi = _frozen(stationary)
        if pi.shape != (n,):
            raise MachineFormatError(f"stationary vector has shape {pi.shape}, expected ({n},)")
        if not np.all(np.isfinite(pi)):
            raise StationaryMismatch("stationary vector has NaN or infinite entries")
        if abs(pi.sum() - 1.0) > linalg.STRUCT_TOL:
            raise StationaryMismatch(f"stationary sums to {pi.sum():.12g}, expected 1")
        residual = float(np.max(np.abs(pi @ total - pi)))
        if residual > 10 * linalg.EIGEN_TOL:
            raise StationaryMismatch(f"stationary fixed-point residual {residual:.3e}")

    machine = Machine(alphabet, states, stack, pi, groups)
    if residual is not None:
        machine._memo["stationary_residual"] = residual
    return machine


def same_process(a: Machine, b: Machine) -> bool:
    """Whether two machines generate the same process: every word has the
    same probability under both, decided by :func:`equivalence_residual`
    from ``[pi_a, -pi_b]`` within ``PROCESS_EQUALITY_TOL``."""
    start = np.concatenate([a.stationary, -b.stationary])
    return equivalence_residual(a, b, start) <= PROCESS_EQUALITY_TOL


def equivalence_residual(a: Machine, b: Machine, starts) -> float:
    """Largest ``|v . 1|`` over an orthonormal basis v of the span of the
    rows ``starts[i] @ T_w`` over all words w, where ``T_w`` multiplies the
    pairs ``diag(a.T[x], b.T[x])``: zero exactly when every
    ``starts[i] @ T_w @ 1`` is (Tzeng, SIAM J. Comput. 21:216 (1992)).

    The span is grown breadth-first, one word length per level, within
    ``a.n_states + b.n_states`` levels.  Each row of a level, an image of a
    direction the last level added, is orthogonalised against the basis by
    Gram-Schmidt (no LAPACK call) and kept when what remains exceeds
    ``PROCESS_EQUALITY_TOL`` times the level's largest row norm.  Raises
    ``UnknownSymbol`` when the alphabets differ.
    """
    if a.alphabet != b.alphabet:
        raise UnknownSymbol(f"alphabets differ: {a.alphabet} vs {b.alphabet}")
    n, size = a.n_states, a.n_states + b.n_states
    basis, rank = np.zeros((size, size)), 0
    level = np.asarray(starts, dtype=float).reshape(-1, size)
    while level.size and rank < size:
        first, scale = rank, np.linalg.norm(level, axis=1).max()
        for row in level:
            for _ in range(2):  # a second pass restores orthogonality lost to rounding
                row = row - (basis[:rank] @ row) @ basis[:rank]
            norm = np.linalg.norm(row)
            if norm > PROCESS_EQUALITY_TOL * scale:
                basis[rank] = row / norm
                rank += 1
        images = [basis[first:rank, :n] @ a.stacked, basis[first:rank, n:] @ b.stacked]
        level = np.concatenate(images, axis=2).reshape(-1, size)
    return float(np.abs(basis[:rank].sum(axis=1)).max(initial=0.0))


def load_machine(path) -> Machine:
    """Read a machine definition from JSON.

    The file's stationary vector, when present, is kept verbatim (round trips
    are bit-exact) but its fixed-point residual is recomputed and checked.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise MachineFormatError(f"cannot read machine file {path}: {exc}") from exc
    return machine_from_json_dict(doc)


def _numeric(value, what: str) -> np.ndarray:
    """``value`` parsed as an array of JSON numbers.  An array that numpy
    parses to a dtype other than integer or float (one with a string or null
    entry, or of bools only) or not at all (a ragged one) is refused, naming
    ``what``; one dtype check, so a large matrix costs no Python loop over
    its entries."""
    try:
        a = np.asarray(value)
        if a.dtype.kind in "iuf":
            return a
    except (TypeError, ValueError):
        pass
    raise MachineFormatError(f"{what} is not a numeric array")


def machine_from_json_dict(doc: Mapping) -> Machine:
    """The machine of a file's JSON document.  Its ``matrices`` object maps
    each symbol to a square array of numbers, passed on in alphabet order,
    and its optional ``stationary`` is an array of numbers."""
    if not isinstance(doc, Mapping):
        raise MachineFormatError("machine document must be a JSON object")
    for key in ("alphabet", "states", "matrices"):
        if key not in doc:
            raise MachineFormatError(f"machine document missing {key!r}")
    for key in ("alphabet", "states", "groups"):
        if key in doc and not isinstance(doc[key], list):
            raise MachineFormatError(f"machine document field {key!r} must be a JSON array")
    if not isinstance(doc["matrices"], Mapping):
        raise MachineFormatError("machine document field 'matrices' must be a JSON object")
    matrices, alphabet = doc["matrices"], [str(x) for x in doc["alphabet"]]
    n = len(doc["states"])
    stacked = []
    for x in alphabet:
        if x not in matrices:
            raise MachineFormatError(f"missing transition matrix for symbol {x!r}")
        a = _numeric(matrices[x], f"matrix for symbol {x!r}")
        if a.shape != (n, n):
            raise MachineFormatError(
                f"matrix for symbol {x!r} has shape {a.shape}, expected {(n, n)}"
            )
        stacked.append(a)
    extra = set(matrices) - set(alphabet)
    if extra:
        raise MachineFormatError(f"matrices for symbols outside the alphabet: {sorted(extra)}")
    stationary = doc.get("stationary")
    if stationary is not None:
        stationary = _numeric(stationary, "machine document field 'stationary'")
    return make_machine(doc["alphabet"], doc["states"], stacked, stationary, doc.get("groups"))
