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

import functools
import io
import itertools
import json
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .errors import (
    DegenerateParameter,
    EnumerationCapExceeded,
    MachineFormatError,
    QuasiHmmError,
    QuasiMachineUnsupported,
    StationaryMismatch,
    UnknownSymbol,
)

#: cap on the number of words enumerated by length-L operations
ENUMERATION_CAP = 2**20

#: relative rank tolerance of :func:`equivalence_residual`, and the largest
#: residual at which :func:`same_process` calls two processes equal
PROCESS_EQUALITY_TOL = 1e-9

#: the largest share of nonzero matrix entries at which :func:`load_machine`
#: reads a file in the layout of :meth:`Machine.to_json_text` from its
#: nonzero lines; at larger shares ``json.loads`` is the faster read
SPARSE_SHARE = 0.05


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


def _fixed_point_residual(pi: np.ndarray, total: np.ndarray) -> float:
    """Largest entry of ``|pi @ total - pi|``."""
    return float(np.abs(pi @ total - pi).max(initial=0.0))


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

    Values derived from these arrays are computed when first read and kept:
    ``stationary_residual``, the classification of :meth:`classify` and the
    slot table of :meth:`future_step` and :meth:`fidelity_step` are cached
    properties; :meth:`future_fidelity_matrix` keeps its last two horizons.
    """

    alphabet: tuple[str, ...]
    states: tuple[str, ...]
    stacked: np.ndarray
    stationary: np.ndarray
    groups: tuple[int, ...] | None = None
    #: future-fidelity matrices of the two horizons computed last, oldest first
    _fidelities: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- basic structure ------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @functools.cached_property
    def stationary_residual(self) -> float:
        """Largest entry of ``|pi T - pi|``, the stationary vector's
        fixed-point residual."""
        return _fixed_point_residual(self.stationary, np.add.reduce(self.stacked))

    @functools.cached_property
    def _slot_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(targets, amps, roots)`` of shape (slots, symbols, n), from one
        :func:`_slots` of the rows of every ``T[x]``: entry ``[s, x, j]`` is
        slot s of row j of ``T[x]``; ``roots = sqrt(max(amps, 0))``."""
        targets, amps = _slots(self.stacked.reshape(-1, self.n_states))
        roots = np.sqrt(np.clip(amps, 0.0, None))
        shape = (-1, *self.stacked.shape[:2])
        return targets.reshape(shape), amps.reshape(shape), roots.reshape(shape)

    # -- word probabilities ----------------------------------------------

    def check_enumeration(self, length: int) -> None:
        """Refuse an enumeration of the length-``length`` words before any
        work: ``DegenerateParameter`` for a negative length,
        ``EnumerationCapExceeded`` for more than ``ENUMERATION_CAP`` words."""
        if length < 0:
            raise DegenerateParameter("length must be nonnegative")
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
        targets, amps, _ = self._slot_table
        if len(targets) > 1:
            return np.hstack([matrix @ futures for matrix in self.stacked])
        amps = amps[0].T
        out = np.take(futures, targets[0].T, axis=0)
        out *= amps[:, :, None]
        if amps.min() < 0:
            out += 0.0
        return out.reshape(self.n_states, -1)

    def word_distribution(self, length: int) -> dict[str, float]:
        """Map from every length-``length`` word to its probability."""
        probs = self.stationary @ self.conditional_future_matrix(length)
        words = map("".join, itertools.product(self.alphabet, repeat=length))
        return dict(zip(words, probs.tolist()))

    # -- classification -----------------------------------------------------

    def classify(self) -> MachineClass:
        """Sign and unifilarity of the transitions at tolerance
        ``linalg.STRUCT_TOL``, as read on the first call."""
        return self._classification

    @functools.cached_property
    def _classification(self) -> MachineClass:
        tol = linalg.STRUCT_TOL
        classical = np.min(self.stationary) >= -tol and self.stacked.min(initial=0.0) >= -tol
        nonzeros = np.count_nonzero(np.abs(self.stacked) > tol, axis=2)
        return MachineClass(bool(classical), unifilar=bool(nonzeros.max(initial=0) <= 1))

    # -- conditional-future fidelities -------------------------------------

    def future_fidelity_matrix(self, horizon: int) -> np.ndarray:
        """Matrix of Bhattacharyya overlaps between per-state futures.

        Entry ``(j, k)`` is ``sum_w sqrt(P(w|j) P(w|k))`` over all words of
        the given length.  For unifilar machines each word has a single
        contributing path, so the sum telescopes into an exact transfer-matrix
        recursion (``fidelity_step``) and any horizon is cheap; otherwise
        words are enumerated (subject to ``ENUMERATION_CAP``).  Requires
        nonnegative transitions.

        The machine keeps the matrices of the two horizons it computed last,
        by either path (the recursion to ``horizon`` makes ``horizon - 1`` on
        the way), so measures that compare the two (``excess_entropy_half``,
        ``gram_from_machine``) share them.  The enumeration takes its square
        roots in place.  The returned array is read-only.
        """
        if not self.classify().classical:
            raise QuasiMachineUnsupported(
                "future fidelities need nonnegative transition probabilities"
            )
        if horizon < 0:
            raise DegenerateParameter("horizon must be nonnegative")
        if horizon in self._fidelities:
            return self._fidelities[horizon]
        if self.classify().unifilar:
            fid = np.ones((self.n_states, self.n_states))
            for step in range(horizon):
                self._keep_fidelity(step, fid)
                fid = self.fidelity_step(fid)
        else:
            roots = self.conditional_future_matrix(horizon)
            np.sqrt(np.clip(roots, 0.0, None, out=roots), out=roots)
            fid = roots @ roots.T
        self._keep_fidelity(horizon, fid)
        return fid

    def _keep_fidelity(self, horizon: int, fid: np.ndarray) -> None:
        """Keep ``fid`` read-only, and forget all but the last one kept before."""
        fid.setflags(write=False)
        kept = self._fidelities
        kept.pop(horizon, None)
        kept[horizon] = fid
        while len(kept) > 2:
            del kept[next(iter(kept))]

    def fidelity_step(self, fid: np.ndarray) -> np.ndarray:
        """One step of the unifilar overlap recursion,
        ``sum_x sqrt(T[x]) @ fid @ sqrt(T[x]).T``.

        Each ``sqrt(T[x])`` is read from the slot table as per-row slots
        (target, amplitude), so the step is a gather of ``fid`` and two
        scalings, O(n^2) instead of O(n^3).  With one nonzero per row (every
        unifilar machine at zero tolerance) the products are formed in the
        order of the matrix product, and a zero slot adds exact zeros to a
        finite ``fid``, so the result is bit-identical to it.
        """

        def accumulate(total, term):
            if total is None:
                return term
            total += term
            return total

        targets, _, roots = self._slot_table
        out = None
        for x in range(len(self.alphabet)):
            for t_q, a_q in zip(targets[:, x], roots[:, x]):
                inner = None
                for t_p, a_p in zip(targets[:, x], roots[:, x]):
                    # two takes gather the same entries as fid[np.ix_(t_p, t_q)],
                    # in about half the time
                    term = fid.take(t_p, axis=0).take(t_q, axis=1)
                    term *= a_p[:, None]
                    inner = accumulate(inner, term)
                inner *= a_q[None, :]
                out = accumulate(out, inner)
        return out

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
        and holds every number as a separate chunk until the end.  Here one
        scan of each matrix, and of the stationary vector, finds the entries
        whose bits are nonzero, and ``float.__repr__`` (the function that
        encoder uses for finite floats, the only ones ``make_machine``
        admits) is mapped over them alone, a row's length of them at a time,
        so a -0.0 still reads ``-0.0``.  Each entry's line fills one list
        per array, the zeros' lines shared, and the array is encoded in one
        join.
        """

        def array(items: list[str], pad: str) -> list[str]:
            if not items:
                return ["[]"]
            inner = "\n" + pad + "  "
            return ["[" + inner, ("," + inner).join(items), "\n" + pad + "]"]

        def numbers(values: np.ndarray, pad: str) -> list[str]:
            """A vector, or a matrix as an array of its rows, in one join."""
            flat = values.ravel()
            if not flat.size:
                return ["[]"]
            n, entry = values.shape[-1], "\n" + pad + "  " * values.ndim
            items = [entry + "0.0"] * flat.size
            nonzero = np.flatnonzero(flat.view(np.uint64))
            for start in range(0, nonzero.size, n):
                chunk = nonzero[start:start + n]
                for i, text in zip(chunk.tolist(), map(float.__repr__, flat[chunk].tolist())):
                    items[i] = entry + text
            if values.ndim == 2:
                # each row's brackets ride on its first and last entries
                row = "\n" + pad + "  "
                for i in range(0, flat.size, n):
                    items[i] = row + "[" + items[i]
                    items[i + n - 1] += row + "]"
            return ["[", ",".join(items), "\n" + pad + "]"]

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

        matrices = [(x, numbers(matrix, "    ")) for x, matrix in zip(self.alphabet, self.stacked)]
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
    (symbols, n, n) in alphabet order, with at least one state.  It is
    copied once into the read-only ``Machine.stacked``, which is summed
    once.  Row sums of the summed transition matrix must be 1 within
    ``linalg.STRUCT_TOL`` and its entries finite.  When
    ``stationary`` is omitted it is computed as the unique unit-sum left
    fixed vector, and :func:`linalg.left_fixed_vector` is the one place the
    summed matrix is validated; its row-sum failure is raised here as
    ``MachineFormatError``.
    When ``stationary`` is given it is verified rather than trusted: the
    built machine's ``stationary_residual``, computed from that one sum and
    kept, must be at most ``10 * linalg.EIGEN_TOL``.  ``groups``, when
    given, must hold one nonnegative integer per state; a bool, float or
    string entry is refused.
    """
    alphabet = tuple(map(str, alphabet))
    if len(set(alphabet)) != len(alphabet):
        raise MachineFormatError("alphabet has repeated symbols")
    states = tuple(map(str, states))
    n = len(states)
    stack = np.array(stacked, dtype=float, order="C")
    if stack.shape != (len(alphabet), n, n):
        raise MachineFormatError(
            f"transition stack has shape {stack.shape}, expected {(len(alphabet), n, n)}"
        )
    if not n:
        raise MachineFormatError("machine has no states")
    stack.setflags(write=False)
    if groups is not None:
        groups = tuple(map(_group_index, groups))
        if len(groups) != n:
            raise MachineFormatError(f"groups has {len(groups)} entries, expected {n}")
        if groups and min(groups) < 0:
            raise MachineFormatError(f"groups has a negative entry {min(groups)}")

    total = np.add.reduce(stack)
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

    m = Machine(alphabet, states, stack, pi, groups)
    if stationary is not None:
        # fill the cached property from the sum above instead of a second one
        res = vars(m)["stationary_residual"] = _fixed_point_residual(pi, total)
        if res > 10 * linalg.EIGEN_TOL:
            raise StationaryMismatch(f"stationary fixed-point residual {res:.3e}")
    return m


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
    A file in the layout of :meth:`Machine.to_json_text` with at most
    ``SPARSE_SHARE`` of its matrix entries nonzero is read from its
    nonzero lines (:func:`_read_written_layout`); every other file is read
    by ``json.loads``.  Both reads give the same machine, bit for bit, and
    the same errors.
    """
    try:
        data = Path(path).read_bytes()
        machine = _read_written_layout(data)
        if machine is not None:
            return machine
        # decoded as ``Path.read_text`` decodes, from the one read, so that a
        # stream such as a pipe is read once; only the text is alive while
        # it parses
        text = io.TextIOWrapper(io.BytesIO(data)).read()
        del data
        doc = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MachineFormatError(f"cannot read machine file {path}: {exc}") from exc
    return machine_from_json_dict(doc)


# the writer's lines around the "matrices" object
_MATRICES_OPEN = b',\n  "matrices": {\n'
_MATRICES_CLOSE = b'\n  },\n  "stationary": [\n'
#: the first four bytes of a zero entry's token in the writer's layout, as
#: little-endian integers: ``0.0`` then a comma, or the newline of a row's end
_ZERO_TOKENS = (int.from_bytes(b"0.0,", "little"), int.from_bytes(b"0.0\n", "little"))


def _read_written_layout(data: bytes) -> Machine | None:
    """The machine of ``data`` when it is the text that machine's
    :meth:`Machine.to_json_text` writes and at most ``SPARSE_SHARE`` of its
    matrix entries are nonzero, read at the cost of its nonzeros; otherwise
    None.

    Everything but the ``"matrices"`` object is parsed by ``json.loads``,
    the matrices are read from their nonzero lines by
    :func:`_sparse_matrices`, and the machine is built by
    :func:`machine_from_json_dict`.  It is kept only when its
    ``to_json_text()`` gives back ``data``: the writer's text parses back to
    the values it was written from, so ``json.loads`` of ``data`` would have
    given the same arrays, bit for bit, and the same machine.  An error on
    the way, from a text that does not parse or a machine that is refused,
    means that ``data`` is not such a text and gives None, so that the
    caller's ``json.loads`` read raises what it always raised.
    """
    try:
        begin = data.index(_MATRICES_OPEN) + len(_MATRICES_OPEN)
        end = data.rindex(_MATRICES_CLOSE)
        # the rest of the document, from the comma after the object's brace
        doc = json.loads(data[:begin - len(_MATRICES_OPEN)] + data[end + len(b"\n  }"):])
        alphabet = doc["alphabet"]
        stacked = _sparse_matrices(data, begin, end, alphabet, len(doc["states"]))
        if stacked is None:
            return None
        doc["matrices"] = dict(zip(map(str, alphabet), stacked))
        machine = machine_from_json_dict(doc)
        del doc, stacked  # the machine holds its own copy
        if machine.to_json_text().encode() == data:
            return machine
    except (ValueError, TypeError, KeyError, IndexError, RecursionError, QuasiHmmError):
        pass  # not the writer's text: the caller reads it by json.loads
    return None


def _sparse_matrices(data: bytes, begin: int, end: int, alphabet: list, n: int):
    """The (symbols, n, n) stack read from ``data[begin:end]``, the lines of
    a ``"matrices"`` object in the writer's layout for ``alphabet`` and
    ``n`` states, or None when its length does not fit that layout or more
    than ``SPARSE_SHARE`` of its entry lines do not read ``0.0``.

    In that layout each entry is one line, eight spaces and its token, and
    line ``L`` of the object holds entry ``[s, r, c]`` when ``L = s (n (n +
    2) + 2) + r (n + 2) + c + 2``.  The length is checked first: a zero
    entry's line holds 12 or 13 bytes and a nonzero one at most 21 more
    (``float.__repr__`` writes at most 24 characters), and each row adds 17
    bytes of brackets.  Then one pass finds the newlines and one reads four
    bytes at each token, so the Python work is one ``float()`` per nonzero
    entry.
    """
    size = len(alphabet) * n * n
    most = (13 + 21 * SPARSE_SHARE) * size + 17 * len(alphabet) * n
    most += sum(15 + len(json.dumps(x)) for x in alphabet)
    if not 12 * size <= end - begin <= most:
        return None
    buf = np.frombuffer(data, np.uint8)
    # the newline that ends line L of the object, and the token of line L + 1
    newlines = np.flatnonzero(buf[begin:end] == 10)
    tokens = np.ndarray(end - begin, "<u4", data, begin + 9, (1,))[newlines]
    lines = 1 + np.flatnonzero((tokens != _ZERO_TOKENS[0]) & (tokens != _ZERO_TOKENS[1]))
    symbol, line = np.divmod(lines, n * (n + 2) + 2)
    row, column = np.divmod(line - 2, n + 2)
    entry = column < n
    if np.count_nonzero(entry) > SPARSE_SHARE * size:
        return None
    lines = lines[entry]
    starts, stops = begin + newlines[lines - 1] + 9, begin + newlines[lines]
    stops -= buf[stops - 1] == ord(",")
    stacked = np.zeros((len(alphabet), n, n))
    stacked[symbol[entry], row[entry], column[entry]] = [
        float(data[a:b]) for a, b in zip(starts.tolist(), stops.tolist())
    ]
    return stacked


#: entry types that numpy parses as numbers among numbers, but JSON does not
_BOOL_TYPES = frozenset({bool, np.bool_})


def _numeric(value, what: str) -> np.ndarray:
    """``value`` parsed as an array of JSON numbers.  An array that numpy
    parses to a dtype other than integer or float (one with a string or null
    entry, or of bools only) or not at all (a ragged one) is refused, naming
    ``what``, and so is one with a bool among numbers, which numpy would read
    as 0 or 1.  The bools are found by one C-level pass over the types of the
    entries (the rows chained together), so a large matrix costs no Python
    loop over its entries; an ndarray's dtype speaks for its entries."""
    try:
        a = np.asarray(value)
        if a.dtype.kind in "iuf":
            if a is value:
                return a
            entries = [value]
            for _ in range(a.ndim):
                entries = itertools.chain.from_iterable(entries)
            if _BOOL_TYPES.isdisjoint(map(type, entries)):
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
