"""State-splitting construction of quasiprobabilistic generative machines.

A split specification copies each source state some number of times and, for
every (source row, emitted symbol, target state), divides the original
transition probability among the target's copies.  The division is expressed
through affine functions of named free parameters with the last share always
taking the remainder, so the coarse-grained transition structure of the
source machine is preserved identically by construction and the free
parameters explore only the interior of each split.  Negative shares are
allowed; with them the stationary vector becomes a quasiprobability and the
collision entropy of the split machine can drop all the way to the
half-order excess entropy of the process, which no nonnegative model can
reach.

Built machines ("n-machines") satisfy, exactly: coarse-grained stationary
weights equal to the source's, per-symbol and per-word conditionals equal to
the source state's, and word-for-word equality of the generated process.
``verify_nmachine_properties`` re-derives all of these numerically, both
word identities in one exact decision over all words, and enumerates only
the half-order gap, at ``VERIFY_HORIZON``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import astuple, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateFixedSpace,
    NegativeRadicand,
    NoFeasiblePoint,
    NoUnitEigenvalue,
    PropertyViolated,
    SpecMismatch,
    TruncationTooCoarse,
)
from .machine import Machine, equivalence_residual, make_machine
from .measures import half_excess_from_futures, mana, negativity, renyi_entropy
from .processes import (
    check_not_half,
    check_open_unit,
    sns_past_future_overlap,
    sns_renewal_data,
)

BRANCH_PLUS = "plus"
BRANCH_MINUS = "minus"

#: relative saturation tolerance |C_n2 - E_half|
SAT_TOL = 1e-6
#: largest residual ``verify_nmachine_properties`` accepts
VERIFY_TOL = 1e-9
#: word length at which ``verify_nmachine_properties`` enumerates the
#: half-order gap
VERIFY_HORIZON = 8
#: first coordinate step of the pattern search
INITIAL_STEP = 0.25
#: trial points of one whole search, counting the repeats its memo answers
MAX_EVALS = 20000
#: most free parameters the search takes
MAX_PARAMS = 8


def _branch_sign(branch: str) -> float:
    if branch == BRANCH_PLUS:
        return 1.0
    if branch == BRANCH_MINUS:
        return -1.0
    raise ValueError(f"branch must be {BRANCH_PLUS!r} or {BRANCH_MINUS!r}, got {branch!r}")


@dataclass(frozen=True)
class Affine:
    """Affine expression ``const + sum_i coeffs[name_i] * params[name_i]``."""

    const: float = 0.0
    coeffs: Mapping[str, float] = field(default_factory=dict)

    def evaluate(self, params: Mapping[str, float]) -> float:
        return self.const + sum(c * params[name] for name, c in self.coeffs.items())


@dataclass(frozen=True)
class SplitSpec:
    """How to split each source state and divide each transition.

    ``copy_counts[k]`` is the number of copies of source state k.  For a
    source transition (row j, copy l_j, symbol x, target k) the entry
    ``rules[(j, l_j, x, k)]`` lists affine expressions for the first
    ``copy_counts[k] - 1`` shares; the last share is the remainder.  Missing
    rules put the full mass on the target's copy 0.  A rule that is not a
    4-tuple key with a tuple of shares, or whose key names no source row,
    copy, symbol or target, is refused when the spec is laid out for a
    source.
    """

    copy_counts: tuple[int, ...]
    param_names: tuple[str, ...] = ()
    rules: Mapping[tuple[int, int, str, int], tuple[Affine, ...]] = field(default_factory=dict)
    #: compiled layouts remembered per source alphabet and states
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def extended_states(self) -> list[tuple[int, int]]:
        return [(k, l) for k, count in enumerate(self.copy_counts) for l in range(count)]

    def compiled(self, source: Machine) -> "CompiledSplit":
        """This spec laid out for ``source``'s alphabet and states; built once
        per (alphabet, states) and remembered."""
        key = (source.alphabet, source.states)
        if key not in self._memo:
            self._memo[key] = CompiledSplit.build(self, source)
        return self._memo[key]


#: the value that ``CompiledSplit.gather`` points every unfilled entry at
_ZERO = np.zeros(1)


@dataclass(frozen=True)
class CompiledSplit:
    """A split spec as index and coefficient arrays for one source layout.

    The extended matrices, stacked per symbol, are one gather from the
    values ``[source entries, 0, remainders, heads]``.  Each term of a head
    is one (head, parameter, coefficient) record, listed head by head in the
    order of its ``Affine.coeffs``; each head records the rule whose
    remainder it is taken from.  :meth:`matrices` sums both with
    ``np.bincount``, which adds its weights one at a time in input order:
    head h is ``consts[h]`` plus its terms added in ``Affine.evaluate``'s
    order, and remainder r is its source entry less its heads added in share
    order.  The matrices therefore match the per-share construction bit for
    bit; ``TestCompiledSplitMatchesReference`` pins that, and its
    ``test_summation_order`` with sums that change when reordered.

    :meth:`build` lays out the rule-free default in one broadcast and visits
    only the entries the rules name, so its cost scales with the rules.
    """

    gather: np.ndarray
    consts: np.ndarray
    term_heads: np.ndarray
    term_params: np.ndarray
    term_coefs: np.ndarray
    remainder_sources: np.ndarray
    head_remainders: np.ndarray
    labels: tuple[str, ...]
    groups: tuple[int, ...]

    @classmethod
    def build(cls, spec: SplitSpec, source: Machine) -> "CompiledSplit":
        counts = spec.copy_counts
        n_src = len(counts)
        extended = spec.extended_states()
        size = len(extended)
        index = {pair: i for i, pair in enumerate(extended)}
        symbol_index = {x: s for s, x in enumerate(source.alphabet)}
        param_index = {name: i for i, name in enumerate(spec.param_names)}
        groups = tuple(k for k, _ in extended)
        zero_at = len(source.alphabet) * n_src * n_src
        heads_at = zero_at + 1 + len(spec.rules)

        # without a rule, copy 0 of target k takes source entry
        # (s * n_src + j) * n_src + k and every other copy the zero
        group = np.array(groups)
        symbols = np.arange(len(source.alphabet))[:, None, None]
        gather = (symbols * n_src + group[:, None]) * n_src + group
        gather[:, :, np.array([l > 0 for _, l in extended])] = zero_at

        consts: list[float] = []
        term_heads: list[int] = []
        term_params: list[int] = []
        term_coefs: list[float] = []
        remainder_sources: list[int] = []
        head_remainders: list[int] = []
        # flat positions in ``gather`` that the rules fill, and their values
        ruled: list[int] = []
        taken: list[int] = []
        for r, (key, rule) in enumerate(spec.rules.items()):
            if not (isinstance(key, tuple) and len(key) == 4 and isinstance(rule, tuple)):
                raise SpecMismatch(
                    f"rule for {key} must map a (row, copy, symbol, target) key to a tuple "
                    "of shares"
                )
            j, l_j, x, k = key
            if (j, l_j) not in index or x not in symbol_index or k not in range(n_src):
                raise SpecMismatch(
                    f"rule for {key} names no entry of copy counts {counts} "
                    f"over symbols {source.alphabet}"
                )
            if len(rule) != counts[k] - 1:
                raise SpecMismatch(
                    f"rule for {key} has {len(rule)} shares, expected {counts[k] - 1}"
                )
            s = symbol_index[x]
            remainder_sources.append((s * n_src + j) * n_src + k)
            for expr in rule:
                h = len(consts)
                consts.append(expr.const)
                head_remainders.append(r)
                for name, coef in expr.coeffs.items():
                    if name not in param_index:
                        raise SpecMismatch(f"rule for {key} uses unknown parameter {name!r}")
                    term_heads.append(h)
                    term_params.append(param_index[name])
                    term_coefs.append(coef)
                taken.append(heads_at + h)
            taken.append(zero_at + 1 + r)
            at = (s * size + index[(j, l_j)]) * size + index[(k, 0)]
            ruled.extend(range(at, at + counts[k]))
        np.put(gather, ruled, taken)

        return cls(
            gather=gather,
            consts=np.array(consts, dtype=float),
            term_heads=np.array(term_heads, dtype=np.intp),
            term_params=np.array(term_params, dtype=np.intp),
            term_coefs=np.array(term_coefs, dtype=float),
            remainder_sources=np.array(remainder_sources, dtype=np.intp),
            head_remainders=np.array(head_remainders, dtype=np.intp),
            labels=tuple(
                f"{source.states[k]}.{l}" if counts[k] > 1 else source.states[k]
                for k, l in extended
            ),
            groups=groups,
        )

    def matrices(self, source: Machine, theta: np.ndarray) -> np.ndarray:
        """Extended matrices, shape (symbols, n, n), at parameter vector
        ``theta`` (ordered as the spec's ``param_names``)."""
        entries = source.stacked.reshape(-1)
        heads = self.consts + np.bincount(
            self.term_heads, weights=self.term_coefs * theta[self.term_params],
            minlength=len(self.consts),
        )
        remainders = entries[self.remainder_sources] - np.bincount(
            self.head_remainders, weights=heads, minlength=len(self.remainder_sources)
        )
        return np.concatenate((entries, _ZERO, remainders, heads))[self.gather]


def generic_split_spec(source: Machine, copy_counts: Sequence[int]) -> SplitSpec:
    """Fully free split: one auto-named parameter per undetermined share."""
    counts = tuple(int(c) for c in copy_counts)
    if len(counts) != source.n_states or any(c < 1 for c in counts):
        raise SpecMismatch(f"copy counts {counts} do not fit {source.n_states} states")
    names: list[str] = []
    rules: dict[tuple[int, int, str, int], tuple[Affine, ...]] = {}
    for j in range(source.n_states):
        for l_j in range(counts[j]):
            for x in source.alphabet:
                for k in range(source.n_states):
                    if counts[k] == 1:
                        continue
                    exprs = []
                    for l_k in range(counts[k] - 1):
                        name = f"t{j}.{l_j}.{x}.{k}.{l_k}"
                        names.append(name)
                        exprs.append(Affine(coeffs={name: 1.0}))
                    rules[(j, l_j, x, k)] = tuple(exprs)
    return SplitSpec(copy_counts=counts, param_names=tuple(names), rules=rules)


def build_split_machine(
    source: Machine, spec: SplitSpec, params: Mapping[str, float]
) -> Machine:
    """Assemble the extended machine for concrete parameter values.

    The coarse-graining constraint (shares of each transition summing to the
    source probability) holds by construction; the stationary quasiprobability
    is computed fresh and a degenerate fixed space (possible at isolated
    parameter values) propagates as an error.  The matrices come from the
    spec's compiled layout for ``source``, built on first use.  ``params``
    must name exactly the spec's parameters.
    """
    if len(spec.copy_counts) != source.n_states:
        raise SpecMismatch(
            f"spec covers {len(spec.copy_counts)} states, machine has {source.n_states}"
        )
    missing = [name for name in spec.param_names if name not in params]
    if missing:
        raise SpecMismatch(f"missing parameter values: {missing}")
    if len(params) > len(spec.param_names):
        extra = [name for name in params if name not in spec.param_names]
        raise SpecMismatch(f"parameters not in the spec: {extra}")

    compiled = spec.compiled(source)
    theta = np.array([params[name] for name in spec.param_names], dtype=float)
    stacked = compiled.matrices(source, theta)
    return make_machine(source.alphabet, compiled.labels, stacked, groups=compiled.groups)


# --- defining identities as numeric checks ------------------------------------


@dataclass(frozen=True)
class NMachineCheckReport:
    """Largest residual of each defining identity of a built split machine."""

    stationary_fixed: float
    coarse_graining: float
    words: float
    half_excess_gap: float

    def worst(self) -> float:
        return max(astuple(self))

    def passed(self) -> bool:
        return self.worst() <= VERIFY_TOL

    def __str__(self) -> str:
        return (
            f"fixed={self.stationary_fixed:.3e} "
            f"coarse={self.coarse_graining:.3e} "
            f"words={self.words:.3e} "
            f"half-excess={self.half_excess_gap:.3e} (tol {VERIFY_TOL:g})"
        )


def verify_nmachine_properties(source: Machine, built: Machine) -> NMachineCheckReport:
    """Check every construction identity of ``built`` against ``source``.

    Verified, each within ``VERIFY_TOL``: the built stationary vector as a
    fixed point of the built transitions, coarse-grained stationary weights,
    the word identities, decided over all words by one
    :func:`machine.equivalence_residual` call from one start row per copy
    (its futures are its source state's) and the row ``[pi_built,
    -pi_source]`` (the two processes agree), and agreement of the
    half-order state-future mutual information at ``VERIFY_HORIZON``,
    summed over the words each source state can emit (the signed
    stationary weights enter that sum linearly, so it stays real).  An
    alphabet with more words of that length than the enumeration cap is
    refused before any check.  Raises ``PropertyViolated`` carrying the
    report if any residual is too large.
    """
    if built.groups is None:
        raise SpecMismatch("built machine carries no source-state groups")
    built.check_enumeration(VERIFY_HORIZON)
    groups = np.asarray(built.groups)
    n_src = source.n_states

    pi = built.stationary
    coarse = np.bincount(groups, weights=pi, minlength=n_src)
    coarse_res = float(np.max(np.abs(coarse - source.stationary)))

    # rows over built's states then source's: e_copy - e_source per copy,
    # then the distribution row, which adds at most one direction
    starts = np.vstack([
        np.hstack([np.eye(built.n_states), -np.eye(n_src)[groups]]),
        np.concatenate([pi, -source.stationary]),
    ])
    words_res = equivalence_residual(built, source, starts)

    fut_built = built.conditional_future_matrix(VERIFY_HORIZON)
    fut_src = source.conditional_future_matrix(VERIFY_HORIZON)
    # Where a source state forbids a word, its copies' futures are rounding
    # noise of either sign, which the square root would lift from ~1e-16 to
    # ~1e-8.  The half-order sum therefore runs over the source's word
    # support only; the off-support mass is bounded by the word residual.
    on_support = np.where(fut_src[groups] > 0, fut_built, 0.0)
    half_built = half_excess_from_futures(pi, on_support)
    half_src = half_excess_from_futures(source.stationary, fut_src)

    report = NMachineCheckReport(
        stationary_fixed=built.stationary_residual,
        coarse_graining=coarse_res,
        words=words_res,
        half_excess_gap=abs(half_built - half_src),
    )
    if not report.passed():
        raise PropertyViolated(report)
    return report


# --- assembled results ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NMachineResult:
    """A built split machine together with its memory bookkeeping."""

    machine: Machine
    parameters: dict[str, float]
    c_n2: float
    e_half: float
    c_mu2: float
    negativity: float
    mana: float
    advantage: float
    saturated: bool
    bound_violated: bool

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "c_n2": self.c_n2,
            "e_half": self.e_half,
            "c_mu2": self.c_mu2,
            "negativity": self.negativity,
            "mana": self.mana,
            "advantage": self.advantage,
            "saturated": self.saturated,
            "bound_violated": self.bound_violated,
        }


def assess_split_machine(
    machine: Machine,
    parameters: Mapping[str, float],
    e_half: float,
    c_mu2: float,
) -> NMachineResult:
    """Collision entropy, negativity bookkeeping, and bound flags for a built
    machine against a given half-order excess entropy and classical memory.

    The advantage is the relative memory advantage |c_n2 - c_mu2| / c_mu2,
    NaN at a zero baseline.
    """
    pi = machine.stationary
    # not measures.renyi_entropy: it refuses a signed vector with a
    # near-zero entry, and every split point, the search's or one the
    # caller gives, must be scored
    c_n2 = -float(np.log2(np.sum(pi * pi)))
    threshold = SAT_TOL * max(1.0, abs(e_half))
    return NMachineResult(
        machine=machine,
        parameters=dict(parameters),
        c_n2=c_n2,
        e_half=e_half,
        c_mu2=c_mu2,
        negativity=negativity(pi),
        mana=mana(pi),
        advantage=abs(c_n2 - c_mu2) / c_mu2 if c_mu2 > 0 else float("nan"),
        saturated=abs(c_n2 - e_half) <= threshold,
        bound_violated=c_n2 < e_half - threshold,
    )


# --- closed-form parameter choices ---------------------------------------------


def perturbed_coin_split_spec(p: float) -> SplitSpec:
    """Canonical two-parameter split of the Perturbed Coin predictive model:
    state s0 doubled, with q1 shifting mass between the copies' self-loops
    and q2 dividing the return edge from s1."""
    return SplitSpec(
        copy_counts=(2, 1),
        param_names=("q1", "q2"),
        rules={
            (0, 0, "0", 0): (Affine(1 - p, {"q1": 1.0}),),
            (0, 1, "0", 0): (Affine(0.0, {"q1": -1.0}),),
            (1, 0, "0", 0): (Affine(0.0, {"q2": 1.0}),),
        },
    )


def perturbed_coin_ideal_params(p: float, branch: str = BRANCH_PLUS) -> tuple[float, float]:
    """Parameter pair (q1, q2) that saturates the memory bound exactly.

    With q1 = 0 the split stationary vector is [q2/2p, (p-q2)/2p, 1/2], and
    the collision entropy equals the process's half-order excess entropy when

        q2 = p/2 * (1 +- sqrt(1 + 8 sqrt(p(1-p)))).

    Both roots work (they exchange the first two stationary weights).
    """
    check_not_half(check_open_unit(p))
    sign = _branch_sign(branch)
    q2 = 0.5 * p * (1.0 + sign * math.sqrt(1.0 + 8.0 * math.sqrt(p * (1.0 - p))))
    return 0.0, q2


def sns_split_spec(p: float) -> SplitSpec:
    """Canonical two-parameter split of the SNS generative model: state A
    doubled, gamma shifting mass between the copies' 0 self-loops and eta
    dividing the firing edge from B."""
    return SplitSpec(
        copy_counts=(2, 1),
        param_names=("gamma", "eta"),
        rules={
            (0, 0, "0", 0): (Affine(p, {"gamma": 1.0}),),
            (0, 1, "0", 0): (Affine(0.0, {"gamma": -1.0}),),
            (1, 0, "1", 0): (Affine(0.0, {"eta": 1.0}),),
        },
    )


def sns_ideal_params(
    p: float,
    truncation: int | None = None,
    branch: str = BRANCH_PLUS,
    overlap: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Parameter pair (gamma, eta) saturating the memory bound for the SNS
    split, up to series truncation.

    With gamma = 0 the split stationary vector is
    [eta, 1-p-eta, 1-p] / (2(1-p)), and the saturating roots are

        eta = (1-p)/2 * (1 +- sqrt(-3 + 8 * V))

    where V is the truncated past-future overlap (so -log2 V is the excess
    entropy).  A negative radicand is reported rather than assumed away.
    ``overlap`` is the pair :func:`sns_past_future_overlap` returns for the
    renewal data of ``p`` and ``truncation``, when the caller has it already.
    """
    if overlap is None:
        overlap = sns_past_future_overlap(sns_renewal_data(p, truncation))
    value, residual = overlap
    if residual > 1e-9:
        raise TruncationTooCoarse(
            f"past-future overlap truncation residual {residual:.3e} too large"
        )
    radicand = -3.0 + 8.0 * value
    if radicand < 0:
        raise NegativeRadicand(f"-3 + 8 * overlap = {radicand:.6f} < 0 at p = {p}")
    sign = _branch_sign(branch)
    eta = 0.5 * (1.0 - p) * (1.0 + sign * math.sqrt(radicand))
    return 0.0, eta


def golden_mean_bad_split_spec(p: float) -> SplitSpec:
    """One-parameter Golden Mean split whose reset edge is divided evenly.

    The even division pins the split stationary weights regardless of q, so
    this construction can inject negativity but never reduce memory: a
    deliberate example of negativity without advantage.
    """
    return SplitSpec(
        copy_counts=(2, 1),
        param_names=("q",),
        rules={
            (0, 0, "0", 0): (Affine(p, {"q": 1.0}),),
            (0, 1, "0", 0): (Affine(0.0, {"q": -1.0}),),
            (1, 0, "0", 0): (Affine(0.5),),
        },
    )


# --- derivative-free parameter optimization --------------------------------------


@dataclass(frozen=True)
class OptimizeOptions:
    """Knobs for the deterministic multi-start pattern search.  ``seed`` and
    ``extra_starts`` must be nonnegative integers and ``start_box`` and
    ``min_step`` finite positive numbers; any other value is refused with a
    ``ValueError`` that names the field."""

    seed: int = 0
    extra_starts: int = 8
    start_box: float = 1.5
    min_step: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("seed", "extra_starts"):
            value = getattr(self, name)
            integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integral and value >= 0):
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
        for name in ("start_box", "min_step"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def optimize_ideal(
    source: Machine,
    spec: SplitSpec,
    e_half: float,
    opts: OptimizeOptions = OptimizeOptions(),
    c_mu2: float | None = None,
) -> NMachineResult:
    """Minimize the split machine's collision entropy subject to staying at or
    above ``e_half``.

    The split parameterization keeps the coarse-graining constraints exact,
    leaving a single inequality handled by a one-sided penalty, so a
    coordinate pattern search from a deterministic grid of starts (plus
    seeded extras) suffices at these dimensions.  Parameter values where the
    eigenvalue 1 is not simple or has no fixed vector within tolerance, or
    where the collision entropy is not finite, count as infeasible points,
    not failures.  If even the best point sits below the bound,
    ``NoFeasiblePoint`` is raised; a best point above the bound but away
    from it is returned with ``saturated=False``.

    The search remembers the objective of every point any start tried,
    keyed by the parameter vector's bytes, and answers a repeated point from
    that memo, also when an earlier start tried it; ``MAX_EVALS`` still
    counts it as a trial, so the memo changes how many machines are built but
    not the search or its result.
    """
    names = spec.param_names
    if len(names) > MAX_PARAMS:
        raise ValueError(f"{len(names)} parameters exceed the cap {MAX_PARAMS}")
    baseline = c_mu2 if c_mu2 is not None else renyi_entropy(source.stationary, 2)
    threshold = SAT_TOL * max(1.0, abs(e_half))

    def entropy_at(vec: np.ndarray) -> float | None:
        try:
            machine = build_split_machine(source, spec, dict(zip(names, vec.tolist())))
            pi = machine.stationary
            return -float(np.log2(np.add.reduce(pi * pi)))
        except (DegenerateFixedSpace, NoUnitEigenvalue):
            return None

    def objective(vec: np.ndarray) -> float:
        h2 = entropy_at(vec)
        if h2 is None or not math.isfinite(h2):
            return float("inf")
        if h2 >= e_half:
            return h2
        return e_half + 10.0 * (e_half - h2)

    if not names:
        machine = build_split_machine(source, spec, {})
        return assess_split_machine(machine, {}, e_half, baseline)

    dims = len(names)
    starts = [np.zeros(dims)]
    for i, scale in itertools.product(range(dims), (0.25, 0.75)):
        for sign in (1.0, -1.0):
            vec = np.zeros(dims)
            vec[i] = sign * scale
            starts.append(vec)
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.extra_starts):
        starts.append(rng.uniform(-opts.start_box, opts.start_box, dims))

    evals = 0
    # dyadic starts and steps make the searches revisit points bit for bit,
    # within one start and across starts
    seen: dict[bytes, float] = {}

    def value(vec: np.ndarray) -> float:
        key = vec.tobytes()
        if key not in seen:
            seen[key] = objective(vec)
        return seen[key]

    def search(start: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        x = start.copy()
        fx = value(x)
        evals += 1
        step = INITIAL_STEP
        while step >= opts.min_step and evals < MAX_EVALS:
            improved = False
            for i in range(dims):
                for sign in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sign * step
                    ft = value(trial)
                    evals += 1
                    if ft < fx - 1e-15:
                        x, fx = trial, ft
                        improved = True
            if not improved:
                step *= 0.5
        return fx, x

    results = [search(s) for s in starts]
    best_f, best_x = min(results, key=lambda r: (r[0], tuple(r[1])))
    best_h2 = entropy_at(best_x)
    if best_h2 is None or best_h2 < e_half - threshold:
        raise NoFeasiblePoint(
            f"no parameters found with collision entropy >= {e_half:.9f}"
        )
    machine = build_split_machine(source, spec, dict(zip(names, best_x)))
    return assess_split_machine(machine, dict(zip(names, best_x)), e_half, baseline)
