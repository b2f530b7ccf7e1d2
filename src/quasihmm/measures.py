"""Scalar information measures, all in bits (base-2 logarithms).

Covers Renyi entropies of (quasi)probability vectors, the Sibson
alpha-mutual information, excess entropies of order 1 and 1/2 computed
through a machine's state variable, and the negativity bookkeeping used for
signed distributions (l1 norm and its logarithmic overhead, the "mana").

Order-2 entropy is the only Renyi order admitted for signed inputs: it is
real-valued, continuous, and Schur-concave there, while other orders are not
even real in general.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateParameter,
    InvalidAlpha,
    NegativeConditional,
    NegativeEntriesUnsupportedOrder,
    QuasiMachineUnsupported,
    ZeroEntryWithQuasiOrder,
)
from .machine import Machine
from .processes import check_open_unit, sns_past_future_overlap, sns_renewal_data
from .quantum import RENYI2, VON_NEUMANN, gram_from_machine, quantum_complexity

#: tolerance for normalization / nonnegativity checks on distributions
DIST_TOL = 1e-9

#: default estimation horizon for machine excess entropies
DEFAULT_HORIZON = 12


@dataclass(frozen=True)
class MeasureReport:
    """One named scalar result with its parameters and, where the value is a
    horizon estimate, the change from the previous horizon."""

    name: str
    value: float
    parameters: dict = field(default_factory=dict)
    residual: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "parameters": dict(self.parameters),
            "residual": self.residual,
        }


def _as_quasi_distribution(q) -> np.ndarray:
    v = np.asarray(q, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("distribution has non-finite entries")
    s = float(v.sum())
    if abs(s - 1.0) > DIST_TOL:
        raise ValueError(f"distribution sums to {s:.12g}, expected 1 within {DIST_TOL:g}")
    return v


def collision_entropy(v: np.ndarray) -> float:
    """-log2(sum v_k^2) of any vector, +0.0 at zero: :func:`renyi_entropy` of
    order 2 without its checks, which refuse a signed vector with a near-zero entry."""
    return -float(np.log2(np.add.reduce(v * v))) + 0.0


def renyi_entropy(q, alpha: float) -> float:
    """Renyi entropy of order ``alpha`` of a (quasi)probability vector.

    Proper distributions support any order >= 0 (order 0 counts the support,
    order 1 is the Shannon limit).  Signed vectors are admitted only at order
    2, where the collision entropy -log2(sum q_k^2) stays real; it requires
    every component nonzero and may itself be zero or negative.  A zero
    entropy is +0.0 (adding 0.0 turns -0.0 into +0.0 and changes nothing
    else).
    """
    v = _as_quasi_distribution(q)
    if alpha < 0:
        raise InvalidAlpha(f"Renyi order must be nonnegative, got {alpha}")

    if np.min(v) < -DIST_TOL:
        if alpha != 2:
            raise NegativeEntriesUnsupportedOrder(
                f"signed distributions support only order 2, got {alpha}"
            )
        if np.min(np.abs(v)) <= DIST_TOL:
            raise ZeroEntryWithQuasiOrder(
                "collision entropy of a signed distribution needs nonzero components"
            )
        return collision_entropy(v)

    v = np.clip(v, 0.0, None)
    if alpha == 0:
        return float(np.log2(np.count_nonzero(v > DIST_TOL)))
    if alpha == 1:
        support = v[v > 0]
        return -float(np.sum(support * np.log2(support))) + 0.0
    return float(np.log2(np.sum(v**alpha)) / (1.0 - alpha)) + 0.0


def negativity(q) -> float:
    """l1 norm of a unit-sum vector; 1 exactly when it is nonnegative."""
    v = _as_quasi_distribution(q)
    return float(np.sum(np.abs(v)))


def mana(q) -> float:
    """Logarithmic negativity overhead: 2 log2 of the l1 norm.

    Splits the collision entropy of the rescaled absolute distribution as
    H2[|q|/||q||_1] = H2[q] + mana(q), so it measures the entropy cost of
    simulating the signed vector by sampling its absolute values.
    """
    return 2.0 * float(np.log2(negativity(q)))


# --- Sibson alpha-mutual information -----------------------------------------


def alpha_mutual_information(px, py_given_x, alpha: float) -> float:
    """Sibson mutual information of order ``alpha`` for the chain X -> Y:

        (alpha / (alpha - 1)) * log2 sum_y [ sum_x P(x) P(y|x)^alpha ]^(1/alpha)

    ``py_given_x`` has one row per x value.  Order 1 is the Shannon limit,
    computed directly from the joint.  Signed conditionals are rejected: the
    expression is complex-valued for them.
    """
    if alpha < 0:
        raise InvalidAlpha(f"order must be nonnegative, got {alpha}")
    p = _as_quasi_distribution(px)
    if np.min(p) < -DIST_TOL:
        raise NegativeConditional("input distribution must be nonnegative")
    p = np.clip(p, 0.0, None)

    cond = np.asarray(py_given_x, dtype=float)
    if cond.ndim != 2 or cond.shape[0] != p.size:
        raise ValueError(f"conditional must be ({p.size}, n_y), got {cond.shape}")
    if np.min(cond) < -DIST_TOL:
        raise NegativeConditional("conditional rows must be nonnegative")
    row_sums = cond.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > max(DIST_TOL, 1e-12 * cond.shape[1]):
        raise ValueError("conditional rows must sum to 1")
    cond = np.clip(cond, 0.0, None)

    if alpha == 0:
        return 0.0
    if alpha == 1:
        joint = p[:, None] * cond
        py = joint.sum(axis=0)
        mask = joint > 0
        ratio = joint[mask] / (np.outer(p, py)[mask])
        return float(np.sum(joint[mask] * np.log2(ratio)))

    inner = (p[:, None] * cond**alpha).sum(axis=0)
    total = float(np.sum(inner ** (1.0 / alpha)))
    return alpha / (alpha - 1.0) * float(np.log2(total))


# --- excess entropies through the state variable ------------------------------


def excess_entropy_half(m: Machine, horizon: int = DEFAULT_HORIZON) -> MeasureReport:
    """Half-order mutual information between the state and the next
    ``horizon`` symbols.

    When the state is a function of the past (a unifilar machine), it is
    a sufficient statistic for the past, and this equals the process's
    half-order past-future mutual information in the horizon limit.  On a
    non-unifilar machine it is the information of that presentation's
    state, not the process's: on ``sns_g_machine(0.513777)`` it is 0.25,
    while the process's E_half is 0.109.  Expanding the square turns the
    word sum into a quadratic form in the pairwise future fidelities, so
    unifilar machines evaluate it for any horizon without enumeration.  The
    residual is the change from horizon - 1; no monotonicity in the horizon
    is asserted.
    """
    if not m.classify().classical:
        raise QuasiMachineUnsupported(
            "half-order excess entropy is evaluated on a classical presentation; "
            "quasi machines inherit it from their source machine"
        )
    if horizon < 1:
        raise DegenerateParameter("horizon must be at least 1")
    pi = m.stationary
    value = -float(np.log2(pi @ m.future_fidelity_matrix(horizon) @ pi))
    prev = -float(np.log2(pi @ m.future_fidelity_matrix(horizon - 1) @ pi))
    return MeasureReport(
        name="E_half",
        value=value,
        parameters={"horizon": horizon},
        residual=abs(value - prev),
    )


def excess_entropy_shannon(m: Machine, horizon: int = DEFAULT_HORIZON) -> MeasureReport:
    """Shannon mutual information between the state and the next ``horizon``
    symbols, by explicit word enumeration.

    The words are enumerated once: the length ``horizon - 1`` futures give
    the previous estimate, and one :meth:`Machine.future_step` extends them
    to ``horizon``.  The cap is checked for length ``horizon`` before any
    work; the shorter array is released once extended and the longer one is
    clipped in place.  The residual is the change from horizon - 1.
    """
    if not m.classify().classical:
        raise QuasiMachineUnsupported("Shannon excess entropy needs a classical machine")
    if horizon < 1:
        raise DegenerateParameter("horizon must be at least 1")
    m.check_enumeration(horizon)
    pi = np.clip(m.stationary, 0.0, None)

    def estimate(fut: np.ndarray) -> float:
        # sum of joint * log2(fut / marginal) over the positive joint
        # entries, in row-major order; they lie in the support of fut, so
        # only its entries are gathered and no (states, words) temporary is
        # made
        support = fut > 0
        words = fut[support]
        joint = np.repeat(pi, np.count_nonzero(support, axis=1)) * words
        marginal = np.broadcast_to(pi @ fut, fut.shape)[support]
        keep = joint > 0
        return float(np.sum(joint[keep] * np.log2(words[keep] / marginal[keep])))

    fut = m.conditional_future_matrix(horizon - 1)
    prev = estimate(np.clip(fut, 0.0, None))
    fut = m.future_step(fut)
    value = estimate(np.clip(fut, 0.0, None, out=fut))
    return MeasureReport(
        name="E",
        value=value,
        parameters={"horizon": horizon},
        residual=abs(value - prev),
    )


# --- the measure table --------------------------------------------------------


def _stationary_entropy(alpha: int) -> Callable[[Machine, int], MeasureReport]:
    return lambda m, horizon: MeasureReport(
        f"C_mu{alpha}", renyi_entropy(m.stationary, alpha), {"alpha": alpha}
    )


def _state_complexity(name: str, kind: str) -> Callable[[Machine, int], MeasureReport]:
    def report(m: Machine, horizon: int) -> MeasureReport:
        gram = gram_from_machine(m, horizon)
        return MeasureReport(name, quantum_complexity(gram, kind), {"horizon": horizon},
                             gram.residual)

    return report


#: each measure of a machine by its CLI name, mapped to the function of the
#: machine and horizon that returns its report, in the order of ``--all``.  A
#: measure undefined on the machine refuses it with ``QuasiMachineUnsupported``
#: (a machine that is not classical) or ``NegativeEntriesUnsupportedOrder`` (a
#: Renyi order other than 2 of a signed stationary vector).  An entry looks its function up
#: when called, so a wrapper put on the module attribute (perfbench's tracer)
#: sees the call.
MEASURES: dict[str, Callable[[Machine, int], MeasureReport]] = {
    "c-mu2": _stationary_entropy(2),
    "c-mu1": _stationary_entropy(1),
    "c-mu0": _stationary_entropy(0),
    "c-q2": _state_complexity("C_q2", RENYI2),
    "c-q-von-neumann": _state_complexity("C_q_vN", VON_NEUMANN),
    "excess-half": lambda m, horizon: excess_entropy_half(m, horizon),
    "excess-shannon": lambda m, horizon: excess_entropy_shannon(m, horizon),
    "negativity": lambda m, horizon: MeasureReport("negativity", negativity(m.stationary)),
    "mana": lambda m, horizon: MeasureReport("mana", mana(m.stationary)),
}


def defined_reports(m: Machine, horizon: int) -> list[MeasureReport]:
    """The reports of the :data:`MEASURES` that do not refuse ``m`` as
    undefined on it, in table order; any other error propagates."""
    reports = []
    for measure in MEASURES.values():
        try:
            reports.append(measure(m, horizon))
        except (QuasiMachineUnsupported, NegativeEntriesUnsupportedOrder):
            pass
    return reports


# --- closed forms -------------------------------------------------------------


def perturbed_coin_excess_half(p: float) -> float:
    """1 - 2 log2(sqrt(p) + sqrt(1-p)), exact for the Perturbed Coin."""
    check_open_unit(p)
    return 1.0 - 2.0 * float(np.log2(np.sqrt(p) + np.sqrt(1.0 - p)))


def sns_excess_entropy_half(
    p: float,
    truncation: int | None = None,
    overlap: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Half-order excess entropy of the SNS process with truncated series;
    returns (value, truncation residual in bits).  ``overlap`` is the pair
    :func:`sns_past_future_overlap` returns for the renewal data of ``p`` and
    ``truncation``, when the caller has it already."""
    if overlap is None:
        overlap = sns_past_future_overlap(sns_renewal_data(p, truncation))
    value, residual = overlap
    return -float(np.log2(value)), abs(residual / (value * np.log(2.0)))
