"""Factories for the stochastic processes studied in this package.

Each factory returns a validated :class:`~quasihmm.machine.Machine`.  The
Perturbed Coin, Golden Mean, and Even processes have two-state models; the
Simple Nonunifilar Source (SNS) renewal process has a two-state generative
model and a countable predictive model that is truncated here at the tail
mass ``TRUNCATION_EPS``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameter,
    MachineFormatError,
    TruncationTooCoarse,
    TruncationTooLarge,
)
from .machine import Machine, make_machine

#: bound on the surviving probability beyond the truncated state set
TRUNCATION_EPS = 1e-12

#: cap on the states of a truncated SNS model: at 4096 states one dense
#: matrix takes 128 MiB, and building and measuring such a model already
#: needs several of them
MAX_SNS_STATES = 4096


def check_open_unit(p: float) -> float:
    """``p`` as a float; :class:`DegenerateParameter` outside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DegenerateParameter(f"p must lie strictly between 0 and 1, got {p}")
    return p


def check_not_half(p: float) -> float:
    """``p``; :class:`DegenerateParameter` at 1/2."""
    if p == 0.5:
        raise DegenerateParameter(
            "p = 1/2 collapses the process to an unbiased coin; "
            "use unbiased_coin() for the single-state model"
        )
    return p


def unbiased_coin() -> Machine:
    """Single-state IID coin: both symbols emitted with probability 1/2."""
    half = [[0.5]]
    return make_machine(("0", "1"), ("s0",), [half, half])


def perturbed_coin_epsilon(p: float) -> Machine:
    """Two-state predictive model of the Perturbed Coin process.

    State ``s0`` re-emits 0 with probability 1-p and defects to ``s1`` on 1
    with probability p; ``s1`` mirrors it.  Undefined at p = 1/2 where the
    process degenerates to an IID coin.
    """
    p = check_not_half(check_open_unit(p))
    t0 = [[1 - p, 0.0], [p, 0.0]]
    t1 = [[0.0, p], [0.0, 1 - p]]
    return make_machine(("0", "1"), ("s0", "s1"), [t0, t1], stationary=[0.5, 0.5])


def perturbed_coin_rjmc(p: float) -> Machine:
    """Two-state generative model of the Perturbed Coin process.

    One model per parameter regime (p below or above 1/2); both generate the
    same process as :func:`perturbed_coin_epsilon` with a more concentrated
    stationary vector.
    """
    p = check_not_half(check_open_unit(p))
    if p < 0.5:
        t0 = [[0.0, 0.0], [0.0, 1 - p]]
        t1 = [
            [(1 - 2 * p) / (1 - p), p / (1 - p)],
            [p * (1 - 2 * p) / (1 - p), p * p / (1 - p)],
        ]
        pi = [(1 - 2 * p) / (2 - 2 * p), 1 / (2 - 2 * p)]
    else:
        t0 = [[1 - p, 0.0], [1.0, 0.0]]
        t1 = [[1 - p, 2 * p - 1], [0.0, 0.0]]
        pi = [1 / (2 * p), (2 * p - 1) / (2 * p)]
    return make_machine(("0", "1"), ("A", "B"), [t0, t1], stationary=pi)


def golden_mean_epsilon(p: float) -> Machine:
    """Two-state predictive model of the Golden Mean process (no "11" words).

    ``s0`` self-loops on 0 with probability p and emits 1 into ``s1`` with
    probability 1-p; ``s1`` always emits 0 back to ``s0``.
    """
    p = check_open_unit(p)
    t0 = [[p, 0.0], [1.0, 0.0]]
    t1 = [[0.0, 1 - p], [0.0, 0.0]]
    pi = [1 / (2 - p), (1 - p) / (2 - p)]
    return make_machine(("0", "1"), ("s0", "s1"), [t0, t1], stationary=pi)


def even_process_epsilon() -> Machine:
    """Two-state predictive model of the Even process (1-blocks have even
    length), pinned to the standard symmetric parameterization 1/2."""
    t0 = [[0.5, 0.0], [0.0, 0.0]]
    t1 = [[0.0, 0.5], [1.0, 0.0]]
    return make_machine(("0", "1"), ("s0", "s1"), [t0, t1], stationary=[2 / 3, 1 / 3])


# --- SNS renewal process -----------------------------------------------------


def sns_waiting_time(n, p: float):
    """Probability of exactly ``n`` zeros between consecutive ones."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = n * p ** (n - 1) * (1 - p) ** 2
    return np.where(n >= 1, vals, 0.0)


def sns_surviving(n, p: float):
    """Probability of at least ``n`` zeros between consecutive ones."""
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = p ** (n - 1) * (n * (1 - p) + p)
    return np.where(n >= 1, vals, 1.0)


def _surviving(n: int, p: float) -> float:
    """``sns_surviving`` of one integer ``n >= 1`` in Python floats.

    The same operations on the same values as the 0-d array path, so the
    same bits, without the per-call cost of numpy on a scalar.  The series
    below add these terms one at a time; an array evaluation of the whole
    range (``np.power`` on a vector) differs from it in the last bit for
    some terms.
    """
    return p ** (n - 1) * (n * (1 - p) + p)


def _truncation_walk(p: float, limit: float) -> int:
    """The walk of :func:`sns_default_truncation`, left early with some
    n > ``limit`` once the result is known to exceed ``limit``."""
    # Phi(n) ~ n(1-p)p^(n-1) decays geometrically; walk out from a log estimate.
    n = max(2, int(math.log(TRUNCATION_EPS) / math.log(p)) // 2)
    while _surviving(n + 1, p) >= TRUNCATION_EPS:
        n += 1
        if n > limit:
            # Phi(n) >= TRUNCATION_EPS here, so the walk back down would stop at n or above
            return n
    while n > 2 and _surviving(n, p) < TRUNCATION_EPS:
        n -= 1
    return n


def sns_default_truncation(p: float) -> int:
    """Smallest N whose surviving probability beyond N+1 drops below
    ``TRUNCATION_EPS``."""
    return _truncation_walk(check_open_unit(p), math.inf)


def _sns_truncation(p: float, truncation: int | None) -> tuple[int, float]:
    """Depth N and tail mass Phi(N+1) of a truncated SNS model with states
    0..N: ``truncation`` when given, else :func:`sns_default_truncation`.

    Every check runs before anything is allocated: N must be at least 2 and
    the model at most ``MAX_SNS_STATES`` states, and an explicit truncation
    may not leave more than ``TRUNCATION_EPS`` tail mass.
    """
    if truncation is None:
        n = _truncation_walk(p, MAX_SNS_STATES - 1)
        asked = f"tail mass below {TRUNCATION_EPS:g} at p = {p}"
    else:
        n = truncation
        asked = f"truncation {n}"
    if n + 1 > MAX_SNS_STATES:
        raise TruncationTooLarge(f"{asked} needs more than {MAX_SNS_STATES} states")
    if n < 2:
        raise TruncationTooCoarse("need at least states 0..2")
    tail = _surviving(n + 1, p)
    if truncation is not None and tail > TRUNCATION_EPS:
        raise TruncationTooCoarse(
            f"truncation {n} leaves tail mass {tail:.3e} above {TRUNCATION_EPS:g}: give a "
            "larger truncation or none for the default depth"
        )
    return n, tail


def check_sns_survival(truncation: int, p: float) -> None:
    """Refuse, with :class:`TruncationTooLarge`, a truncation whose survival
    probability Phi(N) underflows to 0: the SNS models divide by Phi(n) for
    every state n <= N, and 0/0 would reach their rows and overlaps."""
    if _surviving(truncation, p) == 0.0:
        raise TruncationTooLarge(
            f"truncation {truncation} reaches states whose survival probability "
            f"underflows to 0 at p = {p}"
        )


def sns_root_waiting_grid(n_cut: int, p: float) -> np.ndarray:
    """Matrix of ``sqrt(phi(m + n))`` for m, n = 0..``n_cut``.

    The waiting time is evaluated once on 0..2 ``n_cut`` and gathered into
    the Hankel grid; the values are those of evaluating it on the grid.
    """
    idx = np.arange(n_cut + 1)
    root_phi = np.sqrt(sns_waiting_time(np.arange(2 * n_cut + 1), p))
    return root_phi[idx[:, None] + idx[None, :]]


@dataclass(frozen=True)
class SnsRenewalData:
    """Waiting-time data of the SNS renewal process at parameter ``p``,
    truncated after ``truncation`` zeros."""

    p: float
    truncation: int
    mean_firing_rate: float
    tail_mass: float

    def stationary_weights(self) -> np.ndarray:
        """Unnormalized predictive-state weights ``mu * Phi(n)``, n = 0..N."""
        n = np.arange(self.truncation + 1)
        return self.mean_firing_rate * sns_surviving(n, self.p)


def sns_renewal_data(p: float, truncation: int | None = None) -> SnsRenewalData:
    """Waiting-time distribution, survival function, and firing rate.

    The mean firing rate is summed numerically from the survival series (the
    geometric tail is cut when terms stop contributing at double precision),
    so closed-form expectations, such as the firing rate (1 - p)/2, stay
    available as independent cross-checks.  The series is summed term by
    term in Python floats, in order from Phi(0).  An explicit
    ``truncation`` that leaves more than ``TRUNCATION_EPS`` tail mass is
    rejected with :class:`TruncationTooCoarse`, and a model of more than
    ``MAX_SNS_STATES`` states is rejected with :class:`TruncationTooLarge`
    before the series is summed.
    """
    p = check_open_unit(p)
    n, tail = _sns_truncation(p, truncation)

    total = 1.0  # Phi(0)
    k = 1
    while True:
        term = _surviving(k, p)
        total += term
        if term < total * 1e-18:
            break
        k += 1
    return SnsRenewalData(p=p, truncation=n, mean_firing_rate=1.0 / total, tail_mass=tail)


def sns_g_machine(p: float) -> Machine:
    """Two-state generative model of the SNS process.

    ``A`` emits 0 and either stays (p) or moves to ``B`` (1-p); ``B`` emits 0
    and stays (p) or emits 1 back to ``A`` (1-p).  Two 0-edges leave ``A``,
    so the model is non-unifilar; its stationary vector is uniform for all p.
    """
    p = check_open_unit(p)
    t0 = [[p, 1 - p], [0.0, p]]
    t1 = [[0.0, 0.0], [1 - p, 0.0]]
    return make_machine(("0", "1"), ("A", "B"), [t0, t1], stationary=[0.5, 0.5])


def sns_epsilon_truncated(p: float, truncation: int | None = None) -> Machine:
    """Truncated predictive model of the SNS process with states 0..N.

    State n (n zeros seen since the last 1) advances on 0 with probability
    Phi(n+1)/Phi(n) and resets on 1 with phi(n)/Phi(n); state 0 advances
    deterministically.  The final state closes onto itself on 0 with the
    residual mass so rows stay exactly stochastic; word errors are then
    bounded by the tail mass Phi(N+1).  Each row is divided by Phi(n), so
    a truncation whose Phi(N) underflows to 0 (N = 163 at p = 0.01) is
    refused with :class:`TruncationTooLarge` before anything is allocated.
    A subnormal Phi(N) may still leave rows summing to 1 (N <= 157 at
    p = 0.01); when it does not (N = 158-162), the failed build is refused
    with :class:`TruncationTooLarge` too.
    """
    p = check_open_unit(p)
    n_max, _ = _sns_truncation(p, truncation)
    check_sns_survival(n_max, p)

    size = n_max + 1
    idx = np.arange(size)
    big_phi = sns_surviving(idx, p)
    # Phi(n+1) / Phi(n) with scalar numerators: np.power on a vector rounds
    # some of them differently
    advance = np.array([_surviving(n + 1, p) for n in range(size)]) / big_phi
    t0 = np.zeros((size, size))
    t1 = np.zeros((size, size))
    t0[idx[:-1], idx[1:]] = advance[:-1]
    t0[n_max, n_max] = advance[n_max]
    t1[:, 0] = sns_waiting_time(idx, p) / big_phi

    states = tuple(f"s{n}" for n in range(size))
    try:
        return make_machine(("0", "1"), states, [t0, t1])
    except MachineFormatError as exc:
        phi = big_phi[n_max]
        if phi >= sys.float_info.min:
            raise
        raise TruncationTooLarge(
            f"truncation {n_max} at p = {p}: its rows divide by the subnormal "
            f"survival probability Phi({n_max}) = {phi:.4e} and lose precision ({exc})"
        ) from exc


def sns_past_future_overlap(data: SnsRenewalData) -> tuple[float, float]:
    """Squared Bhattacharyya overlap between the predictive-state distribution
    and the reverse-state conditionals of the SNS process:

        sum_m ( sum_n mu * sqrt(phi(m+n) * Phi(n)) )^2

    This is the quantity whose negative log is the process's half-order excess
    entropy.  Both sums are truncated at ``data.truncation``; the second return
    value estimates the truncation residual by comparison with a slightly
    shallower truncation.
    """
    p = data.p

    def overlap(n_cut: int) -> float:
        idx = np.arange(n_cut + 1)
        mu = data.mean_firing_rate
        root_phi = sns_root_waiting_grid(n_cut, p)
        root_sur = np.sqrt(sns_surviving(idx, p))
        inner = mu * (root_phi * root_sur[None, :]).sum(axis=1)
        return float(np.sum(inner**2))

    value = overlap(data.truncation)
    shallower = max(2, data.truncation - max(2, data.truncation // 10))
    residual = abs(value - overlap(shallower))
    return value, residual
