"""Invertible linear maps between machines generating the same process.

Conjugating every transition matrix by a row-quasi-stochastic invertible
matrix Z (and pushing the stationary vector through its inverse) leaves all
word probabilities unchanged, so a single process has a whole linear family
of presentations: some classical, some with signed transitions.  This module
applies such maps, characterizes the parameter region where a two-state map
keeps the Perturbed Coin model classical, and exposes the signed family whose
stationary vector stays positive while its entropy drains away: its collision
entropy -log2((1 + (2a-1)^2) / (4a^2)) rises on (1/2, 1], is 1 bit at the
identity map a = 1, and decreases strictly to 0 for a >= 1.

Half-order predictive information is deliberately not computed for the
signed members: the defining sum is complex-valued there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .machine import Machine, make_machine
from .processes import check_not_half, check_open_unit, perturbed_coin_epsilon


class DimensionMismatch(ValidationError):
    """Map and machine have different state-space dimensions."""


@dataclass(frozen=True, eq=False)
class SimilarityMap:
    """Invertible Z with unit row sums, together with its inverse."""

    z: np.ndarray
    z_inverse: np.ndarray


def similarity_map(z) -> SimilarityMap:
    """Validate and invert a row-quasi-stochastic matrix."""
    mat = np.asarray(z, dtype=float)
    res = linalg.row_sum_residual(mat)
    if res > linalg.STRUCT_TOL:
        raise ValueError(f"map rows must sum to 1, residual {res:.3e}")
    inv = linalg.invert(mat)
    return SimilarityMap(z=mat, z_inverse=inv)


def two_state_map(a: float, b: float) -> SimilarityMap:
    """The general 2x2 unit-row-sum map [[a, 1-a], [b, 1-b]] (needs a != b)."""
    return similarity_map([[a, 1.0 - a], [b, 1.0 - b]])


def apply_map(m: Machine, zmap: SimilarityMap) -> Machine:
    """Conjugated machine: T'[x] = Z T[x] Z^-1 and stationary pushed through
    Z^-1.  Word probabilities are preserved exactly."""
    z, zinv = zmap.z, zmap.z_inverse
    if z.shape != (m.n_states, m.n_states):
        raise DimensionMismatch(f"map is {z.shape}, machine has {m.n_states} states")
    states = tuple(f"z{i}" for i in range(m.n_states))
    return make_machine(m.alphabet, states, z @ m.stacked @ zinv, stationary=m.stationary @ zinv)


# --- Perturbed Coin specifics ---------------------------------------------------


def rjmc_parameters(p: float) -> tuple[float, float]:
    """(a, b) at which the conjugated Perturbed Coin predictive model becomes
    its two-state generative model."""
    check_not_half(check_open_unit(p))
    if p < 0.5:
        return p / (2.0 * p - 1.0), 1.0
    return (p - 1.0) / (2.0 * p - 1.0), 1.0


def rjmc_domain_check(p: float, a: float, b: float) -> bool:
    """Whether (a, b) keeps every conjugated Perturbed Coin transition entry
    nonnegative.

    For each parameter regime the admissible set is the union of two boxes
    (swapping the roles of a and b); bounds are inclusive.
    """
    check_not_half(check_open_unit(p))
    if a == b:
        return False
    lo = p / (2.0 * p - 1.0)
    hi = (p - 1.0) / (2.0 * p - 1.0)
    if p > 0.5:
        lo, hi = hi, lo
    # lo <= 0 and hi >= 1 in both regimes
    in_first = lo <= a <= 0.0 and 1.0 <= b <= hi
    in_second = 1.0 <= a <= hi and lo <= b <= 0.0
    return in_first or in_second


def positive_stationary_family(p: float, a: float) -> Machine:
    """Signed presentation of the Perturbed Coin with positive stationary
    vector [1/(2a), (2a-1)/(2a)], defined for a > 1/2 (b pinned to 0).

    The collision entropy of that vector is
    H2(a) = -log2((1 + (2a-1)^2) / (4a^2)).  It rises on (1/2, 1], is 1 bit
    at a = 1 (the identity map, uniform vector), and decreases strictly to 0
    for a >= 1, while some transition entries go negative (below a = 1 and
    again once a is large enough); the generated process never changes.
    """
    if not a > 0.5:
        raise ValueError(f"family is defined for a > 1/2, got a = {a}")
    return apply_map(perturbed_coin_epsilon(p), two_state_map(a, 0.0))
