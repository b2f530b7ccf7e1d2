"""Shared brute-force oracles and helpers for the test suite.

The oracles deliberately avoid the library's vectorized code paths: word
probabilities are summed over explicit state paths, mutual informations come
from full joint tables, and rank correlations are computed from scratch.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from quasihmm.linalg import EIGEN_TOL, STRUCT_TOL
from quasihmm.machine import make_machine


def oracle_word_probability(machine, word) -> float:
    """Path-sum word probability: sum over all state sequences."""
    n = machine.n_states
    total = 0.0
    for path in itertools.product(range(n), repeat=len(word) + 1):
        value = float(machine.stationary[path[0]])
        for t, symbol in enumerate(word):
            matrix = machine.stacked[machine.alphabet.index(symbol)]
            value *= float(matrix[path[t], path[t + 1]])
        total += value
    return total


def oracle_conditional_word_probability(machine, state, word) -> float:
    """Path-sum conditional word probability from a fixed start state."""
    n = machine.n_states
    total = 0.0
    for path in itertools.product(range(n), repeat=len(word)):
        value = 1.0
        prev = state
        for t, symbol in enumerate(word):
            value *= float(machine.stacked[machine.alphabet.index(symbol)][prev, path[t]])
            prev = path[t]
        total += value
    return total


def all_words(alphabet, length):
    """The words that label the columns of ``conditional_future_matrix``."""
    return ["".join(w) for w in itertools.product(alphabet, repeat=length)]


def word_probability(machine, word) -> float:
    """P(word), read off its column of ``pi @ conditional_future_matrix``."""
    probs = np.asarray(machine.stationary) @ machine.conditional_future_matrix(len(word))
    return float(probs[all_words(machine.alphabet, len(word)).index(word)])


def enumerated_word_gap(a, b, starts, max_length) -> float:
    """Largest ``|starts[i] @ [P_a(w|.); P_b(w|.)]|`` over the words w of
    lengths 0 to ``max_length``, from ``conditional_future_matrix``; each
    row of ``starts`` runs over the states of ``a`` followed by those of
    ``b``."""
    starts = np.atleast_2d(starts)
    worst = 0.0
    for length in range(max_length + 1):
        futures = np.vstack([a.conditional_future_matrix(length),
                             b.conditional_future_matrix(length)])
        worst = max(worst, float(np.max(np.abs(starts @ futures))))
    return worst


def word_distribution_gap(a, b, horizon) -> float:
    """Largest |P_a(w) - P_b(w)| over the words of lengths 0 to ``horizon``."""
    return enumerated_word_gap(a, b, np.concatenate([a.stationary, -b.stationary]), horizon)


def renewal_machine(pmf):
    """The renewal process whose waiting times (the 0s between two 1s) have
    probabilities proportional to ``pmf`` on 0 .. len(pmf) - 1, as a
    unifilar machine whose state counts the 0s since the last 1."""
    pmf = np.asarray(pmf, dtype=float)
    n = pmf.size
    fire = pmf / np.cumsum(pmf[::-1])[::-1]
    stacked = np.zeros((2, n, n))
    stacked[0, np.arange(n - 1), np.arange(1, n)] = 1.0 - fire[:-1]
    stacked[1, :, 0] = fire
    return make_machine("01", [f"n{k}" for k in range(n)], stacked)


def assert_stationary(machine):
    """The stationary vector sums to 1 and is a fixed point of the summed
    transitions within ``10 * EIGEN_TOL``."""
    assert abs(float(np.sum(machine.stationary)) - 1.0) <= STRUCT_TOL
    assert machine.stationary_residual <= 10 * EIGEN_TOL


def oracle_half_excess(machine, length) -> float:
    """-log2 sum_w (sum_k pi_k sqrt(P(w|k)))^2 by explicit enumeration."""
    total = 0.0
    for word in all_words(machine.alphabet, length):
        inner = sum(
            float(machine.stationary[k])
            * np.sqrt(max(oracle_conditional_word_probability(machine, k, word), 0.0))
            for k in range(machine.n_states)
        )
        total += inner**2
    return -float(np.log2(total))


def half_excess_from_futures(weights, futures) -> float:
    """-log2 sum_w ( sum_k w_k sqrt(P(w|k)) )^2 from explicit conditionals.

    ``futures[k, i]`` is the probability of word i given state k; the words
    must jointly be nonnegative even if the weights are signed, in which case
    the squared inner sums are still real.
    """
    w = np.asarray(weights, dtype=float)
    fut = np.clip(np.asarray(futures, dtype=float), 0.0, None)
    inner = w @ np.sqrt(fut)
    return -float(np.log2(np.sum(inner**2)))


def half_excess_gap(source, built, horizon) -> float:
    """|E_half through the split states - E_half through the source states|
    at ``horizon``, from one enumeration per machine.  The built machine's
    futures count only on the words its copy's source state can emit: off
    that support they are rounding noise of either sign, which the square
    root would lift from ~1e-16 to ~1e-8."""
    groups = np.asarray(built.groups)
    fut_built = built.conditional_future_matrix(horizon)
    fut_src = source.conditional_future_matrix(horizon)
    on_support = np.where(fut_src[groups] > 0, fut_built, 0.0)
    return abs(half_excess_from_futures(built.stationary, on_support)
               - half_excess_from_futures(source.stationary, fut_src))


def oracle_state_overlap(machine, j, k, length) -> float:
    """sum_w sqrt(P(w|j) P(w|k)) by explicit enumeration."""
    total = 0.0
    for word in all_words(machine.alphabet, length):
        pj = max(oracle_conditional_word_probability(machine, j, word), 0.0)
        pk = max(oracle_conditional_word_probability(machine, k, word), 0.0)
        total += np.sqrt(pj * pk)
    return total


def oracle_mutual_information(joint) -> float:
    """Shannon mutual information in bits from a full joint table."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * np.log2(joint[i, j] / (px[i] * py[j]))
    return float(total)


def spearman(xs, ys) -> float:
    """Spearman rank correlation (no tie handling; inputs must be distinct)."""

    def ranks(values):
        order = np.argsort(np.asarray(values))
        r = np.empty(len(values))
        r[order] = np.arange(len(values))
        return r

    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx**2) * np.sum(ry**2)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def eigensolves(monkeypatch):
    """The arguments of every ``np.linalg.eigvalsh`` call made in the test."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    return calls
