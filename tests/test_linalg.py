import numpy as np
import pytest

from quasihmm import errors
from quasihmm.linalg import (
    left_fixed_vector,
    row_sum_residual,
)
from quasihmm.processes import sns_epsilon_truncated


class TestLeftFixedVector:
    def test_symmetric_two_state_chain_is_uniform(self):
        p = 0.3
        v = left_fixed_vector([[1 - p, p], [p, 1 - p]])
        assert v == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_golden_mean_chain(self):
        # pi [[0.5, 0.5], [1, 0]] = pi  =>  pi0 = 0.5 pi0 + pi1, pi0 + pi1 = 1
        # hand solution: pi = [2/3, 1/3]
        v = left_fixed_vector([[0.5, 0.5], [1.0, 0.0]])
        assert v == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_identity_is_degenerate(self):
        with pytest.raises(errors.DegenerateFixedSpace):
            left_fixed_vector(np.eye(2))

    def test_jordan_structure_at_one_is_degenerate(self):
        # algebraic multiplicity 3, geometric 2: no canonical fixed vector
        m = [[1.0, 0.0, 0.0], [1.0, 1.0, -1.0], [0.0, 0.0, 1.0]]
        with pytest.raises(errors.DegenerateFixedSpace):
            left_fixed_vector(m)

    def test_signed_rows_are_accepted(self):
        # quasi-stochastic: rows sum to 1 with negative entries
        m = np.array([[1.3, -0.3], [-0.2, 1.2]])
        # eigenvalues are 1 and 1.5 + ... check the non-unit one is away from 1
        v = left_fixed_vector(m)
        assert np.allclose(v @ m, v, atol=1e-10)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(ValueError):
            left_fixed_vector([[0.9, 0.0], [0.5, 0.5]])

    def test_nan_rejected(self):
        with pytest.raises(errors.NonFiniteEntries):
            left_fixed_vector([[np.nan, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("chain", ["flip", "cycle"])
    @pytest.mark.parametrize("p", [1e-10, 1e-9, 3e-9])
    def test_nearly_reducible_chain_is_degenerate(self, chain, p):
        with pytest.raises(errors.DegenerateFixedSpace):
            left_fixed_vector(_slow_chain(chain, p))

    @pytest.mark.parametrize("chain", ["flip", "cycle"])
    @pytest.mark.parametrize("p", [1e-8, 3e-8, 1e-6])
    def test_slow_but_simple_chain_is_accepted(self, chain, p):
        # the degeneracy boundary lies between p = 3e-9 and p = 1e-8
        v = left_fixed_vector(_slow_chain(chain, p))
        assert v == pytest.approx(np.full(len(v), 1 / len(v)), abs=1e-6)

    def test_agrees_with_least_squares_on_stochastic_matrices(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            m = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
            m += np.eye(n, k=1) + np.eye(n, k=1 - n)  # irreducible
            m /= m.sum(axis=1, keepdims=True)
            assert np.max(np.abs(left_fixed_vector(m) - _lstsq_fixed_vector(m))) <= 1e-13

    def test_agrees_with_least_squares_on_sns_predictive_model(self):
        total = sns_epsilon_truncated(0.9).stacked.sum(axis=0)
        diff = left_fixed_vector(total) - _lstsq_fixed_vector(total)
        assert np.max(np.abs(diff)) <= 1e-13

    def test_agrees_with_least_squares_on_signed_matrices(self, rng):
        # both solves are backward stable, so they agree within the forward
        # error bound eps * cond * |v| of the bordered system
        for _ in range(200):
            n = int(rng.integers(2, 12))
            m = rng.uniform(-0.4, 1.0, (n, n))
            m /= m.sum(axis=1, keepdims=True)
            try:
                v = left_fixed_vector(m)
            except (errors.DegenerateFixedSpace, errors.NoUnitEigenvalue, ValueError):
                continue
            bordered = np.ones((n + 1, n + 1))
            bordered[:n, :n] = np.eye(n) - m.T
            bordered[n, n] = 0.0
            bound = 64 * np.finfo(float).eps * np.linalg.cond(bordered, 1) * np.max(np.abs(v))
            assert np.max(np.abs(v - _lstsq_fixed_vector(m))) <= max(1e-13, bound)

    def test_random_quasi_stochastic_roundtrip(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.uniform(-0.4, 1.0, (n, n))
            m /= m.sum(axis=1, keepdims=True)
            try:
                v = left_fixed_vector(m)
            except (errors.DegenerateFixedSpace, errors.NoUnitEigenvalue, ValueError):
                continue
            assert float(np.max(np.abs(v @ m - v))) <= 1e-7  # 10x eigen tolerance
            assert v.sum() == pytest.approx(1.0, abs=1e-10)


def _slow_chain(chain: str, p: float) -> np.ndarray:
    """Two-state flip chain or three-state cycle that moves with probability p."""
    if chain == "flip":
        return np.array([[1 - p, p], [p, 1 - p]])
    return np.array([[1 - p, p, 0.0], [0.0, 1 - p, p], [p, 0.0, 1 - p]])


def _lstsq_fixed_vector(m) -> np.ndarray:
    """Reference fixed vector: least squares on v (m - I) = 0 stacked with
    sum(v) = 1."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    system = np.vstack([(m - np.eye(n)).T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    v, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return v / v.sum()


def test_row_sum_residual():
    assert row_sum_residual([[0.5, 0.5], [1.0, 0.0]]) == 0.0
    assert row_sum_residual([[0.4, 0.5], [1.0, 0.0]]) == pytest.approx(0.1)
