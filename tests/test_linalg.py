import numpy as np
import pytest

from quasihmm import errors, linalg
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


def reference_left_fixed_vector(m):
    """``left_fixed_vector`` as it was before its checks were fused: two
    separate 1-norms, ``np.eye`` for the identity and numpy reductions for
    every maximum."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    res = float(np.abs(a.sum(axis=1) - 1.0).max())
    if not res <= linalg.STRUCT_TOL:
        if not np.isfinite(a).all():
            raise errors.NonFiniteEntries("matrix has NaN or infinite entries")
        raise ValueError(f"matrix is not quasi-stochastic: row-sum residual {res:.3e}")

    n = a.shape[0]
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - a.T
    bordered[n, n] = 0.0
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError as exc:
        raise errors.DegenerateFixedSpace(f"eigenvalue 1 is not simple: {exc}") from exc
    cond = float(np.abs(bordered).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not cond <= linalg.DEGENERACY_COND / linalg.EIGEN_TOL:
        raise errors.DegenerateFixedSpace(
            f"eigenvalue 1 is not numerically simple: bordered condition number {cond:.3e}"
        )
    v = inv[:n, n]

    residual = float(np.abs(v @ a - v).max())
    if residual > 10 * linalg.EIGEN_TOL:
        raise errors.NoUnitEigenvalue(f"fixed-vector residual {residual:.3e} exceeds tolerance")
    return v / v.sum()


def _two_blocks(p: float) -> np.ndarray:
    """Two fast two-state blocks joined by the moves 0 -> 2 at rate p and
    3 -> 1 at rate 4p: the column and the row 1-norms of its bordered
    inverse differ by about a third."""
    return np.array([[0.5, 0.5 - p, p, 0.0], [0.9, 0.1, 0.0, 0.0],
                     [0.0, 0.0, 0.2, 0.8], [0.0, 4 * p, 0.7, 0.3 - 4 * p]])


def _outcome(fn, m):
    """The vector's bytes, or the class and message of the refusal."""
    try:
        return fn(m).tobytes()
    except (ValueError, errors.QuasiHmmError) as exc:
        return type(exc), str(exc)


def _seeded_quasi_stochastic(seed: int) -> list[np.ndarray]:
    """Row-stochastic and signed quasi-stochastic draws of every order 1..9,
    with exact and signed zeros among the entries."""
    rng = np.random.default_rng(seed)
    draws = []
    for n in range(1, 10):
        for _ in range(40):
            stochastic = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.7)
            stochastic[:, 0] += 1e-3
            draws.append(stochastic / stochastic.sum(axis=1, keepdims=True))
            signed = rng.normal(size=(n, n))
            signed[rng.uniform(size=(n, n)) < 0.2] = -0.0
            draws.append(signed - (signed.sum(axis=1, keepdims=True) - 1.0) / n)
    return draws


class TestMatchesReference:
    """The fused checks give the bits and the refusals of the unfused ones."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_draws(self, seed):
        draws = _seeded_quasi_stochastic(seed)
        outcomes = [_outcome(left_fixed_vector, m) for m in draws]
        assert outcomes == [_outcome(reference_left_fixed_vector, m) for m in draws]
        # every draw has a simple unit eigenvalue; the refusals are pinned below
        assert all(isinstance(o, bytes) for o in outcomes)

    def test_sns_predictive_model(self):
        total = sns_epsilon_truncated(0.9).stacked.sum(axis=0)
        got = left_fixed_vector(total)
        assert got.tobytes() == reference_left_fixed_vector(total).tobytes()

    @pytest.mark.parametrize("m", [
        _slow_chain("flip", 3e-9), _slow_chain("cycle", 3e-9),
        _slow_chain("flip", 1e-8), _slow_chain("cycle", 1e-8), np.eye(2), np.eye(3),
        _two_blocks(3e-9), _two_blocks(6e-9), _two_blocks(1e-8),
    ], ids=["flip-3e-9", "cycle-3e-9", "flip-1e-8", "cycle-1e-8", "eye-2", "eye-3",
            "blocks-3e-9", "blocks-6e-9", "blocks-1e-8"])
    def test_degeneracy_boundary_and_identity(self, m):
        # a refusal's message carries the condition number; at 6e-9 the
        # two-block chain is accepted by its column norms (2.4e8) and would
        # be refused by its row norms (3.1e8)
        assert _outcome(left_fixed_vector, m) == _outcome(reference_left_fixed_vector, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_refused_rows(self, bad):
        m = np.array([[0.5, 0.5, 0.0], [0.25, bad, 0.0], [0.0, 0.5, 0.5]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _outcome(left_fixed_vector, m)
            want = _outcome(reference_left_fixed_vector, m)
        assert got == want and not isinstance(got, bytes)
