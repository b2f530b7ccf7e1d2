"""Small dense real linear algebra helpers.

Everything here operates on plain dense ``numpy`` arrays, up to the few
thousand states of the largest models in this package (truncated SNS
predictive machines), so each operation is one O(n^3) factorization at
most.  Direct methods only: quasi-stochastic matrices can have complex spectrum
outside the unit disk, so power iteration is deliberately avoided, and no
eigenvalues are computed where a linear solve decides the question.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateFixedSpace,
    NoUnitEigenvalue,
    NonFiniteEntries,
    SingularMatrix,
)

#: structural checks (row sums)
STRUCT_TOL = 1e-10
#: eigen-residual checks
EIGEN_TOL = 1e-8
#: ``left_fixed_vector`` rejects a bordered system whose 1-norm condition
#: number exceeds this over ``EIGEN_TOL``.  For the two-state flip chain and
#: the three-state cycle moving with probability p the condition number is
#: about 1/p and 2/p, so the limit sits between p = 3e-9 (rejected) and
#: p = 1e-8 (accepted): a unit eigenvalue within about ``EIGEN_TOL`` of
#: another eigenvalue counts as repeated.
DEGENERACY_COND = 2.5


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteEntries("matrix has NaN or infinite entries")
    return a


def _row_sum_residual(a: np.ndarray) -> float:
    return float(np.abs(a.sum(axis=1) - 1.0).max())


def row_sum_residual(m) -> float:
    """Largest absolute deviation of a row sum from 1."""
    return _row_sum_residual(_as_matrix(m))


def left_fixed_vector(m) -> np.ndarray:
    """Left eigenvector of ``m`` at eigenvalue 1, normalized to unit sum.

    ``m`` must be quasi-stochastic (each row sums to 1; signed entries are
    fine).  Because ``m 1 = 1``, the bordered matrix

        B = [[I - m^T, 1], [1^T, 0]]

    is nonsingular exactly when the eigenvalue 1 is algebraically simple, and
    then the last column of ``B^-1`` holds the fixed vector (Meyer 1975, SIAM
    Rev. 17:443).  One inversion therefore yields both the vector and the
    exact 1-norm condition number of ``B``, which grows like the inverse of
    the gap between 1 and the rest of the spectrum.  A singular ``B``, or one
    with condition number above ``DEGENERACY_COND / EIGEN_TOL``, means the
    eigenvalue 1 is (numerically) repeated; there is then no canonical
    choice, so the degenerate case is rejected rather than silently picking
    a representative.

    Each call validates ``m`` once: a NaN or infinite entry raises
    ``NonFiniteEntries``, and a row sum off 1 by more than ``STRUCT_TOL``
    raises ``ValueError``.  Both come from one reduction, since the largest
    row-sum deviation is NaN or infinite whenever some entry is; the entries
    are scanned for finiteness only when that deviation fails the check, to
    choose the error.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    res = _row_sum_residual(a)
    if not res <= STRUCT_TOL:
        if not np.isfinite(a).all():
            raise NonFiniteEntries("matrix has NaN or infinite entries")
        raise ValueError(f"matrix is not quasi-stochastic: row-sum residual {res:.3e}")

    n = a.shape[0]
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = np.eye(n) - a.T
    bordered[n, n] = 0.0
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFixedSpace(f"eigenvalue 1 is not simple: {exc}") from exc
    cond = float(np.abs(bordered).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    if not cond <= DEGENERACY_COND / EIGEN_TOL:
        raise DegenerateFixedSpace(
            f"eigenvalue 1 is not numerically simple: bordered condition number {cond:.3e}"
        )
    v = inv[:n, n]

    residual = float(np.abs(v @ a - v).max())
    if residual > 10 * EIGEN_TOL:
        raise NoUnitEigenvalue(f"fixed-vector residual {residual:.3e} exceeds tolerance")
    return v / v.sum()


def invert(a) -> np.ndarray:
    """Inverse of a square matrix, rejecting numerically singular input."""
    a = _as_matrix(a)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMatrix("inverse is non-finite")
    return inv

