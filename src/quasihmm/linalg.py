"""Small dense real linear algebra helpers.

Everything here operates on plain dense ``numpy`` arrays, up to the few
thousand states of the largest models in this package (truncated SNS
predictive machines), so each operation is one O(n^3) factorization at
most.  Direct methods only: quasi-stochastic matrices can have complex spectrum
outside the unit disk, so power iteration is deliberately avoided, and no
eigenvalues are computed where a linear solve decides the question.
"""

from __future__ import annotations

import functools

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


def _largest(magnitudes: list[float]) -> float:
    """The largest of some nonnegative floats, NaN if one is NaN, as numpy's
    maximum reduction gives it: none is negative, so their sum is NaN exactly
    when one of them is.  On the few entries of a small machine, Python
    floats cost a fraction of a numpy call."""
    total = sum(magnitudes)
    return total if total != total else max(magnitudes)


def _row_sum_residual(a: np.ndarray) -> float:
    return _largest([abs(s - 1.0) for s in np.add.reduce(a, 1).tolist()])


def row_sum_residual(m) -> float:
    """Largest absolute deviation of a row sum from 1."""
    return _row_sum_residual(_as_matrix(m))


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """The n x n identity as a read-only view of 2n - 1 floats: row i starts
    n - 1 - i entries into ``[0]*(n-1) + [1] + [0]*(n-1)``, so one costs
    O(n) memory and the orders met last are remembered."""
    line = np.zeros(2 * n - 1)
    line[n - 1] = 1.0
    step = line.itemsize
    eye = np.ndarray((n, n), buffer=line, offset=(n - 1) * step, strides=(-step, step))
    eye.setflags(write=False)
    return eye


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
    raises ``ValueError``.  Both come from the row sums, since the largest
    row-sum deviation is NaN or infinite whenever some entry is; the entries
    are scanned for finiteness only when that deviation fails the check, to
    choose the error.

    The checks are fused so that a small ``m`` costs few numpy calls, with
    the bits of ``np.abs(x).max()`` and of the column sums taken one matrix
    at a time:

    * ``I - m^T`` is written straight into ``B``, from the remembered
      read-only identity of :func:`_identity`;
    * ``B`` is written into the first layer of a (2, n+1, n+1) array and
      ``B^-1`` copied into the second, so both 1-norms come from one
      ``abs`` and one column sum, each column summed over its rows in
      order as it is on its own;
    * the row-sum deviation, the largest column sums and the fixed-point
      residual are maxima of a few Python floats (:func:`_largest`), the
      same IEEE differences and the same maxima as the numpy reductions.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    res = _row_sum_residual(a)
    if not res <= STRUCT_TOL:
        if not np.isfinite(a).all():
            raise NonFiniteEntries("matrix has NaN or infinite entries")
        raise ValueError(f"matrix is not quasi-stochastic: row-sum residual {res:.3e}")

    pair = np.empty((2, n + 1, n + 1))
    bordered = pair[0]
    bordered[:n, n] = 1.0
    bordered[n] = 1.0
    bordered[n, n] = 0.0
    np.subtract(_identity(n), a.T, out=bordered[:n, :n])
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFixedSpace(f"eigenvalue 1 is not simple: {exc}") from exc
    pair[1] = inv
    sums_bordered, sums_inv = np.add.reduce(np.abs(pair, out=pair), 1).tolist()
    cond = _largest(sums_bordered) * _largest(sums_inv)
    if not cond <= DEGENERACY_COND / EIGEN_TOL:
        raise DegenerateFixedSpace(
            f"eigenvalue 1 is not numerically simple: bordered condition number {cond:.3e}"
        )
    v = inv[:n, n]

    residual = _largest([abs(x - y) for x, y in zip((v @ a).tolist(), v.tolist())])
    if residual > 10 * EIGEN_TOL:
        raise NoUnitEigenvalue(f"fixed-vector residual {residual:.3e} exceeds tolerance")
    return v / np.add.reduce(v)


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

