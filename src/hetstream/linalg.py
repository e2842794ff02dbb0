"""Dense linear algebra for the small symmetric systems used everywhere else.

Every matrix handled here is a cross-product (Gram) matrix of dimension a few
dozen at most. SPD solves use LAPACK's Cholesky factorization plus an
explicit relative pivot tolerance on the factor, so a near-singular Gram
matrix is reported as rank deficient rather than solved; a pivoted LU
handles the one family of systems that is not symmetric (the bordered
estimator system once homogenization columns enter).

The LAPACK routines (dpotrf/dpotrs, dgetrf/dgetrs) are called directly:
at these sizes scipy.linalg's wrappers around them cost several times the
factorization itself. Any nonzero LAPACK ``info`` is reported as an error.
scipy.linalg is imported on the first factorization or solve, not with this
module: it is most of the time a process takes to import hetstream, and a
process that only merges batches (a plain ``hetstream ingest``) never needs
it. Later calls reach the loaded module through a cached accessor.

A factor can be kept and solved with again: the leading w x w block of the
Cholesky factor of a Gram matrix is the factor of that Gram matrix's
leading w x w block, so solve_cholesky serves every leading sub-system of
a factored matrix without factoring again.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, SingularMatrix

# Relative pivot tolerance: a pivot at or below PIVOT_RTOL * max diagonal
# is treated as rank deficiency.
PIVOT_RTOL = 1e-12


@functools.cache
def _lapack():
    """scipy.linalg.lapack, imported on the first call."""
    from scipy.linalg import lapack

    return lapack


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got ndim={a.ndim}")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a.T)/2 — accumulated floating error otherwise breaks symmetry."""
    return 0.5 * (a + a.T)


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a.

    Raises NotPositiveDefinite when a pivot, diag(L)**2, falls at or below
    PIVOT_RTOL times the largest diagonal entry of the input, or when LAPACK
    cannot factor the matrix at all.
    """
    a = symmetrize(as_matrix(a))
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"cholesky needs a square matrix, got {a.shape}")
    if n == 0:
        return a
    diag_max = float(a.diagonal().max())
    if diag_max <= 0.0:
        raise NotPositiveDefinite("matrix has no positive diagonal entry")
    tol = PIVOT_RTOL * diag_max
    lower, info = _lapack().dpotrf(a, lower=1)
    if info:
        raise NotPositiveDefinite(f"LAPACK dpotrf failed (info={info})")
    pivots = lower.diagonal() ** 2
    if pivots.min() <= tol:
        j = int(np.argmax(pivots <= tol))
        raise NotPositiveDefinite(
            f"pivot {pivots[j]:.3e} at row {j} is below tolerance {tol:.3e}"
        )
    return lower


def solve_spd(a, b):
    """Solve a @ x = b for symmetric positive-definite a.

    ``b`` may be a vector or a matrix of right-hand sides; the result has the
    same shape. The input is symmetrized before factorization. Rank
    deficiency surfaces as SingularMatrix.
    """
    a = as_matrix(a)
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs has {b_arr.shape[0]} rows, matrix is {a.shape[0]}x{a.shape[1]}"
        )
    try:
        lower = cholesky(a)
    except NotPositiveDefinite as exc:
        raise SingularMatrix(str(exc)) from exc
    return solve_cholesky(lower, b_arr)


def solve_cholesky(lower: np.ndarray, b):
    """Solve a[:w, :w] @ x = b, with w the number of rows of b, given the
    Cholesky factor ``lower`` of a (as returned by cholesky).

    The leading block of the factor factors the leading block of a, so one
    factorization serves every leading sub-system; w equal to the size of a
    solves the whole system.
    """
    b_arr = np.asarray(b, dtype=np.float64)
    w = b_arr.shape[0]
    if w > lower.shape[0]:
        raise DimensionMismatch(
            f"rhs has {w} rows, factor is {lower.shape[0]}x{lower.shape[1]}"
        )
    if w == 0:
        return b_arr.copy()
    x, info = _lapack().dpotrs(lower[:w, :w], b_arr, lower=1)
    if info:
        raise SingularMatrix(f"LAPACK dpotrs failed (info={info})")
    return x


def solve_general(a, b):
    """Solve a @ x = b for a general square matrix via pivoted LU.

    Needed because the bordered estimator system stops being symmetric once
    the homogenization term enters its upper-right block.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"solve_general needs a square matrix, got {a.shape}")
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape[0] != n:
        raise DimensionMismatch(
            f"rhs has {b_arr.shape[0]} rows, matrix is {n}x{n}"
        )
    if n == 0:
        return b_arr.copy()
    lu, piv, info = _lapack().dgetrf(a)
    if info:
        # info > 0: an exactly zero pivot in U
        raise SingularMatrix(f"LAPACK dgetrf failed (info={info}); system is rank deficient")
    u_diag = np.abs(lu.diagonal())
    if u_diag.min() <= PIVOT_RTOL * u_diag.max():
        raise SingularMatrix("LU pivot below tolerance; system is rank deficient")
    x, info = _lapack().dgetrs(lu, piv, b_arr)
    if info:
        raise SingularMatrix(f"LAPACK dgetrs failed (info={info})")
    return x


def quad_form(a, v) -> float:
    """v.T @ a @ v as an exact double contraction."""
    a = as_matrix(a)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got ndim={v.ndim}")
    if a.shape[0] != a.shape[1] or a.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"quad_form dims disagree: matrix {a.shape}, vector {v.shape}"
        )
    return float(v @ a @ v)


def solve_consistent(a, b):
    """Solve a @ x = b for symmetric nonnegative-definite a with b in range(a).

    Falls back to a least-squares solution when the matrix is singular; for a
    consistent system any solution gives the same b @ x, which is all the
    residual-sum recursion needs.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    try:
        return solve_spd(a, b)
    except SingularMatrix:
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        return x
