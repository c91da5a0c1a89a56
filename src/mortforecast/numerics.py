"""Numerical kernels shared by the fitting modules.

Thin SVD, uniform B-spline bases, the difference penalty, the Cholesky
factor of a penalized normal matrix, and the standard normal quantile.
Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg import LinAlgError, cho_factor, svd

__all__ = [
    "SvdResult",
    "BsplineBasis",
    "svd_thin",
    "bspline_design",
    "difference_matrix",
    "cholesky_factor",
    "normal_quantile",
]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(s) @ V.T`` with descending singular values."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left_vectors * self.singular_values) @ self.right_vectors.T


def svd_thin(A) -> SvdResult:
    """Thin singular value decomposition of a real matrix.

    LAPACK's divide-and-conquer driver (gesdd) through ``scipy.linalg``,
    like the Cholesky steps below, so every factorization here runs on
    one BLAS build and its thread pool. Wrapped so callers get input
    validation and a stable result type. Singular values come back
    in descending order, vectors column-orthonormal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        raise ValueError("svd_thin: matrix must be at least 1x1")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd_thin: matrix contains non-finite entries")
    U, s, Vt = svd(A, full_matrices=False, check_finite=False, lapack_driver="gesdd")
    return SvdResult(singular_values=s, left_vectors=U, right_vectors=Vt.T)


@dataclass(frozen=True)
class BsplineBasis:
    """B-spline basis over an ascending knot vector.

    The usable domain is ``[knots[degree], knots[num_basis]]``: there the
    basis functions are nonnegative and sum to one. A basis built with
    :meth:`uniform` has equally spaced knots extending ``degree`` steps
    past each end of the domain, so coefficient sequences that are affine
    in the index reproduce affine functions exactly (which keeps them in
    the null space of a second-order difference penalty).
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        if knots.ndim != 1 or len(knots) < self.degree + 2:
            raise ValueError("knot vector too short for the requested degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be ascending")
        object.__setattr__(self, "knots", knots)

    @property
    def num_basis(self) -> int:
        return len(self.knots) - self.degree - 1

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[self.num_basis])

    @classmethod
    def uniform(cls, lo: float, hi: float, num_basis: int, degree: int = 3) -> "BsplineBasis":
        if num_basis <= degree:
            raise ValueError("num_basis must exceed the spline degree")
        if not hi > lo:
            raise ValueError("domain must have positive length")
        step = (hi - lo) / (num_basis - degree)
        knots = lo + step * np.arange(-degree, num_basis + 1)
        return cls(knots=knots, degree=degree)


def bspline_design(basis: BsplineBasis, xs) -> np.ndarray:
    """Design matrix with row i holding all basis values at ``xs[i]``.

    Cox-de Boor recursion in the triangular form that only touches the
    ``degree + 1`` functions active on each point's knot span, run for
    all points at once.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    knots, degree, num_basis = basis.knots, basis.degree, basis.num_basis
    lo, hi = basis.domain
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if np.any(xs < lo - tol) or np.any(xs > hi + tol):
        bad = xs[(xs < lo - tol) | (xs > hi + tol)][0]
        raise ValueError(f"evaluation point {bad!r} outside basis domain [{lo}, {hi}]")
    xs = np.clip(xs, lo, hi)
    # spans are half-open [t_i, t_{i+1}); the right end of the domain is
    # folded into the last span so endpoint evaluation works
    span = np.where(xs >= knots[num_basis], num_basis - 1,
                    np.searchsorted(knots, xs, side="right") - 1)
    vals = np.zeros((degree + 1, len(xs)))
    left, right = np.zeros_like(vals), np.zeros_like(vals)
    vals[0] = 1.0
    for j in range(1, degree + 1):
        left[j] = xs - knots[span + 1 - j]
        right[j] = knots[span + j] - xs
        saved = 0.0
        for r in range(j):
            tmp = vals[r] / (right[r + 1] + left[j - r])
            vals[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        vals[j] = saved
    design = np.zeros((len(xs), num_basis))
    np.put_along_axis(design, span[:, None] + np.arange(-degree, 1), vals.T, axis=1)
    return design


def difference_matrix(n: int, order: int) -> np.ndarray:
    """Order-d finite difference operator as an ``(n - d) x n`` matrix."""
    if order < 1 or order >= n:
        raise ValueError(f"difference order {order} invalid for {n} coefficients")
    return np.diff(np.eye(n), n=order, axis=0)


SINGULAR_SYSTEM = "singular penalized system; increase lambda or use fewer basis functions"


def cholesky_factor(M) -> tuple:
    """Cholesky factor of a penalized normal matrix ``B'B + lam * P``,
    in the form ``scipy.linalg.cho_solve`` takes."""
    try:
        return cho_factor(M, lower=True)
    except LinAlgError as exc:
        raise ValueError(SINGULAR_SYSTEM) from exc


def normal_quantile(p):
    """Value z with ``Phi(z) = p``, elementwise for p in the open unit
    interval; a scalar p gives a float."""
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    if not np.all(inside):
        bad = float(p[~inside][0])
        raise ValueError(f"probability must lie strictly between 0 and 1, got {bad!r}")
    z = special.ndtri(p)
    return float(z) if z.ndim == 0 else z
