"""Numerical kernels shared by the fitting modules.

Thin SVD, the uniform cubic B-spline design, the standard normal
quantile, and the error the fitting modules raise for settings the data
cannot support. Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from statistics import _normal_dist_inv_cdf

import numpy as np

__all__ = [
    "SettingsError",
    "SvdResult",
    "svd_thin",
    "bspline_design",
    "normal_quantile",
]


class SettingsError(ValueError):
    """Settings the data cannot support: a model, smoother, time-series
    model or backtest window too large or too long for the surface it is
    given, a year outside it, ages not from 0 where e0 is asked for, an AR
    lag regression the data leave singular, or forecast death rates past
    float range (its subclass ``lifetable.E0RangeError``). Each message
    names the quantity, its limit and the value found. The library raises
    no other exception for these, and the CLI maps this one to exit 2."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(s) @ V.T`` with descending singular values."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def svd_thin(A) -> SvdResult:
    """Thin singular value decomposition of a real matrix.

    LAPACK's divide-and-conquer driver (gesdd) through ``np.linalg``,
    like the smoother's Cholesky factor and eigendecomposition, so every
    factorization runs on numpy's one BLAS build and its thread pool.
    Wrapped so callers get input validation and a stable result type.
    Singular values come back in descending order, vectors
    column-orthonormal.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        raise ValueError("svd_thin: matrix must be at least 1x1")
    if not np.all(np.isfinite(A)):
        raise ValueError("svd_thin: matrix contains non-finite entries")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return SvdResult(singular_values=s, left_vectors=U, right_vectors=Vt.T)


def bspline_design(lo: float, hi: float, num_basis: int, xs) -> np.ndarray:
    """Design matrix of the uniform cubic B-spline basis with ``num_basis``
    functions on ``[lo, hi]``, row i holding all basis values at ``xs[i]``.

    The knots are equally spaced and extend three steps past each end of
    the domain, so the functions are nonnegative and sum to one on it, and
    coefficients affine in the index reproduce affine functions exactly
    (which keeps them in the null space of a second-order difference
    penalty). Cox-de Boor recursion in the triangular form that only
    touches the four functions active on each point's knot span, run for
    all points at once.
    """
    degree = 3
    if num_basis <= degree:
        raise ValueError("num_basis must exceed the spline degree")
    if not hi > lo:
        raise ValueError("domain must have positive length")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    knots = lo + (hi - lo) / (num_basis - degree) * np.arange(-degree, num_basis + 1)
    # the domain ends as the knots round them, not as given
    lo, hi = float(knots[degree]), float(knots[num_basis])
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


def normal_quantile(p):
    """Value z with ``Phi(z) = p``, elementwise for p in the open unit
    interval; a scalar p gives a float.

    Each value is ``statistics._normal_dist_inv_cdf(p, 0.0, 1.0)``
    (Wichura's algorithm AS 241, good to about 1e-16 relative): the C
    kernel that ``NormalDist().inv_cdf`` calls after its own range check,
    so the two agree bit for bit. Mapped over the probabilities checked
    here, it skips that method's per-value overhead.
    """
    p = np.asarray(p, dtype=float)
    inside = (p > 0.0) & (p < 1.0)
    if not np.all(inside):
        bad = float(p[~inside][0])
        raise ValueError(f"probability must lie strictly between 0 and 1, got {bad!r}")
    z = np.fromiter(map(_normal_dist_inv_cdf, p.ravel().tolist(), repeat(0.0), repeat(1.0)),
                    float, p.size)
    return z.reshape(p.shape) if p.ndim else float(z[0])
