"""Penalized-spline smoothing of log mortality curves.

Each year's curve ln m_t(x) is smoothed independently with a cubic
B-spline basis and a squared difference penalty on the coefficients,
the penalty weight fixed or chosen by generalized cross-validation; the
years of a surface share one design and are smoothed in one batched
pass, where one generalized eigendecomposition scores every grid penalty
for every year, and one Cholesky solve per distinct penalty fits them.
Above a configurable age the smoothed curve is projected onto the
increasing cone by pooling adjacent violators, reflecting that adult
mortality rises with age while infant and accident-hump features below
it do not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, eigh

from .numerics import (SINGULAR_SYSTEM, BsplineBasis, bspline_design, cholesky_factor,
                       difference_matrix)

__all__ = [
    "SmoothConfig",
    "SmoothedSurface",
    "smooth_surface",
]

# Cubic B-splines under a squared second-difference penalty on their
# coefficients, and the grid GCV searches, in the order its ties resolve
_DEGREE = 3
_DIFFERENCE_ORDER = 2
_LAMBDA_GRID = np.logspace(-4.0, 6.0, 25)

# Relative gap within which two GCV scores tie. On the flat top of the
# grid, where an affine fit has absorbed a curve, scores agree to about
# 1e-11, and a per-curve LU solve rounds them by up to about 1e-10; the
# gaps between a minimum and the grid points before it on generated
# HMD-scale surfaces are above 1e-6.
_GCV_TIE_RTOL = 1e-7

# Absolute gap, as a share of a curve's Y'Y, within which two GCV scores
# also tie. A curve the spline fits exactly at every grid lambda, such as
# an affine one, scores at the rounding floor, 1e-31 to 1e-25 of its Y'Y,
# where no relative gap ties; on generated HMD-scale surfaces the gaps
# before a minimum are above 1e-12 of it.
_GCV_TIE_FLOOR = 1e-18


@dataclass(frozen=True)
class SmoothConfig:
    """The smoother's three settings, the CLI's ``--num-basis``, ``--lam``
    and ``--monotone-from``.

    ``num_basis=None`` resolves to roughly one basis function per 2.5
    observations, capped at 35 and raised to 4, the fewest a cubic spline
    has; an explicit ``num_basis`` below 4 is an error. ``lam="auto"``
    picks each year's penalty weight by GCV over 25 points from 1e-4 to
    1e6, evenly spaced in log; a fixed ``lam`` must be finite and
    nonnegative, and every year takes it. ``monotone_from=None`` disables
    the monotone projection entirely.
    """

    num_basis: Optional[int] = None
    lam: "float | str" = "auto"
    monotone_from: Optional[int] = 65

    def resolved_num_basis(self, n_points: int) -> int:
        least = _DEGREE + 1
        if self.num_basis is None:
            k = max(min(int(n_points / 2.5), 35), least)
        else:
            k = int(self.num_basis)
            if k < least:
                raise ValueError(f"num_basis {k} is below the minimum of {least}")
        if k > n_points:
            raise ValueError(
                f"num_basis {k} exceeds the {n_points} observations available"
            )
        return k


@dataclass(frozen=True)
class SmoothedSurface:
    """Smoothed log rates plus the across-year noise variance at each age."""

    ages: np.ndarray
    years: np.ndarray
    log_rates: np.ndarray
    sigma2: np.ndarray  # observational variance by age
    lambdas: np.ndarray  # chosen penalty per year


def smooth_surface(
    log_rates: np.ndarray,
    ages: np.ndarray,
    years: np.ndarray,
    config: SmoothConfig = SmoothConfig(),
) -> SmoothedSurface:
    """Smooth each year's log-rate curve, all years in one batched pass.

    The years share the design B, so G = B'B, the penalty P = D'D and
    R = B'Y are built once. Each year's lambda is ``config.lam``, or its
    GCV choice (``_gcv_lambdas``); G + lambda P is then factored once per
    distinct lambda, and its Cholesky solve gives the coefficients of the
    years that took it. Above ``config.monotone_from`` each curve is
    projected onto the nondecreasing cone (``_monotone_tails``).

    ``sigma2[i]`` is the sample variance across years of the smoothing
    residual at age i, the estimate of observational noise used in the
    forecast variance; zero when there are fewer than two years.
    """
    Y = np.asarray(log_rates, dtype=float)
    ages = np.asarray(ages, dtype=float)
    years = np.asarray(years)
    if Y.shape != (len(ages), len(years)):
        raise ValueError(
            f"log_rates shape {Y.shape} does not match "
            f"{len(ages)} ages x {len(years)} years"
        )
    if len(ages) < 4:
        raise ValueError("need at least 4 ages to smooth a curve")
    if not np.all(np.isfinite(Y)):
        raise ValueError("log rates contain non-finite values")
    auto = config.lam == "auto"
    if not auto and not 0.0 <= float(config.lam) < np.inf:
        raise ValueError("lam must be finite and nonnegative")
    k = config.resolved_num_basis(len(ages))
    B = bspline_design(BsplineBasis.uniform(float(ages[0]), float(ages[-1]), k,
                                            degree=_DEGREE), ages)
    D = difference_matrix(k, _DIFFERENCE_ORDER)
    P = D.T @ D
    # B' in F order, in a buffer of its own: G and R round differently
    # from a C-order copy or from the view B.T
    Bt = B.T.copy(order="F")
    G, R = Bt @ B, Bt @ Y
    lambdas = _gcv_lambdas(B, Y, G, P, R) if auto else np.full(len(years), float(config.lam))
    # theta in C order: B @ theta rounds differently for an F-order theta
    theta = np.empty((k, len(years)))
    for lam in np.unique(lambdas):
        cols = lambdas == lam
        theta[:, cols] = cho_solve(cholesky_factor(G + lam * P), R)[:, cols]
    smoothed = B @ theta
    if config.monotone_from is not None:
        _monotone_tails(smoothed, ages, config.monotone_from)
    resid = Y - smoothed
    sigma2 = resid.var(axis=1, ddof=1) if len(years) >= 2 else np.zeros(len(ages))
    return SmoothedSurface(ages=ages.astype(int), years=years,
                           log_rates=smoothed, sigma2=sigma2, lambdas=lambdas)


def _gcv_lambdas(B: np.ndarray, Y: np.ndarray, G: np.ndarray, P: np.ndarray,
                 R: np.ndarray) -> np.ndarray:
    """Per column of ``Y``, the grid lambda minimizing GCV.

    All columns share the design B and penalty P, so one generalized
    eigendecomposition scores every grid lambda (Demmler-Reinsch): with
    G = B'B and U'(G + P)U = I, U'GU = diag(nu), the system G + lambda P
    is U^-T diag(nu + lambda (1 - nu)) U^-1. Each lambda's fits are then
    B U diag(1 / (nu + lambda (1 - nu))) U'R, and
    tr(H) = sum nu / (nu + lambda (1 - nu)), common to all columns. The
    score is n * RSS / (n - tr(H))^2, infinite when n <= tr(H) or the
    system is singular at that lambda. Each column keeps the first grid
    point scoring within ``_GCV_TIE_RTOL`` of its minimum, or within
    ``_GCV_TIE_FLOOR`` of its Y'Y, so a flat top, where scores differ only
    by rounding, resolves by grid order, as does an exact fit.
    """
    n, m = Y.shape
    grid = _LAMBDA_GRID
    try:
        nu, U = eigh(G, G + P, check_finite=False)
    except LinAlgError as exc:
        raise ValueError(SINGULAR_SYSTEM) from exc
    # the d largest nu are exactly 1: their vectors span the polynomials
    # the order-d penalty leaves free. Left at 1 - eps, they would scale
    # those fits by about 1 - lambda * eps, 1e-10 at the top of the grid
    nu[-_DIFFERENCE_ORDER:] = 1.0
    BU, C = B @ U, U.T @ R
    ones = np.ones(n)  # column sums as matrix-vector products; np.sum rounds otherwise
    scores = np.empty((len(grid), m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = 1.0 / (nu + grid[:, None] * (1.0 - nu))  # (grid, k)
        for i, g in enumerate(gain):  # one lambda at a time keeps memory at one (n, m) block
            resid = Y - BU @ (g[:, None] * C)
            scores[i] = ones @ (resid * resid)
        denom = n - gain @ nu
        scores *= n / denom[:, None] ** 2
    scores[~(np.isfinite(scores) & (denom > 0)[:, None])] = np.inf
    best = scores.min(axis=0)
    if np.isinf(best).any():
        raise ValueError("GCV failed at every grid point; basis too rich for the data")
    tie = best * (1.0 + _GCV_TIE_RTOL) + _GCV_TIE_FLOOR * (ones @ (Y * Y))
    return grid[np.argmax(scores <= tie, axis=0)]


def _monotone_tails(values: np.ndarray, xs: np.ndarray, from_age: "int | float") -> None:
    """Project each column of ``values``, at the ascending ``xs`` that are
    >= from_age, onto the nondecreasing cone, in place.

    One ``np.diff`` over the tail block picks out the columns whose tail
    falls somewhere; only those go through ``_pava``, each from the end of
    its longest prefix of values lying more than ``slack`` below every
    later value. Both skips are exact, not approximations. On a
    nondecreasing tail no two blocks pool (equal neighbours do not
    violate). A pool of later values has an exact mean above every prefix
    value, and ``_pava``'s merges round it by at most about
    1.5 * len * eps * max|value|, well under ``slack``, so no pool reaches
    the prefix and the fit equals ``_pava`` on the whole tail bit for bit.
    Without the slack, a rounded pool can fall below the least value in it.
    """
    tail = values[int(np.searchsorted(xs, float(from_age), side="left")):]
    falling = np.flatnonzero((np.diff(tail, axis=0) < 0).any(axis=0))
    if not falling.size:
        return
    block = tail[:, falling]
    later_min = np.minimum.accumulate(block[:0:-1], axis=0)[::-1]  # row i: min of rows > i
    slack = 4 * np.finfo(float).eps * len(block) * np.abs(block).max(axis=0)
    starts = np.argmin(block[:-1] + slack < later_min, axis=0)
    for j, start in zip(falling, starts):
        tail[start:, j] = _pava(tail[start:, j])


def _pava(y: np.ndarray) -> np.ndarray:
    """Nondecreasing least-squares fit by pooling adjacent violators.

    Maintains a stack of blocks (mean, weight); a new point is pushed as
    its own block, then blocks merge while the ordering is violated.
    """
    means: list[float] = []
    weights: list[float] = []
    for value in y:
        cur_mean, cur_w = float(value), 1.0
        while means and means[-1] > cur_mean:
            prev_mean, prev_w = means.pop(), weights.pop()
            cur_mean = (prev_mean * prev_w + cur_mean * cur_w) / (prev_w + cur_w)
            cur_w += prev_w
        means.append(cur_mean)
        weights.append(cur_w)
    out = np.empty_like(y)
    pos = 0
    for mean, w in zip(means, weights):
        n = int(round(w))
        out[pos:pos + n] = mean
        pos += n
    return out
