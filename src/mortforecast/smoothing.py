"""Penalized-spline smoothing of log mortality curves.

Each year's curve ln m_t(x) is smoothed independently with a cubic
B-spline basis and a squared difference penalty on the coefficients,
the penalty weight chosen by generalized cross-validation; the years of
a surface share one design and are smoothed in one batched pass, where
one generalized eigendecomposition scores every grid penalty for every
year. Above a configurable age the smoothed curve is projected onto the
increasing cone by pooling adjacent violators, reflecting that adult
mortality rises with age while infant and accident-hump features below
it do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, eigh

from .numerics import (SINGULAR_SYSTEM, BsplineBasis, bspline_design, cholesky_factor,
                       difference_matrix, solve_penalized_ls)

__all__ = [
    "SmoothConfig",
    "SmoothedCurve",
    "SmoothedSurface",
    "smooth_curve",
    "smooth_surface",
    "enforce_monotone",
]

_DEFAULT_LAMBDA_GRID = np.logspace(-4.0, 6.0, 25)

# Relative gap within which two GCV scores tie. On the flat top of the
# grid, where an affine fit has absorbed a curve, scores agree to about
# 1e-11, and a per-curve LU solve rounds them by up to about 1e-10; the
# gaps between a minimum and the grid points before it on generated
# HMD-scale surfaces are above 1e-6.
_GCV_TIE_RTOL = 1e-7

# Absolute gap, as a share of a curve's Y'WY, within which two GCV scores
# also tie. A curve the spline fits exactly at every grid lambda scores at
# the rounding floor, 1e-31 to 1e-25 of its Y'WY, where no relative gap
# ties; on generated HMD-scale surfaces the gaps before a minimum are
# above 1e-12 of it.
_GCV_TIE_FLOOR = 1e-18


@dataclass(frozen=True)
class SmoothConfig:
    """Knobs for the smoother.

    ``num_basis=None`` resolves to roughly one basis function per 2.5
    observations, capped at 35 and raised to the smallest basis that the
    degree and difference order allow; an explicit ``num_basis`` below
    that is an error. ``lam="auto"`` picks the penalty weight by GCV over
    ``lambda_grid``; a fixed ``lam`` must be finite and nonnegative.
    ``monotone_from=None`` disables the monotone projection entirely.
    """

    num_basis: Optional[int] = None
    degree: int = 3
    difference_order: int = 2
    lam: "float | str" = "auto"
    lambda_grid: np.ndarray = field(default_factory=lambda: _DEFAULT_LAMBDA_GRID.copy())
    monotone_from: Optional[int] = 65
    weights: Optional[np.ndarray] = None

    def resolved_num_basis(self, n_points: int) -> int:
        if self.difference_order not in (1, 2, 3):
            raise ValueError("difference order must be 1, 2 or 3")
        least = max(self.degree + 1, self.difference_order + 1)
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
class SmoothedCurve:
    xs: np.ndarray
    values: np.ndarray
    coefficients: np.ndarray
    basis: BsplineBasis
    lam: float
    gcv: float


@dataclass(frozen=True)
class SmoothedSurface:
    """Smoothed log rates plus the across-year noise variance at each age."""

    ages: np.ndarray
    years: np.ndarray
    log_rates: np.ndarray
    sigma2: np.ndarray  # observational variance by age
    lambdas: np.ndarray  # chosen penalty per year


def _resolve_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match {n} observations")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    return w


def _smooth_columns(xs: np.ndarray, Y: np.ndarray, config: SmoothConfig):
    """Smooth every column of ``Y``, each a curve observed at ``xs``.

    Returns (basis, values, coefficients, lambdas, GCV scores), one
    column or entry per curve; the scores are NaN at a fixed lambda.
    """
    n, m = Y.shape
    if n < 4:
        raise ValueError("need a 1-d curve with at least 4 points")
    if not np.all(np.isfinite(Y)):
        raise ValueError("curve contains non-finite values")
    auto = config.lam == "auto"
    if not auto and not 0.0 <= float(config.lam) < np.inf:
        raise ValueError("lam must be finite and nonnegative")
    k = config.resolved_num_basis(n)
    basis = BsplineBasis.uniform(float(xs[0]), float(xs[-1]), k, degree=config.degree)
    B = bspline_design(basis, xs)
    w = _resolve_weights(config.weights, n)
    if auto:
        lambdas, gcvs, theta = _gcv_search(B, Y, w, config)
    else:
        lam = float(config.lam)
        theta = solve_penalized_ls(B, Y, w=w, lam=lam, d=config.difference_order)
        lambdas, gcvs = np.full(m, lam), np.full(m, np.nan)
    values = B @ theta
    if config.monotone_from is not None:
        _monotone_tails(values, xs, config.monotone_from)
    return basis, values, theta, lambdas, gcvs


def _gcv_search(B: np.ndarray, Y: np.ndarray, w: np.ndarray, config: SmoothConfig):
    """Per column of ``Y``: the grid lambda minimizing GCV, its score, and
    the coefficients fitted with it.

    All columns share the design B, weights W and penalty P, so one
    generalized eigendecomposition scores every grid lambda
    (Demmler-Reinsch): with G = B'WB and U'(G + P)U = I, U'GU = diag(nu),
    the system G + lambda P is U^-T diag(nu + lambda (1 - nu)) U^-1. Each
    lambda's fits are then B U diag(1 / (nu + lambda (1 - nu))) U'B'WY,
    and tr(H) = sum nu / (nu + lambda (1 - nu)), common to all columns.
    The score is n * RSS / (n - tr(H))^2, infinite when n <= tr(H) or the
    system is singular at that lambda. Each column keeps the first grid
    point scoring within ``_GCV_TIE_RTOL`` of its minimum, or within
    ``_GCV_TIE_FLOOR`` of its Y'WY, so a flat top, where scores differ only
    by rounding, resolves by grid order, as does an exact fit.

    The chosen coefficients come from a Cholesky solve of
    (G + lambda P) theta = B'WY over every column, once per distinct
    chosen lambda, not from the eigenbasis, which would move the fits by
    rounding. The reported score is the spectral one the choice used.
    """
    (n, k), m = B.shape, Y.shape[1]
    grid = np.asarray(config.lambda_grid, dtype=float)
    D = difference_matrix(k, config.difference_order)
    P = D.T @ D
    BtW = B.T * w
    G, R = BtW @ B, BtW @ Y
    try:
        nu, U = eigh(G, G + P, check_finite=False)
    except LinAlgError as exc:
        raise ValueError(SINGULAR_SYSTEM) from exc
    # the d largest nu are exactly 1: their vectors span the polynomials
    # the order-d penalty leaves free. Left at 1 - eps, they would scale
    # those fits by about 1 - lambda * eps, 1e-10 at the top of the grid
    nu[-config.difference_order:] = 1.0
    BU, C = B @ U, U.T @ R
    scores = np.empty((len(grid), m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = 1.0 / (nu + grid[:, None] * (1.0 - nu))  # (grid, k)
        for i, g in enumerate(gain):  # one lambda at a time keeps memory at one (n, m) block
            resid = Y - BU @ (g[:, None] * C)
            scores[i] = w @ (resid * resid)
        denom = n - gain @ nu
        scores *= n / denom[:, None] ** 2
    scores[~(np.isfinite(scores) & (denom > 0)[:, None])] = np.inf
    best = scores.min(axis=0)
    if np.isinf(best).any():
        raise ValueError("GCV failed at every grid point; basis too rich for the data")
    tie = best * (1.0 + _GCV_TIE_RTOL) + _GCV_TIE_FLOOR * (w @ (Y * Y))
    chosen = np.argmax(scores <= tie, axis=0)
    theta = np.empty((k, m))
    for i in np.unique(chosen):
        cols = chosen == i
        theta[:, cols] = cho_solve(cholesky_factor(G + grid[i] * P), R)[:, cols]
    return grid[chosen], scores[chosen, np.arange(m)], theta


def smooth_curve(
    ys: np.ndarray,
    config: SmoothConfig = SmoothConfig(),
    ages: Optional[np.ndarray] = None,
) -> SmoothedCurve:
    """Smooth one curve of log rates observed at ``ages`` (default 0..n-1);
    the one-column case of ``smooth_surface``."""
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1:
        raise ValueError("need a 1-d curve with at least 4 points")
    xs = np.arange(len(ys), dtype=float) if ages is None else np.asarray(ages, dtype=float)
    if xs.shape != ys.shape:
        raise ValueError("ages and values must have the same length")
    basis, values, theta, lambdas, gcvs = _smooth_columns(xs, ys[:, None], config)
    return SmoothedCurve(xs=xs, values=values[:, 0], coefficients=theta[:, 0],
                         basis=basis, lam=float(lambdas[0]), gcv=float(gcvs[0]))


def smooth_surface(
    log_rates: np.ndarray,
    ages: np.ndarray,
    years: np.ndarray,
    config: SmoothConfig = SmoothConfig(),
) -> SmoothedSurface:
    """Smooth each year's log-rate curve, all years in one batched pass.

    ``sigma2[i]`` is the sample variance across years of the smoothing
    residual at age i, the estimate of observational noise used in the
    forecast variance; zero when there are fewer than two years.
    """
    log_rates = np.asarray(log_rates, dtype=float)
    ages = np.asarray(ages, dtype=float)
    years = np.asarray(years)
    if log_rates.shape != (len(ages), len(years)):
        raise ValueError(
            f"log_rates shape {log_rates.shape} does not match "
            f"{len(ages)} ages x {len(years)} years"
        )
    _, smoothed, _, lambdas, _ = _smooth_columns(ages, log_rates, config)
    resid = log_rates - smoothed
    sigma2 = resid.var(axis=1, ddof=1) if len(years) >= 2 else np.zeros(len(ages))
    return SmoothedSurface(ages=ages.astype(int), years=years,
                           log_rates=smoothed, sigma2=sigma2, lambdas=lambdas)


def enforce_monotone(
    values: np.ndarray,
    from_age: "int | float",
    ages: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Project the tail of ``values`` at ages >= from_age onto the
    nondecreasing cone (least-squares, via pooling adjacent violators).

    Entries below ``from_age`` pass through untouched. If no age reaches
    the threshold the input is returned as is.
    """
    values = np.asarray(values, dtype=float)
    xs = np.arange(len(values), dtype=float) if ages is None else np.asarray(ages, dtype=float)
    if xs.shape != values.shape:
        raise ValueError("ages and values must have the same length")
    out = values.copy()
    _monotone_tails(out[:, None], xs, from_age)
    return out


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
