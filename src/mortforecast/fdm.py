"""Functional demographic model: smooth curves, decompose, forecast.

The log-rate surface, smoothed year by year beforehand
(``smoothing.smooth_surface``), is centered on a mean curve mu(x) and
decomposed by SVD into K orthonormal age patterns phi_k with
coefficient time series beta_{t,k}. Forecasting the coefficients and
recombining gives point forecasts; the forecast variance adds four
pieces: mean-curve uncertainty, coefficient forecast variance through
phi_k^2, leftover model error v(x), and observational noise sigma2(x).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .numerics import normal_quantile, svd_thin
from .smoothing import SmoothedSurface
from .tsforecast import TsSpec, fit_ts, forecast_ts, simulate_path

__all__ = [
    "FdmModel",
    "ForecastSurface",
    "fit_fdm",
    "forecast_fdm",
    "bootstrap_intervals",
]


@dataclass(frozen=True)
class ForecastSurface:
    """Log-rate forecasts on an age grid for horizons 1..h.

    ``years`` carries the calendar labels of the horizons. Bounds are at
    the stated two-sided ``level`` (a percentage).
    """

    ages: np.ndarray
    years: np.ndarray
    point: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float

    def __post_init__(self):
        shape = (len(self.ages), len(self.years))
        for name in ("point", "variance", "lower", "upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} does not match {shape}")
            object.__setattr__(self, name, arr)
        if not 50.0 < self.level < 99.9:
            raise ValueError(f"level must be in (50, 99.9), got {self.level}")
        if np.any(self.variance < -1e-10):
            raise ValueError("negative forecast variance")
        object.__setattr__(self, "variance", np.maximum(self.variance, 0.0))
        if np.any(self.lower > self.point + 1e-9) or np.any(self.upper < self.point - 1e-9):
            raise ValueError("interval bounds must bracket the point forecast")

    @property
    def horizons(self) -> np.ndarray:
        return np.arange(1, len(self.years) + 1)

    def slice_years(self, first: int, last: int) -> "ForecastSurface":
        """The forecast for calendar years first..last (inclusive) only."""
        j0 = int(first) - int(self.years[0])
        j1 = int(last) - int(self.years[0]) + 1
        if not 0 <= j0 < j1 <= len(self.years):
            raise ValueError(f"years {first}:{last} outside the forecast years "
                             f"{self.years[0]}:{self.years[-1]}")
        return ForecastSurface(ages=self.ages, years=self.years[j0:j1],
                               point=self.point[:, j0:j1],
                               variance=self.variance[:, j0:j1],
                               lower=self.lower[:, j0:j1],
                               upper=self.upper[:, j0:j1], level=self.level)


def interval_bounds(point: np.ndarray, variance: np.ndarray,
                    level: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric normal-theory bounds at a two-sided percentage level."""
    z = normal_quantile(0.5 + level / 200.0)
    half = z * np.sqrt(np.maximum(variance, 0.0))
    return point - half, point + half


@dataclass(frozen=True)
class FdmModel:
    """Fitted decomposition. ``phi`` is ages-by-K with orthonormal
    columns; ``beta_series`` is years-by-K. ``model_errors`` is what the
    K components leave unexplained of the smoothed surface, and
    ``smoothed_log`` the smoothed surface itself."""

    ages: np.ndarray
    years: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    beta_series: np.ndarray
    v: np.ndarray
    sigma2: np.ndarray
    explained_shares: np.ndarray
    K: int
    model_errors: np.ndarray
    smoothed_log: np.ndarray

    @property
    def sigma2_mu(self) -> np.ndarray:
        """Variance of the estimated mean curve: v(x) over the number of
        years averaged, the variance of a mean of n curve errors."""
        return self.v / len(self.years)

    def fitted_log_rates(self) -> np.ndarray:
        return self.mu[:, None] + self.phi @ self.beta_series.T

    def reconstruct(self) -> np.ndarray:
        return self.fitted_log_rates() + self.model_errors


def fit_fdm(smoothed: SmoothedSurface, K: int = 4) -> FdmModel:
    """Extract the top K components of a smoothed surface by SVD.

    Sign convention: each phi_k is flipped so it sums positive (falling
    back to a positive dominant element when the sum is near zero), so
    repeated fits agree and the first component reads as the common
    mortality-decline shape.
    """
    K = int(K)
    F = smoothed.log_rates
    n_ages, n_years = F.shape
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > min(n_ages, n_years) - 1:
        raise ValueError(
            f"K={K} too large for a {n_ages} x {n_years} surface; "
            f"maximum is {min(n_ages, n_years) - 1}"
        )
    mu = F.mean(axis=1)
    C = F - mu[:, None]
    svd = svd_thin(C)
    s = svd.singular_values
    total = float(np.sum(s**2))

    phi = np.empty((n_ages, K))
    beta = np.empty((n_years, K))
    for k in range(K):
        u_k = svd.left_vectors[:, k]
        b_k = s[k] * svd.right_vectors[:, k]
        column_sum = float(u_k.sum())
        if abs(column_sum) > 1e-10:
            flip = column_sum < 0
        else:
            flip = u_k[int(np.argmax(np.abs(u_k)))] < 0
        if flip:
            u_k, b_k = -u_k, -b_k
        phi[:, k] = u_k
        beta[:, k] = b_k

    # absorb any float-level residual mean of each beta into mu so the
    # centering constraint holds tightly
    beta_means = beta.mean(axis=0)
    mu = mu + phi @ beta_means
    beta = beta - beta_means

    if s[0] <= 1e-12 * max(1.0, float(np.linalg.norm(F))):
        # no year-to-year variation beyond float noise: report the whole
        # (empty) variation as the first component instead of dividing
        # noise by noise
        beta = np.zeros_like(beta)
        shares = np.zeros(K)
        shares[0] = 1.0
    else:
        shares = s[:K] ** 2 / total

    fitted = mu[:, None] + phi @ beta.T
    model_errors = F - fitted
    v = (model_errors**2).mean(axis=1)

    return FdmModel(
        ages=smoothed.ages,
        years=smoothed.years,
        mu=mu,
        phi=phi,
        beta_series=beta,
        v=v,
        sigma2=smoothed.sigma2,
        explained_shares=shares,
        K=K,
        model_errors=model_errors,
        smoothed_log=F,
    )


def _coefficient_fits(model: FdmModel, ts_spec: TsSpec):
    return [fit_ts(model.beta_series[:, k], ts_spec) for k in range(model.K)]


def _forecast_from_fits(model: FdmModel, fits, horizon: int,
                        level: float) -> ForecastSurface:
    forecasts = [forecast_ts(fit, horizon) for fit in fits]
    beta_points = np.array([point for point, _ in forecasts])
    beta_vars = np.array([variance for _, variance in forecasts])
    point = model.mu[:, None] + model.phi @ beta_points
    variance = (
        model.sigma2_mu[:, None]
        + (model.phi**2) @ beta_vars
        + model.v[:, None]
        + model.sigma2[:, None]
    )
    lower, upper = interval_bounds(point, variance, level)
    years = model.years[-1] + np.arange(1, horizon + 1)
    return ForecastSurface(ages=model.ages, years=years, point=point,
                           variance=variance, lower=lower, upper=upper,
                           level=level)


def forecast_fdm(
    model: FdmModel,
    ts_spec: TsSpec = TsSpec(),
    horizon: int = 20,
    level: float = 95.0,
) -> ForecastSurface:
    """Forecast each coefficient series, recombine, and attach
    normal-theory intervals from the summed variance."""
    return _forecast_from_fits(model, _coefficient_fits(model, ts_spec),
                               int(horizon), level)


# Rows per age block of the bootstrap, at most. The ages are split into
# ceil(n/8) near-equal blocks rather than fixed 8-row ones: a 1-row block
# would send phi[block] @ curves[j] down BLAS's matrix-vector path, which
# rounds differently from the matrix-matrix path of the other blocks.
_BLOCK_ROWS = 8


def bootstrap_intervals(
    model: FdmModel,
    ts_spec: TsSpec = TsSpec(),
    horizon: int = 20,
    level: float = 95.0,
    B: int = 1000,
    seed: int = 0,
) -> ForecastSurface:
    """Empirical intervals from B simulated futures.

    Each replicate resamples coefficient-model innovation residuals to
    regenerate the beta paths, adds a whole resampled model-error curve
    per horizon (keeping the across-age error correlation), and Gaussian
    observational noise. All B replicates are drawn from one generator
    seeded with ``seed``: one draw per coefficient series, one for the
    model-error columns, then the noise, so equal seeds give identical
    bounds.

    The noise is drawn, accumulated and reduced to quantiles in blocks
    of ages, by the calling thread and one helper thread. Blocks draw
    their noise in age order under a lock, which yields the same values
    as one (ages, horizon, B) draw, so the bounds do not depend on which
    thread took which block.
    """
    horizon = int(horizon)
    if B < 100:
        raise ValueError(f"need at least 100 bootstrap replicates, got {B}")
    fits = _coefficient_fits(model, ts_spec)
    analytic = _forecast_from_fits(model, fits, horizon, level)
    n_ages = len(model.ages)
    n_years = len(model.years)
    sigma = np.sqrt(np.maximum(model.sigma2, 0.0))

    rng = np.random.default_rng(seed)
    curves = np.empty((horizon, model.K, B))
    for k, fit in enumerate(fits):
        picks = rng.integers(0, len(fit.residuals), size=(horizon, B))
        curves[:, k] = simulate_path(fit, horizon, fit.residuals[picks])
    error_cols = rng.integers(0, n_years, size=(horizon, B))

    alpha = 1.0 - level / 100.0
    probs = [alpha / 2.0, 1.0 - alpha / 2.0]
    n_blocks = -(-n_ages // _BLOCK_ROWS)
    edges = [i * n_ages // n_blocks for i in range(n_blocks + 1)]
    pending = [(edges[i], edges[i + 1]) for i in reversed(range(n_blocks))]
    bounds = np.empty((2, n_ages, horizon))
    lock = threading.Lock()

    def work():
        # only numpy runs here, no public function of the package: the
        # layer trace in bench/ keeps one span stack, for the caller's
        # thread. On failure the other worker is left no further block.
        buf = np.empty((-(-n_ages // n_blocks), horizon, B))
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    a, b = pending.pop()
                    # replicates on the last axis, so the quantiles run
                    # over contiguous memory
                    samples = rng.standard_normal(out=buf[:b - a])
                samples *= sigma[a:b, None, None]
                samples += model.mu[a:b, None, None]
                for j in range(horizon):
                    samples[:, j] += model.phi[a:b] @ curves[j]
                    samples[:, j] += model.model_errors[a:b, error_cols[j]]
                bounds[:, a:b] = np.quantile(samples, probs, axis=-1,
                                             overwrite_input=True)
        except BaseException:
            with lock:
                pending.clear()
            raise

    helper_failure = []

    def helper():
        try:
            work()
        except BaseException as exc:
            helper_failure.append(exc)

    thread = threading.Thread(target=helper, name="fdm-bootstrap")
    thread.start()
    try:
        work()
    finally:
        thread.join()
    if helper_failure:
        raise helper_failure[0]

    # the analytic point forecast is the reported center; widen the
    # empirical bounds minimally if sampling noise left it outside
    lower = np.minimum(bounds[0], analytic.point)
    upper = np.maximum(bounds[1], analytic.point)
    return ForecastSurface(ages=model.ages, years=analytic.years,
                           point=analytic.point, variance=analytic.variance,
                           lower=lower, upper=upper, level=level)
