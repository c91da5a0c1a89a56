"""Functional demographic model: smooth curves, decompose, forecast.

The log-rate surface, smoothed year by year beforehand
(``smoothing.smooth_surface``), is centered on a mean curve mu(x) and
decomposed by SVD into K orthonormal age patterns phi_k with
coefficient time series beta_{t,k}. Forecasting the coefficients and
recombining gives point forecasts; the forecast variance adds four
pieces: mean-curve uncertainty, coefficient forecast variance through
phi_k^2, leftover model error v(x), and observational noise sigma2(x).

Every model of the package is a ``FittedModel``, Lee-Carter included as
the one-component case, and is forecast by ``forecast_fdm``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .ingest import year_columns
from .numerics import SettingsError, normal_quantile, svd_thin
from .smoothing import SmoothedSurface
from .tsforecast import TsSpec, fit_ts, forecast_ts, simulate_path

__all__ = [
    "FittedModel",
    "ForecastSurface",
    "fit_fdm",
    "forecast_fdm",
    "bootstrap_intervals",
]

# A forecast's two-sided interval level, in percent, lies strictly between these
LEVEL_RANGE = (50.0, 99.9)


def valid_level(level: float) -> bool:
    return LEVEL_RANGE[0] < level < LEVEL_RANGE[1]


def _check_level(level: float) -> None:
    if not valid_level(level):
        raise ValueError(f"level must be in ({LEVEL_RANGE[0]:g}, {LEVEL_RANGE[1]:g}), "
                         f"got {level}")


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
        _check_level(self.level)
        if np.any(self.variance < -1e-10):
            raise ValueError("negative forecast variance")
        object.__setattr__(self, "variance", np.maximum(self.variance, 0.0))
        if np.any(self.lower > self.point + 1e-9) or np.any(self.upper < self.point - 1e-9):
            raise ValueError("interval bounds must bracket the point forecast")

    def slice_years(self, first: int, last: int) -> "ForecastSurface":
        """The forecast for calendar years first..last (inclusive) only."""
        j = year_columns(self.years, first, last, f"window {first}:{last}")
        return ForecastSurface(ages=self.ages, years=self.years[j],
                               point=self.point[:, j],
                               variance=self.variance[:, j],
                               lower=self.lower[:, j],
                               upper=self.upper[:, j], level=self.level)


@dataclass(frozen=True)
class FittedModel:
    """Any fitted model: log rates = center + basis @ coefficients.T +
    residuals, with ``basis`` ages-by-K and ``coefficients`` years-by-K.

    ``name`` is the model: lc and lcs are Lee-Carter on raw and on
    smoothed log rates, the K = 1 case with center alpha, basis beta and
    coefficients kappa, and no model-error or observational-noise term
    (``v`` and ``sigma2`` are zero). fdm holds the mean curve mu, the
    orthonormal age patterns phi and their beta series; its residuals are
    the model errors on the smoothed surface, ``v`` their per-age mean
    square and ``sigma2`` the smoother's observational variance.
    ``explained_shares`` are the top K components' shares of the
    centered surface's squared singular values, and ``explained_rss`` is
    1 - RSS/TSS of the residuals against the centered surface.
    """

    name: str
    ages: np.ndarray
    years: np.ndarray
    center: np.ndarray
    basis: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    v: np.ndarray
    sigma2: np.ndarray
    explained_shares: np.ndarray
    explained_rss: float

    @property
    def K(self) -> int:
        return self.basis.shape[1]

    def fitted_log_rates(self) -> np.ndarray:
        return self.center[:, None] + self.basis @ self.coefficients.T


def _decompose(Y: np.ndarray, K: int):
    """The one SVD step of every model: center ``Y`` on its row means and
    take the top K singular triples of the centered surface.

    Returns (row mean, centered surface, singular values, U, V, shares,
    degenerate). U and V hold the top K left and right vectors, each pair
    flipped so the U column sums positive, or, when |sum| <= 1e-10, so
    its dominant element is positive. ``shares`` are s[:K]^2 / sum(s^2).
    ``degenerate`` flags a surface with no year-to-year variation beyond
    float noise (s_0 <= 1e-12 max(1, ||Y||)); its shares are [1, 0, ...].
    """
    mean = Y.mean(axis=1)
    centered = Y - mean[:, None]
    svd = svd_thin(centered)
    s = svd.singular_values
    U = svd.left_vectors[:, :K]
    column_sums = np.array([column.sum() for column in U.T])
    dominant = U[np.argmax(np.abs(U), axis=0), np.arange(K)]
    flip = np.where(np.abs(column_sums) > 1e-10, column_sums < 0, dominant < 0)
    signs = np.where(flip, -1.0, 1.0)
    degenerate = bool(s[0] <= 1e-12 * max(1.0, float(np.linalg.norm(Y))))
    shares = np.eye(K)[0] if degenerate else s[:K] ** 2 / float(np.sum(s**2))
    # C order, whatever svd_thin returns: the column means of beta, and so
    # mu, take their rounding from the layout
    U = np.ascontiguousarray(U * signs)
    V = np.ascontiguousarray(svd.right_vectors[:, :K] * signs)
    return mean, centered, s, U, V, shares, degenerate


def _explained_rss(residuals: np.ndarray, centered: np.ndarray, degenerate: bool) -> float:
    """1 - RSS/TSS of ``residuals`` against the ``centered`` surface; 1
    on a degenerate surface, whose whole (empty) variation a fit explains."""
    if degenerate:
        return 1.0
    return 1.0 - float(np.sum(residuals**2)) / float(np.sum(centered**2))


def fit_fdm(smoothed: SmoothedSurface, K: int = 4) -> FittedModel:
    """Extract the top K components of a smoothed surface by SVD.

    Sign convention: each phi_k is flipped so it sums positive (falling
    back to a positive dominant element when the sum is near zero), so
    repeated fits agree and the first component reads as the common
    mortality-decline shape.
    """
    K = int(K)
    F = smoothed.log_rates
    n_ages, n_years = F.shape
    largest = min(n_ages, n_years) - 1
    if not 1 <= K <= largest:
        raise SettingsError(f"fdm needs 1 <= K <= {largest} on a {n_ages} x {n_years} "
                            f"surface, got K = {K}")
    mu, centered, s, phi, V, shares, degenerate = _decompose(F, K)
    beta = s[:K] * V

    # absorb any float-level residual mean of each beta into mu so the
    # centering constraint holds tightly
    beta_means = beta.mean(axis=0)
    mu = mu + phi @ beta_means
    beta = beta - beta_means
    if degenerate:
        # no year-to-year variation beyond float noise: report the whole
        # (empty) variation as the first component instead of dividing
        # noise by noise
        beta = np.zeros_like(beta)

    model_errors = F - (mu[:, None] + phi @ beta.T)
    return FittedModel(
        name="fdm",
        ages=smoothed.ages,
        years=smoothed.years,
        center=mu,
        basis=phi,
        coefficients=beta,
        residuals=model_errors,
        v=(model_errors**2).mean(axis=1),
        sigma2=smoothed.sigma2,
        explained_shares=shares,
        explained_rss=_explained_rss(model_errors, centered, degenerate),
    )


def _recombine(model: FittedModel, fits, horizon: int, level: float) -> ForecastSurface:
    """The one forecast step of every model: forecast each coefficient
    series from its fit, then point = center + basis @ points and
    variance = basis^2 @ variances plus, in turn, the mean-curve variance
    v/n (v over the number of years averaged, the variance of a mean of
    n curve errors), the model error v and the observational noise
    sigma2, with symmetric normal-theory bounds at the two-sided
    percentage ``level``. The forecast years follow the fitted ones."""
    _check_level(level)  # before the level's quantile is taken
    forecasts = [forecast_ts(fit, horizon) for fit in fits]
    points = np.array([point for point, _ in forecasts])
    variances = np.array([variance for _, variance in forecasts])
    point = model.center[:, None] + model.basis @ points
    variance = (model.basis**2) @ variances
    for term in (model.v / len(model.years), model.v, model.sigma2):
        variance = variance + term[:, None]
    half = normal_quantile(0.5 + level / 200.0) * np.sqrt(np.maximum(variance, 0.0))
    return ForecastSurface(ages=model.ages, years=model.years[-1] + np.arange(1, horizon + 1),
                           point=point, variance=variance, lower=point - half,
                           upper=point + half, level=level)


def _coefficient_fits(model: FittedModel, ts_spec: TsSpec):
    return [fit_ts(model.coefficients[:, k], ts_spec) for k in range(model.K)]


def forecast_fdm(
    model: FittedModel,
    ts_spec: TsSpec = TsSpec(),
    horizon: int = 20,
    level: float = 95.0,
) -> ForecastSurface:
    """Forecast each coefficient series, recombine, and attach
    normal-theory intervals from the summed variance (``_recombine``).
    Serves every model: Lee-Carter's zero v and sigma2 leave kappa's
    forecast variance through beta^2 alone, the standard simplification
    that ignores estimation error in alpha and beta."""
    return _recombine(model, _coefficient_fits(model, ts_spec), int(horizon), level)


def _quantile_columns(n: int, probs) -> np.ndarray:
    """The columns of n sorted replicates that the ``probs`` quantiles
    need under ``np.quantile``'s default linear method: the order
    statistics floor((n-1)q) and the next one for each q, then the last
    column, where a NaN sorts. Needs 0 <= q < 1, so the next order
    statistic exists."""
    columns = []
    for q in probs:
        lo = math.floor((n - 1) * q)
        columns += [lo, lo + 1]
    return np.array(columns + [n - 1])


def _read_quantiles(stats: np.ndarray, n: int, probs, out: np.ndarray) -> None:
    """Each ``probs[k]`` quantile of n sorted replicates into ``out[k]``,
    from ``stats``, their ``_quantile_columns`` gathered on the last axis:
    the two order statistics are interpolated with numpy's own rule, so
    the result matches ``np.quantile`` bit for bit. A NaN in the last
    column, where it sorts, gives NaN, as there."""
    last = stats[..., -1]
    nan = np.isnan(last)
    for k, q in enumerate(probs):
        v = (n - 1) * q
        t = v - math.floor(v)
        a, b = stats[..., 2 * k], stats[..., 2 * k + 1]
        diff = b - a
        if t >= 0.5:
            np.subtract(b, diff * (1 - t), out=out[k])
        else:
            np.add(a, diff * t, out=out[k])
        np.copyto(out[k], last, where=nan)


# The fewest replicates bootstrap_intervals accepts; the CLI's --bootstrap
# takes this or more, or 0 for no bootstrap.
MIN_REPLICATES = 100

# Rows per age block of the bootstrap, at most. The ages are split into
# ceil(n/8) near-equal blocks rather than fixed 8-row ones: a 1-row block
# would send phi[block] @ curves[j] down BLAS's matrix-vector path, which
# rounds differently from the matrix-matrix path of the other blocks.
_BLOCK_ROWS = 8


def _block_noise(rng: np.random.Generator, sigma: np.ndarray, center: np.ndarray,
                 horizon: int, B: int) -> np.ndarray:
    """The observational noise of a block of ages, shifted by their
    center: z * sigma + center, in place, for one (rows, B + horizon - 1)
    draw z of standard normals. Horizon j's replicates read the columns
    j:j + B, so cell (i, j) reads the B distinct draws z[i, j:j + B], and
    replicate r's path at age i the horizon distinct draws
    z[i, r:r + horizon]."""
    z = rng.standard_normal((len(sigma), B + horizon - 1))
    z *= sigma[:, None]
    z += center[:, None]
    return z


def bootstrap_intervals(
    model: FittedModel,
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
    observational noise. The coefficient paths and the model-error
    columns are drawn from one generator seeded with ``seed``. The ages
    are split into blocks, and block i draws its noise from its own
    generator, seeded with child i of ``SeedSequence(seed).spawn``, so
    equal seeds give identical bounds.

    Each age's noise is one sequence z of B + horizon - 1 normals, scaled
    by sigma and shifted by the mean curve once per block
    (``_block_noise``); horizon j's replicates read z[:, j:j + B]. Each
    (age, horizon) cell thus reads B distinct iid draws, independent of
    its coefficient paths and model-error columns, so every pointwise
    bound has the law of fresh per-cell draws; each replicate's path
    reads distinct draws at every horizon and age, and each horizon's
    replicates are iid. Only replicates at different horizons share
    draws, and nothing here combines those.

    The calling thread and one helper thread take the age blocks in
    turn; a lock guards only the hand-out of blocks. Within a block the
    replicates are accumulated and sorted one horizon at a time, so each
    worker holds O(rows * B) memory whatever the horizon, beside the
    shared O(horizon * K * B) coefficient paths. Each horizon keeps only
    the five order statistics both bounds need (``_quantile_columns``),
    and once a block's horizons are done its bounds are interpolated from
    them as ``np.quantile``'s default linear method does, so the bounds
    do not depend on which thread took which block.
    """
    horizon = int(horizon)
    if B < MIN_REPLICATES:
        raise SettingsError(f"need at least {MIN_REPLICATES} bootstrap replicates, got {B}")
    fits = _coefficient_fits(model, ts_spec)
    analytic = _recombine(model, fits, horizon, level)
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
    columns = _quantile_columns(B, probs)
    n_blocks = -(-n_ages // _BLOCK_ROWS)
    edges = [i * n_ages // n_blocks for i in range(n_blocks + 1)]
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    pending = [(edges[i], edges[i + 1], children[i]) for i in reversed(range(n_blocks))]
    bounds = np.empty((2, n_ages, horizon))
    lock = threading.Lock()

    def work():
        # only numpy runs here, no public function of the package: the
        # layer trace in bench/ keeps one span stack, for the caller's
        # thread. On failure the other worker is left no further block.
        rows = -(-n_ages // n_blocks)
        sample_buf = np.empty((rows, B))
        term_buf = np.empty((rows, B))
        stats_buf = np.empty((rows, horizon, len(columns)))
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    a, b, child = pending.pop()
                # one horizon at a time, replicates on the last axis, so
                # each row sorts over contiguous memory
                samples, term, stats = sample_buf[:b - a], term_buf[:b - a], stats_buf[:b - a]
                z = _block_noise(np.random.default_rng(child), sigma[a:b],
                                 model.center[a:b], horizon, B)
                for j in range(horizon):
                    # basis @ curves + z is z + basis @ curves bit for bit;
                    # error_cols are in range, so "wrap" only skips the
                    # bounds check and the buffer that "raise" takes
                    np.matmul(model.basis[a:b], curves[j], out=samples)
                    samples += z[:, j:j + B]
                    samples += np.take(model.residuals[a:b], error_cols[j], axis=1, out=term,
                                       mode="wrap")
                    samples.sort(axis=-1)
                    np.take(samples, columns, axis=1, out=stats[:, j])
                _read_quantiles(stats, B, probs, out=bounds[:, a:b])
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
