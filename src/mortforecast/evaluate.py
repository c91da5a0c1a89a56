"""The fit and forecast path every command shares, fit metrics, residual
diagnostics, and the backtesting harness.

All error measures live on the log-rate scale, where the models are
linear and the reported magnitudes make sense. The error sign convention
is observed minus forecast, so a model that underestimates life
expectancy produces a negative mean e0 error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fdm import FittedModel, ForecastSurface, bootstrap_intervals, fit_fdm, forecast_fdm
from .ingest import MortalitySurface, slice_window
from .leecarter import fit_lc, fit_lcs
from .lifetable import E0Path, _lifetables, check_starts_at_birth, e0_path, starts_at_birth
from .numerics import SettingsError, normal_quantile
from .smoothing import SmoothConfig, smooth_surface
from .tsforecast import TsSpec

__all__ = [
    "MODELS",
    "BOOTSTRAPPED_MODELS",
    "MetricTable",
    "ErrorReport",
    "ModelBacktest",
    "BacktestReport",
    "error_metrics",
    "standardize_residuals",
    "normality_test",
    "residual_diagnostics",
    "fit_models",
    "forecast_model",
    "run_backtest",
]

MODELS = ("lc", "lcs", "fdm")
# The models whose intervals a nonzero bootstrap replaces; the Lee-Carter
# variants keep their analytic intervals.
BOOTSTRAPPED_MODELS = ("fdm",)
# Shortest windows a backtest accepts: lc, lcs and the default random walk
# with drift need three train years, and the error variances two test years.
_MIN_TRAIN_YEARS = 3
_MIN_TEST_YEARS = 2
NORMALITY_MAX_N = 5000  # the largest n Royston's normality approximation is calibrated for


def valid_models(names: Sequence[str]) -> bool:
    """One or more distinct names from MODELS, as fit_models and --models take."""
    return 0 < len(names) == len(set(names)) and set(names) <= set(MODELS)


@dataclass(frozen=True)
class MetricTable:
    """ME/MSE/MPE/MAPE indexed by age or by year."""

    index: np.ndarray
    me: np.ndarray
    mse: np.ndarray
    mpe: np.ndarray
    mape: np.ndarray


@dataclass(frozen=True)
class ErrorReport:
    by_age: MetricTable
    by_year: MetricTable
    avg_across_ages: tuple
    avg_across_years: tuple
    excluded_cells: int


def _metrics_along(e: np.ndarray, ratio: np.ndarray, valid: np.ndarray,
                   axis: int, index: np.ndarray) -> MetricTable:
    counts = valid.sum(axis=axis)
    with np.errstate(invalid="ignore"):
        mpe = np.where(counts > 0,
                       np.where(valid, ratio, 0.0).sum(axis=axis) / np.maximum(counts, 1),
                       np.nan)
        mape = np.where(counts > 0,
                        np.where(valid, np.abs(ratio), 0.0).sum(axis=axis) / np.maximum(counts, 1),
                        np.nan)
    return MetricTable(index=index.copy(), me=e.mean(axis=axis),
                       mse=(e**2).mean(axis=axis), mpe=mpe, mape=mape)


def error_metrics(observed: MortalitySurface, fitted_log: np.ndarray) -> ErrorReport:
    """Compare fitted log rates against an observed surface.

    e = ln m - fitted. Percentage errors divide by ln m; cells where
    ln m is exactly zero are left out of MPE/MAPE and counted in
    ``excluded_cells``. The grand rows average the per-age and per-year
    tables respectively.
    """
    fitted_log = np.asarray(fitted_log, dtype=float)
    Y = observed.log_rates
    if fitted_log.shape != Y.shape:
        raise ValueError(
            f"fitted shape {fitted_log.shape} does not match surface {Y.shape}"
        )
    e = Y - fitted_log
    valid = Y != 0.0
    ratio = np.zeros_like(e)
    np.divide(e, Y, out=ratio, where=valid)

    by_age = _metrics_along(e, ratio, valid, axis=1, index=observed.ages)
    by_year = _metrics_along(e, ratio, valid, axis=0, index=observed.years)

    def _avg(table: MetricTable) -> tuple:
        return (float(np.nanmean(table.me)), float(np.nanmean(table.mse)),
                float(np.nanmean(table.mpe)), float(np.nanmean(table.mape)))

    return ErrorReport(by_age=by_age, by_year=by_year,
                       avg_across_ages=_avg(by_age), avg_across_years=_avg(by_year),
                       excluded_cells=int(np.size(valid) - valid.sum()))


def standardize_residuals(residuals: np.ndarray) -> np.ndarray:
    """Flatten and divide by the overall standard deviation.

    The mean is not removed: the normality test of residual_diagnostics,
    the one use in the package, does not depend on location, and a test
    of a zero mean needs it kept. A zero-variance matrix is returned unscaled.
    """
    flat = np.asarray(residuals, dtype=float).ravel()
    sd = float(flat.std(ddof=1)) if len(flat) > 1 else 0.0
    if sd == 0.0:
        return flat.copy()
    return flat / sd


def _shapiro_weights(n: int) -> np.ndarray:
    """Approximate optimal normal order-statistic weights (AS R94)."""
    if n == 3:
        s = math.sqrt(0.5)
        return np.array([-s, 0.0, s])
    m = normal_quantile((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    msq = float(np.dot(m, m))
    c = m / math.sqrt(msq)
    u = 1.0 / math.sqrt(n)
    poly1 = np.array([-2.706056, 4.434685, -2.07119, -0.147981, 0.221157, 0.0])
    poly2 = np.array([-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0])
    a_n = c[-1] + np.polyval(poly1, u)
    a = np.empty(n)
    if n > 5:
        a_n1 = c[-2] + np.polyval(poly2, u)
        phi = (msq - 2 * m[-1] ** 2 - 2 * m[-2] ** 2) / (1 - 2 * a_n**2 - 2 * a_n1**2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-2], a[1] = a_n1, -a_n1
    else:
        phi = (msq - 2 * m[-1] ** 2) / (1 - 2 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
    a[-1], a[0] = a_n, -a_n
    return a


def normality_test(residuals) -> tuple[float, float]:
    """Shapiro-Wilk W with Royston's p-value approximation.

    Valid for 3 <= n <= NORMALITY_MAX_N finite values, not all equal.
    The p-value for n >= 12 uses the log-normal transform of 1-W; for
    4 <= n <= 11 the shifted-log transform; n = 3 has an exact expression.
    """
    x = np.sort(np.asarray(residuals, dtype=float).ravel())
    n = len(x)
    if n < 3 or n > NORMALITY_MAX_N:
        raise ValueError(f"normality test supports 3 <= n <= {NORMALITY_MAX_N}, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("sample contains non-finite values")
    ss = float(np.sum((x - x.mean()) ** 2))
    if x[0] == x[-1] or ss <= 0.0:
        raise ValueError("sample is constant; the statistic is undefined")
    a = _shapiro_weights(n)
    W = float(np.dot(a, x) ** 2 / ss)
    W = min(W, 1.0)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(W)) - math.asin(math.sqrt(0.75)))
        return W, float(min(max(p, 0.0), 1.0))
    one_minus = max(1.0 - W, 1e-15)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - math.log(one_minus)
        if arg <= 0:
            return W, 0.0
        y = -math.log(arg)
        mu = np.polyval([-0.0006714, 0.025054, -0.39978, 0.5440], n)
        sigma = math.exp(np.polyval([-0.0020322, 0.062767, -0.77857, 1.3822], n))
    else:
        y = math.log(one_minus)
        ln_n = math.log(n)
        mu = np.polyval([0.0038915, -0.083751, -0.31082, -1.5861], ln_n)
        sigma = math.exp(np.polyval([0.0030302, -0.082676, -0.4803], ln_n))
    z = (y - mu) / sigma
    return W, 0.5 * math.erfc(z / math.sqrt(2.0))


def residual_diagnostics(residuals) -> dict:
    """The residual count, and normality_test's W and p of the standardized
    residuals, or of an evenly spaced subsample of NORMALITY_MAX_N, where it applies."""
    std = standardize_residuals(residuals)
    out: dict = {"n_residuals": int(std.size)}
    subsampled = std.size > NORMALITY_MAX_N
    if subsampled:
        std = std[np.linspace(0, std.size - 1, NORMALITY_MAX_N).astype(int)]
    try:
        w, p = normality_test(std)
    except ValueError:  # fewer than 3 values, a non-finite one, or all equal
        return out
    out["normality"] = {"statistic": w, "p_value": p, "subsampled": subsampled}
    return out


@dataclass(frozen=True)
class ModelBacktest:
    """Out-of-sample results for one model over the test window."""

    forecast: ForecastSurface
    errors: np.ndarray  # observed minus forecast log rate, ages x test years
    mean_error_by_age: np.ndarray
    sd_error_by_age: np.ndarray
    e0_interval: E0Path
    e0_error_mean: float
    e0_error_variance: float


@dataclass(frozen=True)
class BacktestReport:
    train_years: tuple
    test_years: tuple
    ages: np.ndarray
    years: np.ndarray  # test years
    e0_observed: np.ndarray  # by test year
    models: Mapping[str, ModelBacktest]


def fit_models(
    surface: MortalitySurface,
    models: Sequence[str] = MODELS,
    smooth_config: SmoothConfig = SmoothConfig(),
    K: int = 4,
) -> dict[str, FittedModel]:
    """Fit each named model to one surface, in the order given.

    lcs and fdm share one smoothing of the surface, so it runs once
    whichever of them are asked for.
    """
    if not valid_models(models):
        raise ValueError(f"models must be one or more distinct names from {MODELS}, "
                         f"got {models}")
    smoothed = None
    if "lcs" in models or "fdm" in models:
        smoothed = smooth_surface(surface.log_rates, surface.ages, surface.years,
                                  smooth_config)
    fits = {"lc": lambda: fit_lc(surface), "lcs": lambda: fit_lcs(smoothed),
            "fdm": lambda: fit_fdm(smoothed, K)}
    return {name: fits[name]() for name in models}


def forecast_model(
    model: FittedModel,
    ts_spec: TsSpec = TsSpec(),
    horizon: int = 20,
    level: float = 95.0,
    bootstrap: int = 0,
    seed: int = 0,
    years: tuple | None = None,
) -> tuple[ForecastSurface, E0Path | None]:
    """Forecast one fitted model over ``years`` (first, last), or every
    horizon if None, with its e0 path, None unless the ages start at 0.
    Nonzero ``bootstrap`` simulates the intervals of BOOTSTRAPPED_MODELS.
    Every ``SettingsError`` the forecast raises, a singular or short AR
    fit or rates past float range (its ``E0RangeError``), is raised again
    with the model's name first; ``cli.main`` maps each to exit 2."""
    try:
        forecast = (bootstrap_intervals(model, ts_spec, horizon, level, B=bootstrap, seed=seed)
                    if bootstrap and model.name in BOOTSTRAPPED_MODELS
                    else forecast_fdm(model, ts_spec, horizon, level))
        if years is not None:
            forecast = forecast.slice_years(*years)
        return forecast, e0_path(forecast) if starts_at_birth(forecast.ages) else None
    except SettingsError as exc:
        raise type(exc)(f"{model.name}: {exc}") from None


def run_backtest(
    surface: MortalitySurface,
    models: Sequence[str],
    train: tuple,
    test: tuple,
    ts_spec: TsSpec = TsSpec(),
    level: float = 95.0,
    smooth_config: SmoothConfig = SmoothConfig(),
    K: int = 4,
    bootstrap: int = 0,
    seed: int = 0,
) -> BacktestReport:
    """Fit on the train window only, forecast across the test window,
    and score against what actually happened.

    Fitting never sees test-window rates: each model receives the
    train-window slice and nothing else. Life-expectancy errors use
    point mortality forecasts; the interval path is carried separately
    for fan charts, from ``bootstrap`` simulated futures when that is
    nonzero. Life tables cover only the test years; ``forecast_model``
    raises their ``E0RangeError``, a ``SettingsError`` like every rule
    here, which ``cli.main`` maps to exit 2.

    The window rules raise ``SettingsError`` before anything is fitted,
    the first broken one in this order: each window A <= B and inside the
    surface's years (train, then test), test after train, at least
    ``_MIN_TRAIN_YEARS`` and ``_MIN_TEST_YEARS`` years, and ages from 0.
    """
    train_start, train_end = int(train[0]), int(train[1])
    test_start, test_end = int(test[0]), int(test[1])
    train_surface = slice_window(surface, train_start, train_end, "train window")
    test_surface = slice_window(surface, test_start, test_end, "test window")
    if test_start <= train_end:
        raise SettingsError(f"test window {test_start}:{test_end} must start after the "
                            f"train window ends ({train_end})")
    for label, start, end, least in (("train", train_start, train_end, _MIN_TRAIN_YEARS),
                                     ("test", test_start, test_end, _MIN_TEST_YEARS)):
        if end - start + 1 < least:
            raise SettingsError(f"{label} window {start}:{end} spans {end - start + 1} "
                                f"year(s); a backtest needs at least {least}")
    check_starts_at_birth(surface.ages)
    observed_log = test_surface.log_rates
    horizon = test_end - train_end

    e0_observed = _lifetables(test_surface.rates.T)[3]

    results: dict[str, ModelBacktest] = {}
    fitted = fit_models(train_surface, models, smooth_config, K)
    for name, model in fitted.items():
        forecast, e0_interval = forecast_model(model, ts_spec, horizon, level, bootstrap,
                                               seed, (test_start, test_end))
        errors = observed_log - forecast.point
        e0_errors = e0_observed - e0_interval.point
        results[name] = ModelBacktest(
            forecast=forecast,
            errors=errors,
            mean_error_by_age=errors.mean(axis=1),
            sd_error_by_age=errors.std(axis=1, ddof=1),
            e0_interval=e0_interval,
            e0_error_mean=float(e0_errors.mean()),
            e0_error_variance=float(e0_errors.var(ddof=1)),
        )

    return BacktestReport(
        train_years=(train_start, train_end),
        test_years=(test_start, test_end),
        ages=surface.ages,
        years=test_surface.years,
        e0_observed=e0_observed,
        models=results,
    )
