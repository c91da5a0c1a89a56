"""Stochastic mortality modeling: Lee-Carter variants and the functional
demographic model, with forecasting, life tables, and backtesting."""

from .evaluate import (
    BacktestReport,
    ErrorReport,
    error_metrics,
    fit_models,
    forecast_model,
    normality_test,
    run_backtest,
    standardize_residuals,
    t_test_zero_mean,
)
from .fdm import FdmModel, ForecastSurface, bootstrap_intervals, fit_fdm, forecast_fdm
from .ingest import (
    MortalitySurface,
    RateRecord,
    RateTable,
    build_surface,
    parse_hmd_rates,
    slice_window,
)
from .leecarter import LcModel, fit_lc, fit_lcs, forecast_lc
from .lifetable import E0Path, LifeTable, e0_path, rates_to_lifetable
from .smoothing import SmoothConfig, enforce_monotone, smooth_curve, smooth_surface
from .svgchart import render_line_chart
from .tsforecast import TsFit, TsSpec, fit_ts, forecast_ts

__version__ = "0.1.0"

__all__ = [
    "BacktestReport", "ErrorReport", "error_metrics", "fit_models",
    "forecast_model", "normality_test", "run_backtest", "standardize_residuals", "t_test_zero_mean",
    "FdmModel", "ForecastSurface", "bootstrap_intervals", "fit_fdm",
    "forecast_fdm",
    "MortalitySurface", "RateRecord", "RateTable", "build_surface", "parse_hmd_rates",
    "slice_window",
    "LcModel", "fit_lc", "fit_lcs", "forecast_lc",
    "E0Path", "LifeTable", "e0_path", "rates_to_lifetable",
    "SmoothConfig", "enforce_monotone", "smooth_curve", "smooth_surface",
    "render_line_chart",
    "TsFit", "TsSpec", "fit_ts", "forecast_ts",
    "__version__",
]
