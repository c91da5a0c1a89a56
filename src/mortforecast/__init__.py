"""Stochastic mortality modeling: Lee-Carter variants and the functional
demographic model, with forecasting, life tables, and backtesting."""

from .evaluate import fit_models, forecast_model, run_backtest
from .fdm import fit_fdm, forecast_fdm
from .ingest import build_surface, parse_hmd_rates
from .leecarter import fit_lc
from .lifetable import e0_path
from .smoothing import smooth_surface
from .tsforecast import TsSpec

__version__ = "0.1.0"

__all__ = [
    "build_surface", "parse_hmd_rates", "smooth_surface", "fit_lc", "fit_fdm",
    "forecast_fdm", "fit_models", "forecast_model", "run_backtest", "e0_path", "TsSpec",
    "__version__",
]
