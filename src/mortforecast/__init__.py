"""Stochastic mortality modeling: Lee-Carter variants and the functional
demographic model, with forecasting, life tables, and backtesting.

The names in ``__all__`` load with their modules on first use, so
``import mortforecast`` does not load numpy. That leaves the
two command-line entries, the ``mortforecast`` script (``main`` here)
and ``python -m mortforecast.cli``, time to set BLAS to one thread
before numpy loads BLAS and BLAS starts its thread pool.
"""

import importlib
import os

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "build_surface": "ingest", "parse_hmd_rates": "ingest", "smooth_surface": "smoothing",
    "fit_lc": "leecarter", "fit_fdm": "fdm", "forecast_fdm": "fdm", "fit_models": "evaluate",
    "forecast_model": "evaluate", "run_backtest": "evaluate", "e0_path": "lifetable",
    "TsSpec": "tsforecast",
}

__all__ = [*_HOMES, "__version__"]

# The thread-count variables of the OpenBLAS that numpy bundles,
# which cli.main's one-thread scope defers to, and then MKL's.
_OPENBLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_BLAS_VARIABLES = (*_OPENBLAS_VARIABLES, "MKL_NUM_THREADS")


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


def _one_blas_thread_by_default():
    """Set each BLAS thread variable the user left unset to 1.

    Every matrix the package factors is small, at most about 111 ages by
    85 years, so BLAS threads only add start-up and hand-off cost. BLAS
    reads its count once, when numpy first loads it, so only a count set
    before that keeps its thread pool from starting and from spinning
    while the package imports. Both command-line entries call this
    before numpy loads; library imports leave BLAS's own default.
    """
    for name in _BLAS_VARIABLES:
        os.environ.setdefault(name, "1")


def main():
    """The ``mortforecast`` console script: the CLI with BLAS on one thread."""
    _one_blas_thread_by_default()
    from .cli import main as cli_main

    return cli_main()
