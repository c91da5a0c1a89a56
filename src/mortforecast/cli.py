"""Command-line front end: ingest -> fit -> forecast -> evaluate.

Artifacts (CSV, JSON, SVG) land under --output with stable names, and a
given config + data + seed always produces byte-identical files. Exit
status 0 means success, 1 a computation failure, 2 a usage or I/O
problem (``UsageError``, ``OSError``) or settings the data cannot
support. Those settings raise one exception family, ``SettingsError``,
from the module whose rule they break: a --ts AR model whose lag
regression the data leave singular, and forecast rates past float range
(its subclass ``E0RangeError``, which gets a hint), included. Every
artifact is computed before any is written, so a failed run creates and
changes nothing. Files in --output that are not this run's artifacts are
left alone, each artifact is replaced whole, and a failed write exits 2.

Each ``main`` call runs on one BLAS thread: the OpenBLAS that numpy
bundles is set to one thread for the call and restored after it,
unless the user set OPENBLAS_NUM_THREADS or OMP_NUM_THREADS. Run as
``python -m mortforecast.cli``, this module first sets the BLAS thread
variables the user left unset to 1, before numpy loads, as the
``mortforecast`` script does; imported, it leaves them alone.
"""

from __future__ import annotations

if __name__ == "__main__":  # before numpy loads BLAS, which reads its count once
    from . import _one_blas_thread_by_default

    _one_blas_thread_by_default()

import argparse
import contextlib
import ctypes
import functools
import glob
import json
import os
import sys
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import _OPENBLAS_VARIABLES
from .evaluate import (
    BOOTSTRAPPED_MODELS,
    MODELS,
    ErrorReport,
    error_metrics,
    fit_models,
    forecast_model,
    residual_diagnostics,
    run_backtest,
    valid_models,
)
from .fdm import LEVEL_RANGE, MIN_REPLICATES, valid_level
from .ingest import (
    GENDERS,
    MortalitySurface,
    build_surface,
    parse_hmd_rates,
    valid_window,
)
from .lifetable import E0RangeError, rates_to_lifetable
from .numerics import SettingsError
from .smoothing import SmoothConfig, valid_lam
from .svgchart import render_line_chart
from .tsforecast import MIN_HORIZON, TsSpec

__all__ = ["main", "DATA_ENV"]

DATA_ENV = "MORTFORECAST_DATA"
SCHEMA_VERSION = 3
_DATA_BASENAMES = ("Mx_1x1.txt", "ITA.Mx_1x1.txt")


class UsageError(Exception):
    """Bad flags, windows, or input files; maps to exit status 2."""


def _flag_type(expects: str, convert: Callable,
               accept: Callable = lambda value: True) -> Callable:
    """A ``type=`` converter: ``convert`` the flag's text and keep the
    result if ``accept`` holds. Otherwise argparse prints the usage line
    and ``argument --flag: expects ...``, and exits 2."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {expects}, got {text!r}")

    return parse


def _names(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())


_window = _flag_type("A:B (inclusive), integers with A <= B",
                     lambda text: tuple(map(int, text.split(":"))), valid_window)
_models = _flag_type("a comma list of distinct names from " + ",".join(MODELS), _names,
                     valid_models)
_formats = _flag_type("a comma subset of csv,json,svg",
                      lambda text: frozenset(_names(text)),
                      lambda names: names and names <= {"csv", "json", "svg"})
_ts_spec = _flag_type(TsSpec.RULE, TsSpec.parse)
_level = _flag_type("a number in ({:g}, {:g})".format(*LEVEL_RANGE), float, valid_level)
_lam = _flag_type("'auto' or a finite number >= 0",
                  lambda text: "auto" if text.strip().lower() == "auto" else float(text),
                  valid_lam)
_monotone_from = _flag_type(
    "an age or 'none'", lambda text: None if text.strip().lower() == "none" else int(text))
_bootstrap = _flag_type(f"0 or at least {MIN_REPLICATES} replicates", int,
                        lambda b: b == 0 or b >= MIN_REPLICATES)
_seed = _flag_type("a nonnegative integer", int, lambda seed: seed >= 0)
_horizon = _flag_type(f"an integer >= {MIN_HORIZON}", int, lambda h: h >= MIN_HORIZON)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False here and on each command: a flag is read only as
    # spelled in full, so --boot is not --bootstrap
    parser = argparse.ArgumentParser(
        prog="mortforecast",
        description="Fit, forecast, and backtest stochastic mortality models "
                    "on age-by-year death rate surfaces.",
        allow_abbrev=False,
    )
    # one parent per flag group; a command's groups in _COMMANDS also tell main
    # whether to build a SmoothConfig
    group = {name: argparse.ArgumentParser(add_help=False) for name in
             ("data", "windows", "year", "models", "forecast", "horizon", "output")}
    data, windows, year, models, forecast, horizon, output = group.values()
    data.add_argument("--data", help="rates file (Mx_1x1 layout) or a directory "
                      f"containing one; falls back to ${DATA_ENV}")
    data.add_argument("--gender", choices=GENDERS, default="total")
    data.add_argument("--ages", type=_window, default=(0, 100), help="age window A:B inclusive")
    data.add_argument("--years", type=_window, default=None, help="year window A:B "
                      "inclusive (default: everything in the file)")
    windows.add_argument("--train", type=_window, required=True, help="train years A:B")
    windows.add_argument("--test", type=_window, required=True, help="test years A:B")
    year.add_argument("--year", type=int, required=True)
    models.add_argument("-K", "--components", type=int, default=4,
                        help="number of basis functions for fdm")
    models.add_argument("--num-basis", type=int, default=None, help="spline basis size per curve")
    models.add_argument("--lam", type=_lam, default="auto",
                        help="smoothing penalty weight, or 'auto' for GCV")
    models.add_argument("--monotone-from", type=_monotone_from, default=65,
                        help="age from which smoothed curves are forced "
                        "nondecreasing, or 'none'")
    forecast.add_argument("--ts", type=_ts_spec, default=TsSpec(), help="time-series "
                          "spec: ar:p,d[,drift], AR(p) on d-th differences; rwd, the "
                          "default random walk with drift, is ar:0,1,drift")
    forecast.add_argument("--level", type=_level, default=95.0,
                          help="two-sided interval level in percent")
    forecast.add_argument("--bootstrap", type=_bootstrap, default=0,
                          help=f"bootstrap replicates for {','.join(BOOTSTRAPPED_MODELS)} "
                          "intervals (0 = analytic)")
    forecast.add_argument("--seed", type=_seed, default=0)
    horizon.add_argument("--horizon", type=_horizon, default=20)
    output.add_argument("--output", default=".", help="artifact directory")
    output.add_argument("--formats", type=_formats, default=frozenset({"csv", "json", "svg"}),
                        help="comma subset of csv,json,svg")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, default, groups) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[group[g] for g in groups], help=help_text,
                                 allow_abbrev=False)
        if "models" in groups:
            # not on the models parent: subparsers share a parent's actions,
            # so a per-command default set there would hold for every command
            command.add_argument("--models", "--model", type=_models, default=default,
                                 help="comma list from " + ",".join(MODELS))
    return parser


# ---------------------------------------------------------------------------
# data loading


def _resolve_data_path(args: argparse.Namespace) -> str:
    candidate = args.data or os.environ.get(DATA_ENV)
    if candidate is None:
        raise UsageError(
            f"no data source: pass --data or set ${DATA_ENV} to a rates "
            "file or directory"
        )
    if os.path.isdir(candidate):
        for base in _DATA_BASENAMES:
            path = os.path.join(candidate, base)
            if os.path.isfile(path):
                return path
        raise UsageError(
            f"no rates file found in {candidate!r} (looked for "
            f"{' or '.join(_DATA_BASENAMES)})"
        )
    if not os.path.isfile(candidate):
        raise UsageError(f"data file not found: {candidate}")
    return candidate


def load_surface(args: argparse.Namespace) -> MortalitySurface:
    path = _resolve_data_path(args)
    try:
        with open(path, encoding="utf-8") as fh:
            table = parse_hmd_rates(fh)
        year_min, year_max = args.years or (int(table.year.min()), int(table.year.max()))
        return build_surface(table, args.gender, *args.ages, year_min, year_max)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # HmdParseError, or a window the table cannot cover
        raise UsageError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# artifact helpers


def _text(column) -> Iterable[str]:
    """A column's cells: floats as ``repr``, ints and labels as ``str``."""
    values = np.asarray(column)
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _rows(header: str, *cells: Iterable[str]) -> str:
    """One row per position of the already formatted cell columns."""
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _csv(header: str, *columns) -> str:
    """One row per position of the columns, each formatted as a whole."""
    return _rows(header, *map(_text, columns))


def _long_csv(ages, years, **columns) -> str:
    """One ``age,year,<columns>`` row per cell of age-by-year arrays,
    years outermost. Each age and year is formatted once, then repeated."""
    age_text, year_text = [*_text(ages)], [*_text(years)]
    return _rows(",".join(["age", "year", *columns]), age_text * len(year_text),
                 [year for year in year_text for _ in age_text],
                 *(_text(c.ravel(order="F")) for c in columns.values()))


def _table_files(tables: list) -> dict:
    """The one table writer. Each table is (CSV name, index name, index,
    columns, chart): one column per (CSV header, chart label, values), and
    a chart (file name, y label, title) of every column against the index,
    unless it is None."""
    files = {}
    for csv, index_name, index, columns, chart in tables:
        files[csv] = _csv(",".join([index_name, *(c[0] for c in columns)]),
                          index, *(c[2] for c in columns))
        if chart is not None:
            svg, ylabel, title = chart
            files[svg] = render_line_chart(
                [(label, index, values) for _, label, values in columns],
                index_name, ylabel, title=title)
    return files


def _summary_json(args: argparse.Namespace, summary: dict) -> str:
    obj = {"command": args.command, "gender": args.gender,
           "schema_version": SCHEMA_VERSION, **summary}
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _commit(output: str, files: dict) -> None:
    """Write each (name, text) of ``files`` into ``output``.

    Every text goes to ``.<name>.partial`` first; only when all are
    staged is each renamed over its artifact, so an artifact is replaced
    whole and a failed staging write changes no earlier file. Staged
    files that were not renamed are removed. Plain ``open`` rather than
    ``mkstemp``, whose 0600 mode the rename would carry onto the artifact.
    """
    os.makedirs(output, exist_ok=True)
    staged: dict = {}  # partial path -> artifact path
    try:
        for name, text in files.items():
            partial = os.path.join(output, f".{name}.partial")
            with open(partial, "w", encoding="utf-8") as fh:
                staged[partial] = os.path.join(output, name)
                fh.write(text)
        for partial, target in list(staged.items()):
            os.replace(partial, target)
            del staged[partial]
    finally:
        for partial in staged:
            with contextlib.suppress(OSError):
                os.remove(partial)


# ---------------------------------------------------------------------------
# per-model artifacts


def _lc_params(name: str, m) -> list:
    return [(f"{name}_{part}.csv", index_name, index, [("value", part, values)],
             (f"fig3_{name}_{part}.svg", ylabel, f"{name}: {title}"))
            for part, index_name, index, values, ylabel, title in (
                ("alpha", "age", m.ages, m.center, "log rate", "level by age"),
                ("beta", "age", m.ages, m.basis[:, 0], "sensitivity",
                 "age response to the period index"),
                ("kappa", "year", m.years, m.coefficients[:, 0], "index", "period index"))]


def _fdm_params(name: str, m) -> list:
    phi = [(f"phi{k + 1}", f"phi{k + 1}", m.basis[:, k]) for k in range(m.K)]
    beta = [(f"beta{k + 1}", f"beta{k + 1}", m.coefficients[:, k]) for k in range(m.K)]
    return [
        (f"{name}_mu.csv", "age", m.ages, [("value", "mu", m.center)],
         (f"fig4_{name}_mu.svg", "log rate", f"{name}: mean curve")),
        (f"{name}_phi.csv", "age", m.ages, phi,
         (f"fig4_{name}_phi.svg", "basis value", f"{name}: age basis functions")),
        (f"{name}_beta.csv", "year", m.years, beta,
         (f"fig4_{name}_beta.svg", "coefficient", f"{name}: coefficient series")),
        (f"{name}_variances.csv", "age", m.ages,
         [("model_error", None, m.v), ("observational", None, m.sigma2)], None),
    ]


def _lc_fields(m) -> dict:
    return {"explained_variance": float(m.explained_shares[0]),
            "explained_variance_rss": m.explained_rss}


def _fdm_fields(m) -> dict:
    return {"explained_shares": m.explained_shares.tolist(), "K": m.K}


# Model name -> (parameter writer, fit's summary fields, the one of those
# fields that compare reports, compare's average table). fit diagnoses
# each model's residuals, compare observed minus fitted log rates. No
# model's residual mean is t-tested: Lee-Carter's alpha and fdm's mu are
# each age's row mean, and kappa and each beta are centred, so fit's
# residuals sum to zero by construction and compare's to within what
# smoothing moves the mean, and the statistic would be noise.
_ARTIFACTS = {
    "lc": (_lc_params, _lc_fields, "explained_variance", "table1.csv"),
    "lcs": (_lc_params, _lc_fields, "explained_variance", "table1.csv"),
    "fdm": (_fdm_params, _fdm_fields, "explained_shares", "table2.csv"),
}
_ERROR_FIG = {"lc": "fig9", "lcs": "fig10", "fdm": "fig11"}


# ---------------------------------------------------------------------------
# commands: each returns the summary.json fields and an ordered map from
# artifact name to its text, and writes nothing


def cmd_fit(args: argparse.Namespace, surface: MortalitySurface,
           smooth: SmoothConfig) -> tuple[dict, dict]:
    summary: dict = {
        "ages": list(args.ages),
        "years": [int(surface.years[0]), int(surface.years[-1])],
        "models": {},
    }
    files: dict = {}
    fitted = fit_models(surface, args.models, smooth, args.components)
    for name, model in fitted.items():
        params, fields, _, _ = _ARTIFACTS[name]
        summary["models"][name] = {**fields(model), **residual_diagnostics(model.residuals)}
        files.update(_table_files(params(name, model)))
    return summary, files


def cmd_forecast(args: argparse.Namespace, surface: MortalitySurface,
                smooth: SmoothConfig) -> tuple[dict, dict]:
    summary: dict = {
        "horizon": args.horizon,
        "level": args.level,
        "models": {},
    }
    files: dict = {}
    fitted = fit_models(surface, args.models, smooth, args.components)
    for name, model in fitted.items():
        forecast, path = forecast_model(model, args.ts, args.horizon, args.level,
                                        args.bootstrap, args.seed)
        files[f"forecast_{name}.csv"] = _long_csv(
            forecast.ages, forecast.years, point=forecast.point,
            variance=forecast.variance, lower=forecast.lower, upper=forecast.upper)
        files[f"fig_forecast_{name}.svg"] = render_line_chart(
            [(f"year {int(surface.years[-1])} observed", surface.ages,
              surface.log_rates[:, -1]),
             (f"year {int(forecast.years[0])}", forecast.ages, forecast.point[:, 0]),
             (f"year {int(forecast.years[-1])}", forecast.ages, forecast.point[:, -1])],
            "age", "log death rate", title=f"{name}: projected rates")
        entry: dict = {"years": forecast.years.tolist()}
        if path is not None:
            parts = ("point", "lower", "upper")
            entry["e0"] = {part: getattr(path, part).tolist() for part in parts}
            files.update(_table_files([(
                f"e0_{name}.csv", "year", path.years,
                [(part, part, getattr(path, part)) for part in parts],
                (f"fig_e0_{name}.svg", "life expectancy at birth", f"{name}: projected e0"))]))
        if args.bootstrap and name in BOOTSTRAPPED_MODELS:
            entry["bootstrap"] = {"B": args.bootstrap, "seed": args.seed}
        summary["models"][name] = entry
    return summary, files


def cmd_backtest(args: argparse.Namespace, surface: MortalitySurface,
                smooth: SmoothConfig) -> tuple[dict, dict]:
    report = run_backtest(surface, args.models, args.train, args.test, args.ts, args.level,
                          smooth, args.components, args.bootstrap, args.seed)
    summary: dict = {
        "train": list(report.train_years),
        "test": list(report.test_years),
        "level": args.level,
        "models": {},
        "e0_interval_note": "e0 bounds are pointwise envelopes of the mortality "
                            "interval, not joint intervals",
    }
    files: dict = {}

    years, mid = report.years, len(report.years) // 2
    for name in args.models:
        entry = report.models[name]
        summary["models"][name] = {
            "e0_error_mean": entry.e0_error_mean,
            "e0_error_variance": entry.e0_error_variance,
        }
        files[f"errors_{name}.csv"] = _long_csv(entry.forecast.ages, entry.forecast.years,
                                                error=entry.errors)
        files[f"{_ERROR_FIG[name]}_errors_{name}.svg"] = render_line_chart(
            [(f"year {int(years[j])}", report.ages, entry.errors[:, j])
             for j in (0, mid, -1)],
            "age", "log-rate error", title=f"{name}: forecast errors")

    tables = [(f"{fig}_{stat}_error_by_age.csv", "age", report.ages,
               [(m, m, getattr(report.models[m], f"{stat}_error_by_age"))
                for m in args.models], (f"{fig}.svg", ylabel, title))
              for fig, stat, ylabel, title in (
                  ("fig12", "mean", "mean error", "mean forecast error by age"),
                  ("fig13", "sd", "error sd", "standard deviation of forecast error by age"))]
    fan = [("observed", "observed", report.e0_observed)]
    fan += [(f"{m}_{part}", f"{m} {part}", getattr(report.models[m].e0_interval, part))
            for m in args.models for part in ("point", "lower", "upper")]
    tables.append(("fig14_e0_fan.csv", "year", years, fan,
                   ("fig14.svg", "life expectancy at birth", "e0: observed vs projected")))
    files.update(_table_files(tables))
    return summary, files


def cmd_lifetable(args: argparse.Namespace, surface: MortalitySurface,
                 smooth: Optional[SmoothConfig]) -> tuple[dict, dict]:
    table = rates_to_lifetable(surface.year_column(args.year), ages=surface.ages)
    files = {
        "lifetable.csv": _csv("age,qx,lx,Lx", [*_text(table.ages), "e0"],
                              np.append(table.qx, table.e0), [*_text(table.lx), ""],
                              [*_text(table.Lx), ""]),
        "fig_survival.svg": render_line_chart(
            [("lx", table.ages, table.lx)], "age", "survivors",
            title=f"survival curve, {args.gender} {args.year}"),
    }
    return {"year": args.year, "e0": table.e0}, files


def cmd_compare(args: argparse.Namespace, surface: MortalitySurface,
               smooth: SmoothConfig) -> tuple[dict, dict]:
    summary: dict = {
        "years": [int(surface.years[0]), int(surface.years[-1])],
        "models": {},
        "metrics_note": "errors on the log-rate scale; the across-years row "
                        "averages per-year metrics under the same convention "
                        "as the across-ages row",
    }
    files: dict = {}
    metrics = ("me", "mse", "mpe", "mape")
    reports: dict[str, ErrorReport] = {}
    fitted = fit_models(surface, args.models, smooth, args.components)
    for name, model in fitted.items():
        fitted_log = model.fitted_log_rates()
        rep = reports[name] = error_metrics(surface, fitted_log)
        _, fields, field, _ = _ARTIFACTS[name]
        entry = {
            "avg_across_ages": dict(zip(metrics, rep.avg_across_ages)),
            "avg_across_years": dict(zip(metrics, rep.avg_across_years)),
            "excluded_cells": rep.excluded_cells,
            field: fields(model)[field],
        }
        entry.update(residual_diagnostics(surface.log_rates - fitted_log))
        summary["models"][name] = entry
        files.update(_table_files([
            (f"metrics_{name}_by_{by}.csv", by, table.index,
             [(m, None, getattr(table, m)) for m in metrics], None)
            for by, table in (("age", rep.by_age), ("year", rep.by_year))]))

    for table in ("table1.csv", "table2.csv"):
        rows = [(name, f"across_{by}", *avg)
                for name, (_, _, _, model_table) in _ARTIFACTS.items()
                if name in reports and model_table == table
                for by, avg in (("ages", reports[name].avg_across_ages),
                                ("years", reports[name].avg_across_years))]
        if rows:
            files[table] = _csv("model,aggregation,me,mse,mpe,mape", *zip(*rows))
    return summary, files


# Command -> (help, run, --models default, the flag groups it reads)
_COMMANDS = {
    "fit": ("fit models and write parameters + diagnostics", cmd_fit, ("lc",),
            ("data", "models", "output")),
    "forecast": ("fit then project forward", cmd_forecast, MODELS,
                 ("data", "models", "forecast", "horizon", "output")),
    "backtest": ("train/test split evaluation", cmd_backtest, MODELS,
                 ("data", "windows", "models", "forecast", "output")),
    "lifetable": ("period life table for one year", cmd_lifetable, None,
                  ("data", "year", "output")),
    "compare": ("in-sample error tables for several models", cmd_compare, ("lc", "fdm"),
                ("data", "models", "output")),
}
_PARSER = build_parser()


# BLAS threads. numpy's bundled OpenBLAS names its thread-count functions
# with one of these patterns: the scipy-openblas build that current numpy
# wheels bundle, then older wheels'.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")
_blas_lock = threading.Lock()
_blas_saved: list = []  # (setter, thread count before the first run in)
_blas_runs = 0


@functools.cache
def _openblas_threads() -> dict:
    """Library path -> (get, set) thread-count functions, for each OpenBLAS
    that the numpy wheel bundles (in ``numpy.libs``, or in
    ``numpy/.dylibs`` on macOS), looked up once per process. Empty under
    any other BLAS."""
    found = {}
    root = os.path.dirname(np.__file__)
    for libs in (f"{root}.libs", os.path.join(root, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for pattern in _OPENBLAS_SYMBOLS:
                if hasattr(lib, pattern.format("set")):
                    get_threads = getattr(lib, pattern.format("get"))
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads = getattr(lib, pattern.format("set"))
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    found[path] = get_threads, set_threads
                    break
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread.

    Every matrix here is small, and an idle OpenBLAS pool busy-waits for
    about 0.1 s after each threaded call, on the cores that the fdm
    bootstrap's two workers need. The first run in saves each library's
    count and the last run out restores it, so overlapping runs in
    several threads leave the host's setting as they found it. A thread
    variable the user set wins: then nothing changes.
    """
    global _blas_runs
    with _blas_lock:
        if _blas_runs == 0 and not any(name in os.environ for name in _OPENBLAS_VARIABLES):
            _blas_saved[:] = [(set_threads, get_threads())
                              for get_threads, set_threads in _openblas_threads().values()]
            for set_threads, _ in _blas_saved:
                set_threads(1)
        _blas_runs += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_runs -= 1
            if _blas_runs == 0:
                for set_threads, count in _blas_saved:
                    set_threads(count)
                _blas_saved.clear()


def main(argv: Optional[Sequence[str]] = None) -> int:
    with _one_blas_thread():
        return _run(argv)


def _run(argv: Optional[Sequence[str]]) -> int:
    args = _PARSER.parse_args(argv)
    _, run, _, groups = _COMMANDS[args.command]
    smooth = SmoothConfig(num_basis=args.num_basis, lam=args.lam,
                          monotone_from=args.monotone_from) if "models" in groups else None
    try:
        if os.path.exists(args.output) and not os.path.isdir(args.output):
            raise UsageError(f"--output {args.output} exists and is not a directory")
        surface = load_surface(args)
        summary, files = run(args, surface, smooth)
        files["summary.json"] = _summary_json(args, summary)
        _commit(args.output, {name: text for name, text in files.items()
                              if name.rsplit(".", 1)[-1] in args.formats})
        return 0
    except E0RangeError as exc:  # "<model>: from <year> ..."
        if "horizon" in groups:
            hint = f"--horizon {args.horizon} is too long for {exc}; use a shorter --horizon"
        else:
            (a, b), (c, d) = args.test, args.train
            hint = (f"--test {a}:{b} is too far past --train {c}:{d} for {exc}; "
                    "use a --test window nearer the train window")
        print(f"error: {hint}", file=sys.stderr)
        return 2
    except (UsageError, SettingsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory ({exc}); lower --bootstrap or --horizon",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
