"""Command-line front end: ingest -> fit -> forecast -> evaluate.

Artifacts (CSV, JSON, SVG) land under --output with stable names, and a
given config + data + seed always produces byte-identical files. Exit
status 0 means success, 1 a computation failure, 2 a usage or I/O
problem, including a --ts AR model whose lag regression the data leave
singular. Every artifact is computed before any is written, so a failed
run creates and changes nothing. Files in --output that are not this
run's artifacts are left alone, each artifact is replaced whole, and a
failed write exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .evaluate import (
    MODELS,
    ErrorReport,
    error_metrics,
    fit_models,
    forecast_model,
    normality_test,
    run_backtest,
    standardize_residuals,
)
from .ingest import (
    GENDERS,
    HmdParseError,
    MortalitySurface,
    build_surface,
    parse_hmd_rates,
)
from .lifetable import e0_path, rates_to_lifetable
from .smoothing import SmoothConfig
from .svgchart import render_line_chart
from .tsforecast import SingularLagError, TsSpec

__all__ = ["main", "DATA_ENV"]

DATA_ENV = "MORTFORECAST_DATA"
SCHEMA_VERSION = 3
_DATA_BASENAMES = ("Mx_1x1.txt", "ITA.Mx_1x1.txt")
_NORMALITY_CAP = 5000
# Shortest windows a backtest accepts: fit_lc needs three years, and the
# error variances need two test years.
_MIN_TRAIN_YEARS = 3
_MIN_TEST_YEARS = 2


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
                     lambda text: tuple(map(int, text.split(":"))),
                     lambda w: len(w) == 2 and w[0] <= w[1])
_models = _flag_type("a comma list from " + ",".join(MODELS), _names,
                     lambda names: names and set(names) <= set(MODELS))
_formats = _flag_type("a comma subset of csv,json,svg",
                      lambda text: frozenset(_names(text)),
                      lambda names: names and names <= {"csv", "json", "svg"})
_ts_spec = _flag_type("rwd or ar:p,d[,drift] with p >= 0 and d 0 or 1", TsSpec.parse)
_level = _flag_type("a number in (50, 99.9)", float, lambda level: 50.0 < level < 99.9)
_lam = _flag_type("'auto' or a finite number >= 0",
                  lambda text: "auto" if text.strip().lower() == "auto" else float(text),
                  lambda lam: lam == "auto" or 0.0 <= lam < math.inf)
_monotone_from = _flag_type(
    "an age or 'none'", lambda text: None if text.strip().lower() == "none" else int(text))
_bootstrap = _flag_type("0 or at least 100 replicates", int, lambda b: b == 0 or b >= 100)
_seed = _flag_type("a nonnegative integer", int, lambda seed: seed >= 0)
_horizon = _flag_type("an integer >= 1", int, lambda horizon: horizon >= 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mortforecast",
        description="Fit, forecast, and backtest stochastic mortality models "
                    "on age-by-year death rate surfaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", help="rates file (Mx_1x1 layout) or a directory "
                        f"containing one; falls back to ${DATA_ENV}")
    common.add_argument("--gender", choices=GENDERS, default="total")
    common.add_argument("--ages", type=_window, default=(0, 100),
                        help="age window A:B inclusive")
    common.add_argument("--years", type=_window, default=None, help="year window A:B "
                        "inclusive (default: everything in the file)")
    common.add_argument("-K", "--components", type=int, default=4,
                        help="number of basis functions for fdm")
    common.add_argument("--ts", type=_ts_spec, default=TsSpec(), help="time-series "
                        "spec: ar:p,d[,drift], AR(p) on d-th differences; rwd, the "
                        "default random walk with drift, is ar:0,1,drift")
    common.add_argument("--level", type=_level, default=95.0,
                        help="two-sided interval level in percent")
    common.add_argument("--num-basis", type=int, default=None,
                        help="spline basis size per curve")
    common.add_argument("--lam", type=_lam, default="auto",
                        help="smoothing penalty weight, or 'auto' for GCV")
    common.add_argument("--monotone-from", type=_monotone_from, default=65,
                        help="age from which smoothed curves are forced "
                        "nondecreasing, or 'none'")
    common.add_argument("--bootstrap", type=_bootstrap, default=0,
                        help="bootstrap replicates for fdm intervals (0 = analytic)")
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--output", default=".", help="artifact directory")
    common.add_argument("--formats", type=_formats,
                        default=frozenset({"csv", "json", "svg"}),
                        help="comma subset of csv,json,svg")
    common.set_defaults(train=None, test=None, year=None)

    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, models, help_text in (
            ("fit", ("lc",), "fit models and write parameters + diagnostics"),
            ("forecast", MODELS, "fit then project forward"),
            ("backtest", MODELS, "train/test split evaluation"),
            ("lifetable", MODELS, "period life table for one year"),
            ("compare", ("lc", "fdm"), "in-sample error tables for several models")):
        commands[name] = sub.add_parser(name, parents=[common], help=help_text)
        # not on the shared parent: subparsers share a parent's actions, so
        # a per-command default set there would hold for every command
        commands[name].add_argument("--models", "--model", type=_models,
                                    default=models,
                                    help="comma list from lc,lcs,fdm")
    commands["forecast"].add_argument("--horizon", type=_horizon, default=20)
    commands["backtest"].add_argument("--train", type=_window, required=True,
                                      help="train years A:B")
    commands["backtest"].add_argument("--test", type=_window, required=True,
                                      help="test years A:B")
    commands["lifetable"].add_argument("--year", type=int, required=True)
    return parser


_PARSER = build_parser()


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
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except HmdParseError as exc:
        raise UsageError(f"{path}: {exc}") from None
    year_min, year_max = args.years or (int(table.year.min()), int(table.year.max()))
    try:
        return build_surface(table, args.gender, *args.ages, year_min, year_max)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _check_windows(args: argparse.Namespace, surface: MortalitySurface) -> None:
    train, test = args.train, args.test
    if train and test and test[0] <= train[1]:
        raise UsageError(f"--test {test[0]}:{test[1]} overlaps or precedes --train "
                         f"{train[0]}:{train[1]}")
    lo, hi = int(surface.years[0]), int(surface.years[-1])
    for flag, window, least in (("--train", train, _MIN_TRAIN_YEARS),
                                ("--test", test, _MIN_TEST_YEARS)):
        if window and window[1] - window[0] + 1 < least:
            raise UsageError(f"{flag} {window[0]}:{window[1]} spans "
                             f"{window[1] - window[0] + 1} year(s); a backtest "
                             f"needs at least {least}")
        if window and (window[0] < lo or window[1] > hi):
            raise UsageError(f"{flag} {window[0]}:{window[1]} outside data years "
                             f"{lo}:{hi}")
    first_age = int(surface.ages[0])
    if args.command == "backtest" and first_age != 0:
        raise UsageError(f"--ages {args.ages[0]}:{args.ages[1]} starts at age {first_age}; "
                         f"a backtest scores life expectancy at birth, which needs ages from 0")
    year = args.year
    if year is not None and not lo <= year <= hi:
        raise UsageError(f"--year {year} outside data years {lo}:{hi}")


def _check_fit_sizes(args: argparse.Namespace, surface: MortalitySurface,
                     smooth: SmoothConfig) -> None:
    """Reject models, smoothing settings and time-series models the
    fitted surface (for a backtest, the train window) is too small for."""
    if args.command == "lifetable":
        return
    n_ages = surface.n_ages
    n_years = args.train[1] - args.train[0] + 1 if args.train else surface.n_years
    ages = f"--ages {args.ages[0]}:{args.ages[1]}"
    if "lcs" in args.models or "fdm" in args.models:
        if n_ages < 4:
            raise UsageError(f"smoothing needs at least 4 ages; {ages} has {n_ages}")
        try:
            smooth.resolved_num_basis(n_ages)
        except ValueError as exc:
            raise UsageError(f"--num-basis with {ages}: {exc}") from None
    if ("lc" in args.models or "lcs" in args.models) and min(n_ages, n_years) < 3:
        raise UsageError(f"lc and lcs need at least 3 ages and 3 years; the fitted "
                         f"surface is {n_ages} x {n_years}")
    K, largest_K = args.components, min(n_ages, n_years) - 1
    if "fdm" in args.models and not 1 <= K <= largest_K:
        raise UsageError(f"-K {K} does not fit a {n_ages} x {n_years} surface; "
                         f"fdm needs 1 <= K <= {largest_K}")
    ts = args.ts
    if args.command in ("forecast", "backtest") and n_years < ts.min_observations:
        raise UsageError(f"--ts: {_ts_model(ts)} needs at least {ts.min_observations} years; "
                         f"the fitted surface has {n_years}")


def _ts_model(ts: TsSpec) -> str:
    return "a random walk with drift" if ts == TsSpec() else f"AR({ts.p}) on d={ts.d} differences"


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


def _diagnostics(residuals: np.ndarray) -> dict:
    std = standardize_residuals(residuals)
    out: dict = {"n_residuals": int(std.size)}
    # the normality approximation is calibrated up to n=5000; test a
    # deterministic evenly spaced subsample and say so
    subsampled = std.size > _NORMALITY_CAP
    sample = std
    if subsampled:
        sample = std[np.linspace(0, std.size - 1, _NORMALITY_CAP).astype(int)]
    if sample.size >= 3 and float(np.ptp(sample)) > 0:
        w, p = normality_test(sample)
        out["normality"] = {"statistic": w, "p_value": p, "subsampled": subsampled}
    return out


# ---------------------------------------------------------------------------
# per-model artifacts
#
# A model's parameters are written as (CSV name, index name, index,
# columns, chart): one column per (CSV header, chart label, values), and a
# chart (file name, y label, title) unless it is None.


def _lc_params(name: str, m) -> list:
    return [(f"{name}_{part}.csv", index_name, index, [("value", part, values)],
             (f"fig3_{name}_{part}.svg", ylabel, f"{name}: {title}"))
            for part, index_name, index, values, ylabel, title in (
                ("alpha", "age", m.ages, m.alpha, "log rate", "level by age"),
                ("beta", "age", m.ages, m.beta, "sensitivity",
                 "age response to the period index"),
                ("kappa", "year", m.years, m.kappa, "index", "period index"))]


def _fdm_params(name: str, m) -> list:
    phi = [(f"phi{k + 1}", f"phi{k + 1}", m.phi[:, k]) for k in range(m.K)]
    beta = [(f"beta{k + 1}", f"beta{k + 1}", m.beta_series[:, k]) for k in range(m.K)]
    return [
        (f"{name}_mu.csv", "age", m.ages, [("value", "mu", m.mu)],
         (f"fig4_{name}_mu.svg", "log rate", f"{name}: mean curve")),
        (f"{name}_phi.csv", "age", m.ages, phi,
         (f"fig4_{name}_phi.svg", "basis value", f"{name}: age basis functions")),
        (f"{name}_beta.csv", "year", m.years, beta,
         (f"fig4_{name}_beta.svg", "coefficient", f"{name}: coefficient series")),
        (f"{name}_variances.csv", "age", m.ages,
         [("model_error", None, m.v), ("observational", None, m.sigma2)], None),
    ]


@dataclass(frozen=True)
class _Outputs:
    """How one model type reports itself.

    ``fields`` are the model attributes in fit's summary; compare reports
    the first only. fit diagnoses the ``residuals`` attribute; compare
    diagnoses observed minus fitted log rates and writes its averages to
    ``table``. ``bootstraps`` marks the type whose intervals --bootstrap
    replaces. No type's residual mean is t-tested: Lee-Carter's alpha and
    fdm's mu are each age's row mean, and kappa and each beta are centred,
    so fit's residuals sum to zero by construction and compare's to within
    what smoothing moves the mean, and the statistic would be noise.
    """

    params: Callable[[str, object], list]
    fields: tuple
    residuals: str
    table: str
    bootstraps: bool


_LC_OUTPUTS = _Outputs(_lc_params, ("explained_variance", "explained_variance_rss"),
                       "residuals", table="table1.csv", bootstraps=False)
_OUTPUTS = {
    "lc": _LC_OUTPUTS,
    "lcs": _LC_OUTPUTS,
    "fdm": _Outputs(_fdm_params, ("explained_shares", "K"), "model_errors",
                    table="table2.csv", bootstraps=True),
}
_ERROR_FIG = {"lc": "fig9", "lcs": "fig10", "fdm": "fig11"}


def _field(model, name: str):
    value = getattr(model, name)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _param_files(name: str, model) -> dict:
    files = {}
    for csv, index_name, index, columns, chart in _OUTPUTS[name].params(name, model):
        files[csv] = _csv(",".join([index_name, *(c[0] for c in columns)]),
                          index, *(c[2] for c in columns))
        if chart is not None:
            svg, ylabel, title = chart
            files[svg] = render_line_chart(
                [(label, index, values) for _, label, values in columns],
                index_name, ylabel, title=title)
    return files


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
        outputs = _OUTPUTS[name]
        entry = {field: _field(model, field) for field in outputs.fields}
        entry.update(_diagnostics(getattr(model, outputs.residuals)))
        files.update(_param_files(name, model))
        summary["models"][name] = entry
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
        forecast = forecast_model(model, args.ts, args.horizon, args.level,
                                  args.bootstrap, args.seed)
        if int(forecast.ages[0]) == 0:
            _check_e0_horizon(args.horizon, name, forecast)
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
        if int(forecast.ages[0]) == 0:
            path = e0_path(forecast)
            parts = ("point", "lower", "upper")
            entry["e0"] = {part: getattr(path, part).tolist() for part in parts}
            files[f"e0_{name}.csv"] = _csv("year,point,lower,upper", path.years,
                                           *(getattr(path, part) for part in parts))
            files[f"fig_e0_{name}.svg"] = render_line_chart(
                [(part, path.years, getattr(path, part)) for part in parts],
                "year", "life expectancy at birth", title=f"{name}: projected e0")
        if args.bootstrap and _OUTPUTS[name].bootstraps:
            entry["bootstrap"] = {"B": args.bootstrap, "seed": args.seed}
        summary["models"][name] = entry
    return summary, files


def _check_e0_horizon(horizon: int, name: str, forecast) -> None:
    """A long horizon can carry the drift past the log rates whose exp
    is a finite positive rate, and a life table needs such rates."""
    with np.errstate(over="ignore", under="ignore"):
        rates = np.exp([forecast.lower, forecast.point, forecast.upper])
    bad = ~np.all(np.isfinite(rates) & (rates > 0), axis=(0, 1))
    if bad.any():
        raise UsageError(f"--horizon {horizon} is too long for {name}: from "
                         f"{int(forecast.years[bad.argmax()])} its forecast death "
                         "rates underflow to 0 or overflow, so e0 has no life table; "
                         "use a shorter --horizon")


def cmd_backtest(args: argparse.Namespace, surface: MortalitySurface,
                smooth: SmoothConfig) -> tuple[dict, dict]:
    report = run_backtest(surface, args.models, args.train, args.test,
                          args.ts, args.level, smooth, args.components,
                          args.bootstrap, args.seed)
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

    for fig, stat, ylabel, title in (
            ("fig12", "mean", "mean error", "mean forecast error by age"),
            ("fig13", "sd", "error sd", "standard deviation of forecast error by age")):
        columns = [getattr(report.models[m], f"{stat}_error_by_age") for m in args.models]
        files[f"{fig}_{stat}_error_by_age.csv"] = _csv(
            "age," + ",".join(args.models), report.ages, *columns)
        files[f"{fig}.svg"] = render_line_chart(
            [(m, report.ages, c) for m, c in zip(args.models, columns)],
            "age", ylabel, title=title)

    observed = report.models[args.models[0]].e0_observed
    fan_series = [("observed", years, observed)]
    for name in args.models:
        entry = report.models[name]
        for part, values in (("point", entry.e0_forecast),
                             ("lower", entry.e0_interval.lower),
                             ("upper", entry.e0_interval.upper)):
            fan_series.append((f"{name} {part}", years, values))
    fan_cols = ",".join(f"{m}_point,{m}_lower,{m}_upper" for m in args.models)
    files["fig14_e0_fan.csv"] = _csv(f"year,observed,{fan_cols}",
                                     years, *(values for _, _, values in fan_series))
    files["fig14.svg"] = render_line_chart(fan_series, "year", "life expectancy at birth",
                                           title="e0: observed vs projected")
    return summary, files


def cmd_lifetable(args: argparse.Namespace, surface: MortalitySurface,
                 smooth: SmoothConfig) -> tuple[dict, dict]:
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
        outputs = _OUTPUTS[name]
        fitted_log = model.fitted_log_rates()
        rep = reports[name] = error_metrics(surface, fitted_log)
        entry = {
            "avg_across_ages": dict(zip(metrics, rep.avg_across_ages)),
            "avg_across_years": dict(zip(metrics, rep.avg_across_years)),
            "excluded_cells": rep.excluded_cells,
            outputs.fields[0]: _field(model, outputs.fields[0]),
        }
        entry.update(_diagnostics(surface.log_rates - fitted_log))
        summary["models"][name] = entry
        for by, table in (("age", rep.by_age), ("year", rep.by_year)):
            files[f"metrics_{name}_by_{by}.csv"] = _csv(
                f"{by},me,mse,mpe,mape", table.index, table.me, table.mse, table.mpe,
                table.mape)

    for table in ("table1.csv", "table2.csv"):
        rows = [(name, f"across_{by}", *avg)
                for name in MODELS if name in reports and _OUTPUTS[name].table == table
                for by, avg in (("ages", reports[name].avg_across_ages),
                                ("years", reports[name].avg_across_years))]
        if rows:
            files[table] = _csv("model,aggregation,me,mse,mpe,mape", *zip(*rows))
    return summary, files


_DISPATCH = {
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "lifetable": cmd_lifetable,
    "compare": cmd_compare,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    smooth = SmoothConfig(num_basis=args.num_basis, lam=args.lam,
                          monotone_from=args.monotone_from)
    try:
        if os.path.exists(args.output) and not os.path.isdir(args.output):
            raise UsageError(f"--output {args.output} exists and is not a directory")
        surface = load_surface(args)
        _check_windows(args, surface)
        _check_fit_sizes(args, surface, smooth)
        summary, files = _DISPATCH[args.command](args, surface, smooth)
        files["summary.json"] = _summary_json(args, summary)
        _commit(args.output, {name: text for name, text in files.items()
                              if name.rsplit(".", 1)[-1] in args.formats})
        return 0
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularLagError as exc:
        print(f"error: --ts: {_ts_model(args.ts)} cannot be fitted to {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
