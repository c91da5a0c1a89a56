"""Each input rule the CLI promises exit 2 for, at both of its entry points.

One row per rule and side of its limit. The values come from the
definitions the library owns (``fdm.LEVEL_RANGE``, ``tsforecast.MIN_HORIZON``,
``evaluate.MODELS``), which the CLI's flag types read too, as they read
``ingest.valid_window`` (every window A:B has A <= B) and ``TsSpec.RULE``;
the messages are pinned here whole. A window's other limit is the surface's
years, which ``ingest.year_columns`` checks for ``--year``, ``--train`` and
``--test`` alike. A rejected argv must exit 2 with its whole error line and
create no ``--output``; an accepted one exits 0, unless the row pins the
next rule's error. The library call that owns the rule raises the stated
type and message, or nothing.
"""

import functools
import re

import pytest

from mortforecast.evaluate import MODELS, fit_models, run_backtest
from mortforecast.fdm import LEVEL_RANGE, forecast_fdm
from mortforecast.ingest import build_surface, parse_hmd_rates, slice_window, valid_window
from mortforecast.leecarter import fit_lc
from mortforecast.lifetable import rates_to_lifetable
from mortforecast.numerics import SettingsError
from mortforecast.smoothing import SmoothConfig, smooth_surface
from mortforecast.tsforecast import MIN_HORIZON, TsSpec

from conftest import run_cli, synthetic_hmd_text


@functools.lru_cache(maxsize=None)
def surface(first_age=0):
    """The ``hmd_file`` surface, ages first_age..40, years 1950..2005."""
    return build_surface(parse_hmd_rates(synthetic_hmd_text()), "total", first_age, 40,
                         1950, 2005)


def backtest(train, test, first_year=1950):
    return run_backtest(slice_window(surface(), first_year, 2005), ["lc"], train, test)


def forecast(level=95.0, horizon=1):
    return forecast_fdm(fit_lc(surface()), TsSpec(), horizon, level)


def smooth(lam):
    s = surface()
    return smooth_surface(s.log_rates, s.ages, s.years, SmoothConfig(lam=lam))


def lifetable(year, first_age=0):
    s = surface(first_age)
    return rates_to_lifetable(s.year_column(year), ages=s.ages)


LOW = LEVEL_RANGE[0]
FIRST_YEAR = 1950
FORECAST = ["forecast", "--models", "lc", "--horizon", "1"]
BACKTEST = ["backtest", "--models", "lc"]
WINDOW = "expects A:B (inclusive), integers with A <= B"
TS = ("error: argument --ts: expects rwd, ar:p,d[,drift] or arima:p,d[,drift] with p >= 0 "
      "and d 0 or 1")
WINDOW_FLAGS = ("--ages", "--years", "--train", "--test")

# id -> (argv before --data, the CLI's error line or None if it exits 0,
#        the library call, its exception type and message, or None)
RULES = {
    "level_at_limit": (
        [*FORECAST, "--level", f"{LOW:g}"],
        "mortforecast forecast: error: argument --level: expects a number in (50, 99.9), "
        "got '50'",
        lambda: forecast(level=LOW), (ValueError, "level must be in (50, 99.9), got 50.0")),
    "level_inside": (
        [*FORECAST, "--level", str(LOW + 0.01)], None,
        lambda: forecast(level=LOW + 0.01), None),
    "lam_below_0": (
        ["fit", "--models", "lcs", "--lam=-1e-300"],
        "mortforecast fit: error: argument --lam: expects 'auto' or a finite number >= 0, "
        "got '-1e-300'",
        lambda: smooth(-1e-300), (ValueError, "lam must be finite and nonnegative")),
    "lam_0": (
        ["fit", "--models", "lcs", "--lam", "0"], None, lambda: smooth(0.0), None),
    "horizon_below_min": (
        ["forecast", "--models", "lc", "--horizon", str(MIN_HORIZON - 1)],
        "mortforecast forecast: error: argument --horizon: expects an integer >= 1, got '0'",
        lambda: forecast(horizon=MIN_HORIZON - 1), (ValueError, "horizon must be at least 1")),
    "horizon_min": (
        ["forecast", "--models", "lc", "--horizon", str(MIN_HORIZON)], None,
        lambda: forecast(horizon=MIN_HORIZON), None),
    "models_repeated": (
        ["fit", "--models", f"{MODELS[0]},{MODELS[0]}"],
        "mortforecast fit: error: argument --models/--model: expects a comma list of distinct "
        "names from lc,lcs,fdm, got 'lc,lc'",
        lambda: fit_models(surface(), (MODELS[0], MODELS[0])),
        (ValueError, "models must be one or more distinct names from ('lc', 'lcs', 'fdm'), "
                     "got ('lc', 'lc')")),
    "models_distinct": (
        ["fit", "--models", ",".join(MODELS)], None, lambda: fit_models(surface(), MODELS),
        None),
    "year_before_data": (
        ["lifetable", "--year", str(FIRST_YEAR - 1)],
        "error: year 1949 outside the surface's years 1950:2005",
        lambda: lifetable(FIRST_YEAR - 1),
        (SettingsError, "year 1949 outside the surface's years 1950:2005")),
    "year_first": (
        ["lifetable", "--year", str(FIRST_YEAR)], None, lambda: lifetable(FIRST_YEAR), None),
    "ages_from_1": (
        ["lifetable", "--ages", "1:40", "--year", "1990"],
        "error: life expectancy at birth needs ages from 0, got first age 1",
        lambda: lifetable(1990, first_age=1),
        (SettingsError, "life expectancy at birth needs ages from 0, got first age 1")),
    "ages_from_0": (
        ["lifetable", "--ages", "0:40", "--year", "1990"], None, lambda: lifetable(1990), None),
    # both lifetable rules broken: the year is read first, so its rule wins
    "ages_and_year": (
        ["lifetable", "--ages", "10:30", "--year", "1940"],
        "error: year 1940 outside the surface's years 1950:2005",
        lambda: lifetable(1940, first_age=10),
        (SettingsError, "year 1940 outside the surface's years 1950:2005")),
    "ages_reversed": (
        ["lifetable", "--ages", "1:0", "--year", "1990"],
        f"mortforecast lifetable: error: argument --ages: {WINDOW}, got '1:0'",
        lambda: build_surface(parse_hmd_rates(synthetic_hmd_text()), "total", 1, 0, 1950, 2005),
        (SettingsError, "age window 1:0 ends before it starts")),
    "ages_one_age": (
        ["lifetable", "--ages", "0:0", "--year", "1990"], None,
        lambda: build_surface(parse_hmd_rates(synthetic_hmd_text()), "total", 0, 0, 1950, 2005),
        None),
    "years_reversed": (
        ["lifetable", "--years", "1991:1990", "--year", "1990"],
        f"mortforecast lifetable: error: argument --years: {WINDOW}, got '1991:1990'",
        lambda: slice_window(surface(), 1991, 1990),
        (SettingsError, "window 1991:1990 ends before it starts")),
    "years_one_year": (
        ["lifetable", "--years", "1990:1990", "--year", "1990"], None,
        lambda: slice_window(surface(), 1990, 1990), None),
    "train_reversed": (
        [*BACKTEST, "--train", "1980:1979", "--test", "1981:2005"],
        f"mortforecast backtest: error: argument --train: {WINDOW}, got '1980:1979'",
        lambda: backtest((1980, 1979), (1981, 2005)),
        (SettingsError, "train window 1980:1979 ends before it starts")),
    # A = B passes the window rule, and the backtest's shortest-window rule takes over
    "train_one_year": (
        [*BACKTEST, "--train", "1980:1980", "--test", "1981:2005"],
        "error: train window 1980:1980 spans 1 year(s); a backtest needs at least 3",
        lambda: backtest((1980, 1980), (1981, 2005)),
        (SettingsError, "train window 1980:1980 spans 1 year(s); a backtest needs at least 3")),
    "test_reversed": (
        [*BACKTEST, "--train", "1950:1980", "--test", "1982:1981"],
        f"mortforecast backtest: error: argument --test: {WINDOW}, got '1982:1981'",
        lambda: backtest((1950, 1980), (1982, 1981)),
        (SettingsError, "test window 1982:1981 ends before it starts")),
    "test_one_year": (
        [*BACKTEST, "--train", "1950:1980", "--test", "1981:1981"],
        "error: test window 1981:1981 spans 1 year(s); a backtest needs at least 2",
        lambda: backtest((1950, 1980), (1981, 1981)),
        (SettingsError, "test window 1981:1981 spans 1 year(s); a backtest needs at least 2")),
    "train_before_years": (
        [*BACKTEST, "--years", "1951:2005", "--train", "1950:1980", "--test", "1981:2005"],
        "error: train window 1950:1980 outside the surface's years 1951:2005",
        lambda: backtest((1950, 1980), (1981, 2005), first_year=1951),
        (SettingsError, "train window 1950:1980 outside the surface's years 1951:2005")),
    "train_first_year": (
        [*BACKTEST, "--years", "1951:2005", "--train", "1951:1980", "--test", "1981:2005"], None,
        lambda: backtest((1951, 1980), (1981, 2005), first_year=1951), None),
    # two faults at once: each window's order and place in the surface's
    # years (train, then test) come before the overlap and length rules
    "train_short_and_before_years": (
        [*BACKTEST, "--years", "1951:2005", "--train", "1950:1951", "--test", "1952:2005"],
        "error: train window 1950:1951 outside the surface's years 1951:2005",
        lambda: backtest((1950, 1951), (1952, 2005), first_year=1951),
        (SettingsError, "train window 1950:1951 outside the surface's years 1951:2005")),
    "overlap_and_train_before_years": (
        [*BACKTEST, "--years", "1951:2005", "--train", "1950:1980", "--test", "1975:2005"],
        "error: train window 1950:1980 outside the surface's years 1951:2005",
        lambda: backtest((1950, 1980), (1975, 2005), first_year=1951),
        (SettingsError, "train window 1950:1980 outside the surface's years 1951:2005")),
    "overlap_and_test_after_years": (
        [*BACKTEST, "--train", "1950:1980", "--test", "1975:2006"],
        "error: test window 1975:2006 outside the surface's years 1950:2005",
        lambda: backtest((1950, 1980), (1975, 2006)),
        (SettingsError, "test window 1975:2006 outside the surface's years 1950:2005")),
    "ts_p_below_0": (
        [*FORECAST, "--ts", "ar:-1,1"], f"mortforecast forecast: {TS}, got 'ar:-1,1'",
        lambda: TsSpec(p=-1), (ValueError, "p must be nonnegative")),
    "ts_p_0": (
        [*FORECAST, "--ts", "ar:0,1"], None, lambda: TsSpec.parse("ar:0,1"), None),
    "ts_d_2": (
        [*FORECAST, "--ts", "ar:1,2"], f"mortforecast forecast: {TS}, got 'ar:1,2'",
        lambda: TsSpec.parse("ar:1,2"), (ValueError, "d must be 0 or 1")),
    "ts_d_1": (
        [*FORECAST, "--ts", "ar:1,1"], None, lambda: TsSpec.parse("ar:1,1"), None),
    # the arima: spelling the rule text names, and the backtest's own --ts
    "ts_arima_d_2": (
        [*BACKTEST, "--train", "1950:1980", "--test", "1981:2005", "--ts", "arima:0,2,drift"],
        f"mortforecast backtest: {TS}, got 'arima:0,2,drift'",
        lambda: TsSpec.parse("arima:0,2,drift"), (ValueError, "d must be 0 or 1")),
    "ts_arima_d_1": (
        [*BACKTEST, "--train", "1950:1980", "--test", "1981:2005", "--ts", "arima:0,1,drift"],
        None, lambda: TsSpec.parse("arima:0,1,drift"), None),
}


@pytest.mark.parametrize("argv,error,call,raised", RULES.values(), ids=RULES)
def test_rule(hmd_file, tmp_path, capsys, argv, error, call, raised):
    # a row's window sits on the side of valid_window that its error names
    for flag, value in zip(argv, argv[1:]):
        if flag in WINDOW_FLAGS:
            rejected = error is not None and f"argument {flag}:" in error
            assert valid_window(tuple(map(int, value.split(":")))) is not rejected
    out = tmp_path / "out"
    ages = [] if "--ages" in argv else ["--ages", "0:40"]
    code = run_cli([*argv, "--data", hmd_file, *ages, "--formats", "json", "--output", out])
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
        assert (out / "summary.json").is_file()
        call()
    else:
        assert code == 2
        assert err.endswith("\n") and err.splitlines()[-1] == error
        assert not out.exists()
        kind, message = raised
        with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is kind
