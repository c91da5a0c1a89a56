"""Each input rule the CLI promises exit 2 for, at both of its entry points.

One row per rule and side of its limit. The values come from the
definitions the library owns (``fdm.LEVEL_RANGE``, ``tsforecast.MIN_HORIZON``,
``evaluate.MODELS``), which the CLI's flag types read too; the messages are
pinned here whole. A rejected argv must exit 2 with its whole error line
and create no ``--output``; an accepted one exits 0. The library call that
owns the rule raises the stated type and message, or nothing.
"""

import functools
import re

import pytest

from mortforecast.evaluate import MODELS, fit_models
from mortforecast.fdm import LEVEL_RANGE, forecast_fdm
from mortforecast.ingest import build_surface, parse_hmd_rates
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
}


@pytest.mark.parametrize("argv,error,call,raised", RULES.values(), ids=RULES)
def test_rule(hmd_file, tmp_path, capsys, argv, error, call, raised):
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
