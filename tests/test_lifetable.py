"""Life tables and life expectancy at birth.

The integration oracle: with the hazard held constant at m_x inside
each year of age and at m_A forever past the open terminal age, the
survival curve is exp of a piecewise-linear cumulative hazard and
can be integrated to any precision on a fine grid. The table's e0
should agree closely because its L_x column is the trapezoid of the
same survival curve and its terminal group is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.evaluate import run_backtest
from mortforecast.fdm import ForecastSurface
from mortforecast.ingest import MortalitySurface
from mortforecast.lifetable import E0Path, E0RangeError, LifeTable, e0_path, rates_to_lifetable
from mortforecast.numerics import SettingsError

from conftest import hmdgen_surface


def _e0_by_integration(mx, steps_per_year=2000):
    """Survival under piecewise-constant hazard, trapezoid on a fine
    grid, plus the exact closed tail S(A)/m_A."""
    mx = np.asarray(mx, dtype=float)
    A = len(mx) - 1
    e0 = 0.0
    log_s = 0.0  # log survival at the start of the current year
    for i in range(A):
        u = np.linspace(0.0, 1.0, steps_per_year + 1)
        s = np.exp(log_s - mx[i] * u)
        e0 += np.trapezoid(s, u)
        log_s -= mx[i]
    return e0 + np.exp(log_s) / mx[A]


def _plausible_schedule(n=101):
    ages = np.arange(n)
    # hump at infancy, flat middle, exponential old-age rise
    return 0.004 * np.exp(-ages / 2.0) + 0.0004 + 0.00003 * np.exp(ages / 11.0)


def test_e0_matches_integration_constant_rate():
    mx = np.full(101, 0.01)
    table = rates_to_lifetable(mx)
    assert table.e0 == pytest.approx(_e0_by_integration(mx), abs=0.01)
    # constant hazard is memoryless, so e0 is 1/m up to discretization
    assert table.e0 == pytest.approx(100.0, abs=0.01)


def test_e0_matches_integration_realistic_schedule():
    mx = _plausible_schedule()
    assert rates_to_lifetable(mx).e0 == pytest.approx(_e0_by_integration(mx), abs=0.01)


def test_large_rates_limit():
    table = rates_to_lifetable(np.full(50, 60.0))
    # q -> 1, so nearly everyone dies in year one at its midpoint
    assert table.e0 == pytest.approx(0.5, abs=1e-6)


def test_table_columns():
    mx = _plausible_schedule(21)
    table = rates_to_lifetable(mx)
    assert table.lx[0] == 1.0
    assert np.all(np.diff(table.lx) <= 0)
    assert np.all((table.qx > 0) & (table.qx <= 1))
    assert table.qx[-1] == 1.0
    np.testing.assert_allclose(table.qx[:-1], 1.0 - np.exp(-mx[:-1]), atol=1e-15)
    np.testing.assert_allclose(table.Lx[:-1],
                               table.lx[:-1] - 0.5 * table.lx[:-1] * table.qx[:-1],
                               atol=1e-15)
    assert table.Lx[-1] == pytest.approx(table.lx[-1] / mx[-1])
    assert table.e0 == pytest.approx(table.Lx.sum())


def test_scaling_down_raises_e0():
    mx = _plausible_schedule(51)
    assert rates_to_lifetable(0.7 * mx).e0 > rates_to_lifetable(mx).e0


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.1, max_value=0.95))
def test_antitone_in_rates(seed, gamma):
    rng = np.random.default_rng(seed)
    mx = np.exp(rng.uniform(-7.0, 0.0, size=30))
    assert rates_to_lifetable(gamma * mx).e0 >= rates_to_lifetable(mx).e0


def test_input_validation():
    with pytest.raises(ValueError, match="finite and positive"):
        rates_to_lifetable(np.array([0.01, 0.0, 0.02]))
    with pytest.raises(ValueError, match="finite and positive"):
        rates_to_lifetable(np.array([0.01, np.nan]))
    with pytest.raises(ValueError, match="non-empty"):
        rates_to_lifetable(np.array([]))
    with pytest.raises(ValueError, match="same length"):
        rates_to_lifetable(np.array([0.01, 0.02]), ages=np.array([0, 1, 2]))
    # five-year ages once passed and gave the single-year table's e0
    mx = np.array([0.01, 0.02, 0.5])
    for ages, message in (([0, 5, 10], "got 0 then 5"), ([0, 1, 1], "got 1 then 1")):
        with pytest.raises(ValueError, match=f"^ages must step by one year, {message}$"):
            rates_to_lifetable(mx, ages=ages)
    assert rates_to_lifetable(mx, ages=[0, 1, 2]).e0 == rates_to_lifetable(mx).e0


# ---------------------------------------------------------------------------
# e0 along a forecast


def _toy_forecast(widths):
    """Forecast surface over ages 0..20 whose log-rate interval width at
    horizon j is widths[j], constant over age."""
    n_ages = 21
    h = len(widths)
    ages = np.arange(n_ages)
    years = 2010 + np.arange(1, h + 1)
    point = np.tile(np.log(_plausible_schedule(n_ages))[:, None], (1, h))
    widths = np.asarray(widths, dtype=float)
    half = 0.5 * widths[None, :]
    z = 1.959963984540054
    variance = (half / z) ** 2 * np.ones((n_ages, 1))
    return ForecastSurface(ages=ages, years=years, point=point,
                           variance=variance, lower=point - half,
                           upper=point + half, level=95.0)


def test_e0_path_zero_width():
    fc = _toy_forecast([0.0, 0.0, 0.0])
    path = e0_path(fc)
    np.testing.assert_array_equal(path.lower, path.point)
    np.testing.assert_array_equal(path.upper, path.point)
    expected = rates_to_lifetable(np.exp(fc.point[:, 0])).e0
    np.testing.assert_allclose(path.point, expected, atol=1e-12)


def test_e0_path_orders_and_widens():
    fc = _toy_forecast([0.05, 0.1, 0.2, 0.4])
    path = e0_path(fc)
    assert np.all(path.lower <= path.point) and np.all(path.point <= path.upper)
    assert np.all(np.diff(path.upper - path.lower) > 0)
    assert path.level == 95.0
    assert list(path.years) == [2011, 2012, 2013, 2014]


def test_e0_path_reverses_mortality_bounds():
    fc = _toy_forecast([0.3, 0.3])
    path = e0_path(fc)
    np.testing.assert_allclose(path.lower[0],
                               rates_to_lifetable(np.exp(fc.upper[:, 0])).e0, atol=1e-12)
    np.testing.assert_allclose(path.upper[0],
                               rates_to_lifetable(np.exp(fc.lower[:, 0])).e0, atol=1e-12)


def test_e0_path_needs_age_zero():
    fc = _toy_forecast([0.1])
    shifted = ForecastSurface(ages=fc.ages + 30, years=fc.years, point=fc.point,
                              variance=fc.variance, lower=fc.lower,
                              upper=fc.upper, level=fc.level)
    with pytest.raises(ValueError, match="ages from 0"):
        e0_path(shifted)


def test_lifetable_from_a_later_age_raises():
    # a table from age 5 sums the years lived past 5, not past birth: it
    # used to come back labelled e0 (76.90 here), and now raises as
    # e0_path does
    surface = hmdgen_surface(7, "total", (5, 100), (1922, 2006))
    with pytest.raises(SettingsError, match=r"^life expectancy at birth needs ages from 0, "
                                            r"got first age 5$"):
        rates_to_lifetable(surface.year_column(1990), ages=surface.ages)


# ---------------------------------------------------------------------------
# the block kernel against the one-table-per-call code it replaced


def _reference_lifetable(mx):
    """The 1-d life table, one call per table."""
    mx = np.asarray(mx, dtype=float)
    if not np.all(np.isfinite(mx)) or np.any(mx <= 0):
        raise ValueError("all rates must be finite and positive")
    A = len(mx) - 1
    qx = 1.0 - np.exp(-mx)
    qx[A] = 1.0
    lx = np.concatenate(([1.0], np.cumprod(1.0 - qx[:A])))
    Lx = lx - 0.5 * (lx * qx)
    Lx[A] = lx[A] / mx[A]
    return qx, lx, Lx, float(Lx.sum())


def _reference_e0_path(forecast):
    """e0 per horizon, one life table per column of each surface."""
    h = len(forecast.years)
    point, lower, upper = np.empty(h), np.empty(h), np.empty(h)
    for j in range(h):
        point[j] = _reference_lifetable(np.exp(forecast.point[:, j]))[3]
        lower[j] = _reference_lifetable(np.exp(forecast.upper[:, j]))[3]
        upper[j] = _reference_lifetable(np.exp(forecast.lower[:, j]))[3]
    return point, lower, upper


def _random_forecast(n_ages, h, seed):
    """Log rates uniform on [-12, 2], with a random nonnegative half-width."""
    rng = np.random.default_rng(seed)
    point = rng.uniform(-12.0, 2.0, size=(n_ages, h))
    half = rng.uniform(0.0, 1.0, size=(n_ages, h))
    return ForecastSurface(ages=np.arange(n_ages), years=2000 + np.arange(1, h + 1),
                           point=point, variance=half**2, lower=point - half,
                           upper=point + half, level=95.0)


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=111), st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=2**31))
def test_e0_path_matches_per_column_reference(n_ages, h, seed):
    # THEORY: the block keeps ages last and contiguous, so exp, the row's
    # cumprod and the row sum do the same floating-point operations in the
    # same order as one 1-d table: equal bits, not just close values.
    fc = _random_forecast(n_ages, h, seed)
    path = e0_path(fc)
    point, lower, upper = _reference_e0_path(fc)
    assert path.point.tolist() == point.tolist()
    assert path.lower.tolist() == lower.tolist()
    assert path.upper.tolist() == upper.tolist()


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=111), st.integers(min_value=0, max_value=2**31))
def test_rates_to_lifetable_matches_reference(n_ages, seed):
    mx = np.exp(np.random.default_rng(seed).uniform(-12.0, 2.0, size=n_ages))
    table = rates_to_lifetable(mx)
    qx, lx, Lx, e0 = _reference_lifetable(mx)
    for got, want in ((table.qx, qx), (table.lx, lx), (table.Lx, Lx)):
        assert got.tolist() == want.tolist()
    assert table.e0 == e0


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=3, max_value=60), st.integers(min_value=6, max_value=14),
       st.integers(min_value=0, max_value=2**31))
def test_backtest_observed_e0_matches_reference(n_ages, n_years, seed):
    rng = np.random.default_rng(seed)
    trend = rng.uniform(-9.0, -1.0, size=n_ages)[:, None] - 0.02 * np.arange(n_years)
    rates = np.exp(trend + 0.05 * rng.standard_normal((n_ages, n_years)))
    surface = MortalitySurface(ages=np.arange(n_ages), years=1950 + np.arange(n_years),
                               rates=rates)
    train_end = 1950 + n_years // 2
    report = run_backtest(surface, ("lc",), (1950, train_end),
                          (train_end + 1, 1949 + n_years))
    test = rates[:, train_end + 1 - 1950:]
    expected = [_reference_lifetable(test[:, j])[3] for j in range(test.shape[1])]
    assert report.e0_observed.tolist() == expected
    point, lower, upper = _reference_e0_path(report.models["lc"].forecast)
    assert report.models["lc"].e0_interval.point.tolist() == point.tolist()
    assert report.models["lc"].e0_interval.lower.tolist() == lower.tolist()
    assert report.models["lc"].e0_interval.upper.tolist() == upper.tolist()


def _error_text(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("rate,log_rate", [(0.0, -np.inf), (-0.01, np.nan),
                                           (np.nan, np.nan), (np.inf, np.inf)])
def test_bad_rate_error_matches_reference(rate, log_rate):
    mx = _plausible_schedule(21)
    mx[7] = rate
    assert (_error_text(rates_to_lifetable, mx)
            == _error_text(_reference_lifetable, mx)
            == "all rates must be finite and positive")
    # the same cell in one horizon of a forecast, as a log rate: e0_path
    # names the first year whose rates no life table takes
    fc = _random_forecast(21, 3, 1)
    point = fc.point.copy()
    point[7, 1] = log_rate
    bad_fc = ForecastSurface(ages=fc.ages, years=fc.years, point=point,
                             variance=fc.variance, lower=np.fmin(fc.lower, point),
                             upper=np.fmax(fc.upper, point), level=fc.level)
    assert _error_text(_reference_e0_path, bad_fc) == "all rates must be finite and positive"
    with pytest.raises(E0RangeError, match=f"^from {int(fc.years[1])} its forecast death rates "
                                           "underflow to 0 or overflow, so e0 has no life table$"):
        e0_path(bad_fc)
