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

from mortforecast.fdm import ForecastSurface
from mortforecast.lifetable import (E0Path, LifeTable, e0_from_rates, e0_path,
                                    rates_to_lifetable)


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
    assert e0_from_rates(mx) == pytest.approx(_e0_by_integration(mx), abs=0.01)


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
    assert e0_from_rates(0.7 * mx) > e0_from_rates(mx)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.1, max_value=0.95))
def test_antitone_in_rates(seed, gamma):
    rng = np.random.default_rng(seed)
    mx = np.exp(rng.uniform(-7.0, 0.0, size=30))
    assert e0_from_rates(gamma * mx) >= e0_from_rates(mx)


def test_input_validation():
    with pytest.raises(ValueError, match="finite and positive"):
        rates_to_lifetable(np.array([0.01, 0.0, 0.02]))
    with pytest.raises(ValueError, match="finite and positive"):
        rates_to_lifetable(np.array([0.01, np.nan]))
    with pytest.raises(ValueError, match="non-empty"):
        rates_to_lifetable(np.array([]))
    with pytest.raises(ValueError, match="same length"):
        rates_to_lifetable(np.array([0.01, 0.02]), ages=np.array([0, 1, 2]))


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
    expected = e0_from_rates(np.exp(fc.point[:, 0]))
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
                               e0_from_rates(np.exp(fc.upper[:, 0])), atol=1e-12)
    np.testing.assert_allclose(path.upper[0],
                               e0_from_rates(np.exp(fc.lower[:, 0])), atol=1e-12)


def test_e0_path_needs_age_zero():
    fc = _toy_forecast([0.1])
    shifted = ForecastSurface(ages=fc.ages + 30, years=fc.years, point=fc.point,
                              variance=fc.variance, lower=fc.lower,
                              upper=fc.upper, level=fc.level)
    with pytest.raises(ValueError, match="ages from 0"):
        e0_path(shifted)
