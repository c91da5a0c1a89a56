"""Lee-Carter fit and forecast.

THEORY, in brief: with ln m = alpha + beta kappa and the normalization
sum(beta) = 1, sum(kappa) = 0, the parameters are identified, so a fit
on a surface built from known parameters must return exactly those. A
fit holds alpha as the model's center, beta as its one basis column and
kappa as its one coefficient series, and ``forecast_fdm`` forecasts it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.ingest import MortalitySurface
from mortforecast.fdm import forecast_fdm
from mortforecast.leecarter import fit_lc, fit_lcs
from mortforecast.numerics import SettingsError, normal_quantile
from mortforecast.smoothing import SmoothConfig
from mortforecast.tsforecast import TsSpec

from conftest import make_surface, rank1_surface, smooth


def _alpha(model):
    return model.center


def _beta(model):
    return model.basis[:, 0]


def _kappa(model):
    return model.coefficients[:, 0]


def test_rank1_recovery():
    surface, alpha, beta, kappa = rank1_surface(n_ages=15, n_years=25, seed=11)
    model = fit_lc(surface)
    np.testing.assert_allclose(_alpha(model), alpha, atol=1e-10)
    np.testing.assert_allclose(_beta(model), beta, atol=1e-10)
    np.testing.assert_allclose(_kappa(model), kappa, atol=1e-10)
    assert model.explained_shares[0] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(model.residuals, 0.0, atol=1e-10)


def test_constraints_on_random_surfaces():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n_ages = rng.integers(3, 12)
        n_years = rng.integers(3, 15)
        log_m = rng.standard_normal((n_ages, n_years)) - 4.0
        model = fit_lc(make_surface(log_m))
        assert abs(_beta(model).sum() - 1.0) < 1e-12
        denom = max(np.abs(_kappa(model)).sum(), 1.0)
        assert abs(_kappa(model).sum()) / denom < 1e-12


def test_alpha_is_row_mean():
    rng = np.random.default_rng(13)
    log_m = rng.standard_normal((6, 9)) - 3.0
    model = fit_lc(make_surface(log_m))
    # recentering kappa can shift alpha only along beta; with sum(kappa)
    # forced to zero the shift is zero and row means survive
    np.testing.assert_allclose(_alpha(model), log_m.mean(axis=1), atol=1e-12)


def test_reconstruction_identity():
    rng = np.random.default_rng(21)
    log_m = rng.standard_normal((8, 12)) - 4.0
    model = fit_lc(make_surface(log_m))
    np.testing.assert_allclose(model.fitted_log_rates() + model.residuals,
                               log_m, atol=1e-12)


def test_constant_years_degenerate():
    ages = np.arange(5)
    log_m = np.tile((-4.0 + 0.1 * ages)[:, None], (1, 7))
    model = fit_lc(make_surface(log_m))
    np.testing.assert_array_equal(_kappa(model), 0.0)
    np.testing.assert_allclose(model.residuals, 0.0, atol=1e-14)
    assert model.explained_shares[0] == 1.0


def test_rescaling_shifts_alpha_only():
    surface, _, _, _ = rank1_surface(n_ages=9, n_years=14, seed=2, noise=0.05)
    gamma = 1.7
    scaled = MortalitySurface(ages=surface.ages, years=surface.years,
                              rates=gamma * surface.rates)
    base = fit_lc(surface)
    shifted = fit_lc(scaled)
    np.testing.assert_allclose(_alpha(shifted), _alpha(base) + np.log(gamma), atol=1e-10)
    np.testing.assert_allclose(_beta(shifted), _beta(base), atol=1e-10)
    np.testing.assert_allclose(_kappa(shifted), _kappa(base), atol=1e-10)
    np.testing.assert_allclose(shifted.residuals, base.residuals, atol=1e-10)
    assert shifted.explained_shares[0] == pytest.approx(base.explained_shares[0],
                                                       abs=1e-10)


def test_refit_on_own_fit_is_idempotent():
    surface, _, _, _ = rank1_surface(n_ages=7, n_years=11, seed=5, noise=0.1)
    first = fit_lc(surface)
    refit = fit_lc(make_surface(first.fitted_log_rates(),
                                first_year=int(surface.years[0])))
    np.testing.assert_allclose(_alpha(refit), _alpha(first), atol=1e-9)
    np.testing.assert_allclose(_beta(refit), _beta(first), atol=1e-9)
    np.testing.assert_allclose(_kappa(refit), _kappa(first), atol=1e-9)


def test_degenerate_sign_sum_errors():
    # leading left vector proportional to (1, -1, 0): sums to zero, so the
    # beta normalization cannot work
    kappa = np.array([2.0, -1.0, -1.0, 0.0])
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    log_m = -4.0 + np.outer(u, kappa)
    with pytest.raises(ValueError, match="degenerate"):
        fit_lc(make_surface(log_m))


def test_explained_variance_between_singular_and_rss():
    surface, _, _, _ = rank1_surface(n_ages=10, n_years=18, seed=9, noise=0.2)
    model = fit_lc(surface)
    assert 0.0 < model.explained_shares[0] <= 1.0
    assert 0.0 < model.explained_rss <= 1.0


def test_minimum_size():
    with pytest.raises(SettingsError, match="lc needs at least 3 ages and 3 years, got 2 x 5"):
        fit_lc(make_surface(np.full((2, 5), -3.0)))
    with pytest.raises(SettingsError, match="lc needs at least 3 ages and 3 years, got 5 x 2"):
        fit_lc(make_surface(np.full((5, 2), -3.0)))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_variance_split_property(seed):
    # the singular-value share describes the fit, named lc
    rng = np.random.default_rng(seed)
    log_m = rng.standard_normal((5, 8)) - 4.0
    model = fit_lc(make_surface(log_m))
    assert 0.0 <= model.explained_shares[0] <= 1.0 + 1e-12
    assert model.name == "lc"


# ---------------------------------------------------------------------------
# LCS


def test_lcs_on_already_smooth_surface_matches_lc():
    # every year's curve is affine in age, which the penalized smoother
    # passes through unchanged, so the two variants must agree
    n_ages, n_years = 30, 20
    ages = np.arange(n_ages)
    alpha = -5.0 + 0.03 * ages
    beta = np.full(n_ages, 1.0 / n_ages)
    kappa = np.linspace(4.0, -4.0, n_years)
    kappa -= kappa.mean()
    log_m = alpha[:, None] + np.outer(beta, kappa)
    surface = make_surface(log_m)
    lc = fit_lc(surface)
    lcs = fit_lcs(smooth(surface, SmoothConfig(monotone_from=None)))
    assert lcs.name == "lcs"
    np.testing.assert_allclose(_alpha(lcs), _alpha(lc), atol=1e-6)
    np.testing.assert_allclose(_beta(lcs), _beta(lc), atol=1e-6)
    np.testing.assert_allclose(_kappa(lcs), _kappa(lc), atol=1e-5)


def test_lcs_raises_explained_variance_on_noisy_data():
    surface, _, _, _ = rank1_surface(n_ages=25, n_years=30, seed=6, noise=0.08)
    lc = fit_lc(surface)
    lcs = fit_lcs(smooth(surface, SmoothConfig(monotone_from=None)))
    assert lcs.explained_shares[0] > lc.explained_shares[0]


# ---------------------------------------------------------------------------
# forecasting


def test_forecast_constant_kappa_zero_width():
    ages = np.arange(4)
    alpha = -4.0 + 0.2 * ages
    log_m = np.tile(alpha[:, None], (1, 6))
    model = fit_lc(make_surface(log_m))
    fc = forecast_fdm(model, TsSpec(), horizon=5)
    np.testing.assert_allclose(fc.point, np.tile(alpha[:, None], (1, 5)),
                               atol=1e-12)
    np.testing.assert_allclose(fc.upper - fc.lower, 0.0, atol=1e-12)


def test_forecast_continues_linear_kappa():
    surface, alpha, beta, kappa = rank1_surface(n_ages=8, n_years=12, seed=4)
    model = fit_lc(surface)
    fc = forecast_fdm(model, TsSpec(), horizon=4)
    step = kappa[1] - kappa[0]
    for h in range(1, 5):
        expected = alpha + beta * (kappa[-1] + h * step)
        np.testing.assert_allclose(fc.point[:, h - 1], expected, atol=1e-8)


def test_forecast_interval_closed_form():
    # small enough to check the interval bound arithmetic by hand
    surface, alpha, beta, kappa = rank1_surface(n_ages=3, n_years=5, seed=10,
                                                noise=0.05)
    model = fit_lc(surface)
    h = 3
    fc = forecast_fdm(model, TsSpec(), horizon=h, level=95.0)
    diffs = np.diff(_kappa(model))
    drift = diffs.mean()
    s2 = np.sum((diffs - drift) ** 2) / (len(_kappa(model)) - 2)
    z = normal_quantile(0.975)
    for step in range(1, h + 1):
        k_hat = _kappa(model)[-1] + step * drift
        k_var = step * s2 + step**2 * s2 / (len(_kappa(model)) - 1)
        expected_lower = _alpha(model) + _beta(model) * k_hat - z * np.abs(_beta(model)) * np.sqrt(k_var)
        np.testing.assert_allclose(fc.lower[:, step - 1], expected_lower, atol=1e-10)


def test_forecast_years_label():
    surface, _, _, _ = rank1_surface(n_ages=5, n_years=8, seed=0,
                                     first_year=1990)
    fc = forecast_fdm(fit_lc(surface), TsSpec(), horizon=3)
    assert list(fc.years) == [1998, 1999, 2000]
