"""Error metrics, residual tests, and the backtest harness."""

import math
import re

import numpy as np
import pytest
import scipy.stats
from scipy import special
from hypothesis import given, settings, strategies as st

from mortforecast import evaluate, tsforecast
from mortforecast.evaluate import (MODELS, error_metrics, fit_models, forecast_model,
                                   normality_test, run_backtest, standardize_residuals)
from mortforecast.lifetable import E0RangeError, e0_path
from mortforecast.numerics import SettingsError
from mortforecast.smoothing import SmoothConfig
from mortforecast.tsforecast import TsSpec

from conftest import hmdgen_surface, make_surface, rank1_surface


def test_perfect_fit_is_all_zero():
    rng = np.random.default_rng(1)
    log_m = rng.standard_normal((6, 9)) - 4.0
    surface = make_surface(log_m)
    report = error_metrics(surface, log_m)
    for table in (report.by_age, report.by_year):
        np.testing.assert_array_equal(table.me, 0.0)
        np.testing.assert_array_equal(table.mse, 0.0)
        np.testing.assert_array_equal(table.mpe, 0.0)
        np.testing.assert_array_equal(table.mape, 0.0)
    assert report.avg_across_ages == (0.0, 0.0, 0.0, 0.0)
    assert report.excluded_cells == 0


def test_two_by_two_by_hand():
    # observed log rates and errors chosen so every average is a short
    # pencil-and-paper fraction
    Y = np.array([[1.0, -1.0],
                  [2.0, 2.0]])
    E = np.array([[-0.1, 0.1],
                  [0.0, 0.2]])
    surface = make_surface(Y)
    report = error_metrics(surface, Y - E)

    np.testing.assert_allclose(report.by_age.me, [0.0, 0.1], atol=1e-12)
    np.testing.assert_allclose(report.by_age.mse, [0.01, 0.02], atol=1e-12)
    np.testing.assert_allclose(report.by_age.mpe, [-0.1, 0.05], atol=1e-12)
    np.testing.assert_allclose(report.by_age.mape, [0.1, 0.05], atol=1e-12)

    np.testing.assert_allclose(report.by_year.me, [-0.05, 0.15], atol=1e-12)
    np.testing.assert_allclose(report.by_year.mse, [0.005, 0.025], atol=1e-12)
    np.testing.assert_allclose(report.by_year.mpe, [-0.05, 0.0], atol=1e-12)
    np.testing.assert_allclose(report.by_year.mape, [0.05, 0.1], atol=1e-12)

    np.testing.assert_allclose(report.avg_across_ages,
                               (0.05, 0.015, -0.025, 0.075), atol=1e-12)
    np.testing.assert_allclose(report.avg_across_years,
                               (0.05, 0.015, -0.025, 0.075), atol=1e-12)


def test_zero_log_rate_excluded_from_percent_errors():
    # rate exactly 1.0 makes ln m zero; the percentage metrics skip it
    Y = np.array([[0.0, 0.5],
                  [1.0, 2.0]])
    E = np.array([[0.3, 0.1],
                  [0.1, 0.1]])
    report = error_metrics(make_surface(Y), Y - E)
    assert report.excluded_cells == 1
    np.testing.assert_allclose(report.by_age.mpe[0], 0.1 / 0.5, atol=1e-12)
    np.testing.assert_allclose(report.by_year.mpe[0], 0.1 / 1.0, atol=1e-12)
    # plain errors still count the excluded cell
    np.testing.assert_allclose(report.by_age.me[0], 0.2, atol=1e-12)


def test_all_zero_row_gives_nan_percent_and_nanmean_summary():
    Y = np.array([[0.0, 0.0],
                  [1.0, 2.0]])
    E = np.full((2, 2), 0.1)
    report = error_metrics(make_surface(Y), Y - E)
    assert report.excluded_cells == 2
    assert np.isnan(report.by_age.mpe[0]) and np.isnan(report.by_age.mape[0])
    np.testing.assert_allclose(report.avg_across_ages[3], report.by_age.mape[1],
                               atol=1e-12)


def test_shape_mismatch_rejected():
    surface = make_surface(np.zeros((3, 4)) - 2.0)
    with pytest.raises(ValueError, match="does not match"):
        error_metrics(surface, np.zeros((4, 3)))


@pytest.mark.parametrize("monotone_from", [65, None])
@pytest.mark.parametrize("top", [100, 110])
@pytest.mark.parametrize("seed", [7, 301])
def test_in_sample_mean_error_is_zero_by_construction(seed, top, monotone_from):
    # lc's alpha is each age's row mean and its kappa is centred; the
    # smoother's residuals sum to zero over ages in every year, and fdm's
    # mu absorbs its centred coefficients. So the log-scale ME of every
    # model, averaged across ages or across years, is zero up to rounding
    # (9e-18 to 9.4e-16 at these settings) on any surface
    surface = hmdgen_surface(seed, "total", (0, top), (1922, 2006))
    fitted = fit_models(surface, MODELS, SmoothConfig(monotone_from=monotone_from))
    for name, model in fitted.items():
        report = error_metrics(surface, model.fitted_log_rates())
        assert abs(report.avg_across_ages[0]) <= 1e-12, name
        assert abs(report.avg_across_years[0]) <= 1e-12, name


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_grand_means_equal_cell_mean_when_balanced(seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((5, 7)) + 3.0  # bounded away from zero
    F = Y - rng.standard_normal((5, 7))
    report = error_metrics(make_surface(Y), F)
    cell_mean = (Y - F).mean()
    assert report.avg_across_ages[0] == pytest.approx(cell_mean, abs=1e-12)
    assert report.avg_across_years[0] == pytest.approx(cell_mean, abs=1e-12)


# ---------------------------------------------------------------------------
# residual tests


def test_standardize_scales_to_unit_sd():
    rng = np.random.default_rng(2)
    r = rng.standard_normal((4, 6)) * 3.0 + 0.5
    z = standardize_residuals(r)
    assert z.shape == (24,)
    assert z.std(ddof=1) == pytest.approx(1.0, abs=1e-12)
    # centering is not applied; the mean is rescaled, not removed
    assert z.mean() == pytest.approx(r.mean() / r.std(ddof=1), abs=1e-12)


def test_standardize_constant_input():
    z = standardize_residuals(np.full((3, 3), 2.0))
    np.testing.assert_array_equal(z, np.full(9, 2.0))


def test_normality_calibration_under_the_null():
    rejections = 0
    for seed in range(100):
        x = np.random.default_rng(seed).standard_normal(500)
        _, p = normality_test(x)
        if p <= 0.05:
            rejections += 1
    assert rejections <= 10


def test_normality_rejects_bimodal():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-3.0, 0.2, 250), rng.normal(3.0, 0.2, 250)])
    W, p = normality_test(x)
    assert W < 0.9
    assert p < 1e-3


def test_normality_matches_scipy():
    for seed, n in [(0, 20), (1, 80), (2, 500), (3, 4000)]:
        x = np.random.default_rng(seed).standard_normal(n)
        W, p = normality_test(x)
        ref = scipy.stats.shapiro(x)
        assert W == pytest.approx(ref.statistic, abs=1e-6)
        assert p == pytest.approx(ref.pvalue, abs=1e-4)


# W and p from the Acklam-quantile, erfc-CDF kernel this one replaced;
# "ratio" samples are normal over |normal|, heavy-tailed
PREVIOUS_NORMALITY = [
    (0, 3, "normal", 0.96445987303014, 0.6377840746944351),
    (1, 4, "normal", 0.8253968912785233, 0.15611353741376832),
    (2, 11, "ratio", 0.8073257425504701, 0.011745947992702512),
    (3, 12, "normal", 0.919730862382956, 0.28369168103630427),
    (4, 80, "ratio", 0.41042329096283525, 2.568693353007156e-16),
    (5, 500, "normal", 0.9972204252688882, 0.5641466519050601),
    (6, 5000, "ratio", 0.013103216241395318, 1.53488071660226e-95),
    (7, 5000, "normal", 0.9997422082935821, 0.8267812769823208),
]


@pytest.mark.parametrize("seed,n,kind,W_prev,p_prev", PREVIOUS_NORMALITY)
def test_normality_matches_previous_kernel(seed, n, kind, W_prev, p_prev):
    # stated tolerance for the ndtri/ndtr kernel: W within 2e-15 and p
    # within 1e-11, both relative
    z = np.random.default_rng(seed).standard_normal(2 * n)
    x = z[:n] if kind == "normal" else z[:n] / np.abs(z[n:])
    W, p = normality_test(x)
    assert W == pytest.approx(W_prev, rel=2e-15, abs=0)
    assert p == pytest.approx(p_prev, rel=1e-11, abs=0)


@pytest.mark.parametrize("seed,n,kind", [row[:3] for row in PREVIOUS_NORMALITY])
def test_normality_p_matches_scipy_ndtr(monkeypatch, seed, n, kind):
    # p is the upper normal tail 0.5 erfc(z / sqrt 2) of Royston's z, where
    # scipy's ndtr(-z) was. Run again with erfc(t) read as 2 ndtr(-t sqrt 2),
    # the two p agree to 1e-12 relative: z / sqrt 2 * sqrt 2 moves z by up
    # to an ulp or two, which moves p by about z^2 ulps (9.8e-14 over 200
    # samples of n = 4..5000, z up to about 21)
    z = np.random.default_rng(seed).standard_normal(2 * n)
    x = z[:n] if kind == "normal" else z[:n] / np.abs(z[n:])
    W, p = normality_test(x)
    monkeypatch.setattr(math, "erfc", lambda t: 2.0 * float(special.ndtr(-t * math.sqrt(2.0))))
    assert normality_test(x) == (W, pytest.approx(p, rel=1e-12, abs=0))


def test_normality_input_validation():
    with pytest.raises(ValueError):
        normality_test(np.ones(10))
    with pytest.raises(ValueError):
        normality_test(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        normality_test(np.zeros(5001) + np.arange(5001))


# ---------------------------------------------------------------------------
# backtest


def test_backtest_recovers_noiseless_surface():
    surface, _, _, _ = rank1_surface(n_ages=8, n_years=30, seed=3,
                                     first_year=1950)
    report = run_backtest(surface, models=["lc"], train=(1950, 1969),
                          test=(1970, 1979), ts_spec=TsSpec())
    lc = report.models["lc"]
    assert list(report.years) == list(range(1970, 1980))
    assert report.train_years == (1950, 1969)
    assert lc.errors.shape == (8, 10)
    np.testing.assert_allclose(lc.errors, 0.0, atol=1e-8)
    np.testing.assert_allclose(lc.mean_error_by_age, 0.0, atol=1e-8)


def test_backtest_never_sees_test_years():
    surface, _, _, _ = rank1_surface(n_ages=8, n_years=30, seed=4, noise=0.05,
                                     first_year=1950)
    rigged = surface.rates.copy()
    rigged[:, 20:] *= 10.0  # corrupt only the test window
    corrupted = make_surface(np.log(rigged), first_year=1950)
    kw = dict(models=["lc"], train=(1950, 1969), test=(1970, 1979),
              ts_spec=TsSpec())
    clean_fc = run_backtest(surface, **kw).models["lc"].forecast
    rigged_fc = run_backtest(corrupted, **kw).models["lc"].forecast
    np.testing.assert_array_equal(clean_fc.point, rigged_fc.point)
    np.testing.assert_array_equal(clean_fc.lower, rigged_fc.lower)


def test_backtest_e0_summaries_consistent():
    surface, _, _, _ = rank1_surface(n_ages=12, n_years=25, seed=9, noise=0.08,
                                     first_year=1960)
    report = run_backtest(surface, models=["lc"], train=(1960, 1975),
                          test=(1976, 1984))
    lc = report.models["lc"]
    e0_err = report.e0_observed - lc.e0_interval.point
    assert lc.e0_error_mean == pytest.approx(e0_err.mean(), abs=1e-12)
    assert lc.e0_error_variance == pytest.approx(e0_err.var(ddof=1), abs=1e-12)
    np.testing.assert_allclose(lc.sd_error_by_age,
                               lc.errors.std(axis=1, ddof=1), atol=1e-12)
    assert list(lc.e0_interval.years) == list(range(1976, 1985))


@pytest.mark.parametrize("train,test,first_age,message", [
    ((2000, 2010), (2005, 2015), 0, "must start after the train window ends"),
    ((2010, 2000), (2011, 2015), 0, "^train window 2010:2000 ends before it starts$"),
    ((2000, 2001), (2002, 2015), 0, "train window 2000:2001 spans 2 year"),
    ((1998, 2008), (2009, 2015), 0, "train window 1998:2008 outside the surface's years "
                                    "2000:2019"),
    ((2000, 2008), (2009, 2009), 0, "test window 2009:2009 spans 1 year"),
    ((2000, 2008), (2009, 2020), 0, "test window 2009:2020 outside the surface's years "
                                    "2000:2019"),
    ((2000, 2008), (2009, 2015), 10, "needs ages from 0, got first age 10"),
], ids=["overlap", "reversed", "train_short", "train_outside", "test_short", "test_outside",
        "ages_from_10"])
def test_backtest_window_validation(monkeypatch, train, test, first_age, message):
    # each window rule rejects before anything is fitted
    monkeypatch.setattr(evaluate, "fit_models", None)
    log_m = rank1_surface(n_ages=6, n_years=20, seed=1)[0].log_rates
    surface = make_surface(log_m, first_age=first_age, first_year=2000)
    with pytest.raises(SettingsError, match=message):
        run_backtest(surface, models=["lc"], train=train, test=test)


def test_backtest_unknown_model():
    surface, _, _, _ = rank1_surface(n_ages=6, n_years=20, seed=1,
                                     first_year=2000)
    with pytest.raises(ValueError, match=re.escape(
            "models must be one or more distinct names from ('lc', 'lcs', 'fdm'), "
            "got ['lx']")):
        run_backtest(surface, models=["lx"], train=(2000, 2008), test=(2009, 2015))


@pytest.mark.parametrize("models", [("lc", "lc"), ("fdm", "lcs", "fdm"), ()],
                         ids=["lc_twice", "fdm_twice", "none"])
def test_fit_models_rejects_repeated_or_no_names(models):
    # ("lc", "lc") used to give one fit and () none, where --models rejects both
    surface = hmdgen_surface(7, "total", (0, 100), (1922, 1980))
    with pytest.raises(ValueError, match=re.escape(
            f"models must be one or more distinct names from ('lc', 'lcs', 'fdm'), "
            f"got {models}")):
        fit_models(surface, models)


def test_backtest_ar_d1_drift_within_tolerance_of_summed_drift(monkeypatch):
    # ar:p,1,drift forecasts add k drifts to the running sum of the
    # centered differences. Summing drift + centered step by step, as the
    # level used to be built, moves log-rate points, bounds and errors by
    # at most 1e-12 and e0 by at most 1e-10; variances do not move.
    surface, _, _, _ = rank1_surface(n_ages=12, n_years=30, seed=5, noise=0.03,
                                     first_year=1950)
    kw = dict(models=["lc", "fdm"], train=(1950, 1971), test=(1972, 1979),
              ts_spec=TsSpec.parse("ar:1,1,drift"),
              smooth_config=SmoothConfig(monotone_from=None), K=2,
              bootstrap=100, seed=4)
    report = run_backtest(surface, **kw)

    def summed_drift_level_paths(fit, centered):
        if fit.spec.d == 0:
            return fit.drift + centered
        return fit.last_level + np.cumsum(fit.drift + centered, axis=0)

    monkeypatch.setattr(tsforecast, "_level_paths", summed_drift_level_paths)
    summed = run_backtest(surface, **kw)
    for name in ("lc", "fdm"):
        got, want = report.models[name], summed.models[name]
        for part in ("point", "lower", "upper"):
            np.testing.assert_allclose(getattr(got.forecast, part),
                                       getattr(want.forecast, part), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.errors, want.errors, rtol=0, atol=1e-12)
        assert np.array_equal(got.forecast.variance, want.forecast.variance)
        for part in ("point", "lower", "upper"):
            np.testing.assert_allclose(getattr(got.e0_interval, part),
                                       getattr(want.e0_interval, part), rtol=0, atol=1e-10)


@pytest.fixture(scope="module")
def lc_and_fdm():
    surface, _, _, _ = rank1_surface(n_ages=12, n_years=20, seed=2, noise=0.03)
    return fit_models(surface, ["lc", "fdm"], SmoothConfig(monotone_from=None), K=2)


@pytest.mark.parametrize("horizon", [0, -1])
@pytest.mark.parametrize("bootstrap", [0, 100])
@pytest.mark.parametrize("name", ["lc", "fdm"])
def test_forecast_model_rejects_short_horizon(lc_and_fdm, name, bootstrap, horizon):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        forecast_model(lc_and_fdm[name], TsSpec(), horizon, bootstrap=bootstrap)


@pytest.fixture(scope="module")
def generated_fits():
    """lc, lcs and fdm on generated seed 7, total, ages 0:100, 1922-1980."""
    return fit_models(hmdgen_surface(7, "total", (0, 100), (1922, 1980)), MODELS)


@pytest.mark.parametrize("name,bootstrap", [("lc", 0), ("lcs", 0), ("fdm", 0), ("fdm", 100)])
def test_forecast_model_e0_path_is_e0_path_of_the_sliced_forecast(generated_fits, name,
                                                                   bootstrap):
    model = generated_fits[name]
    full, full_e0 = forecast_model(model, TsSpec(), 26, bootstrap=bootstrap, seed=5)
    forecast, e0 = forecast_model(model, TsSpec(), 26, bootstrap=bootstrap, seed=5,
                                  years=(1990, 2006))
    want = e0_path(full.slice_years(1990, 2006))
    for part in ("years", "point", "lower", "upper"):
        assert np.array_equal(getattr(e0, part), getattr(want, part))
        assert np.array_equal(getattr(full_e0, part), getattr(e0_path(full), part))
    for part in ("point", "variance", "lower", "upper"):
        assert np.array_equal(getattr(forecast, part), getattr(full.slice_years(1990, 2006), part))
    assert list(forecast.years) == list(range(1990, 2007))


@pytest.mark.parametrize("name", MODELS)
def test_forecast_model_has_no_e0_path_without_age_zero(name):
    model = fit_models(hmdgen_surface(7, "total", (5, 100), (1922, 1980)), (name,))[name]
    forecast, e0 = forecast_model(model, TsSpec(), 10)
    assert e0 is None
    assert int(forecast.ages[0]) == 5 and len(forecast.years) == 10


@pytest.mark.parametrize("name", ["lc", "fdm"])
def test_forecast_model_names_the_model_in_e0_range_error(name):
    # the drift carries the lower bounds below exp's range within
    # 100000 years, as in the CLI's --horizon exit 2
    model = fit_models(hmdgen_surface(7, "total", (0, 10), (1922, 2006)), (name,))[name]
    with pytest.raises(SettingsError,
                       match=rf"^{name}: from \d+ its forecast death rates ") as raised:
        forecast_model(model, TsSpec(), 100000)
    assert raised.type is E0RangeError


def test_backtest_builds_life_tables_for_the_test_years_only(monkeypatch):
    # the forecast runs from 1961, but no life table is built for the
    # gap years 1961-1980, whose rates could leave float range alone
    seen = []
    monkeypatch.setattr(evaluate, "e0_path",
                        lambda forecast: seen.append(forecast.years.tolist()) or
                        e0_path(forecast))
    surface = hmdgen_surface(7, "total", (0, 100), (1922, 2006))
    report = run_backtest(surface, MODELS, train=(1922, 1960), test=(1981, 2006))
    assert seen == [list(range(1981, 2007))] * len(MODELS)
    assert list(report.years) == list(range(1981, 2007))
