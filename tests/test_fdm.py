"""Functional decomposition fit, forecast variance, and bootstrap.

Recovery fixtures keep every year's curve affine in age so the
penalized smoother is an exact pass-through and the component
extraction sees the constructed surface unchanged.
"""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mortforecast.fdm
from mortforecast.fdm import ForecastSurface, bootstrap_intervals, fit_fdm, forecast_fdm
from mortforecast.smoothing import SmoothConfig
from mortforecast.tsforecast import TsSpec, fit_ts, forecast_ts, simulate_path

from conftest import make_surface, smooth

NO_MONOTONE = SmoothConfig(monotone_from=None)


def _two_component_surface(n_ages=20, n_years=12):
    """mu affine, phi1 constant, phi2 linear, betas centered and
    mutually orthogonal. Exact SVD by construction."""
    x = np.arange(n_ages, dtype=float)
    t = np.arange(n_years, dtype=float)
    mu = -5.0 + 0.02 * x
    phi1 = np.full(n_ages, 1.0 / np.sqrt(n_ages))
    ctr = x - x.mean()
    phi2 = ctr / np.linalg.norm(ctr)
    b1 = 3.0 * (t - t.mean())
    q = (t - t.mean()) ** 2
    q = q - q.mean()  # centered; orthogonal to b1 because t is symmetric
    b2 = 0.3 * q
    log_m = mu[:, None] + np.outer(phi1, b1) + np.outer(phi2, b2)
    surface = make_surface(log_m)
    return surface, mu, (phi1, phi2), (b1, b2)


def _assert_same_up_to_sign(got_phi, got_beta, want_phi, want_beta, atol):
    direct = max(np.abs(got_phi - want_phi).max(), np.abs(got_beta - want_beta).max())
    flipped = max(np.abs(got_phi + want_phi).max(), np.abs(got_beta + want_beta).max())
    assert min(direct, flipped) < atol


def test_two_component_recovery():
    surface, mu, (phi1, phi2), (b1, b2) = _two_component_surface()
    model = fit_fdm(smooth(surface, NO_MONOTONE), K=2)
    np.testing.assert_allclose(model.mu, mu, atol=1e-8)
    _assert_same_up_to_sign(model.phi[:, 0], model.beta_series[:, 0], phi1, b1, 1e-8)
    _assert_same_up_to_sign(model.phi[:, 1], model.beta_series[:, 1], phi2, b2, 1e-8)
    np.testing.assert_allclose(model.model_errors, 0.0, atol=1e-8)

    want_shares = np.array([b1 @ b1, b2 @ b2])
    want_shares = want_shares / want_shares.sum()
    np.testing.assert_allclose(model.explained_shares, want_shares, atol=1e-8)
    assert model.explained_shares[0] > model.explained_shares[1]


def test_first_component_sums_positive():
    surface, _, _, _ = _two_component_surface()
    model = fit_fdm(smooth(surface, NO_MONOTONE), K=2)
    assert model.phi[:, 0].sum() > 0.0


def test_phi_orthonormal():
    rng = np.random.default_rng(42)
    log_m = rng.standard_normal((15, 20)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=3)
    gram = model.phi.T @ model.phi
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_beta_columns_centered():
    rng = np.random.default_rng(8)
    log_m = rng.standard_normal((12, 18)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=4)
    assert np.abs(model.beta_series.mean(axis=0)).max() < 1e-10


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    log_m = rng.standard_normal((10, 14)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    np.testing.assert_allclose(model.reconstruct(), model.smoothed_log, atol=1e-12)
    by_hand = model.mu[:, None] + model.phi @ model.beta_series.T + model.model_errors
    np.testing.assert_allclose(by_hand, model.smoothed_log, atol=1e-12)


def test_v_is_mean_squared_model_error():
    rng = np.random.default_rng(5)
    log_m = rng.standard_normal((9, 11)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    np.testing.assert_allclose(model.v, (model.model_errors**2).mean(axis=1),
                               atol=1e-14)
    np.testing.assert_allclose(model.sigma2_mu, model.v / 11, atol=1e-14)


def test_leading_share_stable_in_K():
    rng = np.random.default_rng(17)
    log_m = rng.standard_normal((10, 12)) - 4.0
    surface = make_surface(log_m)
    one = fit_fdm(smooth(surface, NO_MONOTONE), K=1)
    three = fit_fdm(smooth(surface, NO_MONOTONE), K=3)
    assert one.explained_shares[0] == pytest.approx(three.explained_shares[0],
                                                    abs=1e-12)


def test_K_bounds():
    surface = make_surface(np.full((6, 8), -3.0))
    with pytest.raises(ValueError, match="K must be at least 1"):
        fit_fdm(smooth(surface, NO_MONOTONE), K=0)
    with pytest.raises(ValueError, match="too large"):
        fit_fdm(smooth(surface, NO_MONOTONE), K=6)


def test_constant_years_degenerate():
    x = np.arange(8, dtype=float)
    log_m = np.tile((-4.0 - 0.05 * x)[:, None], (1, 9))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    np.testing.assert_array_equal(model.beta_series, 0.0)
    np.testing.assert_allclose(model.explained_shares, [1.0, 0.0], atol=1e-12)
    fc = forecast_fdm(model, TsSpec(), horizon=3)
    np.testing.assert_allclose(fc.point, np.tile(model.mu[:, None], (1, 3)),
                               atol=1e-10)


# ---------------------------------------------------------------------------
# forecast variance


def test_forecast_variance_term_sum():
    rng = np.random.default_rng(23)
    log_m = rng.standard_normal((6, 8)) * 0.3 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    spec = TsSpec()
    horizon = 4
    fc = forecast_fdm(model, spec, horizon=horizon)

    # reassemble the four variance pieces one by one
    coeff_var = np.zeros((len(model.ages), horizon))
    point = np.tile(model.mu[:, None], (1, horizon))
    for k in range(model.K):
        fit = fit_ts(model.beta_series[:, k], spec)
        mean_k, var_k = forecast_ts(fit, horizon)
        coeff_var += np.outer(model.phi[:, k] ** 2, var_k)
        point += np.outer(model.phi[:, k], mean_k)
    expected = (model.v[:, None] / len(model.years)  # mean-curve estimate
                + coeff_var                          # coefficient forecasts
                + model.v[:, None]                   # model error
                + model.sigma2[:, None])             # observational noise
    np.testing.assert_allclose(fc.variance, expected, atol=1e-12)
    np.testing.assert_allclose(fc.point, point, atol=1e-12)


def test_forecast_variance_monotone_in_horizon():
    rng = np.random.default_rng(29)
    log_m = rng.standard_normal((7, 15)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    fc = forecast_fdm(model, TsSpec(), horizon=8)
    assert np.all(np.diff(fc.variance, axis=1) >= -1e-15)


def test_forecast_bounds_and_years():
    rng = np.random.default_rng(31)
    log_m = rng.standard_normal((6, 10)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m, first_year=1980), NO_MONOTONE), K=1)
    fc = forecast_fdm(model, TsSpec(), horizon=3, level=80.0)
    assert list(fc.years) == [1990, 1991, 1992]
    assert np.all(fc.lower < fc.point) and np.all(fc.point < fc.upper)
    wide = forecast_fdm(model, TsSpec(), horizon=3, level=99.0)
    assert np.all(wide.upper - wide.lower > fc.upper - fc.lower)


def test_slice_years_keeps_the_chosen_years():
    rng = np.random.default_rng(31)
    log_m = rng.standard_normal((6, 10)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m, first_year=1980), NO_MONOTONE), K=1)
    fc = forecast_fdm(model, TsSpec(), horizon=5, level=80.0)
    part = fc.slice_years(1992, 1993)
    assert list(part.years) == [1992, 1993]
    for name in ("point", "variance", "lower", "upper"):
        assert getattr(part, name).shape == (6, 2)
        np.testing.assert_array_equal(getattr(part, name), getattr(fc, name)[:, 2:4])
    np.testing.assert_array_equal(part.ages, fc.ages)
    assert part.level == 80.0
    np.testing.assert_array_equal(fc.slice_years(1990, 1994).point, fc.point)
    for first, last in ((1989, 1991), (1993, 1995), (1993, 1992)):
        with pytest.raises(ValueError, match="outside the forecast years"):
            fc.slice_years(first, last)


def test_forecast_invariant_under_component_sign_flip():
    rng = np.random.default_rng(37)
    log_m = rng.standard_normal((8, 12)) * 0.3 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    phi = model.phi.copy()
    beta = model.beta_series.copy()
    phi[:, 1] *= -1.0
    beta[:, 1] *= -1.0
    flipped = dataclasses.replace(model, phi=phi, beta_series=beta)
    a = forecast_fdm(model, TsSpec(), horizon=5)
    b = forecast_fdm(flipped, TsSpec(), horizon=5)
    np.testing.assert_allclose(a.point, b.point, atol=1e-12)
    np.testing.assert_allclose(a.variance, b.variance, atol=1e-12)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_same_seed_is_identical():
    rng = np.random.default_rng(41)
    log_m = rng.standard_normal((6, 10)) * 0.3 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    a = bootstrap_intervals(model, TsSpec(), horizon=4, B=120, seed=9)
    b = bootstrap_intervals(model, TsSpec(), horizon=4, B=120, seed=9)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)
    c = bootstrap_intervals(model, TsSpec(), horizon=4, B=120, seed=10)
    assert np.any(c.lower != a.lower)


def test_bootstrap_noiseless_collapses():
    # exact one-component surface with a linear coefficient path: no
    # innovation, model, or observation noise anywhere, so every
    # replicate equals the point forecast
    n_ages, n_years = 10, 12
    x = np.arange(n_ages, dtype=float)
    t = np.arange(n_years, dtype=float)
    mu = -4.5 + 0.01 * x
    phi1 = np.full(n_ages, 1.0 / np.sqrt(n_ages))
    b1 = 2.0 * (t - t.mean())
    log_m = mu[:, None] + np.outer(phi1, b1)
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    fc = bootstrap_intervals(model, TsSpec(), horizon=5, B=150, seed=1)
    assert (fc.upper - fc.lower).max() < 1e-8


def test_bootstrap_width_tracks_analytic():
    rng = np.random.default_rng(53)
    n_ages, n_years = 8, 30
    x = np.arange(n_ages, dtype=float)
    trend = np.linspace(3.0, -3.0, n_years)
    log_m = (-4.0 - 0.02 * x)[:, None] + 0.04 * trend[None, :]
    log_m = log_m + 0.05 * rng.standard_normal((n_ages, n_years))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    analytic = forecast_fdm(model, TsSpec(), horizon=5)
    boot = bootstrap_intervals(model, TsSpec(), horizon=5, B=2000, seed=3)
    ratio = (boot.upper - boot.lower).mean() / (analytic.upper - analytic.lower).mean()
    assert 0.8 < ratio < 1.2


def _ar_noised_two_component_surface(seed, n_ages=8, n_years=30):
    """A declining first coefficient and a flat second one, each carrying
    AR(1) noise, plus a little independent noise per cell."""
    rng = np.random.default_rng(seed)
    x = np.arange(n_ages, dtype=float)
    shocks = rng.standard_normal((2, n_years))
    ar = np.zeros((2, n_years))
    for t in range(1, n_years):
        ar[:, t] = 0.5 * ar[:, t - 1] + shocks[:, t]
    b1 = np.linspace(3.0, -3.0, n_years) + 0.5 * ar[0]
    b2 = ar[1]
    log_m = ((-4.0 - 0.02 * x)[:, None] + 0.04 * b1[None, :]
             + 0.01 * (x - x.mean())[:, None] * b2[None, :])
    return log_m + 0.01 * rng.standard_normal((n_ages, n_years))


@pytest.mark.parametrize("seed", [53, 54, 55])
@pytest.mark.parametrize("spec", ["ar:1,0", "ar:1,1"])
def test_ar_bootstrap_width_tracks_analytic(spec, seed):
    log_m = _ar_noised_two_component_surface(seed)
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    ts_spec = TsSpec.parse(spec)
    analytic = forecast_fdm(model, ts_spec, horizon=5)
    boot = bootstrap_intervals(model, ts_spec, horizon=5, B=2000, seed=3)
    ratio = (boot.upper - boot.lower).mean() / (analytic.upper - analytic.lower).mean()
    assert 0.8 < ratio < 1.2


def test_bootstrap_memory_stays_near_one_sample_array():
    # the replicates live in one (ages, horizon, B) float64 array; every
    # other allocation together must stay under half of it
    n_ages, n_years, horizon, B = 111, 40, 30, 2000
    rng = np.random.default_rng(67)
    x = np.arange(n_ages, dtype=float)
    trend = np.linspace(2.0, -2.0, n_years)
    log_m = ((-9.0 + 0.08 * x)[:, None] + 0.05 * trend[None, :]
             + 0.02 * rng.standard_normal((n_ages, n_years)))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=4)
    sample_bytes = n_ages * horizon * B * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fc = bootstrap_intervals(model, TsSpec(), horizon=horizon, B=B, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fc.lower.shape == (n_ages, horizon)
    assert peak <= 1.5 * sample_bytes


def _hmd_scale_model():
    """The 111-age, K=4 model of the memory test above."""
    n_ages, n_years = 111, 40
    rng = np.random.default_rng(67)
    x = np.arange(n_ages, dtype=float)
    trend = np.linspace(2.0, -2.0, n_years)
    log_m = ((-9.0 + 0.08 * x)[:, None] + 0.05 * trend[None, :]
             + 0.02 * rng.standard_normal((n_ages, n_years)))
    return fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=4)


def test_bootstrap_memory_stays_near_two_age_blocks():
    # each of the two workers reuses one buffer of at most 8 ages of
    # replicates; nothing of the full (ages, horizon, B) size is allocated
    model = _hmd_scale_model()
    horizon, B = 30, 2000
    sample_bytes = len(model.ages) * horizon * B * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        bootstrap_intervals(model, TsSpec(), horizon=horizon, B=B, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * sample_bytes


def test_bootstrap_fits_each_coefficient_series_once(monkeypatch):
    rng = np.random.default_rng(43)
    log_m = rng.standard_normal((9, 14)) * 0.3 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=3)
    calls = []

    def counting_fit_ts(series, spec):
        calls.append(spec)
        return fit_ts(series, spec)

    monkeypatch.setattr(mortforecast.fdm, "fit_ts", counting_fit_ts)
    bootstrap_intervals(model, TsSpec(), horizon=4, B=100, seed=2)
    assert len(calls) == model.K


def _small_model(n_ages=24, n_years=14, K=2, seed=71):
    rng = np.random.default_rng(seed)
    log_m = rng.standard_normal((n_ages, n_years)) * 0.3 - 4.0
    return fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=K)


@pytest.mark.parametrize("failing_thread", ["helper", "caller"])
def test_bootstrap_worker_error_reaches_caller(monkeypatch, failing_thread):
    # three age blocks; each worker's first quantile waits for the other
    # worker's, so both hold a block when one of them fails
    model = _small_model()
    real_quantile = np.quantile
    both_hold_a_block = threading.Barrier(2, timeout=30)
    threads_before = set(threading.enumerate())
    calls = []

    def quantile(*args, **kwargs):
        in_caller = threading.current_thread() is threading.main_thread()
        calls.append(in_caller)
        if calls.count(in_caller) == 1:
            both_hold_a_block.wait()
        if (failing_thread == "caller") == in_caller:
            raise RuntimeError(f"quantile failed in the {failing_thread}")
        if in_caller:
            for thread in set(threading.enumerate()) - threads_before:
                thread.join(timeout=30)
        return real_quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", quantile)
    with pytest.raises(RuntimeError, match=f"failed in the {failing_thread}"):
        bootstrap_intervals(model, TsSpec(), horizon=3, B=100, seed=4)
    assert set(threading.enumerate()) == threads_before
    if failing_thread == "helper":
        # the helper's failure left the caller no third block
        assert sorted(calls) == [False, True]
    monkeypatch.undo()
    bootstrap_intervals(model, TsSpec(), horizon=3, B=100, seed=4)
    assert set(threading.enumerate()) == threads_before


def test_concurrent_bootstraps_match_reference():
    # four callers at once run eight workers on fewer cores, with thread
    # switches forced often; a block drawn out of age order or a bound
    # written to the wrong rows would break agreement with the reference
    model = _small_model(n_ages=40)
    seeds = [11, 12, 13, 14]
    want = {seed: _reference_bootstrap_intervals(model, TsSpec(), 5, 95.0, 200, seed)
            for seed in seeds}
    mismatched = []

    def run(seed):
        for _ in range(10):
            got = bootstrap_intervals(model, TsSpec(), horizon=5, B=200, seed=seed)
            if not (np.allclose(got.lower, want[seed].lower, rtol=0, atol=1e-12)
                    and np.allclose(got.upper, want[seed].upper, rtol=0, atol=1e-12)):
                mismatched.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert mismatched == []


def _reference_bootstrap_intervals(model, ts_spec, horizon, level, B, seed):
    """The single-array bootstrap that the age-block version replaced:
    every replicate accumulated in one (ages, horizon, B) array, both
    bounds in one quantile pass over it."""
    analytic = forecast_fdm(model, ts_spec, horizon, level)
    fits = [fit_ts(model.beta_series[:, k], ts_spec) for k in range(model.K)]
    sigma = np.sqrt(np.maximum(model.sigma2, 0.0))
    rng = np.random.default_rng(seed)
    curves = np.empty((horizon, model.K, B))
    for k, fit in enumerate(fits):
        picks = rng.integers(0, len(fit.residuals), size=(horizon, B))
        curves[:, k] = simulate_path(fit, horizon, fit.residuals[picks])
    error_cols = rng.integers(0, len(model.years), size=(horizon, B))
    samples = rng.standard_normal((len(model.ages), horizon, B))
    samples *= sigma[:, None, None]
    samples += model.mu[:, None, None]
    for j in range(horizon):
        samples[:, j] += model.phi @ curves[j]
        samples[:, j] += model.model_errors[:, error_cols[j]]
    alpha = 1.0 - level / 100.0
    lower, upper = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0],
                               axis=-1, overwrite_input=True)
    lower = np.minimum(lower, analytic.point)
    upper = np.maximum(upper, analytic.point)
    return ForecastSurface(ages=model.ages, years=analytic.years,
                           point=analytic.point, variance=analytic.variance,
                           lower=lower, upper=upper, level=level)


@settings(deadline=None, max_examples=40)
@given(n_ages=st.one_of(st.integers(4, 40), st.sampled_from([9, 17, 25, 33])),
       horizon=st.integers(1, 8), K=st.integers(1, 3), B=st.integers(100, 400),
       seed=st.integers(0, 2**31), spec=st.sampled_from(["rwd", "ar:1,0", "ar:1,1"]))
def test_bootstrap_matches_single_array_reference(n_ages, horizon, K, B, seed, spec):
    rng = np.random.default_rng(seed)
    x = np.arange(n_ages, dtype=float)
    trend = np.linspace(2.0, -2.0, 16)
    log_m = ((-6.0 + 0.08 * x)[:, None] + 0.05 * trend[None, :]
             + 0.05 * rng.standard_normal((n_ages, 16)))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=K)
    ts_spec = TsSpec.parse(spec)
    got = bootstrap_intervals(model, ts_spec, horizon, 90.0, B, seed)
    want = _reference_bootstrap_intervals(model, ts_spec, horizon, 90.0, B, seed)
    np.testing.assert_array_equal(got.point, want.point)
    np.testing.assert_array_equal(got.variance, want.variance)
    np.testing.assert_allclose(got.lower, want.lower, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.upper, want.upper, rtol=0, atol=1e-12)


def test_bootstrap_rejects_tiny_B():
    rng = np.random.default_rng(59)
    log_m = rng.standard_normal((6, 9)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    with pytest.raises(ValueError, match="at least 100"):
        bootstrap_intervals(model, TsSpec(), horizon=3, B=50)


def test_bootstrap_explosive_ar_fit_stays_finite():
    # a coefficient path growing like 1.3^t fits an AR(1) root inside the
    # unit circle; the fit is flagged, not rejected, and the simulated
    # intervals stay finite around the point forecast
    rng = np.random.default_rng(61)
    x = np.arange(8, dtype=float)
    t = np.arange(16, dtype=float)
    log_m = ((-4.0 + 0.05 * x)[:, None] - 0.02 * 1.3 ** t[None, :]
             + 0.01 * rng.standard_normal((8, 16)))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    spec = TsSpec(p=1, d=0)
    assert not fit_ts(model.beta_series[:, 0], spec).stationary
    fc = bootstrap_intervals(model, spec, horizon=6, B=200, seed=5)
    assert np.all(np.isfinite(fc.lower)) and np.all(np.isfinite(fc.upper))
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
    assert np.all(fc.upper > fc.lower)
