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
from hypothesis import example, given, settings, strategies as st

import mortforecast.fdm
from mortforecast.fdm import ForecastSurface, bootstrap_intervals, fit_fdm, forecast_fdm
from mortforecast.numerics import SettingsError
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
    np.testing.assert_allclose(model.center, mu, atol=1e-8)
    _assert_same_up_to_sign(model.basis[:, 0], model.coefficients[:, 0], phi1, b1, 1e-8)
    _assert_same_up_to_sign(model.basis[:, 1], model.coefficients[:, 1], phi2, b2, 1e-8)
    np.testing.assert_allclose(model.residuals, 0.0, atol=1e-8)

    want_shares = np.array([b1 @ b1, b2 @ b2])
    want_shares = want_shares / want_shares.sum()
    np.testing.assert_allclose(model.explained_shares, want_shares, atol=1e-8)
    assert model.explained_shares[0] > model.explained_shares[1]


def test_first_component_sums_positive():
    surface, _, _, _ = _two_component_surface()
    model = fit_fdm(smooth(surface, NO_MONOTONE), K=2)
    assert model.basis[:, 0].sum() > 0.0


def test_phi_orthonormal():
    rng = np.random.default_rng(42)
    log_m = rng.standard_normal((15, 20)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=3)
    gram = model.basis.T @ model.basis
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_beta_columns_centered():
    rng = np.random.default_rng(8)
    log_m = rng.standard_normal((12, 18)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=4)
    assert np.abs(model.coefficients.mean(axis=0)).max() < 1e-10


def test_reconstruction_identity():
    rng = np.random.default_rng(3)
    log_m = rng.standard_normal((10, 14)) - 4.0
    smoothed = smooth(make_surface(log_m), NO_MONOTONE)
    model = fit_fdm(smoothed, K=2)
    np.testing.assert_allclose(model.fitted_log_rates() + model.residuals,
                               smoothed.log_rates, atol=1e-12)
    by_hand = model.center[:, None] + model.basis @ model.coefficients.T + model.residuals
    np.testing.assert_allclose(by_hand, smoothed.log_rates, atol=1e-12)


def test_v_is_mean_squared_model_error():
    rng = np.random.default_rng(5)
    log_m = rng.standard_normal((9, 11)) - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    np.testing.assert_allclose(model.v, (model.residuals**2).mean(axis=1),
                               atol=1e-14)


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
    with pytest.raises(SettingsError, match="needs 1 <= K <= 5 on a 6 x 8 surface, got K = 0"):
        fit_fdm(smooth(surface, NO_MONOTONE), K=0)
    with pytest.raises(SettingsError, match="needs 1 <= K <= 5 on a 6 x 8 surface, got K = 6"):
        fit_fdm(smooth(surface, NO_MONOTONE), K=6)


def test_constant_years_degenerate():
    x = np.arange(8, dtype=float)
    log_m = np.tile((-4.0 - 0.05 * x)[:, None], (1, 9))
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    np.testing.assert_array_equal(model.coefficients, 0.0)
    np.testing.assert_allclose(model.explained_shares, [1.0, 0.0], atol=1e-12)
    fc = forecast_fdm(model, TsSpec(), horizon=3)
    np.testing.assert_allclose(fc.point, np.tile(model.center[:, None], (1, 3)),
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
    point = np.tile(model.center[:, None], (1, horizon))
    for k in range(model.K):
        fit = fit_ts(model.coefficients[:, k], spec)
        mean_k, var_k = forecast_ts(fit, horizon)
        coeff_var += np.outer(model.basis[:, k] ** 2, var_k)
        point += np.outer(model.basis[:, k], mean_k)
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


@pytest.mark.parametrize("level", [50.0, 99.9, 100.0, 150.0, -10.0])
@pytest.mark.parametrize("entry", [
    forecast_fdm, lambda *args: bootstrap_intervals(*args, B=100, seed=1)],
    ids=["forecast_fdm", "bootstrap_intervals"])
def test_level_rule_comes_before_the_quantile(entry, level):
    # a level of 100 or more once reached the normal quantile first, and
    # raised its "probability must lie strictly between 0 and 1"
    rng = np.random.default_rng(31)
    log_m = rng.standard_normal((6, 10)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m, first_year=1980), NO_MONOTONE), K=1)
    with pytest.raises(ValueError, match=rf"^level must be in \(50, 99\.9\), got {level}$"):
        entry(model, TsSpec(), 3, level)


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
    for first, last, message in (
            (1989, 1991, "window 1989:1991 outside the surface's years 1990:1994"),
            (1993, 1995, "window 1993:1995 outside the surface's years 1990:1994"),
            (1993, 1992, "window 1993:1992 ends before it starts")):
        with pytest.raises(SettingsError, match=f"^{message}$"):
            fc.slice_years(first, last)


def test_forecast_invariant_under_component_sign_flip():
    rng = np.random.default_rng(37)
    log_m = rng.standard_normal((8, 12)) * 0.3 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=2)
    phi = model.basis.copy()
    beta = model.coefficients.copy()
    phi[:, 1] *= -1.0
    beta[:, 1] *= -1.0
    flipped = dataclasses.replace(model, basis=phi, coefficients=beta)
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
    # every allocation together stays under 1.5 times one (ages, horizon,
    # B) float64 array, the size of all replicates at once; the test below
    # holds the bootstrap to its per-worker buffers
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
    # each of the two workers reuses two (rows, B) buffers of at most 8
    # ages, one horizon at a time, so its memory does not grow with the
    # horizon; only the shared (horizon, K, B) coefficient paths, the
    # model-error columns and each block's noise sequences do
    model = _hmd_scale_model()
    B = 2000
    for horizon in (30, 60):
        sample_bytes = len(model.ages) * horizon * B * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            bootstrap_intervals(model, TsSpec(), horizon=horizon, B=B, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 0.12 * sample_bytes, horizon


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
    # three age blocks; each worker's first block generator waits for the
    # other worker's, so both hold a block when one of them fails
    model = _small_model()
    real_default_rng = np.random.default_rng
    both_hold_a_block = threading.Barrier(2, timeout=30)
    threads_before = set(threading.enumerate())
    calls = []

    def default_rng(seed=None):
        if not isinstance(seed, np.random.SeedSequence):
            # the caller's generator for the coefficient paths
            return real_default_rng(seed)
        in_caller = threading.current_thread() is threading.main_thread()
        calls.append(in_caller)
        if calls.count(in_caller) == 1:
            both_hold_a_block.wait()
        if (failing_thread == "caller") == in_caller:
            raise RuntimeError(f"block generator failed in the {failing_thread}")
        if in_caller:
            for thread in set(threading.enumerate()) - threads_before:
                thread.join(timeout=30)
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    with pytest.raises(RuntimeError, match=f"failed in the {failing_thread}"):
        bootstrap_intervals(model, TsSpec(), horizon=3, B=100, seed=4)
    assert set(threading.enumerate()) == threads_before
    if failing_thread == "helper":
        # the helper's failure left the caller no third block
        assert sorted(calls) == [False, True]
    monkeypatch.undo()
    bootstrap_intervals(model, TsSpec(), horizon=3, B=100, seed=4)
    assert set(threading.enumerate()) == threads_before


def _identical_ages_model(n_ages=24, n_years=14):
    """Every age has the same mu, sigma2 and phi row, and no model error,
    so ages differ only in the observational noise they draw."""
    model = _small_model(n_ages=n_ages, n_years=n_years, K=1)
    trend = np.linspace(1.0, -1.0, n_years)
    return dataclasses.replace(
        model, center=np.full(n_ages, -4.0), basis=np.full((n_ages, 1), n_ages ** -0.5),
        coefficients=(trend + 0.1 * np.sin(np.arange(n_years)))[:, None],
        v=np.zeros(n_ages), sigma2=np.full(n_ages, 0.01),
        residuals=np.zeros((n_ages, n_years)))


class _IdleThread(threading.Thread):
    """Starts only when joined, so the caller takes every block first."""

    def start(self):
        pass

    def join(self, timeout=None):
        self.run()


def test_bootstrap_blocks_draw_independent_noise(monkeypatch):
    model = _identical_ages_model()
    block = np.arange(24) // 8  # 24 ages make three blocks of 8
    two_workers = bootstrap_intervals(model, TsSpec(), horizon=3, B=200, seed=8)
    for bound in (two_workers.lower, two_workers.upper):
        for x in range(24):
            # a block that repeated another's noise would repeat its bounds
            assert not np.any(bound[block != block[x]] == bound[x])

    monkeypatch.setattr(mortforecast.fdm.threading, "Thread", _IdleThread)
    one_worker = bootstrap_intervals(model, TsSpec(), horizon=3, B=200, seed=8)
    np.testing.assert_array_equal(one_worker.lower, two_workers.lower)
    np.testing.assert_array_equal(one_worker.upper, two_workers.upper)


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
            if not (np.array_equal(got.lower, want[seed].lower)
                    and np.array_equal(got.upper, want[seed].upper)):
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


def _window_noise(rng, rows, horizon, B):
    """Each age's one (B + horizon - 1) sequence, replicate r at horizon
    j reading its entry j + r."""
    z = rng.standard_normal((rows, B + horizon - 1))
    return np.stack([z[:, j:j + B] for j in range(horizon)], axis=1)


def _per_cell_noise(rng, rows, horizon, B):
    """A fresh draw for every (age, horizon, replicate) cell, as the
    bootstrap drew before it read one sequence per age."""
    return rng.standard_normal((rows, horizon, B))


def _reference_bootstrap_intervals(model, ts_spec, horizon, level, B, seed,
                                   noise=_window_noise):
    """The single-array bootstrap that the age-block version replaced:
    every replicate accumulated in one (ages, horizon, B) array, both
    bounds in one quantile pass over it. The noise is each age block's
    own ``noise`` from its own stream, concatenated in age order."""
    analytic = forecast_fdm(model, ts_spec, horizon, level)
    fits = [fit_ts(model.coefficients[:, k], ts_spec) for k in range(model.K)]
    sigma = np.sqrt(np.maximum(model.sigma2, 0.0))
    rng = np.random.default_rng(seed)
    curves = np.empty((horizon, model.K, B))
    for k, fit in enumerate(fits):
        picks = rng.integers(0, len(fit.residuals), size=(horizon, B))
        curves[:, k] = simulate_path(fit, horizon, fit.residuals[picks])
    error_cols = rng.integers(0, len(model.years), size=(horizon, B))
    n_ages = len(model.ages)
    n_blocks = -(-n_ages // mortforecast.fdm._BLOCK_ROWS)
    edges = [i * n_ages // n_blocks for i in range(n_blocks + 1)]
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    samples = np.concatenate([
        noise(np.random.default_rng(child), b - a, horizon, B)
        for a, b, child in zip(edges, edges[1:], children)])
    samples *= sigma[:, None, None]
    samples += model.center[:, None, None]
    for j in range(horizon):
        samples[:, j] += model.basis @ curves[j]
        samples[:, j] += model.residuals[:, error_cols[j]]
    alpha = 1.0 - level / 100.0
    lower, upper = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0],
                               axis=-1, overwrite_input=True)
    lower = np.minimum(lower, analytic.point)
    upper = np.maximum(upper, analytic.point)
    return ForecastSurface(ages=model.ages, years=analytic.years,
                           point=analytic.point, variance=analytic.variance,
                           lower=lower, upper=upper, level=level)


@settings(deadline=None, max_examples=40)
# the benchmark's scale: 111 ages in 14 blocks, h = 30, K = 4, B = 2000
@example(n_ages=111, horizon=30, K=4, B=2000, seed=7, spec="rwd")
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
    np.testing.assert_array_equal(got.lower, want.lower)
    np.testing.assert_array_equal(got.upper, want.upper)


class _PositionRng:
    """Draws each position's own index, so every noise entry names the
    stream position it was read from."""

    def standard_normal(self, shape):
        return np.arange(np.prod(shape), dtype=float).reshape(shape)


@pytest.mark.parametrize("horizon", [1, 7, 150])
def test_noise_reads_distinct_stream_positions(horizon):
    rows, B = 3, 100
    z = mortforecast.fdm._block_noise(_PositionRng(), np.ones(rows), np.zeros(rows), horizon, B)
    assert z.shape == (rows, B + horizon - 1)
    # horizon j's replicates read z[:, j:j + B], as the bootstrap's worker
    # reads them; noise[i, j, r] is the position replicate r reads there
    noise = np.stack([z[:, j:j + B] for j in range(horizon)], axis=1)
    # each (age, horizon) cell reads B distinct positions
    assert np.all(np.diff(np.sort(noise, axis=2), axis=2) > 0)
    # each replicate's path at one age reads horizon distinct positions
    assert np.all(np.diff(np.sort(noise, axis=1), axis=1) > 0)
    # an age reads its own B + horizon - 1 positions, shared with no other age
    per_age = [np.unique(noise[i]) for i in range(rows)]
    assert all(p.size == B + horizon - 1 for p in per_age)
    assert np.unique(noise).size == rows * (B + horizon - 1)


def test_window_noise_keeps_the_per_cell_law():
    # per-cell draws are the law the window must keep. The schemes run on
    # disjoint seeds: on equal ones they would share coefficient paths and
    # even some draws, and their bounds would not be independent. The
    # observational noise is made a large share of the spread.
    model = dataclasses.replace(_small_model(n_ages=12, K=1),
                                sigma2=np.linspace(0.01, 0.09, 12))
    horizon, B, n = 4, 200, 60

    def bounds(bootstrap, seeds):
        return np.array([[fc.lower, fc.upper] for fc in map(bootstrap, seeds)])

    window = bounds(lambda seed: bootstrap_intervals(model, TsSpec(), horizon, 95.0, B, seed),
                    range(n))
    per_cell = bounds(lambda seed: _reference_bootstrap_intervals(
        model, TsSpec(), horizon, 95.0, B, seed, _per_cell_noise), range(1000, 1000 + n))
    z = ((window.mean(axis=0) - per_cell.mean(axis=0))
         / np.sqrt((window.var(axis=0, ddof=1) + per_cell.var(axis=0, ddof=1)) / n))
    # 96 cells, each near a standard normal under the same law: |z| over
    # 4 anywhere has under a 1% chance
    assert np.abs(z).max() < 4.0
    assert 0.7 < z.std() < 1.3
    sd_ratio = window.std(axis=0, ddof=1) / per_cell.std(axis=0, ddof=1)
    assert 0.85 < np.median(sd_ratio) < 1.15


@settings(deadline=None, max_examples=200)
@given(n=st.integers(2, 3000), q=st.floats(0.0, 0.9995), q2=st.floats(0.0, 0.9995),
       seed=st.integers(0, 2**31), nan_row=st.booleans())
def test_read_quantile_matches_np_quantile(n, q, q2, seed, nan_row):
    # the bootstrap's read off sorted rows: the order statistics gathered
    # as its worker gathers them, then interpolated, against numpy's
    # linear method, both interpolation branches and a row holding a NaN
    rows = np.random.default_rng(seed).standard_normal((3, 2, n))
    if nan_row:
        rows[1, 0, n // 2] = np.nan
    probs = [q, q2]
    want = np.quantile(rows, probs, axis=-1)
    rows.sort(axis=-1)
    columns = mortforecast.fdm._quantile_columns(n, probs)
    stats = np.empty((3, 2, len(columns)))
    np.take(rows, columns, axis=-1, out=stats)
    got = np.empty((2, 3, 2))
    mortforecast.fdm._read_quantiles(stats, n, probs, out=got)
    np.testing.assert_array_equal(got, want)


def test_bootstrap_rejects_tiny_B():
    rng = np.random.default_rng(59)
    log_m = rng.standard_normal((6, 9)) * 0.2 - 4.0
    model = fit_fdm(smooth(make_surface(log_m), NO_MONOTONE), K=1)
    with pytest.raises(SettingsError, match="^need at least 100 bootstrap replicates, got 50$"):
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
    assert not fit_ts(model.coefficients[:, 0], spec).stationary
    fc = bootstrap_intervals(model, spec, horizon=6, B=200, seed=5)
    assert np.all(np.isfinite(fc.lower)) and np.all(np.isfinite(fc.upper))
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
    assert np.all(fc.upper > fc.lower)
