import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.tsforecast import (
    TsSpec,
    fit_ar,
    fit_rwd,
    forecast_ar,
    forecast_rwd,
    forecast_ts,
    simulate_path,
)


# ---------------------------------------------------------------------------
# random walk with drift


def test_rwd_deterministic_line():
    fit = fit_rwd([0.0, 1.0, 2.0, 3.0, 4.0])
    assert fit.drift == pytest.approx(1.0)
    assert fit.innovation_variance == pytest.approx(0.0)
    point, var = forecast_rwd(fit, 3)
    np.testing.assert_allclose(point, [5.0, 6.0, 7.0])
    np.testing.assert_allclose(var, 0.0)


def test_rwd_hand_computed_variance():
    # differences (2, -1, 2) about drift 1: squared residuals (1, 4, 1),
    # denominator n-2 = 2 so the variance is 3
    fit = fit_rwd([0.0, 2.0, 1.0, 3.0])
    assert fit.drift == pytest.approx(1.0)
    assert fit.innovation_variance == pytest.approx(3.0)
    np.testing.assert_allclose(fit.residuals, [1.0, -2.0, 1.0])


def test_rwd_constant_series():
    fit = fit_rwd(np.full(10, 4.2))
    assert fit.drift == 0.0
    assert fit.innovation_variance == 0.0


def test_rwd_variance_formula():
    fit = fit_rwd(np.zeros(26))
    fit = fit.__class__(**{**fit.__dict__, "innovation_variance": 1.0})
    _, var = forecast_rwd(fit, 30)
    assert var[-1] == pytest.approx(30.0 + 900.0 / 25.0)  # 66


def test_rwd_variance_matches_monte_carlo():
    # simulate many RWD histories, fit each, forecast, and compare the
    # spread of realized h-step outcomes around the forecast with the
    # claimed variance h*s2 + h^2*s2/(n-1)
    rng = np.random.default_rng(12)
    n, h, reps = 40, 8, 4000
    drift, sigma = 0.3, 1.0
    errs = np.empty(reps)
    for r in range(reps):
        steps = drift + sigma * rng.standard_normal(n - 1 + h)
        path = np.concatenate([[0.0], np.cumsum(steps)])
        fit = fit_rwd(path[:n])
        point, var = forecast_rwd(fit, h)
        errs[r] = path[n - 1 + h] - point[-1]
    expected_var = h * sigma**2 + h**2 * sigma**2 / (n - 1)
    assert errs.var() == pytest.approx(expected_var, rel=0.12)


def test_rwd_variance_monotone():
    fit = fit_rwd([0.0, 2.0, 1.0, 3.0, 2.5, 4.0])
    _, var = forecast_rwd(fit, 10)
    assert np.all(np.diff(var) > 0)


def test_rwd_needs_three_points():
    with pytest.raises(ValueError, match="at least 3"):
        fit_rwd([1.0, 2.0])


@settings(deadline=None, max_examples=50)
@given(
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rwd_shift_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.standard_normal(12))
    p0, v0 = forecast_rwd(fit_rwd(series), 5)
    p1, v1 = forecast_rwd(fit_rwd(series + shift), 5)
    np.testing.assert_allclose(p1, p0 + shift, atol=1e-8 * (1 + abs(shift)))
    np.testing.assert_allclose(v1, v0, atol=1e-10)


@settings(deadline=None, max_examples=50)
@given(
    gamma=st.floats(min_value=0.01, max_value=50, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rwd_scale_equivariance(gamma, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.standard_normal(12))
    p0, v0 = forecast_rwd(fit_rwd(series), 5)
    p1, v1 = forecast_rwd(fit_rwd(gamma * series), 5)
    np.testing.assert_allclose(p1, gamma * p0, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(v1, gamma**2 * v0, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# AR on differences


def test_ar_p0_d1_equals_rwd():
    series = np.array([0.0, 2.0, 1.0, 3.0, 2.0, 4.5])
    rwd = fit_rwd(series)
    ar = fit_ar(series, TsSpec(family="arima", p=0, d=1, include_drift=True))
    assert ar.drift == pytest.approx(rwd.drift)
    assert ar.innovation_variance == pytest.approx(rwd.innovation_variance)
    p_rwd, v_rwd = forecast_rwd(rwd, 6)
    p_ar, v_ar = forecast_ar(ar, 6)
    np.testing.assert_allclose(p_ar, p_rwd, atol=1e-12)
    np.testing.assert_allclose(v_ar, v_rwd, atol=1e-12)


def test_ar1_recovery():
    rng = np.random.default_rng(3)
    phi = 0.5
    z = np.zeros(500)
    for t in range(1, 500):
        z[t] = phi * z[t - 1] + rng.standard_normal()
    fit = fit_ar(z, TsSpec(family="arima", p=1, d=0, include_drift=False))
    assert abs(fit.ar_coeffs[0] - phi) < 0.05
    assert fit.stationary


def test_ar_tiny_regression_by_hand():
    # 4 points, d=1 -> differences (1, -1, 2); with drift the demeaned
    # series is (1/3, -5/3, 4/3); one lag, two usable rows:
    #   y = (-5/3, 4/3), x = (1/3, -5/3)
    # phi = sum(xy)/sum(x^2) = (-5/9 - 20/9) / (1/9 + 25/9) = -25/26
    series = np.array([0.0, 1.0, 0.0, 2.0])
    fit = fit_ar(series, TsSpec(family="arima", p=1, d=1, include_drift=True))
    assert fit.ar_coeffs[0] == pytest.approx(-25.0 / 26.0)


def test_ar1_closed_form_forecast():
    # AR(1), no differencing, no drift: point phi^h * last, variance
    # s2 * (1 - phi^(2h)) / (1 - phi^2)
    rng = np.random.default_rng(5)
    z = np.zeros(200)
    for t in range(1, 200):
        z[t] = 0.6 * z[t - 1] + rng.standard_normal()
    fit = fit_ar(z, TsSpec(family="arima", p=1, d=0, include_drift=False))
    phi = fit.ar_coeffs[0]
    s2 = fit.innovation_variance
    point, var = forecast_ar(fit, 12)
    hs = np.arange(1, 13)
    np.testing.assert_allclose(point, phi**hs * z[-1], atol=1e-10)
    np.testing.assert_allclose(var, s2 * (1 - phi ** (2 * hs)) / (1 - phi**2),
                               atol=1e-10)


def test_ar_one_step_variance_is_innovation_variance():
    series = np.array([0.0, 2.0, 1.0, 3.0, 2.0, 4.5, 3.5, 5.0])
    for spec in (TsSpec(family="arima", p=1, d=0, include_drift=False),
                 TsSpec(family="arima", p=2, d=1, include_drift=False)):
        fit = fit_ar(series, spec)
        _, var = forecast_ar(fit, 1)
        assert var[0] == pytest.approx(fit.innovation_variance)


def test_ar_explosive_flagged():
    # a strongly trending path on d=0 fits an AR root inside the unit circle
    series = 1.5 ** np.arange(12)
    fit = fit_ar(series, TsSpec(family="arima", p=1, d=0, include_drift=False))
    assert not fit.stationary


def test_ar_needs_enough_points():
    with pytest.raises(ValueError, match="observations"):
        fit_ar(np.arange(3.0), TsSpec(family="arima", p=1, d=1))


def test_ar_singular_regression():
    with pytest.raises(ValueError, match="singular"):
        fit_ar(np.zeros(10), TsSpec(family="arima", p=1, d=0, include_drift=False))


# ---------------------------------------------------------------------------
# simulate_path and specs


def test_simulate_path_zero_innovations_is_point_forecast():
    series = np.array([1.0, 2.5, 2.0, 4.0, 3.5, 5.5])
    for spec in (TsSpec(), TsSpec(family="arima", p=1, d=1, include_drift=True),
                 TsSpec(family="arima", p=2, d=0, include_drift=True)):
        fit = fit_ar(series, spec) if spec.family == "arima" else fit_rwd(series)
        point, _ = forecast_ts(fit, 7)
        np.testing.assert_allclose(simulate_path(fit, 7), point, atol=1e-12)


def test_simulate_path_rwd_accumulates_innovations():
    fit = fit_rwd([0.0, 1.0, 2.0, 3.0])
    path = simulate_path(fit, 3, np.array([0.5, -0.5, 1.0]))
    np.testing.assert_allclose(path, [4.5, 5.0, 7.0])


def test_simulate_path_rejects_wrong_shape():
    fit = fit_rwd([0.0, 1.0, 2.0, 3.0])
    for shape in ((2,), (4,), (2, 5), (3, 2, 2)):
        with pytest.raises(ValueError, match="shape"):
            simulate_path(fit, 3, np.zeros(shape))


# ---------------------------------------------------------------------------
# batched paths against the scalar path generator


def _reference_path(fit, h, innovations):
    """The scalar path generator the batched one replaced: the AR
    recursion on a Python list buffer, one innovation at a time."""
    if fit.spec.family == "rwd":
        ks = np.arange(1, h + 1, dtype=float)
        return fit.last_level + ks * fit.drift + np.cumsum(innovations)
    buffer = list(fit.diff_tail)
    p = len(fit.ar_coeffs)
    centered = np.empty(h)
    for k in range(h):
        value = float(innovations[k])
        for i in range(p):
            value += fit.ar_coeffs[i] * buffer[-1 - i]
        buffer.append(value)
        centered[k] = value
    if fit.spec.d == 1:
        return fit.last_level + np.cumsum(fit.drift + centered)
    return fit.drift + centered


def _assert_columns_match_reference(fit, innovations):
    h = innovations.shape[0]
    paths = simulate_path(fit, h, innovations)
    assert paths.shape == innovations.shape
    for b in range(innovations.shape[1]):
        np.testing.assert_allclose(paths[:, b], _reference_path(fit, h, innovations[:, b]),
                                   rtol=1e-12, atol=1e-12)


@settings(deadline=None, max_examples=80)
@given(
    spec=st.one_of(
        st.just(TsSpec()),
        st.builds(TsSpec, family=st.just("arima"), p=st.integers(0, 3),
                  d=st.sampled_from([0, 1]), include_drift=st.booleans()),
    ),
    h=st.integers(min_value=1, max_value=12),
    B=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_simulate_path_batch_matches_reference(spec, h, B, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(0.2 + rng.standard_normal(25))
    fit = fit_rwd(series) if spec.family == "rwd" else fit_ar(series, spec)
    innovations = rng.choice(fit.residuals, size=(h, B))
    _assert_columns_match_reference(fit, innovations)


def test_simulate_path_batch_matches_reference_explosive_ar():
    series = 1.5 ** np.arange(12)
    fit = fit_ar(series, TsSpec(family="arima", p=1, d=0, include_drift=False))
    assert not fit.stationary
    rng = np.random.default_rng(17)
    _assert_columns_match_reference(fit, rng.choice(fit.residuals, size=(30, 8)))


def test_spec_parse():
    assert TsSpec.parse("rwd") == TsSpec(family="rwd")
    assert TsSpec.parse("ar:2,1") == TsSpec(family="arima", p=2, d=1,
                                            include_drift=False)
    assert TsSpec.parse("ar:1,0,drift") == TsSpec(family="arima", p=1, d=0,
                                                  include_drift=True)
    assert TsSpec.parse("arima:3") == TsSpec(family="arima", p=3, d=1,
                                             include_drift=False)
    for bad in ("", "walk", "ar:", "ar:x,1", "ar:1,2"):
        with pytest.raises(ValueError):
            TsSpec.parse(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        TsSpec(family="arima", p=-1)
    with pytest.raises(ValueError):
        TsSpec(family="arima", d=2)
    with pytest.raises(ValueError):
        TsSpec(family="garch")
