import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.evaluate import forecast_model
from mortforecast.fdm import FittedModel
from mortforecast.numerics import SettingsError
from mortforecast.tsforecast import TsFit, TsSpec, fit_ts, forecast_ts, simulate_path


# ---------------------------------------------------------------------------
# random walk with drift


def test_rwd_deterministic_line():
    fit = fit_ts([0.0, 1.0, 2.0, 3.0, 4.0], TsSpec())
    assert fit.drift == pytest.approx(1.0)
    assert fit.innovation_variance == pytest.approx(0.0)
    point, var = forecast_ts(fit, 3)
    np.testing.assert_allclose(point, [5.0, 6.0, 7.0])
    np.testing.assert_allclose(var, 0.0)


def test_rwd_hand_computed_variance():
    # differences (2, -1, 2) about drift 1: squared residuals (1, 4, 1),
    # denominator n-2 = 2 so the variance is 3
    fit = fit_ts([0.0, 2.0, 1.0, 3.0], TsSpec())
    assert fit.drift == pytest.approx(1.0)
    assert fit.innovation_variance == pytest.approx(3.0)
    np.testing.assert_allclose(fit.residuals, [1.0, -2.0, 1.0])


def test_rwd_constant_series():
    fit = fit_ts(np.full(10, 4.2), TsSpec())
    assert fit.drift == 0.0
    assert fit.innovation_variance == 0.0


def test_rwd_variance_formula():
    fit = fit_ts(np.zeros(26), TsSpec())
    fit = fit.__class__(**{**fit.__dict__, "innovation_variance": 1.0})
    _, var = forecast_ts(fit, 30)
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
        fit = fit_ts(path[:n], TsSpec())
        point, var = forecast_ts(fit, h)
        errs[r] = path[n - 1 + h] - point[-1]
    expected_var = h * sigma**2 + h**2 * sigma**2 / (n - 1)
    assert errs.var() == pytest.approx(expected_var, rel=0.12)


def test_rwd_variance_monotone():
    fit = fit_ts([0.0, 2.0, 1.0, 3.0, 2.5, 4.0], TsSpec())
    _, var = forecast_ts(fit, 10)
    assert np.all(np.diff(var) > 0)


def test_rwd_needs_three_points():
    with pytest.raises(SettingsError, match="at least 3"):
        fit_ts([1.0, 2.0], TsSpec())


@settings(deadline=None, max_examples=50)
@given(
    shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_rwd_shift_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(rng.standard_normal(12))
    p0, v0 = forecast_ts(fit_ts(series, TsSpec()), 5)
    p1, v1 = forecast_ts(fit_ts(series + shift, TsSpec()), 5)
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
    p0, v0 = forecast_ts(fit_ts(series, TsSpec()), 5)
    p1, v1 = forecast_ts(fit_ts(gamma * series, TsSpec()), 5)
    np.testing.assert_allclose(p1, gamma * p0, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(v1, gamma**2 * v0, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# AR on differences


# AR(0) in closed form: a random walk (d=1) or white noise (d=0), about
# the mean with drift or about zero without. fit_ts runs p = 0 through
# AR(p)'s lag regression with no lag columns, and must reproduce all four
# bit for bit.


def _reference_fit_p0(series, spec) -> TsFit:
    arr = np.asarray(series, dtype=float)
    n = len(arr)
    z = np.diff(arr) if spec.d else arr
    drift = float(z.mean()) if spec.include_drift else 0.0
    residuals = z - drift
    # n - 2 for the random walk with drift: the level and the drift
    sigma2 = float(np.sum(residuals**2) / (n - spec.d - spec.include_drift))
    return TsFit(spec=spec, drift=drift, ar_coeffs=np.empty(0),
                 innovation_variance=sigma2, residuals=residuals,
                 last_level=float(arr[-1]), diff_tail=np.empty(0), n_diff=len(z),
                 stationary=True)


def _reference_forecast_p0(fit: TsFit, h: int):
    ks = np.arange(1, h + 1, dtype=float)
    s2, drift = fit.innovation_variance, fit.spec.include_drift
    if fit.spec.d == 0:
        return np.full(h, fit.drift), np.full(h, s2) + (s2 / fit.n_diff if drift else 0.0)
    return (fit.last_level + ks * fit.drift,
            ks * s2 + (ks**2 * s2 / fit.n_diff if drift else 0.0))


def _reference_simulate_p0(fit: TsFit, innovations):
    if fit.spec.d == 0:
        return fit.drift + innovations
    ks = np.arange(1, innovations.shape[0] + 1, dtype=float)[:, None]
    return fit.last_level + ks * fit.drift + np.cumsum(innovations, axis=0)


@settings(deadline=None, max_examples=80)
@given(
    series=st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=3, max_size=40),
    h=st.integers(min_value=1, max_value=40),
    B=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ar_p0_d1_equals_rwd(series, h, B, seed):
    innovations = np.random.default_rng(seed).standard_normal((h, B))
    for spec in (TsSpec(), TsSpec(0, 0, True), TsSpec(0, 0, False), TsSpec(0, 1, False)):
        ar = fit_ts(series, spec)
        want = _reference_fit_p0(series, spec)
        for field, value in want.__dict__.items():
            assert np.array_equal(getattr(ar, field), value), (spec, field)
        for got, expect in zip(forecast_ts(ar, h), _reference_forecast_p0(want, h)):
            assert np.array_equal(got, expect), spec
        assert np.array_equal(simulate_path(ar, h, innovations),
                              _reference_simulate_p0(want, innovations)), spec


def _reference_psi(coeffs, h):
    psi = np.zeros(h)
    psi[0] = 1.0
    for j in range(1, h):
        upto = min(j, len(coeffs))
        psi[j] = float(np.dot(coeffs[:upto], psi[j - 1::-1][:upto]))
    return psi


@settings(deadline=None, max_examples=80)
@given(
    p=st.integers(min_value=1, max_value=3),
    d=st.sampled_from([0, 1]),
    include_drift=st.booleans(),
    n=st.integers(min_value=12, max_value=40),
    h=st.integers(min_value=1, max_value=30),
    scale=st.floats(min_value=0.01, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ar_point_and_variance_within_tolerance_of_psi_weights(p, d, include_drift, n, h,
                                                               scale, seed):
    # on d = 1 with drift the point adds k drifts to the running sum of the
    # centered differences; it used to sum drift + centered step by step. The two
    # differ by rounding only: at most 1e-12 absolute on a stationary fit
    # to a series of this scale, at most 1e-13 of the largest point on an
    # explosive one. The variance is read off the path recursion's response
    # to one unit innovation, where it used to come from psi weights summed
    # by np.dot: the same products, summed in the same order at p = 1, so
    # equal bit for bit there, and within the fingerprints' 1e-12 at p >= 2
    rng = np.random.default_rng(seed)
    series = scale * np.cumsum(0.2 + rng.standard_normal(n))
    fit = fit_ts(series, TsSpec(p=p, d=d, include_drift=include_drift))
    point, variance = forecast_ts(fit, h)
    summed = _reference_path(fit, h, np.zeros(h))
    tolerance = 1e-12 if fit.stationary else 1e-13 * np.max(np.abs(summed))
    np.testing.assert_allclose(point, summed, rtol=0, atol=tolerance)
    psi = _reference_psi(fit.ar_coeffs, h)
    weights = np.cumsum(psi) if d == 1 else psi
    ks = np.arange(1, h + 1, dtype=float) ** d
    sigma2 = fit.innovation_variance
    drift_variance = ks**2 * sigma2 / fit.n_diff if include_drift else 0.0
    expected = sigma2 * np.cumsum(weights**2) + drift_variance
    if p == 1:
        assert np.array_equal(variance, expected)
    else:
        np.testing.assert_allclose(variance, expected, rtol=1e-12, atol=0)


def test_ar1_recovery():
    rng = np.random.default_rng(3)
    phi = 0.5
    z = np.zeros(500)
    for t in range(1, 500):
        z[t] = phi * z[t - 1] + rng.standard_normal()
    fit = fit_ts(z, TsSpec(p=1, d=0, include_drift=False))
    assert abs(fit.ar_coeffs[0] - phi) < 0.05
    assert fit.stationary


def test_ar_tiny_regression_by_hand():
    # 4 points, d=1 -> differences (1, -1, 2); with drift the demeaned
    # series is (1/3, -5/3, 4/3); one lag, two usable rows:
    #   y = (-5/3, 4/3), x = (1/3, -5/3)
    # phi = sum(xy)/sum(x^2) = (-5/9 - 20/9) / (1/9 + 25/9) = -25/26
    series = np.array([0.0, 1.0, 0.0, 2.0])
    fit = fit_ts(series, TsSpec(p=1, d=1, include_drift=True))
    assert fit.ar_coeffs[0] == pytest.approx(-25.0 / 26.0)


def test_ar1_closed_form_forecast():
    # AR(1), no differencing, no drift: point phi^h * last, variance
    # s2 * (1 - phi^(2h)) / (1 - phi^2)
    rng = np.random.default_rng(5)
    z = np.zeros(200)
    for t in range(1, 200):
        z[t] = 0.6 * z[t - 1] + rng.standard_normal()
    fit = fit_ts(z, TsSpec(p=1, d=0, include_drift=False))
    phi = fit.ar_coeffs[0]
    s2 = fit.innovation_variance
    point, var = forecast_ts(fit, 12)
    hs = np.arange(1, 13)
    np.testing.assert_allclose(point, phi**hs * z[-1], atol=1e-10)
    np.testing.assert_allclose(var, s2 * (1 - phi ** (2 * hs)) / (1 - phi**2),
                               atol=1e-10)


def test_ar_one_step_variance_is_innovation_variance():
    series = np.array([0.0, 2.0, 1.0, 3.0, 2.0, 4.5, 3.5, 5.0])
    for spec in (TsSpec(p=1, d=0, include_drift=False),
                 TsSpec(p=2, d=1, include_drift=False)):
        fit = fit_ts(series, spec)
        _, var = forecast_ts(fit, 1)
        assert var[0] == pytest.approx(fit.innovation_variance)


def test_ar_explosive_flagged():
    # a strongly trending path on d=0 fits an AR root inside the unit circle
    series = 1.5 ** np.arange(12)
    fit = fit_ts(series, TsSpec(p=1, d=0, include_drift=False))
    assert not fit.stationary


def test_ar_needs_enough_points():
    with pytest.raises(SettingsError, match="observations"):
        fit_ts(np.arange(3.0), TsSpec(p=1, d=1))
    # the message names the model as the CLI's --ts errors do
    for spec, described in ((TsSpec(), "a random walk with drift"),
                            (TsSpec(include_drift=False), "AR(0) on d=1 differences")):
        message = f"need at least 3 observations (p+d+2) for {described}, got 2"
        with pytest.raises(SettingsError, match=f"^{re.escape(message)}$"):
            fit_ts(np.arange(2.0), spec)


def test_ar_singular_regression():
    with pytest.raises(ValueError, match="singular"):
        fit_ts(np.zeros(10), TsSpec(p=1, d=0, include_drift=False))


@pytest.mark.parametrize("spec,described", [
    (TsSpec(p=1), "AR(1) on d=1 differences"),
    (TsSpec(p=1, d=0), "AR(1) on d=0 differences"),
    (TsSpec(p=2, include_drift=True), "AR(2) on d=1 differences"),
])
def test_singular_lag_regression_is_a_settings_error_naming_the_spec(spec, described):
    # a constant series leaves every lag column zero; the library entry
    # raises the message the CLI prints, and forecast_model puts the
    # model's name first, as for every SettingsError
    message = (f"{described} cannot be fitted: singular lag regression; series has no "
               "usable variation")
    with pytest.raises(SettingsError, match=f"^{re.escape(message)}$"):
        fit_ts(np.full(10, 3.0), spec)
    flat = FittedModel(name="lc", ages=np.arange(3), years=np.arange(2000, 2010),
                       center=np.full(3, -4.0), basis=np.full((3, 1), 1.0 / 3.0),
                       coefficients=np.zeros((10, 1)), residuals=np.zeros((3, 10)),
                       v=np.zeros(3), sigma2=np.zeros(3), explained_shares=np.ones(1),
                       explained_rss=1.0)
    with pytest.raises(SettingsError, match=f"^{re.escape('lc: ' + message)}$"):
        forecast_model(flat, spec, 5)


# ---------------------------------------------------------------------------
# simulate_path and specs


def test_simulate_path_zero_innovations_is_point_forecast():
    series = np.array([1.0, 2.5, 2.0, 4.0, 3.5, 5.5])
    for spec in (TsSpec(), TsSpec(p=1, d=1, include_drift=True),
                 TsSpec(p=2, d=0, include_drift=True)):
        fit = fit_ts(series, spec)
        point, _ = forecast_ts(fit, 7)
        np.testing.assert_allclose(simulate_path(fit, 7, np.zeros(7)), point, atol=1e-12)


def test_simulate_path_rwd_accumulates_innovations():
    fit = fit_ts([0.0, 1.0, 2.0, 3.0], TsSpec())
    path = simulate_path(fit, 3, np.array([0.5, -0.5, 1.0]))
    np.testing.assert_allclose(path, [4.5, 5.0, 7.0])


def test_simulate_path_rejects_wrong_shape():
    fit = fit_ts([0.0, 1.0, 2.0, 3.0], TsSpec())
    for shape in ((2,), (4,), (2, 5), (3, 2, 2)):
        with pytest.raises(ValueError, match="shape"):
            simulate_path(fit, 3, np.zeros(shape))


# ---------------------------------------------------------------------------
# batched paths against the scalar path generator


def _reference_path(fit, h, innovations):
    """The scalar path generator the batched one replaced: the AR
    recursion on a Python list buffer, one innovation at a time."""
    if fit.spec == TsSpec():
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
        st.builds(TsSpec, p=st.integers(0, 3),
                  d=st.sampled_from([0, 1]), include_drift=st.booleans()),
    ),
    h=st.integers(min_value=1, max_value=12),
    B=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_simulate_path_batch_matches_reference(spec, h, B, seed):
    rng = np.random.default_rng(seed)
    series = np.cumsum(0.2 + rng.standard_normal(25))
    fit = fit_ts(series, spec)
    innovations = rng.choice(fit.residuals, size=(h, B))
    _assert_columns_match_reference(fit, innovations)


def test_simulate_path_batch_matches_reference_explosive_ar():
    series = 1.5 ** np.arange(12)
    fit = fit_ts(series, TsSpec(p=1, d=0, include_drift=False))
    assert not fit.stationary
    rng = np.random.default_rng(17)
    _assert_columns_match_reference(fit, rng.choice(fit.residuals, size=(30, 8)))


def test_spec_parse():
    assert TsSpec.parse("rwd") == TsSpec()
    assert TsSpec.parse("ar:2,1") == TsSpec(p=2, d=1,
                                            include_drift=False)
    assert TsSpec.parse("ar:1,0,drift") == TsSpec(p=1, d=0,
                                                  include_drift=True)
    assert TsSpec.parse("arima:3") == TsSpec(p=3, d=1,
                                             include_drift=False)
    # case and blanks around the name, the numbers and the drift flag are free
    assert TsSpec.parse("  AR: 2 , 0 , DRIFT ") == TsSpec(p=2, d=0, include_drift=True)
    assert TsSpec.parse("arima:1,0,drift") == TsSpec(p=1, d=0, include_drift=True)
    for bad in ("", "walk", "ar:", "ar:x,1", "ar", "ar:1,", "ar:,1", "ar:1,1,1", "arma:1",
                "ar:drift"):
        message = f"cannot parse time-series spec {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TsSpec.parse(bad)
    with pytest.raises(ValueError, match="^d must be 0 or 1$"):
        TsSpec.parse("ar:1,2")


def test_spec_validation():
    with pytest.raises(ValueError):
        TsSpec(p=-1)
    with pytest.raises(ValueError):
        TsSpec(d=2)

