"""One model type, one decomposition and one recombination for
Lee-Carter and the FDM.

Lee-Carter is the functional demographic model's one-component case,
with no smoothing and no observational-error term (Hyndman & Ullah
2007), so every model is one ``FittedModel``, fits through
``fdm._decompose`` and forecasts through ``fdm._recombine``. The
per-model code that the shared path replaced is kept below as the
oracle, returning plain arrays, and the shared path must give its bits,
compared as int64 so that -0.0 counts: the fitted parameters, the
fitted log rates, the residuals and the explained shares, and each
forecast, Lee-Carter's through the zero variance terms included. The
cross-model tests check the K = 1 identity itself, to a stated tolerance.
"""

import numpy as np
import pytest

from mortforecast.fdm import fit_fdm, forecast_fdm
from mortforecast.leecarter import fit_lc, fit_lcs
from mortforecast.numerics import normal_quantile, svd_thin
from mortforecast.smoothing import SmoothConfig, SmoothedSurface
from mortforecast.tsforecast import TsSpec, fit_ts, forecast_ts

from conftest import hmdgen_surface, make_surface, smooth

# Relative agreement of LC and the K = 1 FDM on one surface. The two
# recenter in different orders (LC normalizes beta first), which moves the
# results by rounding only; the largest gap seen on the generated surfaces
# below was about 5e-14.
_CROSS_RTOL = 1e-10

SPECS = (TsSpec(), TsSpec(p=1, d=1))


# ---------------------------------------------------------------------------
# the per-model code the shared path replaced, kept as the oracle


def _oracle_fit_log_rates(Y):
    """Lee-Carter's alpha, beta, kappa, residuals, singular-value share
    and 1 - RSS/TSS."""
    n_ages, n_years = Y.shape
    if n_years < 3 or n_ages < 3:
        raise ValueError(f"need at least 3 ages and 3 years, got {n_ages} x {n_years}")
    alpha = Y.mean(axis=1)
    Z = Y - alpha[:, None]
    total_ss = float(np.sum(Z**2))

    svd = svd_thin(Z)
    s = svd.singular_values
    scale = max(1.0, float(np.linalg.norm(Y)))
    if s[0] <= 1e-12 * scale:
        return dict(alpha=alpha, beta=np.full(n_ages, 1.0 / n_ages), kappa=np.zeros(n_years),
                    residuals=Z, explained_variance=1.0, explained_variance_rss=1.0)

    u1 = svd.left_vectors[:, 0]
    v1 = svd.right_vectors[:, 0]
    column_sum = float(u1.sum())
    if column_sum < 0:
        u1, v1, column_sum = -u1, -v1, -column_sum
    if column_sum < 1e-10:
        raise ValueError(
            "degenerate fit: the leading age pattern sums to zero, so the "
            "normalization beta = u1 / sum(u1) is undefined"
        )
    beta = u1 / column_sum
    kappa = s[0] * column_sum * v1

    shift = float(kappa.mean())
    kappa = kappa - shift
    alpha = alpha + beta * shift

    residuals = Y - alpha[:, None] - np.outer(beta, kappa)
    ev = float(s[0] ** 2 / np.sum(s**2))
    ev_rss = 1.0 - float(np.sum(residuals**2)) / total_ss if total_ss > 0 else 1.0
    return dict(alpha=alpha, beta=beta, kappa=kappa, residuals=residuals,
                explained_variance=ev, explained_variance_rss=ev_rss)


def _oracle_fit_fdm(smoothed, K):
    """The FDM's mu, phi, beta series, model errors, v, sigma2, shares
    and 1 - RSS/TSS of the model errors."""
    F = smoothed.log_rates
    n_ages, n_years = F.shape
    mu = F.mean(axis=1)
    C = F - mu[:, None]
    svd = svd_thin(C)
    s = svd.singular_values
    total = float(np.sum(s**2))

    phi = np.empty((n_ages, K))
    beta = np.empty((n_years, K))
    for k in range(K):
        u_k = svd.left_vectors[:, k]
        b_k = s[k] * svd.right_vectors[:, k]
        column_sum = float(u_k.sum())
        if abs(column_sum) > 1e-10:
            flip = column_sum < 0
        else:
            flip = u_k[int(np.argmax(np.abs(u_k)))] < 0
        if flip:
            u_k, b_k = -u_k, -b_k
        phi[:, k] = u_k
        beta[:, k] = b_k

    beta_means = beta.mean(axis=0)
    mu = mu + phi @ beta_means
    beta = beta - beta_means

    degenerate = s[0] <= 1e-12 * max(1.0, float(np.linalg.norm(F)))
    if degenerate:
        beta = np.zeros_like(beta)
        shares = np.zeros(K)
        shares[0] = 1.0
    else:
        shares = s[:K] ** 2 / total

    fitted = mu[:, None] + phi @ beta.T
    model_errors = F - fitted
    v = (model_errors**2).mean(axis=1)
    rss = 1.0 if degenerate else 1.0 - float(np.sum(model_errors**2)) / float(np.sum(C**2))
    return dict(mu=mu, phi=phi, beta=beta, v=v, sigma2=smoothed.sigma2,
                explained_shares=shares, model_errors=model_errors, explained_rss=rss)


def _oracle_interval_bounds(point, variance, level):
    z = normal_quantile(0.5 + level / 200.0)
    half = z * np.sqrt(np.maximum(variance, 0.0))
    return point - half, point + half


def _oracle_forecast_lc(lc, ts_spec, horizon, level):
    """The old forecast_lc: kappa's forecast through beta, with no other
    variance term. Returns point, variance, lower and upper."""
    fit = fit_ts(lc["kappa"], ts_spec)
    k_point, k_var = forecast_ts(fit, horizon)
    point = lc["alpha"][:, None] + np.outer(lc["beta"], k_point)
    variance = np.outer(lc["beta"] ** 2, k_var)
    return (point, variance, *_oracle_interval_bounds(point, variance, level))


def _oracle_forecast_fdm(fdm, ts_spec, horizon, level):
    n_years = fdm["beta"].shape[0]
    fits = [fit_ts(fdm["beta"][:, k], ts_spec) for k in range(fdm["beta"].shape[1])]
    forecasts = [forecast_ts(fit, horizon) for fit in fits]
    beta_points = np.array([point for point, _ in forecasts])
    beta_vars = np.array([variance for _, variance in forecasts])
    point = fdm["mu"][:, None] + fdm["phi"] @ beta_points
    variance = (
        (fdm["v"] / n_years)[:, None]
        + (fdm["phi"] ** 2) @ beta_vars
        + fdm["v"][:, None]
        + fdm["sigma2"][:, None]
    )
    return (point, variance, *_oracle_interval_bounds(point, variance, level))


# ---------------------------------------------------------------------------
# helpers


def _assert_bits(got, want):
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _check_forecasts(model, oracle_fit, oracle, specs=SPECS):
    for spec in specs:
        for horizon, level in ((1, 80.0), (20, 95.0)):
            got = forecast_fdm(model, spec, horizon, level)
            want = oracle(oracle_fit, spec, horizon, level)
            for name, values in zip(("point", "variance", "lower", "upper"), want):
                _assert_bits(getattr(got, name), values)
            assert got.level == level
            np.testing.assert_array_equal(got.ages, model.ages)
            np.testing.assert_array_equal(got.years, model.years[-1] + np.arange(1, horizon + 1))


def _check_lc(Y, name, model, specs=SPECS):
    want = _oracle_fit_log_rates(Y)
    assert model.name == name
    assert model.K == 1
    _assert_bits(model.center, want["alpha"])
    _assert_bits(model.basis, want["beta"][:, None])
    _assert_bits(model.coefficients, want["kappa"][:, None])
    _assert_bits(model.residuals, want["residuals"])
    _assert_bits(model.explained_shares, [want["explained_variance"]])
    _assert_bits(model.explained_rss, want["explained_variance_rss"])
    _assert_bits(model.fitted_log_rates(),
                 want["alpha"][:, None] + np.outer(want["beta"], want["kappa"]))
    # no model-error or observational term: the forecast adds zeros
    _assert_bits(model.v, np.zeros(len(Y)))
    _assert_bits(model.sigma2, np.zeros(len(Y)))
    _check_forecasts(model, want, _oracle_forecast_lc, specs)


def _check_fdm(smoothed, K, specs=SPECS):
    model = fit_fdm(smoothed, K)
    want = _oracle_fit_fdm(smoothed, K)
    assert model.name == "fdm"
    assert model.K == K
    for field, key in (("center", "mu"), ("basis", "phi"), ("coefficients", "beta"),
                       ("residuals", "model_errors"), ("v", "v"), ("sigma2", "sigma2"),
                       ("explained_shares", "explained_shares"),
                       ("explained_rss", "explained_rss")):
        _assert_bits(getattr(model, field), want[key])
    _assert_bits(model.fitted_log_rates(), want["mu"][:, None] + want["phi"] @ want["beta"].T)
    _check_forecasts(model, want, _oracle_forecast_fdm, specs)
    return model


HMDGEN_CASES = [
    (20110803, "female", (0, 110), (1922, 2006)),
    (7, "male", (0, 110), (1950, 1989)),
    (301, "total", (0, 90), (1970, 2006)),
]
# every seed, gender and age window over all generated years, plus the
# shorter year windows and the 0:90 ages above: rounding can depend on
# the number of years
ORACLE_CASES = [pytest.param(seed, gender, ages, years,
                             id=f"{seed}-{gender}-{ages[0]}:{ages[1]}-{years[0]}:{years[1]}")
                for seed, gender, ages, years in
                [(seed, gender, ages, (1922, 2006))
                 for seed in (20110803, 7, 301)
                 for gender in ("female", "male", "total")
                 for ages in ((0, 110), (0, 100), (10, 60))] + HMDGEN_CASES[1:]]


def _unsmoothed(surface, sigma2=None):
    """A raw surface in the smoothed surface's wrapper: no smoothing and,
    by default, no observational noise."""
    n_ages, n_years = surface.log_rates.shape
    return SmoothedSurface(ages=surface.ages, years=surface.years,
                           log_rates=surface.log_rates,
                           sigma2=np.zeros(n_ages) if sigma2 is None else sigma2,
                           lambdas=np.zeros(n_years))


# ---------------------------------------------------------------------------
# the shared path gives the replaced code's bits


@pytest.mark.parametrize("seed, gender, ages, years", ORACLE_CASES)
def test_lc_and_fdm_match_the_per_model_code_on_generated_surfaces(seed, gender, ages, years):
    surface = hmdgen_surface(seed, gender, ages, years)
    smoothed = smooth(surface, SmoothConfig())
    _check_lc(surface.log_rates, "lc", fit_lc(surface))
    _check_lc(smoothed.log_rates, "lcs", fit_lcs(smoothed))
    for K in (1, 2, 4):
        _check_fdm(smoothed, K)


def test_lc_and_fdm_match_the_per_model_code_on_random_surfaces():
    # random shapes reach every K up to its bound, and a random sigma2
    # checks that the FDM's four variance terms keep their sum's bits
    rng = np.random.default_rng(17)
    for _ in range(40):
        n_ages, n_years = int(rng.integers(3, 14)), int(rng.integers(5, 16))
        surface = make_surface(rng.standard_normal((n_ages, n_years)) - 4.0)
        _check_lc(surface.log_rates, "lc", fit_lc(surface))
        noisy = _unsmoothed(surface, sigma2=rng.uniform(0.0, 0.1, n_ages))
        for K in range(1, min(n_ages, n_years)):
            _check_fdm(noisy, K)


def test_constant_years_take_both_degenerate_branches_as_before():
    # zero coefficient series leave an AR lag regression singular, so
    # only the random walk with drift forecasts them
    rwd = (TsSpec(),)
    ages = np.arange(9)
    surface = make_surface(np.tile((-4.0 + 0.1 * ages)[:, None], (1, 7)))
    lc = fit_lc(surface)
    assert lc.explained_shares.tolist() == [1.0]
    assert lc.explained_rss == 1.0
    np.testing.assert_array_equal(lc.coefficients, 0.0)
    _check_lc(surface.log_rates, "lc", lc, rwd)
    smoothed = smooth(surface, SmoothConfig(monotone_from=None))
    _check_lc(smoothed.log_rates, "lcs", fit_lcs(smoothed), rwd)
    for K in (1, 3):
        _check_fdm(_unsmoothed(surface), K, rwd)
        _check_fdm(smoothed, K, rwd)
    fdm = fit_fdm(_unsmoothed(surface), 3)
    assert fdm.explained_shares.tolist() == [1.0, 0.0, 0.0]
    assert fdm.explained_rss == 1.0


def test_zero_sum_age_pattern_raises_the_same_lc_error():
    # the leading left vector is (1, -1, 0)/sqrt(2), which sums to zero:
    # LC's normalization is undefined there, and the FDM falls back to
    # the dominant element's sign, both as before
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    surface = make_surface(-4.0 + np.outer(u, [2.0, -1.0, -1.0, 0.0]))
    with pytest.raises(ValueError) as oracle:
        _oracle_fit_log_rates(surface.log_rates)
    with pytest.raises(ValueError) as shared:
        fit_lc(surface)
    assert str(shared.value) == str(oracle.value)
    assert str(shared.value).startswith("degenerate fit")
    for K in (1, 2):
        model = _check_fdm(_unsmoothed(surface), K)
        assert model.basis[0, 0] > 0


# ---------------------------------------------------------------------------
# Lee-Carter is the K = 1 FDM


@pytest.mark.parametrize("seed, gender, ages, years", HMDGEN_CASES)
def test_lee_carter_is_the_one_component_fdm(seed, gender, ages, years):
    surface = hmdgen_surface(seed, gender, ages, years)
    lc = fit_lc(surface)
    fdm = fit_fdm(_unsmoothed(surface), K=1)
    phi = fdm.basis[:, 0]
    np.testing.assert_allclose(phi / phi.sum(), lc.basis[:, 0], rtol=_CROSS_RTOL, atol=0)
    np.testing.assert_allclose(fdm.fitted_log_rates(), lc.fitted_log_rates(),
                               rtol=_CROSS_RTOL, atol=0)

    horizon = 20
    lc_fc = forecast_fdm(lc, TsSpec(), horizon)
    fdm_fc = forecast_fdm(fdm, TsSpec(), horizon)
    np.testing.assert_allclose(fdm_fc.point, lc_fc.point, rtol=_CROSS_RTOL, atol=0)
    # LC's variance is the FDM's coefficient term alone: no mean-curve,
    # model-error or observational-noise term
    _, beta_var = forecast_ts(fit_ts(fdm.coefficients[:, 0], TsSpec()), horizon)
    np.testing.assert_allclose(np.outer(phi**2, beta_var), lc_fc.variance,
                               rtol=_CROSS_RTOL, atol=0)
    fdm_extra = fdm.v / len(fdm.years) + fdm.v + fdm.sigma2
    np.testing.assert_allclose(fdm_fc.variance - lc_fc.variance,
                               np.tile(fdm_extra[:, None], (1, horizon)),
                               rtol=_CROSS_RTOL, atol=0)
