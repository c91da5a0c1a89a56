"""Penalized-spline smoother and the monotone tail projection.

The projection is checked against a brute-force search over the lattice
of block partitions, which is the honest way to validate an isotonic
fit on short inputs. The smoother is checked against per-curve
references: LU-solved GCV scores, a Cholesky solve of the normal
equations at small lambdas, and at large ones, where the Cholesky
factor of G + lambda P loses the digits of G, an exact solve; and
against itself run on scipy's generalized eigensolver, the one it used
before (scipy is a test dependency only).
"""

import decimal
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve, eigh

from mortforecast import smoothing
from mortforecast.numerics import SettingsError, bspline_design
from mortforecast.smoothing import (
    _GCV_TIE_FLOOR,
    _GCV_TIE_RTOL,
    SmoothConfig,
    _monotone_tails,
    _pava,
    smooth_surface,
)

from conftest import hmdgen_surface


def _smooth_one(ys, config=SmoothConfig(), ages=None):
    """One curve smoothed as a one-column surface: its values and lambda."""
    ys = np.asarray(ys, dtype=float)
    xs = np.arange(len(ys), dtype=float) if ages is None else ages
    out = smooth_surface(ys[:, None], xs, np.array([2000]), config)
    return out.log_rates[:, 0], float(out.lambdas[0])


def _monotone_curve(values, from_age, ages=None):
    """``_monotone_tails`` on a copy of one curve."""
    out = np.array(values, dtype=float)[:, None]
    xs = np.arange(len(out), dtype=float) if ages is None else np.asarray(ages, dtype=float)
    _monotone_tails(out, xs, from_age)
    return out[:, 0]


def test_smooth_recovers_smooth_function():
    xs = np.arange(60, dtype=float)
    truth = -5.0 + 0.03 * xs + 0.0008 * xs**2
    rng = np.random.default_rng(1)
    noisy = truth + 0.05 * rng.standard_normal(len(xs))
    values, _ = _smooth_one(noisy, SmoothConfig(monotone_from=None), ages=xs)
    rmse_fit = np.sqrt(np.mean((values - truth) ** 2))
    rmse_raw = np.sqrt(np.mean((noisy - truth) ** 2))
    assert rmse_fit < 0.6 * rmse_raw


def test_affine_curve_is_fixed_point():
    # THEORY: an affine function lies in the second-difference penalty's
    # null space and in the spline space, so any penalty weight leaves
    # it untouched.
    xs = np.arange(30, dtype=float)
    ys = 1.5 - 0.2 * xs
    for lam in (0.0, 1.0, 1e6):
        values, _ = _smooth_one(ys, SmoothConfig(lam=lam, monotone_from=None), ages=xs)
        np.testing.assert_allclose(values, ys, atol=1e-7)


def test_gcv_scores_affine_curve_as_exact_fit(monkeypatch):
    # THEORY: an affine curve lies in the penalty's null space, so every
    # lambda fits it exactly and GCV scores it 0 up to rounding, also at a
    # lambda where lambda * eps is far above rounding. Both grid points
    # then tie at the floor and the first, 1e12, wins; a score at 1e12
    # scaled by 1 - lambda * eps would lose to 1e-4
    monkeypatch.setattr(smoothing, "_LAMBDA_GRID", np.array([1e12, 1e-4]))
    for n, num_basis in ((12, None), (40, 4), (111, 35)):
        xs = np.arange(n, dtype=float)
        ys = 1.5 - 0.2 * xs
        _, lam = _smooth_one(ys, SmoothConfig(num_basis=num_basis, monotone_from=None), ages=xs)
        assert lam == 1e12


def test_huge_lambda_flattens_to_affine():
    rng = np.random.default_rng(4)
    ys = rng.standard_normal(50)
    values, _ = _smooth_one(ys, SmoothConfig(lam=1e12, monotone_from=None))
    # second differences of the limit are numerically zero
    second = np.diff(values, n=2)
    assert np.max(np.abs(second)) < 1e-6


def test_choose_lambda_prefers_rough_fit_for_smooth_data():
    xs = np.arange(40, dtype=float)
    _, smooth_lam = _smooth_one(0.01 * xs, SmoothConfig(), ages=xs)
    assert smooth_lam > 0


def test_choose_lambda_single_point_grid(monkeypatch):
    monkeypatch.setattr(smoothing, "_LAMBDA_GRID", np.array([2.5]))
    xs = np.arange(20, dtype=float)
    _, lam = _smooth_one(np.sin(xs / 3.0), ages=xs)
    assert lam == 2.5


def test_choose_lambda_deterministic():
    xs = np.arange(25, dtype=float)
    ys = np.cos(xs / 4.0)
    (a, lam_a), (b, lam_b) = _smooth_one(ys, ages=xs), _smooth_one(ys, ages=xs)
    assert lam_a == lam_b and a.tobytes() == b.tobytes()


def test_smooth_curve_validation():
    with pytest.raises(SettingsError, match="need at least 4 ages to smooth a curve, got 3"):
        _smooth_one(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        _smooth_one(np.array([1.0, np.nan, 2.0, 3.0, 4.0]))
    with pytest.raises(SettingsError, match="num_basis 10 exceeds the 5 observations available"):
        _smooth_one(np.ones(5), SmoothConfig(num_basis=10))
    with pytest.raises(SettingsError, match="num_basis 3 is below the minimum of 4"):
        _smooth_one(np.ones(12), SmoothConfig(num_basis=3))
    for lam in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            _smooth_one(np.ones(12), SmoothConfig(lam=lam))
    with pytest.raises(ValueError, match="does not match 4 ages x 2 years"):
        smooth_surface(np.ones((4, 3)), np.arange(4), np.arange(2))


def test_smooth_config_has_the_cli_settings_only():
    # --num-basis, --lam and --monotone-from; degree, difference order and
    # the GCV grid are fixed
    assert list(SmoothConfig.__dataclass_fields__) == ["num_basis", "lam", "monotone_from"]


def test_smooth_surface_shapes_and_sigma():
    rng = np.random.default_rng(2)
    ages = np.arange(20)
    years = np.arange(1990, 2000)
    log_m = (-4.0 + 0.05 * ages)[:, None] + 0.1 * rng.standard_normal((20, 10))
    out = smooth_surface(log_m, ages, years, SmoothConfig(monotone_from=None))
    assert out.log_rates.shape == (20, 10)
    assert out.sigma2.shape == (20,)
    assert np.all(out.sigma2 >= 0)
    assert len(out.lambdas) == 10


def test_smooth_surface_single_year_sigma_zero():
    ages = np.arange(12)
    log_m = (-3.0 + 0.1 * ages)[:, None]
    out = smooth_surface(log_m, ages, np.array([2000]),
                         SmoothConfig(monotone_from=None))
    np.testing.assert_array_equal(out.sigma2, 0.0)


# ---------------------------------------------------------------------------
# batched smoother against the per-curve reference


# Relative rounding of the LU reference's GCV scores. It grows with lambda,
# as G + lambda P grows worse conditioned; the largest seen over 10,000
# random surfaces drawn as in the property test below was 1.1e-10.
_REFERENCE_SCORE_RTOL = 1e-9


def _reference_design(xs, config):
    k = config.resolved_num_basis(len(xs))
    return bspline_design(xs[0], xs[-1], k, xs)


def _reference_gcv_scores(ys, xs, config):
    """The per-curve GCV scores the batched kernel replaced, one per grid
    lambda, each by two dense LU solves."""
    B = _reference_design(xs, config)
    D = np.diff(np.eye(B.shape[1]), n=2, axis=0)
    n = len(ys)
    scores = []
    for grid_lam in smoothing._LAMBDA_GRID:
        A = B.T @ B + grid_lam * (D.T @ D)
        rss = np.sum((ys - B @ np.linalg.solve(A, B.T @ ys)) ** 2)
        denom = n - np.sum(np.linalg.solve(A, B.T) * B.T)
        scores.append(n * rss / denom**2 if denom > 0 else np.inf)
    return np.array(scores)


def _reference_lambdas(ys, xs, config):
    """The grid lambdas the tie rule may choose for one curve: the first
    grid point whose LU score is within _GCV_TIE_RTOL of the minimum, or
    within _GCV_TIE_FLOOR of the curve's Y'Y.
    A score within the reference's own rounding of that cut may fall on
    either side of it, so every such grid point up to the first one
    surely inside is a valid choice; elsewhere the choice is one point."""
    scores = _reference_gcv_scores(ys, xs, config)
    cut = scores.min() * (1 + _GCV_TIE_RTOL) + _GCV_TIE_FLOOR * np.sum(ys**2)
    inside = scores <= cut * (1 + 2 * _REFERENCE_SCORE_RTOL)
    last = int(np.argmax(scores <= cut * (1 - 2 * _REFERENCE_SCORE_RTOL)))
    return [float(lam) for lam, ok in zip(smoothing._LAMBDA_GRID[:last + 1], inside) if ok]


def _solve_penalized_ls(B, y, lam):
    """The separate fixed-lambda solve that the one penalized solve
    replaced, kept as its oracle at small lambdas: minimize
    |y - B theta|^2 + lam |D_2 theta|^2 by a Cholesky factor of the
    normal equations."""
    BtW = B.T * np.ones(len(B))
    M = BtW @ B
    if lam > 0:
        D = np.diff(np.eye(B.shape[1]), n=2, axis=0)
        M = M + lam * (D.T @ D)
    return cho_solve(cho_factor(M, lower=True), BtW @ y)


# lambdas from which the fit is checked against the exact solve below:
# the Cholesky factor of G + lambda P rounds G away in proportion to
# lambda, and its fits of generated seed 7's total rates, ages 0:100,
# were 1.7e-10 off at 1e6, 3.1e-6 at 1e10 and 3.3 at 1e15
_EXACT_FROM_LAMBDA = 1e3


def _exact_fit(B, Y, lam):
    """B @ theta, theta solving (B'B + lam D'D) theta = B'Y for every
    column of ``Y`` exactly: Gaussian elimination in decimal arithmetic on
    the floats of B, Y and lam as given, rounded to float at the end. 60
    digits hold both G and lam P up to lam = 1e30, 400 beyond it."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60 if lam <= 1e30 else 400
        exact = np.vectorize(decimal.Decimal, otypes=[object])
        k = B.shape[1]
        Bd, Yd = exact(B), exact(np.reshape(Y, (len(B), -1)))
        D = np.diff(np.eye(k, dtype=int), n=2, axis=0)
        A = Bd.T @ Bd + decimal.Decimal(lam) * (D.T @ D).astype(object)
        R = Bd.T @ Yd
        for i in range(k - 1):  # G + lam P is positive definite: no pivoting
            f = A[i + 1:, i] / A[i, i]
            A[i + 1:, i:] -= np.outer(f, A[i, i:])
            R[i + 1:] -= np.outer(f, R[i])
        theta = np.empty_like(R)
        for i in reversed(range(k)):
            theta[i] = (R[i] - A[i, i + 1:] @ theta[i + 1:]) / A[i, i]
        return np.reshape((Bd @ theta).astype(float), np.shape(Y))


def _reference_fit(ys, xs, config, lam):
    """The per-curve fit at ``lam``: one Cholesky solve, or the exact one
    from ``_EXACT_FROM_LAMBDA``, then the monotone projection."""
    B = _reference_design(xs, config)
    if lam >= _EXACT_FROM_LAMBDA:
        values = _exact_fit(B, ys, lam)
    else:
        values = B @ _solve_penalized_ls(B, ys, lam)
    if config.monotone_from is not None:
        values = _reference_enforce_monotone(values, config.monotone_from, xs)
    return values


def _assert_matches_reference(log_m, ages, config):
    years = np.arange(2000, 2000 + log_m.shape[1])
    out = smooth_surface(log_m, ages, years, config)
    xs = ages.astype(float)
    for j in range(log_m.shape[1]):
        lam = out.lambdas[j]
        if config.lam == "auto":
            assert lam in _reference_lambdas(log_m[:, j], xs, config)
        else:
            assert lam == config.lam
        np.testing.assert_allclose(out.log_rates[:, j], _reference_fit(log_m[:, j], xs, config, lam),
                                   rtol=0, atol=1e-10)
    return out


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=15, max_value=70), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.01, max_value=0.5),
       st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
       st.one_of(st.just("auto"), st.sampled_from([0.0, 0.003, 1.0, 1e3])),
       st.one_of(st.none(), st.integers(min_value=0, max_value=110)))
# GCV takes lambda = 1e6, where a Cholesky solve was 1.0e-9 off the exact fit
@example(15, 1, 0, 47, 0.5, None, "auto", None)
def test_smooth_surface_matches_per_curve_reference(n_ages, n_years, first_age, seed, noise,
                                                    basis_share, lam, monotone_from):
    # THEORY: every year shares the design and penalty, so the batched
    # pass must choose the reference's lambda for each year and agree with
    # its fit up to rounding. Both take the first grid point scoring
    # within _GCV_TIE_RTOL of the minimum. On a flat top, where a small
    # basis has made the fit nearly affine, the top grid points score
    # equal to about 1e-11, so a strict first minimum would be chosen by
    # each solver's rounding; the tie rule chooses by grid order, so a basis
    # of 4 functions is allowed. A score within the reference's rounding of
    # the tie cut is the one case left open (_reference_lambdas). At most
    # half as many basis functions as ages: an unpenalized fit with one
    # per age is so ill-conditioned that a different summation order alone
    # moves it by about 1e-10. From _EXACT_FROM_LAMBDA the reference fit
    # is the exact solve, which a Cholesky solve misses by more than
    # rounding there.
    rng = np.random.default_rng(seed)
    ages = np.arange(first_age, first_age + n_ages)
    trend = -7.0 + 0.07 * ages + 0.5 * np.sin(ages / 4.0)
    log_m = (trend[:, None] - 0.01 * np.arange(n_years)
             + noise * rng.standard_normal((n_ages, n_years)))
    num_basis = None if basis_share is None else max(4, int(basis_share * n_ages))
    _assert_matches_reference(log_m, ages, SmoothConfig(
        num_basis=num_basis, lam=lam, monotone_from=monotone_from))


# Absolute agreement, at a fixed lambda below _EXACT_FROM_LAMBDA, with
# the separate solve above. Both solve the same normal equations, one
# through the eigendecomposition GCV scores with, the other through a
# Cholesky factor; on the surfaces below they agreed to 1.2e-13.
_FIXED_LAM_ATOL = 1e-12

# Absolute agreement, from _EXACT_FROM_LAMBDA on, with the exact solve.
# The eigendecomposition's fits stayed within 8.3e-12 of it from 1e6 to
# 1e300 on the surfaces below (2.7e-11 when it ran on scipy's eigh); the
# Cholesky solve of G + lambda P before it was up to 4.3e-10 off at 1e6
# and 7.0e-6 at 1e10 there.
_EXACT_ATOL = 1e-10


@functools.lru_cache(maxsize=None)
def _exact_surface_fit(seed, gender, ages, years, num_basis, lam):
    """Three years of one generated surface, the first, middle and last,
    and their exact fits at ``lam``: the column indices and the fits."""
    surface = hmdgen_surface(seed, gender, ages, years)
    cols = np.array([0, len(surface.years) // 2, len(surface.years) - 1])
    xs = surface.ages.astype(float)
    B = _reference_design(xs, SmoothConfig(num_basis=num_basis))
    return cols, _exact_fit(B, surface.log_rates[:, cols], lam)


@pytest.mark.parametrize("seed,gender,ages,years,num_basis", [
    (20110803, "total", (0, 110), (1922, 2006), None),
    (7, "male", (0, 100), (1922, 1980), None),
    (301, "female", (10, 60), (1950, 2006), 12),
])
@pytest.mark.parametrize("lam", [0.0, 0.003, 1.0, 1e6, 1e10, 1e15, 1e300])
@pytest.mark.parametrize("monotone_from", [65, None])
def test_fixed_lambda_matches_separate_solve(seed, gender, ages, years, num_basis, lam,
                                             monotone_from):
    surface = hmdgen_surface(seed, gender, ages, years)
    config = SmoothConfig(num_basis=num_basis, lam=lam, monotone_from=monotone_from)
    out = smooth_surface(surface.log_rates, surface.ages, surface.years, config)
    xs = surface.ages.astype(float)
    if lam >= _EXACT_FROM_LAMBDA:
        cols, expected = _exact_surface_fit(seed, gender, ages, years, num_basis, lam)
        got, expected, atol = out.log_rates[:, cols], expected.copy(), _EXACT_ATOL
    else:
        B = _reference_design(xs, config)
        got, expected = out.log_rates, B @ _solve_penalized_ls(B, surface.log_rates, lam)
        atol = _FIXED_LAM_ATOL
    if monotone_from is not None:
        _monotone_tails(expected, xs, monotone_from)
    assert np.all(out.lambdas == lam)
    assert np.max(np.abs(got - expected)) <= atol


# Agreement with the smoother run on scipy.linalg.eigh(G, G + P), LAPACK's
# sygvd, in place of _generalized_eigh, sygvd's own Cholesky reduction on
# numpy's LAPACK: every GCV lambda is the same, and smoothed log rates and
# sigma2 agree to a share of each array's largest |value|. At GCV and small
# lambdas the share was at most 4.0e-14 on the surfaces below. From
# lambda 1e6 up, where the fit rests on the two null-space vectors, the
# two routes differ by up to 2.7e-12 (fits) and 9.6e-12 (sigma2): the
# exact-solve test above puts this route within 8.3e-12 of the exact fit
# and scipy's within 2.7e-11.
_SCIPY_EIGH_RTOL = {"auto": 1e-12, 0.003: 1e-12, 1e6: 2e-11}


@pytest.mark.parametrize("seed", [7, 301, 20110803])
@pytest.mark.parametrize("ages", [(0, 100), (0, 110)])
@pytest.mark.parametrize("gender", ["female", "male", "total"])
def test_smoother_matches_scipy_generalized_eigh(monkeypatch, seed, ages, gender):
    surface = hmdgen_surface(seed, gender, ages, (1922, 2006))
    for lam, rtol in _SCIPY_EIGH_RTOL.items():
        config = SmoothConfig(lam=lam, monotone_from=65 if lam == "auto" else None)
        out = smooth_surface(surface.log_rates, surface.ages, surface.years, config)
        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_generalized_eigh", eigh)
            ref = smooth_surface(surface.log_rates, surface.ages, surface.years, config)
        assert np.array_equal(out.lambdas, ref.lambdas)
        for got, want in ((out.log_rates, ref.log_rates), (out.sigma2, ref.sigma2)):
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_smooth_surface_tied_gcv_keeps_first_grid_point(monkeypatch):
    # an all-zero year fits exactly at every lambda, so every grid point
    # scores 0; the first one listed wins, here the largest
    monkeypatch.setattr(smoothing, "_LAMBDA_GRID", np.array([1e3, 1.0, 1e-3]))
    rng = np.random.default_rng(5)
    ages = np.arange(30)
    log_m = np.zeros((30, 3))
    log_m[:, 1] = np.sin(ages / 3.0) + 0.05 * rng.standard_normal(30)
    out = _assert_matches_reference(log_m, ages, SmoothConfig(monotone_from=None))
    assert out.lambdas[0] == out.lambdas[2] == 1e3
    assert out.lambdas[1] != 1e3


def test_gcv_flat_top_takes_first_grid_point_within_tolerance():
    # a 4-function basis is one cubic; on noisy near-linear ages GCV is
    # least where the penalty has made the fit nearly affine, and there the
    # top grid points score equal to about 1e-11, closer than the solvers'
    # rounding. The tie rule chooses an earlier grid point, and the same
    # one by the LU scores as by the batched pass.
    rng = np.random.default_rng(3)
    ages = np.arange(20, 50)
    log_m = (-7.0 + 0.07 * ages)[:, None] + 0.1 * rng.standard_normal((30, 8))
    config = SmoothConfig(num_basis=4, monotone_from=None)
    out = _assert_matches_reference(log_m, ages, config)
    flat_tops = 0
    for j in range(log_m.shape[1]):
        ys, xs = log_m[:, j], ages.astype(float)
        assert _reference_lambdas(ys, xs, config) == [out.lambdas[j]]
        scores = _reference_gcv_scores(ys, xs, config)
        if np.sort(scores / scores.min() - 1)[1] < 1e-10:
            flat_tops += 1
            assert out.lambdas[j] < smoothing._LAMBDA_GRID[np.argmin(scores)]
    assert flat_tops > 0


def test_gcv_exact_fit_takes_first_grid_point(monkeypatch):
    # THEORY: the spline fits an affine curve, a constant one included, at
    # every lambda, so every grid point scores at the rounding floor, near
    # 1e-31 of Y'Y, where no relative gap ties. The absolute floor ties
    # them all, and grid order, not rounding, decides
    config = SmoothConfig(monotone_from=None)
    grid = smoothing._LAMBDA_GRID
    for ys in (0.5 * np.arange(20) - 3, np.full(20, -4.2)):
        assert _smooth_one(ys, config)[1] == grid[0]
        assert _reference_lambdas(ys, np.arange(20.0), config) == [grid[0]]
        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_LAMBDA_GRID", grid[::-1])
            assert _smooth_one(ys, config)[1] == grid[-1]


# ---------------------------------------------------------------------------
# monotone projection


def _brute_force_isotonic(y):
    """Best nondecreasing fit by trying every partition into blocks."""
    n = len(y)
    best, best_obj = None, np.inf
    # a partition is a choice of cut points; each block takes its mean
    for cuts in itertools.chain.from_iterable(
            itertools.combinations(range(1, n), k) for k in range(n)):
        bounds = [0, *cuts, n]
        fit = np.empty(n)
        means = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            means.append(np.mean(y[a:b]))
            fit[a:b] = means[-1]
        if any(m2 < m1 - 1e-12 for m1, m2 in zip(means, means[1:])):
            continue
        obj = float(np.sum((fit - y) ** 2))
        if obj < best_obj:
            best, best_obj = fit, obj
    return best, best_obj


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=2, max_size=6))
def test_pava_matches_brute_force(values):
    y = np.array(values)
    fit = _monotone_curve(y, from_age=0)
    brute, brute_obj = _brute_force_isotonic(y)
    obj = float(np.sum((fit - y) ** 2))
    assert np.all(np.diff(fit) >= -1e-9)
    # optimality: no partition does better, and ours matches the best
    assert obj <= brute_obj + 1e-9
    np.testing.assert_allclose(fit, brute, atol=1e-8)


def test_enforce_monotone_leaves_head_alone():
    y = np.array([5.0, 1.0, 4.0, 3.0, 2.0, 6.0])
    out = _monotone_curve(y, from_age=2)
    np.testing.assert_array_equal(out[:2], y[:2])
    assert np.all(np.diff(out[2:]) >= 0)


def test_enforce_monotone_noop_cases():
    y = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(_monotone_curve(y, from_age=5), y)
    sorted_y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(_monotone_curve(sorted_y, from_age=0), sorted_y)


def test_enforce_monotone_with_age_grid():
    ages = np.array([60, 61, 62, 63])
    y = np.array([1.0, 5.0, 4.0, 6.0])
    out = _monotone_curve(y, from_age=61, ages=ages)
    assert out[0] == 1.0
    np.testing.assert_allclose(out[1:3], 4.5)


def test_enforce_monotone_idempotent():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(15)
    once = _monotone_curve(y, from_age=4)
    twice = _monotone_curve(once, from_age=4)
    np.testing.assert_allclose(once, twice, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_smoothed_output_tail_is_monotone(seed):
    rng = np.random.default_rng(seed)
    ages = np.arange(0, 40)
    ys = -6.0 + 0.05 * ages + 0.3 * rng.standard_normal(len(ages))
    values, _ = _smooth_one(ys, SmoothConfig(monotone_from=25), ages=ages.astype(float))
    tail = values[ages >= 25]
    assert np.all(np.diff(tail) >= -1e-9)


# ---------------------------------------------------------------------------
# the surface's tail block against the per-curve projection it replaced


def _reference_enforce_monotone(values, from_age, xs):
    """PAVA on every curve's tail, whether it falls or not."""
    start = int(np.searchsorted(xs, float(from_age), side="left"))
    out = values.copy()
    if start < len(values) - 1:
        out[start:] = _pava(values[start:])
    return out


# log rates by (age, year): rising or falling with age in every year, or
# with a slope that changes sign across the years
_TAIL_SHAPES = {
    "rising": lambda xs, t: -9.0 + 0.09 * xs[:, None] - 0.01 * t,
    "falling": lambda xs, t: -2.0 - 0.05 * xs[:, None] - 0.01 * t,
    "mixed": lambda xs, t: -6.0 + (0.01 * t - 0.05) * xs[:, None],
}


@pytest.mark.parametrize("shape,repeat,monotone_from,falls", [
    ("rising", 1, 45, "none"),
    ("falling", 1, 45, "all"),
    ("mixed", 1, 45, "some"),
    # every age twice, so the smoothed values at an age are equal neighbours
    ("rising", 2, 45, "none"),
    ("falling", 2, 45, "all"),
    ("falling", 1, 79, "none"),  # the tail is the last age alone
    ("falling", 1, 85, "none"),  # beyond the last age: no tail
    ("falling", 1, None, None),
])
def test_smooth_surface_tails_match_per_curve_projection(shape, repeat, monotone_from, falls):
    rng = np.random.default_rng(11)
    xs = np.repeat(np.arange(20.0, 80.0), repeat)
    n_years = 12
    log_m = (_TAIL_SHAPES[shape](xs, np.arange(n_years))
             + 0.15 * rng.standard_normal((len(xs), n_years)))
    years = np.arange(2000, 2000 + n_years)
    raw = smooth_surface(log_m, xs, years, SmoothConfig(monotone_from=None)).log_rates
    out = smooth_surface(log_m, xs, years, SmoothConfig(monotone_from=monotone_from))
    if monotone_from is None:
        assert out.log_rates.tobytes() == raw.tobytes()
        return
    expected = np.column_stack([_reference_enforce_monotone(raw[:, j], monotone_from, xs)
                                for j in range(n_years)])
    assert out.log_rates.tobytes() == expected.tobytes()
    falling = (np.diff(raw[xs >= monotone_from], axis=0) < 0).any(axis=0)
    assert {"none": not falling.any(), "all": falling.all(),
            "some": 0 < falling.sum() < n_years}[falls]


@pytest.mark.parametrize("tail", [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0, 1.0], [1.0, 2.0, 2.0, 3.0],
                                  [3.0, 1.0, 1.0, 2.0], [0.0, -0.0, 0.0], [-0.0, 0.0, -1.0]])
def test_enforce_monotone_equal_neighbours_match_reference(tail):
    values = np.array([5.0, -3.0, *tail])
    xs = np.arange(len(values), dtype=float)
    assert (_monotone_curve(values, 2).tobytes()
            == _reference_enforce_monotone(values, 2, xs).tobytes())


@pytest.mark.parametrize("tail,reach", [
    ([3.0, 1.0, 2.0, 4.0], 4),  # a fall at the first tail age: the whole tail
    ([1.0, 2.0, 5.0, 3.0, 2.0, 6.0], 5),  # the value at the cut equals the later minimum
    ([-1.0, 0.0, -0.0, 2.0, 1.0], 4),  # signed zeros at the cut
    ([1.0, 2.0, 3.0, 5.0, 4.0], 2),  # one fall, at the last two ages
    # a pool whose rounded mean falls below every value in it, and so
    # reaches a value at the cut equal to the later minimum
    ([-3.9670670969864856, -3.967067096986485, -3.967067096986485, -3.967067096986485,
      -3.967067096986485, -3.9670670969864856, -3.967067096986485, -3.9670670969864856], 8),
])
def test_pava_runs_on_the_reachable_part_of_a_falling_tail(tail, reach, monkeypatch):
    seen = []
    monkeypatch.setattr(smoothing, "_pava", lambda y: seen.append(len(y)) or _pava(y))
    values = np.array([5.0, -3.0, *tail])
    xs = np.arange(len(values), dtype=float)
    assert (_monotone_curve(values, 2).tobytes()
            == _reference_enforce_monotone(values, 2, xs).tobytes())
    assert seen == [reach]


def test_gcv_surface_factors_once_per_surface(monkeypatch):
    # one Cholesky factor of G + P and one eigendecomposition score every
    # grid lambda for every year and give every year's fit at its chosen
    # lambda, with no solve per lambda or per year, and PAVA runs on
    # falling tails past their unreachable rising prefix; a fixed lambda
    # takes the same one factor and one eigendecomposition
    rng = np.random.default_rng(0)
    ages, years = np.arange(100), np.arange(1970, 2000)
    shape = -9.0 + 0.085 * np.minimum(ages, 60) + 0.004 * np.maximum(ages - 60, 0)
    log_m = shape[:, None] - 0.01 * np.arange(30) + 0.15 * rng.standard_normal((100, 30))
    raw = smooth_surface(log_m, ages, years, SmoothConfig(monotone_from=None)).log_rates
    tail_len = int(np.sum(ages >= 60))
    n_falling = int((np.diff(raw[ages >= 60], axis=0) < 0).any(axis=0).sum())
    linalg = ("cholesky", "eigh", "inv", "solve", "lstsq", "eig", "svd")
    calls = {name: [] for name in ("_pava", *linalg)}
    for module, name in ((smoothing, "_pava"), *((np.linalg, name) for name in linalg)):
        func, record = getattr(module, name), calls[name]
        monkeypatch.setattr(module, name,
                            lambda *a, _f=func, _r=record, **k: _r.append(a) or _f(*a, **k))
    factorizations = {"cholesky": 1, "inv": 1, "eigh": 1}
    out = smooth_surface(log_m, ages, years, SmoothConfig(monotone_from=60))
    assert len(np.unique(out.lambdas)) > 1
    assert {name: len(calls[name]) for name in linalg if calls[name]} == factorizations
    assert 0 < len(calls["_pava"]) == n_falling < len(years)
    assert sum(len(y) for y, in calls["_pava"]) < tail_len * n_falling
    for record in calls.values():
        record.clear()
    fixed = smooth_surface(log_m, ages, years, SmoothConfig(lam=0.003, monotone_from=None))
    assert np.all(fixed.lambdas == 0.003)
    assert {name: len(calls[name]) for name in linalg if calls[name]} == factorizations
