"""Penalized-spline smoother and the monotone tail projection.

The projection is checked against a brute-force search over the lattice
of block partitions, which is the honest way to validate an isotonic
fit on short inputs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mortforecast.numerics import (BsplineBasis, bspline_design, difference_matrix,
                                   solve_penalized_ls)
from mortforecast.smoothing import (
    SmoothConfig,
    _pava,
    enforce_monotone,
    smooth_curve,
    smooth_surface,
)


def test_smooth_recovers_smooth_function():
    xs = np.arange(60, dtype=float)
    truth = -5.0 + 0.03 * xs + 0.0008 * xs**2
    rng = np.random.default_rng(1)
    noisy = truth + 0.05 * rng.standard_normal(len(xs))
    curve = smooth_curve(noisy, SmoothConfig(monotone_from=None), ages=xs)
    rmse_fit = np.sqrt(np.mean((curve.values - truth) ** 2))
    rmse_raw = np.sqrt(np.mean((noisy - truth) ** 2))
    assert rmse_fit < 0.6 * rmse_raw


def test_affine_curve_is_fixed_point():
    # THEORY: an affine function lies in the second-difference penalty's
    # null space and in the spline space, so any penalty weight leaves
    # it untouched.
    xs = np.arange(30, dtype=float)
    ys = 1.5 - 0.2 * xs
    for lam in (0.0, 1.0, 1e6):
        curve = smooth_curve(ys, SmoothConfig(lam=lam, monotone_from=None), ages=xs)
        np.testing.assert_allclose(curve.values, ys, atol=1e-7)


def test_huge_lambda_flattens_to_affine():
    rng = np.random.default_rng(4)
    ys = rng.standard_normal(50)
    curve = smooth_curve(ys, SmoothConfig(lam=1e12, monotone_from=None))
    # second differences of the limit are numerically zero
    second = np.diff(curve.values, n=2)
    assert np.max(np.abs(second)) < 1e-6


def test_choose_lambda_prefers_rough_fit_for_smooth_data():
    xs = np.arange(40, dtype=float)
    smooth_lam = smooth_curve(0.01 * xs, SmoothConfig(), ages=xs).lam
    assert smooth_lam > 0


def test_choose_lambda_single_point_grid():
    xs = np.arange(20, dtype=float)
    lam = smooth_curve(np.sin(xs / 3.0), SmoothConfig(lambda_grid=np.array([2.5])),
                       ages=xs).lam
    assert lam == 2.5


def test_choose_lambda_deterministic():
    xs = np.arange(25, dtype=float)
    ys = np.cos(xs / 4.0)
    a, b = smooth_curve(ys, ages=xs), smooth_curve(ys, ages=xs)
    assert (a.lam, a.gcv) == (b.lam, b.gcv)


def test_smooth_curve_validation():
    with pytest.raises(ValueError, match="at least 4"):
        smooth_curve(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        smooth_curve(np.array([1.0, np.nan, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        smooth_curve(np.ones(5), SmoothConfig(num_basis=10))
    with pytest.raises(ValueError, match="num_basis 3 is below the minimum of 4"):
        smooth_curve(np.ones(12), SmoothConfig(num_basis=3))
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            smooth_curve(np.ones(12), SmoothConfig(lam=lam))


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


def _reference_smooth_curve(ys, xs, config):
    """The per-curve smoother the batched kernel replaced: GCV over the
    grid by two dense LU solves per lambda, the first minimum kept, then
    one Cholesky solve at the chosen lambda."""
    k = config.resolved_num_basis(len(xs))
    B = bspline_design(BsplineBasis.uniform(xs[0], xs[-1], k, degree=config.degree), xs)
    D = difference_matrix(k, config.difference_order)
    w = np.ones(len(ys)) if config.weights is None else config.weights
    lam = config.lam
    if lam == "auto":
        n, BtW = len(ys), B.T * w
        best_lam, best_score = None, np.inf
        for grid_lam in config.lambda_grid:
            A = BtW @ B + grid_lam * (D.T @ D)
            rss = np.sum(w * (ys - B @ np.linalg.solve(A, BtW @ ys)) ** 2)
            denom = n - np.sum(np.linalg.solve(A, BtW) * B.T)
            score = n * rss / denom**2 if denom > 0 else np.inf
            if score < best_score:
                best_lam, best_score = float(grid_lam), score
        lam = best_lam
    values = B @ solve_penalized_ls(B, ys, w=w, lam=lam, d=config.difference_order)
    if config.monotone_from is not None:
        values = enforce_monotone(values, config.monotone_from, ages=xs)
    return lam, values


def _assert_matches_reference(log_m, ages, config):
    years = np.arange(2000, 2000 + log_m.shape[1])
    out = smooth_surface(log_m, ages, years, config)
    for j in range(log_m.shape[1]):
        lam, values = _reference_smooth_curve(log_m[:, j], ages.astype(float), config)
        assert out.lambdas[j] == lam
        np.testing.assert_allclose(out.log_rates[:, j], values, rtol=0, atol=1e-10)
    return out


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=15, max_value=70), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.01, max_value=0.5), st.booleans(),
       st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
       st.one_of(st.just("auto"), st.sampled_from([0.0, 0.003, 1.0, 1e3])),
       st.one_of(st.none(), st.integers(min_value=0, max_value=110)))
def test_smooth_surface_matches_per_curve_reference(n_ages, n_years, first_age, seed, noise,
                                                    weighted, basis_share, lam, monotone_from):
    # THEORY: every year shares the design, weights and penalty, so the
    # batched pass must choose the reference's lambda for each year and
    # agree with its fit up to rounding. The sine keeps curvature in every
    # window, and the basis has at least 6 functions: a minimum on the
    # flat top of the grid, where an affine fit has absorbed everything,
    # scores equal to rounding at several grid points, and there neither
    # solver's choice is determined. At most half as many basis functions
    # as ages: an unpenalized fit with one per age is so ill-conditioned
    # that a different summation order alone moves it by about 1e-10.
    rng = np.random.default_rng(seed)
    ages = np.arange(first_age, first_age + n_ages)
    trend = -7.0 + 0.07 * ages + 0.5 * np.sin(ages / 4.0)
    log_m = (trend[:, None] - 0.01 * np.arange(n_years)
             + noise * rng.standard_normal((n_ages, n_years)))
    num_basis = None if basis_share is None else max(6, int(basis_share * n_ages))
    weights = rng.uniform(0.2, 2.0, n_ages) if weighted else None
    _assert_matches_reference(log_m, ages, SmoothConfig(
        num_basis=num_basis, lam=lam, monotone_from=monotone_from, weights=weights))


def test_smooth_surface_tied_gcv_keeps_first_grid_point():
    # an all-zero year fits exactly at every lambda, so every grid point
    # scores 0; the first one listed wins, here the largest
    rng = np.random.default_rng(5)
    ages = np.arange(30)
    log_m = np.zeros((30, 3))
    log_m[:, 1] = np.sin(ages / 3.0) + 0.05 * rng.standard_normal(30)
    grid = np.array([1e3, 1.0, 1e-3])
    out = _assert_matches_reference(log_m, ages, SmoothConfig(lambda_grid=grid,
                                                              monotone_from=None))
    assert out.lambdas[0] == out.lambdas[2] == 1e3
    assert out.lambdas[1] != 1e3


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
    fit = enforce_monotone(y, from_age=0)
    brute, brute_obj = _brute_force_isotonic(y)
    obj = float(np.sum((fit - y) ** 2))
    assert np.all(np.diff(fit) >= -1e-9)
    # optimality: no partition does better, and ours matches the best
    assert obj <= brute_obj + 1e-9
    np.testing.assert_allclose(fit, brute, atol=1e-8)


def test_enforce_monotone_leaves_head_alone():
    y = np.array([5.0, 1.0, 4.0, 3.0, 2.0, 6.0])
    out = enforce_monotone(y, from_age=2)
    np.testing.assert_array_equal(out[:2], y[:2])
    assert np.all(np.diff(out[2:]) >= 0)


def test_enforce_monotone_noop_cases():
    y = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(enforce_monotone(y, from_age=5), y)
    sorted_y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(enforce_monotone(sorted_y, from_age=0), sorted_y)


def test_enforce_monotone_with_age_grid():
    ages = np.array([60, 61, 62, 63])
    y = np.array([1.0, 5.0, 4.0, 6.0])
    out = enforce_monotone(y, from_age=61, ages=ages)
    assert out[0] == 1.0
    np.testing.assert_allclose(out[1:3], 4.5)


def test_enforce_monotone_idempotent():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(15)
    once = enforce_monotone(y, from_age=4)
    twice = enforce_monotone(once, from_age=4)
    np.testing.assert_allclose(once, twice, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31))
def test_smoothed_output_tail_is_monotone(seed):
    rng = np.random.default_rng(seed)
    ages = np.arange(0, 40)
    ys = -6.0 + 0.05 * ages + 0.3 * rng.standard_normal(len(ages))
    curve = smooth_curve(ys, SmoothConfig(monotone_from=25), ages=ages.astype(float))
    tail = curve.values[ages >= 25]
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
    assert (enforce_monotone(values, 2).tobytes()
            == _reference_enforce_monotone(values, 2, xs).tobytes())
