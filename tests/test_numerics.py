"""Numerical kernels checked against independent routes: the SVD against
a Gram-matrix eigendecomposition and numpy's own SVD, the B-spline
design against a scalar Cox-de Boor recursion written here, and the
normal quantile against bisection on the CDF, against scipy's ndtri,
the kernel it replaced (scipy is a test dependency only), and bit for bit
against ``statistics.NormalDist().inv_cdf``, whose private C kernel it calls."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from mortforecast.numerics import (
    bspline_design,
    normal_quantile,
    svd_thin,
)


# ---------------------------------------------------------------------------
# svd_thin


def test_svd_reconstructs():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 5))
    res = svd_thin(A)
    np.testing.assert_allclose((res.left_vectors * res.singular_values) @ res.right_vectors.T,
                               A, atol=1e-12)


def test_svd_singular_values_match_gram_eigenvalues():
    # independent route: singular values squared are the eigenvalues of A'A
    rng = np.random.default_rng(1)
    A = rng.standard_normal((9, 4))
    res = svd_thin(A)
    eigvals = np.linalg.eigvalsh(A.T @ A)[::-1]
    np.testing.assert_allclose(res.singular_values**2, eigvals, atol=1e-10)


def test_svd_orthonormal_columns():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6))
    res = svd_thin(A)
    np.testing.assert_allclose(res.left_vectors.T @ res.left_vectors,
                               np.eye(6), atol=1e-12)
    np.testing.assert_allclose(res.right_vectors.T @ res.right_vectors,
                               np.eye(6), atol=1e-12)


@settings(deadline=None, max_examples=150)
@given(m=st.integers(2, 111), n=st.integers(2, 85), seed=st.integers(0, 2**31),
       kind=st.sampled_from(["full", "rank_deficient", "constant_rows"]))
def test_svd_thin_matches_numpy_svd(m, n, seed, kind):
    # svd_thin calls np.linalg.svd with full_matrices=False, so numpy's
    # gesdd, and compute_uv=False runs gesdd in another mode; both must
    # give the same singular values up to rounding
    rng = np.random.default_rng(seed)
    if kind == "full":
        A = rng.standard_normal((m, n))
    elif kind == "rank_deficient":
        r = int(rng.integers(1, min(m, n)))
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    else:
        # a flat surface row by row, with some rows left noisy
        A = np.repeat(rng.standard_normal((m, 1)), n, axis=1)
        noisy = rng.random(m) < 0.3
        A[noisy] += 0.1 * rng.standard_normal((int(noisy.sum()), n))
    res = svd_thin(A)
    want = np.linalg.svd(A, compute_uv=False)
    scale = max(float(want[0]), 1.0)
    # singular values at rounding level are only determined to eps * s[0]
    np.testing.assert_allclose(res.singular_values, want, rtol=1e-12,
                               atol=1e-13 * scale)
    k = min(m, n)
    assert res.left_vectors.shape == (m, k) and res.right_vectors.shape == (n, k)
    np.testing.assert_allclose((res.left_vectors * res.singular_values) @ res.right_vectors.T,
                               A, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(res.left_vectors.T @ res.left_vectors, np.eye(k),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.right_vectors.T @ res.right_vectors, np.eye(k),
                               rtol=0, atol=1e-12)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd_thin(np.empty((0, 3)))
    with pytest.raises(ValueError):
        svd_thin(np.array([[1.0, np.nan], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# B-splines


def _cox_de_boor_scalar(knots, degree, i, x):
    """Textbook recursive definition, used only as an oracle."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    denom = knots[i + degree] - knots[i]
    if denom > 0:
        left = (x - knots[i]) / denom * _cox_de_boor_scalar(knots, degree - 1, i, x)
    right = 0.0
    denom = knots[i + degree + 1] - knots[i + 1]
    if denom > 0:
        right = (knots[i + degree + 1] - x) / denom * _cox_de_boor_scalar(
            knots, degree - 1, i + 1, x)
    return left + right


def _uniform_knots(lo, hi, num_basis):
    """The cubic basis's knots, written out here: equally spaced, three
    steps past each end of [lo, hi]."""
    step = (hi - lo) / (num_basis - 3)
    return lo + step * np.arange(-3, num_basis + 1)


def test_design_matches_recursive_definition():
    knots = _uniform_knots(0.0, 10.0, 8)
    xs = np.linspace(0.0, 9.999, 23)  # strictly inside to dodge the half-open end
    design = bspline_design(0.0, 10.0, 8, xs)
    assert design.shape == (23, 8)
    for j, x in enumerate(xs):
        for i in range(8):
            expected = _cox_de_boor_scalar(knots, 3, i, x)
            assert design[j, i] == pytest.approx(expected, abs=1e-12)


def test_design_partition_of_unity():
    xs = np.linspace(-3.0, 7.0, 101)
    design = bspline_design(-3.0, 7.0, 11, xs)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)


def test_affine_coefficients_reproduce_affine_function():
    # THEORY: on a uniform basis, coefficients affine in the Greville
    # abscissae reproduce an affine function; this is what makes the
    # second-difference penalty's null space harmless.
    knots = _uniform_knots(0.0, 1.0, 9)
    greville = np.array([knots[i + 1:i + 4].mean() for i in range(9)])
    theta = 2.0 + 3.0 * greville
    xs = np.linspace(0.0, 1.0, 57)
    values = bspline_design(0.0, 1.0, 9, xs) @ theta
    np.testing.assert_allclose(values, 2.0 + 3.0 * xs, atol=1e-12)


def test_design_rejects_out_of_domain():
    with pytest.raises(ValueError):
        bspline_design(0.0, 1.0, 6, np.array([-0.5]))
    with pytest.raises(ValueError):
        bspline_design(0.0, 1.0, 6, np.array([1.5]))


def test_design_rejects_too_few_functions_and_empty_domain():
    with pytest.raises(ValueError, match="num_basis must exceed"):
        bspline_design(0.0, 1.0, 3, np.array([0.5]))
    with pytest.raises(ValueError, match="positive length"):
        bspline_design(1.0, 1.0, 6, np.array([1.0]))


def test_design_right_endpoint_included():
    row = bspline_design(0.0, 1.0, 6, np.array([1.0]))
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# normal quantile


def normal_cdf(x):
    """Standard normal CDF through the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _quantile_by_bisection(p, lo=-40.0, hi=40.0):
    if p > 0.5:
        # the upper-tail CDF saturates in floats; bisect the precise tail
        return -_quantile_by_bisection(1.0 - p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", [1e-10, 1e-4, 0.02425, 0.3, 0.5, 0.6, 0.975,
                               0.99999, 1 - 1e-10])
def test_quantile_matches_bisection(p):
    expected = _quantile_by_bisection(p)
    assert normal_quantile(p) == pytest.approx(expected, abs=1e-9)


def test_quantile_known_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)


@pytest.mark.parametrize("p,previous", [
    (1e-300, -37.0470962993612), (1e-10, -6.361340902404057),
    (0.02425, -1.972961051311885), (0.3, -0.5244005127080408),
    (0.9, 1.2815515655446006), (0.975, 1.959963984540054),
    (0.995, 2.575829303548901), (1 - 1e-9, 5.9978070196016375),
])
def test_quantile_matches_previous_kernel(p, previous):
    # values from the Acklam approximation plus one Newton step that
    # ndtri replaced; stated tolerance 4e-14 absolute
    assert abs(normal_quantile(p) - previous) <= 4e-14


# Largest gap, in units in the last place of the larger magnitude, between
# normal_quantile and scipy's ndtri over the grid below: 6 on x86-64
QUANTILE_NDTRI_ULPS = 8


def test_quantile_matches_ndtri_in_ulps():
    # the grid reaches the 1e-300 tail and 1 - 1e-16, and covers the
    # central and both tail branches of each algorithm
    p = np.concatenate([np.logspace(-300, -1, 3000), np.linspace(1e-3, 1 - 1e-3, 3001),
                        1.0 - np.logspace(-16, -1, 1500),
                        [5e-324, 2.2250738585072014e-308, 0.02425, 0.5, 0.97575]])
    z, want = normal_quantile(p), special.ndtri(p)
    ulps = np.abs(z - want) / np.spacing(np.maximum(np.abs(z), np.abs(want)))
    assert ulps.max() <= QUANTILE_NDTRI_ULPS, (p[ulps.argmax()], ulps.max())


def test_quantile_symmetry():
    for p in (0.001, 0.1, 0.25, 0.4):
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p), abs=1e-10)


def test_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(p)


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_cdf_quantile_round_trip(p):
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-11)


def test_quantile_array_matches_scalar_calls():
    ps = np.array([[1e-300, 1e-10, 0.02425], [0.3, 0.5, 0.975], [0.99999, 1 - 1e-10, 0.6]])
    z = normal_quantile(ps)
    assert isinstance(z, np.ndarray) and z.shape == ps.shape
    expected = [normal_quantile(float(p)) for p in ps.ravel()]
    assert z.ravel().tolist() == expected
    assert isinstance(normal_quantile(0.3), float)


# Shapiro-Wilk weight grids: n = 3 is the closed form, 4 the n <= 5 branch,
# 11 and 12 the general one at odd and even n, 2,220 is 111 ages over 20
# years and 5,000 the subsample every larger residual set is tested on
@pytest.mark.parametrize("n", [3, 4, 11, 12, 2220, 5000])
def test_quantile_is_normaldist_inv_cdf_bit_for_bit(n):
    # normal_quantile calls the private statistics._normal_dist_inv_cdf, with
    # no fallback: a Python that renames or changes it fails here
    p = np.concatenate([(np.arange(1, n + 1) - 0.375) / (n + 0.25),
                        [1e-300, 1e-17, 0.5, 1 - 1e-16]])
    want = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    bits = want.view(np.int64)
    np.testing.assert_array_equal(normal_quantile(p).view(np.int64), bits)
    scalars = [normal_quantile(v) for v in p.tolist()]
    assert all(type(z) is float for z in scalars)
    np.testing.assert_array_equal(np.array(scalars).view(np.int64), bits)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, np.nan])
def test_quantile_array_domain(bad):
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        normal_quantile(np.array([0.2, bad, 0.7]))
