"""Numerical kernels checked against independent routes: the SVD against
a Gram-matrix eigendecomposition and numpy's own SVD, the B-spline
design against a scalar Cox-de Boor recursion written here, the
penalized normal equations' Cholesky solve against a stacked
least-squares formulation, and the
normal quantile against bisection on the CDF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.linalg import cho_solve

from mortforecast.numerics import (
    BsplineBasis,
    bspline_design,
    cholesky_factor,
    difference_matrix,
    normal_quantile,
    svd_thin,
)


# ---------------------------------------------------------------------------
# svd_thin


def test_svd_reconstructs():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 5))
    res = svd_thin(A)
    np.testing.assert_allclose(res.reconstruct(), A, atol=1e-12)


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
    # svd_thin runs on scipy's LAPACK, which may link another BLAS build
    # than numpy's; both must give the same decomposition up to rounding
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
    np.testing.assert_allclose(res.reconstruct(), A, rtol=0, atol=1e-12 * scale)
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


def test_design_matches_recursive_definition():
    basis = BsplineBasis.uniform(0.0, 10.0, 8)
    xs = np.linspace(0.0, 9.999, 23)  # strictly inside to dodge the half-open end
    design = bspline_design(basis, xs)
    for j, x in enumerate(xs):
        for i in range(basis.num_basis):
            expected = _cox_de_boor_scalar(basis.knots, basis.degree, i, x)
            assert design[j, i] == pytest.approx(expected, abs=1e-12)


def test_design_partition_of_unity():
    basis = BsplineBasis.uniform(-3.0, 7.0, 11)
    xs = np.linspace(-3.0, 7.0, 101)
    design = bspline_design(basis, xs)
    np.testing.assert_allclose(design.sum(axis=1), 1.0, atol=1e-12)


def test_affine_coefficients_reproduce_affine_function():
    # THEORY: on a uniform basis, coefficients affine in the Greville
    # abscissae reproduce an affine function; this is what makes the
    # second-difference penalty's null space harmless.
    basis = BsplineBasis.uniform(0.0, 1.0, 9)
    greville = np.array([
        basis.knots[i + 1:i + 1 + basis.degree].mean()
        for i in range(basis.num_basis)
    ])
    theta = 2.0 + 3.0 * greville
    xs = np.linspace(0.0, 1.0, 57)
    values = bspline_design(basis, xs) @ theta
    np.testing.assert_allclose(values, 2.0 + 3.0 * xs, atol=1e-12)


def test_design_rejects_out_of_domain():
    basis = BsplineBasis.uniform(0.0, 1.0, 6)
    with pytest.raises(ValueError):
        bspline_design(basis, np.array([-0.5]))
    with pytest.raises(ValueError):
        bspline_design(basis, np.array([1.5]))


def test_design_right_endpoint_included():
    basis = BsplineBasis.uniform(0.0, 1.0, 6)
    row = bspline_design(basis, np.array([1.0]))
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# difference matrix and penalized solve


def test_difference_matrix_orders():
    D1 = difference_matrix(4, 1)
    np.testing.assert_array_equal(D1 @ np.array([1.0, 3.0, 6.0, 10.0]),
                                  [2.0, 3.0, 4.0])
    D2 = difference_matrix(5, 2)
    # second differences of an affine sequence vanish
    np.testing.assert_allclose(D2 @ (2.0 + 3.0 * np.arange(5)), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        difference_matrix(3, 3)
    with pytest.raises(ValueError):
        difference_matrix(3, 0)


def test_penalized_solve_matches_stacked_least_squares():
    # oracle: minimizing |y - B t|^2 + lam |D t|^2 equals ordinary least
    # squares on the rows [B; sqrt(lam) D]
    rng = np.random.default_rng(5)
    B = rng.standard_normal((20, 6))
    y = rng.standard_normal(20)
    D = difference_matrix(6, 2)
    for lam in (0.0, 0.3, 10.0):
        theta = cho_solve(cholesky_factor(B.T @ B + lam * (D.T @ D)), B.T @ y)
        stacked_A = np.vstack([B, math.sqrt(lam) * D])
        stacked_y = np.concatenate([y, np.zeros(D.shape[0])])
        expected, *_ = np.linalg.lstsq(stacked_A, stacked_y, rcond=None)
        np.testing.assert_allclose(theta, expected, atol=1e-8)


def test_penalized_solve_singular_message():
    with pytest.raises(ValueError, match="singular penalized system"):
        cholesky_factor(np.zeros((3, 3)))


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


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, np.nan])
def test_quantile_array_domain(bad):
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        normal_quantile(np.array([0.2, bad, 0.7]))
