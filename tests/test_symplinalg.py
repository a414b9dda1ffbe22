"""Tests for the (C, Z) calculus, the smooth log-determinant branch and the
matrix exponential."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def model(n=1):
    return sl.standard_model(n)


# ---------------------------------------------------------------------------
# Hermitean form and views


def test_hermitean_form_pinned_values():
    m = model(1)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert sl.hermitean_form(m, e1, e1) == pytest.approx(1.0)
    assert sl.hermitean_form(m, e2, e2) == pytest.approx(1.0)
    # Omega(e1, j e2) = Omega(e1, -e1) = 0, Omega(e1, e2) = 1
    assert sl.hermitean_form(m, e1, e2) == pytest.approx(-1j)


def test_hermitean_form_sesquilinear_and_positive():
    m = model(3)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        v, w = rng.standard_normal(6), rng.standard_normal(6)
        h = sl.hermitean_form(m, v, w)
        assert sl.hermitean_form(m, m.j @ v, w) == pytest.approx(1j * h)
        assert sl.hermitean_form(m, v, m.j @ w) == pytest.approx(-1j * h)
        assert sl.hermitean_form(m, v, v).real > 0
        assert abs(sl.hermitean_form(m, v, v).imag) < 1e-12
        # agrees with the complex-coordinate formula sum z_k conj(w_k)
        zc = sl.vec_to_complex(m, v) @ sl.vec_to_complex(m, w).conj()
        assert h == pytest.approx(zc)


def test_views_round_trip_and_action():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = sl.real_matrix(m, K)
    assert np.allclose(sl.complex_matrix(m, A), K)
    W = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Z = sl.antilinear_real(m, W)
    assert np.allclose(sl.antilinear_matrix(m, Z), W)
    v = rng.standard_normal(4)
    z = sl.vec_to_complex(m, v)
    # linear view acts as z -> Kz, antilinear as z -> W conj(z)
    assert np.allclose(sl.vec_to_complex(m, A @ v), K @ z)
    assert np.allclose(sl.vec_to_complex(m, Z @ v), W @ z.conj())


def test_views_reject_wrong_parity():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    A = rng.standard_normal((4, 4))
    with pytest.raises(ValueError):
        sl.complex_matrix(m, A)
    with pytest.raises(ValueError):
        sl.antilinear_matrix(m, A)


def test_vec_to_complex_rejects_wrong_length():
    for n in (1, 2):
        m = model(n)
        for shape in ((2 * n + 1,), (3, 2 * n - 1), (2 * n, 1), ()):
            with pytest.raises(ValueError, match=f"length 2n = {2 * n}"):
                sl.vec_to_complex(m, np.zeros(shape))
        assert sl.vec_to_complex(m, np.zeros((3, 2 * n))).shape == (3, n)


def test_j_adjoint_is_hermitean_adjoint():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = sl.real_matrix(m, K)
    Astar = sl.j_adjoint(m, A)
    for _ in range(5):
        v, w = rng.standard_normal(4), rng.standard_normal(4)
        assert sl.hermitean_form(m, A @ v, w) == pytest.approx(
            sl.hermitean_form(m, v, Astar @ w)
        )


# ---------------------------------------------------------------------------
# C/Z decomposition


def test_unitary_decomposes_with_zero_z():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    k = sl.expm(sl.random_u_algebra(m, rng))
    p = sl.cz_decompose(m, k)
    assert np.abs(p.Z).max() < 1e-12
    assert np.allclose(p.C, k)


def test_cz_round_trip_random():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        g = sl.random_sp(m, rng)
        p = sl.cz_decompose(m, g)
        assert np.abs(sl.cz_compose(m, p) - g).max() < 1e-10
        ok, diag = sl.siegel_check(m, p.Z)
        assert ok, diag


def test_cz_decompose_rejects_non_symplectic():
    m = model(1)
    with pytest.raises(ValueError):
        sl.cz_decompose(m, np.diag([2.0, 3.0]))


def test_make_cz_pair_rejects_incompatible():
    m = model(1)
    rng = np.random.default_rng(RNG_SEED)
    g = sl.random_sp(m, rng)
    p = sl.cz_decompose(m, g)
    with pytest.raises(ValueError):
        sl.make_cz_pair(m, 2.0 * p.C, p.Z)


def test_siegel_check_rejects_large_z():
    m = model(1)
    # W = 2 is symmetric and antilinear but 1 - |W|^2 < 0
    Z = sl.antilinear_real(m, np.array([[2.0]]))
    ok, diag = sl.siegel_check(m, Z)
    assert not ok
    assert diag["min_eig_one_minus_zsq"] < 0


def test_cz_inverse_matches_matrix_inverse():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        g = sl.random_sp(m, rng)
        p = sl.cz_inverse(m, sl.cz_decompose(m, g))
        q = sl.cz_decompose(m, np.linalg.inv(g))
        assert np.abs(p.C - q.C).max() < 1e-10
        assert np.abs(p.Z - q.Z).max() < 1e-10


def test_cz_product_matches_matrix_product():
    m = model(2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        g1, g2 = sl.random_sp(m, rng), sl.random_sp(m, rng)
        p = sl.cz_product(m, sl.cz_decompose(m, g1), sl.cz_decompose(m, g2))
        q = sl.cz_decompose(m, g1 @ g2)
        assert np.abs(p.C - q.C).max() < 1e-9
        assert np.abs(p.Z - q.Z).max() < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_disc_product_has_positive_hermitean_part(seed):
    # For Z1, Z2 in the generalized unit disc, 1 - Z1 Z2 always has positive
    # definite Hermitean part (so the smooth log det of it is defined).
    m = model(2)
    rng = np.random.default_rng(seed)
    Z1 = sl.cz_decompose(m, sl.random_sp(m, rng, scale=0.8)).Z
    Z2 = sl.cz_decompose(m, sl.random_sp(m, rng, scale=0.8)).Z
    M = np.eye(4) - Z1 @ Z2
    assert sl.hermitean_min_eig(sl.complex_matrix(m, M)) > 0


# ---------------------------------------------------------------------------
# smooth log det


def logdet_path_oracle(K, order=200):
    """Independent branch oracle: integrate tr(g^{-1} dg) along (1-t) I + t K."""
    n = K.shape[0]
    s, w = np.polynomial.legendre.leggauss(order)
    t, wt = 0.5 * (s + 1.0), 0.5 * w
    I = np.eye(n)
    dg = K - I
    return sum(wi * np.trace(np.linalg.solve((1 - ti) * I + ti * K, dg))
               for ti, wi in zip(t, wt))


def test_smooth_log_det_identity_and_scalars():
    m = model(2)
    assert sl.smooth_log_det(m, np.eye(4)) == 0
    assert sl.smooth_log_det(m, np.eye(2, dtype=complex) * 3.0) == pytest.approx(
        2 * np.log(3.0)
    )


def test_smooth_log_det_frozen_value():
    # Value frozen from the path-integration oracle (Gauss-Legendre, order 200).
    m = model(2)
    K0 = np.array([[2.0 + 0.0j, 1.0 + 0.5j], [-0.3j, 1.5 + 0.2j]])
    a = sl.smooth_log_det(m, K0)
    assert a == pytest.approx(1.0766073181698874 + 0.24084645524141168j, abs=1e-12)
    assert np.exp(a) == pytest.approx(np.linalg.det(K0), abs=1e-12)


def test_smooth_log_det_disagrees_with_naive_branch():
    # Eigenvalues 1.2 e^{1.4i}, 2 e^{1.45i}, 0.8 e^{1.38i}: argument sum 4.23
    # exceeds pi, so the principal log of det is on the wrong sheet while the
    # analytic branch (frozen from the path oracle) carries Im = 4.23.
    m = model(3)
    K2 = np.array(
        [
            [0.21078468 + 1.35660012j, -0.00451047 + 0.17278509j, -0.13416693 + 0.28089115j],
            [0.01706914 + 0.16225213j, 0.1811067 + 1.13329958j, -0.35104027 + 0.31414451j],
            [0.1669586 + 0.26885564j, 0.39345694 + 0.2526851j, 0.20478739 + 1.46354879j],
        ]
    )
    a = sl.smooth_log_det(m, K2)
    assert a == pytest.approx(0.6523251860397019 + 4.23j, abs=1e-7)
    naive = np.log(np.linalg.det(K2))
    assert abs(a - naive - 2j * np.pi) < 1e-7


def test_smooth_log_det_matches_path_oracle_random():
    m = model(3)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(10):
        K = np.eye(3) * 2.0 + 0.8 * (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        if sl.hermitean_min_eig(K) <= 0.05:
            continue
        assert sl.smooth_log_det(m, K) == pytest.approx(logdet_path_oracle(K), abs=1e-10)


def test_smooth_log_det_rejects_bad_domain():
    m = model(1)
    with pytest.raises(ValueError):
        sl.smooth_log_det(m, np.array([[-1.0 + 0j]]))


# ---------------------------------------------------------------------------
# matrix exponential, against SciPy's as the oracle


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2])
def test_expm_matches_scipy_on_library_draws(n):
    m = model(n)
    rng = np.random.default_rng(RNG_SEED)
    for scale in (0.35, 0.4, 0.45):
        X = rng.standard_normal((40, 2 * n, 2 * n))
        A = sl.sp_algebra_from_gaussian(m, X, scale)
        got = sl.expm(A)
        assert got.dtype == np.float64
        for a, g in zip(A, got):
            assert _rel_err(g, scipy.linalg.expm(a)) < 1e-13
        # exp of a Hamiltonian matrix is symplectic
        assert np.max(sl.sp_residual(m, got)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expm_matches_scipy_on_skew_hermitian_input(n):
    rng = np.random.default_rng(RNG_SEED + n)
    for _ in range(20):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (X - X.conj().T) / 2.0
        got = sl.expm(A)
        assert got.dtype == np.complex128
        assert _rel_err(got, scipy.linalg.expm(A)) < 1e-13
        assert np.abs(got.conj().T @ got - np.eye(n)).max() < 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_expm_squares_at_large_norm(n):
    # 1-norm 50, past the degree-13 bound 5.37: four squarings
    m = model(n)
    rng = np.random.default_rng(RNG_SEED)
    A = sl.sp_algebra_from_gaussian(m, rng.standard_normal((2 * n, 2 * n)), 1.0)
    A *= 50.0 / np.abs(A).sum(axis=0).max()
    assert _rel_err(sl.expm(A), scipy.linalg.expm(A)) < 1e-12
    # a rotation generator, whose exponential is known in closed form
    theta = 50.0
    R = sl.expm(np.array([[0.0, theta], [-theta, 0.0]]))
    c, s = np.cos(theta), np.sin(theta)
    assert np.abs(R - np.array([[c, s], [-s, c]])).max() < 1e-13


def test_expm_of_zero_is_the_identity_and_empty_batches_pass():
    for d in (1, 2, 4):
        assert np.array_equal(sl.expm(np.zeros((d, d))), np.eye(d))
        assert np.array_equal(sl.expm(np.zeros((3, d, d), dtype=complex)),
                              np.broadcast_to(np.eye(d), (3, d, d)))
        assert sl.expm(np.zeros((0, d, d))).shape == (0, d, d)
    with pytest.raises(ValueError):
        sl.expm(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 2])
def test_expm_batch_equals_single_calls(n):
    # scales from 1e-3 to 1e2 reach every Pade degree and up to seven
    # squarings, so the batch mixes degrees and scalings
    m = model(n)
    rng = np.random.default_rng(RNG_SEED)
    X = rng.standard_normal((3, 8, 2 * n, 2 * n))
    scales = np.logspace(-3, 2, 24).reshape(3, 8)[..., None, None]
    for A in (sl.sp_algebra_from_gaussian(m, X, 1.0) * scales,
              (X + 1j * np.swapaxes(X, -1, -2)) * scales):
        got = sl.expm(A)
        assert got.shape == A.shape
        for idx in np.ndindex(A.shape[:-2]):
            assert np.array_equal(got[idx], sl.expm(A[idx]))


# ---------------------------------------------------------------------------
# random generators


def test_random_sp_is_symplectic_and_seeded():
    m = model(2)
    g1 = sl.random_sp(m, np.random.default_rng(5))
    g2 = sl.random_sp(m, np.random.default_rng(5))
    assert np.array_equal(g1, g2)
    assert sl.sp_residual(m, g1) < 1e-12


def test_random_unitary_sp_in_intersection():
    # expm of a random u(n) element lies in U(n) = Sp(2n, R) cap O(2n)
    m = model(3)
    xi = sl.random_u_algebra(m, np.random.default_rng(9))
    assert sl.sp_algebra_residual(m, xi) < 1e-14
    assert np.abs(xi @ m.j - m.j @ xi).max() < 1e-14
    assert sl.u_residual(m, sl.expm(xi)) < 1e-12


def test_sp_algebra_residual():
    m = model(2)
    xi = sl.random_sp_algebra(m, np.random.default_rng(3))
    assert sl.sp_algebra_residual(m, xi) < 1e-14
    assert sl.sp_algebra_residual(m, np.eye(4)) > 1
