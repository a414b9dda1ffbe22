"""Tests for Mp^c parameter arithmetic, fiber actions, and Berezin kernels."""

import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympdirac import fock as fk
from sympdirac import mpc
from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def models():
    return sl.standard_model(1, hbar=0.7), sl.standard_model(2, hbar=1.3)


def tensor_rule(order, scale):
    """Node-by-node tensor Gauss-Hermite rule on R^2 for exp(-|x|^2) / pi:
    nodes scale * (s_a, s_b) in row a * order + b, weights w_a w_b / pi."""
    s, wt = np.polynomial.hermite.hermgauss(order)
    X, Y = np.meshgrid(s, s, indexing="ij")
    nodes = scale * np.stack([X.ravel(), Y.ravel()], axis=-1)
    return nodes, (wt[:, None] * wt[None, :]).ravel() / np.pi


def assert_same_element(model, u1, u2, tol=1e-10):
    assert np.abs(u1.pair.C - u2.pair.C).max() < tol
    assert np.abs(u1.pair.Z - u2.pair.Z).max() < tol
    assert abs(u1.lam - u2.lam) < tol


# ---------------------------------------------------------------------------
# parameter arithmetic: invariant, identity, inverse, associativity


def test_element_invariant_enforced():
    m = sl.standard_model(1)
    pair = sl.cz_decompose(m, np.array([[2.0, 1.0], [1.0, 1.0]]))
    det = np.linalg.det(sl.complex_matrix(m, pair.C))
    mpc.mpc_element(m, pair, abs(det) ** -0.5 * np.exp(0.4j))  # fine
    with pytest.raises(ValueError):
        mpc.mpc_element(m, pair, 1.0)  # |lam^2 det C| = |det C| != 1 here
    with pytest.raises(ValueError):
        mpc.mpc_element(m, pair, 2.0 * abs(det) ** -0.5)


def test_identity_axioms():
    for m in models():
        rng = np.random.default_rng(RNG_SEED)
        e = mpc.identity_mpc(m)
        assert_same_element(m, mpc.mpc_mul(m, e, e), e)
        for _ in range(5):
            u = mpc.random_mpc(m, rng)
            assert_same_element(m, mpc.mpc_mul(m, u, e), u)
            assert_same_element(m, mpc.mpc_mul(m, e, u), u)


def test_inverse_axioms_and_conjugate_lambda():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(8):
            u = mpc.random_mpc(m, rng)
            ui = mpc.mpc_inverse(m, u)
            assert_same_element(m, mpc.mpc_mul(m, u, ui), mpc.identity_mpc(m))
            assert_same_element(m, mpc.mpc_mul(m, ui, u), mpc.identity_mpc(m))
            # the scalar of the inverse is the complex conjugate: a(1 - Z^2)
            # is real because 1 - Z^2 = (C*C)^{-1} is positive definite
            assert abs(ui.lam - np.conj(u.lam)) < 1e-12
            gi = mpc.sigma(m, ui)
            assert np.abs(gi @ mpc.sigma(m, u) - np.eye(2 * m.n)).max() < 1e-10


def test_sigma_is_a_homomorphism():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 2)
        for _ in range(6):
            u1 = mpc.random_mpc(m, rng)
            u2 = mpc.random_mpc(m, rng)
            lhs = mpc.sigma(m, mpc.mpc_mul(m, u1, u2))
            rhs = mpc.sigma(m, u1) @ mpc.sigma(m, u2)
            assert np.abs(lhs - rhs).max() < 1e-10


def test_associativity_random():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 3)
        for _ in range(20):
            u1, u2, u3 = (mpc.random_mpc(m, rng) for _ in range(3))
            left = mpc.mpc_mul(m, mpc.mpc_mul(m, u1, u2), u3)
            right = mpc.mpc_mul(m, u1, mpc.mpc_mul(m, u2, u3))
            assert_same_element(m, left, right, tol=1e-11)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_associativity_hypothesis(seed):
    m = sl.standard_model(2, hbar=0.9)
    rng = np.random.default_rng(seed)
    u1, u2, u3 = (mpc.random_mpc(m, rng, scale=0.45) for _ in range(3))
    left = mpc.mpc_mul(m, mpc.mpc_mul(m, u1, u2), u3)
    right = mpc.mpc_mul(m, u1, mpc.mpc_mul(m, u2, u3))
    assert_same_element(m, left, right, tol=1e-10)


def test_product_lambda_pinned_against_quadrature():
    # lam of the product of two explicit elements, pinned to the value of the
    # numerically composed Berezin kernels at z = w = 0 (quadrature order 80
    # agrees with order 60 to 7e-16, so the pin is converged)
    m = sl.standard_model(1, hbar=0.6)
    p1 = sl.cz_decompose(m, np.array([[2.0, 1.0], [1.0, 1.0]]))
    p2 = sl.cz_decompose(m, np.array([[1.0, 0.0], [0.7, 1.0]]))
    d1 = np.linalg.det(sl.complex_matrix(m, p1.C))
    d2 = np.linalg.det(sl.complex_matrix(m, p2.C))
    u1 = mpc.mpc_element(m, p1, np.exp(0.3j) / np.sqrt(abs(d1)))
    u2 = mpc.mpc_element(m, p2, np.exp(-0.2j) / np.sqrt(abs(d2)))
    u12 = mpc.mpc_mul(m, u1, u2)
    assert u12.lam == pytest.approx(0.7176674785261346 + 0.1267771351391308j,
                                    abs=1e-12)
    comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                      mpc.mpc_kernel(m, u2))
    assert complex(comp(np.zeros(2), np.zeros(2))) == pytest.approx(
        u12.lam, abs=1e-12)


# ---------------------------------------------------------------------------
# the character eta and the metaplectic kernel


def test_eta_is_a_character_and_squares_the_center():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 4)
        for _ in range(6):
            u1 = mpc.random_mpc(m, rng)
            u2 = mpc.random_mpc(m, rng)
            assert abs(mpc.eta(m, u1)) == pytest.approx(1.0, abs=1e-12)
            prod = mpc.eta(m, u1) * mpc.eta(m, u2)
            assert mpc.eta(m, mpc.mpc_mul(m, u1, u2)) == pytest.approx(
                prod, abs=1e-12)
        # central circle: elements over the identity map, eta doubles phase
        theta = 1.234
        c = mpc.mpc_element(m, mpc.identity_mpc(m).pair, np.exp(1j * theta))
        assert mpc.eta(m, c) == pytest.approx(np.exp(2j * theta), abs=1e-14)


def metaplectic(m, u):
    """u lies in Mp, the kernel of eta."""
    return abs(mpc.eta(m, u) - 1.0) <= mpc.ATOL_INVARIANT


def test_metaplectic_subgroup_closure():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 5)
        for _ in range(6):
            u1 = mpc.random_mpc(m, rng, metaplectic=True)
            u2 = mpc.random_mpc(m, rng, metaplectic=True)
            assert metaplectic(m, u1)
            assert metaplectic(m, mpc.mpc_mul(m, u1, u2))
            assert metaplectic(m, mpc.mpc_inverse(m, u1))
            assert not metaplectic(
                m, mpc.mpc_element(m, u1.pair, u1.lam * np.exp(0.3j)))


def test_central_elements_commute_and_scale():
    m = sl.standard_model(2, hbar=0.8)
    rng = np.random.default_rng(RNG_SEED + 6)
    c = mpc.mpc_element(m, mpc.identity_mpc(m).pair, np.exp(0.77j))
    u = mpc.random_mpc(m, rng)
    left = mpc.mpc_mul(m, c, u)
    right = mpc.mpc_mul(m, u, c)
    assert_same_element(m, left, right, tol=1e-12)
    assert left.lam == pytest.approx(u.lam * np.exp(0.77j), abs=1e-12)


# ---------------------------------------------------------------------------
# exact action of elements over the unitary group


def test_muc_rotation_is_diagonal_pinned():
    m = sl.standard_model(1, hbar=0.5)
    t = 0.37
    k = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    pair = sl.cz_decompose(m, k)
    det = np.linalg.det(sl.complex_matrix(m, pair.C))
    u = mpc.mpc_element(m, pair, det ** -0.5)
    assert u.lam == pytest.approx(np.exp(-0.5j * t), abs=1e-14)
    B = fk.fock_basis(1, 6)
    M = mpc.muc_matrix(m, B, u).matrix
    off = M - np.diag(np.diag(M))
    assert np.abs(off).max() < 1e-14
    # multiplication by i rotates each degree-d monomial by e^{-i t d}
    expect = np.exp(-1j * t * (B.degrees + 0.5))
    assert np.abs(np.diag(M) - expect).max() < 1e-13
    assert M[3, 3] == pytest.approx(0.272313255749178 - 0.9622086523947302j,
                                    abs=1e-13)


def test_muc_unitary_homomorphism_and_rejection():
    m = sl.standard_model(2, hbar=1.1)
    rng = np.random.default_rng(RNG_SEED + 7)
    B = fk.fock_basis(2, 6)
    for _ in range(4):
        k1 = sl.expm(sl.random_u_algebra(m, rng))
        k2 = sl.expm(sl.random_u_algebra(m, rng))
        u1 = mpc.mpc_element(m, sl.cz_decompose(m, k1),
                             np.exp(1j * rng.uniform(0, 6)))
        u2 = mpc.mpc_element(m, sl.cz_decompose(m, k2),
                             np.exp(1j * rng.uniform(0, 6)))
        M1 = mpc.muc_matrix(m, B, u1).matrix
        M2 = mpc.muc_matrix(m, B, u2).matrix
        # exactly unitary for the weighted fiber inner product
        assert np.abs(fk.adjoint_matrix(m, B, M1) @ M1 - np.eye(B.dim)).max() < 1e-12
        M12 = mpc.muc_matrix(m, B, mpc.mpc_mul(m, u1, u2)).matrix
        assert np.abs(M1 @ M2 - M12).max() < 1e-12
    g = sl.random_sp(m, rng)  # generic: not j-linear
    pair = sl.cz_decompose(m, g)
    lam = abs(np.linalg.det(sl.complex_matrix(m, pair.C))) ** -0.5
    with pytest.raises(ValueError):
        mpc.muc_matrix(m, B, mpc.mpc_element(m, pair, lam))


def test_muc_berezin_kernel_is_truncated_exponential():
    m = sl.standard_model(1, hbar=0.9)
    rng = np.random.default_rng(RNG_SEED + 8)
    B = fk.fock_basis(1, 8)
    k = sl.expm(sl.random_u_algebra(m, rng))
    u = mpc.mpc_element(m, sl.cz_decompose(m, k), np.exp(0.21j))
    op = mpc.muc_matrix(m, B, u)
    Kinv = np.linalg.inv(sl.complex_matrix(m, u.pair.C))
    for _ in range(5):
        z = rng.uniform(-0.6, 0.6, size=2)
        w = rng.uniform(-0.6, 0.6, size=2)
        got = fk.berezin_kernel_eval(m, op, z, w)
        arg = complex(sl.hermitean_form(
            m, sl.vec_from_complex(m, Kinv @ sl.vec_to_complex(m, z)), w))
        arg /= 2.0 * m.hbar
        series = sum(arg**d / factorial(d) for d in range(B.max_degree + 1))
        assert got == pytest.approx(u.lam * series, rel=1e-12)


# ---------------------------------------------------------------------------
# Lie algebra action: equivariance, bracket, group derivative


def test_lie_element_validation():
    m = sl.standard_model(2)
    xi = sl.random_sp_algebra(m, np.random.default_rng(0))
    mpc.mpc_lie_element(m, 0.3j, xi)  # fine
    with pytest.raises(ValueError):
        mpc.mpc_lie_element(m, 0.3, xi)
    bad = xi.copy()
    bad[0, 0] += 0.1  # breaks xi^T Omega + Omega xi = 0
    with pytest.raises(ValueError):
        mpc.mpc_lie_element(m, 0.0j, bad)


def test_lie_action_clifford_equivariance():
    # [rho(x), cl(v)] = cl(xi v) wherever truncation cannot interfere:
    # source degrees <= N - 3 keep every intermediate inside the fiber
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 9)
        N = 9
        B = fk.fock_basis(m.n, N)
        cols = B.degrees <= N - 3
        for _ in range(4):
            x = mpc.mpc_lie_element(m, 1j * rng.normal() * 0.4,
                                    sl.random_sp_algebra(m, rng))
            v = rng.normal(size=2 * m.n)
            A = mpc.lie_action(m, B, x.mu, x.xi)
            Cv = fk.clifford_op(m, B, v).matrix
            Cxv = fk.clifford_op(m, B, x.xi @ v).matrix
            R = A @ Cv - Cv @ A - Cxv
            assert np.abs(R[:, cols]).max() < 1e-12


def test_lie_bracket_closure_with_central_term():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 10)
        N = 9
        B = fk.fock_basis(m.n, N)
        cols = B.degrees <= N - 4
        for _ in range(4):
            x1 = mpc.mpc_lie_element(m, 1j * rng.normal() * 0.3,
                                     sl.random_sp_algebra(m, rng))
            x2 = mpc.mpc_lie_element(m, 1j * rng.normal() * 0.3,
                                     sl.random_sp_algebra(m, rng))
            A1 = mpc.lie_action(m, B, x1.mu, x1.xi)
            A2 = mpc.lie_action(m, B, x2.mu, x2.xi)
            br = mpc.mpc_lie_bracket(m, x1, x2)
            Abr = mpc.lie_action(m, B, br.mu, br.xi)
            R = A1 @ A2 - A2 @ A1 - Abr
            assert np.abs(R[:, cols]).max() < 1e-12


def test_lie_bracket_central_term_nonzero():
    # a stretch and a shear whose j-antilinear views differ in phase
    # (W1 = 1, W2 = i): the matrix commutator alone misses the central
    # direction by an O(1) amount
    m = sl.standard_model(1)
    xi1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    xi2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    x1 = mpc.mpc_lie_element(m, 0.0j, xi1)
    x2 = mpc.mpc_lie_element(m, 0.0j, xi2)
    br = mpc.mpc_lie_bracket(m, x1, x2)
    W1 = sl.antilinear_matrix(m, sl.antilinear_part(m, xi1), check=False)
    W2 = sl.antilinear_matrix(m, sl.antilinear_part(m, xi2), check=False)
    expect = -1j * np.trace(W1 @ W2.conj()).imag
    assert abs(br.mu) > 0.1
    assert br.mu == pytest.approx(expect, abs=1e-14)
    assert np.abs(br.xi - (xi1 @ xi2 - xi2 @ xi1)).max() < 1e-14


def test_lie_action_is_group_derivative():
    m = sl.standard_model(1, hbar=0.8)
    rng = np.random.default_rng(RNG_SEED + 11)
    x = mpc.mpc_lie_element(m, 0.4j, sl.random_sp_algebra(m, rng, scale=0.7))
    r3 = mpc.lie_group_kernel_residual(m, x, 1e-3)
    r4 = mpc.lie_group_kernel_residual(m, x, 1e-4)
    assert r3 < 1e-4
    assert r4 < 1e-6
    # central second-order differencing: residual scales like t^2
    assert 50 < r3 / r4 < 200


def _ref_lie_action(model, basis, mu, xi):
    """lie_action contracted index by index with einsum."""
    H = sl.complex_matrix(model, sl.linear_part(model, xi), check=False)
    W = sl.antilinear_matrix(model, sl.antilinear_part(model, xi), check=False)
    shift, raise2, lower2 = fk.transfer_tensors(basis.n, basis.max_degree)
    out = np.einsum("...kl,klab->...ab", -H, shift)
    diag = np.arange(basis.dim)
    out[..., diag, diag] += np.asarray(mu)[..., None]
    out += np.einsum("...kl,klab->...ab", W.conj(), raise2) / (4.0 * model.hbar)
    out -= model.hbar * np.einsum("...kl,klab->...ab", W, lower2)
    return out


def test_lie_action_matches_einsum_reference():
    rng = np.random.default_rng(RNG_SEED + 12)
    for m in models():
        B = fk.fock_basis(m.n, 4)
        xi = np.stack([sl.random_sp_algebra(m, rng) for _ in range(6)])
        xi = xi.reshape((2, 3) + xi.shape[1:])
        # every element has a j-antilinear part, so all three tensors act
        assert (np.abs(sl.antilinear_part(m, xi)).max(axis=(-2, -1))
                > 0.1).all()
        batched_mu = 1j * rng.normal(size=(2, 3))
        for mu in (0.3j, batched_mu):
            got = mpc.lie_action(m, B, mu, xi)
            ref = _ref_lie_action(m, B, mu, xi)
            assert got.shape == (2, 3, B.dim, B.dim)
            assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max()


def test_lie_action_terms_split_the_action():
    rng = np.random.default_rng(RNG_SEED + 13)
    for m in models():
        n, B = m.n, fk.fock_basis(m.n, 4)
        mu = 1j * rng.normal(size=3)
        general = np.stack([sl.random_sp_algebra(m, rng) for _ in range(3)])
        for xi, Q in ((general, 1 + 3 * n * n),
                      (sl.linear_part(m, general), 1 + n * n)):
            X, T = mpc.lie_action_terms(m, B, mu, xi)
            assert X.shape == (3, Q) and T.shape == (Q, B.dim, B.dim)
            assert np.array_equal(X[:, 0], mu)
            assert np.array_equal(T[0], np.eye(B.dim))
            ref = _ref_lie_action(m, B, mu, xi)
            got = np.einsum("sq,qab->sab", X, T)
            assert np.abs(got - ref).max() < 1e-14 * np.abs(ref).max()
        # a j-linear xi has no degree +/-2 term
        assert all(fk.degree_shift_mass(B, t, 0) == 0 for t in T)


# ---------------------------------------------------------------------------
# Gaussian Berezin kernels


def test_kernel_identity_and_normalization():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 12)
        K = mpc.mpc_kernel(m, mpc.identity_mpc(m))
        z = rng.uniform(-1, 1, size=(6, 2 * m.n))
        w = rng.uniform(-1, 1, size=(6, 2 * m.n))
        pairing = np.array([sl.hermitean_form(m, zi, wi) for zi, wi in zip(z, w)])
        expect = np.exp(pairing / (2.0 * m.hbar))
        assert np.abs(mpc.kernel_eval(m, K, z, w) - expect).max() < 1e-12
        for _ in range(4):
            u = mpc.random_mpc(m, rng)
            Ku = mpc.mpc_kernel(m, u)
            val = mpc.kernel_eval(m, Ku, np.zeros(2 * m.n), np.zeros(2 * m.n))
            assert complex(val) == pytest.approx(u.lam, abs=1e-13)


def test_unitary_kernel_is_rotated_exponential():
    m = sl.standard_model(2, hbar=0.6)
    rng = np.random.default_rng(RNG_SEED + 13)
    k = sl.expm(sl.random_u_algebra(m, rng))
    u = mpc.mpc_element(m, sl.cz_decompose(m, k), np.exp(1.1j))
    K = mpc.mpc_kernel(m, u)
    kinv = np.linalg.inv(k)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=4)
        w = rng.uniform(-1, 1, size=4)
        expect = u.lam * np.exp(
            sl.hermitean_form(m, kinv @ z, w) / (2.0 * m.hbar))
        assert complex(mpc.kernel_eval(m, K, z, w)) == pytest.approx(
            expect, rel=1e-12)


def routed_uj(m, h, z, w):
    """(U_j(v, t) e_w)(z) for z of shape (Z, 2n) and w of shape (W, 2n), as a
    (Z, W) array: each w goes through fock.uj_apply on its own, and the
    routed coherent state is read at every z by fock.combo_eval."""
    out = np.empty((len(z), len(w)), dtype=complex)
    for j, wj in enumerate(w):
        routed = fk.uj_apply(m, h, fk.coherent_combo(np.ones(1), wj[None]))
        out[:, j] = fk.combo_eval(m, routed, z)
    return out


def test_uj_kernel_matches_coherent_formula():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 14)
    v = rng.normal(size=2)
    h = fk.heisenberg_element(v, 0.31)
    K = mpc.heisenberg_kernel(m, h)
    nv = sl.metric_form(m, v, v)
    for _ in range(5):
        z = rng.uniform(-1, 1, size=2)
        w = rng.uniform(-1, 1, size=2)
        expect = np.exp(-1j * h.t / m.hbar - nv / (4 * m.hbar)
                        - sl.hermitean_form(m, v, w) / (2 * m.hbar)
                        + sl.hermitean_form(m, z, v + w) / (2 * m.hbar))
        assert complex(mpc.kernel_eval(m, K, z, w)) == pytest.approx(
            expect, rel=1e-12)


def test_heisenberg_kernel_matches_the_routed_action():
    for m in models():
        rng = np.random.default_rng(RNG_SEED + 21)
        d = 2 * m.n
        h = fk.heisenberg_element(rng.normal(size=d), 0.31)
        K = mpc.heisenberg_kernel(m, h)
        # the linear terms are what carry v
        assert np.abs(K.lz).min() > 0.05 and np.abs(K.lw).min() > 0.05
        z = rng.uniform(-1, 1, size=(3, d))
        w = rng.uniform(-1, 1, size=(4, d))
        want = routed_uj(m, h, z, w)
        got = mpc.kernel_eval(m, K, z[:, None, :], w)
        assert got.shape == (3, 4)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert complex(mpc.kernel_eval(m, K, z[1], w[2])) == pytest.approx(
            want[1, 2], rel=1e-13)


def test_kernels_reject_vectors_of_wrong_length():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 23)
    K = mpc.mpc_kernel(m, mpc.random_mpc(m, rng))
    uj = mpc.heisenberg_kernel(m, fk.heisenberg_element(rng.normal(size=2), 0.2))
    good, bad = np.zeros(2), np.zeros(3)
    for z, w in ((bad, good), (good, bad)):
        for kernel in (K, uj):
            with pytest.raises(ValueError, match="length 2n = 2"):
                mpc.kernel_eval(m, kernel, z, w)
    with pytest.raises(ValueError, match="length 2n = 2"):
        mpc.heisenberg_kernel(m, fk.heisenberg_element(bad, 0.2))
    with pytest.raises(ValueError, match="length 2n = 2"):
        fk.creation_op(m, fk.fock_basis(1, 4), bad)


def unfactored_conjugation(m, u, h, order, seed):
    """Both sides of conjugation_check's identity K_U o K_h = K_h' o K_U,
    h' = (sigma(U) v, t), at its 10 sample pairs drawn from
    default_rng(seed), summed node by node over the tensor rule: the kernel
    of U by kernel_eval, those of U_j routed through fock.uj_apply."""
    ku = mpc.mpc_kernel(m, u)
    moved = fk.heisenberg_element(mpc.sigma(m, u) @ np.array(h.v), h.t)
    nodes, weights = tensor_rule(order, np.sqrt(2.0 * m.hbar))
    sample = np.random.default_rng(seed)
    z = sample.uniform(-1, 1, size=(10, 2))
    w = sample.uniform(-1, 1, size=(10, 2))
    lhs = np.einsum("si,i,is->s", mpc.kernel_eval(m, ku, z[:, None, :], nodes),
                    weights, routed_uj(m, h, nodes, w))
    rhs = np.einsum("si,i,is->s", routed_uj(m, moved, z, nodes), weights,
                    mpc.kernel_eval(m, ku, nodes[:, None, :], w))
    return lhs, rhs


@pytest.mark.parametrize("quad_order", [8, 11, 12])
def test_conjugation_check_matches_unfactored_quadrature(quad_order):
    # at hbar = 0.7 order 11 already resolves the identity to 3.5e-7
    m = sl.standard_model(1, hbar=0.3)
    rng = np.random.default_rng(RNG_SEED + 22)
    u = mpc.random_mpc(m, rng, scale=0.6)
    h = fk.heisenberg_element(rng.uniform(-1.5, 1.5, size=2), 0.4)
    seed = int(rng.integers(2**31))
    got = mpc.conjugation_check(m, u, h, quad_order=quad_order,
                                rng=np.random.default_rng(seed))
    lhs, rhs = unfactored_conjugation(m, u, h, quad_order, seed)
    expect = float(np.abs(lhs - rhs).max())
    assert expect > 1e-6  # a truncated rule: this pins the quadrature sum itself
    assert got == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("hbar", [0.3, 0.7, 1.0, 10.0])
def test_conjugation_check_matches_unfactored_quadrature_at_order_40(hbar):
    m = sl.standard_model(1, hbar=hbar)
    rng = np.random.default_rng(RNG_SEED + 24)
    u = mpc.random_mpc(m, rng, scale=0.4)
    h = fk.heisenberg_element(rng.uniform(-1, 1, size=2), 0.3)
    seed = int(rng.integers(2**31))
    got = mpc.conjugation_check(m, u, h, quad_order=40,
                                rng=np.random.default_rng(seed))
    lhs, rhs = unfactored_conjugation(m, u, h, 40, seed)
    expect = float(np.abs(lhs - rhs).max())
    assert np.isfinite(got)
    assert abs(got - expect) <= 1e-12 * np.abs(rhs).max()


@pytest.mark.parametrize("order", [40, 41])
@pytest.mark.parametrize("hbar", [0.3, 1.0, 3.0])
def test_conjugation_check_matches_unfactored_quadrature_far_from_the_origin(
        order, hbar):
    # |v| = 2 puts large linear terms in the U_j kernels, and order 41 puts
    # an exact 0 on both axes of the rule
    m = sl.standard_model(1, hbar=hbar)
    rng = np.random.default_rng(RNG_SEED + 27)
    u = mpc.random_mpc(m, rng, scale=0.4)
    angle = rng.uniform(0, 2 * np.pi)
    h = fk.heisenberg_element(2.0 * np.array([np.cos(angle), np.sin(angle)]), -0.2)
    seed = int(rng.integers(2**31))
    got = mpc.conjugation_check(m, u, h, quad_order=order,
                                rng=np.random.default_rng(seed))
    lhs, rhs = unfactored_conjugation(m, u, h, order, seed)
    expect = float(np.abs(lhs - rhs).max())
    assert np.isfinite(got)
    assert abs(got - expect) <= 1e-12 * np.abs(rhs).max()


@pytest.mark.parametrize("order", [40, 41])
def test_conjugation_check_exponentiates_at_most_8q2_entries(monkeypatch, order):
    # two compositions of the 10 sample pairs, each 2 P Q exponentials for
    # the per-axis factors, (Q + 1) // 2 rows of Q for the cross table and
    # P for the constants, and one lam per Heisenberg kernel
    counted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def exp(x, *args, **kwargs):
            counted.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 28)
    u = mpc.random_mpc(m, rng, scale=0.4)
    h = fk.heisenberg_element(rng.uniform(-1, 1, size=2), 0.3)
    want = mpc.conjugation_check(m, u, h, quad_order=order)
    monkeypatch.setattr(mpc, "np", CountingNumpy())
    assert mpc.conjugation_check(m, u, h, quad_order=order) == want
    P, Q = 10, order
    two_compositions = 2 * (2 * P * Q + (Q + 1) // 2 * Q + P) + 2
    assert sum(counted) == two_compositions <= 8 * order**2


def test_conjugation_check_memory_peak():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 25)
    u = mpc.random_mpc(m, rng, scale=0.4)
    h = fk.heisenberg_element(rng.uniform(-1, 1, size=2), 0.3)
    P = 10
    for Q in (40, 60):
        # complex words: one composition at a time, its Q x Q cross table,
        # the reciprocal half and the (P, Q) factors of both kernels, as in
        # test_kernel_composition_memory_peak; the Q^2 x Q^2 middle kernel
        # of a node-by-node double sum alone would take 41 MB at Q = 40
        bound = 16 * (2 * Q**2 + 8 * P * Q)
        mpc.conjugation_check(m, u, h, quad_order=Q)  # warm
        tracemalloc.start()
        try:
            mpc.conjugation_check(m, u, h, quad_order=Q,
                                  rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound <= 1.5 * peak


def test_kernel_composition_memory_peak():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 26)
    u1 = mpc.random_mpc(m, rng, scale=0.45)
    u2 = mpc.random_mpc(m, rng, scale=0.45)
    Q, P = 60, 8
    comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                      mpc.mpc_kernel(m, u2), quad_order=Q)
    z = rng.uniform(-1, 1, size=(P, 2))
    w = rng.uniform(-1, 1, size=(P, 2))
    comp(z, w)  # warm
    # complex words: the Q x Q cross table, its reciprocal half and the
    # (P, Q) factors of both kernels; the two (P, Q^2) kernel tables of the
    # node-by-node sum alone would take 2 P Q^2
    bound = 16 * (2 * Q**2 + 8 * P * Q)
    tracemalloc.start()
    try:
        comp(z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound <= 1.5 * peak
    assert 4 * bound < 16 * 2 * P * Q**2


@pytest.mark.parametrize("order", [1, 2, 3, 10, 11, 40, 61, 256])
def test_exp_rows_matches_the_full_table(order):
    s = mpc._gauss_hermite(order)[0]
    assert np.array_equal(s[::-1], -s)  # the reciprocal rows rest on this
    r = 1.3 * s
    rng = np.random.default_rng(order)
    c = rng.uniform(-1, 1, size=50) + 1j * rng.uniform(-1, 1, size=50)
    want = np.exp(np.multiply.outer(r, c))
    assert np.allclose(mpc._exp_rows(r, c), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("order", [10, 11])
def test_kernel_composition_matches_node_by_node_sum(order):
    m = sl.standard_model(1, hbar=0.6)
    rng = np.random.default_rng(RNG_SEED + 27)
    u1 = mpc.random_mpc(m, rng, scale=0.45)
    u2 = mpc.random_mpc(m, rng, scale=0.45)
    K1, K2 = mpc.mpc_kernel(m, u1), mpc.mpc_kernel(m, u2)
    z = rng.uniform(-1, 1, size=(8, 2))
    w = rng.uniform(-1, 1, size=(8, 2))
    got = mpc.kernel_compose_numeric(m, K1, K2, quad_order=order)(z, w)

    nodes, weights = tensor_rule(order, np.sqrt(2.0 * m.hbar))
    direct = np.sum(weights * mpc.kernel_eval(m, K1, z[:, None, :], nodes)
                    * mpc.kernel_eval(m, K2, nodes, w[:, None, :]), axis=-1)
    exact = mpc.kernel_eval(m, mpc.mpc_kernel(m, mpc.mpc_mul(m, u1, u2)), z, w)
    scale = np.abs(exact).max()
    # a truncated rule: this pins the quadrature sum itself
    assert np.abs(direct - exact).max() > 1e-10 * scale
    assert np.abs(got - direct).max() <= 1e-13 * scale


@pytest.mark.parametrize("order", [10, 11])
def test_gaussian_integral_matches_node_by_node_sum(order):
    m = sl.standard_model(1)
    rng = np.random.default_rng(RNG_SEED + 28)
    for _ in range(4):
        r1, r2 = rng.uniform(0.1, 0.8, size=2)
        W1 = r1 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        W2 = r2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs, rhs = mpc.gaussian_integral_check(m, W1, W2, quad_order=order)

        nodes, weights = tensor_rule(order, 1.0 / np.sqrt(np.pi))
        z = nodes[:, 0] + 1j * nodes[:, 1]
        direct = np.sum(weights * np.exp(-(np.pi / 2.0) * (
            np.conj(W1) * z**2 + W2 * np.conj(z) ** 2)))
        assert abs(direct - rhs) > 1e-9
        assert abs(lhs - direct) <= 1e-13 * abs(rhs)


def test_kernel_composition_keeps_the_batch_shape():
    m = sl.standard_model(1, hbar=0.6)
    rng = np.random.default_rng(RNG_SEED + 29)
    K1 = mpc.mpc_kernel(m, mpc.random_mpc(m, rng, scale=0.45))
    K2 = mpc.mpc_kernel(m, mpc.random_mpc(m, rng, scale=0.45))
    comp = mpc.kernel_compose_numeric(m, K1, K2, quad_order=20)
    z = rng.uniform(-1, 1, size=(3, 1, 2))
    w = rng.uniform(-1, 1, size=(4, 2))
    got = comp(z, w)
    assert got.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        assert got[i, j] == pytest.approx(complex(comp(z[i, 0], w[j])),
                                          rel=1e-13)
    with pytest.raises(ValueError):
        comp(np.zeros((4, 3)), np.zeros((4, 3)))


def test_kernel_composition_matches_group_law():
    m = sl.standard_model(1, hbar=0.6)
    rng = np.random.default_rng(RNG_SEED + 15)
    for _ in range(5):
        u1 = mpc.random_mpc(m, rng, scale=0.45)
        u2 = mpc.random_mpc(m, rng, scale=0.45)
        u12 = mpc.mpc_mul(m, u1, u2)
        comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                          mpc.mpc_kernel(m, u2))
        z = rng.uniform(-1, 1, size=(8, 2))
        w = rng.uniform(-1, 1, size=(8, 2))
        exact = mpc.kernel_eval(m, mpc.mpc_kernel(m, u12), z, w)
        rel = np.abs(comp(z, w) - exact).max() / np.abs(exact).max()
        assert rel < 1e-9


def test_kernel_composition_quadrature_converges():
    m = sl.standard_model(1, hbar=0.6)
    u1 = mpc.random_mpc(m, np.random.default_rng(11), scale=0.5)
    u2 = mpc.random_mpc(m, np.random.default_rng(12), scale=0.5)
    u12 = mpc.mpc_mul(m, u1, u2)
    z = np.random.default_rng(13).uniform(-1, 1, size=(12, 2))
    w = np.random.default_rng(14).uniform(-1, 1, size=(12, 2))
    exact = mpc.kernel_eval(m, mpc.mpc_kernel(m, u12), z, w)
    res = {}
    for order in (10, 20, 40):
        comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                          mpc.mpc_kernel(m, u2),
                                          quad_order=order)
        res[order] = np.abs(comp(z, w) - exact).max() / np.abs(exact).max()
    assert res[10] > 1e-8 > res[20] > res[40] or res[20] < 1e-13
    assert res[40] < 1e-12


def test_kernel_helpers_require_n1():
    m = sl.standard_model(2)
    K = mpc.mpc_kernel(m, mpc.identity_mpc(m))
    with pytest.raises(ValueError):
        mpc.kernel_compose_numeric(m, K, K)
    with pytest.raises(ValueError):
        mpc.gaussian_integral_check(m, 0.1, 0.1)
    with pytest.raises(ValueError):
        mpc.conjugation_check(m, mpc.identity_mpc(m),
                              fk.heisenberg_element(np.zeros(4), 0.0))


# ---------------------------------------------------------------------------
# the two quadrature ground truths


def test_gaussian_integral_identity_pinned():
    # value pinned by direct 2d adaptive integration (scipy dblquad,
    # estimated error < 4e-12): both the quadrature side and the smooth log
    # det side must reproduce it
    m = sl.standard_model(1)
    pinned = 1.050829532840781 + 0.13809129412489016j
    lhs, rhs = mpc.gaussian_integral_check(m, 0.3 + 0.4j, -0.2 + 0.5j)
    assert lhs == pytest.approx(pinned, abs=1e-10)
    assert rhs == pytest.approx(pinned, abs=1e-10)


def test_gaussian_integral_identity_random():
    m = sl.standard_model(1)
    rng = np.random.default_rng(RNG_SEED + 16)
    for _ in range(8):
        r1, r2 = rng.uniform(0.1, 0.8, size=2)
        W1 = r1 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        W2 = r2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs, rhs = mpc.gaussian_integral_check(m, W1, W2)
        assert abs(lhs - rhs) < 1e-10


def test_conjugation_transports_the_vector():
    m = sl.standard_model(1, hbar=0.9)
    rng = np.random.default_rng(RNG_SEED + 17)
    u = mpc.random_mpc(m, rng, scale=0.4)
    h = fk.heisenberg_element(rng.normal(size=2) * 0.6, 0.23)
    assert mpc.conjugation_check(m, u, h, rng=rng) < 1e-10


def test_conjugation_by_central_element_is_trivial():
    m = sl.standard_model(1, hbar=0.9)
    rng = np.random.default_rng(RNG_SEED + 18)
    c = mpc.mpc_element(m, mpc.identity_mpc(m).pair, np.exp(0.9j))
    h = fk.heisenberg_element(np.array([0.4, -0.7]), 0.1)
    assert mpc.conjugation_check(m, c, h, rng=rng) < 1e-12
