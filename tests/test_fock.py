"""Tests for the truncated Fock fiber: norms, ladder operators, coherent states."""

from math import factorial

import numpy as np
import pytest

from sympdirac import fock as fk
from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def models():
    return sl.standard_model(1, hbar=0.7), sl.standard_model(2, hbar=1.3)


# ---------------------------------------------------------------------------
# basis and norms


def test_basis_ordering_and_dim():
    B = fk.fock_basis(2, 2)
    assert B.indices == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert B.dim == 6
    B = fk.fock_basis(3, 7)
    assert B.dim == factorial(10) // (factorial(7) * factorial(3))
    assert B.degree_slice(2) == slice(4, 10) or B.n != 2


def test_degree_slice_contiguous():
    B = fk.fock_basis(2, 5)
    for d in range(6):
        s = B.degree_slice(d)
        assert all(sum(a) == d for a in B.indices[s])


def test_monomial_norm_recursion_and_closed_form():
    m = sl.standard_model(2, hbar=0.7)
    B = fk.fock_basis(2, 6)
    w = fk.norm_weights(m, B)
    for i, alpha in enumerate(B.indices):
        closed = (2 * m.hbar) ** sum(alpha) * np.prod([factorial(a) for a in alpha])
        assert w[i] == pytest.approx(closed, rel=1e-14)
        assert fk.monomial_norm(m, alpha) == pytest.approx(closed, rel=1e-14)


def test_monomial_norm_gaussian_quadrature_oracle():
    # h^{-1} int |z^a|^2 e^{-|z|^2/2hbar} dz over R^2, h = 2 pi hbar,
    # computed with Gauss-Hermite nodes after x = sqrt(2 hbar) s.
    m = sl.standard_model(1, hbar=0.7)
    s, w = np.polynomial.hermite.hermgauss(80)
    r2 = 2 * m.hbar * (s[:, None] ** 2 + s[None, :] ** 2)
    ww = w[:, None] * w[None, :]
    for a in range(5):
        quad = 2 * m.hbar * np.sum(ww * r2**a) / (2 * np.pi * m.hbar)
        assert quad == pytest.approx(fk.monomial_norm(m, (a,)), rel=1e-12)


def test_fock_inner_monomial_orthogonality_quadrature():
    # distinct monomials integrate to zero against the Gaussian weight
    m = sl.standard_model(1, hbar=0.5)
    s, w = np.polynomial.hermite.hermgauss(60)
    z = np.sqrt(2 * m.hbar) * (s[:, None] + 1j * s[None, :])
    ww = w[:, None] * w[None, :]
    for a in range(3):
        for b in range(3):
            quad = 2 * m.hbar * np.sum(ww * z**a * z.conj() ** b) / (2 * np.pi * m.hbar)
            expect = fk.monomial_norm(m, (a,)) if a == b else 0.0
            assert quad == pytest.approx(expect, abs=1e-12)


def test_fock_inner_weighted_sum():
    m = sl.standard_model(2, hbar=1.3)
    B = fk.fock_basis(2, 4)
    rng = np.random.default_rng(RNG_SEED)
    f = fk.FockVector(B, rng.standard_normal(B.dim) + 1j * rng.standard_normal(B.dim))
    g = fk.FockVector(B, rng.standard_normal(B.dim) + 1j * rng.standard_normal(B.dim))
    w = fk.norm_weights(m, B)
    assert fk.fock_inner(m, f, g) == pytest.approx(np.sum(f.coeffs * g.coeffs.conj() * w))
    assert fk.fock_inner(m, f, f).real > 0


# ---------------------------------------------------------------------------
# ladder operators


def test_creation_small_case_entries():
    m = sl.standard_model(1, hbar=0.5)
    B = fk.fock_basis(1, 2)
    C = fk.creation_op(m, B, np.array([1.0, 0.0]))  # v = e_1, conj coords 1
    # c(e_1) z^a = z^{a+1} / (2 hbar) = z^{a+1}
    expect = np.zeros((3, 3))
    expect[1, 0] = expect[2, 1] = 1.0
    assert np.allclose(C.matrix, expect)
    A = fk.annihilation_op(m, B, np.array([1.0, 0.0]))
    expect = np.zeros((3, 3))
    expect[0, 1] = 1.0
    expect[1, 2] = 2.0
    assert np.allclose(A.matrix, expect)


def test_ccr_on_interior_degrees():
    for m in models():
        B = fk.fock_basis(m.n, 10)
        rng = np.random.default_rng(RNG_SEED)
        u, v = rng.standard_normal(2 * m.n), rng.standard_normal(2 * m.n)
        a_u = fk.annihilation_op(m, B, u).matrix
        c_v = fk.creation_op(m, B, v).matrix
        comm = a_u @ c_v - c_v @ a_u
        expect = sl.hermitean_form(m, u, v) / (2 * m.hbar)
        sub = B.degree_slice(B.max_degree).start  # interior: degree <= N-1
        res = np.abs(comm[:sub, :sub] - expect * np.eye(B.dim)[:sub, :sub]).max()
        assert res < 1e-13


def test_clifford_bracket_is_symplectic_form():
    for m in models():
        B = fk.fock_basis(m.n, 10)
        rng = np.random.default_rng(RNG_SEED + 1)
        u, v = rng.standard_normal(2 * m.n), rng.standard_normal(2 * m.n)
        cu = fk.clifford_op(m, B, u).matrix
        cv = fk.clifford_op(m, B, v).matrix
        br = cu @ cv - cv @ cu
        expect = 1j * sl.omega_form(m, u, v) / m.hbar
        sub = B.degree_slice(B.max_degree).start
        res = np.abs(br[:sub, :sub] - expect * np.eye(B.dim)[:sub, :sub]).max()
        assert res < 1e-13


def test_j_linearity_of_ladders():
    m = sl.standard_model(2, hbar=0.9)
    B = fk.fock_basis(2, 5)
    rng = np.random.default_rng(RNG_SEED)
    v = rng.standard_normal(4)
    assert np.allclose(fk.annihilation_op(m, B, m.j @ v).matrix,
                       1j * fk.annihilation_op(m, B, v).matrix)
    assert np.allclose(fk.creation_op(m, B, m.j @ v).matrix,
                       -1j * fk.creation_op(m, B, v).matrix)


def test_creation_adjoint_is_annihilation_exactly():
    # adjointness holds exactly on the truncated space: the dropped top row of
    # c(v) pairs to zero with every polynomial of degree <= N
    for m in models():
        B = fk.fock_basis(m.n, 6)
        rng = np.random.default_rng(RNG_SEED + 2)
        v = rng.standard_normal(2 * m.n)
        C = fk.creation_op(m, B, v).matrix
        A = fk.annihilation_op(m, B, v).matrix
        assert np.abs(fk.adjoint_matrix(m, B, C) - A).max() < 1e-13


def test_degree_shift_annotation_enforced():
    m = sl.standard_model(1)
    B = fk.fock_basis(1, 3)
    mat = fk.creation_op(m, B, np.array([1.0, 0.0])).matrix
    with pytest.raises(ValueError):
        fk.FockOperator(basis=B, matrix=mat, degree_shift=-1)
    assert fk.degree_shift_mass(B, mat, 1) == 0.0


def test_transfer_tensors_match_ladder_products():
    m = sl.standard_model(2, hbar=0.8)
    B = fk.fock_basis(2, 5)
    shift, raise2, lower2 = fk.transfer_tensors(2, 5)
    e = np.eye(4)
    A = [fk.annihilation_op(m, B, e[k]).matrix for k in range(2)]
    C = [fk.creation_op(m, B, e[k]).matrix for k in range(2)]
    for k in range(2):
        for l in range(2):
            assert np.allclose(shift[k, l], (2 * m.hbar) * C[l] @ A[k])
            assert np.allclose(raise2[k, l], (2 * m.hbar) ** 2 * C[k] @ C[l])
            assert np.allclose(lower2[k, l], A[k] @ A[l])


# ---------------------------------------------------------------------------
# Heisenberg group and coherent states


def test_heisenberg_mul_and_inverse():
    m = sl.standard_model(2)
    rng = np.random.default_rng(RNG_SEED)
    v1, v2, v3 = (rng.standard_normal(4) for _ in range(3))
    h1, h2, h3 = (fk.heisenberg_element(v, t) for v, t in ((v1, 0.3), (v2, -1.1), (v3, 0.6)))
    # associativity (the cocycle -Omega/2 is a group cocycle)
    left = fk.heisenberg_mul(m, fk.heisenberg_mul(m, h1, h2), h3)
    right = fk.heisenberg_mul(m, h1, fk.heisenberg_mul(m, h2, h3))
    assert np.allclose(left.v, right.v) and left.t == pytest.approx(right.t)
    inv = fk.heisenberg_inverse(m, h1)
    prod = fk.heisenberg_mul(m, h1, inv)
    assert np.abs(np.array(prod.v)).max() < 1e-15 and abs(prod.t) < 1e-15


def test_coherent_reproducing_property():
    m = sl.standard_model(2, hbar=0.6)
    rng = np.random.default_rng(RNG_SEED)
    v, w = rng.standard_normal(4), rng.standard_normal(4)
    assert fk.coherent_inner(m, v, w) == pytest.approx(fk.coherent_eval(m, v, w))
    assert fk.coherent_inner(m, v, v) == pytest.approx(
        np.exp(sl.hermitean_form(m, v, v).real / (2 * m.hbar))
    )


def test_coherent_gram_positive():
    m = sl.standard_model(1, hbar=1.0)
    rng = np.random.default_rng(RNG_SEED)
    centers = rng.standard_normal((6, 2))
    G = np.array([[fk.coherent_inner(m, v, w) for w in centers] for v in centers])
    # Gram matrix of linearly independent states: Hermitean positive definite
    assert np.abs(G - G.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(G).min() > 0


def test_uj_action_is_unitary_and_group_law():
    m = sl.standard_model(2, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED)
    combo = fk.coherent_combo([1.0 + 0.5j, -0.2], rng.standard_normal((2, 4)))
    h1 = fk.heisenberg_element(rng.standard_normal(4), 0.3)
    h2 = fk.heisenberg_element(rng.standard_normal(4), -0.8)
    out = fk.uj_apply(m, h1, combo)
    assert fk.combo_inner(m, out, out) == pytest.approx(fk.combo_inner(m, combo, combo))
    lhs = fk.uj_apply(m, h1, fk.uj_apply(m, h2, combo))
    rhs = fk.uj_apply(m, fk.heisenberg_mul(m, h1, h2), combo)
    # same element: inner products against both agree
    assert fk.combo_inner(m, lhs, lhs) == pytest.approx(fk.combo_inner(m, lhs, rhs))
    assert fk.combo_inner(m, lhs, lhs) == pytest.approx(fk.combo_inner(m, rhs, rhs))


def test_combo_log_norm_matches_gram_and_survives_small_hbar():
    rng = np.random.default_rng(RNG_SEED)
    combo = fk.coherent_combo(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                              rng.uniform(-2, 2, size=(3, 4)))
    m = sl.standard_model(2, hbar=0.7)
    want = 0.5 * np.log(fk.combo_inner(m, combo, combo).real)
    assert fk.combo_log_norm(m, combo) == pytest.approx(want, rel=1e-13)
    # at hbar = 1e-3 the Gram entries exp(|v|^2/2hbar) overflow, and the
    # norm is that of the largest center's state to within rounding
    m = sl.standard_model(2, hbar=1e-3)
    big = np.argmax((combo.centers ** 2).sum(axis=-1))
    want = (np.log(abs(combo.coeffs[big]))
            + (combo.centers[big] ** 2).sum() / (4.0 * m.hbar))
    assert fk.combo_log_norm(m, combo) == pytest.approx(want, rel=1e-13)


def test_central_element_acts_by_phase():
    m = sl.standard_model(1, hbar=0.5)
    combo = fk.coherent_combo([1.0], [[0.3, -0.2]])
    out = fk.uj_apply(m, fk.heisenberg_element(np.zeros(2), 0.4), combo)
    assert out.coeffs[0] == pytest.approx(np.exp(-1j * 0.4 / m.hbar))
    assert np.allclose(out.centers, combo.centers)


def test_lie_act_is_derivative_of_group_action():
    m = sl.standard_model(2, hbar=0.7)
    B = fk.fock_basis(2, 8)
    rng = np.random.default_rng(RNG_SEED)
    v, alpha = rng.standard_normal(4), 0.37
    w0 = 0.3 * rng.standard_normal(4)
    f0 = fk.project_coherent(m, B, fk.coherent_combo([1.0], [w0]))
    expect = fk.heisenberg_lie_act(m, B, v, alpha, f0)
    # compare on degrees <= N-1, where truncating before/after differentiating agree
    interior = B.degrees <= B.max_degree - 1
    res = {}
    for s in (1e-3, 1e-4):
        plus = fk.uj_apply(m, fk.heisenberg_element(s * v, s * alpha),
                           fk.coherent_combo([1.0], [w0]))
        minus = fk.uj_apply(m, fk.heisenberg_element(-s * v, -s * alpha),
                            fk.coherent_combo([1.0], [w0]))
        fd = (fk.project_coherent(m, B, plus).coeffs
              - fk.project_coherent(m, B, minus).coeffs) / (2 * s)
        res[s] = np.abs((fd - expect.coeffs)[interior]).max()
    # central differences converge at second order
    assert res[1e-3] < 1e-5
    assert 25 < res[1e-3] / res[1e-4] < 400


def test_lie_bracket_matches_heisenberg_algebra():
    m = sl.standard_model(2, hbar=1.1)
    B = fk.fock_basis(2, 8)
    rng = np.random.default_rng(RNG_SEED)
    v, w = rng.standard_normal(4), rng.standard_normal(4)
    f = fk.FockVector(B, rng.standard_normal(B.dim) + 1j * rng.standard_normal(B.dim))
    # restrict source to degree <= N-2 so both orders stay inside the truncation
    f = fk.FockVector(B, f.coeffs * (B.degrees <= B.max_degree - 2))
    act1 = lambda g: fk.heisenberg_lie_act(m, B, v, 0.2, g)
    act2 = lambda g: fk.heisenberg_lie_act(m, B, w, -0.1, g)
    br = act1(act2(f)).coeffs - act2(act1(f)).coeffs
    expect = fk.heisenberg_lie_act(m, B, np.zeros(4), -sl.omega_form(m, v, w), f)
    assert np.abs(br - expect.coeffs).max() < 1e-12


def test_project_coherent_truncation_error_within_tail_bound():
    m = sl.standard_model(2, hbar=0.8)
    rng = np.random.default_rng(RNG_SEED)
    v, w = 0.7 * rng.standard_normal(4), 0.7 * rng.standard_normal(4)
    exact = fk.coherent_inner(m, v, w)
    x = abs(sl.hermitean_form(m, w, v)) / (2 * m.hbar)
    prev = None
    for N in (3, 6, 9):
        B = fk.fock_basis(2, N)
        pv = fk.project_coherent(m, B, fk.coherent_combo([1.0], [v]))
        pw = fk.project_coherent(m, B, fk.coherent_combo([1.0], [w]))
        diff = abs(fk.fock_inner(m, pv, pw) - exact)
        tail = sum(x**k / factorial(k) for k in range(N + 1, N + 60))
        assert diff <= tail + 1e-14
        if prev is not None:
            assert diff < prev
        prev = diff


# ---------------------------------------------------------------------------
# Berezin kernels


def test_identity_kernel_is_truncated_exponential():
    m = sl.standard_model(2, hbar=0.9)
    B = fk.fock_basis(2, 6)
    I = fk.FockOperator(B, np.eye(B.dim, dtype=complex), degree_shift=0)
    rng = np.random.default_rng(RNG_SEED)
    z, w = 0.5 * rng.standard_normal(4), 0.5 * rng.standard_normal(4)
    x = sl.hermitean_form(m, z, w) / (2 * m.hbar)
    trunc = sum(x**k / factorial(k) for k in range(B.max_degree + 1))
    assert fk.berezin_kernel_eval(m, I, z, w) == pytest.approx(trunc)


def test_creation_kernel_factorizes():
    # K_{c(v)}(z, w) = <z, v>/2hbar * (identity kernel truncated one degree lower)
    m = sl.standard_model(1, hbar=0.6)
    B = fk.fock_basis(1, 5)
    rng = np.random.default_rng(RNG_SEED)
    v = rng.standard_normal(2)
    C = fk.creation_op(m, B, v)
    z, w = 0.4 * rng.standard_normal(2), 0.4 * rng.standard_normal(2)
    x = sl.hermitean_form(m, z, w) / (2 * m.hbar)
    lower = sum(x**k / factorial(k) for k in range(B.max_degree))
    expect = sl.hermitean_form(m, z, v) / (2 * m.hbar) * lower
    assert fk.berezin_kernel_eval(m, C, z, w) == pytest.approx(expect)


def test_kernel_cauchy_riemann_checks():
    # holomorphic in z, antiholomorphic in w, under z_k = x_k + i y_k
    m = sl.standard_model(1, hbar=1.0)
    B = fk.fock_basis(1, 7)
    rng = np.random.default_rng(RNG_SEED)
    mat = rng.standard_normal((B.dim, B.dim)) + 1j * rng.standard_normal((B.dim, B.dim))
    A = fk.FockOperator(B, mat)
    z, w = rng.standard_normal(2) * 0.3, rng.standard_normal(2) * 0.3
    h = 1e-5
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])

    def dz(p):
        return (fk.berezin_kernel_eval(m, A, z + p, w) - fk.berezin_kernel_eval(m, A, z - p, w)) / (2 * h)

    # d/dy = i d/dx for holomorphic dependence
    assert dz(ey) == pytest.approx(1j * dz(ex), abs=1e-7)

    def dw(p):
        return (fk.berezin_kernel_eval(m, A, z, w + p) - fk.berezin_kernel_eval(m, A, z, w - p)) / (2 * h)

    # d/dy = -i d/dx for antiholomorphic dependence
    assert dw(ey) == pytest.approx(-1j * dw(ex), abs=1e-7)
