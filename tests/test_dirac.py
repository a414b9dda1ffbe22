"""Tests for the symplectic Dirac operators, adjoints and spectra."""

import math
import tracemalloc
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import mpc
from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def make_setup(n=1, hbar=0.7, cutoff=4, max_degree=5, kind="unitary",
               seed=RNG_SEED, conn_cutoff=1):
    t = ge.torus_model(sl.standard_model(n, hbar=hbar), cutoff)
    rng = np.random.default_rng(seed)
    if kind == "flat":
        conn = ge.flat_connection(t)
    elif kind == "torsion-free":
        conn = ge.torsion_removal(
            ge.random_connection(t, rng, cutoff=conn_cutoff, unitary=True))
    else:
        conn = ge.random_connection(t, rng, cutoff=conn_cutoff,
                                    unitary=kind == "unitary")
    ctx = dr.make_context(conn, fk.fock_basis(n, max_degree))
    return ctx, rng


def random_psi(ctx, rng, cutoff=2, max_degree=None):
    return ge.random_spinor_field(ctx.torus, ctx.basis, rng, cutoff=cutoff,
                                  max_degree=max_degree)


def plane_wave_spinor(ctx, kvec, fiber_index):
    x = ge.grid_points(ctx.torus)
    vals = np.zeros(ctx.torus.grid_shape + (ctx.basis.dim,), dtype=complex)
    vals[..., fiber_index] = np.exp(1j * (x @ np.asarray(kvec, dtype=float)))
    return ge.spinor_field(ctx.torus, ctx.basis, vals)


# ---------------------------------------------------------------------------
# first-order structure


def test_context_validation():
    t = ge.torus_model(sl.standard_model(1, hbar=0.7), 4)
    conn = ge.flat_connection(t)
    with pytest.raises(ValueError):
        dr.make_context(conn, fk.fock_basis(2, 3))


def test_D_splits_into_raising_and_lowering_parts():
    ctx, rng = make_setup(kind="unitary")
    psi = random_psi(ctx, rng)
    D = dr.dirac_D(ctx, psi).values
    Dt = dr.dirac_Dtilde(ctx, psi).values
    Dp = dr.dirac_Dprime(ctx, psi).values
    Ds = dr.dirac_Dsecond(ctx, psi).values
    assert np.abs(D - (Dp + Ds)).max() < 1e-12
    assert np.abs(Dt - (-1j * Dp + 1j * Ds)).max() < 1e-12


def test_degree_shifts_are_exact():
    ctx, rng = make_setup(kind="unitary", max_degree=5)
    degs = ctx.basis.degrees
    for d in range(4):
        psi = random_psi(ctx, rng, cutoff=2)
        vals = np.where(degs == d, psi.values, 0.0)
        psi = ge.spinor_field(ctx.torus, ctx.basis, vals)
        up = dr.dirac_Dprime(ctx, psi).values
        down = dr.dirac_Dsecond(ctx, psi).values
        assert np.abs(up[..., degs != d + 1]).max() < 1e-14
        assert np.abs(down[..., degs != d - 1]).max() < 1e-14


def test_frame_path_matches_fast_path_on_identity_frame():
    ctx, rng = make_setup(kind="unitary")
    psi = random_psi(ctx, rng)
    for name, op in (("D", dr.dirac_D), ("Dt", dr.dirac_Dtilde),
                     ("Dp", dr.dirac_Dprime), ("Ds", dr.dirac_Dsecond)):
        fast = op(ctx, psi).values
        framed = dr.dirac_via_frame(ctx, psi, np.eye(2), name).values
        assert np.abs(fast - framed).max() < 1e-12


def test_frame_independence_constant_symplectic():
    ctx, rng = make_setup(kind="unitary")
    psi = random_psi(ctx, rng)
    frames = [sl.random_sp(ctx.model, rng) for _ in range(3)]
    frames.append(ctx.model.j)  # rotating the whole frame by J
    for name, op in (("D", dr.dirac_D), ("Dt", dr.dirac_Dtilde),
                     ("Dp", dr.dirac_Dprime), ("Ds", dr.dirac_Dsecond)):
        fast = op(ctx, psi).values
        for E in frames:
            framed = dr.dirac_via_frame(ctx, psi, E, name).values
            assert np.abs(fast - framed).max() < 1e-12


def test_frame_independence_varying_frame_field():
    ctx, rng = make_setup(kind="unitary")
    t = ctx.torus
    g = ge.random_scalar_field(t, rng, cutoff=1, scale=0.4)
    h = ge.random_scalar_field(t, rng, cutoff=1, scale=0.4)
    frame = np.zeros(t.grid_shape + (2, 2))
    frame[..., 0, 0] = 1.0 + g * h
    frame[..., 0, 1] = g
    frame[..., 1, 0] = h
    frame[..., 1, 1] = 1.0
    psi = random_psi(ctx, rng, cutoff=1)
    for name, op in (("D", dr.dirac_D), ("Dp", dr.dirac_Dprime),
                     ("Ds", dr.dirac_Dsecond)):
        fast = op(ctx, psi).values
        framed = dr.dirac_via_frame(ctx, psi, frame, name).values
        assert np.abs(fast - framed).max() < 1e-12


# ---------------------------------------------------------------------------
# the degree-preserving second-order operator


def test_P_is_i_commutator_of_Dtilde_and_D():
    ctx, rng = make_setup(kind="unitary", max_degree=6)
    N = ctx.basis.max_degree
    psi = random_psi(ctx, rng, cutoff=2, max_degree=N - 2)
    P = dr.P_op(ctx, psi).values
    comm = dr.dirac_Dtilde(ctx, dr.dirac_D(ctx, psi)).values \
        - dr.dirac_D(ctx, dr.dirac_Dtilde(ctx, psi)).values
    keep = ctx.basis.degrees <= N - 2
    assert np.abs((P - 1j * comm)[..., keep]).max() < 1e-11


def test_P_preserves_degree_for_unitary_connection():
    ctx, rng = make_setup(kind="unitary")
    degs = ctx.basis.degrees
    psi = random_psi(ctx, rng, cutoff=2)
    vals = np.where(degs == 2, psi.values, 0.0)
    out = dr.P_op(ctx, ge.spinor_field(ctx.torus, ctx.basis, vals)).values
    assert np.abs(out[..., degs != 2]).max() < 1e-13


def test_flat_plane_wave_eigenvalue_below_top_degree():
    # the top fiber degree is excluded: raising out of the truncated basis
    # breaks the commutator there
    ctx, _ = make_setup(kind="flat", max_degree=5)
    hbar = ctx.model.hbar
    N = ctx.basis.max_degree
    for kvec in ([1, 0], [0, 2], [2, -3], [4, 4]):
        lam = -float(np.asarray(kvec) @ ctx.ginv @ np.asarray(kvec)) / hbar
        for fi in np.nonzero(ctx.basis.degrees <= N - 1)[0]:
            psi = plane_wave_spinor(ctx, kvec, int(fi))
            out = dr.P_op(ctx, psi).values
            assert np.abs(out - lam * psi.values).max() < 1e-10


def test_top_degree_commutator_is_genuinely_distorted():
    ctx, _ = make_setup(kind="flat", max_degree=5)
    top = int(np.nonzero(ctx.basis.degrees == 5)[0][0])
    psi = plane_wave_spinor(ctx, [1, 0], top)
    lam = -float(np.array([1, 0]) @ ctx.ginv @ np.array([1, 0])) / ctx.model.hbar
    out = dr.P_op(ctx, psi).values
    assert np.abs(out - lam * psi.values).max() > 0.1


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 2))
def test_flat_plane_wave_eigenvalue_hypothesis(k1, k2, fi):
    ctx, _ = make_setup(kind="flat", max_degree=3, hbar=1.1)
    kvec = [k1, k2]
    lam = -float(np.asarray(kvec) @ ctx.ginv @ np.asarray(kvec)) / ctx.model.hbar
    psi = plane_wave_spinor(ctx, kvec, fi)
    out = dr.P_op(ctx, psi).values
    assert np.abs(out - lam * psi.values).max() < 1e-10


# ---------------------------------------------------------------------------
# inner products and adjoints


def test_l2_inner_normalization_and_symmetry():
    ctx, rng = make_setup(kind="flat", max_degree=4)
    vac = ge.spinor_field(ctx.torus, ctx.basis, np.broadcast_to(
        np.eye(ctx.basis.dim)[0], ctx.torus.grid_shape + (ctx.basis.dim,)))
    # the vacuum monomial has unit weight, so the norm is the torus volume
    assert dr.l2_inner(ctx, vac, vac) == pytest.approx((2 * np.pi) ** 2)
    psi = random_psi(ctx, rng)
    phi = random_psi(ctx, rng)
    a = dr.l2_inner(ctx, psi, phi)
    b = dr.l2_inner(ctx, phi, psi)
    assert a == pytest.approx(np.conj(b))
    two = ge.spinor_field(ctx.torus, ctx.basis, 2.0 * psi.values)
    assert dr.l2_inner(ctx, two, phi) == pytest.approx(2 * a)
    assert dr.l2_norm(ctx, psi) > 0


def test_first_order_adjoint_with_torsion_term():
    ctx, rng = make_setup(kind="unitary", max_degree=5)
    assert np.abs(ctx.tau).max() > 1e-3  # connection is genuinely torsionful
    for _ in range(10):
        psi = random_psi(ctx, rng, cutoff=2)
        phi = random_psi(ctx, rng, cutoff=2)
        assert dr.adjoint_residual(ctx, psi, phi) < 1e-10


def test_adjoint_needs_the_torsion_correction():
    ctx, rng = make_setup(kind="unitary", max_degree=5)
    psi = random_psi(ctx, rng, cutoff=2)
    phi = random_psi(ctx, rng, cutoff=2)
    bare = abs(dr.l2_inner(ctx, dr.dirac_Dprime(ctx, psi), phi)
               - dr.l2_inner(ctx, psi, dr.dirac_Dsecond(ctx, phi)))
    assert bare > 1e-3


def test_nabla_star_is_adjoint_of_nabla():
    ctx, rng = make_setup(kind="unitary", max_degree=4)
    for _ in range(5):
        psi = random_psi(ctx, rng, cutoff=2)
        beta = np.stack([random_psi(ctx, rng, cutoff=2).values
                         for _ in range(2)], axis=0)
        lhs = dr.oneform_inner(ctx, dr.nabla_full(ctx, psi), beta)
        rhs = dr.l2_inner(ctx, psi, dr.nabla_star(ctx, beta))
        assert abs(lhs - rhs) < 1e-10


def test_laplacian_agrees_with_nabla_star_nabla():
    ctx, rng = make_setup(kind="unitary", max_degree=4)
    psi = random_psi(ctx, rng, cutoff=2)
    lap = dr.laplacian(ctx, psi).values
    composed = dr.nabla_star(ctx, dr.nabla_full(ctx, psi)).values
    assert np.abs(lap - composed).max() < 1e-12


def test_flat_laplacian_plane_wave_eigenvalue():
    ctx, _ = make_setup(kind="flat", max_degree=3)
    kvec = [2, 1]
    lam = float(np.asarray(kvec) @ ctx.ginv @ np.asarray(kvec))
    psi = plane_wave_spinor(ctx, kvec, 1)
    out = dr.laplacian(ctx, psi).values
    assert np.abs(out - lam * psi.values).max() < 1e-11


# ---------------------------------------------------------------------------
# the curvature identity


def test_weitzenbock_identity_across_connections():
    for kind in ("flat", "unitary", "torsion-free"):
        ctx, rng = make_setup(kind=kind, max_degree=6)
        N = ctx.basis.max_degree
        psi = random_psi(ctx, rng, cutoff=2, max_degree=N - 2)
        assert dr.weitzenbock_residual(ctx, psi, form="ca") < 1e-10
        assert dr.weitzenbock_residual(ctx, psi, form="clcl") < 1e-10


def test_weitzenbock_central_connection():
    ctx, rng = make_setup(kind="flat", max_degree=6)
    t = ctx.torus
    d = t.dim
    a = np.zeros((d,) + t.grid_shape, dtype=complex)
    a[1] = ge.random_scalar_field(t, rng, cutoff=1, imaginary=True, scale=0.4)
    conn = ge.make_connection(t, np.zeros((d,) + t.grid_shape + (d, d)), a)
    ctx = dr.make_context(conn, ctx.basis)
    psi = random_psi(ctx, rng, cutoff=2, max_degree=4)
    assert dr.weitzenbock_residual(ctx, psi, form="ca") < 1e-10


def test_weitzenbock_two_forms_agree_after_antisymmetrization():
    # the raw prefactors differ by a part symmetric in the form slots,
    # which cancels against the antisymmetric curvature factor
    ctx, _ = make_setup(kind="unitary", max_degree=5)
    Mca = dr._curvature_prefactors(ctx, "ca")
    Mcl = dr._curvature_prefactors(ctx, "clcl")
    anti_ca = 0.5 * (Mca - np.swapaxes(Mca, 0, 1))
    anti_cl = 0.5 * (Mcl - np.swapaxes(Mcl, 0, 1))
    assert np.abs(anti_ca - anti_cl).max() < 1e-11
    with pytest.raises(ValueError):
        dr._curvature_prefactors(ctx, "other")


def test_weitzenbock_rejects_non_unitary():
    ctx, rng = make_setup(kind="general", max_degree=4)
    psi = random_psi(ctx, rng, cutoff=1, max_degree=2)
    with pytest.raises(ValueError):
        dr.weitzenbock_residual(ctx, psi)


# ---------------------------------------------------------------------------
# symbol and spectra


def test_symbol_flat_is_exact_below_top_degree():
    ctx, _ = make_setup(kind="flat", max_degree=3)
    blocks, expected = dr.symbol_check(ctx, [3, 2])
    for block in blocks[:-1]:
        gap = block - expected * np.eye(block.shape[0])
        assert np.abs(gap).max() < 1e-11


def test_symbol_gap_stays_subleading():
    # on a wide torus the demodulated blocks approach the scalar symbol:
    # the defect is dominated by k-independent connection terms
    t = ge.torus_model(sl.standard_model(1, hbar=0.7), 16)
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=2, unitary=True)
    ctx = dr.make_context(conn, fk.fock_basis(1, 3))
    gaps = []
    for kk in (4, 8, 16):
        blocks, expected = dr.symbol_check(ctx, [kk, 0])
        gap = max(np.abs(b - expected * np.eye(b.shape[0])).max()
                  for b in blocks[:-1])
        gaps.append(gap / kk**2)
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
    assert gaps[2] < 0.05


def test_spectrum_flat_matches_closed_form():
    ctx, _ = make_setup(kind="flat", cutoff=2, max_degree=4, hbar=0.9)
    hbar = ctx.model.hbar
    want = sorted(
        -float(np.array(mv) @ ctx.ginv @ np.array(mv)) / hbar
        for mv in product(range(-2, 3), repeat=2)
    )
    for degree in range(ctx.basis.max_degree):
        mult = int(np.count_nonzero(ctx.basis.degrees == degree))
        eig = dr.spectrum(ctx, degree)
        assert eig.shape == (len(want) * mult,)
        assert np.abs(eig.imag).max() < 1e-10
        assert np.abs(np.sort(eig.real) - np.repeat(want, mult)).max() < 1e-10


def test_spectrum_real_without_torsion_complex_with():
    ctx, _ = make_setup(kind="torsion-free", cutoff=4, max_degree=4)
    eig = dr.spectrum(ctx, 1)
    assert np.abs(eig.imag).max() < 1e-9
    ctx2, _ = make_setup(kind="unitary", cutoff=4, max_degree=4)
    assert np.abs(ge.tau_field(ctx2.conn)).max() > 1e-3
    eig2 = dr.spectrum(ctx2, 1)
    assert np.abs(eig2.imag).max() > 0.1


def test_spectrum_rejects_top_and_out_of_range_degrees():
    ctx, _ = make_setup(kind="flat", cutoff=2, max_degree=3)
    with pytest.raises(ValueError):
        dr.spectrum(ctx, 3)
    with pytest.raises(ValueError):
        dr.spectrum(ctx, -1)


def test_spectrum_refuses_non_unitary_connection():
    # P couples degree d to d +/- 2 there, so no single-degree block is
    # invariant and its eigenvalues would not belong to P
    ctx, _ = make_setup(kind="general", cutoff=2, max_degree=4)
    with pytest.raises(ValueError, match="unitary"):
        dr.spectrum(ctx, 0)


def test_spectrum_rejects_non_integral_degree():
    # no fiber monomial has degree 0.5, so the block would be empty
    ctx, _ = make_setup(kind="flat", cutoff=1, max_degree=3)
    for degree in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="integer"):
            dr.spectrum(ctx, degree)
    assert np.array_equal(dr.spectrum(ctx, np.int64(1)), dr.spectrum(ctx, 1))


def unitary_mode_connection(torus, rng, terms=2, scale=0.3):
    """Random unitary band-1 connection given by its trigonometric modes.

    The draw does not depend on the grid, so the same connection can be
    sampled on tori that differ only in grid size.
    """
    n, d = torus.model.n, torus.dim
    gamma, a = [], []
    for b in range(d):
        for _ in range(terms):
            K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            xi = sl.real_matrix(torus.model, scale * (K - K.conj().T))
            gamma.append((b, rng.integers(-1, 2, size=d),
                          rng.choice(["cos", "sin"]), xi))
        a.append((b, rng.integers(-1, 2, size=d), rng.choice(["cos", "sin"]),
                  1j * scale * rng.normal()))
    return ge.connection_from_modes(torus, gamma, a)


def mode_setup(n, cutoff, max_degree, grid_size=None, seed=RNG_SEED):
    t = ge.torus_model(sl.standard_model(n, hbar=0.7), cutoff, grid_size)
    conn = unitary_mode_connection(t, np.random.default_rng(seed))
    return dr.make_context(conn, fk.fock_basis(n, max_degree))


@pytest.mark.parametrize("n, cutoff, max_degree, degrees",
                         [(1, 2, 4, (0, 1, 2, 3)), (2, 1, 3, (0, 1))])
def test_spectrum_matches_plane_waves_through_P_op(n, cutoff, max_degree,
                                                   degrees):
    ctx = mode_setup(n, cutoff, max_degree)
    assert ctx.conn.unitary and np.abs(ctx.tau).max() > 1e-3
    G = ctx.torus.grid_size
    modes = list(product(range(-cutoff, cutoff + 1), repeat=ctx.torus.dim))
    for degree in degrees:
        fiber = np.nonzero(ctx.basis.degrees == degree)[0]
        rows = tuple(np.array([tuple(m) + (f,) for m in np.mod(modes, G)
                               for f in fiber]).T)
        # the Galerkin block one plane wave at a time, read off by FFT
        cols, trace = [], 0.0j
        for kv in modes:
            for fi in fiber:
                psi = plane_wave_spinor(ctx, kv, fi)
                out = dr.P_op(ctx, psi)
                trace += (dr.l2_inner(ctx, out, psi)
                          / dr.l2_inner(ctx, psi, psi))
                cols.append(ge.mode_coefficients(ctx.torus, out.values)[rows])
        eig = dr.spectrum(ctx, degree)
        assert abs(eig.sum() - trace) < 1e-10 * np.abs(eig).sum()
        want = np.linalg.eigvals(np.array(cols).T)
        gap = np.abs(eig[:, None] - want[None])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-10


@pytest.mark.parametrize("n, cutoff, max_degree, big_grid",
                         [(1, 2, 4, 11), (2, 1, 3, 7)])
def test_spectrum_independent_of_grid_size(n, cutoff, max_degree, big_grid):
    small = mode_setup(n, cutoff, max_degree)
    big = mode_setup(n, cutoff, max_degree, grid_size=big_grid)
    assert big.torus.grid_size > small.torus.grid_size
    for degree in range(max_degree):
        eig, eig_big = dr.spectrum(small, degree), dr.spectrum(big, degree)
        assert np.abs(eig.imag).max() > 1e-3
        gap = np.abs(eig[:, None] - eig_big[None])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) < 1e-10


def test_symbol_check_rejects_non_integral_wavevector():
    ctx, _ = make_setup(kind="flat", max_degree=3)
    with pytest.raises(ValueError, match="integral"):
        dr.symbol_check(ctx, [0.5, 1])


def test_symbol_check_rejects_wavevector_past_nyquist():
    # the default grid has 13 points per axis, Nyquist index 6: k = (13, 0)
    # would be read as mode 0 and k = (7, 7) as (-6, -6)
    ctx, _ = make_setup(kind="unitary", max_degree=3)
    assert ctx.torus.nyquist == 6
    for kvec in ([13, 0], [7, 7], [0, -7]):
        with pytest.raises(ValueError, match="Nyquist"):
            dr.symbol_check(ctx, kvec)
    blocks, expected = dr.symbol_check(ctx, [6, -6])
    assert len(blocks) == 4 and expected < 0


def test_operators_reject_field_on_another_torus():
    ctx, rng = make_setup(kind="unitary", cutoff=2, max_degree=3, hbar=0.7)
    other = ge.torus_model(sl.standard_model(1, hbar=2.0), 2)
    assert other.grid_shape == ctx.torus.grid_shape
    psi = ge.random_spinor_field(other, ctx.basis, rng, cutoff=1)
    for op in (dr.P_op, dr.dirac_D, dr.laplacian, dr.aj_tau):
        with pytest.raises(ValueError, match="another torus"):
            op(ctx, psi)
    with pytest.raises(ValueError, match="another torus"):
        dr.l2_inner(ctx, psi, psi)
    same = ge.torus_model(sl.standard_model(1, hbar=0.7), 2)
    ok = ge.random_spinor_field(same, ctx.basis, rng, cutoff=1)
    assert dr.P_op(ctx, ok).values.shape == ok.values.shape


def test_operators_reject_field_with_another_basis():
    ctx, rng = make_setup(kind="unitary", cutoff=2, max_degree=3)
    psi = ge.random_spinor_field(ctx.torus, fk.fock_basis(1, 5), rng, cutoff=1)
    for op in (dr.P_op, dr.dirac_Dprime, dr.nabla_full):
        with pytest.raises(ValueError, match="another fiber basis"):
            op(ctx, psi)


def test_operators_reject_values_of_a_wrong_trailing_shape():
    # a SpinorField built directly skips spinor_field's shape check; values
    # whose trailing axes are not grid + (F,) are refused, with or without
    # batch axes ahead of them (test_batches_equal_single_calls_bit_for_bit
    # takes the batches); a batch axis used to go through the operators
    # unchecked and return a wrong answer (P_op: relative error 5.3 against
    # three single calls at n = 1, M = 3, N = 4)
    ctx, rng = make_setup(kind="unitary", cutoff=3, max_degree=4)
    v = random_psi(ctx, rng, cutoff=1).values
    F = ctx.basis.dim
    for wrong in (v[..., :F - 1], v[None, ..., :F - 1], v[0], v[:, :-1],
                  v[..., None], np.stack([v, v], axis=-2)):
        psi = ge.SpinorField(torus=ctx.torus, basis=ctx.basis, values=wrong)
        for op in (dr.P_op, dr.dirac_D, dr.laplacian, dr.aj_tau,
                   dr.nabla_full):
            with pytest.raises(ValueError, match=r"grid \+ \(F,\)"):
                op(ctx, psi)
        with pytest.raises(ValueError, match=r"grid \+ \(F,\)"):
            dr.l2_inner(ctx, psi, psi)
        with pytest.raises(ValueError, match=r"grid \+ \(F,\)"):
            ge.spinor_field(ctx.torus, ctx.basis, wrong)
    psi = ge.spinor_field(ctx.torus, ctx.basis, v)
    assert dr.P_op(ctx, psi).values.shape == v.shape


# ---------------------------------------------------------------------------
# n = 2: u(2) is non-abelian, so [Gamma_a, Gamma_b] enters the curvature


def test_identities_with_non_abelian_torsionful_connection():
    ctx, rng = make_setup(n=2, cutoff=1, max_degree=4, kind="unitary")
    assert ctx.torus.grid_shape == (5,) * 4
    assert np.abs(ctx.tau).max() > 1e-3
    G = ctx.conn.Gamma
    assert np.abs(G[0] @ G[1] - G[1] @ G[0]).max() > 1e-3
    N = ctx.basis.max_degree
    psi = random_psi(ctx, rng, cutoff=1, max_degree=N - 2)
    phi = random_psi(ctx, rng, cutoff=1)
    assert dr.adjoint_residual(ctx, psi, phi) < 1e-10
    for form in ("ca", "clcl"):
        assert dr.weitzenbock_residual(ctx, psi, form=form) < 1e-10
    lap = dr.laplacian(ctx, psi).values
    composed = dr.nabla_star(ctx, dr.nabla_full(ctx, psi)).values
    assert np.abs(lap - composed).max() < 1e-12
    frame = sl.random_sp(ctx.model, rng)
    for name, op in (("D", dr.dirac_D), ("Dt", dr.dirac_Dtilde),
                     ("Dp", dr.dirac_Dprime), ("Ds", dr.dirac_Dsecond)):
        fast = op(ctx, psi).values
        framed = dr.dirac_via_frame(ctx, psi, frame, name).values
        assert np.abs(fast - framed).max() < 1e-12
    ca = dr.curvature_term(ctx, psi, "ca").values
    clcl = dr.curvature_term(ctx, psi, "clcl").values
    assert np.abs(ca).max() > 1e-2
    gap = dr.l2_norm(ctx, ge.spinor_field(ctx.torus, ctx.basis, ca - clcl))
    assert gap < 1e-11 * dr.l2_norm(ctx, psi)


# ---------------------------------------------------------------------------
# the matmul kernels and the shared first derivatives


@lru_cache(maxsize=1)
def _lie_mats(ctx):
    """The dense fiber action, (2n,) + grid + (F, F), once per context."""
    return ge.lie_matrix_field(ctx.conn, ctx.basis)


def _ref_nabla(ctx, vals, b):
    return (ge.partial_derivative(ctx.torus, vals, b)
            + np.einsum("...FG,...G->...F", _lie_mats(ctx)[b], vals))


def _ref_first_order(ctx, vals, name):
    S = ctx.contract[name]
    return sum(np.einsum("FG,...G->...F", S[k], _ref_nabla(ctx, vals, k))
               for k in range(ctx.torus.dim))


def _ref_along(ctx, vals, X):
    return sum(X[..., b, None] * _ref_nabla(ctx, vals, b)
               for b in range(ctx.torus.dim))


def _ref_laplacian(ctx, vals):
    # -g^{ab} (nabla_a nabla_b - nabla_{Gamma_a e_b}) + nabla_{J tau}
    out = _ref_along(ctx, vals, ctx.jtau)
    for a, b in product(range(ctx.torus.dim), repeat=2):
        second = _ref_nabla(ctx, _ref_nabla(ctx, vals, b), a)
        second -= _ref_along(ctx, vals, ctx.conn.Gamma[a][..., :, b])
        out = out - ctx.ginv[a, b] * second
    return out


def _ref_prefactors(ctx, form):
    c = ctx.contract
    if form == "ca":
        C, A = c["Dp"], -c["Ds"]
        return -0.5 * (np.einsum("lFH,sHG->lsFG", C, A)
                       - np.einsum("lFH,sHG->lsFG", A, C))
    return -0.5j * np.einsum("lFH,sHG->lsFG", c["D"], c["Dt"])


def _ref_curvature(ctx, psi, form):
    # sum over all (l, s) of M[l, s] (R(e_l, e_s) - nabla_{T(e_l, e_s)})
    M = _ref_prefactors(ctx, form)
    T = ge.torsion_tensor(ctx.conn)
    out = 0.0
    for l, s in product(range(ctx.torus.dim), repeat=2):
        R = (_ref_nabla(ctx, _ref_nabla(ctx, psi.values, s), l)
             - _ref_nabla(ctx, _ref_nabla(ctx, psi.values, l), s))
        term = R - _ref_along(ctx, psi.values, T[l, s])
        out = out + np.einsum("FG,...G->...F", M[l, s], term)
    return out


def _rel_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n, cutoff, kind", [(1, 4, "unitary"),
                                             (2, 1, "unitary"),
                                             (1, 4, "non-unitary"),
                                             (2, 1, "non-unitary")])
def test_operators_match_einsum_reference(n, cutoff, kind):
    ctx, rng = make_setup(n=n, cutoff=cutoff, max_degree=4, kind=kind)
    psi = random_psi(ctx, rng, cutoff=1)
    v = psi.values
    ds, dp = (_ref_first_order(ctx, v, name) for name in ("Ds", "Dp"))
    ref_p = 2.0 * (_ref_first_order(ctx, ds, "Dp")
                   - _ref_first_order(ctx, dp, "Ds"))
    assert _rel_gap(dr.P_op(ctx, psi).values, ref_p) < 1e-12
    assert _rel_gap(dr.dirac_D(ctx, psi).values,
                    _ref_first_order(ctx, v, "D")) < 1e-12
    ref_aj = np.einsum("...b,bFG,...G->...F", -ctx.tau, ctx.fiber["Ds"], v)
    assert _rel_gap(dr.aj_tau(ctx, psi).values, ref_aj) < 1e-12
    if kind != "unitary":
        return
    assert np.abs(ctx.tau).max() > 1e-3
    assert _rel_gap(dr.laplacian(ctx, psi).values,
                    _ref_laplacian(ctx, v)) < 1e-12
    for form in ("ca", "clcl"):
        assert _rel_gap(dr.curvature_term(ctx, psi, form).values,
                        _ref_curvature(ctx, psi, form)) < 1e-12
    X = rng.normal(size=ctx.torus.dim)
    ref_cl = np.einsum("b,bFG,...G->...F", X, ctx.fiber["D"], v)
    # the pointwise Clifford product, as aj_tau forms it
    full = slice(0, ctx.basis.dim)
    cl = dr._along([dr._apply(S, v, full, full) for S in ctx.fiber["D"]], X)
    assert _rel_gap(cl, ref_cl) < 1e-12
    # nabla_X psi is one real contraction; a complex X takes two
    for field in (X, ctx.jtau, X + 0.5j * X[::-1], ctx.jtau - 2j * ctx.tau):
        assert _rel_gap(dr.nabla_dir(ctx, psi, field).values,
                        _ref_along(ctx, v, field)) < 1e-12


def test_nabla_dir_refuses_a_misshapen_vector():
    # at n = 1 an X of three components used to fail in a reshape
    ctx, rng = make_setup(n=1, cutoff=2, max_degree=3)
    psi = random_psi(ctx, rng, cutoff=1)
    grid = ctx.torus.grid_shape
    for X in (np.ones(3), np.ones(1), np.ones((2, 2)), np.ones(grid + (3,)),
              np.ones(grid[:-1] + (2,))):
        with pytest.raises(ValueError, match=r"not \(2n,\) or grid"):
            dr.nabla_dir(ctx, psi, X)


# ---------------------------------------------------------------------------
# degree windows: the kernels work on the Fock degrees a section occupies


def _reach(ctx, mats, degrees):
    """The Fock degrees that the fiber matrices mats, (..., F, F), can make
    non-zero from a field on the given degrees, read from the dense != 0
    pattern of all of them."""
    F = ctx.basis.dim
    pattern = (np.asarray(mats) != 0).reshape(-1, F, F).any(axis=0)
    cols = np.isin(ctx.basis.degrees, sorted(degrees))
    return set(ctx.basis.degrees[pattern[:, cols].any(axis=1)].tolist())


def _nabla_reach(ctx, degrees):
    # d_b keeps every degree; the dense fiber action adds its own pattern
    return set(degrees) | _reach(ctx, _lie_mats(ctx), degrees)


def _window_section(ctx, rng, degrees):
    vals = random_psi(ctx, rng, cutoff=1).values
    vals[..., ~np.isin(ctx.basis.degrees, sorted(degrees))] = 0.0
    return ge.spinor_field(ctx.torus, ctx.basis, vals)


def _assert_windowed(ctx, got, ref, degrees):
    """got matches ref to 1e-12 relative, and is exactly 0 outside the hull
    of the predicted degrees (all of got when none is predicted)."""
    deg = ctx.basis.degrees
    hull = (deg >= min(degrees)) & (deg <= max(degrees)) if degrees else \
        np.zeros(len(deg), dtype=bool)
    assert got.shape == np.shape(ref)
    assert not got[..., ~hull].any()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


WINDOW_SECTIONS = {"all": range(5), "middle": [2], "top": [4], "none": []}


@pytest.mark.parametrize("section", list(WINDOW_SECTIONS))
@pytest.mark.parametrize("n, kind", [(1, "unitary"), (2, "unitary"),
                                     (1, "non-unitary"), (2, "non-unitary")])
def test_operators_on_degree_windows(n, kind, section):
    # every public grid operator on a section that occupies all degrees,
    # the middle one, the top one or none (N = 4), against the full-width
    # references, with exact zeros outside the degrees the patterns reach
    ctx, rng = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                          kind=kind)
    S = set(WINDOW_SECTIONS[section])
    psi = _window_section(ctx, rng, S)
    phi = random_psi(ctx, rng, cutoff=1)
    v, c = psi.values, ctx.contract
    nab = _nabla_reach(ctx, S)
    ref_grads = np.stack([_ref_nabla(ctx, v, b) for b in range(ctx.torus.dim)])
    _assert_windowed(ctx, dr.nabla_full(ctx, psi), ref_grads, nab)
    for b in range(ctx.torus.dim):
        _assert_windowed(ctx, ge.cov_deriv_values(ctx.torus, ctx.action, v, b),
                         ref_grads[b], nab)
        _assert_windowed(ctx, ge.spinor_cov_deriv(ctx.conn, psi, b).values,
                         ref_grads[b], nab)
    _assert_windowed(ctx, dr.nabla_dir(ctx, psi, ctx.jtau).values,
                     _ref_along(ctx, v, ctx.jtau), nab)
    first = {}
    for name, op in (("D", dr.dirac_D), ("Dt", dr.dirac_Dtilde),
                     ("Dp", dr.dirac_Dprime), ("Ds", dr.dirac_Dsecond)):
        first[name] = _reach(ctx, c[name], nab)
        _assert_windowed(ctx, op(ctx, psi).values,
                         _ref_first_order(ctx, v, name), first[name])
        framed = dr.dirac_via_frame(ctx, psi, np.eye(ctx.torus.dim), name)
        _assert_windowed(ctx, framed.values, _ref_first_order(ctx, v, name),
                         first[name])
    ds, dp = (_ref_first_order(ctx, v, name) for name in ("Ds", "Dp"))
    ref_p = 2.0 * (_ref_first_order(ctx, ds, "Dp")
                   - _ref_first_order(ctx, dp, "Ds"))
    p_reach = (_reach(ctx, c["Dp"], _nabla_reach(ctx, first["Ds"]))
               | _reach(ctx, c["Ds"], _nabla_reach(ctx, first["Dp"])))
    _assert_windowed(ctx, dr.P_op(ctx, psi).values, ref_p, p_reach)
    second = _nabla_reach(ctx, nab)
    ref_lap = _ref_laplacian(ctx, v)
    _assert_windowed(ctx, dr.laplacian(ctx, psi).values, ref_lap, second)
    _assert_windowed(ctx, dr.nabla_star(ctx, dr.nabla_full(ctx, psi)).values,
                     ref_lap, second)
    for form in ("ca", "clcl"):
        M = _ref_prefactors(ctx, form)
        _assert_windowed(ctx, dr.curvature_term(ctx, psi, form).values,
                         _ref_curvature(ctx, psi, form),
                         _reach(ctx, M - np.swapaxes(M, 0, 1), second))
    R = (_ref_nabla(ctx, ref_grads[1], 0) - _ref_nabla(ctx, ref_grads[0], 1))
    _assert_windowed(ctx, ge.spinor_curvature(ctx.conn, psi, 0, 1).values, R,
                     second)
    ref_aj = np.einsum("...b,bFG,...G->...F", -ctx.tau, ctx.fiber["Ds"], v)
    _assert_windowed(ctx, dr.aj_tau(ctx, psi).values, ref_aj,
                     _reach(ctx, ctx.fiber["Ds"], S))
    w = fk.norm_weights(ctx.model, ctx.basis)
    ref_inner = (2.0 * np.pi) ** ctx.torus.dim * np.einsum(
        "...F,F,...F->...", v, w, phi.values.conj()).mean()
    assert abs(dr.l2_inner(ctx, psi, phi) - ref_inner) <= 1e-12 * max(
        1.0, abs(ref_inner))
    adjoint = dr.adjoint_residual(ctx, psi, phi)
    if not S:
        assert dr.l2_norm(ctx, psi) == 0.0 and adjoint == 0.0
    elif kind == "unitary":
        assert adjoint < 1e-10
    if kind != "unitary":
        with pytest.raises(ValueError):
            dr.weitzenbock_residual(ctx, psi)
    elif not S:
        assert dr.weitzenbock_residual(ctx, psi) == 0.0
    elif max(S) <= ctx.basis.max_degree - 2:
        for form in ("ca", "clcl"):
            assert dr.weitzenbock_residual(ctx, psi, form) < 1e-10


@pytest.mark.parametrize("n, kind", [(1, "unitary"), (2, "unitary"),
                                     (2, "non-unitary")])
def test_degree_reach_windows_are_tight(n, kind):
    # every window the kernels use is the hull of the degrees the dense
    # patterns reach, no wider, for each run of degrees d0 .. d1
    ctx, _ = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                        kind=kind)
    deg = ctx.basis.degrees

    def cols_of(degrees):
        if not degrees:
            return slice(0, 0)
        return slice(int(np.searchsorted(deg, min(degrees))),
                     int(np.searchsorted(deg, max(degrees), side="right")))

    maps = [(lambda c: ge.nabla_window(ctx.action, c),
             lambda S: _nabla_reach(ctx, S)),
            (ctx.reach["A"].window, lambda S: _reach(ctx, ctx.fiber["Ds"], S))]
    for name, stack in ctx.contract.items():
        maps.append((ctx.reach[name].window,
                     lambda S, stack=stack: _reach(ctx, stack, S)))
    for form in ("ca", "clcl"):
        M = _ref_prefactors(ctx, form)
        maps.append((ctx.curvature_reach[form].window,
                     lambda S, A=M - np.swapaxes(M, 0, 1): _reach(ctx, A, S)))
    for d0, d1 in product(range(5), repeat=2):
        if d0 <= d1:
            S = set(range(d0, d1 + 1))
            for window, reach in maps:
                assert window(cols_of(S)) == cols_of(reach(S)), (d0, d1)


@pytest.mark.parametrize("n", [1, 2])
def test_non_unitary_nabla_reaches_two_degrees_each_way(n):
    # negative control for the windows: a general connection's fiber action
    # moves a degree-2 section to degrees 0 and 4 at O(1), so a window that
    # kept degree 2 would lose those terms; the unitary action keeps it
    for kind in ("non-unitary", "unitary"):
        ctx, rng = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                              kind=kind)
        psi = _window_section(ctx, rng, [2])
        grads = dr.nabla_full(ctx, psi)
        deg = ctx.basis.degrees
        scale = np.abs(grads).max()
        for d in (0, 4):
            mass = np.abs(grads[..., deg == d]).max() / scale
            if kind == "unitary":
                assert mass == 0.0
            else:
                assert mass > 1e-2
        ref = np.stack([_ref_nabla(ctx, psi.values, b)
                        for b in range(ctx.torus.dim)])
        assert _rel_gap(grads, ref) < 1e-12


# ---------------------------------------------------------------------------
# batches: leading axes ahead of the grid, each member as its single call


def _grid_operators(ctx):
    """Every public grid operator, as psi -> values; the direction axis of
    nabla_full leads the batch axes."""
    X = np.linspace(-1.1, 0.7, ctx.torus.dim)
    frame = sl.random_sp(ctx.model, np.random.default_rng(RNG_SEED))
    ops = {name: (lambda psi, op=op: op(ctx, psi).values) for name, op in (
        ("P", dr.P_op), ("D", dr.dirac_D), ("Dt", dr.dirac_Dtilde),
        ("Dp", dr.dirac_Dprime), ("Ds", dr.dirac_Dsecond),
        ("aj_tau", dr.aj_tau), ("laplacian", dr.laplacian))}
    ops.update({
        "nabla_full": lambda psi: dr.nabla_full(ctx, psi),
        "nabla_star": lambda psi: dr.nabla_star(
            ctx, dr.nabla_full(ctx, psi)).values,
        "nabla_dir field": lambda psi: dr.nabla_dir(ctx, psi, ctx.jtau).values,
        "nabla_dir constant": lambda psi: dr.nabla_dir(ctx, psi, X).values,
        "curvature ca": lambda psi: dr.curvature_term(ctx, psi, "ca").values,
        "curvature clcl": lambda psi: dr.curvature_term(
            ctx, psi, "clcl").values,
        "via_frame": lambda psi: dr.dirac_via_frame(ctx, psi, frame,
                                                    "Dt").values,
        "cov_deriv_values": lambda psi: ge.cov_deriv_values(
            ctx.torus, ctx.action, psi.values, ctx.torus.dim - 1),
        "spinor_cov_deriv": lambda psi: ge.spinor_cov_deriv(
            ctx.conn, psi, 0).values,
        "spinor_curvature": lambda psi: ge.spinor_curvature(
            ctx.conn, psi, 0, 1).values,
    })
    return ops


def _reductions(ctx):
    """Every public reduction, as (psi, phi) -> one value per member."""
    reds = {
        "l2_inner": lambda psi, phi: dr.l2_inner(ctx, psi, phi),
        "l2_norm": lambda psi, phi: dr.l2_norm(ctx, psi),
        "adjoint": lambda psi, phi: dr.adjoint_residual(ctx, psi, phi),
        "adjoint relative": lambda psi, phi: dr.adjoint_residual(
            ctx, psi, phi, relative=True),
        "oneform_inner": lambda psi, phi: dr.oneform_inner(
            ctx, dr.nabla_full(ctx, psi), dr.nabla_full(ctx, phi)),
    }
    if ctx.conn.unitary:
        for form in ("ca", "clcl"):
            reds[f"weitzenbock {form}"] = (
                lambda psi, phi, form=form: dr.weitzenbock_residual(
                    ctx, psi, form))
    return reds


def _stacked(ctx, fields, shape):
    values = np.stack([f.values for f in fields])
    return ge.spinor_field(ctx.torus, ctx.basis,
                           values.reshape(shape + values.shape[1:]))


def _member(out, i, shape, lead):
    """Member i (C order) of a result with lead axes ahead of the batch."""
    flat = out.reshape(out.shape[:lead] + (-1,) + out.shape[lead + len(shape):])
    return flat[(slice(None),) * lead + (i,)]


@pytest.mark.parametrize("shape", [(2, 2), (1,)])
@pytest.mark.parametrize("n, kind", [(1, "unitary"), (2, "unitary"),
                                     (1, "non-unitary"), (2, "non-unitary")])
def test_batches_equal_single_calls_bit_for_bit(n, kind, shape):
    # members on different windows, the batch on their union: every degree,
    # the middle one, the top one and none (N = 4); a batch of one is the
    # single field behind an axis of length 1
    ctx, rng = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                          kind=kind)
    sections = list(WINDOW_SECTIONS.values())[:math.prod(shape)]
    members = [_window_section(ctx, rng, S) for S in sections]
    partners = [random_psi(ctx, rng, cutoff=1) for _ in members]
    psi = _stacked(ctx, members, shape)
    phi = _stacked(ctx, partners, shape)
    for name, op in _grid_operators(ctx).items():
        out = op(psi)
        lead = 1 if name == "nabla_full" else 0
        assert out.shape[lead:lead + len(shape)] == shape, name
        for i, member in enumerate(members):
            assert np.array_equal(_member(out, i, shape, lead), op(member)), \
                (name, i)
    for name, red in _reductions(ctx).items():
        out = red(psi, phi)
        assert np.shape(out) == shape, name
        for i, (member, partner) in enumerate(zip(members, partners)):
            assert out.reshape(-1)[i] == red(member, partner), (name, i)
    # a single field is the empty batch: scalars from the reductions
    assert np.shape(dr.l2_inner(ctx, members[0], partners[0])) == ()


@pytest.mark.parametrize("n, kind, K", [(1, "flat", 0), (1, "unitary", 1),
                                        (2, "general", 7)])
def test_row_sparse_kernel_matches_dense_matmul(n, kind, K):
    # K = 0 leaves the bare derivative, K = 1 is the diagonal unitary n = 1
    # action, and the non-unitary n = 2 action has the widest rows
    cutoff = 4 if n == 1 else 1
    ctx, rng = make_setup(n=n, cutoff=cutoff, max_degree=4, kind=kind)
    assert ctx.action.cols.shape == (ctx.basis.dim, K)
    mats = ge.lie_matrix_field(ctx.conn, ctx.basis)
    vals = random_psi(ctx, rng, cutoff=1).values
    for b in range(ctx.torus.dim):
        want = ge.partial_derivative(ctx.torus, vals, b) \
            + (mats[b] @ vals[..., None])[..., 0]
        got = ge.cov_deriv_values(ctx.torus, ctx.action, vals, b)
        assert _rel_gap(got, want) <= 1e-13


def test_slot_zero_of_every_row_is_its_diagonal():
    # the kernel applies slot 0 as coef[b, 0] * vals, with no gather
    for n, kind in ((1, "unitary"), (2, "unitary"), (2, "general")):
        ctx, _ = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                            kind=kind)
        cols, counts = ctx.action.cols, ctx.action.counts
        rows = np.arange(ctx.basis.dim)
        assert np.array_equal(cols[:, 0], rows)
        # the stored off-diagonal slots never repeat the diagonal
        stored = np.arange(1, cols.shape[1]) < counts[:, None]
        assert (cols[:, 1:] != rows[:, None])[stored].all()


def _diagonal_free_connection(n, unitary):
    # a = 0 drops the identity term; the number operators of a diagonal H
    # vanish on the vacuum, and an off-diagonal H (n = 2) has no diagonal
    # entry at all, nor have the degree +/-2 terms of a general Gamma
    t = ge.torus_model(sl.standard_model(n, hbar=0.7), 4 if n == 1 else 1)
    m = t.model
    H = np.array([[0.4j]]) if n == 1 else np.array([[0, 0.3 + 0.2j],
                                                    [-0.3 + 0.2j, 0]])
    modes = [(0, [1] + [0] * (2 * n - 1), "cos", sl.real_matrix(m, H)),
             (1, [0] * (2 * n - 1) + [1], "sin", sl.real_matrix(m, H))]
    if not unitary:
        W = np.array([[0.2 + 0.1j]]) if n == 1 else np.array(
            [[0.2, 0.1j], [0.1j, -0.3]])
        modes.append((0, [0] * (2 * n - 1) + [1], "cos",
                      sl.antilinear_real(m, W)))
    return ge.connection_from_modes(t, modes, [])


@pytest.mark.parametrize("n, unitary", [(1, True), (2, True), (2, False)])
def test_rows_without_a_diagonal_get_a_zero_slot_zero(n, unitary):
    conn = _diagonal_free_connection(n, unitary)
    assert conn.unitary == unitary and not conn.a.any()
    ctx = dr.make_context(conn, fk.fock_basis(n, 4))
    action, F = ctx.action, ctx.basis.dim
    assert np.array_equal(action.cols[:, 0], np.arange(F))
    diagonal = action.tensors[:, np.arange(F), np.arange(F)].any(axis=0)
    assert not diagonal.all() and (diagonal.any() == (n == 1))
    assert not action.slots[0][:, ~diagonal].any()
    mats = ge.lie_matrix_field(ctx.conn, ctx.basis)
    vals = random_psi(ctx, np.random.default_rng(RNG_SEED), cutoff=1).values
    for b in range(ctx.torus.dim):
        want = ge.partial_derivative(ctx.torus, vals, b) \
            + (mats[b] @ vals[..., None])[..., 0]
        got = ge.cov_deriv_values(ctx.torus, action, vals, b)
        assert _rel_gap(got, want) <= 1e-13


@pytest.mark.parametrize("n, kind", [(1, "flat"), (1, "unitary"),
                                     (2, "unitary"), (2, "general")])
def test_several_directions_equal_single_ones_bit_for_bit(n, kind):
    ctx, rng = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                          kind=kind)
    vals = random_psi(ctx, rng, cutoff=1).values
    dims = ctx.torus.dim
    for dirs in (range(dims), (dims - 1, 0), (1,)):
        got = list(ge.cov_derivs(ctx.torus, ctx.action, vals, dirs,
                                 slice(0, ctx.basis.dim)))
        assert len(got) == len(dirs)
        for b, grad in zip(dirs, got):
            assert np.array_equal(
                grad, ge.cov_deriv_values(ctx.torus, ctx.action, vals, b))


def test_each_field_gathers_its_off_diagonal_slots_once(monkeypatch):
    # K = 3 at n = 2, N = 4 (unitary): slot 0 is the diagonal, and each of
    # the other two slots is gathered once per field for all four
    # directions; one direction alone gathers each slot once too
    ctx, rng = make_setup(n=2, cutoff=2, max_degree=4)
    assert ctx.action.cols.shape[1] == 3
    psi = random_psi(ctx, rng, cutoff=1, max_degree=2)
    calls = []
    take = np.take

    def counting(*args, **kwargs):
        calls.append(1)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counting)
    grads = dr.nabla_full(ctx, psi)
    assert len(calls) == 2
    calls.clear()
    list(dr._derivs(ctx, *dr._on_window(ctx, psi))[1])
    assert len(calls) == 2
    calls.clear()
    # P: nabla psi, then D' of D'' psi and D'' of D' psi, three fields
    dr.P_op(ctx, psi)
    assert len(calls) == 6
    calls.clear()
    ge.cov_deriv_values(ctx.torus, ctx.action, grads[0], 1)
    assert len(calls) == 2


@pytest.mark.parametrize("op, bound", [("weitzenbock", 7.5), ("laplacian", 4.6)])
def test_fields_operators_peak_memory(op, bound):
    # the benchmark's fields workload (n = 2, M = 2, N = 4) at seed 11 and
    # input 1: the held gathers of the off-diagonal slots may not raise the
    # traced peaks, 7.40 MiB (Weitzenboeck) and 4.52 MiB (Laplacian) with
    # one gather per direction and slot
    t = ge.torus_model(sl.standard_model(2, hbar=0.7), 2)
    basis = fk.fock_basis(2, 4)
    conn = ge.random_connection(t, np.random.default_rng([11, 2 ** 31]),
                                cutoff=1, unitary=True)
    ctx = dr.make_context(conn, basis)
    psi = ge.random_spinor_field(t, basis, np.random.default_rng([11, 1]),
                                 cutoff=1, max_degree=2)
    run = {"weitzenbock": lambda: dr.weitzenbock_residual(ctx, psi),
           "laplacian": lambda: dr.laplacian(ctx, psi)}[op]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2 ** 20


@pytest.mark.parametrize("n, kind", [(1, "unitary"), (2, "unitary"),
                                     (2, "general")])
def test_context_never_forms_the_dense_fiber_action(monkeypatch, n, kind):
    # the row-sparse kernel and p_hat come from the terms of
    # mpc.lie_action_terms, not from the dense matrices of mpc.lie_action
    cutoff = 4 if n == 1 else 1
    ctx, rng = make_setup(n=n, cutoff=cutoff, max_degree=4, kind=kind)
    mats = ge.lie_matrix_field(ctx.conn, ctx.basis)

    def dense(*args):
        raise AssertionError("mpc.lie_action called")

    monkeypatch.setattr(mpc, "lie_action", dense)
    fresh = dr.make_context(ctx.conn, ctx.basis)
    vals = random_psi(fresh, rng, cutoff=1).values
    for b in range(fresh.torus.dim):
        want = ge.partial_derivative(fresh.torus, vals, b) \
            + (mats[b] @ vals[..., None])[..., 0]
        got = ge.cov_deriv_values(fresh.torus, fresh.action, vals, b)
        assert _rel_gap(got, want) <= 1e-13
    assert np.isfinite(fresh.p_hat[0]).all()


@pytest.mark.parametrize("n", [1, 2])
def test_unitary_fiber_action_terms_keep_degree(n):
    # a unitary Gamma is projected to its j-linear part, so no term raises
    # or lowers the degree; a general one brings the degree +/-2 terms.  The
    # real terms are Im mu, Im H and Re H off the diagonal (H is
    # anti-Hermitian), and for a general Gamma Re and Im of conj(W) and W
    for kind, Q in (("unitary", 2 * n * n - n + 1),
                    ("general", 6 * n * n - n + 1)):
        ctx, _ = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                            kind=kind)
        T = ctx.action.tensors
        assert T.shape == (Q, ctx.basis.dim, ctx.basis.dim)
        assert ctx.action.terms.shape == (
            (ctx.torus.dim,) + ctx.torus.grid_shape + (Q,))
        kept = [fk.degree_shift_mass(ctx.basis, t, 0) == 0 for t in T]
        assert all(kept) == (kind == "unitary")


@pytest.mark.parametrize("n, kind", [(1, "unitary"), (2, "unitary"),
                                     (2, "general")])
def test_fiber_action_splits_gamma_once(monkeypatch, n, kind):
    # the terms are those of lie_action_terms on the projected Gamma, bit
    # for bit, from one j-linear part and, for a general connection only,
    # one j-antilinear part of Gamma
    ctx, _ = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                        kind=kind)
    conn, m = ctx.conn, ctx.model
    X, T = mpc.lie_action_terms(m, ctx.basis, conn.a,
                                sl.linear_part(m, conn.Gamma)
                                if conn.unitary else conn.Gamma)
    X = np.concatenate([X.real, X.imag], axis=-1)
    T = np.concatenate([T, 1j * T])
    live = X.reshape(-1, X.shape[-1]).any(axis=0)
    calls = []
    for name in ("linear_part", "antilinear_part"):
        def counting(*args, _name=name, _fn=getattr(sl, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(sl, name, counting)
    action = ge.fiber_action(conn, ctx.basis)
    assert sorted(calls) == (["linear_part"] if kind == "unitary"
                             else ["antilinear_part", "linear_part"])
    assert np.array_equal(action.terms, X[..., live])
    assert np.array_equal(action.tensors, T[live])


@pytest.mark.parametrize("n, kind", [(1, "unitary"), (1, "general"),
                                     (2, "unitary"), (2, "general")])
def test_fiber_action_terms_are_real(n, kind):
    # u(n) + iR is a real Lie algebra: the coefficient fields are real, none
    # is zero everywhere, and times the complex tensors they give the dense
    # fiber action of the projected Gamma
    ctx, _ = make_setup(n=n, cutoff=4 if n == 1 else 1, max_degree=4,
                        kind=kind)
    conn, m, action = ctx.conn, ctx.model, ctx.action
    assert action.terms.dtype == np.float64
    assert action.tensors.dtype == action.slots.dtype == np.complex128
    assert action.terms.reshape(-1, len(action.tensors)).any(axis=0).all()
    want = mpc.lie_action(m, ctx.basis, conn.a,
                          sl.linear_part(m, conn.Gamma) if conn.unitary
                          else conn.Gamma)
    got = np.tensordot(action.terms, action.tensors, 1)
    assert _rel_gap(got, want) <= 1e-14


def test_context_stores_the_fiber_action_row_sparse():
    # the benchmark's fields size: the dense (2n,) + grid + (F, F) matrices
    # take 33 MiB and the coefficient fields of the K = 3 slots 6.6 MiB;
    # the context keeps neither, only the 0.5 MiB of real terms and the
    # constant slots (0.84 MiB in all, peak 2.7 MiB), and never forms a
    # dense direction (8.2 MiB)
    t = ge.torus_model(sl.standard_model(2, hbar=0.7), 2)
    basis = fk.fock_basis(2, 4)
    conn = ge.random_connection(t, np.random.default_rng(RNG_SEED), cutoff=1,
                                unitary=True)
    tracemalloc.start()
    try:
        ctx = dr.make_context(conn, basis)
        stored, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.grid_shape == (7,) * 4 and ctx.basis.dim == 15
    assert stored <= 2 * 2 ** 20
    assert peak < 4 * 2 ** 20


def test_operators_share_the_first_derivatives(monkeypatch):
    # n = 2 has four directions; P builds nabla psi once for both D'' psi
    # and D' psi (4 + 2 * 4), and the Weitzenboeck residual adds to that
    # the Laplacian (4) and the curvature term (2 per pair l < s, 12),
    # taking nabla_{J tau} psi from the same stack
    ctx, rng = make_setup(n=2, cutoff=2, max_degree=4)
    psi = random_psi(ctx, rng, cutoff=1, max_degree=2)
    calls = []
    derivative = ge.partial_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return derivative(*args, **kwargs)

    monkeypatch.setattr(ge, "partial_derivative", counting)
    dr.P_op(ctx, psi)
    assert len(calls) == 12
    calls.clear()
    dr.weitzenbock_residual(ctx, psi)
    assert len(calls) == 28


def test_weitzenbock_residual_streams_its_intermediates():
    # the benchmark's fields size: one grid + (F,) field is 0.55 MiB and
    # nabla_full is four of them; stacking every intermediate would pass
    # the 9 MiB bound (7.8 MiB measured at the einsum kernels)
    ctx, rng = make_setup(n=2, cutoff=2, max_degree=4)
    assert ctx.torus.grid_shape == (7,) * 4 and ctx.basis.dim == 15
    psi = random_psi(ctx, rng, cutoff=1, max_degree=2)
    dr.weitzenbock_residual(ctx, psi)
    tracemalloc.start()
    try:
        dr.weitzenbock_residual(ctx, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20


# ---------------------------------------------------------------------------
# Fourier fiber data shared by the spectral assembly


def test_spectra_and_symbol_share_one_transform(monkeypatch):
    ctx, _ = make_setup(n=1, cutoff=2, max_degree=3)
    calls = []
    transform = ge.mode_coefficients

    def counting(*args, **kwargs):
        calls.append(1)
        return transform(*args, **kwargs)

    monkeypatch.setattr(ge, "mode_coefficients", counting)
    dr.spectrum(ctx, 0)
    dr.spectrum(ctx, 1)
    dr.symbol_check(ctx, [1, 0])
    assert len(calls) == 1


def _galerkin_modes(torus):
    k = ge.wavenumbers(torus)
    inside = np.nonzero(np.abs(k) <= torus.cutoff)[0]
    return np.array(list(product(inside, repeat=torus.dim)), dtype=int)


@pytest.mark.parametrize("n, cutoff, max_degree, degrees",
                         [(1, 2, 4, (0, 1, 2, 3)), (2, 1, 3, (0, 1))])
def test_galerkin_block_matches_P_op_entrywise(n, cutoff, max_degree,
                                                degrees):
    # column (c, g) of the block is P on exp(i k_c.x) e_g, read off by FFT
    # at every row mode r and fiber position f
    ctx = mode_setup(n, cutoff, max_degree)
    assert ctx.conn.unitary and np.abs(ctx.tau).max() > 1e-3
    modes = _galerkin_modes(ctx.torus)
    kvecs = ge.wavenumbers(ctx.torus)[modes]
    for degree in degrees:
        lo, fiber, hi = (np.nonzero(ctx.basis.degrees == degree + s)[0]
                         for s in (-1, 0, 1))
        rows = (*modes.T[:, :, None], fiber[None, :])
        want = np.array([
            ge.mode_coefficients(ctx.torus, dr.P_op(
                ctx, plane_wave_spinor(ctx, kv, g)).values)[rows].ravel()
            for kv in kvecs for g in fiber]).T
        got = dr._p_block(ctx, modes, fiber, lo, hi)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n, kvecs", [(1, ([2, -1], [0, 3])),
                                      (2, ([1, 0, -1, 1], [2, 2, 0, -1]))])
def test_symbol_block_matches_demodulated_P_op(n, kvecs):
    # a non-unitary connection couples degree d to d +/- 2, so the whole
    # fiber enters both the block and the intermediate space
    ctx, _ = make_setup(n=n, cutoff=3 if n == 1 else 1, max_degree=4,
                        kind="general")
    assert not ctx.conn.unitary
    x = ge.grid_points(ctx.torus)
    fiber = np.arange(ctx.basis.dim)
    for kv in kvecs:
        wave = np.exp(-1j * (x @ np.array(kv, dtype=float)))
        want = np.array([
            np.mean(dr.P_op(ctx, plane_wave_spinor(ctx, kv, g)).values
                    * wave[..., None], axis=tuple(range(ctx.torus.dim)))
            for g in fiber]).T
        mode = (np.array(kv) % ctx.torus.grid_size)[None]
        got = dr._p_block(ctx, mode, fiber, fiber, fiber)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale
        off = ctx.basis.degrees[:, None] != ctx.basis.degrees[None]
        assert np.abs(want[off]).max() > 1e-3 * scale
        blocks, _ = dr.symbol_check(ctx, kv)
        for d, block in enumerate(blocks):
            idx = np.nonzero(ctx.basis.degrees == d)[0]
            assert np.array_equal(block, got[np.ix_(idx, idx)])


def test_spectrum_peak_memory_at_n2_m2():
    # the benchmark's fields size, degree 1: a 1250 x 1250 block; the
    # tables hold 117 of the 3 x 225 fiber entries, and the gathers go a
    # chunk of row modes at a time
    t = ge.torus_model(sl.standard_model(2, hbar=0.7), 2)
    conn = ge.random_connection(t, np.random.default_rng(RNG_SEED), cutoff=1,
                                unitary=True)
    ctx = dr.make_context(conn, fk.fock_basis(2, 4))
    tracemalloc.start()
    try:
        eig = dr.spectrum(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eig.shape == (1250,) and np.isfinite(eig).all()
    assert peak < 128 * 2 ** 20


def test_spectrum_refuses_a_block_larger_than_physical_memory(monkeypatch):
    ctx, _ = make_setup(n=1, cutoff=2, max_degree=3)
    assert dr.spectrum(ctx, 1).shape == (25,)
    # a 25 x 25 block and its copy take 20,000 bytes
    monkeypatch.setattr(dr, "_physical_memory", lambda: 20_000)
    with pytest.raises(ValueError, match="physical memory"):
        dr.spectrum(ctx, 1)


def _degree_sizes(ctx, degree):
    """(R, f, h) of the degree block: modes, fiber positions, and fiber
    positions one degree below or above."""
    count = [int(np.count_nonzero(ctx.basis.degrees == d))
             for d in (degree - 1, degree, degree + 1)]
    return len(_galerkin_modes(ctx.torus)), count[1], count[0] + count[2]


def test_spectrum_memory_guard_counts_the_first_table_build(monkeypatch):
    fresh, built = (make_setup(n=2, cutoff=1, max_degree=3)[0]
                    for _ in range(2))
    built.p_hat
    sizes = _degree_sizes(fresh, 1)
    lean = dr._spectrum_bytes(built, *sizes)
    build = dr._p_hat_build_bytes(fresh)
    assert dr._spectrum_bytes(fresh, *sizes) == lean + build
    monkeypatch.setattr(dr, "_physical_memory", lambda: lean + build // 2)
    with pytest.raises(ValueError, match="physical memory"):
        dr.spectrum(fresh, 1)
    assert "p_hat" not in vars(fresh)
    assert np.isfinite(dr.spectrum(built, 1)).all()


def test_first_spectrum_finds_the_table_pattern_once(monkeypatch):
    # the memory estimate of the first spectrum and the build of p_hat
    # share one _p_hat_pattern of the context
    ctx, _ = make_setup(n=2, cutoff=1, max_degree=3)
    calls = []
    pattern = dr._p_hat_pattern

    def counting(*args, **kwargs):
        calls.append(1)
        return pattern(*args, **kwargs)

    monkeypatch.setattr(dr, "_p_hat_pattern", counting)
    dr.spectrum(ctx, 0)
    dr.spectrum(ctx, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("n, cutoff, max_degree", [(1, 4, 5), (2, 2, 4)])
def test_p_hat_build_bytes_bound_the_traced_build(n, cutoff, max_degree):
    t = ge.torus_model(sl.standard_model(n, hbar=0.7), cutoff)
    conn = ge.random_connection(t, np.random.default_rng(RNG_SEED), cutoff=1,
                                unitary=True)
    ctx = dr.make_context(conn, fk.fock_basis(n, max_degree))
    bound = dr._p_hat_build_bytes(ctx)
    tracemalloc.start()
    try:
        ctx.p_hat
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound <= 1.5 * peak


def test_spectrum_order_is_stable_under_rounding():
    # conjugate pairs, each twice, and real eigenvalues, as P's spectra hold
    # them; rounding-level jitter and any input order give one order
    rng = np.random.default_rng(RNG_SEED)
    base = 20 * rng.normal(size=6) + 1j * rng.normal(size=6)
    eig = np.concatenate([base, base, base.conj(), base.conj(), base.real])
    want = dr._sorted_eigenvalues(eig)
    assert np.all(np.diff(want.real) >= -1e-12)
    scale = np.abs(eig).max()
    for _ in range(20):
        jitter = 1e-13 * scale * (rng.normal(size=eig.shape)
                                  + 1j * rng.normal(size=eig.shape))
        got = dr._sorted_eigenvalues(rng.permutation(eig + jitter))
        assert np.abs(got - want).max() < 1e-12 * scale
    assert dr._sorted_eigenvalues(np.array([], dtype=complex)).size == 0
