"""Full-scale acceptance checks.

Each test covers one numbered criterion at its stated scale and tolerance
and prints a single summary line (visible with pytest -s) before asserting.
"""

import time
from itertools import product

import numpy as np
from scipy.linalg import expm

from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import mpc
from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")


def test_criterion_01_parameter_roundtrip_and_product_law():
    m = sl.standard_model(2, hbar=1.0)
    rng = np.random.default_rng(RNG_SEED)
    start = time.perf_counter()
    elements = [sl.random_sp(m, rng) for _ in range(500)]
    round_res = max(
        float(np.abs(sl.cz_compose(m, sl.cz_decompose(m, g)) - g).max())
        for g in elements)
    prod_res = 0.0
    for g1, g2 in zip(elements[0::2], elements[1::2]):
        prod = sl.cz_product(m, sl.cz_decompose(m, g1),
                             sl.cz_decompose(m, g2))
        direct = sl.cz_decompose(m, g1 @ g2)
        prod_res = max(prod_res, float(np.abs(prod.C - direct.C).max()),
                       float(np.abs(prod.Z - direct.Z).max()))
    elapsed = time.perf_counter() - start
    ok = round_res < 1e-10 and prod_res < 1e-9 and elapsed < 5.0
    _line(1, ok, f"round trip {round_res:.2e} (<1e-10), product law"
                 f" {prod_res:.2e} (<1e-9), {elapsed:.2f}s (<5s)")
    assert ok


def test_criterion_02_cocycle_associativity_and_eta():
    rng = np.random.default_rng(RNG_SEED + 1)
    start = time.perf_counter()
    assoc = eta_res = closure = 0.0
    for n in (1, 2):
        m = sl.standard_model(n, hbar=1.0)
        for _ in range(100):
            u1, u2, u3 = (mpc.random_mpc(m, rng) for _ in range(3))
            left = mpc.mpc_mul(m, mpc.mpc_mul(m, u1, u2), u3)
            right = mpc.mpc_mul(m, u1, mpc.mpc_mul(m, u2, u3))
            assoc = max(assoc, float(np.abs(left.pair.C - right.pair.C).max()),
                        float(np.abs(left.pair.Z - right.pair.Z).max()),
                        abs(left.lam - right.lam))
            prod12 = mpc.mpc_mul(m, u1, u2)
            eta_res = max(eta_res, abs(mpc.eta(m, prod12)
                                       - mpc.eta(m, u1) * mpc.eta(m, u2)))
        for _ in range(25):
            w1 = mpc.random_mpc(m, rng, metaplectic=True)
            w2 = mpc.random_mpc(m, rng, metaplectic=True)
            closure = max(closure,
                          abs(mpc.eta(m, mpc.mpc_mul(m, w1, w2)) - 1.0),
                          abs(mpc.eta(m, mpc.mpc_inverse(m, w1)) - 1.0))
    elapsed = time.perf_counter() - start
    ok = assoc < 1e-9 and eta_res < 1e-9 and closure < 1e-10 and elapsed < 10.0
    _line(2, ok, f"associativity {assoc:.2e} (<1e-9), eta homomorphism"
                 f" {eta_res:.2e} (<1e-9), metaplectic closure"
                 f" {closure:.2e} (<1e-10), {elapsed:.2f}s (<10s)")
    assert ok


def test_criterion_03_kernel_composition():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 2)
    start = time.perf_counter()
    residuals = []
    for _ in range(20):
        u1 = mpc.random_mpc(m, rng, scale=0.4)
        u2 = mpc.random_mpc(m, rng, scale=0.4)
        comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                          mpc.mpc_kernel(m, u2),
                                          quad_order=60)
        z = rng.uniform(-1, 1, size=(20, 2))
        w = rng.uniform(-1, 1, size=(20, 2))
        exact = mpc.kernel_eval(m, mpc.mpc_kernel(m, mpc.mpc_mul(m, u1, u2)),
                                z, w)
        residuals.append(np.abs(comp(z, w) - exact).max()
                         / np.abs(exact).max())
    elapsed = time.perf_counter() - start
    res = float(np.max(residuals))
    ok = res < 1e-6 and elapsed < 60.0
    _line(3, ok, f"composed kernel vs group law {res:.2e} (<1e-6),"
                 f" {elapsed:.2f}s (<60s)")
    assert ok


def test_criterion_04_heisenberg_covariance():
    m = sl.standard_model(1, hbar=0.9)
    rng = np.random.default_rng(RNG_SEED + 3)
    residuals = []
    for _ in range(10):
        u = mpc.random_mpc(m, rng, scale=0.4)
        v = rng.uniform(-1, 1, size=2)
        v /= max(1.0, float(np.linalg.norm(v)))
        h = fk.heisenberg_element(v, float(rng.normal()) * 0.4)
        residuals.append(mpc.conjugation_check(m, u, h, rng=rng))
    res = float(np.max(residuals))
    ok = res < 1e-6
    _line(4, ok, f"conjugation transport {res:.2e} (<1e-6)")
    assert ok


def test_criterion_05_ccr_and_clifford_relations():
    rng = np.random.default_rng(RNG_SEED + 4)
    N = 10
    residuals = []
    for n, hbar in ((1, 0.7), (2, 1.3)):
        m = sl.standard_model(n, hbar=hbar)
        B = fk.fock_basis(n, N)
        cols = B.degrees <= N - 2
        eye = np.eye(B.dim)
        for _ in range(8):
            v = rng.normal(size=2 * n)
            w = rng.normal(size=2 * n)
            C = fk.creation_op(m, B, v).matrix
            A = fk.annihilation_op(m, B, w).matrix
            ccr = C @ A - A @ C + complex(
                sl.hermitean_form(m, w, v)) / (2 * hbar) * eye
            Cv = fk.clifford_op(m, B, v).matrix
            Cw = fk.clifford_op(m, B, w).matrix
            cliff = Cv @ Cw - Cw @ Cv - 1j * sl.omega_form(m, v, w) / hbar * eye
            residuals += [np.abs(ccr[:, cols]).max(),
                          np.abs(cliff[:, cols]).max()]
    res = float(np.max(residuals))
    ok = res < 1e-13
    _line(5, ok, f"CCR and Clifford at N = 10, n <= 2: {res:.2e} (<1e-13)")
    assert ok


def test_criterion_06_lie_algebra_representation():
    rng = np.random.default_rng(RNG_SEED + 5)
    N = 9
    equiv = bracket = 0.0
    for n, hbar in ((1, 0.7), (2, 1.3)):
        m = sl.standard_model(n, hbar=hbar)
        B = fk.fock_basis(n, N)
        cols3 = B.degrees <= N - 3
        cols4 = B.degrees <= N - 4
        for _ in range(5):
            x1 = mpc.mpc_lie_element(m, 1j * rng.normal() * 0.4,
                                     sl.random_sp_algebra(m, rng))
            x2 = mpc.mpc_lie_element(m, 1j * rng.normal() * 0.4,
                                     sl.random_sp_algebra(m, rng))
            v = rng.normal(size=2 * n)
            A1 = mpc.lie_action(m, B, x1.mu, x1.xi)
            Cv = fk.clifford_op(m, B, v).matrix
            Cxv = fk.clifford_op(m, B, x1.xi @ v).matrix
            equiv = max(equiv, float(
                np.abs((A1 @ Cv - Cv @ A1 - Cxv)[:, cols3]).max()))
            A2 = mpc.lie_action(m, B, x2.mu, x2.xi)
            br = mpc.mpc_lie_bracket(m, x1, x2)
            Abr = mpc.lie_action(m, B, br.mu, br.xi)
            bracket = max(bracket, float(
                np.abs((A1 @ A2 - A2 @ A1 - Abr)[:, cols4]).max()))
    # finite-difference derivative of the exact unitary-arm action
    m = sl.standard_model(1, hbar=0.8)
    B = fk.fock_basis(1, 8)
    xi = sl.random_u_algebra(m, rng)
    mu = 0.3j
    x = mpc.mpc_lie_element(m, mu, xi)
    f = fk.FockVector(basis=B, coeffs=rng.normal(size=B.dim)
                      + 1j * rng.normal(size=B.dim))
    exact = mpc.lie_action(m, B, x.mu, x.xi) @ f.coeffs

    def fd(t):
        def elem(s):
            return mpc.mpc_element(m, sl.cz_decompose(m, expm(s * xi)),
                                   np.exp(s * mu))

        up = mpc.muc_matrix(m, B, elem(t)).matrix @ f.coeffs
        dn = mpc.muc_matrix(m, B, elem(-t)).matrix @ f.coeffs
        return float(np.abs((up - dn) / (2 * t) - exact).max())

    r3, r4 = fd(1e-3), fd(1e-4)
    second_order = 25.0 < r3 / r4 < 400.0
    ok = equiv < 1e-12 and bracket < 1e-12 and r4 < 1e-6 and second_order
    _line(6, ok, f"equivariance {equiv:.2e}, bracket {bracket:.2e} (<1e-12),"
                 f" fd residuals {r3:.2e}/{r4:.2e} (ratio {r3 / r4:.0f},"
                 f" second order)")
    assert ok


def test_criterion_07_gaussian_integral_formula():
    m = sl.standard_model(1, hbar=1.0)
    rng = np.random.default_rng(RNG_SEED + 6)
    residuals = []
    for _ in range(20):
        r1, r2 = rng.uniform(0.05, 0.8, size=2)
        W1 = r1 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        W2 = r2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs, rhs = mpc.gaussian_integral_check(m, W1, W2, quad_order=60)
        residuals.append(abs(lhs - rhs) / abs(rhs))
    res = float(np.max(residuals))
    ok = res < 1e-6
    _line(7, ok, f"quadrature vs closed form, 20 Siegel pairs:"
                 f" {res:.2e} (<1e-6)")
    assert ok


def test_criterion_08_flat_torus_second_order_spectrum():
    m = sl.standard_model(1, hbar=0.7)
    rng = np.random.default_rng(RNG_SEED + 7)
    start = time.perf_counter()
    N, M = 6, 8
    torus = ge.torus_model(m, M)
    basis = fk.fock_basis(1, N)
    ctx = dr.make_context(ge.flat_connection(torus), basis)
    # eigenvalue table over every mode |k_i| <= M for every trusted degree
    want = sorted(
        -float(np.array(kv) @ ctx.ginv @ np.array(kv)) / m.hbar
        for kv in product(range(-M, M + 1), repeat=2))
    eig_res = 0.0
    for degree in range(N):
        eig = dr.spectrum(ctx, degree)
        eig_res = max(eig_res, float(np.abs(eig.imag).max()),
                      float(np.abs(np.sort(eig.real) - want).max()))
    # degree off-block mass of the operator on full random band-limited data
    off_res = 0.0
    for degree in range(N + 1):
        psi = ge.random_spinor_field(torus, basis, rng, cutoff=M)
        vals = np.where(basis.degrees == degree, psi.values, 0.0)
        out = dr.P_op(ctx, ge.spinor_field(torus, basis, vals)).values
        off_res = max(off_res, float(
            np.abs(out[..., basis.degrees != degree]).max()))
    # spot check the plane-wave eigenvalue relation directly
    wave_res = 0.0
    x = ge.grid_points(torus)
    for _ in range(25):
        kv = rng.integers(-M, M + 1, size=2)
        lam = -float(kv @ ctx.ginv @ kv) / m.hbar
        wave = np.exp(1j * (x @ kv.astype(float)))
        for fi in np.nonzero(basis.degrees <= N - 1)[0]:
            vals = np.zeros(torus.grid_shape + (basis.dim,), dtype=complex)
            vals[..., fi] = wave
            psi = ge.spinor_field(torus, basis, vals)
            out = dr.P_op(ctx, psi).values
            wave_res = max(wave_res, float(np.abs(out - lam * vals).max()))
    elapsed = time.perf_counter() - start
    ok = eig_res < 1e-10 and off_res < 1e-10 and wave_res < 1e-10 \
        and elapsed < 30.0
    _line(8, ok, f"flat spectrum {eig_res:.2e}, off-block {off_res:.2e},"
                 f" plane waves {wave_res:.2e} (<1e-10), {elapsed:.2f}s"
                 f" (<30s)")
    assert ok


def test_criterion_09_first_order_adjoint_identity():
    m = sl.standard_model(1, hbar=0.7)
    torus = ge.torus_model(m, 4)
    conn = ge.connection_from_modes(
        torus, [(0, [1, 0], "cos", 0.4 * m.j)], [])
    assert np.abs(ge.tau_field(conn)).max() > 1e-3
    basis = fk.fock_basis(1, 5)
    ctx = dr.make_context(conn, basis)
    rng = np.random.default_rng(RNG_SEED + 8)
    residuals = []
    for _ in range(20):
        psi = ge.random_spinor_field(torus, basis, rng, cutoff=2)
        phi = ge.random_spinor_field(torus, basis, rng, cutoff=2)
        residuals.append(dr.adjoint_residual(ctx, psi, phi))
    res = float(np.max(residuals))
    ok = res < 1e-10
    _line(9, ok, f"adjoint with torsion correction, 20 pairs:"
                 f" {res:.2e} (<1e-10)")
    assert ok


def test_criterion_10_weitzenbock_identity():
    m = sl.standard_model(1, hbar=0.7)
    torus = ge.torus_model(m, 4)
    rng = np.random.default_rng(RNG_SEED + 9)
    N = 6
    basis = fk.fock_basis(1, N)
    rel_res = form_res = 0.0
    for _ in range(5):
        gamma_modes = [
            (b, kv, kind, float(rng.normal()) * 0.3 * m.j)
            for b, kv, kind in ((0, [1, 0], "cos"), (1, [0, 1], "sin"))
        ]
        a_modes = [(0, [0, 1], "cos", 0.25j * float(rng.normal()))]
        conn = ge.connection_from_modes(torus, gamma_modes, a_modes)
        ctx = dr.make_context(conn, basis)
        psi = ge.random_spinor_field(torus, basis, rng, cutoff=2,
                                     max_degree=N - 2)
        rel_res = max(rel_res, dr.weitzenbock_residual(ctx, psi, form="ca"))
        # assemble the curvature-torsion term both ways and compare
        T = ge.torsion_tensor(conn)
        terms = []
        for form in ("ca", "clcl"):
            Mpref = dr._curvature_prefactors(ctx, form)
            acc = np.zeros(psi.values.shape, dtype=complex)
            for l in range(2):
                for s in range(2):
                    if np.abs(Mpref[l, s]).max() == 0.0:
                        continue
                    common = ge.spinor_curvature(conn, psi, l, s).values
                    common = common - dr.nabla_dir(ctx, psi, T[l, s]).values
                    acc += np.einsum("FG,...G->...F", Mpref[l, s], common)
            terms.append(acc)
        gap = dr.l2_norm(ctx, ge.spinor_field(torus, basis,
                                              terms[0] - terms[1]))
        form_res = max(form_res, gap / dr.l2_norm(ctx, psi))
    ok = rel_res < 1e-8 and form_res < 1e-11
    _line(10, ok, f"second-order identity {rel_res:.2e} (<1e-8), term"
                  f" forms {form_res:.2e} (<1e-11)")
    assert ok


def test_criterion_11_torsion_removal():
    rng = np.random.default_rng(RNG_SEED + 10)
    tau_res = compat_res = idem_res = 0.0
    for n, cutoff in ((1, 4), (2, 2)):
        m = sl.standard_model(n, hbar=1.0)
        torus = ge.torus_model(m, cutoff)
        for _ in range(3):
            conn = ge.random_connection(torus, rng, cutoff=1, unitary=True)
            rem = ge.torsion_removal(conn)
            tau_res = max(tau_res, float(np.abs(ge.tau_field(rem)).max()))
            compat_res = max(
                compat_res,
                float(np.abs(np.swapaxes(rem.Gamma, -1, -2) @ m.Omega
                             + m.Omega @ rem.Gamma).max()),
                float(np.abs(rem.Gamma @ m.j - m.j @ rem.Gamma).max()))
            again = ge.torsion_removal(rem)
            idem_res = max(idem_res,
                           float(np.abs(again.Gamma - rem.Gamma).max()))
    ok = tau_res < 1e-12 and compat_res < 1e-12 and idem_res < 1e-12
    _line(11, ok, f"torsion after removal {tau_res:.2e}, compatibility"
                  f" {compat_res:.2e}, idempotence {idem_res:.2e} (<1e-12)")
    assert ok


def test_criterion_12_central_curvature_factor():
    rng = np.random.default_rng(RNG_SEED + 11)
    residuals = []
    for n, cutoff in ((1, 4), (2, 2)):
        m = sl.standard_model(n, hbar=1.0)
        torus = ge.torus_model(m, cutoff)
        for unitary in (True, False):
            conn = ge.random_connection(torus, rng, cutoff=1, unitary=unitary)
            gap = ge.eta_curvature(conn) - 2j * ge.central_curvature(conn)
            residuals.append(np.abs(gap).max())
    res = float(np.max(residuals))
    ok = res < 1e-12
    _line(12, ok, f"line curvature doubling {res:.2e} (<1e-12)")
    assert ok


def test_criterion_13_heisenberg_coherent_unitarity():
    rng = np.random.default_rng(RNG_SEED + 12)
    residuals = []
    for n, hbar in ((1, 0.7), (2, 1.3)):
        m = sl.standard_model(n, hbar=hbar)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            c1 = fk.coherent_combo(
                rng.normal(size=k) + 1j * rng.normal(size=k),
                rng.uniform(-1.5, 1.5, size=(k, 2 * n)))
            c2 = fk.coherent_combo(
                rng.normal(size=k) + 1j * rng.normal(size=k),
                rng.uniform(-1.5, 1.5, size=(k, 2 * n)))
            h1 = fk.heisenberg_element(rng.normal(size=2 * n) * 0.8,
                                       float(rng.normal()))
            h2 = fk.heisenberg_element(rng.normal(size=2 * n) * 0.8,
                                       float(rng.normal()))
            gram = abs(fk.combo_inner(m, fk.uj_apply(m, h1, c1),
                                      fk.uj_apply(m, h1, c2))
                       - fk.combo_inner(m, c1, c2))
            two = fk.uj_apply(m, h1, fk.uj_apply(m, h2, c1))
            one = fk.uj_apply(m, fk.heisenberg_mul(m, h1, h2), c1)
            z = rng.uniform(-1, 1, size=(8, 2 * n))
            law = float(np.abs(fk.combo_eval(m, two, z)
                               - fk.combo_eval(m, one, z)).max())
            residuals += [gram, law]
    res = float(np.max(residuals))
    ok = res < 1e-12
    _line(13, ok, f"Gram preservation and group law {res:.2e} (<1e-12)")
    assert ok
