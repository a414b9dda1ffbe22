"""Numerical checks of the paper's identities, in one ordered registry.

Each check is a generator fn(setup, rng) yielding one residual per trial;
run_checks reports their np.max, so a NaN trial fails.  CHECKS lists each
check once; SUITES and the report rows follow its order, and each suite
draws from its own generator seeded by (seed, crc32(suite name)).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import dirac as dr
from . import fock as fk
from . import geometry as ge
from . import mpc
from . import symplinalg as sl


@dataclass(frozen=True)
class RunSetup:
    model: sl.SymplecticModel
    basis: fk.FockBasis
    torus: ge.TorusModel
    conn: ge.Connection
    seed: int
    quad_order: int
    tolerances: dict
    suites: tuple

    # the dirac checks share one context per connection and run
    @cached_property
    def context(self) -> dr.DiracContext:
        """The Dirac context of the config connection, made on first use."""
        return dr.make_context(self.conn, self.basis)

    @cached_property
    def flat_context(self) -> dr.DiracContext:
        """The Dirac context of the flat connection, made on first use."""
        return dr.make_context(ge.flat_connection(self.torus), self.basis)


def _unitary_connection(setup: RunSetup, rng: np.random.Generator,
                        torsionful: bool = False) -> ge.Connection:
    """Config connection when usable, otherwise a random unitary one."""
    conn = setup.conn
    if conn.unitary and np.abs(conn.Gamma).max() > 0:
        if not torsionful or np.abs(ge.tau_field(conn)).max() > 1e-6:
            return conn
    return ge.random_connection(setup.torus, rng, cutoff=1, unitary=True)


def _unitary_context(setup: RunSetup, rng: np.random.Generator,
                     torsionful: bool = False) -> dr.DiracContext:
    """The Dirac context of _unitary_connection: setup.context when that
    is the config connection."""
    conn = _unitary_connection(setup, rng, torsionful)
    return setup.context if conn is setup.conn else dr.make_context(
        conn, setup.basis)


def _max_abs(x):
    """Max-norm of each trial's matrix in a batch."""
    return np.abs(x).max(axis=(-2, -1))


def _check_cz_roundtrip(setup, rng):
    m = setup.model
    g = sl.random_sp(m, rng, shape=(40,))
    back = sl.cz_compose(m, sl.cz_decompose(m, g))
    yield from _max_abs(back - g)


def _check_cz_product(setup, rng):
    m = setup.model
    g = sl.random_sp(m, rng, shape=(20, 2))
    g1, g2 = g[:, 0], g[:, 1]
    prod = sl.cz_product(m, sl.cz_decompose(m, g1), sl.cz_decompose(m, g2))
    direct = sl.cz_decompose(m, g1 @ g2)
    yield from _max_abs(prod.C - direct.C)
    yield from _max_abs(prod.Z - direct.Z)


def _check_cz_inverse(setup, rng):
    m = setup.model
    g = sl.random_sp(m, rng, shape=(20,))
    ginv = sl.cz_compose(m, sl.cz_inverse(m, sl.cz_decompose(m, g)))
    yield from _max_abs(ginv @ g - np.eye(2 * m.n))


def _check_mpc_associativity(setup, rng):
    m = setup.model
    u = mpc.random_mpc(m, rng, shape=(15, 3))
    u1, u2, u3 = u[:, 0], u[:, 1], u[:, 2]
    left = mpc.mpc_mul(m, mpc.mpc_mul(m, u1, u2), u3)
    right = mpc.mpc_mul(m, u1, mpc.mpc_mul(m, u2, u3))
    yield from _max_abs(left.pair.C - right.pair.C)
    yield from _max_abs(left.pair.Z - right.pair.Z)
    yield from np.abs(left.lam - right.lam)


def _check_eta_homomorphism(setup, rng):
    m = setup.model
    u = mpc.random_mpc(m, rng, shape=(15, 2))
    u1, u2 = u[:, 0], u[:, 1]
    yield from np.abs(mpc.eta(m, mpc.mpc_mul(m, u1, u2))
                      - mpc.eta(m, u1) * mpc.eta(m, u2))


def _check_metaplectic_closure(setup, rng):
    m = setup.model
    u = mpc.random_mpc(m, rng, metaplectic=True, shape=(10, 2))
    u1, u2 = u[:, 0], u[:, 1]
    yield from np.abs(mpc.eta(m, mpc.mpc_mul(m, u1, u2)) - 1.0)
    yield from np.abs(mpc.eta(m, mpc.mpc_inverse(m, u1)) - 1.0)


def _check_ccr(setup, rng):
    m, B = setup.model, setup.basis
    cols = B.degrees <= B.max_degree - 2
    for _ in range(6):
        v = rng.normal(size=2 * m.n)
        w = rng.normal(size=2 * m.n)
        C = fk.creation_op(m, B, v).matrix
        A = fk.annihilation_op(m, B, w).matrix
        comm = C @ A - A @ C
        expect = -complex(sl.hermitean_form(m, w, v)) / (2.0 * m.hbar)
        gap = comm - expect * np.eye(B.dim)
        # relative to the Cauchy-Schwarz bound |v||w|/2hbar on |expect|
        bound = np.linalg.norm(v) * np.linalg.norm(w) / (2.0 * m.hbar)
        yield np.abs(gap[:, cols]).max() / bound


def _check_clifford(setup, rng):
    m, B = setup.model, setup.basis
    cols = B.degrees <= B.max_degree - 2
    for _ in range(6):
        v = rng.normal(size=2 * m.n)
        w = rng.normal(size=2 * m.n)
        Cv = fk.clifford_op(m, B, v).matrix
        Cw = fk.clifford_op(m, B, w).matrix
        comm = Cv @ Cw - Cw @ Cv
        expect = 1j * sl.omega_form(m, v, w) / m.hbar
        gap = comm - expect * np.eye(B.dim)
        # relative to the Cauchy-Schwarz bound |v||w|/hbar on |expect|
        bound = np.linalg.norm(v) * np.linalg.norm(w) / m.hbar
        yield np.abs(gap[:, cols]).max() / bound


def _check_adjoint_pair(setup, rng):
    m, B = setup.model, setup.basis
    for _ in range(6):
        v = rng.normal(size=2 * m.n)
        C = fk.creation_op(m, B, v).matrix
        A = fk.annihilation_op(m, B, v).matrix
        yield np.abs(fk.adjoint_matrix(m, B, C) - A).max()


def _random_combo(m, rng):
    return fk.coherent_combo(rng.normal(size=3) + 1j * rng.normal(size=3),
                             rng.uniform(-1.2, 1.2, size=(3, 2 * m.n)))


def _check_heisenberg_unitarity(setup, rng):
    m = setup.model
    for _ in range(8):
        h = fk.heisenberg_element(rng.normal(size=2 * m.n) * 0.7,
                                  float(rng.normal()))
        c1 = _random_combo(m, rng)
        c2 = _random_combo(m, rng)
        before = fk.combo_inner(m, c1, c2)
        after = fk.combo_inner(m, fk.uj_apply(m, h, c1),
                               fk.uj_apply(m, h, c2))
        # relative to the Cauchy-Schwarz bound |c1||c2| on |before|; the
        # coherent-state norms grow as exp(|v|^2/4hbar)
        bound = np.sqrt(fk.combo_inner(m, c1, c1).real
                        * fk.combo_inner(m, c2, c2).real)
        yield np.abs(after - before) / bound


def _check_heisenberg_group_law(setup, rng):
    m = setup.model
    for _ in range(8):
        h1 = fk.heisenberg_element(rng.normal(size=2 * m.n) * 0.7,
                                   float(rng.normal()))
        h2 = fk.heisenberg_element(rng.normal(size=2 * m.n) * 0.7,
                                   float(rng.normal()))
        c = _random_combo(m, rng)
        two = fk.uj_apply(m, h1, fk.uj_apply(m, h2, c))
        one = fk.uj_apply(m, fk.heisenberg_mul(m, h1, h2), c)
        z = rng.uniform(-1, 1, size=(6, 2 * m.n))
        gap = np.abs(fk.combo_eval(m, two, z) - fk.combo_eval(m, one, z))
        # relative to the Cauchy-Schwarz bound |one(z)| <= |one| |e_z|, with
        # |e_z| = exp(|z|^2/4hbar) by the reproducing property; in logs,
        # since |one| overflows at small hbar; a zero gap gives 0, and a NaN
        # gap stays NaN
        log_bound = (fk.combo_log_norm(m, one)
                     + np.sum(z * z, axis=-1) / (4.0 * m.hbar))
        log_gap = np.log(gap, out=np.full_like(gap, -np.inf), where=gap != 0)
        yield np.exp(log_gap - log_bound).max()


def _check_kernel_composition(setup, rng):
    m = setup.model
    for _ in range(4):
        u1 = mpc.random_mpc(m, rng, scale=0.45)
        u2 = mpc.random_mpc(m, rng, scale=0.45)
        comp = mpc.kernel_compose_numeric(m, mpc.mpc_kernel(m, u1),
                                          mpc.mpc_kernel(m, u2),
                                          quad_order=setup.quad_order)
        exact = mpc.mpc_kernel(m, mpc.mpc_mul(m, u1, u2))
        z = rng.uniform(-1, 1, size=(8, 2))
        w = rng.uniform(-1, 1, size=(8, 2))
        want = mpc.kernel_eval(m, exact, z, w)
        yield np.abs(comp(z, w) - want).max() / np.abs(want).max()


def _check_gaussian_integral(setup, rng):
    m = setup.model
    for _ in range(6):
        r1, r2 = rng.uniform(0.1, 0.8, size=2)
        W1 = r1 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        W2 = r2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lhs, rhs = mpc.gaussian_integral_check(m, W1, W2,
                                               quad_order=setup.quad_order)
        yield abs(lhs - rhs) / abs(rhs)


def _check_covariance(setup, rng):
    m = setup.model
    for _ in range(3):
        u = mpc.random_mpc(m, rng, scale=0.4)
        h = fk.heisenberg_element(rng.uniform(-1, 1, size=2),
                                  float(rng.normal()) * 0.3)
        yield mpc.conjugation_check(m, u, h, quad_order=setup.quad_order,
                                    rng=rng)


def _lie_fd_residuals(setup, rng):
    m, B = setup.model, setup.basis
    # a path over the unitary group (the arm with an exact fiber action)
    xi = sl.random_u_algebra(m, rng)
    mu = 1j * rng.normal() * 0.4
    x = mpc.mpc_lie_element(m, mu, xi)
    f = fk.FockVector(basis=B, coeffs=rng.normal(size=B.dim)
                      + 1j * rng.normal(size=B.dim))
    exact = mpc.lie_action(m, B, x.mu, x.xi) @ f.coeffs

    def fd(t):
        def elem(s):
            pair = sl.cz_decompose(m, sl.expm(s * xi))
            return mpc.mpc_element(m, pair, np.exp(s * mu))

        up = mpc.muc_matrix(m, B, elem(t)).matrix @ f.coeffs
        dn = mpc.muc_matrix(m, B, elem(-t)).matrix @ f.coeffs
        return float(np.abs((up - dn) / (2.0 * t) - exact).max())

    return fd(1e-3), fd(1e-4)


def _check_lie_derivative(setup, rng):
    yield _lie_fd_residuals(setup, rng)[1]


def _check_lie_derivative_order(setup, rng):
    r3, r4 = _lie_fd_residuals(setup, rng)
    yield abs(np.log10(r3 / r4) - 2.0)


def _check_trace_identity(setup, rng):
    conn = _unitary_connection(setup, rng)
    t = setup.torus
    d = t.dim
    tau = ge.tau_field(conn)
    E = np.zeros(t.grid_shape + (d, d))
    E[..., :, :] = np.eye(d)
    for _ in range(3):
        Z = ge.random_vector_field(t, rng, cutoff=1)
        trace = np.zeros(t.grid_shape, dtype=complex)
        for a in range(d):
            trace += ge.torsion_apply(conn, E[..., :, a], Z)[..., a]
        yield np.abs(ge.omega_pairing(t, tau, Z) - trace).max()


def _check_volume_identity(setup, rng):
    conn = _unitary_connection(setup, rng)
    for _ in range(3):
        X = ge.random_vector_field(setup.torus, rng, cutoff=1)
        yield ge.lie_lemma_residual(conn, X)


def _check_torsion_removal(setup, rng):
    conn = _unitary_connection(setup, rng, torsionful=True)
    yield np.abs(ge.tau_field(ge.torsion_removal(conn))).max()


def _check_compatibility(setup, rng):
    m = setup.model
    rem = ge.torsion_removal(_unitary_connection(setup, rng, torsionful=True))
    yield np.abs(np.swapaxes(rem.Gamma, -1, -2) @ m.Omega
                 + m.Omega @ rem.Gamma).max()
    yield np.abs(rem.Gamma @ m.j - m.j @ rem.Gamma).max()


def _check_central_factor(setup, rng):
    for unitary in (True, False):
        conn = ge.random_connection(setup.torus, rng, cutoff=1,
                                    unitary=unitary)
        yield np.abs(ge.eta_curvature(conn)
                     - 2j * ge.central_curvature(conn)).max()


def _check_flat_eigenvalue(setup, rng):
    ctx = setup.flat_context
    torus, basis = setup.torus, setup.basis
    x = ge.grid_points(torus)
    kvecs = [rng.integers(-torus.cutoff, torus.cutoff + 1, size=torus.dim)
             for _ in range(4)]
    waves = np.stack([np.exp(1j * (x @ k.astype(float))) for k in kvecs])
    lam = np.array([-float(k @ ctx.ginv @ k) / setup.model.hbar
                    for k in kvecs]).reshape((-1,) + (1,) * waves.ndim)
    # one batch of the four waves per fiber column: its window is that column
    for fi in np.nonzero(basis.degrees <= basis.max_degree - 1)[0]:
        vals = np.zeros(waves.shape + (basis.dim,), dtype=complex)
        vals[..., fi] = waves
        gap = dr.P_op(ctx, ge.spinor_field(torus, basis, vals)).values
        gap -= lam * vals
        yield from np.abs(gap).max(axis=tuple(range(1, gap.ndim)))


def _check_first_order_adjoint(setup, rng):
    ctx = _unitary_context(setup, rng, torsionful=True)
    # five trials of (psi, phi) as one batch, drawn as ten single fields
    fields = ge.random_spinor_field(setup.torus, setup.basis, rng, cutoff=2,
                                    shape=(5, 2)).values
    psi, phi = (ge.spinor_field(setup.torus, setup.basis, fields[:, i])
                for i in (0, 1))
    # relative to the Cauchy-Schwarz bound on |<D' psi, phi>|; the fiber
    # weights, and with them the absolute gap, grow as (2 hbar)^degree
    yield from dr.adjoint_residual(ctx, psi, phi, relative=True)


def _check_weitzenbock(setup, rng):
    ctx = _unitary_context(setup, rng)
    N = setup.basis.max_degree
    psi = ge.random_spinor_field(setup.torus, setup.basis, rng, cutoff=1,
                                 max_degree=N - 2, shape=(3,))
    yield from dr.weitzenbock_residual(ctx, psi, form="ca")


def _check_weitzenbock_forms(setup, rng):
    ctx = _unitary_context(setup, rng)
    N = setup.basis.max_degree
    psi = ge.random_spinor_field(setup.torus, setup.basis, rng,
                                 cutoff=1, max_degree=N - 2)
    gap = (dr.curvature_term(ctx, psi, "ca").values
           - dr.curvature_term(ctx, psi, "clcl").values)
    num = dr.l2_norm(ctx, ge.spinor_field(setup.torus, setup.basis, gap))
    den = dr.l2_norm(ctx, psi)
    yield num / den if den > 0 else num


def _check_flat_spectrum(setup, rng):
    from itertools import product as iproduct

    ctx = setup.flat_context
    hbar = setup.model.hbar
    M = setup.torus.cutoff
    want = sorted(
        -float(np.array(mv) @ ctx.ginv @ np.array(mv)) / hbar
        for mv in iproduct(range(-M, M + 1), repeat=setup.torus.dim)
    )
    for degree in range(min(2, setup.basis.max_degree)):
        mult = int(np.count_nonzero(setup.basis.degrees == degree))
        eig = dr.spectrum(ctx, degree)
        yield np.abs(eig.imag).max()
        yield np.abs(np.sort(eig.real) - np.repeat(want, mult)).max()



@dataclass(frozen=True)
class Check:
    """One registry entry: a residual generator and how to report it."""

    name: str
    suite: str
    anchor: str
    tolerance: float
    fn: Callable


# a suite's checks stay adjacent, since run_checks runs suite by suite
CHECKS = (
    Check("cz-roundtrip", "cz", "polar-splitting round trip",
          1e-10, _check_cz_roundtrip),
    Check("cz-product-law", "cz", "parameter product vs matrix product",
          1e-9, _check_cz_product),
    Check("cz-inverse-law", "cz", "parameter inverse vs matrix inverse",
          1e-10, _check_cz_inverse),
    Check("mpc-cocycle-associativity", "mpc", "group product associativity",
          1e-9, _check_mpc_associativity),
    Check("eta-character-homomorphism", "mpc", "eta multiplicativity",
          1e-9, _check_eta_homomorphism),
    Check("metaplectic-kernel-closure", "mpc", "eta = 1 subgroup closure",
          1e-10, _check_metaplectic_closure),
    Check("ccr-commutator", "fock", "creation-annihilation commutator",
          1e-13, _check_ccr),
    Check("clifford-commutator", "fock", "symplectic Clifford relation",
          1e-13, _check_clifford),
    Check("creation-annihilation-adjoint", "fock", "weighted adjoint pairing",
          1e-13, _check_adjoint_pair),
    Check("heisenberg-unitarity", "fock", "coherent Gram preservation",
          1e-12, _check_heisenberg_unitarity),
    Check("heisenberg-group-law", "fock", "translation composition law",
          1e-12, _check_heisenberg_group_law),
    Check("kernel-composition", "kernels",
          "quadrature composition vs group law",
          1e-6, _check_kernel_composition),
    Check("gaussian-integral-identity", "kernels",
          "Gaussian integral closed form", 1e-6, _check_gaussian_integral),
    Check("heisenberg-covariance", "kernels", "conjugation transports vectors",
          1e-6, _check_covariance),
    Check("lie-derivative-consistency", "kernels",
          "group derivative at t = 1e-4", 1e-6, _check_lie_derivative),
    Check("lie-derivative-second-order", "kernels", "central difference order",
          0.5, _check_lie_derivative_order),
    Check("torsion-trace-identity", "geometry", "torsion vector trace pairing",
          1e-11, _check_trace_identity),
    Check("volume-derivative-identity", "geometry",
          "divergence plus torsion pairing", 1e-10, _check_volume_identity),
    Check("torsion-removal", "geometry", "residual torsion vector",
          1e-12, _check_torsion_removal),
    Check("connection-compatibility", "geometry",
          "form and complex structure parallel", 1e-12, _check_compatibility),
    Check("central-curvature-factor", "geometry", "line curvature doubling",
          1e-12, _check_central_factor),
    Check("flat-plane-wave-eigenvalue", "dirac",
          "second-order symbol on modes", 1e-10, _check_flat_eigenvalue),
    Check("first-order-adjoint", "dirac", "adjoint with torsion correction",
          1e-10, _check_first_order_adjoint),
    Check("weitzenbock-identity", "dirac", "second-order decomposition",
          1e-8, _check_weitzenbock),
    Check("weitzenbock-term-equivalence", "dirac", "curvature term forms",
          1e-11, _check_weitzenbock_forms),
    Check("flat-spectrum-closed-form", "dirac",
          "band-limited eigenvalue table", 1e-10, _check_flat_spectrum),
)

SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))


def run_checks(setup: RunSetup, suites) -> list[dict]:
    """Report rows of the checks in the given suites, in registry order."""
    rows = []
    for suite in SUITES:
        if suite not in suites:
            continue
        rng = np.random.default_rng(
            [setup.seed, zlib.crc32(suite.encode("ascii"))])
        for check in (c for c in CHECKS if c.suite == suite):
            tol = float(setup.tolerances.get(check.name, check.tolerance))
            start = time.perf_counter()
            # np.max, unlike max(), propagates a NaN trial
            residual = float(np.max(list(check.fn(setup, rng))))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            rows.append({
                "name": check.name,
                "suite": suite,
                "anchor": check.anchor,
                "max_residual": residual,
                "tolerance": tol,
                "pass": bool(residual < tol),
                "runtime_ms": round(elapsed_ms, 3),
            })
    return rows
