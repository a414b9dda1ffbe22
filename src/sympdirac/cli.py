"""Batch experiment runner: JSON configs, verification suites, spectra.

Three subcommands:

    verify    run deterministic verification suites and emit a JSON report
    spectrum  tabulate eigenvalues of the second-order operator per degree
    csv rows (degree, index, re, im)
    schema    print the JSON schema for the config file

Each suite draws from its own generator seeded by (seed, crc32(suite
name)), so reports are reproducible for a fixed config; the runtime_ms
fields are the only part of a report that varies between runs.  Exit
codes: 0 all checks pass, 1 at least one failure, 2 unusable config.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import zlib
from dataclasses import dataclass

import jsonschema
import numpy as np

from . import __version__
from . import dirac as dr
from . import fock as fk
from . import geometry as ge
from . import mpc
from . import symplinalg as sl

SUITE_ORDER = ("cz", "mpc", "fock", "kernels", "geometry", "dirac")

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "sympdirac experiment configuration",
    "type": "object",
    "required": ["model", "fock", "torus"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["n", "hbar"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "hbar": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "fock": {
            "type": "object",
            "required": ["N"],
            "additionalProperties": False,
            "properties": {"N": {"type": "integer", "minimum": 2}},
        },
        "torus": {
            "type": "object",
            "required": ["M"],
            "additionalProperties": False,
            "properties": {
                "M": {"type": "integer", "minimum": 1},
                "grid": {"type": "integer", "minimum": 3},
            },
        },
        "connection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "gamma_modes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["direction", "k", "matrix"],
                        "additionalProperties": False,
                        "properties": {
                            "direction": {"type": "integer", "minimum": 0},
                            "k": {"type": "array",
                                  "items": {"type": "integer"}},
                            "kind": {"enum": ["cos", "sin"]},
                            "matrix": {
                                "type": "array",
                                "items": {"type": "array",
                                          "items": {"type": "number"}},
                            },
                        },
                    },
                },
                "a_modes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["direction", "k", "value"],
                        "additionalProperties": False,
                        "properties": {
                            "direction": {"type": "integer", "minimum": 0},
                            "k": {"type": "array",
                                  "items": {"type": "integer"}},
                            "kind": {"enum": ["cos", "sin"]},
                            "value": {
                                "type": "number",
                                "description": "coefficient t of the"
                                               " imaginary mode i*t*mode(x)",
                            },
                        },
                    },
                },
            },
        },
        "suites": {
            "type": "array",
            "items": {"enum": list(SUITE_ORDER)},
            "uniqueItems": True,
        },
        "seed": {"type": "integer", "minimum": 0},
        "tolerances": {
            "type": "object",
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
        },
        "quad_order": {"type": "integer", "minimum": 10},
    },
}


class ConfigError(Exception):
    """Config cannot be used: schema violation, bad matrices, band budget."""


def default_config() -> dict:
    return {
        "model": {"n": 1, "hbar": 0.7},
        "fock": {"N": 5},
        "torus": {"M": 4},
        "connection": {
            "gamma_modes": [
                {"direction": 0, "k": [1, 0], "kind": "cos",
                 "matrix": [[0.0, -0.3], [0.3, 0.0]]},
            ],
            "a_modes": [
                {"direction": 1, "k": [0, 1], "kind": "sin", "value": 0.2},
            ],
        },
        "suites": list(SUITE_ORDER),
        "seed": 20260814,
        "tolerances": {},
        "quad_order": 60,
    }


def emit_schema() -> str:
    return json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True)


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


def build_setup(config: dict) -> RunSetup:
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema: {exc.message}") from exc
    n = config["model"]["n"]
    d = 2 * n
    model = sl.standard_model(n, hbar=config["model"]["hbar"])
    basis = fk.fock_basis(n, config["fock"]["N"])
    try:
        torus = ge.torus_model(model, config["torus"]["M"],
                               config["torus"].get("grid"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    gamma_modes, a_modes = [], []
    cmodes = config.get("connection", {})
    for entry in cmodes.get("gamma_modes", []):
        _check_mode_indices(entry, d, torus)
        mat = np.array(entry["matrix"], dtype=float)
        if mat.shape != (d, d):
            raise ConfigError(f"gamma matrix must be {d}x{d}")
        gamma_modes.append((entry["direction"], entry["k"],
                            entry.get("kind", "cos"), mat))
    for entry in cmodes.get("a_modes", []):
        _check_mode_indices(entry, d, torus)
        a_modes.append((entry["direction"], entry["k"],
                        entry.get("kind", "cos"), 1j * entry["value"]))
    try:
        conn = ge.connection_from_modes(torus, gamma_modes, a_modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunSetup(
        model=model,
        basis=basis,
        torus=torus,
        conn=conn,
        seed=config.get("seed", 0),
        quad_order=config.get("quad_order", 60),
        tolerances=dict(config.get("tolerances", {})),
        suites=tuple(config.get("suites", SUITE_ORDER)),
    )


def _check_mode_indices(entry: dict, d: int, torus: ge.TorusModel) -> None:
    if entry["direction"] >= d:
        raise ConfigError(f"mode direction {entry['direction']} out of"
                          f" range for 2n = {d}")
    if len(entry["k"]) != d:
        raise ConfigError(f"mode k-vector must have length {d}")
    if max(abs(int(k)) for k in entry["k"]) > torus.nyquist:
        raise ConfigError("mode k-vector exceeds the grid band budget")


# ---------------------------------------------------------------------------
# suite checks: each yields the residuals of its trials for one verified
# identity; run_verify takes their max


def _unitary_connection(setup: RunSetup, rng: np.random.Generator,
                        torsionful: bool = False) -> ge.Connection:
    """Config connection when usable, otherwise a random unitary one."""
    conn = setup.conn
    if conn.unitary and np.abs(conn.Gamma).max() > 0:
        if not torsionful or np.abs(ge.tau_field(conn)).max() > 1e-6:
            return conn
    return ge.random_connection(setup.torus, rng, cutoff=1, unitary=True)


def _check_cz_roundtrip(setup, rng):
    for _ in range(40):
        g = sl.random_sp(setup.model, rng)
        back = sl.cz_compose(setup.model, sl.cz_decompose(setup.model, g))
        yield np.abs(back - g).max()


def _check_cz_product(setup, rng):
    for _ in range(20):
        g1 = sl.random_sp(setup.model, rng)
        g2 = sl.random_sp(setup.model, rng)
        prod = sl.cz_product(setup.model, sl.cz_decompose(setup.model, g1),
                             sl.cz_decompose(setup.model, g2))
        direct = sl.cz_decompose(setup.model, g1 @ g2)
        yield np.abs(prod.C - direct.C).max()
        yield np.abs(prod.Z - direct.Z).max()


def _check_cz_inverse(setup, rng):
    eye = np.eye(2 * setup.model.n)
    for _ in range(20):
        g = sl.random_sp(setup.model, rng)
        ginv = sl.cz_compose(setup.model,
                             sl.cz_inverse(setup.model,
                                           sl.cz_decompose(setup.model, g)))
        yield np.abs(ginv @ g - eye).max()


def _check_mpc_associativity(setup, rng):
    m = setup.model
    for _ in range(15):
        u1, u2, u3 = (mpc.random_mpc(m, rng) for _ in range(3))
        left = mpc.mpc_mul(m, mpc.mpc_mul(m, u1, u2), u3)
        right = mpc.mpc_mul(m, u1, mpc.mpc_mul(m, u2, u3))
        yield np.abs(left.pair.C - right.pair.C).max()
        yield np.abs(left.pair.Z - right.pair.Z).max()
        yield abs(left.lam - right.lam)


def _check_eta_homomorphism(setup, rng):
    m = setup.model
    for _ in range(15):
        u1 = mpc.random_mpc(m, rng)
        u2 = mpc.random_mpc(m, rng)
        yield abs(mpc.eta(m, mpc.mpc_mul(m, u1, u2))
                  - mpc.eta(m, u1) * mpc.eta(m, u2))


def _check_metaplectic_closure(setup, rng):
    m = setup.model
    for _ in range(10):
        u1 = mpc.random_mpc(m, rng, metaplectic=True)
        u2 = mpc.random_mpc(m, rng, metaplectic=True)
        yield abs(mpc.eta(m, mpc.mpc_mul(m, u1, u2)) - 1.0)
        yield abs(mpc.eta(m, mpc.mpc_inverse(m, u1)) - 1.0)


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


def _random_combo(m, rng, k=3):
    return fk.coherent_combo(rng.normal(size=k) + 1j * rng.normal(size=k),
                             rng.uniform(-1.2, 1.2, size=(k, 2 * m.n)))


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
        yield abs(after - before)


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
        yield np.abs(fk.combo_eval(m, two, z) - fk.combo_eval(m, one, z)).max()


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
        yield mpc.conjugation_check(m, u, h, rng=rng)


def _lie_fd_residuals(setup, rng):
    from scipy.linalg import expm

    m, B = setup.model, setup.basis
    # a path over the unitary group (the arm with an exact fiber action)
    K = rng.normal(size=(m.n, m.n)) + 1j * rng.normal(size=(m.n, m.n))
    xi = sl.real_matrix(m, 0.5 * (K - K.conj().T))
    mu = 1j * rng.normal() * 0.4
    x = mpc.mpc_lie_element(m, mu, xi)
    f = fk.FockVector(basis=B, coeffs=rng.normal(size=B.dim)
                      + 1j * rng.normal(size=B.dim))
    exact = mpc.mpc_lie_act(m, B, x, f).coeffs

    def fd(t):
        def elem(s):
            pair = sl.cz_decompose(m, expm(s * xi))
            return mpc.mpc_element(m, pair, np.exp(s * mu))

        up = mpc.muc_apply(m, B, elem(t), f).coeffs
        dn = mpc.muc_apply(m, B, elem(-t), f).coeffs
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
    ctx = dr.make_context(ge.flat_connection(setup.torus), setup.basis)
    x = ge.grid_points(setup.torus)
    N = setup.basis.max_degree
    keep = setup.basis.degrees <= N - 1
    for _ in range(4):
        kvec = rng.integers(-setup.torus.cutoff, setup.torus.cutoff + 1,
                            size=setup.torus.dim)
        lam = -float(kvec @ ctx.ginv @ kvec) / setup.model.hbar
        wave = np.exp(1j * (x @ kvec.astype(float)))
        for fi in np.nonzero(keep)[0]:
            vals = np.zeros(setup.torus.grid_shape + (setup.basis.dim,),
                            dtype=complex)
            vals[..., fi] = wave
            psi = ge.spinor_field(setup.torus, setup.basis, vals)
            yield np.abs(dr.P_op(ctx, psi).values - lam * psi.values).max()


def _check_first_order_adjoint(setup, rng):
    conn = _unitary_connection(setup, rng, torsionful=True)
    ctx = dr.make_context(conn, setup.basis)
    for _ in range(5):
        psi = ge.random_spinor_field(setup.torus, setup.basis, rng, cutoff=2)
        phi = ge.random_spinor_field(setup.torus, setup.basis, rng, cutoff=2)
        yield dr.adjoint_residual(ctx, psi, phi)


def _check_weitzenbock(setup, rng):
    conn = _unitary_connection(setup, rng)
    ctx = dr.make_context(conn, setup.basis)
    N = setup.basis.max_degree
    for _ in range(3):
        psi = ge.random_spinor_field(setup.torus, setup.basis, rng,
                                     cutoff=1, max_degree=N - 2)
        yield dr.weitzenbock_residual(ctx, psi, form="ca")


def _check_weitzenbock_forms(setup, rng):
    conn = _unitary_connection(setup, rng)
    ctx = dr.make_context(conn, setup.basis)
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

    ctx = dr.make_context(ge.flat_connection(setup.torus), setup.basis)
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


SUITE_CHECKS = {
    "cz": [
        ("cz-roundtrip", "polar-splitting round trip", 1e-10,
         _check_cz_roundtrip),
        ("cz-product-law", "parameter product vs matrix product", 1e-9,
         _check_cz_product),
        ("cz-inverse-law", "parameter inverse vs matrix inverse", 1e-10,
         _check_cz_inverse),
    ],
    "mpc": [
        ("mpc-cocycle-associativity", "group product associativity", 1e-9,
         _check_mpc_associativity),
        ("eta-character-homomorphism", "eta multiplicativity", 1e-9,
         _check_eta_homomorphism),
        ("metaplectic-kernel-closure", "eta = 1 subgroup closure", 1e-10,
         _check_metaplectic_closure),
    ],
    "fock": [
        ("ccr-commutator", "creation-annihilation commutator", 1e-13,
         _check_ccr),
        ("clifford-commutator", "symplectic Clifford relation", 1e-13,
         _check_clifford),
        ("creation-annihilation-adjoint", "weighted adjoint pairing", 1e-13,
         _check_adjoint_pair),
        ("heisenberg-unitarity", "coherent Gram preservation", 1e-12,
         _check_heisenberg_unitarity),
        ("heisenberg-group-law", "translation composition law", 1e-12,
         _check_heisenberg_group_law),
    ],
    "kernels": [
        ("kernel-composition", "quadrature composition vs group law", 1e-6,
         _check_kernel_composition),
        ("gaussian-integral-identity", "Gaussian integral closed form", 1e-6,
         _check_gaussian_integral),
        ("heisenberg-covariance", "conjugation transports vectors", 1e-6,
         _check_covariance),
        ("lie-derivative-consistency", "group derivative at t = 1e-4", 1e-6,
         _check_lie_derivative),
        ("lie-derivative-second-order", "central difference order", 0.5,
         _check_lie_derivative_order),
    ],
    "geometry": [
        ("torsion-trace-identity", "torsion vector trace pairing", 1e-11,
         _check_trace_identity),
        ("volume-derivative-identity", "divergence plus torsion pairing",
         1e-10, _check_volume_identity),
        ("torsion-removal", "residual torsion vector", 1e-12,
         _check_torsion_removal),
        ("connection-compatibility", "form and complex structure parallel",
         1e-12, _check_compatibility),
        ("central-curvature-factor", "line curvature doubling", 1e-12,
         _check_central_factor),
    ],
    "dirac": [
        ("flat-plane-wave-eigenvalue", "second-order symbol on modes", 1e-10,
         _check_flat_eigenvalue),
        ("first-order-adjoint", "adjoint with torsion correction", 1e-10,
         _check_first_order_adjoint),
        ("weitzenbock-identity", "second-order decomposition", 1e-8,
         _check_weitzenbock),
        ("weitzenbock-term-equivalence", "curvature term forms", 1e-11,
         _check_weitzenbock_forms),
        ("flat-spectrum-closed-form", "band-limited eigenvalue table", 1e-10,
         _check_flat_spectrum),
    ],
}


def run_verify(config: dict, suites=None) -> tuple[dict, int]:
    """Run the selected suites and assemble the report; (report, exit code)."""
    import scipy

    setup = build_setup(config)
    chosen = tuple(suites) if suites else setup.suites
    for name in chosen:
        if name not in SUITE_CHECKS:
            raise ConfigError(f"unknown suite {name!r}")
    if "kernels" in chosen and setup.model.n != 1:
        raise ConfigError("the kernels suite requires n = 1")
    checks = []
    for suite in SUITE_ORDER:
        if suite not in chosen:
            continue
        rng = np.random.default_rng(
            [setup.seed, zlib.crc32(suite.encode("ascii"))])
        for name, anchor, default_tol, fn in SUITE_CHECKS[suite]:
            tol = float(setup.tolerances.get(name, default_tol))
            start = time.perf_counter()
            # np.max, unlike max(), propagates a NaN trial
            residual = float(np.max(list(fn(setup, rng))))
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            checks.append({
                "name": name,
                "suite": suite,
                "anchor": anchor,
                "max_residual": residual,
                "tolerance": tol,
                "pass": bool(residual < tol),
                "runtime_ms": round(elapsed_ms, 3),
            })
    report = {
        "environment": {
            "version": __version__,
            "seed": setup.seed,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": os.environ.get("SYMPDIRAC_THREADS"),
        },
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    return report, 0 if report["all_pass"] else 1


def run_spectrum(config: dict, degrees) -> list[tuple[int, int, float, float]]:
    """Eigenvalue rows (degree, index, re, im) for the requested degrees."""
    setup = build_setup(config)
    ctx = dr.make_context(setup.conn, setup.basis)
    rows = []
    for degree in degrees:
        try:
            eig = dr.spectrum(ctx, degree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows.extend((degree, i, float(v.real), float(v.imag))
                    for i, v in enumerate(eig))
    return rows


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _write_csv(rows, path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["degree", "index", "re", "im"])
    writer.writerows(rows)
    if path:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _parse_degrees(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --degrees value {text!r}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sympdirac",
        description="verification suites and spectra for the symplectic"
                    " Dirac operator calculus")
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify", help="run verification suites from a JSON config")
    p_verify.add_argument("--config", help="path to a config file"
                          " (built-in default when omitted)")
    p_verify.add_argument("--suite", action="append", dest="suites",
                          choices=list(SUITE_ORDER),
                          help="restrict to one or more suites")
    p_verify.add_argument("--out", help="write the JSON report here"
                          " instead of stdout")
    p_spec = sub.add_parser(
        "spectrum", help="tabulate eigenvalues of the second-order operator")
    p_spec.add_argument("--config")
    p_spec.add_argument("--degrees", required=True,
                        help="comma-separated fiber degrees, e.g. 0,1,2")
    p_spec.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_parser("schema", help="print the config JSON schema")
    args = parser.parse_args(argv)

    if args.command == "schema":
        sys.stdout.write(emit_schema() + "\n")
        return 0
    try:
        config = _load_config(args.config)
        if args.command == "verify":
            report, code = run_verify(config, suites=args.suites)
            _write_report(report, args.out)
            return code
        rows = run_spectrum(config, _parse_degrees(args.degrees))
        _write_csv(rows, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
