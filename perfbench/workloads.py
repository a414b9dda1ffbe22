"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client and one op in flight.  A
workload object has

    setup()        build what every op shares (timed as set-up)
    make_input(i)  the inputs of op i, drawn from (workload seed, i); untimed
    run(x)         the op itself; the only timed part
    check(x, out)  list of reasons the output is wrong; empty when correct
    sizes()        problem sizes for the environment block

The checks never reuse the code path they check: ``verify`` trusts the
report only through its own exit code, ``spectrum`` compares against a
trace assembled from single plane waves through ``dirac.P_op``, and
``fields`` holds the library's residual identities to the tolerances of
``sympdirac verify``.
"""

from __future__ import annotations

import copy
from itertools import product

import numpy as np

from sympdirac import cli
from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import symplinalg as sl

HBAR = 0.7
ADJOINT_TOL = 1e-10      # verify suite "first-order-adjoint"
WEITZENBOCK_TOL = 1e-8   # verify suite "weitzenbock-identity"
TRACE_RTOL = 1e-9


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def galerkin_dims(n: int, N: int, M: int, degrees) -> list:
    modes = (2 * M + 1) ** (2 * n)
    basis = fk.fock_basis(n, N)
    return [modes * int((basis.degrees == d).sum()) for d in degrees]


class Verify:
    """One op is ``cli.run_verify`` on the default config, as shipped.

    Every op runs the same report, whatever the workload seed: the shipped
    config seed.  A config seed drawn per op would make some ops fail on a
    library defect (``lie-derivative-consistency`` fails on about one seed
    in seven; see README.md), and every op must pass its check.
    """

    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.config = cli.default_config()

    def make_input(self, i: int) -> dict:
        return copy.deepcopy(self.config)

    def run(self, config):
        return cli.run_verify(config)

    def check(self, config, out) -> list:
        report, code = out
        bad = [c["name"] for c in report["checks"] if not c["pass"]]
        problems = []
        if code != 0:
            problems.append(f"exit code {code} (failing checks: {bad})")
        if report["all_pass"] is not True:
            problems.append("report says all_pass is false")
        return problems

    def sizes(self) -> dict:
        c = self.config
        n, N, M = c["model"]["n"], c["fock"]["N"], c["torus"]["M"]
        return _sizes(n, N, M, galerkin_dims(n, N, M, (0, 1)))


class Spectrum:
    """One op is ``cli.run_spectrum(config, [0, 1])`` on a random connection.

    n = 2, M = 1, N = 4: a 5^4 grid, F = 15, Galerkin dimensions 81 and 162.
    The connection is unitary and band-1, drawn once from the workload seed
    and given to the CLI as modes, so every op solves the same problem and
    the plane-wave oracle is assembled once per run.
    """

    name = "spectrum"
    n, N, M = 2, 4, 1
    degrees = (0, 1)

    def __init__(self, seed: int):
        self.seed = seed
        self.traces = None

    def setup(self):
        model = sl.standard_model(self.n, hbar=HBAR)
        rng = _rng(self.seed)
        d = 2 * self.n
        gamma, a_modes = [], []
        for b in range(d):
            for _ in range(2):
                K = rng.normal(size=(self.n, self.n)) \
                    + 1j * rng.normal(size=(self.n, self.n))
                mat = sl.real_matrix(model, 0.15 * (K - K.conj().T))
                gamma.append({"direction": b, "k": _band1_k(rng, d),
                              "kind": str(rng.choice(["cos", "sin"])),
                              "matrix": mat.tolist()})
            a_modes.append({"direction": b, "k": _band1_k(rng, d),
                            "kind": str(rng.choice(["cos", "sin"])),
                            "value": float(rng.normal() * 0.2)})
        self.config = {
            "model": {"n": self.n, "hbar": HBAR},
            "fock": {"N": self.N},
            "torus": {"M": self.M},
            "connection": {"gamma_modes": gamma, "a_modes": a_modes},
        }

    def make_input(self, i: int) -> dict:
        return copy.deepcopy(self.config)

    def run(self, config):
        return cli.run_spectrum(config, list(self.degrees))

    def check(self, config, rows) -> list:
        if self.traces is None:
            setup = cli.build_setup(self.config)
            ctx = dr.make_context(setup.conn, setup.basis)
            self.traces = [plane_wave_trace(ctx, deg) for deg in self.degrees]
        problems = []
        dims = self.sizes()["galerkin_dims"]
        for degree, dim, trace in zip(self.degrees, dims, self.traces):
            eig = np.array([complex(re, im) for deg, _, re, im in rows
                            if deg == degree])
            problems += spectrum_problems(eig, dim, trace, f"degree {degree}")
        return problems

    def sizes(self) -> dict:
        return _sizes(self.n, self.N, self.M,
                      galerkin_dims(self.n, self.N, self.M, self.degrees))


def _band1_k(rng, d) -> list:
    while True:
        k = rng.integers(-1, 2, size=d)
        if k.any():
            return [int(v) for v in k]


def plane_wave_trace(ctx, degree: int) -> complex:
    """Trace of the Galerkin block of P, one plane wave at a time.

    Sums <e_k f, P(e_k f)> over modes |k| <= cutoff and degree-d monomials
    f, each through ``dirac.P_op`` on a single field; the eigenvalue sum of
    the batched assembly must equal it.
    """
    torus, basis = ctx.torus, ctx.basis
    x = ge.grid_points(torus)
    total = 0.0j
    cut = torus.cutoff
    for kv in product(range(-cut, cut + 1), repeat=torus.dim):
        wave = np.exp(1j * (x @ np.array(kv, dtype=float)))
        for fi in np.nonzero(basis.degrees == degree)[0]:
            vals = np.zeros(torus.grid_shape + (basis.dim,), dtype=complex)
            vals[..., fi] = wave
            out = dr.P_op(ctx, ge.spinor_field(torus, basis, vals)).values
            total += np.mean(out[..., fi] * wave.conj())
    return total


def spectrum_problems(eig, expected_dim: int, trace: complex,
                      what: str = "spectrum") -> list:
    """Count, finiteness and trace checks on one degree's eigenvalues."""
    eig = np.asarray(eig, dtype=complex)
    problems = []
    if eig.size != expected_dim:
        problems.append(f"{what}: {eig.size} eigenvalues, want {expected_dim}")
    if not np.isfinite(eig).all():
        problems.append(f"{what}: non-finite eigenvalue")
        return problems
    gap = abs(eig.sum() - trace)
    scale = max(1.0, float(np.abs(eig).sum()))
    if not gap <= TRACE_RTOL * scale:
        problems.append(f"{what}: eigenvalue sum misses the plane-wave"
                        f" trace by {gap:.3e}")
    return problems


class Fields:
    """Single-field application of the Dirac-layer operators.

    Set-up builds a random unitary, torsionful band-1 connection and its
    context at n = 2, M = 2, N = 4 (a 7^4 grid).  One op applies P, D, the
    adjoint identity, the Laplacian and both Weitzenboeck forms to two
    fresh random spinor fields of degree <= N - 2.
    """

    name = "fields"
    n, N, M = 2, 4, 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        model = sl.standard_model(self.n, hbar=HBAR)
        self.basis = fk.fock_basis(self.n, self.N)
        self.torus = ge.torus_model(model, self.M)
        conn = ge.random_connection(self.torus, _rng(self.seed, 2**31),
                                    cutoff=1, unitary=True)
        self.ctx = dr.make_context(conn, self.basis)

    def make_input(self, i: int):
        rng = _rng(self.seed, i)
        return tuple(ge.random_spinor_field(self.torus, self.basis, rng,
                                            cutoff=1, max_degree=self.N - 2)
                     for _ in range(2))

    def run(self, fields):
        psi, phi = fields
        ctx = self.ctx
        return {
            "P": dr.P_op(ctx, psi).values,
            "D": dr.dirac_D(ctx, psi).values,
            "laplacian": dr.laplacian(ctx, psi).values,
            "adjoint": dr.adjoint_residual(ctx, psi, phi),
            "weitzenbock_ca": dr.weitzenbock_residual(ctx, psi, form="ca"),
            "weitzenbock_clcl": dr.weitzenbock_residual(ctx, psi, form="clcl"),
        }

    def check(self, fields, out) -> list:
        return fields_problems(out)

    def sizes(self) -> dict:
        return _sizes(self.n, self.N, self.M, [])


def fields_problems(out: dict) -> list:
    """Residuals within the verify tolerances, operator outputs finite."""
    problems = []
    limits = {"adjoint": ADJOINT_TOL, "weitzenbock_ca": WEITZENBOCK_TOL,
              "weitzenbock_clcl": WEITZENBOCK_TOL}
    for key, tol in limits.items():
        if not out[key] < tol:
            problems.append(f"{key} residual {out[key]:.3e} >= {tol:g}")
    for key in ("P", "D", "laplacian"):
        if not np.isfinite(out[key]).all():
            problems.append(f"{key} output is not finite")
    return problems


def _sizes(n, N, M, dims) -> dict:
    grid = ge.torus_model(sl.standard_model(n), M).grid_size
    return {"n": n, "N": N, "F": fk.fock_basis(n, N).dim, "M": M,
            "grid": [grid] * (2 * n), "galerkin_dims": dims}


WORKLOADS = {cls.name: cls for cls in (Verify, Spectrum, Fields)}
