"""Tests for the check registry, run as a library without the command line."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sympdirac import checks
from sympdirac import cli
from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import mpc
from sympdirac import symplinalg as sl


def flat_setup(seed=5):
    model = sl.standard_model(1, hbar=0.7)
    torus = ge.torus_model(model, 2)
    return checks.RunSetup(model=model, basis=fk.fock_basis(1, 4),
                           torus=torus, conn=ge.flat_connection(torus),
                           seed=seed, quad_order=60,
                           tolerances={}, suites=checks.SUITES)


def test_run_checks_runs_one_suite_from_the_library():
    rows = checks.run_checks(flat_setup(), ("cz",))
    want = [c for c in checks.CHECKS if c.suite == "cz"]
    assert [r["name"] for r in rows] == [c.name for c in want]
    for row, check in zip(rows, want):
        assert row["suite"] == "cz"
        assert row["anchor"] == check.anchor
        assert row["tolerance"] == check.tolerance
        assert row["pass"] is True
        assert 0 <= row["max_residual"] < check.tolerance
        assert row["runtime_ms"] >= 0


def test_each_suite_draws_from_its_own_stream():
    def residuals(suites, seed=5):
        rows = checks.run_checks(flat_setup(seed), suites)
        return {r["name"]: r["max_residual"] for r in rows
                if r["suite"] == "cz"}

    alone = residuals(("cz",))
    assert residuals(("fock", "cz")) == alone
    assert residuals(("cz",), seed=6) != alone



@pytest.mark.parametrize("suite", ["cz", "mpc"])
def test_group_law_suites_validate_each_law_once_per_batch(suite, monkeypatch):
    # the trials of a check go through the law as one batch, so the number
    # of validated pairs does not grow with the trial count (15-40 a check)
    calls = []
    make = sl.make_cz_pair
    monkeypatch.setattr(sl, "make_cz_pair",
                        lambda *args: calls.append(1) or make(*args))
    rows = checks.run_checks(flat_setup(), (suite,))
    assert all(r["pass"] for r in rows)
    assert len(calls) <= 4 * len(rows)


def test_covariance_row_runs_at_the_setup_quad_order(monkeypatch):
    orders = []
    check = mpc.conjugation_check

    def spy(*args, **kwargs):
        orders.append(kwargs.get("quad_order"))
        return check(*args, **kwargs)

    monkeypatch.setattr(mpc, "conjugation_check", spy)
    setup = replace(flat_setup(), quad_order=47)
    rows = checks.run_checks(setup, ("kernels",))
    assert orders == [47, 47, 47]
    row = next(r for r in rows if r["name"] == "heisenberg-covariance")
    assert row["pass"] is True


def test_dirac_checks_build_one_context_per_connection(monkeypatch):
    # the default config's connection is unitary and torsionful, so every
    # dirac check runs on it or on the flat connection: two contexts in all
    setup = cli.build_setup(cli.default_config())
    made = []
    make = dr.make_context
    monkeypatch.setattr(dr, "make_context",
                        lambda conn, basis: made.append(conn)
                        or make(conn, basis))
    rows = checks.run_checks(setup, ("dirac",))
    assert len(rows) == 5 and all(r["pass"] for r in rows)
    assert len(made) == 2 and len({id(conn) for conn in made}) == 2
    assert setup.conn in made
    assert not any(conn.Gamma.any() for conn in made if conn is not setup.conn)


def test_first_order_adjoint_applies_D_prime_once_for_all_trials(
        monkeypatch):
    # the five trials are one batch, and the relative residual divides by
    # ||D' psi|| from the D' psi of the gap: one application of D' in all,
    # where single trials applied it twice each (ten)
    setup = cli.build_setup(cli.default_config())
    names = []
    first_order = dr._first_order
    monkeypatch.setattr(dr, "_first_order",
                        lambda ctx, cols, grads, *which: names.extend(which)
                        or first_order(ctx, cols, grads, *which))
    rng = np.random.default_rng(5)
    residuals = list(checks._check_first_order_adjoint(setup, rng))
    assert len(residuals) == 5 and max(residuals) < 1e-10
    assert names.count("Dp") == 1


def test_warm_verify_peak_memory():
    # the second run of the default verify report: 1.26 MiB with one field
    # per operator call, 1.30 MiB with the dirac trials as batches (the
    # contexts kept for the run), and 1.85 MiB had flat-plane-wave-eigenvalue
    # batched all of its plane waves at once instead of one fiber column at
    # a time; the bound is 0.1 MiB over the single-field peak
    config = cli.default_config()
    cli.run_verify(config)
    tracemalloc.start()
    try:
        cli.run_verify(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.36 * 2 ** 20
