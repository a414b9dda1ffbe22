"""Tests of the benchmark's own logic: span arithmetic and output checks.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sympdirac import cli  # noqa: E402
from sympdirac import dirac as dr  # noqa: E402
from sympdirac import fock as fk  # noqa: E402
from sympdirac import geometry as ge  # noqa: E402
from sympdirac import symplinalg as sl  # noqa: E402


def span(i, parent, label, start, end, attrs=None):
    return [i, parent, label, start, end, attrs]


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, None, "op:1", 0.0, 10.0),
        span(1, 0, "dirac.P_op", 1.0, 4.0),
        span(2, 1, "geometry.partial_derivative", 2.0, 3.0),
        span(3, 0, "geometry.spinor_cov_deriv", 5.0, 9.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        span(0, None, "op:1", 0.0, 10.0),
        span(1, 0, "fock.uj_apply", 1.0, 5.0),
        span(2, 0, "fock.uj_apply", 3.0, 7.0),
        span(3, 0, "fock.uj_apply", 9.0, 12.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_unit_metrics_sum_self_time_per_module():
    spans = [
        span(0, None, "op:1", 0.0, 10.0),
        span(1, 0, "dirac.laplacian", 1.0, 7.0),
        span(2, 1, "dirac.laplacian", 1.5, 2.5),
        span(3, 1, "geometry.partial_derivative", 3.0, 5.0),
        span(4, 0, "fock.uj_apply", 8.0, 9.0, {"centers": 40}),
        span(5, None, "op:2", 20.0, 21.0),
    ]
    units = tracing.unit_metrics(spans)
    op = units["op:1"]
    assert op["dirac.self_s"] == pytest.approx(3.0 + 1.0)
    assert op["dirac.calls"] == 2
    assert op["geometry.self_s"] == pytest.approx(2.0)
    assert op["geometry.partial_derivative.calls"] == 1
    # nested call to the same function is not counted twice
    assert op["dirac.laplacian.s"] == pytest.approx(6.0)
    assert op["fock.uj_apply.centers"] == 40
    assert units["op:2"]["dirac.calls"] == 0


def test_combine_adds_setup_to_median_op_and_first_op_counts():
    ops = [{"dirac.self_s": t, "dirac.calls": c}
           for t, c in ((1.0, 5), (3.0, 7), (2.0, 9))]
    setup = {"dirac.self_s": 0.5, "dirac.calls": 1}
    assert tracing.combine(setup, ops) == {"dirac.self_s": 2.5,
                                           "dirac.calls": 6}


def test_tracer_wraps_bindings_made_by_direct_import():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    original = fk.vec_to_complex
    tracer.install()
    try:
        assert fk.vec_to_complex is not original
        m = sl.standard_model(1)
        combo = fk.coherent_combo(np.ones(3), np.zeros((3, 2)))
        with tracer.unit("op:1"):
            fk.uj_apply(m, fk.heisenberg_element(np.ones(2), 0.1), combo)
    finally:
        tracer.uninstall()
    assert fk.vec_to_complex is original
    labels = {s[tracing.LABEL]: s for s in tracer.spans}
    inner = labels["symplinalg.vec_to_complex"]
    assert tracer.spans[inner[tracing.PARENT]][tracing.LABEL] == "fock.uj_apply"
    assert labels["fock.uj_apply"][tracing.ATTRS] == {"centers": 3}


# ---------------------------------------------------------------------------
# host-speed rescaling


def test_rescaling_keeps_times_at_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.Kernel.at_reference_speed(2.0, ref, ref) == \
        pytest.approx(2.0)


def test_rescaling_takes_out_a_slower_host():
    ref = hostspeed.REFERENCE_S
    # host at half speed: kernel and op both take twice as long
    assert hostspeed.Kernel.at_reference_speed(4.0, 2 * ref, 2 * ref) == \
        pytest.approx(2.0)
    # the mean of the samples on either side of the op
    assert hostspeed.Kernel.at_reference_speed(3.0, ref, 2 * ref) == \
        pytest.approx(2.0)


# ---------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def small_spectrum():
    m = sl.standard_model(1, hbar=0.7)
    torus = ge.torus_model(m, 1)
    basis = fk.fock_basis(1, 3)
    conn = ge.random_connection(torus, np.random.default_rng(5), cutoff=1)
    ctx = dr.make_context(conn, basis)
    eig = dr.spectrum(ctx, 1)
    return eig, workloads.plane_wave_trace(ctx, 1)


def test_spectrum_check_accepts_the_library_spectrum(small_spectrum):
    eig, trace = small_spectrum
    assert workloads.spectrum_problems(eig, 9, trace) == []


def test_spectrum_check_rejects_a_missing_eigenvalue(small_spectrum):
    eig, trace = small_spectrum
    problems = workloads.spectrum_problems(eig[1:], 9, trace)
    assert any("8 eigenvalues" in p for p in problems)


def test_spectrum_check_rejects_a_shifted_eigenvalue(small_spectrum):
    eig, trace = small_spectrum
    moved = eig.copy()
    moved[3] += 1e-6
    assert any("trace" in p
               for p in workloads.spectrum_problems(moved, 9, trace))


def test_spectrum_check_rejects_non_finite(small_spectrum):
    eig, trace = small_spectrum
    bad = eig.copy()
    bad[0] = np.nan
    assert workloads.spectrum_problems(bad, 9, trace) != []


def fields_output(**override):
    out = {"P": np.zeros(4), "D": np.zeros(4), "laplacian": np.zeros(4),
           "adjoint": 1e-14, "weitzenbock_ca": 1e-15,
           "weitzenbock_clcl": 1e-15}
    out.update(override)
    return out


def test_fields_check_accepts_small_residuals():
    assert workloads.fields_problems(fields_output()) == []


@pytest.mark.parametrize("override", [
    {"adjoint": 2e-10},
    {"weitzenbock_ca": 1e-7},
    {"weitzenbock_clcl": float("nan")},
    {"P": np.array([0.0, np.inf])},
])
def test_fields_check_rejects_perturbed_outputs(override):
    assert workloads.fields_problems(fields_output(**override)) != []


def test_verify_check_rejects_failing_report():
    check = workloads.Verify(0).check
    good = {"checks": [{"name": "a", "pass": True}], "all_pass": True}
    bad = {"checks": [{"name": "a", "pass": False}], "all_pass": False}
    assert check(None, (good, 0)) == []
    assert check(None, (bad, 1)) != []
    assert check(None, (good, 1)) != []


def test_verify_runs_the_shipped_config_for_every_seed():
    verify = workloads.Verify(7)
    verify.setup()
    assert verify.make_input(3) == cli.default_config()


@pytest.mark.xfail(strict=True, reason="library defect: the finite"
                   " difference of lie-derivative-consistency exceeds its"
                   " absolute tolerance 1e-6 on some config seeds")
def test_kernels_suite_passes_on_config_seed_0():
    config = cli.default_config()
    config["seed"] = 0
    report, code = cli.run_verify(config, suites=["kernels"])
    assert code == 0, [c["name"] for c in report["checks"] if not c["pass"]]
