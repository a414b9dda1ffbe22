"""Tests for the flat-torus calculus: spectral fields, connections, curvature."""

from itertools import product

import numpy as np
import pytest

from sympdirac import dirac as dr
from sympdirac import fock as fk
from sympdirac import geometry as ge
from sympdirac import mpc
from sympdirac import symplinalg as sl

RNG_SEED = 20260814


def small_torus(n=1, hbar=0.7, cutoff=4, grid=None):
    m = sl.standard_model(n, hbar=hbar)
    return ge.torus_model(m, cutoff, grid)


# ---------------------------------------------------------------------------
# grids, spectral derivatives, band-limited fields


def test_torus_model_validation():
    m = sl.standard_model(1, hbar=0.5)
    t = ge.torus_model(m, 4)
    assert t.grid_size == 13 and t.nyquist == 6
    t = ge.torus_model(m, 3)  # 3*3+1 = 10 is even, bumped to 11
    assert t.grid_size == 11
    with pytest.raises(ValueError):
        ge.torus_model(m, 4, grid_size=11)
    with pytest.raises(ValueError):
        ge.torus_model(m, 4, grid_size=14)
    with pytest.raises(ValueError):
        ge.torus_model(m, 0)


def test_spectral_derivative_exact_on_trig():
    t = small_torus()
    x = ge.grid_points(t)
    f = np.sin(2 * x[..., 0]) * np.cos(3 * x[..., 1])
    d0 = ge.partial_derivative(t, f, 0)
    d1 = ge.partial_derivative(t, f, 1)
    assert np.abs(d0 - 2 * np.cos(2 * x[..., 0]) * np.cos(3 * x[..., 1])).max() < 1e-13
    assert np.abs(d1 + 3 * np.sin(2 * x[..., 0]) * np.sin(3 * x[..., 1])).max() < 1e-13


def _fft_derivative(grid_size, field, axis):
    k = np.fft.fftfreq(grid_size, 1.0 / grid_size)
    shape = [1] * field.ndim
    shape[axis] = grid_size
    spec = np.fft.fft(field, axis=axis) * (1j * k.reshape(shape))
    return np.fft.ifft(spec, axis=axis)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("grid", [7, 11, 13, 25])
def test_partial_derivative_matches_fft_formula(n, grid):
    # the differentiation matrix is the FFT pair's linear map, on real
    # fields and on complex fields with trailing component axes
    t = small_torus(n=n, cutoff=2, grid=grid)
    rng = np.random.default_rng(RNG_SEED + grid)
    real = rng.normal(size=t.grid_shape)
    cplx = rng.normal(size=t.grid_shape + (2, 2)) \
        + 1j * rng.normal(size=t.grid_shape + (2, 2))
    for field in (real, cplx):
        for axis in range(t.dim):
            got = ge.partial_derivative(t, field, axis)
            want = _fft_derivative(grid, field, axis)
            assert got.dtype == complex and got.shape == field.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2])
def test_partial_derivative_batch_equals_single_fields(n):
    # leading batch axes ahead of the grid, trailing component axes behind
    # it: each member is differentiated as its single field, bit for bit
    t = small_torus(n=n, cutoff=2)
    rng = np.random.default_rng(RNG_SEED + 7)
    batch = rng.normal(size=(2, 3) + t.grid_shape + (4,)) \
        + 1j * rng.normal(size=(2, 3) + t.grid_shape + (4,))
    for axis in range(t.dim):
        got = ge.partial_derivative(t, batch, axis, batch=2)
        assert got.shape == batch.shape
        for i, j in product(range(2), range(3)):
            assert np.array_equal(got[i, j], ge.partial_derivative(
                t, batch[i, j], axis))
    empty = ge.partial_derivative(t, batch[:0], 1, batch=2)
    assert empty.shape == (0, 3) + t.grid_shape + (4,)


BAD_DIRECTIONS = (2, -1, 1.0)


def test_partial_derivative_refuses_an_axis_outside_the_base():
    # at n = 1, axis 2 used to fail in a reshape and -1 to differentiate a
    # fiber axis or fail likewise
    t = small_torus(cutoff=2)
    f = np.ones(t.grid_shape + (2,))
    for axis in BAD_DIRECTIONS:
        with pytest.raises(ValueError, match="base axes 0 .. 1"):
            ge.partial_derivative(t, f, axis)


def _direction_setup():
    t = small_torus(cutoff=2)
    B = fk.fock_basis(1, 3)
    rng = np.random.default_rng(RNG_SEED + 5)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    return conn, B, ge.random_spinor_field(t, B, rng, cutoff=1)


def test_cov_derivs_refuses_a_direction_outside_the_base():
    conn, B, psi = _direction_setup()
    action = ge.fiber_action(conn, B)
    for b in BAD_DIRECTIONS:
        with pytest.raises(ValueError, match="base axes 0 .. 1"):
            ge.cov_derivs(conn.torus, action, psi.values, (0, b),
                          slice(0, B.dim))


def test_cov_deriv_values_refuses_a_direction_outside_the_base():
    # b = 2 used to raise a bare IndexError, b = -1 a reshape error
    conn, B, psi = _direction_setup()
    action = ge.fiber_action(conn, B)
    for b in BAD_DIRECTIONS:
        with pytest.raises(ValueError, match="base axes 0 .. 1"):
            ge.cov_deriv_values(conn.torus, action, psi.values, b)


def test_spinor_cov_deriv_refuses_a_direction_outside_the_base():
    conn, _, psi = _direction_setup()
    for b in BAD_DIRECTIONS:
        with pytest.raises(ValueError, match="base axes 0 .. 1"):
            ge.spinor_cov_deriv(conn, psi, b)


def test_spinor_curvature_refuses_a_direction_outside_the_base():
    conn, _, psi = _direction_setup()
    for b in BAD_DIRECTIONS:
        for pair in ((0, b), (b, 1)):
            with pytest.raises(ValueError, match="base axes 0 .. 1"):
                ge.spinor_curvature(conn, psi, *pair)


def test_spectral_derivative_product_rule_within_budget():
    # cutoff-2 times cutoff-3 products stay below the Nyquist index 6
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    f = ge.random_scalar_field(t, rng, cutoff=2)
    g = ge.random_scalar_field(t, rng, cutoff=3)
    lhs = ge.partial_derivative(t, f * g, 0)
    rhs = ge.partial_derivative(t, f, 0) * g + f * ge.partial_derivative(t, g, 0)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_grid_mean_integrates_trig_exactly():
    t = small_torus()
    assert abs(ge.trig_field(t, [1, 2], "cos").mean()) < 1e-15
    assert abs(ge.trig_field(t, [5, -3], "sin").mean()) < 1e-14
    assert ge.trig_field(t, [0, 0], "cos").mean() == pytest.approx(1.0)


def test_random_scalar_field_band_and_reality():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    f = ge.random_scalar_field(t, rng, cutoff=2)
    assert not np.iscomplexobj(f)
    assert ge.band_mass_outside(t, f, 2) < 1e-12
    assert ge.band_mass_outside(t, f, 1) > 1e-3
    h = ge.random_scalar_field(t, rng, cutoff=2, imaginary=True)
    assert np.abs(h.real).max() < 1e-15
    with pytest.raises(ValueError):
        ge.random_scalar_field(t, rng, cutoff=t.nyquist + 1)


def test_random_fields_refuse_a_negative_cutoff():
    # an empty band used to give an all-zero "random" field
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        ge.random_scalar_field(t, rng, cutoff=-1)
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        ge.random_spinor_field(t, fk.fock_basis(1, 2), rng, cutoff=-1)
    assert np.ptp(ge.random_scalar_field(t, rng, cutoff=0)) == 0.0


@pytest.mark.parametrize("n, cutoff, grid", [(1, 4, None), (1, 4, 25),
                                             (2, 2, None)])
def test_random_scalar_field_batch_equals_single_calls(n, cutoff, grid):
    t = small_torus(n=n, cutoff=cutoff, grid=grid)
    one, many = (np.random.default_rng(RNG_SEED) for _ in range(2))
    singles = np.array([[ge.random_scalar_field(t, one, cutoff=1, scale=0.4)
                         for _ in range(2)] for _ in range(3)])
    batch = ge.random_scalar_field(t, many, cutoff=1, scale=0.4, shape=(3, 2))
    assert batch.shape == (3, 2) + t.grid_shape
    assert batch.tobytes() == singles.tobytes()
    assert one.bit_generator.state == many.bit_generator.state


@pytest.mark.parametrize("n, max_degree", [(1, None), (1, 2), (2, 2)])
def test_random_spinor_field_batch_equals_single_calls(n, max_degree):
    t = small_torus(n=n, cutoff=2 if n == 1 else 1)
    B = fk.fock_basis(n, 4)
    one, many = (np.random.default_rng(RNG_SEED) for _ in range(2))
    singles = np.array([[ge.random_spinor_field(
        t, B, one, cutoff=1, max_degree=max_degree).values for _ in range(2)]
        for _ in range(3)])
    batch = ge.random_spinor_field(t, B, many, cutoff=1,
                                   max_degree=max_degree, shape=(3, 2))
    assert batch.values.shape == (3, 2) + t.grid_shape + (B.dim,)
    assert batch.values.tobytes() == singles.tobytes()
    assert one.bit_generator.state == many.bit_generator.state


def test_mode_coefficients_roundtrip():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED + 1)
    f = ge.random_vector_field(t, rng, cutoff=2)
    spec = ge.mode_coefficients(t, f)
    back = np.fft.ifftn(spec * t.grid_size**t.dim, axes=(0, 1))
    assert np.abs(back - f).max() < 1e-12


# ---------------------------------------------------------------------------
# connections


def test_make_connection_validation_and_unitary_flag():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    d = t.dim
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    assert conn.unitary
    conn2 = ge.random_connection(t, rng, cutoff=1, unitary=False)
    assert not conn2.unitary
    assert ge.flat_connection(t).unitary
    bad = np.zeros((d,) + t.grid_shape + (d, d))
    bad[0, ..., 0, 0] = 1.0  # not in sp(2, R)
    with pytest.raises(ValueError):
        ge.make_connection(t, bad, np.zeros((d,) + t.grid_shape))
    with pytest.raises(ValueError):
        ge.make_connection(t, np.zeros((d,) + t.grid_shape + (d, d)),
                           np.full((d,) + t.grid_shape, 0.3))
    with pytest.raises(ValueError):
        ge.make_connection(t, np.zeros((3,) + t.grid_shape + (d, d)),
                           np.zeros((d,) + t.grid_shape))


def test_connection_from_modes_matches_manual():
    t = small_torus()
    m = t.model
    gmodes = [(0, [1, 0], "cos", 0.3 * m.j), (1, [0, 2], "sin", -0.2 * m.j)]
    amodes = [(1, [1, 0], "sin", 0.4j)]
    conn = ge.connection_from_modes(t, gmodes, amodes)
    x = ge.grid_points(t)
    assert np.abs(conn.Gamma[0] - 0.3 * np.cos(x[..., 0])[..., None, None] * m.j).max() < 1e-14
    assert np.abs(conn.a[1] - 0.4j * np.sin(x[..., 0])).max() < 1e-14
    assert conn.unitary
    with pytest.raises(ValueError):
        ge.connection_from_modes(t, [(0, [1, 0], "cos", np.eye(2))], [])
    with pytest.raises(ValueError):
        ge.connection_from_modes(t, [], [(0, [1, 0], "cos", 0.5)])


def test_non_finite_connections_and_models_are_refused():
    # NaN compares False with every tolerance, so each check must fail on it
    nan = float("nan")
    for hbar in (nan, float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            sl.standard_model(1, hbar=hbar)
    t = small_torus()
    d = t.dim
    zeros = np.zeros((d,) + t.grid_shape + (d, d))
    Gamma = zeros.copy()
    Gamma[0, ..., 0, 1] = nan
    with pytest.raises(ValueError, match="symplectic form"):
        ge.make_connection(t, Gamma, np.zeros((d,) + t.grid_shape))
    for value in (nan, 1j * nan, complex(0.0, nan)):
        a = np.zeros((d,) + t.grid_shape, dtype=complex)
        a[1, 0, 0] = value
        with pytest.raises(ValueError, match="purely imaginary"):
            ge.make_connection(t, zeros, a)
        with pytest.raises(ValueError, match="purely imaginary"):
            ge.connection_from_modes(t, [], [(0, [1, 0], "cos", value)])
    matrix = 0.3 * t.model.j
    matrix[1, 0] = nan
    with pytest.raises(ValueError, match="sp\\(2n, R\\)"):
        ge.connection_from_modes(t, [(0, [1, 0], "cos", matrix)], [])


def test_vector_cov_deriv_flat_is_partial():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    X = ge.random_vector_field(t, rng, cutoff=2)
    flat = ge.flat_connection(t)
    for b in range(t.dim):
        assert np.abs(ge.vector_cov_deriv(flat, X, b)
                      - ge.partial_derivative(t, X, b)).max() < 1e-13


def test_symplectic_form_is_parallel():
    # d_b w(X, Y) = w(nabla_b X, Y) + w(X, nabla_b Y) for sp-valued Gamma
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED + 2)
    for unitary in (True, False):
        conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
        X = ge.random_vector_field(t, rng, cutoff=2)
        Y = ge.random_vector_field(t, rng, cutoff=2)
        for b in range(t.dim):
            lhs = ge.partial_derivative(t, ge.omega_pairing(t, X, Y), b)
            rhs = ge.omega_pairing(t, ge.vector_cov_deriv(conn, X, b), Y) \
                + ge.omega_pairing(t, X, ge.vector_cov_deriv(conn, Y, b))
            assert np.abs(lhs - rhs).max() < 1e-11


# ---------------------------------------------------------------------------
# frames, torsion, tau, divergence


def test_dual_frame_standard_and_random():
    t = small_torus()
    frame = np.eye(2)
    dual = ge.dual_frame(t, frame)
    # e^1 = d_2 and e^2 = -d_1 in the standard coordinates
    assert np.abs(dual[:, 0] - np.array([0.0, 1.0])).max() < 1e-14
    assert np.abs(dual[:, 1] - np.array([-1.0, 0.0])).max() < 1e-14
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        E = sl.random_sp(t.model, rng)
        D = ge.dual_frame(t, E)
        assert np.abs(E.T @ t.model.Omega @ D - np.eye(2)).max() < 1e-12
    with pytest.raises(ValueError):
        ge.dual_frame(t, np.zeros((2, 2)))


def test_dual_frame_position_dependent():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED + 3)
    g = ge.random_scalar_field(t, rng, cutoff=1, scale=0.4)
    h = ge.random_scalar_field(t, rng, cutoff=1, scale=0.4)
    # product of two shears: unit determinant at every point
    frame = np.zeros(t.grid_shape + (2, 2))
    frame[..., 0, 0] = 1.0 + g * h
    frame[..., 0, 1] = g
    frame[..., 1, 0] = h
    frame[..., 1, 1] = 1.0
    dual = ge.dual_frame(t, frame)
    pair = np.swapaxes(frame, -1, -2) @ t.model.Omega @ dual
    assert np.abs(pair - np.eye(2)).max() < 1e-12


def test_torsion_zero_for_flat_and_single_mode_pin():
    t = small_torus()
    flat = ge.flat_connection(t)
    assert np.abs(ge.torsion_tensor(flat)).max() == 0.0
    # Gamma_1 = gamma(x) j, Gamma_2 = 0: the defining formula gives
    # T(d_1, d_2) = gamma * (j e_2) = -gamma e_1
    m = t.model
    conn = ge.connection_from_modes(t, [(0, [1, 0], "cos", m.j)], [])
    x = ge.grid_points(t)
    gamma = np.cos(x[..., 0])
    T = ge.torsion_tensor(conn)
    expected = gamma[..., None] * (m.j @ np.array([0.0, 1.0]))
    assert np.abs(T[0, 1] - expected).max() < 1e-13
    assert np.abs(T[1, 0] + expected).max() < 1e-13


def test_torsion_apply_matches_tensor_and_kills_diagonal():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    T = ge.torsion_tensor(conn)
    E = np.zeros(t.grid_shape + (2, 2))
    E[..., :, :] = np.eye(2)
    for a in range(2):
        for b in range(2):
            got = ge.torsion_apply(conn, E[..., :, a], E[..., :, b])
            assert np.abs(got - T[a, b]).max() < 1e-12
    X = ge.random_vector_field(t, rng, cutoff=2)
    assert np.abs(ge.torsion_apply(conn, X, X)).max() < 1e-11


def test_torsion_is_tensorial_with_bracket_term():
    # T(fX, Y) = f T(X, Y) needs the bracket correction in the general form
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED + 4)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    X = ge.random_vector_field(t, rng, cutoff=1)
    Y = ge.random_vector_field(t, rng, cutoff=1)
    f = ge.random_scalar_field(t, rng, cutoff=1)
    lhs = ge.torsion_apply(conn, f[..., None] * X, Y)
    rhs = f[..., None] * ge.torsion_apply(conn, X, Y)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_tau_trace_identity_and_frame_independence():
    rng = np.random.default_rng(RNG_SEED)
    for n, cutoff in ((1, 4), (2, 2)):
        t = small_torus(n=n, cutoff=cutoff)
        d = t.dim
        conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
        tau = ge.tau_field(conn)
        E = np.zeros(t.grid_shape + (d, d))
        E[..., :, :] = np.eye(d)
        Z = ge.random_vector_field(t, rng, cutoff=1)
        # trace oracle: sum of the e_a-components of T(e_a, Z)
        trace = np.zeros(t.grid_shape, dtype=complex)
        for a in range(d):
            trace += ge.torsion_apply(conn, E[..., :, a], Z)[..., a]
        assert np.abs(ge.omega_pairing(t, tau, Z) - trace).max() < 1e-11
        # frame independence: recompute tau through a rotated constant frame
        R = sl.expm(sl.random_u_algebra(t.model, rng))
        frame = np.broadcast_to(R, t.grid_shape + (d, d))
        dual = ge.dual_frame(t, frame)
        tau2 = np.zeros(t.grid_shape + (d,), dtype=complex)
        for k in range(d):
            tau2 += 0.5 * ge.torsion_apply(conn, frame[..., :, k], dual[..., :, k])
        assert np.abs(tau2 - tau).max() < 1e-11


def test_tau_vanishes_without_torsion():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.torsion_removal(ge.random_connection(t, rng, cutoff=1, unitary=True))
    assert np.abs(ge.tau_field(conn)).max() < 1e-13


def test_divergence_pin_and_connection_term():
    t = small_torus()
    x = ge.grid_points(t)
    X = np.zeros(t.grid_shape + (2,))
    X[..., 0] = np.sin(x[..., 0])
    flat = ge.flat_connection(t)
    assert np.abs(ge.divergence(flat, X) - np.cos(x[..., 0])).max() < 1e-13
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    got = ge.divergence(conn, X)
    # same contraction written out longhand as an independent check
    manual = np.cos(x[..., 0]).astype(complex)
    for b in range(2):
        manual += np.einsum("...c,...c->...", conn.Gamma[b][..., b, :], X)
    assert np.abs(got - manual).max() < 1e-12


def test_volume_derivative_identity():
    rng = np.random.default_rng(RNG_SEED + 5)
    for n, cutoff in ((1, 4), (2, 2)):
        t = small_torus(n=n, cutoff=cutoff)
        for unitary in (True, False):
            conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
            X = ge.random_vector_field(t, rng, cutoff=1)
            assert ge.lie_lemma_residual(conn, X) < 1e-10


# ---------------------------------------------------------------------------
# torsion removal


def test_torsion_removal_properties():
    rng = np.random.default_rng(RNG_SEED)
    for n, cutoff in ((1, 4), (2, 2)):
        t = small_torus(n=n, cutoff=cutoff)
        m = t.model
        conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
        assert np.abs(ge.tau_field(conn)).max() > 1e-3  # generic torsion
        rem = ge.torsion_removal(conn)
        assert np.abs(ge.tau_field(rem)).max() < 1e-12
        # still preserves omega and J pointwise
        sp_res = np.abs(np.swapaxes(rem.Gamma, -1, -2) @ m.Omega
                        + m.Omega @ rem.Gamma).max()
        assert sp_res < 1e-12
        assert np.abs(rem.Gamma @ m.j - m.j @ rem.Gamma).max() < 1e-12
        assert rem.unitary
        assert np.abs(rem.a - conn.a).max() == 0.0
        # idempotent
        rem2 = ge.torsion_removal(rem)
        assert np.abs(rem2.Gamma - rem.Gamma).max() < 1e-13
        # linear in Gamma, so band limits are preserved
        for b in range(t.dim):
            assert ge.band_mass_outside(t, rem.Gamma[b], 1) < 1e-11


def test_torsion_removal_rejects_non_unitary():
    t = small_torus()
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=False)
    with pytest.raises(ValueError):
        ge.torsion_removal(conn)


# ---------------------------------------------------------------------------
# curvature of the central line


def test_central_curvature_pin():
    t = small_torus()
    x = ge.grid_points(t)
    d = t.dim
    a = np.zeros((d,) + t.grid_shape, dtype=complex)
    a[1] = 1j * np.sin(x[..., 0])
    conn = ge.make_connection(t, np.zeros((d,) + t.grid_shape + (d, d)), a)
    F = ge.central_curvature(conn)
    assert np.abs(F[0, 1] - np.cos(x[..., 0])).max() < 1e-13
    assert np.abs(F[1, 0] + np.cos(x[..., 0])).max() < 1e-13
    Feta = ge.eta_curvature(conn)
    assert np.abs(Feta[0, 1] - 2j * np.cos(x[..., 0])).max() < 1e-12


def test_central_curvature_includes_trace_of_gamma():
    # Gamma_2 = g(x) j contributes i g(x)/2 to the potential at n = 1
    t = small_torus()
    m = t.model
    conn = ge.connection_from_modes(t, [(1, [1, 0], "cos", m.j)], [])
    x = ge.grid_points(t)
    alpha = ge.central_potential(conn)
    assert np.abs(alpha[1] - 0.5j * np.cos(x[..., 0])).max() < 1e-13
    F = ge.central_curvature(conn)
    assert np.abs(F[0, 1] + 0.5 * np.sin(x[..., 0])).max() < 1e-13


def test_eta_curvature_doubles_central():
    rng = np.random.default_rng(RNG_SEED + 6)
    for n, cutoff in ((1, 4), (2, 2)):
        t = small_torus(n=n, cutoff=cutoff)
        for unitary in (True, False):
            conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
            F = ge.central_curvature(conn)
            Feta = ge.eta_curvature(conn)
            assert np.abs(Feta - 2j * F).max() < 1e-12
            assert np.abs(F + np.swapaxes(F, 0, 1)).max() < 1e-12


def test_central_curvature_flat_is_zero():
    t = small_torus()
    assert np.abs(ge.central_curvature(ge.flat_connection(t))).max() == 0.0


def test_curvatures_differentiate_each_unordered_pair_once(monkeypatch):
    # reference: every ordered pair (a, b), the diagonal included
    def ref_central(conn):
        t, alpha0 = conn.torus, ge.central_potential(conn)
        F = np.zeros((t.dim, t.dim) + t.grid_shape, dtype=complex)
        for aa in range(t.dim):
            for bb in range(t.dim):
                F[aa, bb] = ge.partial_derivative(t, alpha0[bb], aa) \
                    - ge.partial_derivative(t, alpha0[aa], bb)
        return (-1j * F).real

    def ref_eta(conn):
        t = conn.torus
        c = 2.0 * np.array(conn.a, dtype=complex)
        c += 2.0 * (ge.central_potential(conn) - conn.a)
        ones = np.ones(t.grid_shape, dtype=complex)

        def cov(b, s):
            return ge.partial_derivative(t, s, b) + c[b] * s

        F = np.zeros((t.dim, t.dim) + t.grid_shape, dtype=complex)
        for aa in range(t.dim):
            for bb in range(t.dim):
                F[aa, bb] = cov(aa, cov(bb, ones)) - cov(bb, cov(aa, ones))
        return F

    calls = []
    original = ge.partial_derivative

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    rng = np.random.default_rng(RNG_SEED + 7)
    for n, cutoff, want in ((1, 4, (2, 4)), (2, 2, (12, 16))):
        t = small_torus(n=n, cutoff=cutoff)
        for unitary in (True, False):
            conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
            ref = (ref_central(conn), ref_eta(conn))
            monkeypatch.setattr(ge, "partial_derivative", counted)
            got = []
            for fn, count in zip((ge.central_curvature, ge.eta_curvature),
                                 want):
                calls.clear()
                got.append(fn(conn))
                assert len(calls) == count
            monkeypatch.setattr(ge, "partial_derivative", original)
            assert np.array_equal(got[0], ref[0])
            assert np.array_equal(got[1], ref[1])


# ---------------------------------------------------------------------------
# spinor fields and their covariant calculus


def clifford_stacks(conn, B):
    """make_context's creation (c), annihilation (a) and Clifford (cl)
    stacks on the coordinate vectors, each (2n, F, F)."""
    fiber = dr.make_context(conn, B).fiber
    return {"c": fiber["Dp"], "a": -fiber["Ds"], "cl": fiber["D"]}


def pointwise(psi, X, stack):
    """sum_b X^b stack[b] psi for a constant vector or vector field X."""
    vals = np.einsum("...b,bFG,...G->...F", X, stack, psi.values)
    return ge.spinor_field(psi.torus, psi.basis, vals)


def test_spinor_field_validation_and_constant():
    t = small_torus()
    B = fk.fock_basis(1, 4)
    with pytest.raises(ValueError):
        ge.spinor_field(t, B, np.zeros((3, 3, B.dim)))
    psi = ge.spinor_field(t, B, np.broadcast_to(np.arange(B.dim),
                                                t.grid_shape + (B.dim,)))
    assert psi.values.shape == t.grid_shape + (B.dim,)
    assert np.abs(psi.values[0, 0] - np.arange(B.dim)).max() == 0.0


def test_random_spinor_degree_restriction():
    t = small_torus()
    B = fk.fock_basis(1, 5)
    rng = np.random.default_rng(RNG_SEED)
    psi = ge.random_spinor_field(t, B, rng, cutoff=2, max_degree=3)
    assert np.abs(psi.values[..., B.degrees > 3]).max() == 0.0
    assert np.abs(psi.values[..., B.degrees <= 3]).max() > 0.0


def test_spinor_cov_deriv_flat_and_central():
    t = small_torus()
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED)
    psi = ge.random_spinor_field(t, B, rng, cutoff=2)
    flat = ge.flat_connection(t)
    for b in range(2):
        got = ge.spinor_cov_deriv(flat, psi, b)
        assert np.abs(got.values - ge.partial_derivative(t, psi.values, b)).max() < 1e-13
    # purely central connection: nabla_b = d_b + a_b
    d = t.dim
    a = np.zeros((d,) + t.grid_shape, dtype=complex)
    x = ge.grid_points(t)
    a[0] = 0.3j * np.cos(x[..., 1])
    conn = ge.make_connection(t, np.zeros((d,) + t.grid_shape + (d, d)), a)
    got = ge.spinor_cov_deriv(conn, psi, 0)
    want = ge.partial_derivative(t, psi.values, 0) + a[0][..., None] * psi.values
    assert np.abs(got.values - want).max() < 1e-13


def test_spinor_derivatives_reject_misshapen_values():
    # a SpinorField built directly skips spinor_field's shape check; a
    # leading batch axis used to go through unchecked and return a wrong
    # answer (relative errors between 2 and 7 against three single calls at
    # n = 1, M = 3, N = 4, depending on the draw).  A batch is now taken and
    # equals the single calls bit for bit; a wrong trailing shape is refused
    t = small_torus(cutoff=3)
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED + 3)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    single = [ge.random_spinor_field(t, B, rng, cutoff=1) for _ in range(3)]
    batched = ge.SpinorField(torus=t, basis=B,
                             values=np.stack([p.values for p in single]))
    for i, psi in enumerate(single):
        assert np.array_equal(ge.spinor_cov_deriv(conn, batched, 0).values[i],
                              ge.spinor_cov_deriv(conn, psi, 0).values)
        assert np.array_equal(
            ge.spinor_curvature(conn, batched, 0, 1).values[i],
            ge.spinor_curvature(conn, psi, 0, 1).values)
    short = ge.SpinorField(torus=t, basis=B,
                           values=batched.values[..., :B.dim - 1])
    for psi in (short, ge.SpinorField(torus=t, basis=B,
                                      values=single[0].values[:, :-1])):
        with pytest.raises(ValueError, match=r"grid \+ \(F,\)"):
            ge.spinor_cov_deriv(conn, psi, 0)
        with pytest.raises(ValueError, match=r"grid \+ \(F,\)"):
            ge.spinor_curvature(conn, psi, 0, 1)
    elsewhere = ge.random_spinor_field(small_torus(cutoff=2), B, rng, cutoff=1)
    with pytest.raises(ValueError, match="another torus"):
        ge.spinor_cov_deriv(conn, elsewhere, 0)
    assert ge.spinor_curvature(conn, single[0], 0, 1).values.shape == \
        single[0].values.shape


def test_degree_preservation_iff_unitary():
    t = small_torus()
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED)
    off_degree = np.not_equal.outer(B.degrees, B.degrees)
    mats_u = ge.lie_matrix_field(ge.random_connection(t, rng, cutoff=1, unitary=True), B)
    assert np.abs(mats_u[..., off_degree]).max() == 0.0
    mats_g = ge.lie_matrix_field(ge.random_connection(t, rng, cutoff=1, unitary=False), B)
    assert np.abs(mats_g[..., off_degree]).max() > 1e-3


def test_lie_matrix_field_is_the_pointwise_fiber_action():
    # at each grid point the field holds mpc's action of (a_b(x), Gamma_b(x))
    rng = np.random.default_rng(RNG_SEED + 11)
    for n, unitary in ((1, True), (1, False), (2, True), (2, False)):
        t = small_torus(n=n, cutoff=1)
        m = t.model
        B = fk.fock_basis(n, 4)
        conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
        assert conn.unitary == unitary
        mats = ge.lie_matrix_field(conn, B)
        for _ in range(5):
            b = int(rng.integers(t.dim))
            idx = tuple(int(i) for i in rng.integers(t.grid_size, size=t.dim))
            x = mpc.mpc_lie_element(m, conn.a[b][idx], conn.Gamma[b][idx])
            want = mpc.lie_action(m, B, x.mu, x.xi)
            assert np.abs(mats[b][idx] - want).max() < 1e-13


def test_fiber_action_is_skew_adjoint_pointwise():
    # d_b h(psi, psi') = h(nabla_b psi, psi') + h(psi, nabla_b psi')
    t = small_torus()
    B = fk.fock_basis(1, 4)
    m = t.model
    rng = np.random.default_rng(RNG_SEED + 7)
    w = fk.norm_weights(m, B)
    psi = ge.random_spinor_field(t, B, rng, cutoff=1)
    phi = ge.random_spinor_field(t, B, rng, cutoff=1)
    for unitary in (True, False):
        conn = ge.random_connection(t, rng, cutoff=1, unitary=unitary)
        for b in range(2):
            h = np.einsum("...F,F,...F->...", psi.values, w, phi.values.conj())
            lhs = ge.partial_derivative(t, h, b)
            dpsi = ge.spinor_cov_deriv(conn, psi, b).values
            dphi = ge.spinor_cov_deriv(conn, phi, b).values
            rhs = np.einsum("...F,F,...F->...", dpsi, w, phi.values.conj()) \
                + np.einsum("...F,F,...F->...", psi.values, w, dphi.conj())
            assert np.abs(lhs - rhs).max() < 1e-11


def test_clifford_parallelism_unitary():
    # nabla_b(Op(e) psi) = Op(Gamma_b e) psi + Op(e) nabla_b psi, all degrees
    t = small_torus()
    B = fk.fock_basis(1, 5)
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    stacks = clifford_stacks(conn, B)
    psi = ge.random_spinor_field(t, B, rng, cutoff=2)
    for kind in ("a", "c", "cl"):
        base = stacks[kind]
        for b in range(2):
            for ei in range(2):
                e = np.zeros(2)
                e[ei] = 1.0
                lhs = ge.spinor_cov_deriv(conn, pointwise(psi, e, base),
                                          b).values
                Ge = np.einsum("...ij,j->...i", conn.Gamma[b], e)
                rhs = pointwise(psi, Ge, base).values + pointwise(
                    ge.spinor_cov_deriv(conn, psi, b), e, base).values
                assert np.abs(lhs - rhs).max() < 1e-11


def test_clifford_parallelism_general_masked():
    # non-unitary connections satisfy the same identity away from the
    # degrees the truncation touches
    t = small_torus()
    N = 6
    B = fk.fock_basis(1, N)
    rng = np.random.default_rng(RNG_SEED + 8)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=False)
    keep = B.degrees <= N - 3
    psi = ge.random_spinor_field(t, B, rng, cutoff=2, max_degree=N - 3)
    base = clifford_stacks(conn, B)["cl"]
    for b in range(2):
        e = np.zeros(2)
        e[b] = 1.0
        lhs = ge.spinor_cov_deriv(conn, pointwise(psi, e, base), b).values
        Ge = np.einsum("...ij,j->...i", conn.Gamma[b], e)
        rhs = pointwise(psi, Ge, base).values + pointwise(
            ge.spinor_cov_deriv(conn, psi, b), e, base).values
        assert np.abs((lhs - rhs)[..., keep]).max() < 1e-11


# ---------------------------------------------------------------------------
# spinor curvature


def test_spinor_curvature_flat_and_antisymmetric():
    t = small_torus()
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED)
    psi = ge.random_spinor_field(t, B, rng, cutoff=2)
    flat = ge.flat_connection(t)
    assert np.abs(ge.spinor_curvature(flat, psi, 0, 1).values).max() < 1e-12
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    R = ge.spinor_curvature(conn, psi, 0, 1)
    Rt = ge.spinor_curvature(conn, psi, 1, 0)
    assert np.abs(R.values + Rt.values).max() < 1e-12


def test_spinor_curvature_constant_connection_bracket_oracle():
    # constant coefficients: R(d_a, d_b) acts by the fiber bracket of the
    # two generators, including its central term
    t = small_torus()
    N = 6
    B = fk.fock_basis(1, N)
    m = t.model
    rng = np.random.default_rng(RNG_SEED + 9)
    xi1 = sl.random_sp_algebra(m, rng, scale=0.5)
    xi2 = sl.random_sp_algebra(m, rng, scale=0.5)
    d = t.dim
    G = np.zeros((d,) + t.grid_shape + (d, d))
    G[0][..., :, :] = xi1
    G[1][..., :, :] = xi2
    a = np.zeros((d,) + t.grid_shape, dtype=complex)
    a[0] = 0.2j
    conn = ge.make_connection(t, G, a)
    psi = ge.random_spinor_field(t, B, rng, cutoff=1, max_degree=N - 4)
    R = ge.spinor_curvature(conn, psi, 0, 1)
    br = mpc.mpc_lie_bracket(m, mpc.mpc_lie_element(m, 0.2j, xi1),
                             mpc.mpc_lie_element(m, 0.0, xi2))
    Rmat = mpc.lie_action(m, B, br.mu, br.xi)
    want = np.einsum("FG,...G->...F", Rmat, psi.values)
    keep = B.degrees <= N - 4
    assert np.abs((R.values - want)[..., keep]).max() < 1e-12


def test_spinor_curvature_tensorial():
    t = small_torus()
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED)
    conn = ge.random_connection(t, rng, cutoff=1, unitary=True)
    psi = ge.random_spinor_field(t, B, rng, cutoff=1)
    f = ge.random_scalar_field(t, rng, cutoff=1)
    scaled = ge.spinor_field(t, B, f[..., None] * psi.values)
    lhs = ge.spinor_curvature(conn, scaled, 0, 1).values
    rhs = f[..., None] * ge.spinor_curvature(conn, psi, 0, 1).values
    assert np.abs(lhs - rhs).max() < 1e-10


def test_spinor_curvature_central_part_matches_two_form():
    # for a purely central connection the curvature acts as the scalar
    # i * central_curvature (per unit of the two-form slot)
    t = small_torus()
    B = fk.fock_basis(1, 4)
    rng = np.random.default_rng(RNG_SEED + 10)
    d = t.dim
    a = np.zeros((d,) + t.grid_shape, dtype=complex)
    a[0] = ge.random_scalar_field(t, rng, cutoff=1, imaginary=True)
    a[1] = ge.random_scalar_field(t, rng, cutoff=1, imaginary=True)
    conn = ge.make_connection(t, np.zeros((d,) + t.grid_shape + (d, d)), a)
    psi = ge.random_spinor_field(t, B, rng, cutoff=2)
    R = ge.spinor_curvature(conn, psi, 0, 1)
    F = ge.central_curvature(conn)
    assert np.abs(R.values - 1j * F[0, 1][..., None] * psi.values).max() < 1e-12
