"""Flat-torus base geometry for symplectic spinor fields.

The base manifold is the torus [0, 2pi)^{2n} carrying the standard constant
symplectic form, complex structure and metric of the fiber model.  All
fields are trigonometric polynomials sampled on a uniform grid; derivatives
are spectral (exact for band-limited data below the Nyquist index), and
products are taken pointwise, so the differential-geometric identities
checked by the test suite hold to machine precision whenever the band
budgets fit on the grid.

A connection is a pair of fields (Gamma, a): Gamma_b(x) is a real matrix in
sp(2n, R) acting on tangent vectors, a_b(x) an imaginary scalar twisting the
fiber line.  The induced spinor derivative is

    nabla_b psi = d_b psi + act(a_b(x), Gamma_b(x)) psi(x)

with act the fiber action mpc.lie_action of (mu, xi) pairs, held as the
coefficient fields and constant matrices of mpc.lie_action_terms.  When
every Gamma_b(x) commutes with j (the connection is unitary) the fiber
action preserves polynomial degree.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np

from . import fock as fk
from . import mpc
from . import symplinalg as sl
from .symplinalg import SymplecticModel

ATOL_POINTWISE = 1e-10


@dataclass(frozen=True, eq=False)
class TorusModel:
    """Uniform periodic grid on [0, 2pi)^{2n} plus the fiber model.

    cutoff is the largest Fourier index primary fields are allowed to carry;
    the grid holds grid_size >= 3*cutoff + 1 (odd) points per axis so that
    one pointwise product of cutoff-limited data stays below the Nyquist
    index and higher budgets can be checked explicitly.
    """

    model: SymplecticModel
    cutoff: int
    grid_size: int

    @property
    def dim(self) -> int:
        return 2 * self.model.n

    @property
    def grid_shape(self) -> tuple:
        return (self.grid_size,) * self.dim

    @property
    def nyquist(self) -> int:
        return (self.grid_size - 1) // 2


def torus_model(model: SymplecticModel, cutoff: int,
                grid_size: int | None = None) -> TorusModel:
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if grid_size is None:
        grid_size = 3 * cutoff + 1
        if grid_size % 2 == 0:
            grid_size += 1
    if grid_size < 3 * cutoff + 1:
        raise ValueError("grid must hold at least 3*cutoff + 1 points per axis")
    if grid_size % 2 == 0:
        raise ValueError("grid size must be odd (symmetric mode range)")
    return TorusModel(model=model, cutoff=cutoff, grid_size=int(grid_size))


def grid_axis(torus: TorusModel) -> np.ndarray:
    return 2.0 * np.pi * np.arange(torus.grid_size) / torus.grid_size


def grid_points(torus: TorusModel) -> np.ndarray:
    """Coordinates of all grid points, shape grid_shape + (2n,)."""
    axes = np.meshgrid(*([grid_axis(torus)] * torus.dim), indexing="ij")
    return np.stack(axes, axis=-1)


def wavenumbers(torus: TorusModel) -> np.ndarray:
    """Integer Fourier indices along one axis in FFT order."""
    return np.fft.fftfreq(torus.grid_size, 1.0 / torus.grid_size).astype(int)


@cache
def _diff_matrix(grid_size: int) -> np.ndarray:
    """Real matrix of the spectral d/dx on grid_size (odd) periodic points.

    ifft(i k fft(I)): the same linear map as the FFT/iFFT pair, applied as
    one matmul (the Fourier differentiation matrix of Trefethen, Spectral
    Methods in MATLAB, ch. 3).  Odd grids have no Nyquist mode, so the
    matrix is real.  Read-only, since every caller shares it.
    """
    k = np.fft.fftfreq(grid_size, 1.0 / grid_size)
    spec = 1j * k[:, None] * np.fft.fft(np.eye(grid_size), axis=0)
    D = np.fft.ifft(spec, axis=0).real
    D.flags.writeable = False
    return D


def _direction(torus: TorusModel, b) -> int:
    """b as a base direction; anything but an integer 0 .. 2n-1 is refused."""
    if not isinstance(b, (int, np.integer)) or not 0 <= b < torus.dim:
        raise ValueError(f"direction {b!r} is not one of the base axes"
                         f" 0 .. {torus.dim - 1}")
    return int(b)


def partial_derivative(torus: TorusModel, field: np.ndarray,
                       axis: int, batch: int = 0) -> np.ndarray:
    """Spectral d/dx_axis; axis counts base axes (0 .. 2n-1).

    Exact whenever the field is band-limited below the Nyquist index along
    that axis.  The field's first `batch` axes are batch axes ahead of the
    base axes, and component axes trailing the base axes pass through.  The
    real differentiation matrix acts on the real and imaginary parts of
    a complex copy at once, so the result is complex.  Every slice ahead of
    the axis is one (G, G) @ (G, rest) product of the same shape, so a
    batch equals its single fields bit for bit.
    """
    G = torus.grid_size
    vals = np.ascontiguousarray(field, dtype=complex)
    at = batch + _direction(torus, axis)
    # both lengths from the shape, so that an empty field reshapes too
    out = np.matmul(_diff_matrix(G), vals.view(float).reshape(
        math.prod(vals.shape[:at]), G, 2 * math.prod(vals.shape[at + 1:])))
    return out.view(complex).reshape(vals.shape)


def mode_coefficients(torus: TorusModel, field: np.ndarray) -> np.ndarray:
    """Fourier coefficients over the leading 2n axes (trailing axes pass)."""
    axes = tuple(range(torus.dim))
    spec = np.fft.fftn(np.asarray(field, dtype=complex), axes=axes)
    spec /= torus.grid_size ** torus.dim
    return spec


def band_mass_outside(torus: TorusModel, field: np.ndarray,
                      cutoff: int) -> float:
    """Total coefficient mass beyond the given Fourier index budget.

    The grid axes must lead; any component axes trail.
    """
    spec = mode_coefficients(torus, field)
    k = np.abs(wavenumbers(torus))
    inside = np.ones(torus.grid_shape, dtype=bool)
    for ax in range(torus.dim):
        shape = [1] * torus.dim
        shape[ax] = torus.grid_size
        inside &= (k.reshape(shape) <= cutoff)
    outside = ~inside
    extra = (...,) + (None,) * (field.ndim - torus.dim)
    return float(np.abs(spec * outside[extra]).sum())


def trig_field(torus: TorusModel, kvec, kind: str = "cos") -> np.ndarray:
    """cos(k.x) or sin(k.x) sampled on the grid."""
    kvec = np.asarray(kvec, dtype=float)
    phase = grid_points(torus) @ kvec
    if kind == "cos":
        return np.cos(phase)
    if kind == "sin":
        return np.sin(phase)
    raise ValueError("kind must be 'cos' or 'sin'")


def _reflect_conj(spec: np.ndarray, axes: tuple) -> np.ndarray:
    out = spec
    for ax in axes:
        out = np.flip(out, axis=ax)
    out = np.roll(out, shift=(1,) * len(axes), axis=axes)
    return np.conj(out)


def _band(torus: TorusModel, cutoff: int | None) -> np.ndarray:
    """Grid indices of the wavenumbers |k| <= cutoff (default: the torus's)."""
    c = torus.cutoff if cutoff is None else cutoff
    if c < 0:
        raise ValueError("cutoff must be >= 0")
    if c > torus.nyquist:
        raise ValueError("cutoff exceeds the grid Nyquist index")
    return np.where(np.abs(wavenumbers(torus)) <= c)[0]


def _draw_band(torus: TorusModel, rng: np.random.Generator,
               cutoff: int | None, shape: tuple = ()) -> np.ndarray:
    """Gaussian band coefficients of random scalar fields, shape + (s,) * 2n.

    Each field draws its real block, then its imaginary block; a batch makes
    the draws of consecutive single fields in C order.
    """
    block = (len(_band(torus, cutoff)),) * torus.dim
    pairs = rng.normal(size=(math.prod(shape), 2) + block)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(tuple(shape) + block)


def _synthesize(torus: TorusModel, band: np.ndarray, cutoff: int | None,
                scale: float = 1.0) -> np.ndarray:
    """Real trig polynomials from band coefficients with leading batch axes.

    One ifftn over the grid axes serves the whole batch; each field is then
    scaled to peak |f| = scale (a zero field stays zero).
    """
    d = torus.dim
    spec = np.zeros(band.shape[:-d] + torus.grid_shape, dtype=complex)
    spec[(...,) + np.ix_(*([_band(torus, cutoff)] * d))] = band
    axes = tuple(range(-d, 0))
    spec = 0.5 * (spec + _reflect_conj(spec, axes))
    f = np.fft.ifftn(spec, axes=axes).real
    peak = np.abs(f).max(axis=axes, keepdims=True)
    return f * np.divide(scale, peak, out=np.ones_like(peak), where=peak > 0)


def random_scalar_field(torus: TorusModel, rng: np.random.Generator,
                        cutoff: int | None = None, scale: float = 1.0,
                        imaginary: bool = False, shape: tuple = ()) -> np.ndarray:
    """Random real (or purely imaginary) trig polynomial with the given band.

    A batch of the given shape (leading axes) makes consecutive single draws
    in C order and equals consecutive single calls bit for bit.
    """
    f = _synthesize(torus, _draw_band(torus, rng, cutoff, shape), cutoff, scale)
    return 1j * f if imaginary else f


def random_vector_field(torus: TorusModel, rng: np.random.Generator,
                        cutoff: int | None = None) -> np.ndarray:
    comps = random_scalar_field(torus, rng, cutoff, shape=(torus.dim,))
    return np.moveaxis(comps, 0, -1)


# ---------------------------------------------------------------------------
# connections


@dataclass(frozen=True, eq=False)
class Connection:
    """Per-direction fields Gamma_b (sp-valued matrices) and a_b (imaginary).

    unitary is True when every Gamma_b(x) commutes with j, in which case the
    induced fiber action preserves polynomial degree.
    """

    torus: TorusModel
    Gamma: np.ndarray  # (2n,) + grid + (2n, 2n), real
    a: np.ndarray      # (2n,) + grid, purely imaginary
    unitary: bool


def make_connection(torus: TorusModel, Gamma: np.ndarray, a: np.ndarray,
                    check: bool = True) -> Connection:
    d = torus.dim
    Gamma = np.asarray(Gamma, dtype=float)
    a = np.asarray(a, dtype=complex)
    if Gamma.shape != (d,) + torus.grid_shape + (d, d):
        raise ValueError("Gamma has wrong shape")
    if a.shape != (d,) + torus.grid_shape:
        raise ValueError("a has wrong shape")
    Om = torus.model.Omega
    if check:
        sp_res = np.abs(np.swapaxes(Gamma, -1, -2) @ Om + Om @ Gamma).max()
        # negated, so that a NaN fails each test
        if not sp_res <= ATOL_POINTWISE:
            raise ValueError("Gamma_b(x) must preserve the symplectic form")
        if not (np.isfinite(a).all() and np.abs(a.real).max() <= ATOL_POINTWISE):
            raise ValueError("a must be purely imaginary")
    j = torus.model.j
    unitary = bool(np.abs(Gamma @ j - j @ Gamma).max() <= ATOL_POINTWISE)
    return Connection(torus=torus, Gamma=Gamma, a=a, unitary=unitary)


def flat_connection(torus: TorusModel) -> Connection:
    d = torus.dim
    return Connection(
        torus=torus,
        Gamma=np.zeros((d,) + torus.grid_shape + (d, d)),
        a=np.zeros((d,) + torus.grid_shape, dtype=complex),
        unitary=True,
    )


def connection_from_modes(torus: TorusModel, gamma_modes, a_modes) -> Connection:
    """Assemble a connection from lists of trigonometric modes.

    gamma_modes: iterable of (direction b, k-vector, kind, matrix) adding
    matrix * trig(k.x) to Gamma_b; a_modes: iterable of
    (direction b, k-vector, kind, value) with imaginary value, likewise.
    """
    d = torus.dim
    Gamma = np.zeros((d,) + torus.grid_shape + (d, d))
    a = np.zeros((d,) + torus.grid_shape, dtype=complex)
    for b, kvec, kind, matrix in gamma_modes:
        matrix = np.asarray(matrix, dtype=float)
        if not sl.sp_algebra_residual(torus.model, matrix) <= ATOL_POINTWISE:
            raise ValueError("Gamma mode coefficient must lie in sp(2n, R)")
        Gamma[b] += trig_field(torus, kvec, kind)[..., None, None] * matrix
    for b, kvec, kind, value in a_modes:
        value = complex(value)
        if not (np.isfinite(value) and abs(value.real) <= ATOL_POINTWISE):
            raise ValueError("a mode coefficient must be purely imaginary")
        a[b] += trig_field(torus, kvec, kind) * value
    return make_connection(torus, Gamma, a, check=False)


def random_connection(torus: TorusModel, rng: np.random.Generator,
                      cutoff: int = 1, unitary: bool = True) -> Connection:
    """Random band-limited connection, drawn direction by direction.

    Gamma_b is 0.3 (f_1 xi_1 + f_2 xi_2) with f_i random real scalar fields
    of the given cutoff and xi_i Gaussian matrices in u(n) (unitary) or in
    sp(2n, R); then a_b is 0.3 i g for one more such scalar field g.  The
    draws keep that order; the 6n scalar fields are synthesised as one batch.
    """
    m = torus.model
    d = torus.dim
    xis, bands = [], []
    for _ in range(d):
        for _ in range(2):
            xis.append(sl.random_u_algebra(m, rng) if unitary
                       else sl.random_sp_algebra(m, rng))
            bands.append(_draw_band(torus, rng, cutoff))
        bands.append(_draw_band(torus, rng, cutoff))
    f = _synthesize(torus, np.stack(bands), cutoff).reshape(
        (d, 3) + torus.grid_shape)
    Gamma = np.zeros((d,) + torus.grid_shape + (d, d))
    a = np.zeros((d,) + torus.grid_shape, dtype=complex)
    for b in range(d):
        for i in range(2):
            Gamma[b] += 0.3 * f[b, i][..., None, None] * xis[2 * b + i]
        a[b] = 0.3 * (1j * f[b, 2])
    return make_connection(torus, Gamma, a)


# ---------------------------------------------------------------------------
# tangent-bundle calculus


def vector_cov_deriv(conn: Connection, X: np.ndarray, b: int) -> np.ndarray:
    """nabla_b X = d_b X + Gamma_b X for a vector field (grid + (2n,))."""
    dX = partial_derivative(conn.torus, X, b)
    return dX + np.einsum("...ij,...j->...i", conn.Gamma[b], X)


def cov_deriv_along(conn: Connection, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """nabla_X Y for vector fields (pointwise weights X^b)."""
    out = np.zeros(Y.shape, dtype=complex)
    for b in range(conn.torus.dim):
        out += X[..., b, None] * vector_cov_deriv(conn, Y, b)
    return out


def vector_bracket(torus: TorusModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Lie bracket [X, Y] of vector fields, computed spectrally."""
    out = np.zeros(Y.shape, dtype=complex)
    for b in range(torus.dim):
        out += X[..., b, None] * partial_derivative(torus, Y, b)
        out -= Y[..., b, None] * partial_derivative(torus, X, b)
    return out


def torsion_apply(conn: Connection, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """T(X, Y) = nabla_X Y - nabla_Y X - [X, Y]."""
    return (cov_deriv_along(conn, X, Y) - cov_deriv_along(conn, Y, X)
            - vector_bracket(conn.torus, X, Y))


def torsion_tensor(conn: Connection) -> np.ndarray:
    """Coordinate components T[a, b] = Gamma_a e_b - Gamma_b e_a.

    Shape (2n, 2n) + grid + (2n,); coordinate fields commute, so the bracket
    term drops out.
    """
    d = conn.torus.dim
    T = np.zeros((d, d) + conn.torus.grid_shape + (d,))
    for aa in range(d):
        for bb in range(d):
            T[aa, bb] = torsion_component(conn, aa, bb)
    return T


def torsion_component(conn: Connection, a: int, b: int) -> np.ndarray:
    """T[a, b] = Gamma_a e_b - Gamma_b e_a of torsion_tensor alone, grid +
    (2n,), for a caller that needs one pair at a time."""
    return conn.Gamma[a][..., :, b] - conn.Gamma[b][..., :, a]


def dual_frame(torus: TorusModel, frame: np.ndarray) -> np.ndarray:
    """Frame e^j with omega(e_i, e^j) = delta_i^j; columns are frame vectors.

    e^j = -sum_k w^{jk} e_k with (w^{jk}) the inverse of w_{ij} = omega(e_i, e_j).
    """
    Om = torus.model.Omega
    w = np.swapaxes(frame, -1, -2) @ Om @ frame
    if np.abs(np.linalg.det(w)).min() < 1e-12:
        raise ValueError("frame is degenerate for the symplectic form")
    winv = np.linalg.inv(w)
    return -frame @ np.swapaxes(winv, -1, -2)


def tau_field(conn: Connection) -> np.ndarray:
    """Torsion vector tau = (1/2) sum_k T(e_k, e^k) on the coordinate frame."""
    d = conn.torus.dim
    Om = conn.torus.model.Omega
    T = torsion_tensor(conn)
    # e^k = -sum_l w^{kl} e_l with w = Omega, so sum_k T(e_k, e^k)
    # contracts T[k, l] against -inv(Omega)[k, l] = Omega[k, l]
    return 0.5 * np.einsum("kl,kl...c->...c", Om, T)


def divergence(conn: Connection, X: np.ndarray) -> np.ndarray:
    """Trace of Y -> nabla_Y X."""
    out = np.zeros(X.shape[:-1], dtype=complex)
    for b in range(conn.torus.dim):
        out += vector_cov_deriv(conn, X, b)[..., b]
    return out


def omega_pairing(torus: TorusModel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """omega(X, Y) pointwise."""
    return np.einsum("...i,ij,...j->...", X, torus.model.Omega, Y)


def lie_lemma_residual(conn: Connection, X: np.ndarray) -> float:
    """Volume-derivative identity residual.

    The flow of X scales the constant volume form by the plain coordinate
    divergence, which must match div X + omega(X, tau) built from the
    connection; the residual is the max pointwise mismatch.
    """
    torus = conn.torus
    lhs = np.zeros(torus.grid_shape, dtype=complex)
    for b in range(torus.dim):
        lhs += partial_derivative(torus, X[..., b], b)
    rhs = divergence(conn, X) + omega_pairing(torus, X, tau_field(conn))
    return float(np.abs(lhs - rhs).max())


def torsion_removal(conn: Connection) -> Connection:
    """Connection with the same unitary type and vanishing torsion vector.

    Subtracts (1/2n)(omega(tau,Y)X + omega(X,Y)tau + omega(J tau,Y)JX
    + omega(JX,Y)J tau) from nabla_X Y; the correction is linear in tau, so
    band limits are preserved, and it vanishes once tau does (the map is
    idempotent).
    """
    if not conn.unitary:
        raise ValueError("torsion removal requires a unitary connection")
    torus = conn.torus
    m = torus.model
    d = torus.dim
    tau = tau_field(conn).real
    jtau = np.einsum("ij,...j->...i", m.j, tau)
    Om = m.Omega
    om_tau = np.einsum("...i,ij->...j", tau, Om)    # row omega(tau, .)
    om_jtau = np.einsum("...i,ij->...j", jtau, Om)  # row omega(J tau, .)
    Gamma = conn.Gamma.copy()
    for b in range(d):
        eb = np.zeros(d)
        eb[b] = 1.0
        jeb = m.j @ eb
        om_eb = eb @ Om
        om_jeb = jeb @ Om
        corr = (np.einsum("...j,i->...ij", om_tau, eb)
                + np.einsum("...i,j->...ij", tau, om_eb)
                + np.einsum("...j,i->...ij", om_jtau, jeb)
                + np.einsum("...i,j->...ij", jtau, om_jeb))
        Gamma[b] = Gamma[b] - corr / (2.0 * m.n)
    return make_connection(torus, Gamma, conn.a)


# ---------------------------------------------------------------------------
# curvature of the central direction


def central_potential(conn: Connection) -> np.ndarray:
    """The imaginary 1-form a_b + tr_C(j-linear part of Gamma_b)/2."""
    m = conn.torus.model
    K = sl.complex_matrix(m, sl.linear_part(m, conn.Gamma), check=False)
    return conn.a + 0.5 * np.trace(K, axis1=-2, axis2=-1)


def central_curvature(conn: Connection) -> np.ndarray:
    """Real 2-form F[a, b] with i F = d(central potential)."""
    torus = conn.torus
    d = torus.dim
    alpha0 = central_potential(conn)
    F = np.zeros((d, d) + torus.grid_shape, dtype=complex)
    for aa, bb in combinations(range(d), 2):
        F[aa, bb] = partial_derivative(torus, alpha0[bb], aa) \
            - partial_derivative(torus, alpha0[aa], bb)
        F[bb, aa] = -F[aa, bb]
    return (-1j * F).real


def eta_curvature(conn: Connection) -> np.ndarray:
    """Curvature 2-form of the squared central line, via the commutator.

    The line with connection coefficients 2 a_b + tr_C Gamma_b is
    differentiated twice on the unit section; the antisymmetrized result is
    the (imaginary) curvature, which doubles the central curvature.
    """
    torus = conn.torus
    d = torus.dim
    c = 2.0 * np.array(conn.a, dtype=complex)
    alpha0 = central_potential(conn)
    c += 2.0 * (alpha0 - conn.a)  # 2 a + tr_C Gamma = 2 alpha0
    ones = np.ones(torus.grid_shape, dtype=complex)

    def cov(b, s):
        return partial_derivative(torus, s, b) + c[b] * s

    first = [cov(b, ones) for b in range(d)]
    F = np.zeros((d, d) + torus.grid_shape, dtype=complex)
    for aa, bb in combinations(range(d), 2):
        F[aa, bb] = cov(aa, first[bb]) - cov(bb, first[aa])
        F[bb, aa] = -F[aa, bb]
    return F


# ---------------------------------------------------------------------------
# spinor fields


@dataclass(frozen=True, eq=False)
class SpinorField:
    """Grid of truncated Fock coefficients, shape batch + grid + (fiber dim,).

    The batch axes lead and may be none: a single field has the empty batch
    shape.  Every operator maps each member as its single call would.
    """

    torus: TorusModel
    basis: fk.FockBasis
    values: np.ndarray


def spinor_values(psi: SpinorField, torus: TorusModel,
                  basis: fk.FockBasis) -> np.ndarray:
    """The values of psi, once psi is known to live on torus and fiber basis.

    Every operator reads its input fields through here.  Models are
    compared by value, so an equal torus built separately is accepted.  The
    values must have shape batch + grid + (F,), with any number of leading
    batch axes (none for a single field).
    """
    t = psi.torus
    if (t.model.n, t.model.hbar, t.cutoff, t.grid_size) != (
            torus.model.n, torus.model.hbar, torus.cutoff, torus.grid_size):
        raise ValueError("spinor field lives on another torus")
    if (psi.basis.n, psi.basis.max_degree) != (basis.n, basis.max_degree):
        raise ValueError("spinor field uses another fiber basis")
    want = torus.grid_shape + (basis.dim,)
    shape = np.shape(psi.values)
    if shape[max(len(shape) - len(want), 0):] != want:
        raise ValueError(f"spinor values have shape {shape}, not batch +"
                         f" grid + (F,) with grid + (F,) = {want}")
    return psi.values


def spinor_field(torus: TorusModel, basis: fk.FockBasis,
                 values: np.ndarray) -> SpinorField:
    """A field of the values, batch + grid + (F,), as spinor_values takes
    them."""
    psi = SpinorField(torus=torus, basis=basis,
                      values=np.asarray(values, dtype=complex))
    spinor_values(psi, torus, basis)
    return psi


def random_spinor_field(torus: TorusModel, basis: fk.FockBasis,
                        rng: np.random.Generator, cutoff: int | None = None,
                        max_degree: int | None = None,
                        shape: tuple = ()) -> SpinorField:
    """Random band-limited spinor; optionally restricted in Fock degree.

    A batch of the given shape (leading axes) makes consecutive single draws
    in C order and equals consecutive single calls bit for bit.
    """
    shape = tuple(shape)
    vals = np.zeros(shape + torus.grid_shape + (basis.dim,), dtype=complex)
    keep = (basis.degrees <= max_degree) if max_degree is not None \
        else np.ones(basis.dim, dtype=bool)
    idx = np.nonzero(keep)[0]
    parts = random_scalar_field(torus, rng, cutoff,
                                shape=shape + (len(idx), 2))
    # shape + (columns, re/im) + grid -> shape + grid + (columns, re/im)
    parts = np.moveaxis(parts, (len(shape), len(shape) + 1), (-2, -1))
    vals[..., idx] = parts[..., 0] + 1j * parts[..., 1]
    return spinor_field(torus, basis, vals)


def lie_matrix_field(conn: Connection, basis: fk.FockBasis) -> np.ndarray:
    """Pointwise fiber matrices of (a_b(x), Gamma_b(x)), shape (2n,)+grid+(F,F).

    The real terms of fiber_action times its complex tensors: the dense
    reference form of its row-sparse kernel.
    """
    action = fiber_action(conn, basis)
    return np.tensordot(action.terms, action.tensors, axes=1)


@dataclass(frozen=True, eq=False)
class DegreeReach:
    """Where a fiber map sends degree windows, read once from its pattern.

    The fiber basis is ordered by degree, so the positions of a run of Fock
    degrees are one column slice, a window.  degrees[c] is the degree of
    position c and starts[d] the first position of degree d (then F).
    Columns of degree d are linked by the map's != 0 pattern to rows of
    degrees low[d] .. high[d] at most, and to none when low[d] > high[d].
    Clipped to the fiber by construction: no window passes degree 0 or the
    top degree.  Plain tuples, since a window is looked up at every step
    of every operator.
    """

    degrees: tuple  # (F,) int, ascending
    starts: tuple   # (max degree + 2,) int
    low: tuple      # (max degree + 1,) int
    high: tuple     # (max degree + 1,) int

    def field_window(self, vals: np.ndarray) -> slice:
        """The window of the degrees where vals, (...,) + (F,), is non-zero
        at some point; slice(0, 0) when it is zero everywhere."""
        at = np.nonzero(vals.reshape(-1, vals.shape[-1]).T.any(axis=1))[0]
        if not at.size:
            return slice(0, 0)
        return slice(self.starts[self.degrees[at[0]]],
                     self.starts[self.degrees[at[-1]] + 1])

    def window(self, cols: slice) -> slice:
        """The window of the map applied to a field on the window cols."""
        if cols.start == cols.stop:
            return cols
        d0, d1 = self.degrees[cols.start], self.degrees[cols.stop - 1] + 1
        a, b = min(self.low[d0:d1]), max(self.high[d0:d1])
        return slice(self.starts[a], self.starts[b + 1]) if a <= b \
            else slice(0, 0)


def degree_reach(degrees: np.ndarray, patterns: np.ndarray) -> list:
    """The DegreeReach of each of a stack of (F, F) bool patterns, rows by
    columns, for the ascending degrees of a fiber basis."""
    starts = np.searchsorted(degrees, np.arange(degrees[-1] + 2))
    # blocks[s, e, d]: a row of degree e is linked to a column of degree d
    blocks = np.logical_or.reduceat(
        np.logical_or.reduceat(patterns, starts[:-1], axis=-2), starts[:-1],
        axis=-1)
    D, linked = blocks.shape[-1], blocks.any(axis=-2)
    low = np.where(linked, blocks.argmax(axis=-2), D)
    high = np.where(linked, D - 1 - blocks[:, ::-1].argmax(axis=-2), -1)
    degrees, starts = tuple(degrees.tolist()), tuple(starts.tolist())
    return [DegreeReach(degrees=degrees, starts=starts, low=tuple(lo),
                        high=tuple(hi))
            for lo, hi in zip(low.tolist(), high.tolist())]


@dataclass(frozen=True, eq=False)
class FiberAction:
    """The fiber action of a connection as terms and in row-sparse storage.

    Direction b acts at each grid point as sum_q terms[b][..., q] tensors[q].
    u(n) + iR is a real Lie algebra, so the terms are real: the real and
    imaginary parts of the coefficient fields X of mpc.lie_action_terms,
    with the tensors T and iT, less the real columns that are zero at every
    point and direction (Re mu and the real diagonal of H, at least).  Row r
    of every fiber matrix may be non-zero only in the columns cols[r,
    :counts[r]], the union of the tensors' != 0 patterns (ELL storage).
    Slot 0 of every row is its diagonal, cols[:, 0] = arange(F), with a
    zero slot where the pattern has no diagonal entry; the off-diagonal
    columns follow in ascending order.  slots[k, q, r] is entry (r, cols[r,
    k]) of tensors[q], so the direction-b entry at (r, cols[r, k]) is
    terms[b] @ slots[k][:, r] at every grid point; the padded slots k >=
    counts[r] hold column 0 and 0.  An action with no terms (a
    flat connection) has no slots at all, K = 0.  No coefficient field is
    stored: each kernel call forms those of its degree window (see
    cov_derivs), so a window is a contiguous grid + (w,) array.  reach maps
    the window of a field to the window of its covariant derivatives, read
    from the ELL columns and the diagonal, which d_b keeps.  tables holds
    cov_derivs' slot tables for each input window it has met: index and
    slot arrays of at most K (Q + 1) F entries each, no grid axis.
    """

    terms: np.ndarray    # (2n,) + grid + (Q,), float64
    tensors: np.ndarray  # (Q, F, F), complex
    cols: np.ndarray     # (F, K) int
    counts: np.ndarray   # (F,) int
    slots: np.ndarray    # (K, Q, F), complex
    reach: DegreeReach
    tables: dict = field(default_factory=dict, repr=False)


def fiber_action(conn: Connection, basis: fk.FockBasis) -> FiberAction:
    """The fiber action of (a_b(x), Gamma_b(x)) as terms and row-sparse.

    Gamma is split into its j-linear and j-antilinear parts once, here; a
    unitary Gamma keeps only its j-linear part, so the action has no degree
    +/-2 term.  Slot k of row r takes entry (r, cols[r, k]) of every tensor:
    no grid + (F, F) array is formed.
    """
    m = conn.torus.model
    X, T = mpc.split_action_terms(
        m, basis, conn.a, sl.linear_part(m, conn.Gamma),
        None if conn.unitary else sl.antilinear_part(m, conn.Gamma))
    # u(n) + iR is a real algebra: the real coefficient fields Re X and Im X
    # times T and iT, less the columns that are zero everywhere
    X = np.concatenate([X.real, X.imag], axis=-1)
    live = X.reshape(-1, X.shape[-1]).any(axis=0)
    X, T = X[..., live], np.concatenate([T, 1j * T])[live]
    eye = np.eye(T.shape[-1], dtype=bool)
    # every row stores its diagonal once any term is live
    stored = (T.any(axis=0) & ~eye) | (eye & live.any())
    counts = stored.sum(axis=1)
    padded = np.arange(counts.max(initial=0)) >= counts[:, None]
    rows, c = np.nonzero(stored)
    cols = np.zeros(padded.shape, dtype=int)
    # row by row, as the slots: the diagonal first, then ascending
    cols[~padded] = c[np.lexsort((c, c != rows, rows))]
    # slots[k, q, r]: entry (r, cols[r, k]) of tensor q, 0 where padded
    slots = np.where(padded, 0.0, T[:, np.arange(len(cols))[:, None], cols])
    pattern = np.eye(len(cols), dtype=bool)
    pattern[rows, c] = True
    return FiberAction(terms=X, tensors=T, cols=cols, counts=counts,
                       slots=np.ascontiguousarray(slots.transpose(2, 0, 1)),
                       reach=degree_reach(basis.degrees, pattern[None])[0])


def cov_derivs(torus: TorusModel, action: FiberAction, vals: np.ndarray,
               dirs, cols: slice) -> Iterator[np.ndarray]:
    """nabla_b vals = d_b vals + A_b vals for each b in dirs, one at a time,
    on a degree window.

    vals, shape batch + grid + (w,) with any number of leading batch axes,
    holds the columns cols of a field, or of each field of a batch, that is
    zero in every other column, and each nabla_b vals comes on the columns
    nabla_window(action, cols) (w' of them): the kernel never touches a
    column outside them, which are exactly 0.  vals is first widened with
    zeros to those columns when the action reaches past cols.  A_b is
    direction b of the row-sparse fiber action on the window's rows, applied
    as coef[0] * vals on the diagonal slot plus sum_{k >= 1} coef[k] *
    vals[..., cols[:, k]], where coef[k], grid + (w',), holds slot k's
    coefficients: one real (P, Q) @ (Q, 2w') gemm of the real terms[b] and
    the float view of the window's complex slots per direction, with the
    slots that read a column outside cols set to 0, made once for the whole
    batch.  Several directions share one gather of each of the K - 1
    off-diagonal slots, held until the last direction is made; one
    direction gathers a slot at a time.  Between two directions the
    generator holds nothing else.  A direction outside 0 .. 2n-1 is
    refused before any work.  Each member of a batch
    comes out as its single call, bit for bit, on the same window.
    """
    dirs = [_direction(torus, b) for b in dirs]
    out, slots, at = _window_tables(action, cols)
    vals = np.asarray(vals, dtype=complex)
    if out != cols:
        wide = np.zeros(vals.shape[:-1] + (out.stop - out.start,),
                        dtype=complex)
        wide[..., cols.start - out.start:cols.stop - out.start] = vals
        vals = wide
    held = [np.take(vals, c, axis=-1) for c in at] if len(dirs) > 1 else None
    # (2n, points, Q), with the point count spelt out for Q = 0
    terms = action.terms.reshape(len(action.terms),
                                 math.prod(torus.grid_shape),
                                 action.terms.shape[-1])
    return (_cov_deriv(torus, terms[b], slots, vals, b, at, held)
            for b in dirs)


def nabla_window(action: FiberAction, cols: slice) -> slice:
    """The window of nabla_b vals for vals on the window cols:
    action.reach.window(cols), looked up in action.tables."""
    return _window_tables(action, cols)[0]


def _window_tables(action: FiberAction, cols: slice) -> tuple:
    """(out, slots, at) of cov_derivs on the input window cols, made on the
    first call for that window and kept in action.tables.

    out is action.reach.window(cols); slots, (K, Q, 2w') float, the float
    view of the complex slots of the rows in out, 0 where a slot reads a
    column outside cols, ready for a real gemm with the terms; and at,
    (K - 1, w'), the off-diagonal columns read, counted from out.start.
    """
    key = (cols.start, cols.stop)
    if key not in action.tables:
        out = action.reach.window(cols)
        reads = action.cols[out].T
        inside = (reads >= cols.start) & (reads < cols.stop)
        # a slot that reads outside cols has coefficient 0: any column will do
        action.tables[key] = (
            out, np.where(inside[:, None], action.slots[..., out],
                          0.0).view(float),
            np.where(inside[1:], reads[1:] - out.start, 0))
    return action.tables[key]


def _cov_deriv(torus: TorusModel, terms: np.ndarray, slots: np.ndarray,
               vals: np.ndarray, b: int, at: np.ndarray,
               held: list | None) -> np.ndarray:
    """nabla_b vals for cov_derivs, from direction b's real terms, (points,
    Q), and the float view of the window's slots, (K, Q, 2w').

    Slot by slot, one real (P, Q) @ (Q, 2w') gemm writes the slot's complex
    coefficient field, as its float view, into one contiguous grid + (w',)
    buffer, which multiplies every member of the batch; a single field
    takes the product in the buffer itself.  The off-diagonal slots come
    from held, or are gathered into one scratch field when held is None.
    """
    batch = vals.ndim - torus.dim - 1
    out = partial_derivative(torus, vals, b, batch)
    coef = np.empty(vals.shape[batch:], dtype=complex)
    flat = coef.view(float).reshape(len(terms), 2 * vals.shape[-1])
    prod = coef if batch == 0 else np.empty_like(vals)
    scratch = np.empty_like(vals) if held is None and len(slots) > 1 else None
    for k in range(len(slots)):
        np.matmul(terms, slots[k], out=flat)
        if k == 0:
            term = vals
        elif held is None:
            # with the default mode="raise", np.take would gather into a
            # buffer of its own and copy that to out
            term = np.take(vals, at[k - 1], axis=-1, out=scratch, mode="wrap")
        else:
            term = held[k - 1]
        np.multiply(coef, term, out=prod)
        out += prod
    return out


def cov_deriv_values(torus: TorusModel, action: FiberAction, vals: np.ndarray,
                     b: int) -> np.ndarray:
    """nabla_b on raw spinor values, batch + grid + (F,): cov_derivs on the
    one direction b and the degree window vals occupies (the union of its
    members' windows), with exact zeros in every other column.

    Every spinor covariant derivative of the package goes through
    cov_derivs, whose several directions equal single ones bit for bit.
    """
    vals = np.asarray(vals, dtype=complex)
    cols = action.reach.field_window(vals)
    out = np.zeros(vals.shape, dtype=complex)
    out[..., nabla_window(action, cols)] = next(cov_derivs(
        torus, action, np.ascontiguousarray(vals[..., cols]), (b,), cols))
    return out


def spinor_cov_deriv(conn: Connection, psi: SpinorField, b: int) -> SpinorField:
    """nabla_b psi = d_b psi + fiber action of (a_b(x), Gamma_b(x))."""
    vals = cov_deriv_values(psi.torus, fiber_action(conn, psi.basis),
                            spinor_values(psi, conn.torus, psi.basis), b)
    return SpinorField(torus=psi.torus, basis=psi.basis, values=vals)


def spinor_curvature(conn: Connection, psi: SpinorField, a: int,
                     b: int) -> SpinorField:
    """R(d_a, d_b) psi = nabla_a nabla_b psi - nabla_b nabla_a psi."""
    action = fiber_action(conn, psi.basis)
    values = spinor_values(psi, conn.torus, psi.basis)

    def nabla(c, vals):
        return cov_deriv_values(psi.torus, action, vals, c)

    vals = nabla(a, nabla(b, values)) - nabla(b, nabla(a, values))
    return SpinorField(torus=psi.torus, basis=psi.basis, values=vals)
