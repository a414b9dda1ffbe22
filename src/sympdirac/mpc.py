"""Exact arithmetic in the Mp^c group and its actions on the Fock fiber.

An element is stored by its parameters: the (C, Z) pair of the underlying
symplectic map together with a scalar lam subject to |lam^2 det C| = 1.
Multiplication never leaves parameter space,

    lam_12 = lam_1 lam_2 exp(-a(1 - Z_{g1} Z_{g2^{-1}}) / 2),

with `a` the smooth logarithm of det on maps with positive Hermitean part;
the argument stays in that domain for any two disc elements, so the branch
is canonical and the product is associative on the nose.

Three concrete realizations of the action are provided and cross-checked by
the test suite:
  * elements over the unitary subgroup act exactly on truncated fibers as
    lam f(k^{-1} z) (degree preserving);
  * the Lie algebra acts on truncated fibers through the quadratic
    Hamiltonian formula;
  * general elements act through their Gaussian Berezin kernels, composed
    numerically by Gauss-Hermite quadrature (n = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import fock as fk
from . import symplinalg as sl
from .symplinalg import CZPair, SymplecticModel

ATOL_INVARIANT = 1e-10


@dataclass(frozen=True, eq=False)
class MpcElement:
    """Parameters (C, Z, lam) of an element, or of a batch of shape S.

    pair.C and pair.Z have shape S + (2n, 2n) and lam has shape S (a Python
    complex when S = ()); indexing an element indexes S.
    """

    pair: CZPair
    lam: complex | np.ndarray

    def __getitem__(self, idx) -> "MpcElement":
        return MpcElement(pair=self.pair[idx], lam=self.lam[idx])


def mpc_element(model: SymplecticModel, pair: CZPair,
                lam: complex | np.ndarray) -> MpcElement:
    lam = sl.unbatch(np.asarray(lam, dtype=complex))
    det = np.linalg.det(sl.complex_matrix(model, pair.C))
    if np.any(np.abs(np.abs(lam * lam * det) - 1.0) > ATOL_INVARIANT):
        raise ValueError("|lam^2 det C| != 1")
    return MpcElement(pair=pair, lam=lam)


def identity_mpc(model: SymplecticModel) -> MpcElement:
    d = 2 * model.n
    pair = CZPair(C=np.eye(d), Z=np.zeros((d, d)))
    return MpcElement(pair=pair, lam=1.0 + 0.0j)


def sigma(model: SymplecticModel, u: MpcElement) -> np.ndarray:
    """Projection to the symplectic group."""
    return sl.cz_compose(model, u.pair)


def eta(model: SymplecticModel, u: MpcElement):
    """The character lam^2 det C; squaring map on the central circle."""
    return sl.unbatch(u.lam**2 * np.linalg.det(sl.complex_matrix(model, u.pair.C)))


def random_mpc(model: SymplecticModel, rng: np.random.Generator,
               scale: float = 0.35, metaplectic: bool = False,
               shape: tuple = ()) -> MpcElement:
    """Random element over random_sp, with lam = det C^{-1/2} when metaplectic
    and a uniform random phase of modulus |det C|^{-1/2} otherwise.

    A batch of the given shape makes consecutive single draws in C order: the
    Gaussian matrix of each element, then its phase.
    """
    d = 2 * model.n
    X = np.empty(tuple(shape) + (d, d))
    phase = np.empty(shape)
    for idx in np.ndindex(*shape):
        X[idx] = rng.standard_normal((d, d))
        if not metaplectic:
            phase[idx] = rng.uniform(0, 2 * np.pi)
    g = sl.expm(sl.sp_algebra_from_gaussian(model, X, scale))
    pair = sl.cz_decompose(model, g)
    det = np.linalg.det(sl.complex_matrix(model, pair.C))
    if metaplectic:
        lam = det ** (-0.5)
    else:
        lam = np.exp(1j * phase) / np.sqrt(abs(det))
    return mpc_element(model, pair, lam)


def _pair_product_logdet(model: SymplecticModel, p1: CZPair, p2: CZPair):
    """a(1 - Z_{g1} Z_{g2^{-1}}) for the lam cocycle."""
    W1 = sl.antilinear_matrix(model, p1.Z, check=False)
    Wm = sl.antilinear_matrix(model, sl.inverse_z(p2), check=False)
    M = np.eye(model.n) - W1 @ Wm.conj()
    return sl.smooth_log_det(model, M)


def mpc_mul(model: SymplecticModel, u1: MpcElement, u2: MpcElement) -> MpcElement:
    a12 = _pair_product_logdet(model, u1.pair, u2.pair)
    pair = sl.cz_product(model, u1.pair, u2.pair)
    return mpc_element(model, pair, u1.lam * u2.lam * np.exp(-0.5 * a12))


def mpc_inverse(model: SymplecticModel, u: MpcElement) -> MpcElement:
    pair = sl.cz_inverse(model, u.pair)
    W = sl.antilinear_matrix(model, u.pair.Z, check=False)
    a = sl.smooth_log_det(model, np.eye(model.n) - W @ W.conj())
    return mpc_element(model, pair, np.exp(0.5 * a) / u.lam)


# ---------------------------------------------------------------------------
# Exact action of the unitary part on truncated fibers


def muc_matrix(model: SymplecticModel, basis: fk.FockBasis,
               u: MpcElement) -> fk.FockOperator:
    """Matrix of f -> lam f(k^{-1} z) for elements over the unitary group.

    Degree preserving and exactly unitary for the weighted inner product, so
    general truncation error never enters: this is the arm of the group that
    acts on finite fibers without approximation.
    """
    if np.abs(u.pair.Z).max() > ATOL_INVARIANT:
        raise ValueError("element does not lie over the unitary group (Z != 0)")
    Kinv = np.linalg.inv(sl.complex_matrix(model, u.pair.C))
    R, _ = fk.ladder_ops(basis.n, basis.max_degree)
    # raise_by[k] multiplies by the k-th entry of K^{-1} z
    raise_by = np.tensordot(Kinv, R, axes=1)
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    mat[0, 0] = 1.0
    for col, alpha in enumerate(basis.indices[1:], start=1):
        k = next(a for a, ak in enumerate(alpha) if ak > 0)
        lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
        # einsum, unlike @ and the SIMD multiply, rounds each complex
        # product separately, so the entries agree with scalar arithmetic
        mat[:, col] = np.einsum("ji,i->j", raise_by[k],
                                mat[:, basis.index_of[lower]])
    return fk.FockOperator(basis=basis, matrix=u.lam * mat, degree_shift=0)


# ---------------------------------------------------------------------------
# Lie algebra action on truncated fibers


@dataclass(frozen=True, eq=False)
class MpcLieElement:
    """Pair (mu, xi): mu imaginary scalar, xi in sp(2n, R)."""

    mu: complex
    xi: np.ndarray


def mpc_lie_element(model: SymplecticModel, mu: complex,
                    xi: np.ndarray) -> MpcLieElement:
    if abs(complex(mu).real) > 1e-12:
        raise ValueError("central component must be imaginary")
    if sl.sp_algebra_residual(model, xi) > 1e-10:
        raise ValueError("xi is not in sp(2n, R)")
    return MpcLieElement(mu=complex(mu), xi=np.asarray(xi, dtype=float))


def lie_action(model: SymplecticModel, basis: fk.FockBasis,
               mu: complex | np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Fiber matrices of (mu, xi) f = mu f - (df)(eta z) + <z, zeta z>/4hbar f
    - hbar sum_i d(df(e_i))(zeta e_i), with xi = eta + zeta the j-split.

    Batched over leading axes: mu of shape S and xi of shape S + (2n, 2n)
    give S + (F, F).  The zeta terms are skipped when zeta vanishes, so a
    j-linear xi gives exactly degree-preserving matrices.  Each transfer
    tensor is contracted as one (points, n^2) x (n^2, F^2) gemm.
    """
    H = sl.complex_matrix(model, sl.linear_part(model, xi), check=False)
    W = sl.antilinear_matrix(model, sl.antilinear_part(model, xi), check=False)
    shift, raise2, lower2 = fk.transfer_tensors(basis.n, basis.max_degree)
    S, n, F = H.shape[:-2], basis.n, basis.dim

    def contract(X, T):
        return (X.reshape(S + (n * n,)) @ T.reshape(n * n, F * F)
                ).reshape(S + (F, F))

    out = contract(-H, shift)
    diag = np.arange(F)
    out[..., diag, diag] += np.asarray(mu)[..., None]
    if np.abs(W).max() > 0:
        out += contract(W.conj(), raise2) / (4.0 * model.hbar)
        out -= model.hbar * contract(W, lower2)
    return out


def mpc_lie_bracket(model: SymplecticModel, x1: MpcLieElement,
                    x2: MpcLieElement) -> MpcLieElement:
    """Bracket in the (mu, xi) coordinates with mu the derivative of lam.

    The symplectic part is the matrix commutator.  The central part is fixed
    by the lam multiplication cocycle: differentiating
    lam_12 = lam_1 lam_2 exp(-a(1 - Z_1 Z_{2^{-1}})/2) twice gives the term
    -tr_C(j-linear part of [xi_1, xi_2])/2 (equivalently: the central
    coordinate mu + tr_C(eta)/2, which splits the extension, brackets to
    zero).  Omitting it fails bracket closure at O(1) whenever the
    j-antilinear parts do not commute.
    """
    comm = x1.xi @ x2.xi - x2.xi @ x1.xi
    H = sl.complex_matrix(model, sl.linear_part(model, comm), check=False)
    return mpc_lie_element(model, -0.5 * np.trace(H), comm)


def lie_kernel_eval(model: SymplecticModel, x: MpcLieElement, z: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
    """Berezin kernel of the Lie-algebra action of (mu, xi):

    (mu - <eta z, w>/2hbar + <z, zeta z>/4hbar - <zeta w, w>/4hbar)
        * exp(<z, w>/2hbar).
    """
    H = sl.complex_matrix(model, sl.linear_part(model, x.xi), check=False)
    W = sl.antilinear_matrix(model, sl.antilinear_part(model, x.xi), check=False)
    zc = sl.vec_to_complex(model, np.asarray(z, dtype=float))
    wc = sl.vec_to_complex(model, np.asarray(w, dtype=float)).conj()
    bracket = (x.mu
               - np.einsum("...k,kl,...l->...", wc, H, zc) / (2.0 * model.hbar)
               + np.einsum("...k,kl,...l->...", zc, W.conj(), zc) / (4.0 * model.hbar)
               - np.einsum("...k,kl,...l->...", wc, W, wc) / (4.0 * model.hbar))
    return bracket * np.exp(np.einsum("...k,...k->...", zc, wc) / (2.0 * model.hbar))


def lie_group_kernel_residual(model: SymplecticModel, x: MpcLieElement,
                              t: float) -> float:
    """Central-difference check that the Lie action is the group derivative.

    Runs the one-parameter path g_s = exp(s xi) with the phase-compatible
    scalar lam_s = e^{s mu} |det C_{g_s}|^{-1/2}, differentiates the Gaussian
    kernel at s = 0 numerically with step t, and compares to lie_kernel_eval
    at 10 sample points drawn from default_rng(0).  The residual decays at
    O(t^2).
    """
    rng = np.random.default_rng(0)

    def element(s: float) -> MpcElement:
        pair = sl.cz_decompose(model, sl.expm(s * x.xi))
        det = np.linalg.det(sl.complex_matrix(model, pair.C))
        return mpc_element(model, pair, np.exp(s * x.mu) / np.sqrt(abs(det)))

    z = rng.uniform(-1, 1, size=(10, 2 * model.n))
    w = rng.uniform(-1, 1, size=(10, 2 * model.n))
    kp = kernel_eval(model, mpc_kernel(model, element(t)), z, w)
    km = kernel_eval(model, mpc_kernel(model, element(-t)), z, w)
    fd = (kp - km) / (2.0 * t)
    return float(np.abs(fd - lie_kernel_eval(model, x, z, w)).max())


# ---------------------------------------------------------------------------
# Gaussian Berezin kernels


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """Kernel lam exp((1/4hbar)(2 <A z, w> - <z, B z> - <Cq w, w>)) in
    coordinate form: A is the complex matrix of C_g^{-1}, B and Cq are the
    coordinate matrices of the antilinear maps Z_{g^{-1}} and Z_g."""

    lam: complex
    A: np.ndarray
    B: np.ndarray
    Cq: np.ndarray


def mpc_kernel(model: SymplecticModel, u: MpcElement) -> GaussianKernel:
    K = sl.complex_matrix(model, u.pair.C)
    return GaussianKernel(
        lam=complex(u.lam),
        A=np.linalg.inv(K),
        B=sl.antilinear_matrix(model, sl.inverse_z(u.pair), check=False),
        Cq=sl.antilinear_matrix(model, u.pair.Z, check=False),
    )


def kernel_eval(model: SymplecticModel, K: GaussianKernel, z: np.ndarray,
                w: np.ndarray) -> np.ndarray:
    """Evaluate at real points; z and w may carry (broadcastable) batch axes."""
    zc = sl.vec_to_complex(model, np.asarray(z, dtype=float))
    wc = sl.vec_to_complex(model, np.asarray(w, dtype=float)).conj()
    quad = 2.0 * np.einsum("...k,kl,...l->...", wc, K.A, zc)
    quad -= np.einsum("...k,kl,...l->...", zc, K.B.conj(), zc)
    quad -= np.einsum("...k,kl,...l->...", wc, K.Cq, wc)
    return K.lam * np.exp(quad / (4.0 * model.hbar))


def _uj_route(model: SymplecticModel, h: fk.HeisenbergElement, w):
    """Route the points w through U_j(v, t) once: U_j e_w = coeffs e_c.

    Returns coeffs of shape w.shape[:-1] and the conjugate complex centers
    conj(c) of shape w.shape[:-1] + (n,), so (U_j e_w)(z) is
    coeffs exp(<z, c>/2hbar) with <z, c> = sum_k z_k conj(c)_k.
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    flat_w = w.reshape(-1, w.shape[-1])
    combo = fk.uj_apply(model, h, fk.coherent_combo(np.ones(len(flat_w)), flat_w))
    coeffs = combo.coeffs.reshape(w.shape[:-1])
    return coeffs, sl.vec_to_complex(model, combo.centers.reshape(w.shape)).conj()


def uj_kernel_fn(model: SymplecticModel, h: fk.HeisenbergElement):
    """Berezin kernel of the Heisenberg operator U_j(v, t), as a callable.

    Built by routing each evaluation point through the coherent-state action:
    K(z, w) = (U_j(v, t) e_w)(z) = coeffs(w) exp(<z, c(w)>/2hbar).  Each given
    w goes through the action once (`_uj_route`), with its own batch shape;
    the result is then evaluated at z on the broadcast product of the batch
    axes of z and w.  `conjugation_check` takes the same routed coeffs and
    centers on its quadrature nodes and factors the exponential over the
    tensor grid instead of evaluating this callable there.
    """

    def fn(z, w):
        zc = sl.vec_to_complex(model, np.asarray(z, dtype=float))
        coeffs, cc = _uj_route(model, h, w)
        return coeffs * np.exp(np.einsum("...k,...k->...", zc, cc) / (2.0 * model.hbar))

    return fn


@cache
def _gauss_hermite(order: int):
    """One-dimensional Gauss-Hermite nodes and weights, read-only, since every
    caller shares them."""
    s, wt = np.polynomial.hermite.hermgauss(order)
    s.flags.writeable = False
    wt.flags.writeable = False
    return s, wt


def _hermite_rule(order: int, scale: float):
    """Tensor Gauss-Hermite rule on R^2 for the weight exp(-|x|^2) / pi.

    Returns nodes scale * (s_i, s_j), shape (order^2, 2), and the weights
    w_i w_j / pi, which sum to 1.
    """
    s, wt = _gauss_hermite(order)
    X, Y = np.meshgrid(s, s, indexing="ij")
    nodes = scale * np.stack([X.ravel(), Y.ravel()], axis=-1)
    return nodes, (wt[:, None] * wt[None, :]).ravel() / np.pi


def kernel_compose_numeric(model: SymplecticModel, K1: GaussianKernel,
                           K2: GaussianKernel, quad_order: int = 60):
    """Numerical Berezin composition (K1 o K2)(z, w) for n = 1.

    (K1 o K2)(z, w) = h^{-1} int K1(z, u) K2(u, w) exp(-|u|^2/2hbar) du,
    evaluated with a tensor Gauss-Hermite rule after u = sqrt(2hbar) (s, t).
    K1, K2 are Gaussian kernels; returns a callable over batched real points.
    """
    if model.n != 1:
        raise ValueError("numerical kernel composition implemented for n = 1 only")
    nodes, weights = _hermite_rule(quad_order, np.sqrt(2.0 * model.hbar))

    def composed(z, w):
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        left = kernel_eval(model, K1, z[..., None, :], nodes)
        right = kernel_eval(model, K2, nodes, w[..., None, :])
        return np.sum(weights * left * right, axis=-1)

    return composed


def gaussian_integral_check(model: SymplecticModel, W1: complex, W2: complex,
                            quad_order: int = 60):
    """Two sides of the Gaussian integral identity at n = 1.

    integral exp(-(pi/2)(<z, Z1 z> + <Z2 z, z>)) exp(-pi |z|^2) dz
        = exp(-a(1 - Z2 Z1) / 2)
    for disc elements Z1, Z2 with coordinate matrices W1, W2; the map whose
    determinant appears composes the factor from the antiholomorphic slot
    with the one from the holomorphic slot (brute-force integration pins the
    order; for the conjugate-symmetric arguments arising in the group product
    both orders coincide).  The left side is evaluated by Gauss-Hermite
    quadrature, the right by the smooth log det.  Returns (lhs, rhs).
    """
    if model.n != 1:
        raise ValueError("implemented for n = 1 only")
    W1, W2 = complex(W1), complex(W2)
    nodes, weights = _hermite_rule(quad_order, 1.0 / np.sqrt(np.pi))
    z = nodes[:, 0] + 1j * nodes[:, 1]
    F = np.exp(-(np.pi / 2.0) * (np.conj(W1) * z**2 + W2 * np.conj(z) ** 2))
    lhs = complex(np.sum(weights * F))
    rhs = complex(np.exp(-0.5 * sl.smooth_log_det(
        model, np.array([[1.0 - W2 * np.conj(W1)]]))))
    return lhs, rhs


def conjugation_check(model: SymplecticModel, u: MpcElement, h: fk.HeisenbergElement,
                      quad_order: int = 40,
                      rng: np.random.Generator | None = None) -> float:
    """Max pointwise residual of U U_j(v, t) U^{-1} = U_j(gv, t) on kernels.

    Both compositions on the left are carried out by numerical quadrature
    (n = 1); the right side is the exact Heisenberg kernel at the transported
    vector gv.  10 sample points are drawn in the unit box, from
    default_rng(0) when rng is None.

    The middle kernel on the quadrature grid is never formed.  Each node w_j
    goes through U_j once, giving coeffs_j and conj(c_j); at a tensor node
    z = (x_a, y_b) the kernel coeffs_j exp((x_a + i y_b) conj(c_j)/2hbar)
    factors as coeffs_j Ex[a, j] Ey[b, j].  The double sum over the grid is
    then, for one sample pair at a time, a (Q, Q) @ (Q, Q^2) product
    followed by a contraction over b: the largest temporary is one Q x Q^2
    array besides the tables Ex and Ey.
    """
    if model.n != 1:
        raise ValueError("implemented for n = 1 only")
    if rng is None:
        rng = np.random.default_rng(0)
    g = sigma(model, u)
    ku = mpc_kernel(model, u)
    kinv = mpc_kernel(model, mpc_inverse(model, u))
    nodes, weights = _hermite_rule(quad_order, np.sqrt(2.0 * model.hbar))
    coeffs, cc = _uj_route(model, h, nodes)
    target = uj_kernel_fn(model, fk.heisenberg_element(g @ np.array(h.v), h.t))
    z = rng.uniform(-1, 1, size=(10, 2))
    w = rng.uniform(-1, 1, size=(10, 2))
    left = (kernel_eval(model, ku, z[:, None, :], nodes) * weights).reshape(
        -1, quad_order, quad_order)
    right = kernel_eval(model, kinv, nodes, w[:, None, :]) * weights * coeffs
    # node (a, b) sits at (x_a, y_b); the tables are built in place
    x = nodes[::quad_order, 0, None]
    y = nodes[:quad_order, 1, None]
    Ex = x * cc[:, 0]
    Ex /= 2.0 * model.hbar
    np.exp(Ex, out=Ex)
    Ey = 1j * y * cc[:, 0]
    Ey /= 2.0 * model.hbar
    np.exp(Ey, out=Ey)
    lhs = np.empty(len(z), dtype=complex)
    inner = np.empty_like(Ex)
    for k in range(len(z)):
        np.matmul(left[k].T, Ex, out=inner)
        lhs[k] = np.sum(np.einsum("bj,bj->j", inner, Ey) * right[k])
    return float(np.abs(lhs - target(z, w)).max())
