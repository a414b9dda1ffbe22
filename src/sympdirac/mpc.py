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

from dataclasses import dataclass, replace
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


def lie_action_terms(model: SymplecticModel, basis: fk.FockBasis,
                     mu: complex | np.ndarray, xi: np.ndarray) -> tuple:
    """(X, T) with lie_action(model, basis, mu, xi) = sum_q X[..., q] T[q].

    T, shape (Q, F, F), holds the identity and -shift[k, l], and
    raise2[k, l] / 4hbar and -hbar lower2[k, l] (fock.transfer_tensors) only
    when zeta is non-zero somewhere, so a j-linear xi has no degree +/-2
    term.  X, shape S + (Q,), holds mu, H_kl, conj(W_kl) and W_kl, with H
    and W the complex matrices of eta and zeta.
    """
    return split_action_terms(model, basis, mu, sl.linear_part(model, xi),
                              sl.antilinear_part(model, xi))


def split_action_terms(model: SymplecticModel, basis: fk.FockBasis,
                       mu: complex | np.ndarray, eta: np.ndarray,
                       zeta: np.ndarray | None) -> tuple:
    """lie_action_terms of xi = eta + zeta, given as its j-split.

    zeta is None when xi is j-linear: then no antilinear part is formed or
    tested, and the terms are those of a zeta that is zero everywhere.
    """
    H = sl.complex_matrix(model, eta, check=False)
    shift, raise2, lower2 = fk.transfer_tensors(basis.n, basis.max_degree)
    S, F = H.shape[:-2], basis.dim
    X = [np.broadcast_to(mu, S)[..., None], H]
    T = [np.eye(F), -shift]
    W = None if zeta is None else sl.antilinear_matrix(model, zeta, check=False)
    if W is not None and np.abs(W).max() > 0:
        X += [W.conj(), W]
        T += [raise2 / (4.0 * model.hbar), -model.hbar * lower2]
    return (np.concatenate([x.reshape(S + (-1,)) for x in X], axis=-1),
            np.concatenate([t.reshape(-1, F, F) for t in T]))


def lie_action(model: SymplecticModel, basis: fk.FockBasis,
               mu: complex | np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Fiber matrices of (mu, xi) f = mu f - (df)(eta z) + <z, zeta z>/4hbar f
    - hbar sum_i d(df(e_i))(zeta e_i), with xi = eta + zeta the j-split.

    Batched: mu of shape S and xi of shape S + (2n, 2n) give S + (F, F), the
    terms of lie_action_terms summed as one (points, Q) x (Q, F^2) gemm.
    """
    X, T = lie_action_terms(model, basis, mu, xi)
    return (X @ T.reshape(len(T), -1)).reshape(X.shape[:-1] + T.shape[1:])


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
    """Kernel lam exp((1/4hbar)(2 <A z, w> - <z, B z> - <Cq w, w>
    + 2 lz.z + 2 lw.conj(w))) in coordinate form, with z and w in complex
    coordinates.  For an Mp^c element (`mpc_kernel`) A is the complex matrix
    of C_g^{-1}, B and Cq are the coordinate matrices of the antilinear maps
    Z_{g^{-1}} and Z_g, and the linear terms lz and lw (complex n-vectors)
    are zero; a Heisenberg operator (`heisenberg_kernel`) has them non-zero."""

    lam: complex
    A: np.ndarray
    B: np.ndarray
    Cq: np.ndarray
    lz: np.ndarray
    lw: np.ndarray


def mpc_kernel(model: SymplecticModel, u: MpcElement) -> GaussianKernel:
    K = sl.complex_matrix(model, u.pair.C)
    zero = np.zeros(model.n, dtype=complex)
    return GaussianKernel(
        lam=complex(u.lam),
        A=np.linalg.inv(K),
        B=sl.antilinear_matrix(model, sl.inverse_z(u.pair), check=False),
        Cq=sl.antilinear_matrix(model, u.pair.Z, check=False),
        lz=zero,
        lw=zero,
    )


def heisenberg_kernel(model: SymplecticModel,
                      h: fk.HeisenbergElement) -> GaussianKernel:
    """Berezin kernel of the Heisenberg operator U_j(v, t).

    K(z, w) = (U_j(v, t) e_w)(z), and `fock.uj_apply` gives
    U_j e_w = exp(-it/hbar - |v|^2/4hbar - <v, w>/2hbar) e_{v + w} with
    e_c(z) = exp(<z, c>/2hbar): A = I, B = Cq = 0, lz = conj(v), lw = -v and
    lam = exp(-it/hbar - |v|^2/4hbar), v in complex coordinates.
    """
    vc = sl.vec_to_complex(model, np.array(h.v))
    zero = np.zeros((model.n, model.n))
    return GaussianKernel(
        lam=complex(np.exp(-1j * h.t / model.hbar
                           - np.vdot(vc, vc).real / (4.0 * model.hbar))),
        A=np.eye(model.n),
        B=zero,
        Cq=zero,
        lz=vc.conj(),
        lw=-vc,
    )


def kernel_eval(model: SymplecticModel, K: GaussianKernel, z: np.ndarray,
                w: np.ndarray) -> np.ndarray:
    """Evaluate at real points, linear terms included; z and w may carry
    (broadcastable) batch axes."""
    zc = sl.vec_to_complex(model, np.asarray(z, dtype=float))
    wc = sl.vec_to_complex(model, np.asarray(w, dtype=float)).conj()
    quad = 2.0 * np.einsum("...k,kl,...l->...", wc, K.A, zc)
    quad -= np.einsum("...k,kl,...l->...", zc, K.B.conj(), zc)
    quad -= np.einsum("...k,kl,...l->...", wc, K.Cq, wc)
    quad += 2.0 * (zc @ K.lz + wc @ K.lw)
    return K.lam * np.exp(quad / (4.0 * model.hbar))


@cache
def _gauss_hermite(order: int):
    """One-dimensional Gauss-Hermite nodes and weights, read-only, since every
    caller shares them.  The nodes are antisymmetric, s[::-1] == -s bit for
    bit, with an exact 0 at odd orders."""
    s, wt = np.polynomial.hermite.hermgauss(order)
    s.flags.writeable = False
    wt.flags.writeable = False
    return s, wt


def _scaled_rule(model: SymplecticModel, order: int):
    """Gauss-Hermite nodes r = sqrt(2hbar) s and weights wt for one axis of
    u = sqrt(2hbar) (s, t), the change of variables of every quadrature."""
    s, wt = _gauss_hermite(order)
    return np.sqrt(2.0 * model.hbar) * s, wt


def _grid_exponent(model: SymplecticModel, K: GaussianKernel, p: np.ndarray,
                   slot: int, order: int):
    """Exponent of kernel_eval(model, K, .) / K.lam on the tensor
    Gauss-Hermite grid of the given order, factored over its axes (n = 1).

    The node u = (r_a, r_b) of `_scaled_rule` takes the given slot (0:
    K(u, p), 1: K(p, u)) and the points p, shape (P, 2), take the other.
    The exponent is c + lin v - q v^2 with v = u in slot 0 and v = conj(u)
    in slot 1; the linear term of the node's slot (lz in slot 0, lw in
    slot 1) goes into lin and that of p's slot into c.  With
    v = r_a + i sigma r_b it splits as c[k] + fx[k, a] + fy[k, b]
    + kappa r_a r_b; only the last term mixes the axes, and it does not
    depend on p.  Returns c, shape (P,), fx and fy, shape (P, Q), and the
    scalar kappa.
    """
    r = _scaled_rule(model, order)[0]
    pc = sl.vec_to_complex(model, p)[:, 0]
    A, conj_B, Cq = K.A[0, 0], np.conj(K.B[0, 0]), K.Cq[0, 0]
    if slot == 0:  # p sits in the conjugated slot
        pc = pc.conj()
        q, c, l_node, l_p, i_sigma = conj_B, -Cq * pc**2, K.lz[0], K.lw[0], 1j
    else:
        q, c, l_node, l_p, i_sigma = Cq, -conj_B * pc**2, K.lw[0], K.lz[0], -1j
    lin = 2.0 * (A * pc + l_node)
    c = c + 2.0 * l_p * pc
    four_hbar = 4.0 * model.hbar
    lin = lin[:, None] / four_hbar
    q = q / four_hbar
    fx = lin * r - q * r**2
    fy = i_sigma * lin * r + q * r**2
    return c / four_hbar, fx, fy, -2.0 * i_sigma * q


def _exp_rows(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The table exp(r[a] c[j]) for antisymmetric nodes r (r[::-1] == -r):
    the first (Q + 1) // 2 rows by exp, the rest as their reciprocals."""
    Q, h = len(r), (len(r) + 1) // 2
    out = np.empty((Q, len(c)), dtype=complex)
    np.multiply(r[:h, None], c, out=out[:h])
    np.exp(out[:h], out=out[:h])
    np.divide(1.0, out[:Q // 2][::-1], out=out[h:])
    return out


def kernel_compose_numeric(model: SymplecticModel, K1: GaussianKernel,
                           K2: GaussianKernel, quad_order: int = 60):
    """Numerical Berezin composition (K1 o K2)(z, w) for n = 1.

    (K1 o K2)(z, w) = h^{-1} int K1(z, u) K2(u, w) exp(-|u|^2/2hbar) du,
    evaluated with a tensor Gauss-Hermite rule after u = sqrt(2hbar) (s, t).
    K1, K2 are Gaussian kernels; returns a callable over batched real points.

    The sum is never formed node by node.  With the exponents of K1(z, u)
    and K2(u, w) split by `_grid_exponent`, a pair p = (z, w) gives
    lam1 lam2 e^{c[p]} sum_ab ux[p, a] X[a, b] uy[p, b] / pi with
    ux = wt e^{fx1 + fx2}, uy = wt e^{fy1 + fy2} and
    X = e^{(kappa1 + kappa2) r_a r_b}: one (P, Q) @ (Q, Q) product, 2PQ
    exponentials, and Q^2 / 2 more for X, whose other rows are reciprocals.
    """
    if model.n != 1:
        raise ValueError("numerical kernel composition implemented for n = 1 only")
    r, wt = _scaled_rule(model, quad_order)

    def composed(z, w):
        z, w = np.broadcast_arrays(np.asarray(z, dtype=float),
                                   np.asarray(w, dtype=float))
        c1, fx1, fy1, k1 = _grid_exponent(model, K1, z.reshape(-1, z.shape[-1]),
                                          1, quad_order)
        c2, fx2, fy2, k2 = _grid_exponent(model, K2, w.reshape(-1, w.shape[-1]),
                                          0, quad_order)
        ux = wt * np.exp(fx1 + fx2)
        uy = wt * np.exp(fy1 + fy2)
        total = np.einsum("pb,pb->p", ux @ _exp_rows(r, (k1 + k2) * r), uy)
        total *= K1.lam * K2.lam / np.pi * np.exp(c1 + c2)
        return total.reshape(z.shape[:-1])

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
    both orders coincide).  The left side is the Berezin composition
    (G o G)(0, 0) at hbar = 1/2pi (so h = 1 and the weight is
    exp(-pi |z|^2)) of the kernel G with A = 0, B = W1 and Cq = W2, since
    G(0, z) G(z, 0) is the integrand; it is evaluated by
    `kernel_compose_numeric`'s factored Gauss-Hermite sum, the right side by
    the smooth log det.  Returns (lhs, rhs).
    """
    if model.n != 1:
        raise ValueError("implemented for n = 1 only")
    W1, W2 = complex(W1), complex(W2)
    zero = np.zeros(1)
    G = GaussianKernel(lam=1.0, A=np.zeros((1, 1)), B=np.array([[W1]]),
                       Cq=np.array([[W2]]), lz=zero, lw=zero)
    lhs = complex(kernel_compose_numeric(
        replace(model, hbar=0.5 / np.pi), G, G, quad_order)(
        np.zeros(2), np.zeros(2)))
    rhs = complex(np.exp(-0.5 * sl.smooth_log_det(
        model, np.array([[1.0 - W2 * np.conj(W1)]]))))
    return lhs, rhs


def conjugation_check(model: SymplecticModel, u: MpcElement, h: fk.HeisenbergElement,
                      quad_order: int = 60,
                      rng: np.random.Generator | None = None) -> float:
    """Max pointwise residual of U U_j(v, t) U^{-1} = U_j(gv, t) on kernels.

    The identity is checked multiplied on the right by U, as
    K_U o K_{U_j(v, t)} = K_{U_j(gv, t)} o K_U with g = sigma(U): each side
    is one `kernel_compose_numeric` of `mpc_kernel` and `heisenberg_kernel`
    (n = 1), so this shares the factored Gauss-Hermite sum of the other
    kernel checks.  10 sample pairs (z, w) are drawn in the unit box, from
    default_rng(0) when rng is None.
    """
    if model.n != 1:
        raise ValueError("implemented for n = 1 only")
    if rng is None:
        rng = np.random.default_rng(0)
    ku = mpc_kernel(model, u)
    moved = fk.heisenberg_element(sigma(model, u) @ np.array(h.v), h.t)
    z = rng.uniform(-1, 1, size=(10, 2))
    w = rng.uniform(-1, 1, size=(10, 2))
    lhs = kernel_compose_numeric(model, ku, heisenberg_kernel(model, h),
                                 quad_order)(z, w)
    rhs = kernel_compose_numeric(model, heisenberg_kernel(model, moved), ku,
                                 quad_order)(z, w)
    return float(np.abs(lhs - rhs).max())
