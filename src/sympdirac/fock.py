"""Truncated holomorphic Fock space and its basic operator calculus.

The fiber is the space of complex polynomials in z_1 .. z_n of degree at most
N, with monomial basis z^alpha listed in graded lexicographic order.  The
inner product makes the monomials orthogonal with squared norms
N_alpha = alpha! (2 hbar)^{|alpha|}; these come from the Gaussian integral
h^{-n} integral |z^alpha|^2 e^{-|z|^2 / 2 hbar} and are generated here by the
recursion N_{alpha + delta_k} = 2 hbar (alpha_k + 1) N_alpha, N_0 = 1.

Operators provided: creation c(v) (multiplication by <z, v>/2hbar, degree +1,
top degree truncated), annihilation a(v) (the directional derivative, exact),
their difference cl(v) = c(v) - a(v), the Heisenberg group and its action on
finite combinations of coherent states e_v(z) = exp(<z, v>/2hbar), and the
Berezin symbol K_A(z, w) = (A e_w)(z) of a truncated operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .symplinalg import SymplecticModel, hermitean_form, omega_form, vec_to_complex


def _degree_indices(n: int, d: int):
    """Multi-indices with |alpha| = d over n variables, ascending lex order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _degree_indices(n - 1, d - first):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Monomial basis of polynomials of degree <= max_degree in n variables."""

    n: int
    max_degree: int
    indices: tuple
    index_of: dict
    degrees: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)

    def degree_slice(self, d: int) -> slice:
        """Positions of the degree-d monomials (contiguous by construction)."""
        start = int(np.searchsorted(self.degrees, d))
        stop = int(np.searchsorted(self.degrees, d, side="right"))
        return slice(start, stop)


def fock_basis(n: int, max_degree: int) -> FockBasis:
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    indices = []
    for d in range(max_degree + 1):
        indices.extend(_degree_indices(n, d))
    indices = tuple(indices)
    index_of = {alpha: i for i, alpha in enumerate(indices)}
    degrees = np.array([sum(alpha) for alpha in indices])
    return FockBasis(n=n, max_degree=max_degree, indices=indices,
                     index_of=index_of, degrees=degrees)


def monomial_norm(model: SymplecticModel, alpha) -> float:
    """Squared norm N_alpha = alpha! (2 hbar)^{|alpha|} of the monomial z^alpha."""
    out = 1.0
    for ak in alpha:
        out *= factorial(ak)
    return out * (2.0 * model.hbar) ** sum(alpha)


def norm_weights(model: SymplecticModel, basis: FockBasis) -> np.ndarray:
    """Vector of N_alpha over the basis, built by the degree recursion."""
    w = np.empty(basis.dim)
    w[0] = 1.0
    for i, alpha in enumerate(basis.indices):
        if i == 0:
            continue
        k = next(a for a, ak in enumerate(alpha) if ak > 0)
        lower = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
        w[i] = 2.0 * model.hbar * alpha[k] * w[basis.index_of[lower]]
    return w


@dataclass(frozen=True, eq=False)
class FockVector:
    basis: FockBasis
    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Matrix of an operator on the truncated fiber.

    degree_shift is d when the operator maps degree k monomials into degree
    k + d (None for mixed); construction verifies the annotation.
    """

    basis: FockBasis
    matrix: np.ndarray
    degree_shift: object = None

    def __post_init__(self):
        if self.degree_shift is not None:
            if degree_shift_mass(self.basis, self.matrix, self.degree_shift) > 1e-12:
                raise ValueError("matrix has mass off the declared degree shift")


def degree_shift_mass(basis: FockBasis, matrix: np.ndarray, shift: int) -> float:
    """Largest matrix entry whose row degree != column degree + shift."""
    off = basis.degrees[:, None] != basis.degrees[None, :] + shift
    if not off.any():
        return 0.0
    return float(np.abs(matrix[off]).max())


def fock_inner(model: SymplecticModel, f: FockVector, g: FockVector) -> complex:
    """Weighted pairing sum_alpha f_alpha conj(g_alpha) N_alpha."""
    w = norm_weights(model, f.basis)
    return complex(np.sum(f.coeffs * g.coeffs.conj() * w))


def apply_op(op: FockOperator, f: FockVector) -> FockVector:
    return FockVector(basis=f.basis, coeffs=op.matrix @ f.coeffs)


def creation_op(model: SymplecticModel, basis: FockBasis, v: np.ndarray) -> FockOperator:
    """c(v): multiplication by <z, v>/2hbar; raises degree, top degree dropped."""
    vc = vec_to_complex(model, np.asarray(v, dtype=float)).conj()
    R, _ = ladder_ops(basis.n, basis.max_degree)
    mat = np.tensordot(vc / (2.0 * model.hbar), R, axes=1)
    return FockOperator(basis=basis, matrix=mat, degree_shift=1)


def annihilation_op(model: SymplecticModel, basis: FockBasis, v: np.ndarray) -> FockOperator:
    """a(v): derivative of polynomials along v, sum_k v_k d/dz_k (exact)."""
    vc = vec_to_complex(model, np.asarray(v, dtype=float))
    _, L = ladder_ops(basis.n, basis.max_degree)
    mat = np.tensordot(vc, L, axes=1)
    return FockOperator(basis=basis, matrix=mat, degree_shift=-1)


def clifford_op(model: SymplecticModel, basis: FockBasis, v: np.ndarray) -> FockOperator:
    """Symplectic Clifford action cl(v) = c(v) - a(v)."""
    mat = creation_op(model, basis, v).matrix - annihilation_op(model, basis, v).matrix
    return FockOperator(basis=basis, matrix=mat, degree_shift=None)


def adjoint_matrix(model: SymplecticModel, basis: FockBasis, mat: np.ndarray) -> np.ndarray:
    """Adjoint for the weighted inner product: W^{-1} mat^H W."""
    w = norm_weights(model, basis)
    return (mat.conj().T * w[None, :]) / w[:, None]


@lru_cache(maxsize=None)
def ladder_ops(n: int, max_degree: int):
    """Unit ladders (R, L) of the monomial basis, each of shape (n, F, F).

    R[k] is multiplication by z_k (degree +1, top degree dropped) and
    L[k] is d/dz_k (degree -1); every other fiber tensor is built from them.
    """
    basis = fock_basis(n, max_degree)
    ladders = np.zeros((2, n, basis.dim, basis.dim))
    for col, alpha in enumerate(basis.indices):
        for k in range(n):
            up = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]
            if up in basis.index_of:
                ladders[0, k, basis.index_of[up], col] = 1.0
            if alpha[k] > 0:
                down = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                ladders[1, k, basis.index_of[down], col] = alpha[k]
    ladders.flags.writeable = False  # cached, so shared by every caller
    return tuple(ladders)


@lru_cache(maxsize=None)
def transfer_tensors(n: int, max_degree: int):
    """Structural fiber tensors used by quadratic Hamiltonian actions.

    Returns (shift, raise2, lower2) with shapes (n, n, F, F):
      shift[k, l]  = matrix of z_l d/dz_k        (degree 0)
      raise2[k, l] = matrix of z_k z_l *         (degree +2, top rows dropped)
      lower2[m, i] = matrix of d/dz_m d/dz_i     (degree -2)
    """
    R, L = ladder_ops(n, max_degree)
    shift = R[None, :] @ L[:, None]
    raise2 = R[:, None] @ R[None, :]
    lower2 = L[:, None] @ L[None, :]
    return shift, raise2, lower2


# ---------------------------------------------------------------------------
# Heisenberg group and coherent states


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (v, t) in V x R with product carrying the cocycle
    -Omega(v_1, v_2)/2."""

    v: tuple
    t: float


def heisenberg_element(v: np.ndarray, t: float) -> HeisenbergElement:
    return HeisenbergElement(v=tuple(float(x) for x in v), t=float(t))


def heisenberg_mul(model: SymplecticModel, h1: HeisenbergElement, h2: HeisenbergElement) -> HeisenbergElement:
    v1, v2 = np.array(h1.v), np.array(h2.v)
    return heisenberg_element(v1 + v2, h1.t + h2.t - 0.5 * omega_form(model, v1, v2))


def heisenberg_inverse(model: SymplecticModel, h: HeisenbergElement) -> HeisenbergElement:
    return heisenberg_element(-np.array(h.v), -h.t)


def heisenberg_lie_act(model: SymplecticModel, basis: FockBasis, v: np.ndarray,
                       alpha: float, f: FockVector) -> FockVector:
    """Derived action of the Lie algebra element (v, alpha): (-i alpha/hbar) + cl(v)."""
    cl = clifford_op(model, basis, v)
    return FockVector(basis=basis,
                      coeffs=(-1j * alpha / model.hbar) * f.coeffs + cl.matrix @ f.coeffs)


@dataclass(frozen=True, eq=False)
class CoherentCombo:
    """Finite combination sum_i coeffs[i] e_{centers[i]} of coherent states."""

    coeffs: np.ndarray
    centers: np.ndarray  # shape (k, 2n), real


def coherent_combo(coeffs, centers) -> CoherentCombo:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if len(coeffs) != len(centers):
        raise ValueError("coeffs and centers length mismatch")
    return CoherentCombo(coeffs=coeffs, centers=centers)


def coherent_eval(model: SymplecticModel, v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """e_v(z) = exp(<z, v>/2hbar); z may carry leading batch axes."""
    zc = vec_to_complex(model, np.asarray(z, dtype=float))
    vc = vec_to_complex(model, np.asarray(v, dtype=float))
    return np.exp(zc @ vc.conj() / (2.0 * model.hbar))


def coherent_inner(model: SymplecticModel, v: np.ndarray, w: np.ndarray) -> complex:
    """(e_v, e_w) = e_v(w) = exp(<w, v>/2hbar) (reproducing property)."""
    return complex(np.exp(hermitean_form(model, w, v) / (2.0 * model.hbar)))


def _gram_exponent(model: SymplecticModel, c1: CoherentCombo,
                   c2: CoherentCombo) -> np.ndarray:
    """<w_j, v_i>/2hbar for the centers v_i of c1 and w_j of c2, so that
    exp of it is the Gram matrix (e_{v_i}, e_{w_j})."""
    v = vec_to_complex(model, c1.centers)
    w = vec_to_complex(model, c2.centers)
    return v.conj() @ w.T / (2.0 * model.hbar)


def combo_inner(model: SymplecticModel, c1: CoherentCombo, c2: CoherentCombo) -> complex:
    """sum_ij a_i conj(b_j) (e_{v_i}, e_{w_j}), through the Gram matrix
    exp(<w_j, v_i>/2hbar) of the centers."""
    gram = np.exp(_gram_exponent(model, c1, c2))
    return complex(c1.coeffs @ gram @ c2.coeffs.conj())


def combo_log_norm(model: SymplecticModel, c: CoherentCombo) -> float:
    """log |c|, from the Gram matrix of combo_inner(c, c) divided by its
    largest entry exp(max |v_i|^2/2hbar) (log-sum-exp), so it stays finite
    where |c|^2 itself overflows (small hbar)."""
    expo = _gram_exponent(model, c, c)
    shift = expo.real.max()
    scaled = (c.coeffs @ np.exp(expo - shift) @ c.coeffs.conj()).real
    return 0.5 * (shift + float(np.log(scaled)))


def combo_eval(model: SymplecticModel, c: CoherentCombo, z: np.ndarray):
    vals = sum(a * coherent_eval(model, v, z) for a, v in zip(c.coeffs, c.centers))
    return vals


def uj_apply(model: SymplecticModel, h: HeisenbergElement, c: CoherentCombo) -> CoherentCombo:
    """Action of the Heisenberg-group operator U_j(v, t) on coherent combinations.

    U_j(v, t) e_w = exp(-it/hbar - |v|^2/4hbar - <v, w>/2hbar) e_{v + w},
    which is unitary for the coherent-state pairing.
    """
    v = np.array(h.v)
    vc = vec_to_complex(model, v)
    nv = float(np.sum(vc * vc.conj()).real)
    wc = vec_to_complex(model, c.centers)
    pairing = wc.conj() @ vc  # <v, w> for every center w
    s = np.exp(-1j * h.t / model.hbar - nv / (4.0 * model.hbar)
               - pairing / (2.0 * model.hbar))
    return coherent_combo(c.coeffs * s, c.centers + v[None, :])


def project_coherent(model: SymplecticModel, basis: FockBasis, c: CoherentCombo) -> FockVector:
    """Orthogonal projection to the truncated fiber: e_v = sum_alpha conj(v)^alpha / N_alpha z^alpha."""
    w = norm_weights(model, basis)
    coeffs = np.zeros(basis.dim, dtype=complex)
    for a, v in zip(c.coeffs, c.centers):
        vc = vec_to_complex(model, v).conj()
        mono = np.array([np.prod(vc ** np.array(alpha)) for alpha in basis.indices])
        coeffs += a * mono / w
    return FockVector(basis=basis, coeffs=coeffs)


def monomial_eval(model: SymplecticModel, f: FockVector, z: np.ndarray):
    """Evaluate the polynomial with coefficients f at the real point(s) z."""
    zc = vec_to_complex(model, np.asarray(z, dtype=float))
    out = np.zeros(zc.shape[:-1], dtype=complex)
    for coeff, alpha in zip(f.coeffs, f.basis.indices):
        if coeff == 0:
            continue
        out += coeff * np.prod(zc ** np.array(alpha), axis=-1)
    return out if out.shape else complex(out)


def berezin_kernel_eval(model: SymplecticModel, A: FockOperator, z: np.ndarray,
                        w: np.ndarray) -> complex:
    """Berezin symbol K_A(z, w) = (A P e_w)(z) of a truncated operator.

    Holomorphic in z and antiholomorphic in w; for A = identity this is the
    degree-<=N Taylor truncation of exp(<z, w>/2hbar).
    """
    ew = project_coherent(model, A.basis, coherent_combo([1.0], [w]))
    return monomial_eval(model, apply_op(A, ew), z)
