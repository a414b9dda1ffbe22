"""Linear symplectic algebra over a fixed complex structure.

The model space is V = R^{2n} carrying the standard symplectic form
Omega = [[0, I], [-I, 0]], the compatible complex structure
j = [[0, -I], [I, 0]], and the Euclidean metric g = Omega @ j = I.
Complex coordinates are z_k = x_k + i y_k for v = sum x_k e_k + y_k e_{n+k};
multiplication by i corresponds to applying j.

Real-linear maps split into a j-linear and a j-antilinear part.  A j-linear
map has block form [[P, -Q], [Q, P]] and acts on coordinates as z -> K z with
K = P + iQ; a j-antilinear map has block form [[R, S], [S, -R]] and acts as
z -> W conj(z) with W = R + iS.

Every symplectic g factors as g = C_g (1 + Z_g) with C_g j-linear invertible
and Z_g j-antilinear lying in the generalized unit disc (Siegel domain):
symmetric for the Hermitean pairing and with 1 - Z^2 positive.  This module
implements that decomposition, its composition and inversion laws, and the
smooth logarithm-of-determinant `a` on j-linear maps whose Hermitean part is
positive definite.  All of it is plain dense numpy; sizes are tiny (n <= 4).

The group law broadcasts over leading batch axes: a matrix argument of shape
S + (2n, 2n) stands for the elements at each index of S, and one code path
serves S = () and every batch.  Each element is validated with its own scale,
and a batch with an invalid element raises the error that element raises on
its own.  A single element (S = ()) gets Python scalars back where a batch
gets arrays of shape S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Construction-time tolerance for structural invariants (symplecticity,
# block symmetry, the (C, Z) compatibility relation 1 - Z^2 = (C* C)^{-1}).
ATOL_STRUCT = 1e-10


# Diagonal Pade approximants r_m = (V - U)^{-1} (V + U) of exp, of degrees
# m = 3, 5, 7, 9, 13 (Higham 2005, Table 2.3 and eqs. (2.4), (2.6)).
# _PADE_THETA[i] is the largest 1-norm at which r_m(A) has double-precision
# backward error.  With p_k = A^{2k} and the rows (even, odd) of
# _PADE_ROWS[i], V = sum_k even[k] p_k and U = A sum_k odd[k] p_k; degree
# 13 has two more rows, whose sums p_3 multiplies into V and into U's sum.
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                        9.504178996162932e-1, 2.097847961257068e0,
                        5.371920351148152e0])
_PADE_ROWS = [np.array(rows, dtype=float) for rows in (
    [[120, 12], [60, 1]],
    [[30240, 3360, 30], [15120, 420, 1]],
    [[17297280, 1995840, 25200, 56], [8648640, 277200, 1512, 1]],
    [[17643225600, 2075673600, 30270240, 110880, 90],
     [8821612800, 302702400, 2162160, 3960, 1]],
    [[64764752532480000, 7771770303897600, 129060195264000, 670442572800],
     [32382376266240000, 1187353796428800, 10559470521600, 33522128640],
     [0, 1323241920, 960960, 182],
     [0, 40840800, 16380, 1]],
)]


def _pade(A: np.ndarray, i: int) -> np.ndarray:
    """The approximant of degree (3, 5, 7, 9, 13)[i] at a stack of matrices
    A, shape (N, d, d)."""
    rows = _PADE_ROWS[i]
    N, d = A.shape[0], A.shape[-1]
    powers = np.empty((N, rows.shape[1], d, d), dtype=A.dtype)
    powers[:, 0] = np.eye(d)
    np.matmul(A, A, out=powers[:, 1])
    for k in range(2, rows.shape[1]):
        np.matmul(powers[:, k - 1], powers[:, 1], out=powers[:, k])
    # one (rows, k) @ (k, d^2) product per matrix gives every sum at once
    sums = (rows @ powers.reshape(N, -1, d * d)).reshape(N, -1, d, d)
    even, odd = sums[:, 0], sums[:, 1]
    if len(rows) == 4:
        even = even + powers[:, -1] @ sums[:, 2]
        odd = odd + powers[:, -1] @ sums[:, 3]
    U = A @ odd
    return np.linalg.solve(even - U, even + U)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential over the last two axes; batched, real or complex.

    Scaling and squaring with a diagonal Pade approximant (N. J. Higham,
    "The scaling and squaring method for the matrix exponential revisited",
    SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193).  Each matrix gets the
    lowest degree m in (3, 5, 7, 9, 13) whose theta_m bounds its 1-norm;
    beyond theta_13 it is scaled by 2^-s into that bound, approximated at
    degree 13 and squared s times.  Degree and scaling are chosen per
    matrix, so a batch equals its single calls bit for bit.
    """
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected square matrices on the last two axes, "
                         f"got shape {A.shape}")
    X = A.reshape((-1,) + A.shape[-2:]).astype(
        np.result_type(A.dtype, float), copy=False)
    norm = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    degree = np.searchsorted(_PADE_THETA[:-1], norm)
    used = set(degree.tolist())
    top = len(_PADE_THETA) - 1
    if top in used:
        # the least s >= 0 with norm / 2^s <= theta_13, exactly, by frexp
        frac, exp2 = np.frexp(norm / _PADE_THETA[-1])
        s = np.where(degree == top, np.maximum(exp2 - (frac == 0.5), 0), 0)
        X = X * np.ldexp(1.0, -s)[:, None, None]
    X = X.copy()  # astype(copy=False) may alias A
    for i in used:
        sel = degree == i
        X[sel] = _pade(X[sel], i)
    if top in used:
        for k in range(s.max()):
            sel = s > k
            X[sel] = X[sel] @ X[sel]
    return X.reshape(A.shape)


def unbatch(x):
    """A 0-d result as a Python scalar, so single-element calls keep their types."""
    return x.item() if np.ndim(x) == 0 else x


def _first_failure(bad):
    """Index of the first True entry of bad in C order, or None."""
    bad = np.asarray(bad)
    return tuple(np.argwhere(bad)[0]) if bad.any() else None


def _amax(x: np.ndarray) -> np.ndarray:
    """Max-norm of each matrix over the last two axes."""
    return np.abs(x).max(axis=(-2, -1))


def _T(A: np.ndarray) -> np.ndarray:
    return np.swapaxes(A, -1, -2)


def _H(K: np.ndarray) -> np.ndarray:
    return np.swapaxes(K, -1, -2).conj()


@dataclass(frozen=True, eq=False)
class SymplecticModel:
    """Fixed data of the model space: dimension, hbar, Omega and j matrices."""

    n: int
    hbar: float
    Omega: np.ndarray
    j: np.ndarray


def standard_model(n: int, hbar: float = 1.0) -> SymplecticModel:
    """Standard model on R^{2n}: Omega = [[0,I],[-I,0]], j = [[0,-I],[I,0]]."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be positive and finite, not {hbar}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    Omega = np.block([[zero, eye], [-eye, zero]])
    j = np.block([[zero, -eye], [eye, zero]])
    return SymplecticModel(n=n, hbar=float(hbar), Omega=Omega, j=j)


def omega_form(model: SymplecticModel, v: np.ndarray, w: np.ndarray):
    """Symplectic pairing Omega(v, w) = v^T Omega w."""
    return v @ model.Omega @ w


def metric_form(model: SymplecticModel, v: np.ndarray, w: np.ndarray):
    """Riemannian pairing g(v, w) with g = Omega j."""
    return v @ model.Omega @ (model.j @ w)


def hermitean_form(model: SymplecticModel, v: np.ndarray, w: np.ndarray) -> complex:
    """Hermitean pairing <v, w> = Omega(v, jw) - i Omega(v, w).

    Complex-linear in v, antilinear in w, positive definite; the real basis
    e_1 .. e_n is orthonormal for it.
    """
    ow = model.Omega @ w
    return complex(v @ (model.Omega @ (model.j @ w)) - 1j * (v @ ow))


def vec_to_complex(model: SymplecticModel, v: np.ndarray) -> np.ndarray:
    """Complex coordinates z_k = x_k + i y_k of a real vector (or batch)."""
    n = model.n
    if np.shape(v)[-1:] != (2 * n,):
        raise ValueError(f"expected real vectors of length 2n = {2 * n} on the last "
                         f"axis, got shape {np.shape(v)}")
    return v[..., :n] + 1j * v[..., n:]


def vec_from_complex(model: SymplecticModel, z: np.ndarray) -> np.ndarray:
    """Real vector with complex coordinates z (inverse of vec_to_complex)."""
    return np.concatenate([z.real, z.imag], axis=-1)


def complex_matrix(model: SymplecticModel, A: np.ndarray, check: bool = True) -> np.ndarray:
    """n x n complex matrix of a j-linear real map (z -> K z); batched."""
    n = model.n
    if check:
        comm = A @ model.j - model.j @ A
        if np.any(_amax(comm) > ATOL_STRUCT * np.maximum(1.0, _amax(A))):
            raise ValueError("matrix does not commute with j")
    return A[..., :n, :n] + 1j * A[..., n:, :n]


def real_matrix(model: SymplecticModel, K: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form [[P,-Q],[Q,P]] of a complex n x n matrix K = P + iQ."""
    P, Q = K.real, K.imag
    return np.block([[P, -Q], [Q, P]])


def antilinear_matrix(model: SymplecticModel, Z: np.ndarray, check: bool = True) -> np.ndarray:
    """n x n complex matrix of a j-antilinear map (z -> W conj(z)); batched."""
    n = model.n
    if check:
        anti = Z @ model.j + model.j @ Z
        if np.any(_amax(anti) > ATOL_STRUCT * np.maximum(1.0, _amax(Z))):
            raise ValueError("matrix does not anticommute with j")
    return Z[..., :n, :n] + 1j * Z[..., :n, n:]


def antilinear_real(model: SymplecticModel, W: np.ndarray) -> np.ndarray:
    """Real 2n x 2n form [[R,S],[S,-R]] of an antilinear map z -> W conj(z)."""
    R, S = W.real, W.imag
    return np.block([[R, S], [S, -R]])


def linear_part(model: SymplecticModel, A: np.ndarray) -> np.ndarray:
    """j-linear part (A - jAj)/2 of a real map."""
    return 0.5 * (A - model.j @ A @ model.j)


def antilinear_part(model: SymplecticModel, A: np.ndarray) -> np.ndarray:
    """j-antilinear part (A + jAj)/2 of a real map."""
    return 0.5 * (A + model.j @ A @ model.j)


def j_adjoint(model: SymplecticModel, A: np.ndarray) -> np.ndarray:
    """Adjoint of a j-linear map for the Hermitean pairing, as a real matrix."""
    return real_matrix(model, _H(complex_matrix(model, A)))


def sp_residual(model: SymplecticModel, g: np.ndarray):
    """Max-norm residual of the symplectic condition g^T Omega g = Omega."""
    return unbatch(_amax(_T(g) @ model.Omega @ g - model.Omega))


def is_symplectic(model: SymplecticModel, g: np.ndarray, tol: float = ATOL_STRUCT):
    return unbatch(np.asarray(sp_residual(model, g)) <= tol)


def u_residual(model: SymplecticModel, k: np.ndarray) -> float:
    """Residual of membership in U(n) = Sp cap GL(V, j)."""
    return max(sp_residual(model, k), float(np.abs(k @ model.j - model.j @ k).max()))


def sp_algebra_residual(model: SymplecticModel, xi: np.ndarray) -> float:
    """Residual of the Lie algebra condition xi^T Omega + Omega xi = 0."""
    return float(np.abs(xi.T @ model.Omega + model.Omega @ xi).max())


def random_sp(model: SymplecticModel, rng: np.random.Generator, scale: float = 0.35,
              shape: tuple = ()) -> np.ndarray:
    """Random symplectic matrices exp(Omega^{-1} S), S symmetric Gaussian.

    A batch of the given shape makes consecutive single draws in C order.
    """
    d = 2 * model.n
    X = rng.standard_normal(tuple(shape) + (d, d))
    return expm(sp_algebra_from_gaussian(model, X, scale))


def random_sp_algebra(model: SymplecticModel, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random element of sp(2n, R): Omega^{-1} S with S symmetric."""
    d = 2 * model.n
    return sp_algebra_from_gaussian(model, rng.standard_normal((d, d)), scale)


def sp_algebra_from_gaussian(model: SymplecticModel, X: np.ndarray, scale: float) -> np.ndarray:
    """Omega^{-1} S with S = scale (X + X^T)/2: what the random generators make
    of Gaussian draws X; batched."""
    return np.linalg.solve(model.Omega, scale * (X + _T(X)) / 2.0)


def random_u_algebra(model: SymplecticModel, rng: np.random.Generator) -> np.ndarray:
    """Random element of u(n) inside sp(2n, R): the real form of (K - K^H)/2,
    with K = X + iY for Gaussian n x n matrices X, then Y.  expm of it is a
    random element of U(n) inside Sp(2n, R)."""
    n = model.n
    K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return real_matrix(model, 0.5 * (K - K.conj().T))


# ---------------------------------------------------------------------------
# (C, Z) decomposition and the Siegel domain


@dataclass(frozen=True, eq=False)
class CZPair:
    """Factorization data g = C (1 + Z): C j-linear, Z j-antilinear.

    Both stored as real matrices of shape S + (2n, 2n), S the batch shape;
    indexing a pair indexes S.  Valid pairs satisfy 1 - Z^2 = (C* C)^{-1} and
    Z lies in the generalized unit disc.
    """

    C: np.ndarray
    Z: np.ndarray

    def __getitem__(self, idx) -> "CZPair":
        return CZPair(C=self.C[idx], Z=self.Z[idx])


def siegel_check(model: SymplecticModel, Z: np.ndarray):
    """Membership test for the generalized unit disc.

    Checks (i) j-antilinearity, (ii) symmetry of <v, Zw> as a bilinear form,
    (iii) positivity of 1 - Z^2, each to ATOL_STRUCT.  Returns (ok, diagnostics)
    where diagnostics holds the anticommutator residual, the symmetry defect of
    the coordinate matrix W, and the smallest eigenvalue of the Hermitean part
    of 1 - W Wbar; each has the batch shape of Z.
    """
    anti = unbatch(_amax(Z @ model.j + model.j @ Z))
    W = antilinear_matrix(model, Z, check=False)
    sym = unbatch(_amax(W - _T(W)))
    mineig = hermitean_min_eig(np.eye(model.n) - W @ W.conj())
    ok = (anti <= ATOL_STRUCT) & (sym <= ATOL_STRUCT) & (mineig > ATOL_STRUCT)
    return ok, {"anticommutator": anti, "symmetry": sym, "min_eig_one_minus_zsq": mineig}


def make_cz_pair(model: SymplecticModel, C: np.ndarray, Z: np.ndarray) -> CZPair:
    """Build a CZPair, verifying the compatibility relation 1 - Z^2 = (C* C)^{-1}."""
    ok, diag = siegel_check(model, Z)
    bad = _first_failure(np.logical_not(ok))
    if bad is not None:
        diag = {key: unbatch(np.asarray(val)[bad]) for key, val in diag.items()}
        raise ValueError(f"Z outside the generalized unit disc: {diag}")
    K = complex_matrix(model, C)
    W = antilinear_matrix(model, Z, check=False)
    lhs = np.eye(model.n) - W @ W.conj()
    rhs = np.linalg.inv(_H(K) @ K)
    if np.any(_amax(lhs - rhs) > ATOL_STRUCT * np.maximum(1.0, _amax(rhs))):
        raise ValueError("incompatible (C, Z): 1 - Z^2 != (C* C)^{-1}")
    return CZPair(C=C, Z=Z)


def cz_decompose(model: SymplecticModel, g: np.ndarray) -> CZPair:
    """Split a symplectic g into g = C_g (1 + Z_g)."""
    residual = np.asarray(sp_residual(model, g))
    bad = _first_failure(np.logical_not(residual <= ATOL_STRUCT))
    if bad is not None:
        raise ValueError(f"matrix is not symplectic (residual {residual[bad]:.3e})")
    C = linear_part(model, g)
    D = antilinear_part(model, g)
    Z = np.linalg.solve(C, D)
    return make_cz_pair(model, C, Z)


def cz_compose(model: SymplecticModel, pair: CZPair) -> np.ndarray:
    """Reassemble the symplectic matrix g = C (1 + Z) from its pair."""
    g = pair.C @ (np.eye(2 * model.n) + pair.Z)
    if not np.all(is_symplectic(model, g, tol=1e-8)):
        raise ValueError("pair does not assemble to a symplectic matrix")
    return g


def inverse_z(pair: CZPair) -> np.ndarray:
    """Z_{g^{-1}} = -C_g Z_g C_g^{-1}, solving against C^T on the right."""
    return -pair.C @ _T(np.linalg.solve(_T(pair.C), _T(pair.Z)))


def cz_inverse(model: SymplecticModel, pair: CZPair) -> CZPair:
    """Pair of g^{-1}: C_{g^{-1}} = C_g^*, Z_{g^{-1}} = -C_g Z_g C_g^{-1}."""
    return make_cz_pair(model, j_adjoint(model, pair.C), inverse_z(pair))


def cz_product(model: SymplecticModel, p1: CZPair, p2: CZPair) -> CZPair:
    """Pair of the product g1 g2 computed without leaving (C, Z) data.

    With Zm = Z_{g2^{-1}} and M = 1 - Z_{g1} Zm (always invertible with
    positive Hermitean part when both factors lie in the disc):
        C_{g1g2} = C_{g1} M C_{g2}
        Z_{g1g2} = C_{g2}^{-1} M^{-1} (Z_{g1} - Zm) C_{g2}
    """
    Zm = inverse_z(p2)
    M = np.eye(2 * model.n) - p1.Z @ Zm
    C12 = p1.C @ M @ p2.C
    inner = np.linalg.solve(M, p1.Z - Zm)
    Z12 = np.linalg.solve(p2.C, inner @ p2.C)
    return make_cz_pair(model, C12, Z12)


# ---------------------------------------------------------------------------
# Smooth logarithm of the complex determinant


def hermitean_min_eig(K: np.ndarray):
    """Smallest eigenvalue of the Hermitean part (K + K^H)/2; batched."""
    return unbatch(np.linalg.eigvalsh((K + _H(K)) / 2.0).min(axis=-1))


def smooth_log_det(model: SymplecticModel, A: np.ndarray):
    """The analytic branch a(g) of log det_C on maps with positive Hermitean part.

    Accepts either the real 2n x 2n form of a j-linear map or its n x n
    complex matrix, with leading batch axes.  Equals the sum of principal
    logarithms of the complex eigenvalues; this is the unique continuous
    branch with a(1) = 0 on the (convex, hence simply connected) set where the
    Hermitean part is positive definite, because every eigenvalue stays in the
    open right half-plane.
    """
    if A.shape[-2:] == (2 * model.n, 2 * model.n):
        K = complex_matrix(model, A)
    elif A.shape[-2:] == (model.n, model.n):
        K = np.asarray(A, dtype=complex)
    else:
        raise ValueError(f"bad shape {A.shape} for smooth_log_det")
    if np.any(hermitean_min_eig(K) <= 0):
        raise ValueError("Hermitean part is not positive definite; a(g) undefined here")
    return unbatch(np.sum(np.log(np.linalg.eigvals(K)), axis=-1))
