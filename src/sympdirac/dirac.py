"""Symplectic Dirac operators on the flat torus.

Field sections take values in the truncated Fock fiber; the connection
supplies the spinor derivative nabla_b.  The four first-order operators
contract fiber multiplication/derivation against the symplectically dual
frame:

    D   = sum_i Cl(e_i) nabla_{e^i}         (Cl = creation - annihilation)
    Dt  = sum_i Cl(J e_i) nabla_{e^i}
    D'  = sum_i C(e_i) nabla_{e^i}          (degree +1)
    D'' = -sum_i A(e_i) nabla_{e^i}         (degree -1)

so D = D' + D'' and Dt = -i D' + i D''.  The second-order operator
P = 2[D', D''] = i[Dt, D] preserves degree; on a flat torsion-free
background its plane-wave eigenvalues are -|k|^2_g / hbar.

All formulas below use the constant coordinate frame, whose symplectic
dual is e^j = -sum_k w^{jk} e_k with (w^{jk}) inverse to the constant
symplectic matrix; frame independence is exercised through the generic
frame entry point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from . import fock as fk
from . import geometry as ge
from . import symplinalg as sl
from .geometry import Connection, SpinorField, TorusModel
from .symplinalg import SymplecticModel


@dataclass(frozen=True, eq=False)
class DiracContext:
    """Connection plus precomputed fiber data for the Dirac operators."""

    conn: Connection
    basis: fk.FockBasis
    action: ge.FiberAction  # the connection's fiber action, row-sparse
    # operator name -> (2n, F, F) stack X, the operator being
    # sum_i X[i] nabla_{e^i} in any frame e_i; contract holds the same
    # operators on the coordinate frame, as stacks multiplying nabla_k
    fiber: dict
    contract: dict
    # name -> ge.DegreeReach of contract[name], and "A" -> of fiber["Ds"]
    reach: dict
    tau: np.ndarray        # grid + (2n,)
    jtau: np.ndarray
    ginv: np.ndarray       # inverse metric on the coordinate frame
    weights: np.ndarray    # (F,) fock.norm_weights, the fiber pairing

    @property
    def torus(self) -> TorusModel:
        return self.conn.torus

    @property
    def model(self) -> SymplecticModel:
        return self.conn.torus.model

    @cached_property
    def p_hat(self) -> tuple:
        """Fourier tables of A^p, A^s and [A^p, A^s], for the spectral blocks.

        A^X(x) = sum_b contract[X][b] L_b(x), X = Dp (p) or Ds (s), with L_b
        the fiber action of direction b.  Returns (table, where): table[m, e]
        is the coefficient of flat grid mode m (row major, FFT order) of
        entry e, and where[t, i, j] the entry holding fiber entry (i, j) of
        A^p (t = 0), A^s (t = 1) or [A^p, A^s] (t = 2).  Only the entries
        that the terms of ctx.action can make non-zero are built and
        transformed, in one call; where sends every other (i, j) to the last
        column of table, which is zero.  Built on first use, so one transform
        serves every spectrum and symbol_check on this context.
        """
        act, torus = self.action, self.torus
        F = act.cols.shape[0]
        weights, keep, x, y, target = self._pattern
        del vars(self)["_pattern"]  # the table is all a spectrum needs later
        # the real coefficient fields as flat grid rows x (2n, terms), times
        # the real and imaginary parts of the weights: one real gemm
        P = torus.grid_size ** torus.dim
        terms = np.moveaxis(act.terms.reshape(torus.dim, P, -1), 0, 1)
        entries = (terms.reshape(P, -1) @ np.ascontiguousarray(
            weights[:, keep]).view(float)).view(complex)
        del terms
        # [A^p, A^s] from the products A^X[i, h] A^Y[h, j] of entries of
        # different tables, A^s A^p with a minus sign, summed per (i, j)
        prods = entries[:, x]
        prods *= entries[:, y]
        prods *= np.where(keep[x] < F * F, 1.0, -1.0)
        comm, starts = np.unique(target, return_index=True)
        # the entries, their commutators and a zero column, stacked
        # grid-major, so the transform's result is the table itself
        E, C = len(keep), len(comm)
        stacked = np.zeros((P, E + C + 1), dtype=complex)
        stacked[:, :E] = entries
        del entries
        stacked[:, E:-1] = np.add.reduceat(prods, starts, axis=1)
        del prods
        where = np.full(3 * F * F, E + C)
        where[np.append(keep, 2 * F * F + comm)] = np.arange(E + C)
        table = ge.mode_coefficients(
            torus, stacked.reshape(torus.grid_shape + (-1,)))
        return table.reshape(len(stacked), -1), where.reshape(3, F, F)

    @cached_property
    def curvature_diffs(self) -> dict:
        """form -> the antisymmetrised curvature prefactors M[l, s] - M[s, l]
        of that form, (2n, 2n, F, F), made on first use."""
        diffs = {}
        for form in ("ca", "clcl"):
            M = _curvature_prefactors(self, form)
            diffs[form] = M - np.swapaxes(M, 0, 1)
        return diffs

    @cached_property
    def curvature_reach(self) -> dict:
        """form -> ge.DegreeReach of curvature_diffs[form], made on first
        use."""
        patterns = [(M != 0).any(axis=(0, 1))
                    for M in self.curvature_diffs.values()]
        return dict(zip(self.curvature_diffs, ge.degree_reach(
            self.basis.degrees, np.stack(patterns))))

    @cached_property
    def _pattern(self) -> tuple:
        """_p_hat_pattern of this context, made once for the estimate of
        p_hat's bytes and its build, which lets it go."""
        return _p_hat_pattern(self)


def _p_hat_pattern(ctx: DiracContext) -> tuple:
    """The fiber entries of ctx.p_hat, from the terms of ctx.action.

    Returns (weights, keep, x, y, target): weights[(b, q), (t, i, j)] is
    (S^t_b T_q)[i, j], the coefficient of term q of direction b in entry
    (i, j) of A^p (t = 0) or A^s (t = 1), with S^t = ctx.contract["Dp"] or
    ["Ds"] and T = ctx.action.tensors; keep lists the entries some term
    reaches; and the commutator entry target[m] = i F + j sums the products
    keep[x[m]] keep[y[m]] of entries (t, i, h) and (1 - t, h, j), with a
    minus sign for t = 1, sorted by target.  No array here has a grid axis.
    """
    F = ctx.basis.dim
    S = np.stack([ctx.contract["Dp"], ctx.contract["Ds"]])[:, :, None]
    weights = np.moveaxis(S @ ctx.action.tensors, 0, 2).reshape(-1, 2 * F * F)
    keep = np.flatnonzero(weights.any(axis=0))
    t, i, j = np.unravel_index(keep, (2, F, F))
    x, y = np.nonzero((j[:, None] == i) & (t[:, None] != t))
    target = i[x] * F + j[y]
    order = np.argsort(target, kind="stable")
    return weights, keep, x[order], y[order], target[order]


def _p_hat_build_bytes(ctx: DiracContext) -> int:
    """Peak bytes of building ctx.p_hat, bounded from ctx.action's terms.

    Counted in grid-sized real arrays, a complex one counting twice: W real
    term rows (2n per term), and complex arrays of E kept entries, X entry
    products, C commutator entries and S = E + C + 1 table columns.  The
    build holds at most W + 2E of them while it contracts the terms (a
    grid-major copy of them), 2E + 4X while it multiplies, 2E + 2X + 2S and
    then 2X + 2C + 2S while it stacks, and 6S while it transforms (the
    stacked entries and two FFT buffers, the last of which is the table).
    The weights and the copy of their kept columns, the int64 index arrays
    (E + 3X + 2C + 3F^2 entries) and 8 KiB of FFT scratch (3.7 KB measured
    at n = 1) come on top.
    """
    weights, keep, x, _, target = ctx._pattern
    W, E, X, C = len(weights), len(keep), len(x), len(np.unique(target))
    S = E + C + 1
    arrays = max(W + 2 * E, 2 * (E + 2 * X), 2 * (E + X + S),
                 2 * (X + C + S), 6 * S)
    return (8 * ctx.torus.grid_size ** ctx.torus.dim * arrays
            + 2 * weights.nbytes
            + 8 * (E + 3 * X + 2 * C + 3 * ctx.basis.dim ** 2) + 8 * 2 ** 10)


def make_context(conn: Connection, basis: fk.FockBasis) -> DiracContext:
    m = conn.torus.model
    if basis.n != m.n:
        raise ValueError("fiber basis and torus model disagree on n")
    # creation C(e_b) and annihilation A(e_b) on the coordinate vectors, from
    # the ladders and the complex coordinates of e_b; Cl = C - A
    E = sl.vec_to_complex(m, np.eye(2 * m.n))
    R, L = fk.ladder_ops(basis.n, basis.max_degree)
    Dp = np.tensordot(E.conj() / (2.0 * m.hbar), R, axes=1)
    A = np.tensordot(E, L, axes=1)
    cl = Dp - A
    fiber = {
        "D": cl,
        "Dt": np.einsum("ci,cFG->iFG", m.j, cl),  # Clifford action of J e_i
        "Dp": Dp,
        "Ds": -A,
    }
    Om = m.Omega
    tau = ge.tau_field(conn).real
    # coordinate dual frame: e^i = sum_k Omega[i, k] e_k
    contract = {name: np.einsum("ik,iFG->kFG", Om, stack)
                for name, stack in fiber.items()}
    return DiracContext(
        conn=conn,
        basis=basis,
        action=ge.fiber_action(conn, basis),
        fiber=fiber,
        contract=contract,
        reach=dict(zip(list(contract) + ["A"], ge.degree_reach(
            basis.degrees, np.stack([(stack != 0).any(axis=0) for stack in
                                     [*contract.values(), fiber["Ds"]]])))),
        tau=tau,
        jtau=np.einsum("ij,...j->...i", m.j, tau),
        ginv=np.linalg.inv(Om @ m.j),
        weights=fk.norm_weights(m, basis),
    )


# ---------------------------------------------------------------------------
# kernels on degree windows
#
# The fiber basis is ordered by degree, so the Fock degrees a section
# occupies are one column slice of its grid + (F,) values: its window.
# Each public operator finds the window of its input, and every kernel
# below takes a windowed field as the pair (cols, vals), vals of shape
# batch + grid + (w,) holding the columns cols, and returns the pair of its
# result.  The batch axes lead and may be none: a single field is the empty
# batch, on the same code.  A batch runs on the union of its members'
# windows, one column slice, and each member comes out bit for bit as its
# single call: the extra columns are exact zeros.  The window of a result
# is read from the non-zero patterns of what acts, clipped to the fiber:
# ge.nabla_window for the covariant derivative, ctx.reach for the contract
# stacks and A, ctx.curvature_reach for the curvature prefactors; the full
# fiber is the widest window.  A constant fiber matrix acts on a whole
# batch as one matmul whose points axis, batch included, leads, and each
# operator computes the first covariant derivatives of its input once,
# sharing them between every term that needs them.


def _on_window(ctx: DiracContext, psi: SpinorField) -> tuple:
    """psi as a windowed field: the columns of the degrees it occupies, for
    a batch the degrees some member occupies."""
    vals = ge.spinor_values(psi, ctx.torus, ctx.basis)
    cols = ctx.action.reach.field_window(vals)
    return cols, np.ascontiguousarray(vals[..., cols], dtype=complex)


def _full(ctx: DiracContext, cols: slice, vals: np.ndarray) -> np.ndarray:
    """A windowed field (or stack) at full width, exact zeros off cols; the
    kernels' results are fresh arrays, so a full window is kept as it is."""
    if cols == slice(0, ctx.basis.dim):
        return vals
    out = np.zeros(vals.shape[:-1] + (ctx.basis.dim,), dtype=complex)
    out[..., cols] = vals
    return out


def _widen(vals: np.ndarray, cols: slice, out: slice) -> np.ndarray:
    """Field values on cols carried to the window out, which holds cols;
    vals itself when the two windows agree."""
    if cols == out:
        return vals
    wide = np.zeros(vals.shape[:-1] + (out.stop - out.start,), dtype=complex)
    wide[..., cols.start - out.start:cols.stop - out.start] = vals
    return wide


def _add(a: tuple, b: tuple, sign: float = 1.0) -> tuple:
    """a + sign b for windowed fields, on the union of their windows; a's
    values are reused (and overwritten) when its window holds b's."""
    (ca, va), (cb, vb) = a, b
    if ca.start == ca.stop or cb.start == cb.stop:
        cols = cb if ca.start == ca.stop else ca
    else:
        cols = slice(min(ca.start, cb.start), max(ca.stop, cb.stop))
    out = _widen(va, ca, cols)
    part = out[..., cb.start - cols.start:cb.stop - cols.start]
    (np.add if sign > 0 else np.subtract)(part, vb, out=part)
    return cols, out


def _apply(S: np.ndarray, vals: np.ndarray, cols: slice,
           out: slice) -> np.ndarray:
    """The constant fiber matrix S, or each of a stack of them, at every
    point of a field (or batch) on the window cols, kept on the window out,
    which must hold the window of S applied to cols: one (points, w) @
    (w, w') gemm, the batch merged into the points.  A stack gives a stack
    of fields."""
    sub = S[..., out, cols].swapaxes(-1, -2)
    points = vals.shape[:-1]
    flat = vals.reshape(math.prod(points), cols.stop - cols.start)
    return (flat @ sub).reshape(sub.shape[:-2] + points + sub.shape[-1:])


def _derivs(ctx: DiracContext, cols: slice, vals: np.ndarray) -> tuple:
    """(window, nabla_0 vals, ..., nabla_{2n-1} vals): the derivatives of a
    windowed field, yielded one at a time from one gather of each
    off-diagonal slot of the fiber action."""
    return (ge.nabla_window(ctx.action, cols),
            ge.cov_derivs(ctx.torus, ctx.action, vals, range(ctx.torus.dim),
                          cols))


def _first_order(ctx: DiracContext, cols: slice, grads, *names: str) -> list:
    """sum_k contract[name][k] nabla_k psi for each name, windowed.

    grads holds or yields nabla_0 psi, ..., nabla_{2n-1} psi on the window
    cols, and each name's result comes on the window of its contract stack
    applied to cols, so each product is a (points, w) @ (w, w') gemm.  Each
    derivative serves every name as it arrives and is let go before the
    next one is made (enumerate's result tuple would keep it), so a
    generator of them never holds more than one.
    """
    wins = [ctx.reach[name].window(cols) for name in names]
    outs, k = [], 0
    for grad in grads:
        for i, name in enumerate(names):
            term = _apply(ctx.contract[name][k], grad, cols, wins[i])
            if k == 0:
                outs.append(term)
            else:
                outs[i] += term
        del grad
        k += 1
    return list(zip(wins, outs))


def _dirac_vals(ctx: DiracContext, cols: slice, vals: np.ndarray,
                name: str) -> tuple:
    return _first_order(ctx, *_derivs(ctx, cols, vals), name)[0]


def _p_vals(ctx: DiracContext, ds: tuple, dp: tuple) -> tuple:
    """2[D', D''] psi from the windowed fields ds = D'' psi and dp = D' psi,
    which _first_order makes in one pass over the derivatives of psi.
    """
    cols, out = _add(_dirac_vals(ctx, *ds, "Dp"), _dirac_vals(ctx, *dp, "Ds"),
                     -1.0)
    out *= 2.0
    return cols, out


def _wrap(ctx: DiracContext, cols: slice, vals: np.ndarray) -> SpinorField:
    return SpinorField(torus=ctx.torus, basis=ctx.basis,
                       values=_full(ctx, cols, vals))


def _along(stack: np.ndarray, X) -> np.ndarray:
    """sum_b X^b stack[b] for a (2n,) + batch + grid + (w,) stack and a
    vector X, constant (2n,) or a field grid + (2n,) that every member
    shares; on the stack of nabla_full this is nabla_X psi.

    A real X, as every caller's is, is one real contraction over b on the
    float view of the stack; a complex X is X.real + i X.imag, two of them.
    """
    X = np.asarray(X)
    if np.iscomplexobj(X):
        return _along(stack, X.real) + 1j * _along(stack, X.imag)
    stack = np.ascontiguousarray(stack, dtype=complex)
    d = len(stack)
    # X as (2n, p): p grid points, or one point shared by every point
    X = X.reshape(-1, d).T
    m = math.prod(stack.shape[1:-1]) // X.shape[1]
    flat = stack.view(float).reshape(d, m, X.shape[1], 2 * stack.shape[-1])
    out = np.einsum("bp,bmpw->mpw", X, flat)
    return out.view(complex).reshape(stack.shape[1:])


def nabla_dir(ctx: DiracContext, psi: SpinorField, X: np.ndarray) -> SpinorField:
    """nabla_X psi for a constant vector or vector field X (grid + (2n,)),
    the same X for every member of a batch."""
    d = ctx.torus.dim
    if np.shape(X) not in ((d,), ctx.torus.grid_shape + (d,)):
        raise ValueError(f"X has shape {np.shape(X)}, not (2n,) or grid +"
                         f" (2n,) with 2n = {d}")
    cols, grads = _nabla_stack(ctx, *_on_window(ctx, psi))
    return _wrap(ctx, cols, _along(grads, X))


def dirac_D(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    return _wrap(ctx, *_dirac_vals(ctx, *_on_window(ctx, psi), "D"))


def dirac_Dtilde(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    return _wrap(ctx, *_dirac_vals(ctx, *_on_window(ctx, psi), "Dt"))


def dirac_Dprime(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    return _wrap(ctx, *_dirac_vals(ctx, *_on_window(ctx, psi), "Dp"))


def dirac_Dsecond(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    return _wrap(ctx, *_dirac_vals(ctx, *_on_window(ctx, psi), "Ds"))


def P_op(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    """P = 2[D', D'']; degree-preserving and second order."""
    grads = _derivs(ctx, *_on_window(ctx, psi))
    return _wrap(ctx, *_p_vals(ctx, *_first_order(ctx, *grads, "Ds", "Dp")))


def dirac_via_frame(ctx: DiracContext, psi: SpinorField, frame: np.ndarray,
                    name: str) -> SpinorField:
    """Evaluate D/Dt/D'/D'' through an explicit (possibly varying) frame.

    frame holds the vectors e_i as columns, constant (2n, 2n) or a field
    grid + (2n, 2n) that every member of a batch shares; the symplectically
    dual frame weights the derivative.
    """
    dual = ge.dual_frame(ctx.torus, frame)
    # nabla_{e^i} psi for each dual frame vector, then the fiber stack at e_i
    grads = np.einsum("...bi,b...G->i...G", dual, nabla_full(ctx, psi))
    return SpinorField(torus=ctx.torus, basis=ctx.basis,
                       values=np.einsum("...bi,bFG,i...G->...F", frame,
                                        ctx.fiber[name], grads))


# ---------------------------------------------------------------------------
# inner products and adjoints


def _l2(ctx: DiracContext, a: tuple, b: tuple):
    """l2_inner of two windowed fields, summed over the columns they share:
    one value per member of their (broadcast) batch shape, a complex scalar
    for single fields.  Windows that share no column give zeros."""
    (ca, va), (cb, vb) = a, b
    start = max(ca.start, cb.start)
    cols = slice(start, max(start, min(ca.stop, cb.stop)))
    w = ctx.weights[cols]
    v1 = va[..., cols.start - ca.start:cols.stop - ca.start]
    v2 = vb[..., cols.start - cb.start:cols.stop - cb.start]
    dens = np.einsum("...F,F,...F->...", v1, w, v2.conj())
    grid = tuple(range(-ctx.torus.dim, 0))
    return (2.0 * np.pi) ** ctx.torus.dim * dens.mean(axis=grid)


def l2_inner(ctx: DiracContext, psi1: SpinorField, psi2: SpinorField):
    """Integral of the fiber pairing against the Liouville volume.

    Linear in the first argument; exact for band-limited integrands since
    the uniform grid mean integrates trig polynomials below the grid size.
    One value per member of a batch (the two batch shapes broadcast), a
    complex scalar for single fields.  Both fields are taken at full width,
    the widest window: finding their windows would cost as much as the sum.
    """
    full = slice(0, ctx.basis.dim)
    v1, v2 = (ge.spinor_values(p, ctx.torus, ctx.basis) for p in (psi1, psi2))
    return _l2(ctx, (full, v1), (full, v2))


def l2_norm(ctx: DiracContext, psi: SpinorField):
    """sqrt of l2_inner(psi, psi), one value per member of a batch."""
    return np.sqrt(np.maximum(l2_inner(ctx, psi, psi).real, 0.0))


def _norm(ctx: DiracContext, a: tuple):
    return np.sqrt(np.maximum(_l2(ctx, a, a).real, 0.0))


def oneform_inner(ctx: DiracContext, beta1: np.ndarray, beta2: np.ndarray):
    """Inner product of spinor-valued 1-forms, sum g^{ab} <beta_a, beta'_b>,
    each (2n,) + batch + grid + (F,): one value per member of a batch."""
    dens = np.einsum("ab,a...F,F,b...F->...", ctx.ginv, beta1, ctx.weights,
                     beta2.conj())
    grid = tuple(range(-ctx.torus.dim, 0))
    return (2.0 * np.pi) ** ctx.torus.dim * dens.mean(axis=grid)


def _nabla_stack(ctx: DiracContext, cols: slice, vals: np.ndarray) -> tuple:
    """All covariant derivatives of a windowed field, (2n,) + batch + grid +
    (w',)."""
    out_cols, derivs = _derivs(ctx, cols, vals)
    w = out_cols.stop - out_cols.start
    out = np.empty((ctx.torus.dim,) + vals.shape[:-1] + (w,), dtype=complex)
    # next() rather than a for loop, whose variable would hold each
    # direction while the next one is made
    for b in range(len(out)):
        out[b] = next(derivs)
    return out_cols, out


def nabla_full(ctx: DiracContext, psi: SpinorField) -> np.ndarray:
    """All covariant derivatives, shape (2n,) + batch + grid + (F,): the
    direction axis leads the field's own shape."""
    return _full(ctx, *_nabla_stack(ctx, *_on_window(ctx, psi)))


def _aj_tau(ctx: DiracContext, cols: slice, vals: np.ndarray) -> tuple:
    # Ds = -A
    out = ctx.reach["A"].window(cols)
    return out, _along(_apply(ctx.fiber["Ds"], vals, cols, out), -ctx.tau)


def aj_tau(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    """Fiber derivation along the torsion vector, A(tau) psi."""
    return _wrap(ctx, *_aj_tau(ctx, *_on_window(ctx, psi)))


def adjoint_residual(ctx: DiracContext, psi1: SpinorField,
                     psi2: SpinorField, relative: bool = False):
    """|<D' psi1, psi2> - <psi1, (D'' + A(tau)) psi2>|, one per member of a
    batch (the two batch shapes broadcast).

    relative divides each by the Cauchy-Schwarz bound ||D' psi1|| ||psi2||
    on |<D' psi1, psi2>|, from the same D' psi1; a zero bound keeps the
    gap, 0.
    """
    a, b = _on_window(ctx, psi1), _on_window(ctx, psi2)
    dp = _dirac_vals(ctx, *a, "Dp")
    rhs = _add(_dirac_vals(ctx, *b, "Ds"), _aj_tau(ctx, *b))
    gap = np.abs(_l2(ctx, dp, b) - _l2(ctx, a, rhs))
    if not relative:
        return gap
    bound = _norm(ctx, dp) * _norm(ctx, b)
    return gap / np.where(bound > 0, bound, 1.0)


def _nabla_star(ctx: DiracContext, cols: slice, beta: np.ndarray) -> tuple:
    """nabla_star of a windowed 1-form, beta of shape (2n,) + batch + grid +
    (w,)."""
    Gamma = ctx.conn.Gamma
    out_cols = ge.nabla_window(ctx.action, cols)
    at = slice(cols.start - out_cols.start, cols.stop - out_cols.start)
    out = _widen(_along(beta, ctx.jtau), cols, out_cols)
    for aa, bb in zip(*np.nonzero(ctx.ginv)):
        term = next(ge.cov_derivs(ctx.torus, ctx.action, beta[bb], (aa,),
                                  cols))
        term[..., at] -= _along(beta, Gamma[aa][..., :, bb])
        term *= ctx.ginv[aa, bb]
        out -= term
    return out_cols, out


def nabla_star(ctx: DiracContext, beta: np.ndarray) -> SpinorField:
    """Formal adjoint of nabla on spinor 1-forms.

    nabla* beta = -sum g^{ab} (nabla_a beta)(e_b) + beta(J tau), where
    (nabla_a beta)(e_b) = nabla_a(beta_b) - beta(Gamma_a e_b) on the
    coordinate frame.  Adjoint to nabla_full for unitary connections.  beta
    has the shape (2n,) + batch + grid + (F,) of nabla_full.
    """
    beta = np.asarray(beta, dtype=complex)
    cols = ctx.action.reach.field_window(beta)
    return _wrap(ctx, *_nabla_star(ctx, cols,
                                   np.ascontiguousarray(beta[..., cols])))


def laplacian(ctx: DiracContext, psi: SpinorField) -> SpinorField:
    """nabla* nabla psi = -g^{ab} nabla^2_{a,b} psi + nabla_{J tau} psi."""
    return _wrap(ctx, *_nabla_star(ctx, *_nabla_stack(
        ctx, *_on_window(ctx, psi))))


# ---------------------------------------------------------------------------
# curvature identity for the degree-preserving operator


def _curvature_prefactors(ctx: DiracContext, form: str) -> np.ndarray:
    """Matrices M[l, s] multiplying R(e_l, e_s) - nabla_{T(e_l, e_s)}.

    form 'ca' uses -(1/2)(C(e_k) A(e_r) - A(e_k) C(e_r)) contracted with
    the inverse symplectic matrix on both index pairs; form 'clcl' the
    equivalent -(i/2) Cl(e_k) Cl(J e_r).  The overall sign follows from the
    operator algebra: commuting the two first-order operators produces
    -C(e_k) A(e_r) nabla^2_{e_l e_s} pairings, whose antisymmetric part in
    (l, s) is what survives against the curvature.
    """
    # w^{kl} = -Omega[k, l], so sum_k w^{kl} X(e_k) = -contract[X][l]; the
    # two signs in each product cancel
    c = ctx.contract
    if form == "ca":
        C, A = c["Dp"], -c["Ds"]
        coeff, left, right = -0.5, [C, A], [A, -C]
    elif form == "clcl":
        coeff, left, right = -0.5j, [c["D"]], [c["Dt"]]
    else:
        raise ValueError("form must be 'ca' or 'clcl'")
    return coeff * np.einsum("plFH,psHG->lsFG", left, right)


def _curvature_vals(ctx: DiracContext, cols: slice, grads: np.ndarray,
                    form: str) -> tuple:
    """The curvature term from the first derivatives grads on the window
    cols; the second derivatives come on ge.nabla_window(ctx.action, cols).

    R and T are antisymmetric in (l, s), so one pass over l < s applies
    M[l, s] - M[s, l], kept in ctx.curvature_diffs, and its window is read
    from those differences: the degree +/-2 blocks of the 'clcl' prefactors
    cancel in them exactly.
    """
    if form not in ctx.curvature_diffs:
        raise ValueError("form must be 'ca' or 'clcl'")
    M = ctx.curvature_diffs[form]
    inner = ge.nabla_window(ctx.action, cols)
    at = slice(cols.start - inner.start, cols.stop - inner.start)
    out_cols = ctx.curvature_reach[form].window(inner)
    out = np.zeros(grads.shape[1:-1] + (out_cols.stop - out_cols.start,),
                   dtype=complex)
    # R(e_l, e_s) psi reuses the first derivatives
    for l, s in combinations(range(ctx.torus.dim), 2):
        common = next(ge.cov_derivs(ctx.torus, ctx.action, grads[s], (l,),
                                    cols))
        common -= next(ge.cov_derivs(ctx.torus, ctx.action, grads[l], (s,),
                                     cols))
        common[..., at] -= _along(grads, ge.torsion_component(ctx.conn, l, s))
        out += _apply(M[l, s], common, inner, out_cols)
    return out_cols, out


def curvature_term(ctx: DiracContext, psi: SpinorField,
                   form: str) -> SpinorField:
    """sum_{l,s} M[l, s] (R(e_l, e_s) - nabla_{T(e_l, e_s)}) psi.

    The curvature-torsion part of the identity for [D', D''], with the
    prefactors M of form 'ca' or 'clcl'; both forms give the same term.
    """
    return _wrap(ctx, *_curvature_vals(
        ctx, *_nabla_stack(ctx, *_on_window(ctx, psi)), form))


def weitzenbock_residual(ctx: DiracContext, psi: SpinorField,
                         form: str = "ca") -> float:
    """Relative defect of the second-order identity for [D', D''].

    [D', D''] = -(1/2hbar) nabla* nabla + (1/2hbar) nabla_{J tau}
                - (1/2) sum w^{kl} w^{rs} (C(e_k) A(e_r) - A(e_k) C(e_r))
                        (R(e_l, e_s) - nabla_{T(e_l, e_s)})

    assembled from the independently implemented Laplacian, curvature and
    torsion, which share one nabla_full of psi, all on the degree window
    of psi; reliable for sections of degree <= max_degree - 2.  One value
    per member of a batch; a zero section gives its absolute defect, 0.
    """
    if not ctx.conn.unitary:
        raise ValueError("the curvature identity requires a unitary connection")
    hbar = ctx.model.hbar
    field = _on_window(ctx, psi)
    den = _norm(ctx, field)
    cols, grads = _nabla_stack(ctx, *field)
    del field
    # D'' psi and D' psi now, and [D', D''] from them once grads is let go
    first = _first_order(ctx, cols, grads, "Ds", "Dp")
    rhs = _nabla_star(ctx, cols, grads)
    rhs[1][...] *= -(0.5 / hbar)
    jtau = _along(grads, ctx.jtau)
    jtau *= 0.5 / hbar
    rhs = _add(rhs, (cols, jtau))
    del jtau
    rhs = _add(rhs, _curvature_vals(ctx, cols, grads, form))
    del grads
    comm = _p_vals(ctx, *first)
    comm[1][...] *= 0.5
    num = _norm(ctx, _add(comm, rhs, -1.0))
    return num / np.where(den > 0, den, 1.0)


# ---------------------------------------------------------------------------
# principal symbol and spectra


# the table entries _p_block gathers for one chunk of row modes take about
# this many bytes
_GATHER_BYTES = 2 ** 23


def _chunk_modes(n_modes: int, f: int, h: int) -> int:
    """Row modes per chunk of _p_block on n_modes modes and f fiber
    positions, h of them after D'' or D'.  Each mode pair gathers the f x f
    entries of [A^p, A^s]^ and the h x f entries of each of U and V."""
    return max(1, _GATHER_BYTES // (16 * n_modes * f * (f + 2 * h)))


def _p_block(ctx: DiracContext, modes: np.ndarray, fiber: np.ndarray,
             lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Pi P Pi = 2(D' D'' - D'' D') on (modes) x (fiber), mode major.

    modes are grid index tuples in FFT order, and lo and hi the fiber
    positions after D'' and after D' (the whole fiber when the connection
    is not unitary).  With S^X = ctx.contract[X], K^X(k) = sum_b k_b S^X_b
    and A^X as in ctx.p_hat, the Fourier matrix of sum_b S^X_b nabla_b has
    entry i K^X(k_c) delta_rc + A^X^(r - c); in a product of two of them
    each delta pins the intermediate mode, so

        (X Y)(r, c) = -K^X(k_r) K^Y(k_r) delta_rc + i K^X(k_r) A^Y^(r - c)
                      + i A^X^(r - c) K^Y(k_c) + (A^X A^Y)^(r - c).

    (A^X A^Y)^ transforms the pointwise product on the grid, which is the
    sum over every grid mode, aliasing included, so the block equals P
    applied on the grid.  The tables are gathered at (r - c) mod G for a
    chunk of row modes at a time.
    """
    table, where = ctx.p_hat
    torus, F = ctx.torus, ctx.basis.dim
    k = ge.wavenumbers(torus)[modes]
    Kp, Ks = ((k @ ctx.contract[name].reshape(torus.dim, -1)).reshape(-1, F, F)
              for name in ("Dp", "Ds"))
    # P(r, c) / 2 = [A^p, A^s]^ + i krow_r U + i V sign kcol_c
    #               - delta_rc krow_r kcol_r, all tables at r - c, with
    # U = [A^s^ on (lo, fiber); A^p^ on (hi, fiber)] and
    # V = [A^p^ on (fiber, lo) | A^s^ on (fiber, hi)]
    krow = np.concatenate([Kp[:, fiber][..., lo], -Ks[:, fiber][..., hi]], 2)
    kcol = np.concatenate([Ks[:, lo][..., fiber], Kp[:, hi][..., fiber]], 1)
    sign = np.repeat([1.0, -1.0], [len(lo), len(hi)])[:, None]
    ix = np.ix_
    u_at = np.concatenate([where[1][ix(lo, fiber)], where[0][ix(hi, fiber)]])
    v_at = np.concatenate([where[0][ix(fiber, lo)], where[1][ix(fiber, hi)]],
                          1)
    # the table entries each mode pair needs: [A^p, A^s]^, U and V
    sub = table[:, np.concatenate([where[2][ix(fiber, fiber)].ravel(),
                                   u_at.ravel(), v_at.ravel()])]
    R, f, h = len(modes), len(fiber), len(lo) + len(hi)
    out = np.empty((R, f, R, f), dtype=complex)
    step = _chunk_modes(R, f, h)
    for r0 in range(0, R, step):
        rows = np.arange(r0, min(r0 + step, R))
        # flat grid index of (r - c) mod G, (chunk rows, all columns)
        shift = np.ravel_multi_index(
            np.moveaxis((modes[rows, None] - modes[None]) % torus.grid_size,
                        -1, 0), torus.grid_shape)
        n = len(rows)
        pair = np.take(sub, shift, axis=0)
        U = pair[..., f * f:f * f + h * f].reshape(n, R, h, f)
        V = pair[..., f * f + h * f:].reshape(n, R, f, h)
        # krow_r U as one (f, h) @ (h, R f) product per row mode, and
        # V sign kcol_c as one (n f, h) @ (h, f) product per column mode
        by_row = krow[rows] @ U.transpose(0, 2, 1, 3).reshape(n, h, R * f)
        by_col = V.transpose(1, 0, 2, 3).reshape(R, n * f, h) @ (sign * kcol)
        part = pair[..., :f * f].reshape(n, R, f, f).transpose(0, 2, 1, 3)
        part = part + 1j * (by_row.reshape(n, f, R, f)
                            + by_col.reshape(R, n, f, f).transpose(1, 2, 0, 3))
        part[np.arange(n), :, rows] -= krow[rows] @ kcol[rows]
        out[rows] = part
    out *= 2.0
    return out.reshape(R * f, R * f)


def symbol_check(ctx: DiracContext, kvec) -> tuple:
    """Demodulated action of P on a plane wave versus its leading symbol.

    Returns (blocks, expected) where blocks[d] is the degree-d fiber matrix
    of exp(-ik.x) P exp(ik.x) averaged over the torus and expected is the
    scalar -g^{ab} k_a k_b / hbar.  The blocks are _p_block's on the one
    mode k and the whole fiber, so any connection is taken.  The gap is
    zero in the flat case; for a unitary connection the measured relative
    gap falls like 1/|k|^2, an O(1) absolute gap.  k must be integral, since
    exp(ik.x) is a field on the torus only then, and within the grid's
    Nyquist index, since the grid aliases any larger k to a lower mode.
    """
    torus = ctx.torus
    kvec = np.asarray(kvec, dtype=float)
    if kvec.shape != (torus.dim,) or not np.array_equal(kvec, np.round(kvec)):
        raise ValueError("kvec must be an integral vector of length 2n")
    if np.abs(kvec).max() > torus.nyquist:
        raise ValueError(f"kvec {kvec.astype(int).tolist()} passes the grid's"
                         f" Nyquist index {torus.nyquist}")
    mode = (kvec.astype(int) % torus.grid_size)[None]
    fiber = np.arange(ctx.basis.dim)
    full = _p_block(ctx, mode, fiber, fiber, fiber)
    blocks = []
    for d in range(ctx.basis.max_degree + 1):
        idx = np.nonzero(ctx.basis.degrees == d)[0]
        blocks.append(full[np.ix_(idx, idx)])
    expected = -float(kvec @ ctx.ginv @ kvec) / ctx.model.hbar
    return blocks, expected


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# real or imaginary parts of eigenvalues closer than this times the largest
# modulus count as equal when a spectrum is sorted
SORT_RTOL = 1e-9


def _sorted_eigenvalues(eig: np.ndarray) -> np.ndarray:
    """eig in ascending (real, imaginary) order, stable under rounding.

    Each part is replaced by the rank of its cluster: the sorted values of
    that part split wherever two neighbours differ by more than SORT_RTOL
    max |eig|.  Eigenvalues that agree to rounding in the real part then
    order by imaginary part, whichever way rounding went in an assembly;
    a tie in both clusters falls back to the exact parts.
    """
    if eig.size == 0:
        return eig
    tol = SORT_RTOL * np.abs(eig).max()

    def cluster(part):
        order = np.argsort(part, kind="stable")
        rank = np.empty(len(part), dtype=int)
        rank[order] = np.cumsum(np.diff(part[order], prepend=part[order[0]])
                                > tol)
        return rank

    return eig[np.lexsort((eig.imag, eig.real, cluster(eig.imag),
                           cluster(eig.real)))]


def _spectrum_bytes(ctx: DiracContext, R: int, f: int, h: int) -> int:
    """Bytes spectrum needs for the block on R modes and f fiber positions,
    h of them after D'' or D'.

    The block and the eigensolver's copy of it, one chunk's gathers with
    their index arrays, copies and products, and the solver's O(dim) work;
    plus the build of ctx.p_hat when this context has not built it yet.
    """
    need = 16 * (2 * (R * f) ** 2 + 64 * R * f
                 + 4 * _chunk_modes(R, f, h) * R * f * (f + 2 * h))
    if "p_hat" not in vars(ctx):
        need += _p_hat_build_bytes(ctx)
    return need


def spectrum(ctx: DiracContext, degree: int) -> np.ndarray:
    """Eigenvalues of P on the band-limited degree-(degree) block.

    The block is spanned by plane waves within the torus cutoff tensored
    with the degree-d fiber monomials (a Galerkin restriction; exact for
    connections within the band budget).  _p_block assembles it from the
    three Fourier tables of ctx.p_hat: A^p, A^s and their pointwise
    commutator, gathered at the mode differences, so it equals P applied
    on the grid.  The top fiber degree is excluded because the degree cap
    distorts [D', D''] there, and a non-unitary connection is refused
    because no single degree block is invariant.  Before assembling, the
    bytes of the block, its gathers, the eigensolver's copy of it and, on
    the context's first spectrum, the build of ctx.p_hat are estimated, and
    a block that would not fit the machine's physical memory is refused
    with ValueError.  The eigenvalues come sorted by _sorted_eigenvalues.
    """
    if not ctx.conn.unitary:
        raise ValueError("per-degree spectra need a unitary connection: P"
                         " couples degree d to d +/- 2 otherwise")
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)):
        raise ValueError(f"degree must be an integer, not {degree!r}")
    basis = ctx.basis
    if not 0 <= degree <= basis.max_degree - 1:
        raise ValueError("degree must be at most max_degree - 1 "
                         "(the top degree is distorted by truncation)")
    torus = ctx.torus
    k = ge.wavenumbers(torus)
    inside = np.nonzero(np.abs(k) <= torus.cutoff)[0]
    modes = np.array(list(product(inside, repeat=torus.dim)), dtype=int)
    # the unitary fiber action keeps degree, so D'' lands in degree d - 1
    # and D' in degree d + 1; every other fiber row is zero
    lo, fiber, hi = (np.nonzero(basis.degrees == degree + s)[0]
                     for s in (-1, 0, 1))
    R, f, h = len(modes), len(fiber), len(lo) + len(hi)
    need = _spectrum_bytes(ctx, R, f, h)
    have = _physical_memory()
    if need > have:
        raise ValueError(
            f"the degree-{degree} block of dimension {R * f} needs about"
            f" {need / 2 ** 20:,.0f} MiB, more than the {have / 2 ** 20:,.0f}"
            " MiB of physical memory")
    mat = _p_block(ctx, modes, fiber, lo, hi)
    return _sorted_eigenvalues(np.linalg.eigvals(mat))
