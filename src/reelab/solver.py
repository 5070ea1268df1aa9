"""Relative entropy of entanglement over the PPT set.

The minimization works on the convex objective f(rho) = S(sigma||rho).
For every supported total dimension (d <= 64) it follows the
logarithmic-barrier path of both positivity cones with damped Newton
steps (Boyd & Vandenberghe, Convex Optimization, 11.6), from a closed-form
strictly feasible mix of sigma with I/d, centring at each barrier weight
before cutting it twenty-fold; the first step after each cut follows the
tangent of that central path (a predictor step), so it lands near the new
centre instead of running into the cone boundary.  The backtracking line
search is the only feasibility test: it accepts a point only when the
eigenvalues of rho and rho^PT are all positive, so every iterate is
strictly inside both cones and the path needs no projection.  Each point
is decomposed once, into a _Point: the two eigh calls of its trial serve
the next Newton step.  The steps have one basis per solve.  A Hermitian
step Delta has d^2 real coordinates r = vec(Re Delta + Im Delta), in
which the Hessian H is the real symmetric K = Re H + Im(H F), F the
permutation that transposes vec, so each step costs O(d^5) to assemble K
from eigenframe factors with one fused complex product, made and folded
onto K one slab of A blocks at a time, and O(d^6) for one real bordered
solve of size d^2 + 1, at half the memory of the complex system.
Complex conjugation maps the PPT set to itself, so a sigma with no
imaginary part has a real optimum and a real path (Vollbrecht &
Werner, PRA 64, 062307 (2001)); its steps are real symmetric, with the
d(d+1)/2 coordinates of an orthonormal symmetric basis, and eigh, the
fused product and the bordered solve of size d(d+1)/2 + 1 all run in
real arithmetic.  The best iterate, the one of least value, gives an
upper bound; a Newton step, read as a primal-dual estimate of the PPT
multiplier, gives a weak-duality lower bound (Boyd & Vandenberghe, 5.9
and 11.7), and the gap between the best value and the best bound
certifies the solve.  The path stops once that gap is within _GAP_TOL;
bounds are taken only at centred points whose central-path gap 2d mu,
for barrier degree 2d (11.2.2), is already within it, since no earlier
bound can certify.

That gap forces the path down to mu near 1e-11, and its last weights
cost about 40% of an entangled solve's steps.  So at the first centred
point where rho^PT shows a clean kernel, k eigenvalues of order mu well
below the rest, the path polishes instead: Newton on the optimality
conditions G = nu I + (V Z V^H)^PT, V^H rho^PT V = 0 (Friedland & Gour,
J. Math. Phys. 52, 052201 (2011); Nocedal & Wright, ch. 18), which
converge quadratically from there.  Each polished rho is blended toward
I/d just past its PPT edge and certified by the same dual bound with the
multiplier V Z V^H; a polish that does not certify within
_POLISH_SYSTEMS systems hands back to the path at its centred point.

Two inputs skip the path.  The paper's bound
S(sigma||rho) >= S(sigma_A) - S(sigma) is attained on a pure sigma by
its state dephased in the Schmidt basis (Vedral & Plenio, PRA 57, 1619
(1998); Rains, PRA 60, 179 (1999)), and a PPT sigma has REE 0 at
rho = sigma.  Each answer, blended with a little of I/d so that it is
strictly feasible, is certified by the same weak-duality bound with a
multiplier written in closed form, and returned after 0 Newton steps; an
answer the bound does not certify goes to the path.  Every tolerance is
a module constant; callers set only the iteration budget.  Internals
work on raw ndarrays in natural-log units; results are converted to bits
at the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import EIG_ZERO_TOL, _LN2
from .errors import ConvergenceWarning, InputError, ShapeError
from .hermitian import (
    HermitianMatrix, SpectralDecomposition, _eigh, _log_adjoint, _log_divided_differences
)
from .states import (
    DensityMatrix, PureState, _bell_weights, _edge_weight, _integral, _partial_transpose_b, _ppt_edge_weight
)

_YY_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class ReeResult:
    """Outcome of one minimization run.

    ``value_bits`` is the attained relative entropy in bits and
    ``closest_state`` the minimizing density matrix, so the REE lies in
    [``lower_bits``, ``value_bits``]: ``lower_bits`` is the weak-duality
    lower bound in bits, floored at 0.  ``converged`` is set when that
    certified gap is at most _GAP_TOL bits.  ``iterations`` counts the
    Newton systems solved: the barrier path's steps and the KKT polish's
    systems, 0 for a closed-form answer.
    """

    value_bits: float
    closest_state: DensityMatrix
    iterations: int
    converged: bool
    lower_bits: float


def _entropy_term_nat(w: np.ndarray) -> float:
    """tr{m ln m} over the support of m, natural log, from m's eigenvalues w."""
    w = w[w >= EIG_ZERO_TOL]
    return float(np.sum(w * np.log(w)))


class _Point(NamedTuple):
    """A strictly feasible rho with f = S(sigma||rho) in nats and the spectra of rho and rho^PT.

    logdet = ln det rho + ln det rho^PT; (w, u) are the eigenpairs of rho
    and lw = ln w, overlaps = u^H sigma u, and (s, v) the eigenpairs of rho^PT.
    """

    rho: np.ndarray
    f: float
    logdet: float
    w: np.ndarray
    lw: np.ndarray
    u: np.ndarray
    overlaps: np.ndarray
    s: np.ndarray
    v: np.ndarray


def _point(sig: np.ndarray, rho: np.ndarray, sigma_term: float, da: int, db: int) -> _Point | None:
    """rho as a _Point, or None unless rho and rho^PT are positive definite; rho is checked first."""
    w, u = _eigh(rho)
    if not w[0] > 0.0:
        return None
    s, v = _eigh(_partial_transpose_b(rho, da, db))
    if not s[0] > 0.0:
        return None
    overlaps = u.conj().T @ sig @ u
    lw = np.log(w)
    f = sigma_term - float(np.real(np.sum(np.diag(overlaps) * lw)))
    logdet = float(np.sum(lw)) + float(np.sum(np.log(s)))
    return _Point(rho, f, logdet, w, lw, u, overlaps, s, v)


def _bits(nats: float) -> float:
    """A relative entropy in nats, floored at 0, in bits."""
    return max(0.0, nats) / _LN2


def _gradient(table: np.ndarray, u: np.ndarray, overlaps_full: np.ndarray) -> np.ndarray:
    """Gradient of rho -> -tr{sigma ln rho} from rho's eigenvectors u and ln divided differences."""
    g = -_log_adjoint(table, u, overlaps_full)
    return (g + g.conj().T) / 2.0


# barrier path following with damped Newton steps
_MU_INIT = 1e-3
_MU_FLOOR = 1e-12
_MU_SHRINK = 0.05
# relative to max(1, S(sigma)), the rounding level of the objective: a
# Newton decrement below it cannot pass the barrier model's Armijo test
_DECREMENT_FLOOR = 1e-14
# sufficient-decrease fraction of the line search's Armijo test
_ARMIJO_SLOPE = 1e-4
# a solve has converged when its certified gap, in bits, is at most this
_GAP_TOL = 1e-9
# weight of I/d in the closed-form answers: it keeps rho and rho^PT
# positive definite, at a cost of at most about _BLEND nats in value
_BLEND = 1e-11
# the KKT polish: at most _POLISH_SYSTEMS Newton systems, from the first
# centred point whose rho^PT has k >= 1 eigenvalues at most _KERNEL_GATE mu,
# the next _KERNEL_GATE times the k-th, and lam_min(rho) above _KERNEL_GATE mu.
# Over the benchmark panels and 96 random 2x2-3x4 states, 1 of 119 polish
# attempts failed at a gate of 100, against 4 of 117 at 30 and 17 of 114 at 10
_POLISH_SYSTEMS = 5
_KERNEL_GATE = 100.0


# bytes per slab of _newton_hessian, at least one A block.  A slab per A
# block made 2x2 to 3x3 Newton steps 2-3% slower, so every d <= 9 takes
# one slab (the whole complex product is 105 KiB at 3x3); at 4x4 four
# complex 256 KiB slabs made a step 4% faster than one of 1 MiB, and at
# d = 64 a slab is one A block, 67 MB complex or 34 MB real
_SLAB_BYTES = 256 * 1024


class _Slab(NamedTuple):
    """The views of one slab of _newton_hessian: the rows p of a run of A blocks.

    product holds the rows lefts and columns rights of the fused product,
    [(p r),(q s)] = H[(p q),(r s)] for p in rows and q in cols, and out
    the rho^PT term from the same rows of tau^-1 and columns of its
    transpose; term is out transposed onto target, product split into
    axes (a1 b1 a2 b2 a3 b3 a4 b4).  The fold writes first + second to
    dest, as [p, q, r, s].  Hermitian basis: Re H[(p q),(r s)] +
    Im H[(p q),(s r)] to the slab's rows of K, and gather is None.  The
    real basis's K takes the pairs p <= q alone, so cols starts at the
    slab's first row; its fold writes H[(p q),(r s)] + H[(p q),(s r)] to
    out's storage, free once the term is added, and gather is
    (index, rows, buffer): the flat index picks the pairs p <= q, r <= s
    of dest into buffer, a contiguous view of product's storage, free once
    folded, which is copied onto rows, the slab's rows of K; they lie
    together in triu order but are not contiguous in bordered, and numpy
    would gather onto them through a hidden temporary.
    """

    lefts: slice
    rights: slice
    rows: slice
    cols: slice
    product: np.ndarray
    out: np.ndarray
    target: np.ndarray
    term: np.ndarray
    first: np.ndarray
    second: np.ndarray
    dest: np.ndarray
    gather: tuple | None


class _Workspace(NamedTuple):
    """The large arrays of a solve's Newton systems, with each view taken once.

    bordered holds the Newton matrix, with K block k, border tvec (the
    coordinates of I) and corner 0, both written once here; the _Slab
    views share one product buffer and one term buffer, of one slab each.
    Real basis: tri holds the pairs p <= q of the coordinates, half their
    weights 1/2 (p = q) and 1/sqrt(2), and diag the coordinates with
    p = q; in the Hermitian basis all three are None.
    """

    slabs: list
    bordered: np.ndarray
    k: np.ndarray
    tvec: np.ndarray
    tri: tuple | None = None
    half: np.ndarray | None = None
    diag: np.ndarray | None = None

    def coords(self, g: np.ndarray) -> np.ndarray:
        """The coordinates tr(E g) of a matrix g, or of each in a stack, E the basis of the unknowns."""
        if self.tri is None:
            return (g.real + g.imag).reshape(*g.shape[:-2], -1)
        return self.half * (g + g.swapaxes(-1, -2))[(..., *self.tri)]

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian matrix of coordinates x."""
        if self.tri is None:
            step = x.reshape(math.isqrt(len(x)), -1)
            return (0.5 + 0.5j) * step + (0.5 - 0.5j) * step.T
        step = np.zeros((len(self.diag), len(self.diag)))
        step[self.tri] = self.half * x
        return step + step.T


def _newton_workspace(da: int, db: int, real: bool = False) -> _Workspace:
    """The _Workspace for da x db, in the real basis when real is set.

    At d = 64 the Hermitian one takes 134 MB for bordered and 67 MB each
    for the complex product and term buffers; the real one takes 35 MB
    for bordered, 35 MB for the gather indices and 34 MB each for the two
    buffers.
    """
    d = da * db
    n = d * d
    block = db * d**3
    dtype = np.dtype(float if real else complex)
    height = min(da, max(1, _SLAB_BYTES // (dtype.itemsize * block)))
    products = np.empty(height * block, dtype)
    terms = np.empty_like(products)
    if real:
        p, q = tri = np.triu_indices(d)
        tvec = (p == q).astype(float)
    else:
        tvec = np.eye(d).reshape(n)
    m = len(tvec)
    bordered = np.zeros((m + 1, m + 1))
    bordered[:m, m] = bordered[m, :m] = tvec
    k = bordered[:m, :m]
    slabs = []
    for start in range(0, da, height):
        stop = min(start + height, da)
        rows = slice(start * db, stop * db)
        cols = slice(rows.start if real else 0, d)
        lefts = slice(rows.start * d, rows.stop * d)
        h, w = rows.stop - rows.start, d - cols.start
        shape = (stop - start, db, da, db, w // db, db, da, db)
        product = products[: h * d * w * d].reshape(h * d, w * d)
        out = terms[: h * d * w * d].reshape(h, d, w, d)
        # partial transposition swaps b1 with b2 and b3 with b4
        target, term = product.reshape(shape), out.reshape(shape).transpose(0, 5, 2, 7, 4, 1, 6, 3)
        quad = product.reshape(h, d, w, d)
        if real:
            lo, hi = np.searchsorted(p, (rows.start, rows.stop))
            index = (((p[lo:hi] - rows.start) * w + q[lo:hi] - cols.start) * n)[:, None] + (p * d + q)
            buffer = products[: index.size].reshape(index.shape)
            first, second, dest, gather = quad, quad, out, (index, k[lo:hi], buffer)
        else:
            first, second, dest, gather = quad.real, quad.imag, k[lefts], None
        slabs.append(
            _Slab(
                lefts, slice(cols.start * d, n), rows, cols, product, out, target,
                term, first.transpose(0, 2, 1, 3), second.transpose(0, 2, 3, 1), dest.reshape(h, w, d, d), gather,
            )
        )
    if not real:
        return _Workspace(slabs, bordered, k, tvec)
    half = np.where(p == q, 0.5, math.sqrt(0.5))
    return _Workspace(slabs, bordered, k, tvec, tri, half, np.flatnonzero(p == q))


def _newton_hessian(
    dd2: np.ndarray,
    u: np.ndarray,
    overlaps_full: np.ndarray,
    rho_pair: tuple[np.ndarray, np.ndarray] | None,
    pt_pairs: list,
    work: _Workspace,
) -> np.ndarray:
    """Bordered real Newton matrix [[K, t], [t^T, 0]] in the basis of work, t the coordinates of I.

    The complex Hessian H on vec(rho) (row-major vec, n = d^2) maps
    Hermitian matrices to Hermitian matrices, and K is H in the
    coordinates of the workspace's basis, t = tvec.

    Hermitian basis: a step Delta is the real vector
    r = vec(Re Delta + Im Delta): vec Delta = T r with
    T = ((1+i) I + (1-i) F)/2 unitary and F the permutation that
    transposes vec, so K = T^H H T = Re H + Im(H F) is real and
    symmetric of size d^2, entry K[(p q),(r s)] = Re H[(p q),(r s)] +
    Im H[(p q),(s r)].

    Real basis, for real u, overlaps_full and tau^-1: H is real and
    commutes with F, and a real symmetric step has the d(d+1)/2
    coordinates of the orthonormal basis E_pq = (e_p e_q^T + e_q e_p^T)
    w_pq, p <= q, with w_pq = half[pq] (1/2 on the diagonal, 1/sqrt(2)
    off it); so K[pq, rs] = tr(E_pq H(E_rs)) =
    2 w_pq w_rs (H[(p q),(r s)] + H[(p q),(s r)]).

    The second derivative of -tr{sigma ln rho} in rho's eigenframe is
    sum_j u_pj conj(u_rj) conj(B_j)[q,s] + B_j[p,r] conj(u_qj) u_sj with
    B_j = u (O o T_j) u^H, where O is overlaps_full and T = dd2 the fully
    symmetric table of second divided differences from
    _log_divided_differences.  Laid out as [(p r),(q s)] it is
    X + X^H with X = P conj(B), P[(p r),j] = u_pj conj(u_rj).  The other
    terms are Kronecker pairs (a, c), each the map Delta -> a Delta c.
    rho_pair, the curvature (mu_curv rho^-1, rho^-1) of the rho barrier or
    None, is the outer product of vec a and vec c^T in that layout, so one
    product of inner dimension 2d + 1, [P, B^T, vec a] times
    [conj B; P^H; vec(c^T)^T], builds both: the assembly costs O(d^5).
    pt_pairs act on Delta^PT, Delta -> (a Delta^PT c)^PT: the rho^PT
    barrier (mu_curv tau^-1, tau^-1), or the two cross terms of the KKT
    polish (_kkt_step).  Both bases make that product, add the
    partial-transpose image of each pt pair to it and fold it onto K one
    _Slab of A blocks at a time, in complex or real arithmetic by basis,
    so no array holds all d^4 entries of the product; the real basis then
    gathers the pairs p <= q, r <= s onto K and scales its diagonal
    pairs.  The returned matrix is work.bordered, whose K block the next
    call overwrites.
    """
    d = len(u)
    n = d * d
    frames = (u @ (overlaps_full * dd2) @ u.conj().T).reshape(d, n)
    pairs = (u[:, None, :] * u.conj()[None, :, :]).reshape(n, d)
    left, right = [pairs, frames.T], [frames.conj(), pairs.conj().T]
    if rho_pair is not None:
        left.append(rho_pair[0].reshape(n, 1))
        right.append(rho_pair[1].T.reshape(1, n))
    left, right = np.concatenate(left, axis=1), np.concatenate(right, axis=0)
    for lefts, rights, rows, cols, product, out, target, term, first, second, dest, gather in work.slabs:
        np.matmul(left[lefts], right[:, rights], out=product)
        for a, c in pt_pairs:
            np.multiply.outer(a[rows], c.T[cols], out=out)
            target += term
        np.add(first, second, out=dest)
        if gather is not None:
            index, rows_k, buffer = gather
            np.take(dest, index, out=buffer, mode="clip")
            rows_k[...] = buffer
    if work.tri is not None:
        # 2 w_pq w_rs: 1 off the diagonal pairs, 1/sqrt(2) per diagonal pair
        work.k[work.diag] *= math.sqrt(0.5)
        work.k[:, work.diag] *= math.sqrt(0.5)
    return work.bordered


def _newton_step(
    p: _Point,
    tables: tuple[np.ndarray, np.ndarray],
    grad: np.ndarray,
    mu: float,
    da: int,
    db: int,
    work: _Workspace,
    mu_curv: float | None = None,
):
    """Damped-Newton direction for f(rho) + mu barriers at a strictly feasible rho.

    p is the point from _point, which has checked that rho and rho^PT are
    positive definite, and tables is the pair (L, T) of
    _log_divided_differences(p.w, p.lw, second=True), from whose L the
    gradient grad was built.  The model Hessian is the exact
    second derivative of -tr{sigma ln rho}, assembled in rho's eigenframe from second divided
    differences, plus the curvature of -ln det rho and -ln det rho^PT
    weighted by mu_curv (mu by default).  The gradient always carries the
    weight mu.  With mu_curv the weight before a cut to mu, at a point
    centred for it, the direction is the tangent (mu - mu_curv) d rho/d mu
    of the central path, which predicts the new centre instead of
    overshooting into the cone boundary.

    The trace-zero Newton system is solved in the real coordinates of
    work's basis (_newton_hessian) as one real bordered system, of size
    d^2 + 1 in the Hermitian basis and d(d+1)/2 + 1 in the real one,
    assembled in work, the solve's _newton_workspace: both bases are
    orthonormal, so the right-hand side is minus the coordinates of the
    barrier gradient g, the border is the coordinates of I, and the
    decrement is the real dot product of the two.  The direction, the
    matrix of the solution's coordinates, is Hermitian by construction.
    Assembly costs O(d^5) (_newton_hessian), the dense real solve O(d^6).
    Returns (direction, decrement); direction is None when the solve fails.
    """
    if mu_curv is None:
        mu_curv = mu
    rho_inv = (p.u * (1.0 / p.w)) @ p.u.conj().T
    tau_inv = (p.v * (1.0 / p.s)) @ p.v.conj().T
    bordered = _newton_hessian(
        tables[1], p.u, p.overlaps, (mu_curv * rho_inv, rho_inv), [(mu_curv * tau_inv, tau_inv)], work
    )
    g_mu = grad - mu * rho_inv - mu * _partial_transpose_b(tau_inv, da, db)
    size = len(work.tvec)
    rhs = np.zeros(size + 1)
    rhs[:size] = -work.coords(g_mu)
    try:
        sol = np.linalg.solve(bordered, rhs)
    except np.linalg.LinAlgError:
        return None, -1.0
    direction = work.matrix(sol[:size])
    decrement = float(rhs[:size] @ sol[:size])
    if not np.isfinite(decrement):
        return None, -1.0
    return direction, decrement


def _start_point(sig: np.ndarray, edge: float) -> np.ndarray:
    """The mix (1 - t) sigma + t I/d 5% of the way from sigma's PPT edge weight edge to I/d, inside both cones."""
    d = len(sig)
    t = edge + (1.0 - edge) * 0.05
    return (1.0 - t) * sig + t * (np.eye(d, dtype=sig.dtype) / d)


def _path_bound(p: _Point, grad: np.ndarray, direction: np.ndarray | None, mu: float, da: int, db: int) -> float:
    """_dual_bound at a Newton step's point, with the step's estimate of the PPT multiplier.

    The estimate is [mu tau^-1 - mu tau^-1 direction^PT tau^-1]_+, with
    tau = rho^PT of eigenpairs (p.s, p.v), the primal-dual reading of the
    step, or 0 when the step failed.
    """
    mult = None
    if direction is not None:
        tau_inv = (p.v * (1.0 / p.s)) @ p.v.conj().T
        w_mult, q = _eigh(mu * tau_inv - mu * (tau_inv @ _partial_transpose_b(direction, da, db) @ tau_inv))
        mult = (q * np.clip(w_mult, 0.0, None)) @ q.conj().T
    return _dual_bound(p, grad, mult, da, db)


def _dual_bound(p: _Point, grad: np.ndarray, mult: np.ndarray | None, da: int, db: int) -> float:
    """Weak-duality lower bound, in nats, on f over the PPT states, from a multiplier mult >= 0.

    By convexity, for any B >= 0 and PPT state x with tr x = 1,
    f(x) >= f(rho) + <G, x - rho> - <B^PT, x> >= f(rho) - <G, rho> + lam_min(G - B^PT),
    with G = grad at rho = p.rho and B = mult, or 0 when mult is None.
    d eps ||G - B^PT||_F is subtracted for the rounding of lam_min.
    """
    dual = grad if mult is None else grad - _partial_transpose_b(mult, da, db)
    lam = float(_eigh(dual)[0][0])
    slack = da * db * float(np.finfo(float).eps * np.linalg.norm(dual))
    return p.f - float(np.real(np.vdot(grad, p.rho))) + lam - slack


def _clean_kernel(p: _Point, mu: float) -> int:
    """The dimension k of the kernel that rho^PT shows at a point centred for mu, or 0 when it shows none cleanly."""
    k = int(np.count_nonzero(p.s <= _KERNEL_GATE * mu))
    if k == 0 or k == len(p.s) or p.s[k] < _KERNEL_GATE * p.s[k - 1] or not p.w[0] > _KERNEL_GATE * mu:
        return 0
    return k


def _frame_basis(k: int, real: bool) -> np.ndarray:
    """An orthonormal basis of the k x k multipliers, real symmetric or Hermitian, as a (k', k, k) stack."""
    if real:
        a, b = np.triu_indices(k)
        basis = np.zeros((len(a), k, k))
        j = np.arange(len(a))
        basis[j, a, b] = basis[j, b, a] = np.where(a == b, 1.0, math.sqrt(0.5))
        return basis
    unit = np.eye(k * k).reshape(k * k, k, k)
    return (0.5 + 0.5j) * unit + (0.5 - 0.5j) * unit.swapaxes(1, 2)


def _kkt_step(
    p: _Point, dd2: np.ndarray, grad: np.ndarray, mult: np.ndarray, k: int, da: int, db: int, work: _Workspace
) -> tuple[np.ndarray, np.ndarray] | None:
    """One Newton step on the optimality conditions, with rho^PT's k least eigenvectors V as its kernel.

    At the optimum G = nu I + (V Z V^H)^PT with Z >= 0 and V^H rho^PT V = 0,
    G the gradient of f (Friedland & Gour, J. Math. Phys. 52, 052201
    (2011)).  Newton on these conditions solves for the step Delta, nu and
    Z: the kernel moves with Delta, by -T_perp Delta^PT V to first order
    with T_perp = V_perp s_perp^-1 V_perp^H, so the multiplier changes by
    -(T_Z Delta^PT T_perp + T_perp Delta^PT T_Z), T_Z = V (V^H mult V) V^H
    the projection of the current multiplier mult.  The system is

        [[K, t, A], [t^T, 0, 0], [A^T, 0, 0]] [x; -nu; -z] = [-g; 0; -c]

    with K the f-Hessian plus those cross terms (_newton_hessian, assembled
    in work), A the coordinates of (V E_j V^H)^PT over the k' elements E_j
    of _frame_basis, and c those of V^H rho^PT V = diag(s_k).  It is
    solved by its Schur complement against M = work.bordered, of size
    m + 1: one solve of M with k' + 1 right-hand sides, then one of the
    k' x k' complement, so beside the barrier step's arrays the polish
    holds (m + 1)(k' + 1) entries, not a second matrix of size m + 1 + k'.
    Returns the direction and the new multiplier V Z V^H, or None when a
    solve fails.
    """
    v, rest = p.v[:, :k], p.v[:, k:]
    t_z = v @ (v.conj().T @ mult @ v) @ v.conj().T
    t_perp = (rest * (1.0 / p.s[k:])) @ rest.conj().T
    bordered = _newton_hessian(dd2, p.u, p.overlaps, None, [(t_z, t_perp), (t_perp, t_z)], work)
    basis = _frame_basis(k, work.tri is not None)
    border = work.coords(_partial_transpose_b(v @ basis @ v.conj().T, da, db))
    size = len(work.tvec)
    rhs = np.zeros((size + 1, len(basis) + 1))
    rhs[:size, 0] = -work.coords(grad)
    rhs[:size, 1:] = border.T
    kernel = np.real(np.einsum("jaa,a->j", basis.conj(), p.s[:k]))
    try:
        sol = np.linalg.solve(bordered, rhs)
        # [x; -nu] = y - Y w, with M [y, Y] = [-g, A] and the Schur
        # complement A^T Y of M = bordered: A^T Y w = A^T y + c
        w = np.linalg.solve(border @ sol[:size, 1:], border @ sol[:size, 0] + kernel)
    except np.linalg.LinAlgError:
        return None
    x = sol[:size, 0] - sol[:size, 1:] @ w
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        return None
    return work.matrix(x), v @ np.tensordot(-w, basis, 1) @ v.conj().T


def _kkt_polish(
    sig: np.ndarray,
    sigma_term: float,
    p: _Point,
    tables: tuple[np.ndarray, np.ndarray],
    grad: np.ndarray,
    mu: float,
    k: int,
    da: int,
    db: int,
    work: _Workspace,
    systems: int,
    best: _Point,
    lower: float,
) -> tuple[_Point, float, int, bool]:
    """At most systems _kkt_steps from a point p centred for mu whose rho^PT shows a kernel of dimension k.

    The multiplier starts at the barrier's estimate mu s_k^-1 on the
    kernel and is carried as the d x d matrix B = V Z V^H, since each new
    rho^PT returns its kernel in another frame.  Each step's rho + Delta,
    with Delta projected onto trace zero so the point keeps unit trace,
    is blended toward I/d by its edge weight (_edge_weight) plus _BLEND,
    so the new point is strictly feasible, and certified by _dual_bound
    with B projected onto the new kernel and its negative part dropped:
    V [V^H B V]_+ V^H.  best and lower are the path's best iterate and
    bound, updated here.  Returns them, the systems solved, and whether
    the gap closed.
    """
    d = da * db
    v = p.v[:, :k]
    mult = (v * (mu / p.s[:k])) @ v.conj().T
    for used in range(1, systems + 1):
        step = _kkt_step(p, tables[1], grad, mult, k, da, db, work)
        if step is None:
            return best, lower, used, False
        direction, mult = step
        # the solved direction's trace reached 1.1e-10 on a low-rank input,
        # and no later step renormalises the point
        raw = p.rho + (direction - (np.trace(direction).real / d) * np.eye(d))
        t = _edge_weight(float(_eigh(_partial_transpose_b(raw, da, db))[0][0]), d) + _BLEND
        p = _point(sig, (1.0 - t) * raw + t * (np.eye(d) / d), sigma_term, da, db)
        if p is None:
            return best, lower, used, False
        tables = _log_divided_differences(p.w, p.lw, second=used < systems)
        grad = _gradient(tables[0], p.u, p.overlaps)
        z, frame = _eigh(p.v[:, :k].conj().T @ mult @ p.v[:, :k])
        frame = p.v[:, :k] @ frame
        lower = max(lower, _dual_bound(p, grad, (frame * np.clip(z, 0.0, None)) @ frame.conj().T, da, db))
        if p.f < best.f:
            best = p
        if _bits(best.f) - _bits(lower) <= _GAP_TOL:
            return best, lower, used, True
    return best, lower, systems, False


def _barrier_path(
    sig: np.ndarray, sigma_term: float, rho: np.ndarray, da: int, db: int, max_iters: int
) -> tuple[_Point, int, float]:
    """Follow the logarithmic-barrier path of both cones from a strictly feasible rho.

    The Newton steps run in the real basis of _newton_workspace when sig
    and rho are real arrays, whose path stays real, and in the Hermitian
    basis otherwise.

    At each barrier weight mu, damped Newton steps run until the decrement
    falls below mu/4 or no step moves; the point is then centred for mu
    and the weight is cut by _MU_SHRINK.  After a cut, if the last step
    moved, the next step keeps the old weight on the barrier curvature:
    that is the tangent step of the central path toward the new weight.
    The backtracking search from t = 1 accepts only points where rho and
    rho^PT are both positive definite, so every iterate is strictly
    feasible and no projection is needed; the accepted _Point, and its
    tables of log divided differences, built once, serve the next steps.

    The best iterate is the one of least objective value.  At a centred
    point whose central-path gap 2d mu is at most _GAP_TOL (in nats),
    the _path_bound of its last Newton step is taken, and the
    path stops once the best value and the best bound so far are within
    _GAP_TOL bits: the certificate of ree_ppt.  Otherwise it ends centred
    at _MU_FLOOR or after max_iters steps, where the last step's bound is
    taken too.  Every bound is a valid weak-duality bound, so the best one
    is kept.

    The first centred point whose rho^PT shows a clean kernel
    (_clean_kernel) is handed to _kkt_polish once, within the budget
    left.  The polish returns as soon as its bound certifies the best
    iterate; otherwise its best point and bound are kept and the path goes
    on from the centred point, so an input the gate never admits takes the
    same steps as without it.  Returns the best iterate, the Newton
    systems solved (steps and polish systems) and the best bound.
    """
    # the closed-form start is strictly feasible by construction
    p = _point(sig, rho, sigma_term, da, db)
    tables = _log_divided_differences(p.w, p.lw, second=True)
    grad = _gradient(tables[0], p.u, p.overlaps)
    best = p
    rounding = _DECREMENT_FLOOR * max(1.0, abs(sigma_term))
    d = da * db
    lower = -math.inf
    mu = _MU_INIT
    mu_curv = None
    work = _newton_workspace(da, db, real=not np.iscomplexobj(sig))
    iterations = 0
    polished = False
    while iterations < max_iters:
        iterations += 1
        direction, decrement = _newton_step(p, tables, grad, mu, da, db, work, mu_curv)
        last_step = (p, grad, direction, mu)
        mu_curv = None
        moved = False
        # a decrement at the rounding level of the objective cannot pass
        # the Armijo test, though the step still moves rho by about its
        # square root: take it once it is feasible
        centred = direction is not None and abs(decrement) <= rounding
        if direction is not None and (decrement > 0.0 or centred):
            t = 1.0
            while t >= 1e-16:
                trial = _point(sig, p.rho + t * direction, sigma_term, da, db)
                if trial is not None and (
                    centred
                    or trial.f - mu * trial.logdet <= p.f - mu * p.logdet - _ARMIJO_SLOPE * t * decrement
                ):
                    moved = True
                    break
                t *= 0.5
            if moved:
                p = trial
                tables = _log_divided_differences(p.w, p.lw, second=True)
                grad = _gradient(tables[0], p.u, p.overlaps)
                if p.f < best.f:
                    best = p
        # centred for mu once the decrement is small on the barrier scale
        # or no step was possible
        if (not moved) or decrement < 0.25 * mu:
            k = 0 if polished or iterations >= max_iters else _clean_kernel(p, mu)
            if k:
                polished = True
                budget = min(_POLISH_SYSTEMS, max_iters - iterations)
                best, lower, systems, done = _kkt_polish(
                    sig, sigma_term, p, tables, grad, mu, k, da, db, work, budget, best, lower
                )
                iterations += systems
                if done:
                    return best, iterations, lower
            # no bound can certify before the central path's own gap 2d mu does
            if 2 * d * mu <= _GAP_TOL * _LN2:
                lower = max(lower, _path_bound(*last_step, da, db))
                last_step = None
                if _bits(best.f) - _bits(lower) <= _GAP_TOL:
                    break
            if mu <= _MU_FLOOR:
                break
            # a point that a step just moved sits near the centre for mu,
            # so the first step after the cut follows the tangent
            if moved:
                mu_curv = mu
            mu = max(_MU_SHRINK * mu, _MU_FLOOR)
    if last_step is not None:
        lower = max(lower, _path_bound(*last_step, da, db))
    return best, iterations, lower


def ree_ppt(sigma: DensityMatrix, max_iters: int = 5000) -> ReeResult:
    """Minimize S(sigma||rho) over PPT density matrices rho.

    A pure or PPT sigma is first answered in closed form (_solve): its
    dephased Schmidt state, or sigma itself, each blended with _BLEND of
    I/d, is returned with iterations = 0 when a weak-duality bound
    certifies it.  Every other sigma, and one whose closed form does not
    certify, starts at the closed-form strictly feasible mix of sigma
    with I/d (_start_point) and follows the logarithmic-barrier path with
    damped Newton steps, centring at each barrier weight, until the
    certified gap closes or the weight is centred at its floor
    (_barrier_path); a real sigma takes real Newton steps.  Once rho^PT
    shows a clean kernel the path ends on a few Newton systems on the
    optimality conditions instead (_kkt_polish), and falls back to its
    remaining weights if they do not certify.

    The reported value is in bits, evaluated on sigma at the returned
    closest state: the closed form, or the best iterate of the path, the
    one of least value.  That state is positive definite with a positive
    definite partial transpose, so the value is always an upper bound on
    the minimum.  The lower bound is the best weak-duality bound taken
    (_dual_bound), and convergence means the gap between the two is at
    most _GAP_TOL bits.  max_iters, a positive integer, bounds the Newton
    systems, steps and polish systems together.  Every result that has not
    converged, on the budget or at the end of the path, warns
    ConvergenceWarning with its gap.
    """
    budget = _integral(max_iters)
    if budget is None or budget < 1:
        raise InputError(f"max_iters must be a positive integer, got {max_iters!r}")
    bdims = getattr(sigma, "dims", None)
    if bdims is None:
        raise ShapeError("state carries no bipartite dimensions")
    if bdims.total > 64:
        raise InputError(f"total dimension {bdims.total} exceeds the supported limit 64")
    res = _solve(sigma, budget)
    if not res.converged:
        where = "on the iteration budget" if res.iterations >= budget else "at the barrier-weight floor"
        warnings.warn(
            f"ree_ppt stopped {where} after {res.iterations} Newton systems, uncertified: "
            f"gap {res.value_bits - res.lower_bits:.3g} bits, tolerance {_GAP_TOL:g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return res


def _solve(sigma: DensityMatrix, max_iters: int, hermitian: bool = False) -> ReeResult:
    """ree_ppt of a checked sigma; hermitian skips the closed forms and keeps the Hermitian basis.

    Two inputs have a closed-form answer, blended with t = _BLEND of I/d:
    - a sigma of rank 1 under the support rule, |psi><psi| up to
      eigenvalues below EIG_ZERO_TOL, whose dephased Schmidt state attains
      S(sigma_A) (_dephased);
    - a sigma whose PPT edge weight t* (_ppt_edge_weight) is at most t,
      with (1 - t* - t) sigma + (t* + t) I/d, where B = 0.
    The candidate is evaluated on sigma itself and returned with
    iterations = 0 when its value and _dual_bound, with the candidate's
    multiplier B, are within _GAP_TOL bits.  Neither bound rests on the
    paper's lemmas, so the verify suites stay independent checks.

    Otherwise the barrier path runs on sigma from _start_point, reusing
    t*.  Complex conjugation maps the PPT set to itself, so a sigma whose
    imaginary part is exactly zero has a real optimum, and _barrier_path
    solves it in real arithmetic; a real closest state is complex once
    returned, so the state's spectrum is that of one _eigh of its matrix.
    """
    da, db = sigma.dims.da, sigma.dims.db
    d = da * db
    sig = sigma.mat
    w = sigma.spectrum.eigenvalues
    sigma_term = _entropy_term_nat(w)
    problem = sig if hermitian or sig.imag.any() else np.ascontiguousarray(sig.real)
    pure = not hermitian and np.count_nonzero(w >= EIG_ZERO_TOL) == 1
    edge = None if pure else _ppt_edge_weight(problem, da, db)
    candidate, best = None, None
    if pure:
        candidate, mult = _dephased(sigma.spectrum, da, db)
    elif not hermitian and edge <= _BLEND:
        candidate, mult = (1.0 - edge - _BLEND) * sig + (edge + _BLEND) * (np.eye(d) / d), None
    if candidate is not None:
        p = _point(sig, HermitianMatrix(candidate).mat, sigma_term, da, db)
        if p is not None:
            lower = _dual_bound(p, _gradient(_log_divided_differences(p.w, p.lw), p.u, p.overlaps), mult, da, db)
            if _bits(p.f) - _bits(lower) <= _GAP_TOL:
                best, iterations = p, 0
    if best is None:
        if edge is None:
            edge = _ppt_edge_weight(problem, da, db)
        best, iterations, lower = _barrier_path(problem, sigma_term, _start_point(problem, edge), da, db, max_iters)
    value_bits = _bits(best.f)
    lower_bits = _bits(lower)
    matrix = HermitianMatrix(best.rho)
    if np.iscomplexobj(best.rho):
        # _point decomposed the Hermitian best.rho: its eigenpairs are the state's spectrum
        spectrum = SpectralDecomposition(best.w, best.u)
    else:
        spectrum = SpectralDecomposition(*_eigh(matrix.mat))
    return ReeResult(
        value_bits=value_bits,
        closest_state=DensityMatrix._from_spectrum(matrix, sigma.dims, spectrum),
        iterations=iterations,
        converged=value_bits - lower_bits <= _GAP_TOL,
        lower_bits=lower_bits,
    )


def _dephased(spectrum: SpectralDecomposition, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form answer for a pure sigma, blended with I/d, and the PPT multiplier that certifies it.

    psi, the eigenvector of sigma's largest eigenvalue, is L diag(sqrt(lam)) Vh
    by singular value decomposition, with product vectors |a_i b_i> = L e_i
    (x) Vh^T e_i.  The state is rho = (1 - t) sum_i lam_i |a_i b_i><a_i b_i| +
    t I/d, t = _BLEND (_schmidt_dephased), whose eigenvalues on those
    vectors are lam' = (1 - t) lam + t/d (Vedral & Plenio, PRA 57, 1619
    (1998)).  The multiplier is B = W' M W'^H, with W' = L (x) conj(Vh^T)
    and, for i != k, M[(i k),(i k)] = |c_ik| and M[(i k),(k i)] = c_ik, where
    c_ik = -sqrt(lam_i lam_k) L(lam'_i, lam'_k) and L is ln's first divided
    difference: each pair of entries is a block |c|[[1, -1], [-1, 1]], so
    B >= 0.  In the frame W = L (x) Vh^T, B^PT = W M^PT W^H cancels the
    gradient's entries between |a_i b_i> and |a_k b_k>, so G - B^PT is
    diagonal there, with least entry -1/(1 - t) at worst (the logarithmic
    mean exceeds the geometric one), and the bound falls short of the
    value by about t.
    """
    d = da * db
    dephased, left, lam, right = _schmidt_dephased(spectrum.eigenvectors[:, -1].reshape(da, db))
    r = len(lam)
    lam_blend = (1.0 - _BLEND) * lam + _BLEND / d
    c = -np.sqrt(np.outer(lam, lam)) * _log_divided_differences(lam_blend)
    np.fill_diagonal(c, 0.0)
    i, k = np.indices((r, r))
    ik, ki = (i * db + k).ravel(), (k * db + i).ravel()
    m = np.zeros((d, d))
    m[ik, ik] = np.abs(c).ravel()
    m[ik, ki] = c.ravel()
    frame_pt = np.kron(left, right.conj().T)
    rho = (1.0 - _BLEND) * dephased + _BLEND * (np.eye(d) / d)
    return rho, frame_pt @ m @ frame_pt.conj().T


def _schmidt_dephased(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The state sum_i lam_i |a_i b_i><a_i b_i| of amplitudes amps dephased in its Schmidt basis.

    amps = L diag(sqrt(lam)) Vh by singular value decomposition, with
    product vectors |a_i b_i> = L e_i (x) Vh^T e_i; returns the state,
    made by one product, with L, lam and Vh.
    """
    left, schmidt, right = np.linalg.svd(amps)
    lam = schmidt * schmidt
    r = len(lam)
    pairs = (left[:, None, :r] * right[:r].T[None, :, :]).reshape(-1, r)
    return (pairs * lam) @ pairs.conj().T, left, lam, right


def closest_state_for_pure(psi: PureState) -> DensityMatrix:
    """Minimizer of S(psi||rho) over PPT states, in closed form: psi dephased in its Schmidt basis."""
    dims = psi.dims
    return DensityMatrix(_schmidt_dephased(psi.amplitudes.reshape(dims.da, dims.db))[0], dims=dims)


def _binary_entropy_bits(p: float) -> float:
    total = 0.0
    for q in (p, 1.0 - p):
        if q > 0.0:
            total -= q * math.log2(q)
    return max(0.0, total)


def eof_two_qubit(sigma: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state, in bits.

    Concurrence route (Wootters, PRL 80, 2245 (1998)): the square roots
    mu1 >= ... >= mu4 of the eigenvalues of sigma (Y x Y) sigma* (Y x Y)
    are the singular values of tau = V^T (Y x Y) V, V = u sqrt(w) over the
    eigenvalues w >= EIG_ZERO_TOL of sigma's spectrum (zero-padded to
    four), so no square root is taken of a rounding-noise eigenvalue; then
    C = max(0, mu1 - mu2 - mu3 - mu4) and E_F = h((1 + sqrt(1 - C^2)) / 2).
    """
    dims = getattr(sigma, "dims", None)
    if dims is None or (dims.da, dims.db) != (2, 2):
        raise ShapeError("entanglement of formation requires dims (2, 2)")
    w = sigma.spectrum.eigenvalues
    keep = w >= EIG_ZERO_TOL
    root = sigma.spectrum.eigenvectors[:, keep] * np.sqrt(w[keep])
    roots = np.zeros(4)
    roots[: root.shape[1]] = np.linalg.svd(root.T @ _YY_FLIP @ root, compute_uv=False)
    concurrence = max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
    inner = (1.0 + math.sqrt(max(0.0, 1.0 - concurrence * concurrence))) / 2.0
    return _binary_entropy_bits(inner)


def bell_diagonal_ree_oracle(p) -> float:
    """Relative entropy of entanglement of a Bell-diagonal state, in bits.

    With p_max the largest of the four weights the value is 1 - h(p_max)
    for p_max > 1/2, h the binary entropy, and 0 otherwise, where the
    state is PPT (Vedral & Plenio, PRA 57, 1619 (1998)).
    """
    p_max = float(np.max(_bell_weights(p)))
    if p_max <= 0.5:
        return 0.0
    return 1.0 - _binary_entropy_bits(p_max)
