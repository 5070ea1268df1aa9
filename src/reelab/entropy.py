"""Entropic functionals on density matrices.

All results are reported in base 2 (bits); anything internal that feeds
other internals stays in natural log, with one conversion at the
boundary. Relative entropies can be +infinity (math.inf, never NaN)
when the support condition fails.

Support convention: an eigenvalue below 1e-12 counts as an exact zero;
a zero eigenvector of rho carrying sigma-overlap above 1e-10 makes the
relative entropy infinite. The two thresholds separate genuine rank
deficiency from eigensolver round-off.

A state's spectrum is read from ``DensityMatrix.spectrum``, the
decomposition that validated the state; no function here decomposes a
state's matrix again.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ShapeError
from .hermitian import _LOG_PD, PSD_TOL, HermitianMatrix, _decomposed_function, loewner_geq
from .states import DensityMatrix, _states, _trace_a, _trace_b, partial_trace_A, partial_trace_B

EIG_ZERO_TOL = 1e-12
SUPPORT_OVERLAP_TOL = 1e-10

_LN2 = math.log(2.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda_i log2 lambda_i, with 0 log 0 = 0."""
    w = rho.spectrum.eigenvalues
    w = w[w >= EIG_ZERO_TOL]
    return max(0.0, float(-np.sum(w * np.log2(w))))


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """tr{sigma log2 sigma} - tr{sigma log2 rho}, or +inf on support violation.

    Both traces are evaluated in the eigenbasis of their own operator.
    The result is clamped at zero: it is nonnegative analytically, and
    the clamp only absorbs round-off at the support cutoff.
    """
    if sigma.dim != rho.dim:
        raise ShapeError(f"dimension mismatch: {sigma.dim} vs {rho.dim}")
    sig, ws, _ = _one(sigma)
    return float(_relative_entropies(sig, _plogp(ws), *_one(rho)[1:])[0])


def _one(state: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A state as the stack of one that the kernels below take: (matrices, eigenvalues, eigenvectors)."""
    return state.mat[None], state.spectrum.eigenvalues[None], state.spectrum.eigenvectors[None]


def _suffix_sums(terms: np.ndarray, start: np.ndarray) -> np.ndarray:
    """np.sum(terms[k, start[k]:]) for each row k, bit for bit.

    The rows that share a start are summed together, so each sum runs
    over exactly the entries, and in the order, of its own row's suffix.
    """
    out = np.zeros(len(terms))
    for first in set(start.tolist()):
        rows = start == first
        out[rows] = np.sum(terms[rows, first:], axis=1)
    return out


def _plogp(w: np.ndarray) -> np.ndarray:
    """sum w log2 w over the eigenvalues >= EIG_ZERO_TOL of each ascending spectrum of a stack.

    The kept eigenvalues are a suffix of each row, so every sum is the
    one von_neumann_entropy and relative_entropy take of that spectrum.
    """
    kept = w >= EIG_ZERO_TOL
    return _suffix_sums(w * np.log2(np.where(kept, w, 1.0)), np.sum(~kept, axis=1))


def _relative_entropies(sig: np.ndarray, sig_plogp: np.ndarray, wr: np.ndarray, vr: np.ndarray) -> np.ndarray:
    """relative_entropy of each pair of a stack, +inf on support violation.

    sig holds the sigma matrices with their _plogp sums, and (wr, vr) the
    eigenpairs of the rho matrices.  The overlaps of sigma with the
    eigenvectors of rho weigh ln rho in rho's eigenbasis.
    """
    overlaps = np.real(np.einsum("nij,nij->nj", vr.conj(), sig @ vr))
    kernel = wr < EIG_ZERO_TOL
    outside = np.any(kernel & (overlaps > SUPPORT_OVERLAP_TOL), axis=1)
    cross = _suffix_sums(overlaps * np.log2(np.where(kernel, 1.0, wr)), np.sum(kernel, axis=1))
    value = sig_plogp - cross
    return np.where(outside, math.inf, np.where(value > 0.0, value, 0.0))


def _theorem1_gaps(sigma, rho, da: int, db: int, sides: str = "AB") -> list:
    """theorem1_gap at each of sides for each pair of a stack, NaN where it is None.

    sigma and rho are (matrices, eigenvalues, eigenvectors) of valid
    states, as states._states returns them.  The joint relative entropy
    is evaluated once for all sides, and each reduction is validated as
    a state.  Support containment passes to the reductions only exactly:
    overlaps each within SUPPORT_OVERLAP_TOL on rho's kernel can add up
    past it on rho_side's, so a finite joint term may come with an
    infinite reduced one.
    """
    sig, ws, _ = sigma
    plogp = _plogp(ws)
    entropy = np.where(-plogp > 0.0, -plogp, 0.0)
    joint = _relative_entropies(sig, plogp, rho[1], rho[2])
    gaps = []
    for side in sides:
        reduce = _trace_b if side == "A" else _trace_a
        sig_x, ws_x, _ = _states(reduce(sig, da, db))
        _, wr_x, vr_x = _states(reduce(rho[0], da, db))
        plogp_x = _plogp(ws_x)
        reduced = _relative_entropies(sig_x, plogp_x, wr_x, vr_x)
        lhs = np.where(-plogp_x > 0.0, -plogp_x, 0.0) - entropy
        # inf - inf where the gap is None, which the mask below replaces
        with np.errstate(invalid="ignore"):
            gap = joint - reduced - lhs
        gaps.append(np.where(np.isinf(reduced), math.nan, np.where(np.isinf(joint), math.inf, gap)))
    return gaps


def negative_conditional_entropy(sigma: DensityMatrix, side: str = "A") -> float:
    """S(sigma_side) - S(sigma_AB); positive only for entangled states."""
    reduced = _reduce(sigma, side)
    return von_neumann_entropy(reduced) - von_neumann_entropy(sigma)


def _reduce(state: DensityMatrix, side: str) -> DensityMatrix:
    if side == "A":
        return partial_trace_B(state)
    if side == "B":
        return partial_trace_A(state)
    raise InputError(f"side must be 'A' or 'B', got {side!r}")


def theorem1_gap(sigma: DensityMatrix, rho: DensityMatrix, side: str = "A") -> float | None:
    """Slack of S(sigma_side) - S(sigma_AB) <= S(sigma||rho) - S(sigma_side||rho_side).

    Returns the right side minus the left side; nonnegative whenever rho
    is non-distillable (the caller picks rho; PPT rho is the testable
    case). +inf propagates when only the joint relative entropy
    diverges. When the reduced relative entropy diverges the difference
    is meaningless and None is returned; harnesses discard and count
    such trials. This is the stack of one of _theorem1_gaps, which reads
    the spectra of sigma and rho that their constructors computed.
    """
    if sigma.dims is None or rho.dims is None or tuple(sigma.dims) != tuple(rho.dims):
        raise ShapeError("theorem1_gap needs matching bipartite dims on both states")
    if side not in ("A", "B"):
        raise InputError(f"side must be 'A' or 'B', got {side!r}")
    gap = _theorem1_gaps(_one(sigma), _one(rho), *sigma.dims, side)[0][0]
    return None if math.isnan(gap) else float(gap)


def log_order_check(rho: DensityMatrix, tol: float = PSD_TOL) -> bool:
    """Does log(rho_A) (x) 1_B >= log(rho_AB) hold at tolerance tol?

    Natural logs; the verdict is base-independent. Requires rho_AB full
    rank (DomainError otherwise) - callers regularize if needed.
    """
    # the partial trace comes first: it raises ShapeError on an untagged state
    rho_a = partial_trace_B(rho)
    log_joint = _decomposed_function(rho.spectrum, _LOG_PD)
    log_a = _decomposed_function(rho_a.spectrum, _LOG_PD)
    lifted = HermitianMatrix(np.kron(log_a.mat, np.eye(rho.dims.db)))
    return loewner_geq(lifted, log_joint, tol)


def lemma2_bound(sigma: DensityMatrix) -> float:
    """max over both sides of the negative conditional entropy.

    A lower bound on the relative entropy of entanglement; vacuous
    (negative) for weakly correlated states, tight for pure ones.
    """
    s_joint, s_a, s_b = _entropies(sigma)
    return max(s_a, s_b) - s_joint


def _entropies(sigma: DensityMatrix) -> tuple[float, float, float]:
    """S(sigma), S(sigma_A) and S(sigma_B) in bits, each reduction built and decomposed once.

    Differences of these give negative_conditional_entropy and
    lemma2_bound bit for bit, so a caller that reports all of them
    decomposes each reduced state once, not once per quantity.
    """
    return (
        von_neumann_entropy(sigma),
        von_neumann_entropy(partial_trace_B(sigma)),
        von_neumann_entropy(partial_trace_A(sigma)),
    )
