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
from .states import DensityMatrix, partial_trace_A, partial_trace_B

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
    ws = sigma.spectrum.eigenvalues
    ws = ws[ws >= EIG_ZERO_TOL]
    term_sigma = float(np.sum(ws * np.log2(ws)))

    wr, vr = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    # overlap of sigma with each eigenvector of rho
    overlaps = np.real(np.einsum("ij,ij->j", vr.conj(), sigma.mat @ vr))
    kernel = wr < EIG_ZERO_TOL
    if np.any(overlaps[kernel] > SUPPORT_OVERLAP_TOL):
        return math.inf
    keep = ~kernel
    term_cross = float(np.sum(overlaps[keep] * np.log2(wr[keep])))
    return max(0.0, term_sigma - term_cross)


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
    such trials. Each reduction is built once, and the four spectra it
    needs (sigma, rho and their reductions) are the ones their
    constructors computed.
    """
    if sigma.dims is None or rho.dims is None or tuple(sigma.dims) != tuple(rho.dims):
        raise ShapeError("theorem1_gap needs matching bipartite dims on both states")
    sigma_x = _reduce(sigma, side)
    joint = relative_entropy(sigma, rho)
    reduced = relative_entropy(sigma_x, _reduce(rho, side))
    # support containment passes to the reductions only exactly: overlaps
    # each within SUPPORT_OVERLAP_TOL on rho's kernel can add up past it on
    # rho_side's, so a finite joint term may come with an infinite reduced one
    if math.isinf(reduced):
        return None
    if math.isinf(joint):
        return math.inf
    lhs = von_neumann_entropy(sigma_x) - von_neumann_entropy(sigma)
    return joint - reduced - lhs


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
    s_joint = von_neumann_entropy(sigma)
    s_a = von_neumann_entropy(partial_trace_B(sigma))
    s_b = von_neumann_entropy(partial_trace_A(sigma))
    return max(s_a, s_b) - s_joint
