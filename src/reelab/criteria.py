"""Entanglement criteria and randomized operator-monotonicity testing.

The criteria return full verdicts (bool plus the witnessing eigenpair)
so harnesses can report margins, not just booleans. Monotonicity is
falsified, never certified: a None from the search is "no counterexample
in N trials", not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .hermitian import (
    _STACK_ENTRIES,
    PSD_TOL,
    HermitianMatrix,
    ScalarFunction,
    _check_tol,
    _clears,
    _eigh,
    _hermitian_part,
    _spectral_apply,
    loewner_geq,
)
from .states import DensityMatrix, _entropy, _generators, _integral, partial_transpose_B, reduction_operator

# Violation threshold for the monotone search; loose enough that
# round-off on well-conditioned spectra cannot fake a counterexample.
MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a positivity-based criterion with its witness eigenpair."""

    holds: bool
    witness_eigenvalue: float
    witness_vector: np.ndarray


def _verdict(op: HermitianMatrix, tol: float) -> CriterionVerdict:
    _check_tol(tol)
    w, v = _eigh(op.mat)
    return CriterionVerdict(
        holds=bool(_clears(w[0], tol)),
        witness_eigenvalue=float(w[0]),
        witness_vector=v[:, 0].copy(),
    )


def _witnesses(ops: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_verdict's holds and witness eigenvalue for each operator array of a stack, bit for bit."""
    _check_tol(tol)
    least = _eigh(_hermitian_part(ops))[0][:, 0]
    return _clears(least, tol), least


def reduction_criterion(rho: DensityMatrix, tol: float = PSD_TOL) -> CriterionVerdict:
    """Is rho_A (x) 1 - rho PSD? Violation certifies distillability."""
    return _verdict(reduction_operator(rho), tol)


def ppt_criterion(rho: DensityMatrix, tol: float = PSD_TOL) -> CriterionVerdict:
    """Is the partial transpose of rho PSD?"""
    return _verdict(partial_transpose_B(rho), tol)


@dataclass(frozen=True)
class MonotoneCounterexample:
    """Ordered pair A >= B on which f(A) >= f(B) fails."""

    a: HermitianMatrix
    b: HermitianMatrix
    violation: float
    trials_used: int

    def __post_init__(self):
        if not loewner_geq(self.a, self.b, 1e-10):
            raise InputError("counterexample pair must satisfy A >= B")
        if not self.violation < -MONOTONE_TOL:
            raise InputError(f"violation {self.violation!r} is not decisively negative")


# The classic squaring counterexample; zero-padded to larger dimensions.
_CANONICAL_A = np.array([[2.0, 1.0], [1.0, 1.0]])
_CANONICAL_B = np.diag([1.0, 0.0])


def _canonical_pair(dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    a[:2, :2] = _CANONICAL_A
    b[:2, :2] = _CANONICAL_B
    return a, b


def _sample_monotone_pairs(rngs, dim: int, b_range, delta_range):
    """Stacked (A, B, spectra of B, eigenvectors of B), pair k from rngs[k], with A = B + Delta.

    Each generator draws the Ginibre matrix of B and then that of Delta;
    each is turned into the PSD G G' and its spectrum mapped linearly into
    b_range or delta_range, so Delta >= 0.
    """
    parts = np.stack([rng.standard_normal((4, dim, dim)) for rng in rngs])
    # the real and imaginary parts of B's and of Delta's, combined as _ginibre does
    g = (parts[:, 0::2] + 1j * parts[:, 1::2]) / np.sqrt(2.0)
    w, u = _eigh(g @ g.conj().swapaxes(-1, -2))
    lo = np.array([b_range[0], delta_range[0]])[:, None]
    hi = np.array([b_range[1], delta_range[1]])[:, None]
    span = (w[..., -1] - w[..., 0])[..., None]
    flat = np.broadcast_to(0.5 * (lo + hi), w.shape)
    w = np.where(span > 0, lo + (hi - lo) * (w - w[..., :1]) / np.where(span > 0, span, 1.0), flat)
    psd = (u * w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return psd[:, 0] + psd[:, 1], psd[:, 0], w[:, 0], u[:, 0]


def operator_monotone_search(
    f: ScalarFunction, dim: int, trials: int, seed: int
) -> MonotoneCounterexample | None:
    """Randomized falsification of operator monotonicity for f.

    Each trial samples B with its spectrum in [edge + 0.1, edge + 10],
    edge being f's finite domain edge or else 0, and Delta with its
    spectrum in [0.1, 10]; A = B + Delta is then >= B by construction
    and its spectrum lies inside the domain too. The trial tests
    loewner_geq(f(A), f(B), 1e-8). The known squaring counterexample is
    injected as trial 0 whenever f's domain admits it, so regressions do
    not hinge on sampling luck. Trials draw from independent per-index
    streams and are evaluated in stacked chunks, each to its first
    failure: the result is the first failing trial, deterministic for a
    given seed and independent of the chunking.
    """
    size, count, master = _integral(dim), _integral(trials), _integral(seed)
    if size is None or size < 2:
        raise InputError(f"dim must be an integer of at least 2, got {dim!r}")
    if count is None or count < 1:
        raise InputError(f"trials must be a positive integer, got {trials!r}")
    # trial i is seeded by SeedSequence([seed, i]), which _generators holds
    # in four 32-bit words: at most three for the seed, one for i
    if master is None or not 0 <= master < 2**96:
        raise InputError(f"seed must be a nonnegative integer below 2**96, got {seed!r}")
    dim, trials, seed = size, count, master
    base = f.domain_lower if math.isfinite(f.domain_lower) else 0.0
    b_range = (base + 0.1, base + 10.0)

    def chunks():
        first = 0
        if f.domain_lower < 0:
            a_mat, b_mat = _canonical_pair(dim)
            yield range(1), (a_mat[None], b_mat[None], *(x[None] for x in _eigh(b_mat)))
            first = 1
        per_chunk = max(1, _STACK_ENTRIES // (dim * dim))
        for start in range(first, trials, per_chunk):
            chunk = range(start, min(start + per_chunk, trials))
            rngs = list(_generators(_entropy((seed,), chunk)))
            yield chunk, _sample_monotone_pairs(rngs, dim, b_range, (0.1, 10.0))

    for chunk, (a, b, wb, ub) in chunks():
        fa = _spectral_apply(f, *_eigh(_hermitian_part(a)))
        wmin = _eigh(fa - _spectral_apply(f, wb, ub))[0][:, 0]
        for k in np.flatnonzero(wmin < -MONOTONE_TOL)[:1]:
            return MonotoneCounterexample(
                a=HermitianMatrix(a[k]),
                b=HermitianMatrix(b[k]),
                violation=float(wmin[k]),
                trials_used=chunk[k] + 1,
            )
    return None


def loewner_matrix_psd_check(
    f: ScalarFunction, sample_points, tol: float = PSD_TOL
) -> tuple[bool, float]:
    """Divided-difference matrix test at the given points.

    M_ij = (f(x_i) - f(x_j))/(x_i - x_j) off the diagonal and f'(x_i)
    by central finite difference on it, with a step of 1e-6 times the
    distance to a finite domain edge (else 1e-6 |x_i|) so that the
    stencil stays inside the domain. Positive semidefiniteness of M
    on every point set is Loewner's necessary condition for operator
    monotonicity; a negative eigenvalue here is a concrete disproof.
    Returns (verdict, min eigenvalue).
    """
    _check_tol(tol)
    x = np.asarray(sample_points, dtype=float).ravel()
    if len(x) < 1:
        raise InputError("need at least one sample point")
    if len(np.unique(x)) != len(x):
        raise InputError("sample points must be distinct")
    if np.any(x <= f.domain_lower):
        raise DomainError(
            f"sample points must lie strictly inside the domain of '{f.name}'",
            eigenvalue=float(np.min(x)),
        )
    fx = np.asarray(f.evaluate(x), dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    m = (fx[:, None] - fx[None, :]) / diff
    h = 1e-6 * (x - f.domain_lower if math.isfinite(f.domain_lower) else np.abs(x))
    h[h == 0.0] = 1e-6
    deriv = (np.asarray(f.evaluate(x + h), dtype=float) - np.asarray(f.evaluate(x - h), dtype=float)) / (2 * h)
    np.fill_diagonal(m, deriv)
    wmin = float(_eigh(m)[0][0])
    return _clears(wmin, tol), wmin
