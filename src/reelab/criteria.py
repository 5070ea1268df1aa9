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
    PSD_TOL,
    HermitianMatrix,
    ScalarFunction,
    _check_tol,
    _eigh,
    _spectral_apply,
    loewner_geq,
)
from .states import DensityMatrix, _ginibre, partial_transpose_B, reduction_operator

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
        holds=bool(w[0] >= -tol),
        witness_eigenvalue=float(w[0]),
        witness_vector=v[:, 0].copy(),
    )


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


def _sample_scaled_psd(rng: np.random.Generator, dim: int, lo: float, hi: float):
    """Ginibre PSD sample with eigenvalues mapped linearly into [lo, hi]."""
    g = _ginibre(rng, dim, dim)
    w, u = _eigh(g @ g.conj().T)
    span = w[-1] - w[0]
    if span <= 0:
        w = np.full(dim, 0.5 * (lo + hi))
    else:
        w = lo + (hi - lo) * (w - w[0]) / span
    return w, u


def _sample_monotone_pair(rng: np.random.Generator, dim: int, b_range, delta_range):
    """(A, B, spectrum of B, eigenvectors of B) with A = B + Delta, Delta >= 0.

    B and Delta are drawn in that order by _sample_scaled_psd, their
    spectra mapped into b_range and delta_range.
    """
    wb, ub = _sample_scaled_psd(rng, dim, *b_range)
    wd, ud = _sample_scaled_psd(rng, dim, *delta_range)
    b = (ub * wb) @ ub.conj().T
    return b + (ud * wd) @ ud.conj().T, b, wb, ub


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
    streams: the result is deterministic for a given seed and
    independent of execution order.
    """
    if dim < 2:
        raise InputError("dim must be at least 2")
    if trials < 1:
        raise InputError("trials must be at least 1")
    base = f.domain_lower if math.isfinite(f.domain_lower) else 0.0
    b_range = (base + 0.1, base + 10.0)

    for trial in range(trials):
        if trial == 0 and f.domain_lower < 0:
            a_mat, b_mat = _canonical_pair(dim)
            wb, ub = _eigh(b_mat)
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            a_mat, b_mat, wb, ub = _sample_monotone_pair(rng, dim, b_range, (0.1, 10.0))
        fa = _spectral_apply(f, *_eigh((a_mat + a_mat.conj().T) / 2))
        fb = _spectral_apply(f, wb, ub)
        wmin = float(_eigh(fa - fb)[0][0])
        if wmin < -MONOTONE_TOL:
            return MonotoneCounterexample(
                a=HermitianMatrix(a_mat),
                b=HermitianMatrix(b_mat),
                violation=wmin,
                trials_used=trial + 1,
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
    return wmin >= -tol, wmin
