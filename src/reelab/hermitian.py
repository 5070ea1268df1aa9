"""Hermitian linear algebra built on explicit eigendecompositions.

Every matrix function here goes through a spectral decomposition:
eigendecompose, map the eigenvalues, reassemble. For the matrix sizes
this package targets (total dimension up to 64) that route is accurate,
fast, and hands the solver the eigenbasis it needs anyway for gradients
and projections.

Scalars are complex128 throughout; non-finite entries are rejected at
matrix construction so NaN/Inf can never enter a computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EigensolverError, InputError, ShapeError

# Default absolute tolerance on eigenvalues for positivity decisions.
PSD_TOL = 1e-9

# SpectralDecomposition quality gates.
UNITARITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9

# Relative eigenvalue gap below which divided differences switch to the
# analytic limit, avoiding catastrophic cancellation near degeneracies.
DEGENERACY_RTOL = 1e-12

# The matrix entries of one chunk of a stacked pass, 128 states at 2x2 or 25
# at 3x3: callers cut their stacks to this size, so each complex array of a
# chunk takes 32 KiB.  Larger chunks ran the benchmark's verify suites no
# faster and raised the process's peak memory by their temporaries.
_STACK_ENTRIES = 2048


class HermitianMatrix:
    """Complex square matrix stored in explicitly Hermitian form.

    The constructor symmetrizes its input as (M + M')/2 rather than
    rejecting near-Hermitian arrays: iterative solvers accumulate
    round-off, and rejection would turn that into spurious failures.
    The stored array is read-only.
    """

    __slots__ = ("mat",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
        sym = _hermitian_part(arr)
        sym.flags.writeable = False
        self.mat = sym

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def max_abs(self) -> float:
        """Max-norm of the entries."""
        return float(np.max(np.abs(self.mat)))

    def trace(self) -> float:
        """Trace; real because the matrix is Hermitian."""
        return float(np.real(np.trace(self.mat)))

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return HermitianMatrix(self.mat + other.mat)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return HermitianMatrix(self.mat - other.mat)

    def __mul__(self, scalar) -> "HermitianMatrix":
        return HermitianMatrix(self.mat * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def _hermitian_part(arr: np.ndarray) -> np.ndarray:
    """(M + M')/2 of one complex array or of each in a stack, whose entries must be finite."""
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InputError("matrix entries must be finite")
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim))


def from_diag(values) -> HermitianMatrix:
    return HermitianMatrix(np.diag(np.asarray(values, dtype=np.complex128)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns), both made read-only."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> HermitianMatrix:
        u = self.eigenvectors
        return HermitianMatrix((u * self.eigenvalues) @ u.conj().T)


@dataclass(frozen=True)
class ScalarFunction:
    """Real scalar function lifted to Hermitian operators eigenvalue-wise.

    ``evaluate`` must be total on (domain_lower, inf) and accept numpy
    arrays. ``domain_lower`` marks the open lower edge of the domain;
    eigenvalues at or below it are rejected by matrix_function.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    domain_lower: float = -math.inf


LOG = ScalarFunction("log", np.log, 0.0)
SQRT = ScalarFunction("sqrt", np.sqrt, 0.0)
EXP = ScalarFunction("exp", np.exp)
IDENTITY_FN = ScalarFunction("identity", lambda x: np.asarray(x, dtype=float))
SQUARE = ScalarFunction("square", np.square)


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of one matrix or a stack, with failure surfaced as EigensolverError.

    LAPACK decomposes each matrix of a stack on its own, so every
    eigenpair is bit for bit the one a call on that matrix alone returns.
    """
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on a {mat.shape[-1]}x{mat.shape[-1]} matrix: {exc}") from exc


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of one matrix or a stack, with failure surfaced as EigensolverError.

    Its eigenvalues can differ from _eigh's in the last bits, so a caller
    keeps to one of the two.
    """
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on a {mat.shape[-1]}x{mat.shape[-1]} matrix: {exc}") from exc


def _clears(least, tol: float = PSD_TOL):
    """The package's one positivity verdict, least eigenvalue >= -tol, elementwise on arrays."""
    return least >= -tol


def eig_hermitian(h: HermitianMatrix) -> SpectralDecomposition:
    """Full eigendecomposition with explicit quality checks.

    The orthonormality and reconstruction residuals are verified so a
    silently broken decomposition cannot propagate; both gates are far
    looser than what LAPACK delivers on these dimensions.
    """
    return SpectralDecomposition(*_checked_eigh(h.mat))


def _checked_eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eigh of a Hermitian array or a stack of them, held to eig_hermitian's two quality gates."""
    w, u = _eigh(mat)
    uh = u.conj().swapaxes(-1, -2)
    gram_err = np.max(np.abs(uh @ u - np.eye(mat.shape[-1])), axis=(-2, -1))
    for err in np.ravel(gram_err)[np.ravel(gram_err > UNITARITY_TOL)][:1]:
        raise EigensolverError(f"eigenvector basis not orthonormal (residual {err:.3e})")
    recon_err = np.max(np.abs((u * w[..., None, :]) @ uh - mat), axis=(-2, -1))
    bound = RECONSTRUCTION_TOL * np.maximum(1.0, np.max(np.abs(mat), axis=(-2, -1)))
    for err in np.ravel(recon_err)[np.ravel(recon_err > bound)][:1]:
        raise EigensolverError(f"spectral reconstruction residual {err:.3e} too large")
    return w, u


def matrix_function(h: HermitianMatrix, f: ScalarFunction) -> HermitianMatrix:
    """Apply a scalar function to a Hermitian matrix spectrally.

    Raises DomainError, carrying the offending eigenvalue, if any
    eigenvalue falls at or below f.domain_lower. Behavior exactly at the
    domain edge (e.g. log at 0) is deliberately an error here; any
    regularization is the caller's decision.
    """
    return _decomposed_function(eig_hermitian(h), f)


def _decomposed_function(dec: SpectralDecomposition, f: ScalarFunction) -> HermitianMatrix:
    """matrix_function of the operator whose decomposition is dec, same checks."""
    _check_domain(dec.eigenvalues, f)
    return HermitianMatrix(_spectral_apply(f, dec.eigenvalues, dec.eigenvectors))


def _check_domain(w: np.ndarray, f: ScalarFunction) -> None:
    """DomainError unless the least eigenvalue of each ascending spectrum, one or a stack, is in f's domain."""
    least = np.ravel(w[..., 0])
    for low in least[least <= f.domain_lower][:1]:
        raise DomainError(
            f"eigenvalue {low:.6g} outside the domain of '{f.name}' (requires > {f.domain_lower:g})",
            eigenvalue=float(low),
        )


def _matrix_functions(mats: np.ndarray, f: ScalarFunction) -> np.ndarray:
    """matrix_function(HermitianMatrix(m), f).mat for each array m of a stack, bit for bit, with its checks."""
    w, u = _checked_eigh(_hermitian_part(mats))
    _check_domain(w, f)
    return _hermitian_part(_spectral_apply(f, w, u))


def _spectral_apply(f: ScalarFunction, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U f(w) U' for a spectrum w with eigenvectors u, or for a stack of them, without domain checks."""
    fw = np.asarray(f.evaluate(w), dtype=float)
    return (u * fw[..., None, :]) @ u.conj().swapaxes(-1, -2)


# log with its domain edge at PSD_TOL: eigenvalues that round-off could
# have pushed to either side of zero are rejected, not logged
_LOG_PD = ScalarFunction("log", np.log, PSD_TOL)


def matrix_log(h: HermitianMatrix) -> HermitianMatrix:
    """Natural-log matrix function; base conversion is the caller's concern.

    Requires a positive definite input: the min eigenvalue must exceed
    PSD_TOL (1e-9), otherwise DomainError.
    """
    return matrix_function(h, _LOG_PD)


def _check_tol(tol: float) -> None:
    """Reject a positivity tolerance that is negative or NaN with InputError."""
    if not tol >= 0:
        raise InputError(f"tol must be nonnegative, got {tol!r}")


def is_psd(h: HermitianMatrix, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Positive semidefiniteness at absolute tolerance tol.

    Returns (verdict, witness) where the witness is the minimum
    eigenvalue, reported for passing and failing inputs alike.
    """
    _check_tol(tol)
    wmin = float(_eigh(h.mat)[0][0])
    return _clears(wmin, tol), wmin


def loewner_geq(a: HermitianMatrix, b: HermitianMatrix, tol: float = PSD_TOL) -> bool:
    """Order comparison A >= B, i.e. A - B is PSD at tolerance tol."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    verdict, _ = is_psd(a - b, tol)
    return verdict


def _near_pairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w_i - w_j, and the degenerate pairs: |w_i - w_j| < DEGENERACY_RTOL * max(w_i, w_j)."""
    diff = w[:, None] - w[None, :]
    return diff, np.abs(diff) < DEGENERACY_RTOL * np.maximum(w[:, None], w[None, :])


def _log_divided_differences(w: np.ndarray, lw: np.ndarray | None = None, second: bool = False):
    """First divided differences of ln on a positive grid, and on request the second of -ln.

    L[i,j] = (ln w_i - ln w_j)/(w_i - w_j), with the analytic limit 1/w_i
    substituted on the degenerate pairs of _near_pairs; lw is ln w when
    the caller has it.  With second, returns (L, T), where T is the fully
    symmetric table T[i,j,k] = integral dz/((w_i+z)(w_j+z)(w_k+z)) of the
    second divided differences of -ln, built from L and the same pairs
    with their limits T(x,y,x) = (dd1(x,y) - 1/x)/(x - y) and
    T(x,x,x) = 1/(2 x^2).  Every entry of T is positive for positive
    eigenvalues.
    """
    diff, near = _near_pairs(w)
    if lw is None:
        lw = np.log(w)
    inv_w = 1.0 / w
    i, j = np.nonzero(near)
    # degenerate pairs divide by one, then take their limits
    diff[i, j] = 1.0
    table = (lw[:, None] - lw[None, :]) / diff
    table[i, j] = inv_w[i]
    if not second:
        return table
    pair = (table - inv_w[:, None]) / diff
    pair[i, j] = (0.5 * inv_w * inv_w)[i]
    dd2 = -(table[:, :, None] - table[None, :, :]) / diff[:, None, :]
    dd2[i, :, j] = pair[i]
    return table, dd2


def _log_adjoint(table: np.ndarray, u: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """frechet_log_adjoint on arrays: U (table o overlaps) U' with overlaps = U' sigma U.

    table is _log_divided_differences of the eigenvalues whose eigenvectors are u.
    """
    return u @ (table * overlaps) @ u.conj().T


def frechet_log_adjoint(rho: SpectralDecomposition, sigma: HermitianMatrix) -> HermitianMatrix:
    """Adjoint of the Frechet derivative of the matrix log at rho, applied to sigma.

    In rho's eigenbasis this is the Hadamard product with the first
    divided differences of ln: U (L o (U' sigma U)) U'. It is the
    gradient of the map rho -> tr{sigma ln rho}, which is what the REE
    solver differentiates.
    """
    w = rho.eigenvalues
    if w[0] <= 0:
        raise DomainError(
            f"divided differences of log need a positive definite base point; min eigenvalue {w[0]:.6g}",
            eigenvalue=float(w[0]),
        )
    if sigma.dim != rho.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    u = rho.eigenvectors
    return HermitianMatrix(_log_adjoint(_log_divided_differences(w), u, u.conj().T @ sigma.mat @ u))


def hs_inner(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Hilbert-Schmidt inner product Re tr(A'B)."""
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.real(np.vdot(a.mat, b.mat)))
