"""Bipartite density matrices: construction, reduction, transposition, sampling.

Index convention, used everywhere including the file format: the basis
state |i>_A |j>_B sits at flat index i*dB + j (row-major, A first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NormalizationError,
    ShapeError,
    StateInvariantError,
)
from .hermitian import HermitianMatrix, _eigh

TRACE_TOL = 1e-10
DENSITY_PSD_TOL = 1e-9
PURE_NORM_TOL = 1e-12


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions of an A|B split."""

    da: int
    db: int

    def __post_init__(self):
        if int(self.da) != self.da or int(self.db) != self.db or self.da < 1 or self.db < 1:
            raise ShapeError(f"local dimensions must be positive integers, got ({self.da}, {self.db})")

    @property
    def total(self) -> int:
        return self.da * self.db

    def __iter__(self):
        yield self.da
        yield self.db


def _as_dims(dims) -> BipartiteDims | None:
    if dims is None or isinstance(dims, BipartiteDims):
        return dims
    da, db = dims
    return BipartiteDims(int(da), int(db))


class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with an optional A|B dimension tag.

    Invariants checked at construction: trace within 1e-10 of one and
    min eigenvalue >= -1e-9. A small negative floor (rather than zero)
    keeps round-off from iterative algorithms from being rejected.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix, dims=None) -> None:
        if not isinstance(matrix, HermitianMatrix):
            matrix = HermitianMatrix(matrix)
        dims = _as_dims(dims)
        if dims is not None and dims.total != matrix.dim:
            raise ShapeError(f"dims {dims.da}x{dims.db} do not match matrix dimension {matrix.dim}")
        tr = matrix.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:g}")
        wmin = float(_eigh(matrix.mat)[0][0])
        if wmin < -DENSITY_PSD_TOL:
            raise StateInvariantError(f"not positive semidefinite: min eigenvalue {wmin!r}")
        self.matrix = matrix
        self.dims = dims

    @property
    def mat(self) -> np.ndarray:
        return self.matrix.mat

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def tagged(self, da: int, db: int) -> "DensityMatrix":
        """Same state with an A|B dimension tag attached.

        The matrix was validated when this state was built, so only the
        tag is checked.
        """
        dims = BipartiteDims(da, db)
        if dims.total != self.dim:
            raise ShapeError(f"dims {da}x{db} do not match matrix dimension {self.dim}")
        out = object.__new__(DensityMatrix)
        out.matrix = self.matrix
        out.dims = dims
        return out

    def __repr__(self) -> str:
        tag = f", dims={self.dims.da}x{self.dims.db}" if self.dims else ""
        return f"DensityMatrix(dim={self.dim}{tag})"


class PureState:
    """State vector on an A|B split, unit norm within 1e-12."""

    __slots__ = ("amplitudes", "dims")

    def __init__(self, amplitudes, dims) -> None:
        vec = np.array(amplitudes, dtype=np.complex128).ravel()
        dims = _as_dims(dims)
        if dims is None:
            raise ShapeError("PureState requires dims")
        if len(vec) != dims.total:
            raise ShapeError(f"vector length {len(vec)} does not match dims {dims.da}x{dims.db}")
        if not np.all(np.isfinite(vec.real)) or not np.all(np.isfinite(vec.imag)):
            raise InputError("amplitudes must be finite")
        norm_sq = float(np.real(np.vdot(vec, vec)))
        if abs(norm_sq - 1.0) > PURE_NORM_TOL:
            raise NormalizationError(f"squared norm {norm_sq!r} differs from 1 by more than {PURE_NORM_TOL:g}")
        vec.flags.writeable = False
        self.amplitudes = vec
        self.dims = dims

    def density(self) -> DensityMatrix:
        """Projector |psi><psi| as a DensityMatrix, dims kept."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def __repr__(self) -> str:
        return f"PureState(dims={self.dims.da}x{self.dims.db})"


def _require_dims(rho: DensityMatrix) -> tuple[int, int]:
    if rho.dims is None:
        raise ShapeError("operation requires a state with bipartite dims")
    return rho.dims.da, rho.dims.db


def partial_trace_B(rho: DensityMatrix) -> DensityMatrix:
    """Trace out system B: (rho_A)_{i i'} = sum_j rho_{(i j),(i' j)}."""
    da, db = _require_dims(rho)
    t = rho.mat.reshape(da, db, da, db)
    return DensityMatrix(np.einsum("ijkj->ik", t))


def partial_trace_A(rho: DensityMatrix) -> DensityMatrix:
    """Trace out system A: (rho_B)_{j j'} = sum_i rho_{(i j),(i j')}."""
    da, db = _require_dims(rho)
    t = rho.mat.reshape(da, db, da, db)
    return DensityMatrix(np.einsum("ijil->jl", t))


def _partial_transpose_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose over B of one matrix or of a stack of them."""
    lead = mat.shape[:-2]
    t = mat.reshape(*lead, da, db, da, db)
    return np.ascontiguousarray(t.swapaxes(-1, -3).reshape(*lead, da * db, da * db))


def _is_ppt(mat: np.ndarray, da: int, db: int) -> bool:
    return float(np.linalg.eigvalsh(_partial_transpose_b(mat, da, db))[0]) >= 0.0


def partial_transpose_B(rho: DensityMatrix) -> HermitianMatrix:
    """Transpose the B indices: entry ((i j),(i' j')) -> ((i j'),(i' j))."""
    da, db = _require_dims(rho)
    return HermitianMatrix(_partial_transpose_b(rho.mat, da, db))


def reduction_operator(rho: DensityMatrix) -> HermitianMatrix:
    """rho_A (x) 1_B - rho, whose positivity the reduction criterion asserts."""
    da, db = _require_dims(rho)
    rho_a = partial_trace_B(rho)
    return HermitianMatrix(np.kron(rho_a.mat, np.eye(db)) - rho.mat)


def pure_from_schmidt(alpha, dims) -> PureState:
    """State with the given Schmidt coefficients on the diagonal basis pairs.

    alpha_i lands at flat index i*dB + i; the coefficients must be
    nonnegative and square-sum to one.
    """
    dims = _as_dims(dims)
    coeff = np.asarray(alpha, dtype=float).ravel()
    if len(coeff) > min(dims.da, dims.db):
        raise ShapeError(f"{len(coeff)} Schmidt coefficients do not fit dims {dims.da}x{dims.db}")
    if np.any(coeff < 0):
        raise InputError("Schmidt coefficients must be nonnegative")
    if abs(float(np.sum(coeff**2)) - 1.0) > PURE_NORM_TOL:
        raise NormalizationError("Schmidt coefficients must square-sum to 1")
    vec = np.zeros(dims.total, dtype=np.complex128)
    for i, a in enumerate(coeff):
        vec[i * dims.db + i] = a
    return PureState(vec, dims)


# Bell basis over the flat ordering |00>,|01>,|10>,|11|; singlet first,
# matching the werner family built on it.
_S = 1.0 / np.sqrt(2.0)
BELL_VECTORS = np.array(
    [
        [0.0, _S, -_S, 0.0],   # (|01> - |10>)/sqrt(2)
        [0.0, _S, _S, 0.0],    # (|01> + |10>)/sqrt(2)
        [_S, 0.0, 0.0, _S],    # (|00> + |11>)/sqrt(2)
        [_S, 0.0, 0.0, -_S],   # (|00> - |11>)/sqrt(2)
    ],
    dtype=np.complex128,
).T  # columns are the Bell vectors


def _bell_weights(p) -> np.ndarray:
    """The four Bell-diagonal weights as an array, checked to lie on the simplex."""
    w = np.asarray(p, dtype=float).ravel()
    if w.shape != (4,):
        raise ShapeError("bell_diagonal takes exactly 4 weights")
    if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > TRACE_TOL:
        raise NormalizationError("weights must be nonnegative and sum to 1")
    return w


def bell_diagonal(p) -> DensityMatrix:
    """Mixture sum_k p_k |Bell_k><Bell_k| with p on the simplex."""
    w = _bell_weights(p)
    mat = (BELL_VECTORS * w) @ BELL_VECTORS.conj().T
    return DensityMatrix(mat, BipartiteDims(2, 2))


def singlet() -> DensityMatrix:
    """Projector onto (|01> - |10>)/sqrt(2)."""
    return bell_diagonal([1.0, 0.0, 0.0, 0.0])


def werner(f: float) -> DensityMatrix:
    """F on the singlet, the rest spread evenly over its complement."""
    if not 0.0 <= f <= 1.0:
        raise InputError(f"werner parameter must lie in [0, 1], got {f!r}")
    p_rest = (1.0 - f) / 3.0
    return bell_diagonal([f, p_rest, p_rest, p_rest])


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """iid standard complex normal entries (variance 1 per entry)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _random_density_arr(dim: int, rank: int, seed: int) -> np.ndarray:
    """The array random_density stores, built without validating it.

    Symmetrised exactly as HermitianMatrix does, so wrapping the result
    in a DensityMatrix leaves every bit as it is.
    """
    if not 1 <= rank <= dim:
        raise InputError(f"rank must satisfy 1 <= rank <= dim, got rank {rank}, dim {dim}")
    g = _ginibre(np.random.default_rng(seed), dim, rank)
    m = g @ g.conj().T
    m = m / np.real(np.trace(m))
    return (m + m.conj().T) / 2.0


# A screened least eigenvalue lies within about 1e-15 of the exact one,
# so a candidate screened below minus this guard cannot pass _is_ppt.
_PPT_SCREEN_GUARD = 1e-12


def _first_ppt(specs, da: int, db: int) -> np.ndarray | None:
    """The array of the first (rank, seed) candidate that passes _is_ppt, or None.

    Candidate k is _random_density_arr(da * db, *specs[k]).  All of them
    are built as one zero-padded Ginibre stack and screened by one
    stacked eigvalsh of their partial transposes.  The screen only
    discards: each candidate within the guard of PSD is rebuilt exactly
    and decided by _is_ppt, in order, so the answer is the one a loop
    over the candidates gives.
    """
    d = da * db
    # the real and imaginary parts that _ginibre draws, combined as it does
    parts = np.zeros((len(specs), 2, d, d))
    for k, (rank, seed) in enumerate(specs):
        parts[k, :, :, :rank] = np.random.default_rng(seed).standard_normal((2, d, rank))
    g = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
    m = g @ g.conj().swapaxes(1, 2)
    m /= np.real(np.trace(m, axis1=1, axis2=2))[:, None, None]
    least = np.linalg.eigvalsh(_partial_transpose_b(m, da, db))[:, 0]
    for k in np.flatnonzero(least >= -_PPT_SCREEN_GUARD):
        mat = _random_density_arr(d, *specs[k])
        if _is_ppt(mat, da, db):
            return mat
    return None


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Hilbert-Schmidt-measure random state of the given rank.

    G G'/tr(G G') with G a dim x rank complex Ginibre matrix drawn from
    numpy's PCG64 generator; identical (seed, dim, rank) reproduce the
    state bit-for-bit.
    """
    return DensityMatrix(_random_density_arr(dim, rank, seed))


def random_pure(dims, seed: int) -> PureState:
    """Haar-random pure state on the A|B product space."""
    dims = _as_dims(dims)
    vec = _ginibre(np.random.default_rng(seed), dims.total, 1).ravel()
    return PureState(vec / np.linalg.norm(vec), dims)


def random_separable(dims, seed: int, k: int | None = None) -> DensityMatrix:
    """Convex mixture of k random product states; separable by construction.

    k defaults to 2*(dA*dB)^2, comfortably above the Caratheodory bound
    so the samples are not confined to a low-dimensional face.
    """
    dims = _as_dims(dims)
    if k is None:
        k = 2 * dims.total**2
    if k < 1:
        raise InputError("k must be positive")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    mat = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for w in weights:
        a = _ginibre(rng, dims.da, 1).ravel()
        a /= np.linalg.norm(a)
        b = _ginibre(rng, dims.db, 1).ravel()
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        mat += w * np.outer(v, v.conj())
    return DensityMatrix(mat, dims)


def permute_systems(rho: DensityMatrix, perm, subsystem_dims) -> DensityMatrix:
    """Relabel tensor factors: output factor k is input factor perm[k].

    A unitary similarity, so the spectrum is untouched. The bipartite
    tag does not survive the relabeling; retag with .tagged if needed.
    """
    sub = [int(d) for d in subsystem_dims]
    n = len(sub)
    if sorted(perm) != list(range(n)):
        raise InputError(f"perm {perm!r} is not a permutation of 0..{n - 1}")
    if int(np.prod(sub)) != rho.dim:
        raise ShapeError(f"subsystem dims {sub} do not multiply to {rho.dim}")
    axes = list(perm) + [p + n for p in perm]
    t = rho.mat.reshape(sub + sub).transpose(axes)
    return DensityMatrix(np.ascontiguousarray(t.reshape(rho.dim, rho.dim)))


def tensor_bipartite(r1: DensityMatrix, r2: DensityMatrix) -> DensityMatrix:
    """Tensor two bipartite states and regroup A1 B1 A2 B2 -> (A1 A2)|(B1 B2)."""
    da1, db1 = _require_dims(r1)
    da2, db2 = _require_dims(r2)
    kron = np.kron(r1.mat, r2.mat)
    sub = [da1, db1, da2, db2]
    axes = [0, 2, 1, 3]
    t = kron.reshape(sub + sub).transpose(axes + [a + 4 for a in axes])
    dim = r1.dim * r2.dim
    return DensityMatrix(
        np.ascontiguousarray(t.reshape(dim, dim)),
        BipartiteDims(da1 * da2, db1 * db2),
    )


def maximally_mixed(dims) -> DensityMatrix:
    dims = _as_dims(dims)
    return DensityMatrix(np.eye(dims.total) / dims.total, dims)
