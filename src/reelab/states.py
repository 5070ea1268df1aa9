"""Bipartite density matrices: construction, reduction, transposition, sampling.

Index convention, used everywhere including the file format: the basis
state |i>_A |j>_B sits at flat index i*dB + j (row-major, A first).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NormalizationError,
    ShapeError,
    StateInvariantError,
)
from .hermitian import (
    _STACK_ENTRIES, PSD_TOL, HermitianMatrix, SpectralDecomposition, _clears, _eigh, _eigvalsh, _hermitian_part
)

TRACE_TOL = 1e-10
PURE_NORM_TOL = 1e-12


def _integral(value) -> int | None:
    """value as an int when it is an integral number of any numeric type other than bool, else None."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(value, (bool, np.bool_)) or n != value else n


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions of an A|B split."""

    da: int
    db: int

    def __post_init__(self):
        for name in ("da", "db"):
            n = _integral(getattr(self, name))
            if n is None or n < 1:
                raise ShapeError(f"local dimensions must be positive integers, got ({self.da}, {self.db})")
            object.__setattr__(self, name, n)

    @property
    def total(self) -> int:
        return self.da * self.db

    def __iter__(self):
        yield self.da
        yield self.db


def _as_dims(dims) -> BipartiteDims | None:
    if dims is None or isinstance(dims, BipartiteDims):
        return dims
    try:
        da, db = dims
    except (TypeError, ValueError):
        raise ShapeError(f"dims must be a (dA, dB) pair, got {dims!r}") from None
    return BipartiteDims(da, db)


class DensityMatrix:
    """Hermitian, PSD, unit-trace operator with an optional A|B dimension tag.

    Invariants checked at construction: trace within 1e-10 of one and
    min eigenvalue >= -1e-9. A small negative floor (rather than zero)
    keeps round-off from iterative algorithms from being rejected.

    The eigendecomposition that checks positivity is kept as
    ``spectrum`` (eigenvalues ascending, eigenvector columns, both
    read-only), so the entropies and the solver read a state's spectrum
    without decomposing its matrix again.  Every state passes the same
    checks: the state-file loader and ree_ppt hand over the decomposition
    they already hold, and tagged re-validates with this state's own.
    """

    __slots__ = ("matrix", "dims", "spectrum")

    def __init__(self, matrix, dims=None) -> None:
        if not isinstance(matrix, HermitianMatrix):
            matrix = HermitianMatrix(matrix)
        self._from_spectrum(matrix, dims, SpectralDecomposition(*_eigh(matrix.mat)), out=self)

    @classmethod
    def _from_spectrum(cls, matrix: HermitianMatrix, dims, spectrum: SpectralDecomposition, out=None):
        """Every state's checks, given matrix's eigendecomposition; sets the slots of out or a new state."""
        dims = _as_dims(dims)
        if dims is not None and dims.total != matrix.dim:
            raise ShapeError(f"dims {dims.da}x{dims.db} do not match matrix dimension {matrix.dim}")
        tr = matrix.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateInvariantError(f"trace {tr!r} differs from 1 by more than {TRACE_TOL:g}")
        wmin = float(spectrum.eigenvalues[0])
        if not _clears(wmin):
            raise StateInvariantError(f"not positive semidefinite: min eigenvalue {wmin!r}")
        out = cls.__new__(cls) if out is None else out
        out.matrix = matrix
        out.dims = dims
        out.spectrum = spectrum
        return out

    @property
    def mat(self) -> np.ndarray:
        return self.matrix.mat

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def tagged(self, da: int, db: int) -> "DensityMatrix":
        """Same state with an A|B dimension tag attached, matrix and spectrum shared."""
        return DensityMatrix._from_spectrum(self.matrix, BipartiteDims(da, db), self.spectrum)

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


def _states(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack of arrays as states: (Hermitian parts, eigenvalues, eigenvectors).

    The stacked DensityMatrix constructor, without dims: each array is
    symmetrised as HermitianMatrix does, decomposed by one stacked _eigh
    and held to the same trace and positivity checks, so every entry is
    bit for bit that of DensityMatrix(mats[k]).
    """
    sym = _hermitian_part(mats)
    w, u = _eigh(sym)
    tr = np.real(np.trace(sym, axis1=1, axis2=2))
    for k in np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)[:1]:
        raise StateInvariantError(f"trace {float(tr[k])!r} differs from 1 by more than {TRACE_TOL:g}")
    for k in np.flatnonzero(~_clears(w[:, 0]))[:1]:
        raise StateInvariantError(f"not positive semidefinite: min eigenvalue {float(w[k, 0])!r}")
    return sym, w, u


def _trace_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """(rho_A)_{i i'} = sum_j rho_{(i j),(i' j)} of one array or a stack, not validated."""
    return np.einsum("...ijkj->...ik", mat.reshape(*mat.shape[:-2], da, db, da, db))


def _trace_a(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """(rho_B)_{j j'} = sum_i rho_{(i j),(i j')} of one array or a stack, not validated."""
    return np.einsum("...ijil->...jl", mat.reshape(*mat.shape[:-2], da, db, da, db))


def partial_trace_B(rho: DensityMatrix) -> DensityMatrix:
    """Trace out system B: (rho_A)_{i i'} = sum_j rho_{(i j),(i' j)}."""
    return DensityMatrix(_trace_b(rho.mat, *_require_dims(rho)))


def partial_trace_A(rho: DensityMatrix) -> DensityMatrix:
    """Trace out system A: (rho_B)_{j j'} = sum_i rho_{(i j),(i j')}."""
    return DensityMatrix(_trace_a(rho.mat, *_require_dims(rho)))


def _partial_transpose_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose over B of one matrix or of a stack of them."""
    lead = mat.shape[:-2]
    t = mat.reshape(*lead, da, db, da, db)
    return np.ascontiguousarray(t.swapaxes(-1, -3).reshape(*lead, da * db, da * db))


def _is_ppt(mat: np.ndarray, da: int, db: int) -> bool:
    """Whether mat^PT has no eigenvalue below -PSD_TOL: the package's one PPT test."""
    return _clears(float(_eigvalsh(_partial_transpose_b(mat, da, db))[0]))


def _ppt_edge_weight(mat: np.ndarray, da: int, db: int) -> float:
    """The least t >= 0 for which (1 - t) mat + t I/d is PPT, in closed form.

    (I/d)^PT = I/d, so the blend's partial transpose has least eigenvalue
    (1 - t) lam + t/d, lam that of mat^PT: zero at t* = -lam/(1/d - lam).
    """
    return _edge_weight(float(_eigh(_partial_transpose_b(mat, da, db))[0][0]), da * db)


def _edge_weight(lam: float, d: int) -> float:
    """_ppt_edge_weight from the least eigenvalue lam of mat^PT, d the total dimension."""
    return -lam / (1.0 / d - lam) if lam < 0.0 else 0.0


def partial_transpose_B(rho: DensityMatrix) -> HermitianMatrix:
    """Transpose the B indices: entry ((i j),(i' j')) -> ((i j'),(i' j))."""
    da, db = _require_dims(rho)
    return HermitianMatrix(_partial_transpose_b(rho.mat, da, db))


def _reduction_b(mat: np.ndarray, da: int, db: int) -> np.ndarray:
    """rho_A (x) 1_B - rho of one array or a stack, not symmetrised."""
    return np.kron(_trace_b(mat, da, db), np.eye(db)) - mat


def reduction_operator(rho: DensityMatrix) -> HermitianMatrix:
    """rho_A (x) 1_B - rho, whose positivity the reduction criterion asserts."""
    return HermitianMatrix(_reduction_b(rho.mat, *_require_dims(rho)))


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


def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The steps + 1 successive values of SeedSequence's running hash constant."""
    out = [init]
    for _ in range(steps):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# numpy.random.SeedSequence with its pool of 4 words: the hash constants of
# the 16 hashmix calls that mix an entropy of up to 4 words into the pool,
# of the 8 that generate_state(4, uint64) makes from it, and of mix
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the columns of words, column k with constants k and k + 1."""
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ (words >> 16)


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """The state a SeedSequence generates for PCG64, hashed ahead of time; it cannot spawn."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise InputError("a hashed seed holds PCG64's four 64-bit words only")
        return self.state


def _generators(entropy: np.ndarray):
    """An iterator of one generator per row of an (n, k <= 4) block of uint32 entropy words.

    Row e gives the generator np.random.default_rng(np.random.SeedSequence(e))
    bit for bit.  SeedSequence's hash runs once over all rows; PCG64
    seeds itself from a row's hashed state when the iterator reaches it,
    so a caller that takes the generators a stack at a time holds one
    stack of them.  An entropy shorter than the pool is hashed as if
    padded with zero words, as SeedSequence does, so rows of different
    lengths share one zero-padded block.
    """
    n, k = entropy.shape
    if k > 4:
        raise InputError(f"an entropy of {k} words is longer than SeedSequence's pool of 4")
    pool = np.zeros((n, 4), dtype=np.uint32)
    pool[:, :k] = entropy
    pool = _hashmix(pool, _POOL_HASH[:5])
    step = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        mixed = _MIX_L * pool[:, dst] - _MIX_R * _hashmix(pool[:, [src]], _POOL_HASH[step:step + 4])
        pool[:, dst] = mixed ^ (mixed >> 16)
        step += 3
    words = _hashmix(np.tile(pool, 2), _STATE_HASH).astype(np.uint64)
    state = words[:, 0::2] | (words[:, 1::2] << np.uint64(32))
    return (np.random.Generator(np.random.PCG64(_HashedSeed(row))) for row in state)


def _entropy(prefix, values) -> np.ndarray:
    """The uint32 words SeedSequence([*prefix, v]) hashes, one row per v of values.

    Each integer becomes its little-endian 32-bit words, at least one, as
    in SeedSequence.  The values, below 2**64, take two words or, when
    all are below 2**32, one; a high word of zero ends a row, where
    SeedSequence's padding puts the same zero.  With an empty prefix row
    v is the entropy of the integer seed v.
    """
    head = []
    for p in prefix:
        if p < 0:
            raise InputError(f"a seed must be nonnegative, got {p}")
        head.append(p & 0xFFFFFFFF)
        while p > 0xFFFFFFFF:
            p >>= 32
            head.append(p & 0xFFFFFFFF)
    v = np.asarray(values, dtype=np.uint64).reshape(-1)
    high = v >> np.uint64(32)
    tail = [v & np.uint64(0xFFFFFFFF)] + ([high] if np.any(high) else [])
    return np.column_stack([np.full(len(v), w, dtype=np.uint64) for w in head] + tail).astype(np.uint32)


def _random_density_arr(dim: int, rank: int, seed: int) -> np.ndarray:
    """The array random_density stores, built without validating it.

    Symmetrised exactly as HermitianMatrix does, so wrapping the result
    in a DensityMatrix leaves every bit as it is.
    """
    if not 1 <= rank <= dim:
        raise InputError(f"rank must satisfy 1 <= rank <= dim, got rank {rank}, dim {dim}")
    return _gram_state(_ginibre(np.random.default_rng(seed), dim, rank))


def _gram_state(g: np.ndarray) -> np.ndarray:
    """G G'/tr(G G') for one Ginibre matrix G, symmetrised as HermitianMatrix does."""
    m = g @ g.conj().T
    m = m / np.real(np.trace(m))
    return (m + m.conj().T) / 2.0


# A screened least eigenvalue lies within about 1e-15 of the exact one, so
# a candidate screened below -PSD_TOL minus this guard cannot pass _is_ppt.
# The sign stage shifts rho^PT by the same c = PSD_TOL + guard: a wrong
# determinant sign needs an eigenvalue within about 1e-14 of -c, which
# _is_ppt rejects as well.
_PPT_SCREEN_GUARD = 1e-12


@functools.cache
def _pt_pairs(da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat index pairs r < s of (i j) and (i' j') with i != i' and j != j'.

    Only there does the partial transpose move an entry into a 2x2
    principal submatrix; every other such submatrix of rho^PT is one of
    rho or of its transpose.
    """
    r, s = np.triu_indices(da * db, 1)
    both = (r // db != s // db) & (r % db != s % db)
    pairs = r[both], s[both]
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _least_minor(pt: np.ndarray, da: int, db: int) -> np.ndarray:
    """For each rho^PT of a stack, the least eigenvalue of its 2x2 principal submatrices on the _pt_pairs rows.

    In closed form, (a + b)/2 - |((a - b)/2, c)| for the submatrix
    [[a, c], [c*, b]].  By Cauchy interlacing no eigenvalue of rho^PT
    lies below it.
    """
    r, s = _pt_pairs(da, db)
    diag = np.real(np.diagonal(pt, axis1=1, axis2=2))
    a, b = diag[:, r], diag[:, s]
    return np.min(0.5 * (a + b) - np.hypot(0.5 * (a - b), np.abs(pt[:, r, s])), axis=1, initial=np.inf)


def _ppt_screen(candidates, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """For each (rank, generator) candidate, whether _screen_pt keeps its rho^PT.

    _first_ppt passes only the candidates its rank rule draws, those of
    rank above max(da, db) when both are at least 2.  They are built as
    one zero-padded Ginibre stack, with the normal draws _ginibre makes
    from each generator.  Also returns the padded Ginibre matrices of the
    kept candidates: the first rank columns of each hold the bits
    _ginibre gives.
    """
    d = da * db
    # the real and imaginary parts that _ginibre draws, combined as it does
    parts = np.zeros((len(candidates), 2, d, d))
    for k, (rank, rng) in enumerate(candidates):
        parts[k, :, :, :rank] = rng.standard_normal((2, d, rank))
    g = (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
    m = g @ g.conj().swapaxes(1, 2)
    m /= np.real(np.trace(m, axis1=1, axis2=2))[:, None, None]
    kept = _screen_pt(_partial_transpose_b(m, da, db), da, db)
    return kept, g[kept]


def _screen_pt(pt: np.ndarray, da: int, db: int) -> np.ndarray:
    """For each rho^PT of a stack, whether it is within the guard of PPT.

    Three stages, each only on the survivors of the one before, with
    c = PSD_TOL + _PPT_SCREEN_GUARD; a stage discards only what _is_ppt
    rejects too.  First the 2x2 minors: a rho^PT whose _least_minor is
    below -c has, by interlacing, an eigenvalue at least as low.  Then
    the sign of det(rho^PT + cI), the product of the lambda_i + c, from
    one stacked slogdet (det underflows at large d): a negative sign
    means an odd number of eigenvalues below -c.  rho^PT has at most
    (da - 1)(db - 1) negative eigenvalues (Rana, PRA 87, 054301 (2013)),
    at most one at 2x2 (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)),
    so the sign rejects nearly every NPT candidate the minors keep at
    2x2 and most of them at 2x3.  LU with partial pivoting is backward
    stable, so a wrong sign needs an eigenvalue within about 1e-14 of
    -c, below -PSD_TOL.  Last one stacked eigvalsh, whose least
    eigenvalue is within about 1e-15 of the exact one.  The minors go
    first: where most rho^PT carry an even number of negative
    eigenvalues (2x4, 3x3) the sign alone costs more than it saves.
    """
    d = da * db
    c = PSD_TOL + _PPT_SCREEN_GUARD
    kept = _clears(_least_minor(pt, da, db), c)
    if np.any(kept):
        shifted = pt[kept]
        shifted.reshape(len(shifted), d * d)[:, :: d + 1] += c
        kept[kept] = np.real(np.linalg.slogdet(shifted)[0]) >= 0.0
    if np.any(kept):
        kept[kept] = _clears(_eigvalsh(pt[kept])[:, 0], c)
    return kept


def _first_ppt(groups, da: int, db: int) -> list:
    """For each group of (rank, seed) candidates, the array of its first that passes _is_ppt, or None.

    Candidate (rank, seed) is _random_density_arr(da * db, rank, seed).
    groups is an (n, size, 2) int64 array, as _nondistillable_arrays
    draws a chunk, or a list of lists of pairs, possibly ragged.
    When da and db are both at least 2, a candidate of rank at most
    max(da, db) is marked not kept without being drawn: it is NPT with
    probability 1.  A PPT state of rank at most max(rank rho_A, rank rho_B)
    is separable (P. Horodecki, Lewenstein, Vidal & Cirac, PRA 62, 032310
    (2000)), and a Ginibre state's reductions have full rank.  A generic
    subspace of dimension at most (da - 1)(db - 1) holds no product vector
    (Parthasarathy, Proc. Indian Acad. Sci. 114, 365 (2004)); one of
    dimension (da - 1)(db - 1) + 1, the 2xN cell of rank N, holds finitely
    many, and a state on it is separable only if it mixes their projectors,
    a condition of measure zero.  At 1xN every state is PPT and no
    candidate is skipped.  Over 100,000 Ginibre states per skipped cell
    (50,000 at 3x3), the largest least eigenvalue of rho^PT was -1.2e-3
    and -3.0e-4 at 2x2 ranks 1 and 2, at most -7.7e-3 at 2x3, -1.7e-2 at
    2x4 and -5.6e-2 at 3x3, against the test's -1e-9.

    The pairs are flattened into one array, and the rank rule, the
    seeding and the kept marks work on index arrays.  The seeds of the
    drawn candidates are hashed in one _generators pass; the candidates
    are then drawn and screened together by _ppt_screen, by 2x2 minors,
    by the sign of det(rho^PT + cI) and by stacked eigvalsh (_screen_pt),
    in stacks of at most _STACK_ENTRIES matrix entries.  The screen only
    discards: each candidate within the guard of the PPT test is rebuilt
    exactly, one matrix at a time from the normal draws the screen made
    for it, and decided by _is_ppt, in its group's order.  So each answer
    is the one a loop over that group gives, provided the skipped cells
    are NPT, as the sequential-loop test and the frozen report digests
    check.
    """
    d = da * db
    if isinstance(groups, np.ndarray):
        specs = groups.reshape(-1, 2)
    else:
        specs = np.array([spec for group in groups for spec in group], dtype=np.int64).reshape(-1, 2)
    # the group of each candidate, by its index in specs
    owner = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    ranks = specs[:, 0]
    floor = max(da, db) if min(da, db) >= 2 else 0
    drawn = np.flatnonzero(ranks > floor)
    rngs = _generators(_entropy((), specs[drawn, 1]))
    per_stack = max(1, _STACK_ENTRIES // (d * d))
    out = [None] * len(groups)
    for lo in range(0, len(drawn), per_stack):
        stack = drawn[lo:lo + per_stack]
        kept, g = _ppt_screen(list(zip(ranks[stack].tolist(), rngs)), da, db)
        # kept candidates in specs order: each group's in its own order
        for i, gin in zip(stack[kept].tolist(), g):
            k = owner[i]
            if out[k] is None:
                mat = _gram_state(gin[:, : ranks[i]])
                if _is_ppt(mat, da, db):
                    out[k] = mat
    return out


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


def _random_separable_arr(dims: BipartiteDims, rng: np.random.Generator, k: int) -> np.ndarray:
    """The array random_separable validates, for k >= 1 products drawn from rng."""
    weights = rng.dirichlet(np.ones(k))
    mat = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for w in weights:
        a = _ginibre(rng, dims.da, 1).ravel()
        a /= np.linalg.norm(a)
        b = _ginibre(rng, dims.db, 1).ravel()
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        mat += w * np.outer(v, v.conj())
    return mat


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
    return DensityMatrix(_random_separable_arr(dims, np.random.default_rng(seed), k), dims)


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
