"""The stacked kernels on (N, d, d) arrays against their single-state functions.

verify evaluates its solver-free suites through these kernels, and its
frozen report digests hold only while every kernel reproduces the
single-state function bit for bit.  Each stack here mixes ranks and
includes rank-deficient states whose theorem1 gap is None or +inf.
"""

import math

import numpy as np
import pytest

from reelab.criteria import _sample_monotone_pairs, _witnesses, ppt_criterion, reduction_criterion
from reelab.entropy import (
    _plogp,
    _relative_entropies,
    _theorem1_gaps,
    relative_entropy,
    theorem1_gap,
    von_neumann_entropy,
)
from reelab.errors import DomainError, EigensolverError, InputError, StateInvariantError
from reelab.hermitian import (
    _LOG_PD,
    HermitianMatrix,
    _checked_eigh,
    _eigh,
    _eigvalsh,
    _matrix_functions,
    eig_hermitian,
    matrix_function,
)
from reelab.states import (
    DensityMatrix,
    _ginibre,
    _partial_transpose_b,
    _reduction_b,
    _states,
    _trace_a,
    _trace_b,
    partial_trace_A,
    partial_trace_B,
    partial_transpose_B,
    random_density,
    reduction_operator,
)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def mixed_pairs(da, db):
    """(sigma, rho) arrays of every rank, then the pairs whose gap is None and +inf."""
    d = da * db
    sigmas = [random_density(d, 1 + k % d, 300 + k).mat for k in range(2 * d)]
    rhos = [random_density(d, d - k % d, 500 + k).mat for k in range(2 * d)]
    basis = np.eye(d)
    # rho_A = |0><0| misses sigma_A = |1><1|: the reduced term diverges, the gap is None
    rhos.append(np.kron(np.outer(basis[0, :da], basis[0, :da]), np.eye(db) / db))
    sigmas.append(np.kron(np.outer(basis[1, :da], basis[1, :da]), np.eye(db) / db))
    # sigma = |01><01| lies outside rho = (|00><00| + |11><11|)/2 while both
    # reductions of rho are full rank: only the joint term diverges, the gap is +inf
    corr = np.zeros((d, d))
    for i in range(min(da, db)):
        corr[i * db + i, i * db + i] = 1.0 / min(da, db)
    rhos.append(corr)
    sigmas.append(np.outer(basis[1], basis[1]))
    return np.stack(sigmas).astype(complex), np.stack(rhos).astype(complex)


DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("da, db", DIMS)
def test_states_match_density_matrix(da, db):
    sigmas, _ = mixed_pairs(da, db)
    mats, w, u = _states(sigmas)
    for k, arr in enumerate(sigmas):
        state = DensityMatrix(arr)
        assert same(mats[k], state.mat)
        assert same(w[k], state.spectrum.eigenvalues)
        assert same(u[k], state.spectrum.eigenvectors)


def test_states_reject_what_density_matrix_rejects():
    good = random_density(4, 2, 1).mat
    for bad, match in ((1.01 * good, "trace"), (np.diag([1.2, 0.0, 0.0, -0.2]), "semidefinite")):
        with pytest.raises(StateInvariantError, match=match):
            DensityMatrix(bad)
        with pytest.raises(StateInvariantError, match=match):
            _states(np.stack([good, bad]).astype(complex))
    with pytest.raises(InputError):
        _states(np.stack([good, np.full((4, 4), np.nan)]).astype(complex))


@pytest.mark.parametrize("da, db", DIMS)
def test_partial_maps_match_single_arrays(da, db):
    sigmas, _ = mixed_pairs(da, db)
    mats = _states(sigmas)[0]
    traced_b, traced_a = _trace_b(mats, da, db), _trace_a(mats, da, db)
    transposed, reduced = _partial_transpose_b(mats, da, db), _reduction_b(mats, da, db)
    for k, mat in enumerate(mats):
        state = DensityMatrix(mat, (da, db))
        assert same(_hermitian(traced_b[k]), partial_trace_B(state).mat)
        assert same(_hermitian(traced_a[k]), partial_trace_A(state).mat)
        assert same(_hermitian(transposed[k]), partial_transpose_B(state).mat)
        assert same(_hermitian(reduced[k]), reduction_operator(state).mat)


def _hermitian(arr):
    return HermitianMatrix(arr).mat


@pytest.mark.parametrize("da, db", DIMS)
def test_eigensolvers_match_single_calls(da, db):
    sigmas, rhos = mixed_pairs(da, db)
    stack = _partial_transpose_b(np.concatenate([sigmas, rhos]), da, db)
    w, u = _eigh(stack)
    values = _eigvalsh(stack)
    for k, mat in enumerate(stack):
        assert same(w[k], _eigh(mat)[0])
        assert same(u[k], _eigh(mat)[1])
        assert same(values[k], _eigvalsh(mat))


@pytest.mark.parametrize("da, db", DIMS)
def test_entropies_and_gaps_match_single_states(da, db):
    sigmas, rhos = mixed_pairs(da, db)
    sigma, rho = _states(sigmas), _states(rhos)
    plogp = _plogp(sigma[1])
    rel = _relative_entropies(sigma[0], plogp, rho[1], rho[2])
    gaps_a, gaps_b = _theorem1_gaps(sigma, rho, da, db)
    seen = set()
    for k in range(len(sigmas)):
        s, r = DensityMatrix(sigmas[k], (da, db)), DensityMatrix(rhos[k], (da, db))
        assert same(max(0.0, -plogp[k]), von_neumann_entropy(s))
        assert same(rel[k], relative_entropy(s, r))
        for side, gaps in (("A", gaps_a), ("B", gaps_b)):
            want = theorem1_gap(s, r, side)
            if want is None:
                assert math.isnan(gaps[k])
                seen.add("none")
            else:
                assert same(gaps[k], want)
                seen.add("inf" if math.isinf(want) else "finite")
    assert seen == {"none", "inf", "finite"}


@pytest.mark.parametrize("da, db", DIMS)
def test_witnesses_match_criteria(da, db):
    sigmas, rhos = mixed_pairs(da, db)
    mats = _states(np.concatenate([sigmas, rhos]))[0]
    for tol in (1e-9, 0.05):
        red_holds, red_w = _witnesses(_reduction_b(mats, da, db), tol)
        ppt_holds, ppt_w = _witnesses(_partial_transpose_b(mats, da, db), tol)
        for k, mat in enumerate(mats):
            state = DensityMatrix(mat, (da, db))
            red, ppt = reduction_criterion(state, tol), ppt_criterion(state, tol)
            assert (bool(red_holds[k]), bool(ppt_holds[k])) == (red.holds, ppt.holds)
            assert same(red_w[k], red.witness_eigenvalue)
            assert same(ppt_w[k], ppt.witness_eigenvalue)
    with pytest.raises(InputError):
        _witnesses(mats, -1.0)


def test_matrix_functions_match_matrix_function():
    rng = np.random.default_rng(3)
    for d in (2, 3, 5):
        g = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        mats = g @ g.conj().swapaxes(1, 2) + 0.1 * np.eye(d)
        logs = _matrix_functions(mats, _LOG_PD)
        for k, mat in enumerate(mats):
            h = HermitianMatrix(mat)
            assert same(logs[k], matrix_function(h, _LOG_PD).mat)
            dec = eig_hermitian(h)
            w, u = _checked_eigh(h.mat)
            assert same(w, dec.eigenvalues) and same(u, dec.eigenvectors)
        singular = mats.copy()
        singular[4] = np.diag(np.arange(d, dtype=float))
        with pytest.raises(DomainError) as info:
            _matrix_functions(singular, _LOG_PD)
        assert info.value.eigenvalue == 0.0


def test_checked_eigh_gates_each_matrix(monkeypatch):
    mats = np.stack([np.eye(3, dtype=complex), np.diag([1.0, 2.0, 3.0]).astype(complex)])
    inner = np.linalg.eigh

    def skewed(a):
        w, u = inner(a)
        u = u.copy()
        u[..., -1, 0, 0] *= 1.1
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(EigensolverError, match="orthonormal"):
        _checked_eigh(mats)


def _sample_monotone_pair(rng, dim, b_range, delta_range):
    """The sampler as a loop over one generator, as criteria used to draw a pair."""
    out = []
    for lo, hi in (b_range, delta_range):
        g = _ginibre(rng, dim, dim)
        w, u = _eigh(g @ g.conj().T)
        span = w[-1] - w[0]
        w = np.full(dim, 0.5 * (lo + hi)) if span <= 0 else lo + (hi - lo) * (w - w[0]) / span
        out.append((w, u))
    (wb, ub), (wd, ud) = out
    b = (ub * wb) @ ub.conj().T
    return b + (ud * wd) @ ud.conj().T, b, wb, ub


@pytest.mark.parametrize("dim", [1, 2, 4, 6])
def test_monotone_pairs_match_the_loop(dim):
    rngs = [np.random.default_rng([9, k]) for k in range(11)]
    got = _sample_monotone_pairs(rngs, dim, (0.1, 10.0), (0.0, 1.0))
    for k in range(11):
        want = _sample_monotone_pair(np.random.default_rng([9, k]), dim, (0.1, 10.0), (0.0, 1.0))
        for x, y in zip(got, want):
            assert same(x[k], y)
