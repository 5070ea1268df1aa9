import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from reelab.entropy import lemma2_bound, relative_entropy, von_neumann_entropy
from reelab.criteria import ppt_criterion
from reelab.errors import ConvergenceWarning, InputError, NormalizationError, ShapeError
from reelab.hermitian import _log_divided_differences
from reelab import solver, states, verify
from reelab.solver import (
    bell_diagonal_ree_oracle,
    closest_state_for_pure,
    eof_two_qubit,
    ree_ppt,
)
from reelab.states import (
    BipartiteDims,
    DensityMatrix,
    PureState,
    bell_diagonal,
    maximally_mixed,
    partial_trace_B,
    pure_from_schmidt,
    random_density,
    random_pure,
    random_separable,
    singlet,
    tensor_bipartite,
    werner,
)

# binary entropy of 0.9, the closed-form value for Schmidt (sqrt .9, sqrt .1)
H09 = 0.4689955935892811
# REE of werner(0.75), the Bell-diagonal closed form 1 - h(0.75)
WERNER75_REE = 0.18872187554086717
# concurrence formula output for werner(0.75)
WERNER75_EOF = 0.35457890266527003
# solver value for random_density(6, 2, 0) at 2x3, frozen from a run that
# took 40 descent steps before the barrier path; a barrier path that cuts
# the weight after at most 6 steps, without centring, stops 6.2e-3 bits
# above it
RANK2_2X3_REE = 0.2686356363933422


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_ree_options_validation():
    with pytest.raises(InputError):
        ree_ppt(singlet(), max_iters=0)


def test_ree_singlet():
    res = ree_ppt(singlet())
    assert res.converged
    assert res.value_bits == pytest.approx(1.0, abs=1e-3)
    # the known closest state is the dephased mixture at distance 1 bit
    assert res.value_bits == pytest.approx(1.0, abs=1e-6)


def test_ree_werner():
    res = ree_ppt(werner(0.75))
    assert res.converged
    assert res.value_bits == pytest.approx(WERNER75_REE, abs=1e-6)


def test_ree_pure_schmidt():
    psi = pure_from_schmidt([np.sqrt(0.9), np.sqrt(0.1)], (2, 2))
    res = ree_ppt(psi.density())
    assert res.value_bits == pytest.approx(H09, abs=1e-3)
    assert res.converged


def test_ree_separable_inputs():
    for seed in range(5):
        sep = random_separable((2, 2), seed=70 + seed)
        res = ree_ppt(sep)
        assert res.value_bits <= 1e-6
        assert trace_distance(res.closest_state.mat, sep.mat) <= 1e-5


def test_ree_full_rank_ppt_inputs_converge():
    # the REE of these is 0, so near the end of the barrier path the
    # objective is at rounding level, and the certificate must still close
    for (da, db), seed in (((2, 2), 123), ((2, 3), 214)):
        sigma = random_density(da * db, da * db, seed).tagged(da, db)
        assert ppt_criterion(sigma).holds
        res = ree_ppt(sigma)
        assert res.converged
        assert res.value_bits <= 1e-10


def test_ree_value_matches_relative_entropy_to_closest():
    for seed in range(6):
        sigma = random_density(4, 4, 90 + seed).tagged(2, 2)
        res = ree_ppt(sigma)
        direct = relative_entropy(sigma, res.closest_state)
        assert res.value_bits == pytest.approx(direct, abs=1e-10)


def test_ree_closest_state_is_feasible():
    inputs = [
        singlet(),
        werner(0.75),
        random_pure((2, 2), seed=21).density(),
        random_density(4, 4, 22).tagged(2, 2),
    ]
    for sigma in inputs:
        res = ree_ppt(sigma)
        mat = res.closest_state.mat
        assert abs(float(np.trace(mat).real) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(mat)[0] >= -1e-12
        assert ppt_criterion(res.closest_state, 1e-8).holds


def test_ree_respects_lemma2_bound():
    for seed in range(25):
        sigma = random_density(4, 4, 400 + seed).tagged(2, 2)
        res = ree_ppt(sigma)
        assert res.value_bits >= lemma2_bound(sigma) - 1e-6
        assert res.value_bits >= 0.0


def test_ree_reported_value_monotone_in_budget():
    # prefix runs: allowing more iterations can only improve the reported
    # value, which tracks the best feasible iterate; an entangled mixed
    # input, since pure ones are answered in closed form
    sigma = random_density(4, 2, 0).tagged(2, 2)
    previous = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for budget in (1, 2, 4, 8, 16, 32, 64, 128):
            res = ree_ppt(sigma, max_iters=budget)
            assert res.value_bits <= previous + 1e-7
            previous = res.value_bits


def test_ree_budget_exhaustion_flagged():
    with pytest.warns(ConvergenceWarning):
        res = ree_ppt(random_density(4, 2, 0).tagged(2, 2), max_iters=3)
    assert not res.converged
    assert res.iterations == 3


def test_ree_eigh_budget(monkeypatch):
    # the barrier path decomposes each point once, in its line search,
    # and each dual bound adds two calls; the start point's decomposition
    # runs in states and is not counted, and the returned state reuses
    # its point's (test_ree_decomposes_in_states_only_for_the_start).
    # These inputs take 84 and 93 calls, against 90 and 106 when every
    # solve centred down to the weight floor at 5x cuts
    calls = 0
    inner = solver._eigh

    def counted(mat):
        nonlocal calls
        calls += 1
        return inner(mat)

    monkeypatch.setattr(solver, "_eigh", counted)
    cases = [
        (random_density(4, 4, 3).tagged(2, 2), 86),
        (random_density(6, 2, 0).tagged(2, 3), 95),
    ]
    for sigma, budget in cases:
        calls = 0
        res = ree_ppt(sigma)
        assert res.converged
        assert calls <= budget


def test_ree_decomposes_in_states_only_for_the_start(monkeypatch):
    # the one states._eigh call of a solve is _ppt_edge_weight's, for the
    # start point; the closest state takes the line search's decomposition
    sigma = random_density(6, 3, 5).tagged(2, 3)
    calls = {"eigh": 0, "edge": 0}
    eigh, edge = states._eigh, solver._ppt_edge_weight

    def counted_eigh(mat):
        calls["eigh"] += 1
        return eigh(mat)

    def counted_edge(*args):
        calls["edge"] += 1
        return edge(*args)

    monkeypatch.setattr(states, "_eigh", counted_eigh)
    monkeypatch.setattr(solver, "_ppt_edge_weight", counted_edge)
    ree_ppt(sigma)
    assert calls == {"eigh": 1, "edge": 1}


def test_ree_closest_state_spectrum_is_its_eigh():
    for da, db in ((2, 2), (2, 3), (3, 3)):
        d = da * db
        for rank in range(1, d + 1):
            res = ree_ppt(random_density(d, rank, 600 + rank).tagged(da, db))
            state = res.closest_state
            w, u = np.linalg.eigh(state.mat)
            assert state.spectrum.eigenvalues.tobytes() == w.tobytes(), (da, db, rank)
            assert state.spectrum.eigenvectors.tobytes() == u.tobytes(), (da, db, rank)
            assert state.dims == BipartiteDims(da, db)


def test_ree_newton_step_budget(monkeypatch):
    # the first step after each barrier-weight cut follows the tangent of
    # the central path, so the weight can be cut 20x at a time, and the
    # path stops on the certificate: 20 steps on this input, against 30
    # with 5x cuts down to the weight floor and 58 with a plain Newton
    # step after each cut, which runs into the cone boundary
    calls = 0
    inner = solver._newton_step

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "_newton_step", counted)
    res = ree_ppt(random_density(6, 6, 1).tagged(2, 3))
    assert res.converged
    assert calls <= 22


def test_ree_stops_on_certificate_before_weight_floor(monkeypatch):
    weights = []
    inner = solver._newton_step

    def recorded(p, table, grad, mu, *rest):
        weights.append(mu)
        return inner(p, table, grad, mu, *rest)

    monkeypatch.setattr(solver, "_newton_step", recorded)
    res = ree_ppt(random_density(6, 6, 1).tagged(2, 3))
    assert res.converged
    assert min(weights) > solver._MU_FLOOR
    assert 0.0 <= res.value_bits - res.lower_bits <= 1e-9


def test_ree_budget_limited_bound_stays_below_value():
    sigma = random_density(6, 6, 1).tagged(2, 3)
    with pytest.warns(ConvergenceWarning):
        res = ree_ppt(sigma, max_iters=8)
    assert not res.converged
    assert res.lower_bits <= res.value_bits
    # the bound is below the REE, which the full solve bounds from above
    assert res.lower_bits <= ree_ppt(sigma).value_bits


def test_ree_returns_best_bound_seen(monkeypatch):
    # the first bound, the KKT polish's first, falls just short of
    # certifying and every later one is useless: the polish fails, and the
    # path runs on to the weight floor and keeps the first
    bounds = []
    inner = solver._dual_bound

    def degraded(*args):
        bounds.append(inner(*args) - 1e-8 if not bounds else -math.inf)
        return bounds[-1]

    monkeypatch.setattr(solver, "_dual_bound", degraded)
    res = ree_ppt(random_density(6, 6, 1).tagged(2, 3))
    assert len(bounds) >= 2
    assert not res.converged
    assert res.lower_bits == solver._bits(bounds[0])
    assert res.lower_bits <= res.value_bits


def test_point_carries_value_and_barrier_logdet():
    sigma = random_density(6, 3, 5).tagged(2, 3)
    rho_state = DensityMatrix(0.5 * random_density(6, 6, 6).mat + 0.5 * np.eye(6) / 6, dims=(2, 3))
    assert ppt_criterion(rho_state, 0.0).holds
    sigma_term = solver._entropy_term_nat(sigma.spectrum.eigenvalues)
    p = solver._point(sigma.mat, rho_state.mat, sigma_term, 2, 3)
    assert p is not None
    assert p.f == pytest.approx(relative_entropy(sigma, rho_state) * math.log(2.0), abs=1e-12)
    want = sum(
        np.linalg.slogdet(m)[1] for m in (rho_state.mat, solver._partial_transpose_b(rho_state.mat, 2, 3))
    )
    assert p.logdet == pytest.approx(want, abs=1e-12)


def test_point_rejects_infeasible_rho(monkeypatch):
    calls = 0
    inner = solver._eigh

    def counted(mat):
        nonlocal calls
        calls += 1
        return inner(mat)

    monkeypatch.setattr(solver, "_eigh", counted)
    sig = singlet().mat
    # rho itself is indefinite: rejected before rho^PT is decomposed
    assert solver._point(sig, np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex), 0.0, 2, 2) is None
    assert calls == 1
    # rho is positive definite, but its partial transpose is not
    npt = 0.9 * singlet().mat + 0.1 * np.eye(4) / 4
    assert solver._point(sig, npt, 0.0, 2, 2) is None


def _lemma2_trial_sigma(seed, trial, dims):
    # the state that verify's lemma2 trial draws
    return verify._random_sigma(verify._trial_rng(seed, "lemma2", trial), dims)[0]


def test_ree_value_is_least_over_the_path(monkeypatch):
    # the reported value is the strict minimum over the iterates: no
    # later iterate within rounding of it replaces it.  werner(0.3) is PPT,
    # so it takes the path only in the Hermitian basis without closed forms
    values = []
    inner = solver._newton_step

    def recorded(p, *rest, **kwargs):
        values.append(p.f)
        return inner(p, *rest, **kwargs)

    monkeypatch.setattr(solver, "_newton_step", recorded)
    for sigma, solve in (
        (_lemma2_trial_sigma(7, 5, BipartiteDims(2, 2)), ree_ppt),
        (werner(0.3), lambda sigma: solver._solve(sigma, 5000, hermitian=True)),
    ):
        values.clear()
        res = solve(sigma)
        assert values
        assert all(res.value_bits <= solver._bits(f) for f in values)


def test_ree_barrier_path_makes_no_projections():
    # the solver has no projection left: it certifies its answer with the
    # dual bound, which lemma 2 bounds from below like the REE itself
    for sigma in (random_density(4, 2, 0).tagged(2, 2), random_density(6, 2, 0).tagged(2, 3)):
        res = ree_ppt(sigma)
        assert res.lower_bits >= lemma2_bound(sigma) - 1e-9
        assert res.lower_bits <= res.value_bits


def test_ree_certifies_rank_deficient_inputs():
    # the projected-gradient stationarity test left these unconverged
    # although each value was exact to 1e-11 bits
    for seed in (0, 4):
        res = ree_ppt(random_density(4, 2, seed).tagged(2, 2))
        assert res.converged
        assert 0.0 <= res.value_bits - res.lower_bits <= 1e-9


def _pure_with_exact(dims, seed):
    psi = random_pure(dims, seed=seed)
    return psi.density(), von_neumann_entropy(partial_trace_B(psi.density()))


@pytest.mark.parametrize("budget", [1, 3, 8, 15, 5000])
def test_ree_lower_bound_never_exceeds_exact(budget):
    rng = np.random.default_rng(61)
    bell = [rng.dirichlet(np.ones(4)) for _ in range(3)]
    cases = [(singlet(), 1.0), (werner(0.75), WERNER75_REE)]
    cases += [(bell_diagonal(p), bell_diagonal_ree_oracle(p)) for p in bell]
    cases.append((pure_from_schmidt([np.sqrt(0.9), np.sqrt(0.1)], (2, 2)).density(), H09))
    cases += [_pure_with_exact(dims, 620 + k) for k, dims in enumerate([(2, 2), (2, 3), (3, 3)])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for sigma, exact in cases:
            res = ree_ppt(sigma, max_iters=budget)
            assert res.lower_bits <= exact + 1e-10
            assert res.lower_bits <= res.value_bits


def test_ree_rank2_2x3_no_worse_than_frozen():
    sigma = random_density(6, 2, 0).tagged(2, 3)
    res = ree_ppt(sigma)
    assert res.value_bits <= RANK2_2X3_REE + 1e-9
    assert res.value_bits >= lemma2_bound(sigma) - 1e-9
    assert res.converged


def _kron_newton_hessian(w, u, overlaps_full, rho_inv, tau_inv, mu_curv, da, db):
    # dense d^6 reference: the divided-difference frame changed to the
    # computational basis by the Kronecker product of the eigenbases
    d = len(w)
    n = d * d
    perm = np.arange(n).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n)
    table = _log_divided_differences(w, second=True)[1]
    eye = np.eye(d)
    frame = np.einsum("ia,bk,ibk->ikab", eye, overlaps_full, table) + np.einsum(
        "kl,ij,ijk->ikjl", eye, overlaps_full, table
    )
    basis = np.kron(u, u.conj())
    hess = basis @ frame.reshape(n, n) @ basis.conj().T
    hess = hess + mu_curv * np.kron(rho_inv, rho_inv.T)
    hess = hess + mu_curv * np.kron(tau_inv, tau_inv.T)[np.ix_(perm, perm)]
    return (hess + hess.conj().T) / 2.0


def _real_coords(d):
    # T = ((1+i) I + (1-i) F)/2, F the permutation that transposes vec:
    # vec X = T vec(Re X + Im X) for Hermitian X
    n = d * d
    flip = np.eye(n)[np.arange(n).reshape(d, d).T.reshape(n)]
    return ((1.0 + 1.0j) * np.eye(n) + (1.0 - 1.0j) * flip) / 2.0


def _real_vec(x):
    return (x.real + x.imag).reshape(-1)


def _complex_newton_step(w, u, overlaps, s, v, grad, mu, da, db):
    # the complex bordered solve on vec(rho), of size d^2 + 1
    d = len(w)
    n = d * d
    rho_inv = (u * (1.0 / w)) @ u.conj().T
    tau_inv = (v * (1.0 / s)) @ v.conj().T
    g_mu = grad - mu * rho_inv - mu * solver._partial_transpose_b(tau_inv, da, db)
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = _kron_newton_hessian(w, u, overlaps, rho_inv, tau_inv, mu, da, db)
    tvec = np.eye(d).reshape(n)
    bordered[:n, n] = tvec
    bordered[n, :n] = tvec
    rhs = np.zeros(n + 1, dtype=complex)
    rhs[:n] = -g_mu.reshape(n)
    direction = np.linalg.solve(bordered, rhs)[:n].reshape(d, d)
    direction = (direction + direction.conj().T) / 2.0
    return direction, -float(np.real(np.vdot(g_mu, direction)))


# (3, 4) adds the rho^PT term in slabs of 2 and 1 A blocks, (4, 4) in 4 of 1
NEWTON_DIMS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]


def _newton_point(da, db, seed=0):
    # the first half-and-half mix of a random state with I/d, from state
    # seed 60 + d + seed on, whose partial transpose is positive definite
    d = da * db
    sig = random_density(d, 2, 40 + d).mat
    for k in itertools.count(60 + d + seed):
        p = solver._point(sig, 0.5 * random_density(d, d, k).mat + 0.5 * np.eye(d) / d, 0.0, da, db)
        if p is not None:
            return sig, p


def test_newton_hessian_matches_dense_reference():
    rng = np.random.default_rng(17)
    for da, db in NEWTON_DIMS:
        d = da * db
        n = d * d
        sig, p = _newton_point(da, db)
        rho, w, u, overlaps, s, v = p.rho, p.w, p.u, p.overlaps, p.s, p.v
        rho_inv = (u * (1.0 / w)) @ u.conj().T
        tau_inv = (v * (1.0 / s)) @ v.conj().T
        mu = 3e-3
        dd2 = _log_divided_differences(w, p.lw, second=True)[1]
        work = solver._newton_workspace(da, db)
        pairs = (mu * rho_inv, rho_inv), [(mu * tau_inv, tau_inv)]
        hess = solver._newton_hessian(dd2, u, overlaps, *pairs, work)[:n, :n]
        coords = _real_coords(d)
        want = coords.conj().T @ _kron_newton_hessian(w, u, overlaps, rho_inv, tau_inv, mu, da, db) @ coords
        # the Hessian preserves Hermiticity, so it is real in these coordinates
        assert np.linalg.norm(want.imag) <= 1e-14 * np.linalg.norm(want)
        assert hess.dtype == np.float64
        assert np.linalg.norm(hess - hess.T) <= 1e-14 * np.linalg.norm(hess)
        assert np.linalg.norm(hess - want.real) <= 1e-12 * np.linalg.norm(want)

        # the sigma part is the derivative of the gradient of -tr{sigma ln rho}
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dirn = (g + g.conj().T) / (2.0 * np.linalg.norm(g))
        h = 1e-5
        grads = []
        for sign in (1.0, -1.0):
            p2 = solver._point(sig, rho + sign * h * dirn, 0.0, da, db)
            grads.append(solver._gradient(_log_divided_differences(p2.w), p2.u, p2.overlaps))
        fd = _real_vec((grads[0] - grads[1]) / (2.0 * h))
        sigma_part = solver._newton_hessian(dd2, u, overlaps, None, [], work)[:n, :n]
        applied = sigma_part @ _real_vec(dirn)
        assert np.linalg.norm(applied - fd) <= 1e-7 * np.linalg.norm(fd)


def test_newton_step_matches_complex_solve():
    for da, db in NEWTON_DIMS:
        _, p = _newton_point(da, db)
        tables = _log_divided_differences(p.w, p.lw, second=True)
        grad = solver._gradient(tables[0], p.u, p.overlaps)
        mu = 3e-3
        direction, decrement = solver._newton_step(p, tables, grad, mu, da, db, solver._newton_workspace(da, db))
        want, want_decrement = _complex_newton_step(p.w, p.u, p.overlaps, p.s, p.v, grad, mu, da, db)
        assert np.linalg.norm(direction - want) <= 1e-12 * np.linalg.norm(want)
        assert abs(decrement - want_decrement) <= 1e-12 * abs(want_decrement)
        assert np.array_equal(direction, direction.conj().T)
        assert abs(np.trace(direction)) <= 1e-14


def test_newton_dims_cover_uneven_slabs():
    # d <= 9 keeps one slab; NEWTON_DIMS reaches uneven and equal splits
    heights = {}
    for da, db in NEWTON_DIMS:
        heights[da, db] = [slab.out.shape[0] // db for slab in solver._newton_workspace(da, db).slabs]
    assert heights[3, 4] == [2, 1]
    assert heights[4, 4] == [1, 1, 1, 1]
    assert heights[3, 3] == [3]
    # 8-byte real entries fit two A blocks in a 4x4 slab
    assert [slab.out.shape[0] // 4 for slab in solver._newton_workspace(4, 4, real=True).slabs] == [2, 2]


def _held_arrays(value):
    # every ndarray a workspace holds, through its slabs' tuples
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item)


def _owner(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_newton_workspace_holds_no_d4_array(monkeypatch):
    # only bordered, K and its border, may reach d^4 entries: the product
    # and the rho^PT term are made one slab of A blocks at a time.  A KKT
    # polish system solves its k' = k^2 (Hermitian) or k(k+1)/2 (real)
    # kernel rows by a Schur complement against bordered, so it factors no
    # other matrix larger than k' x k', solves right-hand sides of
    # (m + 1)(k' + 1) entries, and allocates no more than a barrier step
    # plus (m + 1)(k^2 + 1) entries: a fresh KKT matrix of size m + 1 + k'
    # would add more than bordered's (m + 1)^2
    da, db = 4, 4
    d = da * db
    solves = []
    inner = np.linalg.solve

    def recorded(a, b):
        solves.append((a, b.shape))
        return inner(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    for real in (False, True):
        work = solver._newton_workspace(da, db, real)
        bordered = _owner(work.bordered)
        owners = [_owner(a) for a in _held_arrays(work)]
        assert len(owners) > len(work.slabs)
        for owner in owners:
            if owner is not bordered:
                assert owner.size < d**4, (real, owner.shape)
        _, p = (_real_newton_point if real else _newton_point)(da, db)
        tables = _log_divided_differences(p.w, p.lw, second=True)
        grad = solver._gradient(tables[0], p.u, p.overlaps)
        m = len(work.tvec)
        for k in (1, 2, 3):
            size = k * (k + 1) // 2 if real else k * k
            mult = (p.v[:, :k] * np.arange(1.0, k + 1.0)) @ p.v[:, :k].conj().T
            peaks = []
            for run in (
                lambda: solver._newton_step(p, tables, grad, 3e-3, da, db, work),
                lambda: solver._kkt_step(p, tables[1], grad, mult, k, da, db, work),
            ):
                run()
                solves.clear()
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert solves[0][0] is work.bordered and solves[0][1] == (m + 1, size + 1)
            assert [a.shape for a, _ in solves[1:]] == [(size, size)]
            assert peaks[1] <= peaks[0] + 8 * (m + 1) * (k * k + 1) < peaks[0] + 8 * (m + 1) ** 2, (real, k, peaks)


def _check_workspace_reuse(real, point):
    # steps at two points through one workspace, the second a tangent step
    # with mu_curv != mu, equal bit for bit the steps on fresh workspaces;
    # the border and corner, written once with the workspace, are left as
    # the coordinates of I and 0
    for da, db in NEWTON_DIMS:
        work = solver._newton_workspace(da, db, real)
        for seed, mu_curv in ((0, None), (100, 6e-2), (0, None)):
            _, p = point(da, db, seed)
            tables = _log_divided_differences(p.w, p.lw, second=True)
            grad = solver._gradient(tables[0], p.u, p.overlaps)
            args = (p, tables, grad, 3e-3, da, db)
            direction, decrement = solver._newton_step(*args, work, mu_curv)
            want, want_decrement = solver._newton_step(*args, solver._newton_workspace(da, db, real), mu_curv)
            assert np.array_equal(direction, want)
            assert decrement == want_decrement
        size = len(work.tvec)
        assert np.array_equal(work.tvec, work.coords(np.eye(da * db)))
        assert np.array_equal(work.bordered[:size, size], work.tvec)
        assert np.array_equal(work.bordered[size, :size], work.tvec)
        assert work.bordered[size, size] == 0.0


def test_newton_workspace_reuse_leaks_nothing():
    _check_workspace_reuse(False, _newton_point)


def _log_dd(x, y):
    return (math.log(x) - math.log(y)) / (x - y)


def test_neg_log_dd2_pairs_degenerate_by_their_own_scale():
    # 1e-14 and 3e-13 differ by less than 1e-12 times the largest
    # eigenvalue but not times their own larger member: a rule scaled by
    # max(w) took the degenerate limit 1/(2 x^2) for T(x,y,x) and T(x,y,y)
    x, y = 1e-14, 3e-13
    w = np.array([x, y, 0.4, 0.6])
    table = _log_divided_differences(w, second=True)[1]
    assert table[0, 1, 0] == pytest.approx((1.0 / x - _log_dd(x, y)) / (y - x), rel=1e-12)
    assert table[0, 1, 1] == pytest.approx((1.0 / y - _log_dd(x, y)) / (x - y), rel=1e-12)
    z = 0.4
    assert table[0, 1, 2] == pytest.approx((_log_dd(y, z) - _log_dd(x, y)) / (x - z), rel=1e-12)


def test_ree_4x4_pure_product(monkeypatch):
    # REE is additive on pure states: psi1 (x) psi2, regrouped to
    # (A1 A2)|(B1 B2) as in corollary2, has the sum of the two reduced
    # entropies; the barrier path stopped on its certificate about 5.4e-10
    # bits above it, and the closed form lands within 1.1e-11 bits
    calls = 0
    inner = solver._newton_step

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver, "_newton_step", counted)
    psi1 = random_pure((2, 2), seed=410)
    psi2 = random_pure((2, 2), seed=411)
    joint = tensor_bipartite(psi1.density(), psi2.density())
    exact = von_neumann_entropy(partial_trace_B(psi1.density())) + von_neumann_entropy(
        partial_trace_B(psi2.density())
    )
    res = ree_ppt(joint)
    assert res.converged
    assert res.value_bits == pytest.approx(exact, abs=1e-8)
    assert calls <= 50


def test_ree_isotropic_6x6():
    # d = 36; an isotropic state with singlet fraction F > 1/n has the REE
    # log2 n - h(F) - (1 - F) log2(n - 1) (Rains, PRA 60, 179 (1999))
    n, f = 6, 0.6
    phi = np.eye(n).reshape(n * n) / np.sqrt(n)
    proj = np.outer(phi, phi)
    sigma = DensityMatrix(f * proj + (1.0 - f) * (np.eye(n * n) - proj) / (n * n - 1), (n, n))
    h = -f * np.log2(f) - (1.0 - f) * np.log2(1.0 - f)
    exact = np.log2(n) - h - (1.0 - f) * np.log2(n - 1)
    res = ree_ppt(sigma)
    assert res.converged
    assert res.value_bits == pytest.approx(exact, abs=1e-8)


def _haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _entropy_bits(w):
    w = np.asarray(w, dtype=float)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def _pure_6x6():
    # REE of a pure state is S(rho_A)
    weights = [0.5, 0.3, 0.1, 0.06, 0.03, 0.01]
    return pure_from_schmidt(np.sqrt(weights), (6, 6)).density(), _entropy_bits(weights)


def _maximally_correlated_6x6():
    # sum_ij a_ij |ii><jj| under random local unitaries has the REE
    # S(diag a) - S(a): the dephased state sum_i a_ii |ii><ii| is separable
    # and attains the lemma-2 lower bound
    n = 6
    a = random_density(n, n, 5).mat
    diag = [i * n + i for i in range(n)]
    mat = np.zeros((n * n, n * n), dtype=complex)
    mat[np.ix_(diag, diag)] = a
    rng = np.random.default_rng(3)
    local = np.kron(_haar_unitary(rng, n), _haar_unitary(rng, n))
    sigma = DensityMatrix(local @ mat @ local.conj().T, (n, n))
    exact = _entropy_bits(np.real(np.diag(a))) - _entropy_bits(np.linalg.eigvalsh(a))
    return sigma, exact


@pytest.mark.parametrize("make", [_pure_6x6, _maximally_correlated_6x6], ids=["pure", "max-correlated"])
def test_ree_exact_at_6x6(make):
    # d = 36: projected gradient descent returned 5.368 bits on the pure
    # state (exact 1.815) and stopped unconverged 2.4e-9 bits high on the
    # maximally correlated one
    sigma, exact = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        res = ree_ppt(sigma)
    assert res.converged
    assert res.value_bits == pytest.approx(exact, abs=1e-8)


def test_ree_dimension_cap():
    too_big = maximally_mixed((9, 9))
    with pytest.raises(InputError):
        ree_ppt(too_big)
    with pytest.raises(ShapeError):
        ree_ppt(DensityMatrix(np.eye(4) / 4))


def test_closest_state_for_pure_product():
    psi = pure_from_schmidt([1.0], (2, 2))
    out = closest_state_for_pure(psi)
    assert np.linalg.norm(out.mat - psi.density().mat) < 1e-12


def test_closest_state_for_pure_singlet():
    # dephasing the singlet leaves the uniform mixture of |01> and |10>
    expected = np.zeros((4, 4))
    expected[1, 1] = expected[2, 2] = 0.5
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1 / np.sqrt(2)
    vec[2] = -1 / np.sqrt(2)
    pure = PureState(vec, (2, 2))
    out = closest_state_for_pure(pure)
    assert np.linalg.norm(out.mat - expected) < 1e-12
    assert relative_entropy(pure.density(), out) == pytest.approx(1.0, abs=1e-12)


def test_closest_state_for_pure_matches_reduced_entropy():
    for seed in range(20):
        psi = random_pure((2, 2), seed=900 + seed)
        sigma = psi.density()
        out = closest_state_for_pure(psi)
        want = von_neumann_entropy(partial_trace_B(sigma))
        assert relative_entropy(sigma, out) == pytest.approx(want, abs=1e-9)
    for seed in range(8):
        psi = random_pure((3, 3), seed=950 + seed)
        sigma = psi.density()
        out = closest_state_for_pure(psi)
        want = von_neumann_entropy(partial_trace_B(sigma))
        assert relative_entropy(sigma, out) == pytest.approx(want, abs=1e-9)


def test_ree_agrees_with_closed_form_for_pure():
    for seed in range(4):
        psi = random_pure((2, 2), seed=230 + seed)
        res = ree_ppt(psi.density())
        closed = closest_state_for_pure(psi)
        assert res.value_bits == pytest.approx(
            relative_entropy(psi.density(), closed), abs=1e-6
        )


def test_eof_two_qubit_examples():
    assert eof_two_qubit(singlet()) == pytest.approx(1.0, abs=1e-12)
    product = DensityMatrix(
        np.kron(random_density(2, 2, 31).mat, random_density(2, 1, 32).mat), (2, 2)
    )
    # a product with a pure factor has zero concurrence
    assert eof_two_qubit(product) == pytest.approx(0.0, abs=1e-8)
    assert eof_two_qubit(werner(0.75)) == pytest.approx(WERNER75_EOF, abs=1e-12)
    with pytest.raises(ShapeError):
        eof_two_qubit(DensityMatrix(np.eye(6) / 6, (2, 3)))
    with pytest.raises(ShapeError):
        eof_two_qubit(DensityMatrix(np.eye(4) / 4))


def test_eof_two_qubit_equals_reduced_entropy_on_pure_states():
    # E_F of a pure state is the entropy of its reduction; taking square
    # roots of the rounding-noise eigenvalues of rho rho~ left it up to
    # 2.9e-8 bits low on these inputs
    for seed in range(200):
        sigma = random_density(4, 1, seed).tagged(2, 2)
        reduced = von_neumann_entropy(partial_trace_B(sigma))
        assert eof_two_qubit(sigma) == pytest.approx(reduced, abs=1e-12)


def _ensemble_entanglement(root: np.ndarray, q: np.ndarray) -> float:
    # columns of root @ q are the subnormalized members of a valid
    # pure-state decomposition whenever q has orthonormal rows
    ensemble = root @ q
    avg = 0.0
    for k in range(ensemble.shape[1]):
        vec = ensemble[:, k]
        p = float(np.real(np.vdot(vec, vec)))
        if p < 1e-14:
            continue
        amp = (vec / np.sqrt(p)).reshape(2, 2)
        s = np.linalg.svd(amp, compute_uv=False)
        probs = s * s
        probs = probs[probs > 1e-15]
        avg += p * float(-np.sum(probs * np.log2(probs)))
    return avg


def test_eof_decomposition_cross_check():
    # every pure-state decomposition upper-bounds E_F, so the formula
    # value must sit below all of them; a random search with a local
    # polish gets close enough to pin it from above as well
    sigma = werner(0.75)
    w, u = np.linalg.eigh(sigma.mat)
    keep = w > 1e-12
    root = u[:, keep] * np.sqrt(w[keep])
    rank = root.shape[1]
    rng = np.random.default_rng(77)

    def unitary():
        g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        return np.linalg.qr(g)[0]

    best = np.inf
    best_q = None
    for _ in range(100):
        q = unitary()
        val = _ensemble_entanglement(root, q)
        if val < best:
            best, best_q = val, q
    for scale in np.geomspace(0.5, 0.01, 6):
        for _ in range(40):
            g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal(
                (rank, rank)
            )
            cand = np.linalg.qr(best_q + scale * g)[0]
            val = _ensemble_entanglement(root, cand)
            if val < best:
                best, best_q = val, cand
    formula = eof_two_qubit(sigma)
    assert formula <= best + 1e-9
    assert best - formula <= 5e-3


def test_bell_diagonal_oracle_examples():
    assert bell_diagonal_ree_oracle([1.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
    assert bell_diagonal_ree_oracle([0.25] * 4) == pytest.approx(0.0, abs=1e-12)
    weights = [0.75, 0.25 / 3, 0.25 / 3, 0.25 / 3]
    assert bell_diagonal_ree_oracle(weights) == pytest.approx(WERNER75_REE, abs=1e-12)
    # already PPT weights cost nothing
    assert bell_diagonal_ree_oracle([0.5, 0.5, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_bell_diagonal_oracle_validation():
    with pytest.raises(ShapeError):
        bell_diagonal_ree_oracle([0.5, 0.5])
    with pytest.raises(NormalizationError):
        bell_diagonal_ree_oracle([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(NormalizationError):
        bell_diagonal_ree_oracle([0.5, 0.5, 0.5, 0.5])


def test_ree_tracks_oracle_on_bell_diagonal_family():
    rng = np.random.default_rng(5150)
    for _ in range(5):
        raw = rng.dirichlet(np.ones(4))
        state = bell_diagonal(raw)
        res = ree_ppt(state)
        want = bell_diagonal_ree_oracle(raw)
        assert res.value_bits == pytest.approx(want, abs=1e-8)


def _panel_mixed_states():
    # the benchmark's solve panel (perfbench/panels.py, pool seed 20001),
    # drawn the same way: 2x2 and 2x3 states of every rank, two each, then
    # one 3x3 state per rank; rank 1 is drawn and skipped
    for stream, shapes, size in ((1, ((2, 2), (2, 3)), 2), (2, ((3, 3),), 1)):
        rng = np.random.default_rng([20001, stream])
        for da, db in shapes:
            d = da * db
            for rank in range(1, d + 1):
                for _ in range(size):
                    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / math.sqrt(2.0)
                    m = g @ g.conj().T
                    if rank > 1:
                        yield DensityMatrix(m / np.real(np.trace(m)), (da, db))


# sha256 over value, bound, step count and closest state of every complex
# input of rank above 1 below, in the Hermitian basis.  Two of them (2x2,
# rank 4) are PPT, so all are solved on the path without closed forms.
# Re-frozen when the path gained the KKT polish, after each of the 27 that
# reached it was seen to stay certified within 1.1e-10 bits of its old value,
# and when each polish direction was projected onto trace zero, which moved
# no step count, no value by more than 2.9e-15 bits and no bound by more
# than 5.9e-14
COMPLEX_SOLVES_DIGEST = "18a7d2616694238c62ce0cc5c03ecff09d22d45c8bcf7c562d305fc07ed13faf"


def test_complex_solves_match_frozen():
    cases = list(_panel_mixed_states())
    cases += [random_density(8, r, 700 + r).tagged(2, 4) for r in (2, 5, 8)]
    cases += [random_density(12, r, 710 + r).tagged(3, 4) for r in (3, 12)]
    assert len(cases) == 29
    digest = hashlib.sha256()
    for sigma in cases:
        res = solver._solve(sigma, 5000, hermitian=True)
        digest.update(f"{res.value_bits!r} {res.lower_bits!r} {res.iterations}".encode())
        digest.update(res.closest_state.mat.tobytes())
    assert digest.hexdigest() == COMPLEX_SOLVES_DIGEST


@pytest.mark.parametrize("budget", [True, 2.5, 0, -1])
def test_ree_budget_must_be_a_positive_integer(budget):
    # True ran one step and 2.5 three before the budget was validated
    with pytest.raises(InputError):
        ree_ppt(singlet(), max_iters=budget)


def test_ree_budget_takes_integral_numbers():
    with pytest.warns(ConvergenceWarning):
        res = ree_ppt(werner(0.75), max_iters=np.int64(2))
    assert res.iterations == 2
    with pytest.warns(ConvergenceWarning):
        assert ree_ppt(werner(0.75), max_iters=3.0).iterations == 3


def _real_ginibre_state(d, rank, seed):
    g = np.random.default_rng(seed).standard_normal((d, rank))
    m = g @ g.T
    return m / np.trace(m)


def _isotropic_3x3():
    n, f = 3, 0.7
    phi = np.eye(n).reshape(n * n) / np.sqrt(n)
    proj = np.outer(phi, phi)
    return DensityMatrix(f * proj + (1.0 - f) * (np.eye(n * n) - proj) / (n * n - 1), (n, n))


def _pure_product_4x4():
    return tensor_bipartite(random_pure((2, 2), seed=410).density(), random_pure((2, 2), seed=411).density())


REAL_ENTANGLED_CASES = {
    "werner-0.75": lambda: werner(0.75),
    "bell-diagonal": lambda: bell_diagonal([0.6, 0.25, 0.1, 0.05]),
    "isotropic-3x3": _isotropic_3x3,
    "real-2x3": lambda: DensityMatrix(_real_ginibre_state(6, 6, 5), (2, 3)),
    "real-3x3": lambda: DensityMatrix(_real_ginibre_state(9, 4, 6), (3, 3)),
}


@pytest.mark.parametrize("make", REAL_ENTANGLED_CASES.values(), ids=REAL_ENTANGLED_CASES.keys())
def test_real_basis_matches_hermitian_basis(make, monkeypatch):
    # a real entangled sigma takes real Newton steps and gives the
    # Hermitian basis's answer
    sigma = make()
    bases = []
    inner = solver._newton_workspace

    def recorded(da, db, real=False):
        bases.append(real)
        return inner(da, db, real)

    monkeypatch.setattr(solver, "_newton_workspace", recorded)
    want = solver._solve(sigma, 5000, hermitian=True)
    got = solver._solve(sigma, 5000)
    assert bases == [False, True]
    for res in (want, got):
        assert res.converged
        assert res.lower_bits <= res.value_bits
    assert abs(got.value_bits - want.value_bits) <= 1e-12
    assert got.closest_state.dims == sigma.dims


def test_real_basis_closest_state_keeps_unit_trace():
    # weight 1 on both entries of an off-diagonal coordinate, a basis that
    # is not orthonormal, returned trace 0.999999998509 on a pure input
    # that took the real basis, and leaves this real entangled one
    # unconverged after 5000 steps
    res = ree_ppt(DensityMatrix(_real_ginibre_state(4, 2, 300), (2, 2)))
    assert res.iterations > 0
    state = DensityMatrix(res.closest_state.mat, (2, 2))
    assert abs(state.matrix.trace() - 1.0) <= 1e-12
    assert res.converged


def test_kkt_polish_keeps_unit_trace(monkeypatch):
    # a polish direction on this real rank-3 5x5 input carried a trace of
    # 1.1e-10, and the polished point, never renormalised, failed the
    # closest state's trace check with StateInvariantError
    drifts = []
    inner = solver._kkt_polish

    def recorded(*args):
        out = inner(*args)
        drifts.append(abs(np.trace(out[0].rho).real - 1.0))
        return out

    monkeypatch.setattr(solver, "_kkt_polish", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        res = ree_ppt(DensityMatrix(_real_ginibre_state(25, 3, 9538), (5, 5)))
    # the polish ran, and its best point keeps unit trace
    assert len(drifts) == 1 and drifts[0] <= 1e-12
    assert res.converged
    assert abs(res.closest_state.matrix.trace() - 1.0) <= 1e-12


def _real_newton_point(da, db, seed=0):
    # _newton_point with real states, so every factor of the step is real
    d = da * db
    sig = _real_ginibre_state(d, 2, 40 + d)
    for k in itertools.count(60 + d + seed):
        p = solver._point(sig, 0.5 * _real_ginibre_state(d, d, k) + 0.5 * np.eye(d) / d, 0.0, da, db)
        if p is not None:
            return sig, p


def _symmetric_basis(d):
    # columns: vec of the orthonormal basis E_pq, p <= q, in triu order
    p, q = np.triu_indices(d)
    basis = np.zeros((d, d, len(p)))
    basis[p, q, np.arange(len(p))] = np.where(p == q, 1.0, np.sqrt(0.5))
    basis[q, p, np.arange(len(p))] = np.where(p == q, 1.0, np.sqrt(0.5))
    return basis.reshape(d * d, len(p))


def test_real_basis_hessian_matches_dense_reference():
    for da, db in NEWTON_DIMS:
        d = da * db
        _, p = _real_newton_point(da, db)
        assert p.u.dtype == np.float64 and p.v.dtype == np.float64
        rho_inv = (p.u * (1.0 / p.w)) @ p.u.T
        tau_inv = (p.v * (1.0 / p.s)) @ p.v.T
        dd2 = _log_divided_differences(p.w, p.lw, second=True)[1]
        work = solver._newton_workspace(da, db, real=True)
        bordered = solver._newton_hessian(
            dd2, p.u, p.overlaps, (3e-3 * rho_inv, rho_inv), [(3e-3 * tau_inv, tau_inv)], work
        )
        basis = _symmetric_basis(d)
        m = basis.shape[1]
        assert bordered.shape == (m + 1, m + 1)
        dense = _kron_newton_hessian(p.w, p.u, p.overlaps, rho_inv, tau_inv, 3e-3, da, db)
        assert np.linalg.norm(dense.imag) <= 1e-14 * np.linalg.norm(dense)
        want = basis.T @ dense.real @ basis
        assert np.linalg.norm(bordered[:m, :m] - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(bordered[:m, m], basis.T @ np.eye(d).reshape(d * d))
        assert np.array_equal(bordered[m, :m], bordered[:m, m])
        assert bordered[m, m] == 0.0


def test_real_basis_step_matches_hermitian_step():
    for da, db in NEWTON_DIMS:
        _, p = _real_newton_point(da, db)
        tables = _log_divided_differences(p.w, p.lw, second=True)
        grad = solver._gradient(tables[0], p.u, p.overlaps)
        for mu_curv in (None, 6e-2):
            args = (p, tables, grad, 3e-3, da, db)
            direction, decrement = solver._newton_step(*args, solver._newton_workspace(da, db, real=True), mu_curv)
            want, want_decrement = solver._newton_step(*args, solver._newton_workspace(da, db), mu_curv)
            assert direction.dtype == np.float64
            assert np.array_equal(direction, direction.T)
            assert np.linalg.norm(direction - want) <= 1e-12 * np.linalg.norm(want)
            assert abs(decrement - want_decrement) <= 1e-12 * abs(want_decrement)
            assert abs(np.trace(direction)) <= 1e-14


def test_real_workspace_reuse_leaks_nothing():
    _check_workspace_reuse(True, _real_newton_point)


def _product_2x3():
    rng = np.random.default_rng(37)
    a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 3))
    return PureState(np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b)), (2, 3)).density()


def _separable_rank2():
    # |00><00| and |1+><1+|, equally weighted
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    vecs = (np.kron([1.0, 0.0], [1.0, 0.0]), np.kron([0.0, 1.0], plus))
    return DensityMatrix(sum(0.5 * np.outer(v, v) for v in vecs), (2, 2))


def _near_pure_2x3():
    # psi psi^H plus an orthogonal admixture of weight 5e-13, below the
    # support rule's EIG_ZERO_TOL: rank 1, but the admixture lies on the
    # closed form's smallest eigenvalue _BLEND/d and spoils its bound
    psi = random_pure((2, 3), seed=36).amplitudes
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    phi -= np.vdot(psi, phi) * psi
    phi /= np.linalg.norm(phi)
    eps = 5e-13
    return DensityMatrix((1.0 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj()), (2, 3))


def _ppt_boundary_2x3(delta):
    # random_density(6, 3, 8) blended toward I/d to delta short of its PPT
    # edge weight, so sigma's own edge weight t* is about 1.5 delta
    r = random_density(6, 3, 8).mat
    s = states._ppt_edge_weight(r, 2, 3) - delta
    return DensityMatrix((1.0 - s) * r + s * np.eye(6) / 6, (2, 3))


# pure inputs, whose REE is S(sigma_A); at d = 64 no Hermitian path is run
CLOSED_FORM_PURE = {
    "pure-2x2": lambda: random_pure((2, 2), seed=31).density(),
    "pure-2x3": lambda: random_pure((2, 3), seed=32).density(),
    "pure-3x3": lambda: random_pure((3, 3), seed=33).density(),
    "pure-2x4": lambda: random_pure((2, 4), seed=34).density(),
    "pure-product-4x4": _pure_product_4x4,
    "maximally-entangled-3x3": lambda: pure_from_schmidt(np.full(3, 1.0 / math.sqrt(3.0)), (3, 3)).density(),
    "product-2x3": _product_2x3,
    "pure-product-4x16": lambda: tensor_bipartite(
        random_pure((2, 4), seed=1).density(), random_pure((2, 4), seed=2).density()
    ),
    "pure-8x8": lambda: random_pure((8, 8), seed=35).density(),
}
CLOSED_FORM_PPT = {
    "werner-0.3": lambda: werner(0.3),
    "werner-0.5": lambda: werner(0.5),
    "maximally-mixed": lambda: maximally_mixed((2, 2)),
    "separable-rank-2": _separable_rank2,
    "ppt-ginibre-2x2": lambda: random_density(4, 4, 123).tagged(2, 2),
    "ppt-edge-1e-12": lambda: _ppt_boundary_2x3(1e-12),
}
# the closed form does not certify these; the path must
CLOSED_FORM_FALLBACK = {
    "near-pure-2x3": _near_pure_2x3,
    "ppt-edge-1e-8": lambda: _ppt_boundary_2x3(1e-8),
}


@pytest.mark.parametrize(
    "kind, make",
    [("pure", f) for f in CLOSED_FORM_PURE.values()]
    + [("ppt", f) for f in CLOSED_FORM_PPT.values()]
    + [("fallback", f) for f in CLOSED_FORM_FALLBACK.values()],
    ids=[*CLOSED_FORM_PURE, *CLOSED_FORM_PPT, *CLOSED_FORM_FALLBACK],
)
def test_closed_form_answers(kind, make):
    sigma = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        res = ree_ppt(sigma, max_iters=1 if kind == "ppt" else 5000)
    assert res.converged
    assert res.lower_bits <= res.value_bits
    assert (res.iterations == 0) == (kind != "fallback")
    if kind == "pure":
        exact = von_neumann_entropy(partial_trace_B(sigma))
        assert 0.0 <= res.value_bits - exact <= 1e-10
        assert res.lower_bits <= exact
        # the certificate does not rest on lemma 2, so lemma 2 checks it
        assert res.lower_bits >= lemma2_bound(sigma) - 1e-10
    elif kind == "ppt":
        assert ppt_criterion(sigma, 1e-11).holds
        assert res.value_bits <= 1e-10
    if sigma.dims.total <= 16:
        path = solver._solve(sigma, 5000, hermitian=True)
        assert path.iterations > 0 and path.converged
        assert res.lower_bits <= path.value_bits + 1e-12
        assert path.lower_bits <= res.value_bits + 1e-12



def _ginibre_full_rank(rng, d, real):
    g = rng.standard_normal((d, d))
    if not real:
        g = g + 1j * rng.standard_normal((d, d))
    r = g @ g.conj().T
    return r / np.trace(r).real


def _kkt_sigma(rho, z, dims):
    # sigma with the exact REE S(sigma||rho), from the optimality
    # conditions at a full-rank rho on the PPT boundary and a multiplier
    # z >= 0 on the kernel of rho^PT: sigma = rho - c T(z^PT), where T
    # divides by ln's first divided differences in rho's eigenframe, the
    # inverse of the Frechet derivative of ln.  Then tr sigma = 1, since
    # tr T(X) = tr(rho X) and tr(rho^PT z) = 0; the gradient of
    # S(sigma||.) at rho is -I + c z^PT, so the KKT conditions hold with
    # multiplier c z and REE(sigma) = S(sigma||rho).  c is half the
    # largest value that keeps sigma >= 0.  Returns sigma, the REE in bits
    # and c z
    da, db = dims
    w, u = np.linalg.eigh(rho)
    inv_dd = u @ ((u.conj().T @ states._partial_transpose_b(z, da, db) @ u) / _log_divided_differences(w)) @ u.conj().T
    root = (u / np.sqrt(w)) @ u.conj().T
    c = 0.5 / np.linalg.eigvalsh(root @ inv_dd @ root)[-1]
    sigma = DensityMatrix(rho - c * inv_dd, dims)
    return sigma, relative_entropy(sigma, DensityMatrix(rho, dims)), c * z


def _kkt_exact_case(dims, seed, real):
    # rho* is a random non-PPT r blended onto its PPT edge, and the
    # multiplier |v><v|, v the least eigenvector of rho*^PT
    da, db = dims
    d = da * db
    rng = np.random.default_rng([seed, da, db, int(real)])
    t = 0.0
    while t == 0.0:
        r = _ginibre_full_rank(rng, d, real)
        t = states._ppt_edge_weight(r, da, db)
    rho = (1.0 - t) * r + t * np.eye(d) / d
    v = np.linalg.eigh(states._partial_transpose_b(rho, da, db))[1][:, 0]
    return _kkt_sigma(rho, np.outer(v, v.conj()), dims)


def _kkt_two_kernel_case(dims, seed, real):
    # rho*^PT is a random r^PT with its two least eigenvalues set to 0, so
    # its kernel has dimension 2, and the multiplier weighs the two kernel
    # vectors 1 and 3
    da, db = dims
    d = da * db
    r = _ginibre_full_rank(np.random.default_rng(seed), d, real)
    lam, e = np.linalg.eigh(states._partial_transpose_b(r, da, db))
    lam[:2] = 0.0
    rho = states._partial_transpose_b((e * lam) @ e.conj().T, da, db)
    assert np.linalg.eigvalsh(rho)[0] > 0.0
    return _kkt_sigma(rho / np.trace(rho).real, (e[:, :2] * [1.0, 3.0]) @ e[:, :2].conj().T, dims)


KKT_EXACT_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("dims", KKT_EXACT_DIMS, ids=[f"{a}x{b}" for a, b in KKT_EXACT_DIMS])
def test_ree_matches_exact_kkt_answer(dims, seed, real):
    sigma, exact, _ = _kkt_exact_case(dims, seed, real)
    assert (sigma.mat.imag.any()) != real
    with warnings.catch_warnings():
        warnings.simplefilter("error", ConvergenceWarning)
        res = ree_ppt(sigma)
    assert res.converged
    assert -1e-12 <= res.value_bits - exact <= 1e-9
    assert res.lower_bits <= exact + 1e-12


@pytest.mark.parametrize("dims, seed, real", [((3, 3), 0, True), ((2, 4), 1, False)], ids=["real-3x3", "complex-2x4"])
def test_kkt_polish_carries_the_multiplier_across_kernel_frames(dims, seed, real, monkeypatch):
    # a kernel of dimension 2 whose multiplier is no multiple of I: at each
    # polished point, blended toward I/d, the two kernel eigenvalues of
    # rho^PT nearly coincide and eigh returns the kernel in another frame,
    # so the multiplier is carried as the d x d matrix V Z V^H.  A k x k Z
    # carried into the next frame failed every polish of these cases
    sigma, exact, mult = _kkt_two_kernel_case(dims, seed, real)
    polishes, bounds = [], []
    polish, bound = solver._kkt_polish, solver._dual_bound

    def recorded_polish(*args):
        out = polish(*args)
        polishes.append((args[6], out[3]))
        return out

    def recorded_bound(p, grad, b, da, db):
        bounds.append(b)
        return bound(p, grad, b, da, db)

    monkeypatch.setattr(solver, "_kkt_polish", recorded_polish)
    monkeypatch.setattr(solver, "_dual_bound", recorded_bound)
    res = ree_ppt(sigma)
    assert polishes == [(2, True)]
    assert res.converged
    assert -1e-12 <= res.value_bits - exact <= 1e-9
    assert res.lower_bits <= exact + 1e-12
    # the certifying bound's multiplier is the constructed one
    assert np.linalg.norm(bounds[-1] - mult) <= 1e-6 * np.linalg.norm(mult)


def test_ree_warns_with_the_gap_when_uncertified(monkeypatch):
    # a path that ends at the weight floor uncertified, within its budget,
    # warns too, and names its gap
    bounds = []
    inner = solver._dual_bound

    def degraded(*args):
        bounds.append(inner(*args) - 1e-8 if not bounds else -math.inf)
        return bounds[-1]

    monkeypatch.setattr(solver, "_dual_bound", degraded)
    with pytest.warns(ConvergenceWarning, match="barrier-weight floor") as caught:
        res = ree_ppt(random_density(6, 6, 1).tagged(2, 3))
    assert not res.converged
    assert res.iterations < 5000
    assert f"gap {res.value_bits - res.lower_bits:.3g} bits" in str(caught[0].message)


def test_failed_kkt_polish_keeps_its_best_value_and_bound(monkeypatch):
    # the polish's bounds fall 1e-8 nats short and the path's are useless,
    # and the budget ends with the polish: the result is the polish's best
    # point and best bound, although neither certifies
    sigma = random_density(6, 6, 1).tagged(2, 3)
    polish, bound, step = solver._kkt_polish, solver._dual_bound, solver._newton_step
    runs, steps, inside, polish_bounds = [], [], [False], []

    def recorded_polish(*args):
        inside[0] = True
        out = polish(*args)
        inside[0] = False
        runs.append((len(steps), args[11], args[10], out))
        return out

    def degraded(*args):
        if not inside[0]:
            return -math.inf
        polish_bounds.append(bound(*args) - 1e-8)
        return polish_bounds[-1]

    def counted(*args, **kwargs):
        steps.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(solver, "_kkt_polish", recorded_polish)
    monkeypatch.setattr(solver, "_dual_bound", degraded)
    monkeypatch.setattr(solver, "_newton_step", counted)
    with pytest.warns(ConvergenceWarning, match="barrier-weight floor"):
        ree_ppt(sigma)
    ((before, start, systems, (best, lower, used, done)),) = runs
    # the polish failed after all its systems, and found a better point
    assert not done and used == systems == solver._POLISH_SYSTEMS == len(polish_bounds)
    assert best.f < start.f
    runs.clear()
    polish_bounds.clear()
    with pytest.warns(ConvergenceWarning, match="iteration budget"):
        res = ree_ppt(sigma, max_iters=before + solver._POLISH_SYSTEMS)
    ((_, start, _, (best, lower, used, done)),) = runs
    assert res.iterations == before + used
    assert res.value_bits == solver._bits(best.f) < solver._bits(start.f)
    assert res.lower_bits == solver._bits(max(polish_bounds)) == solver._bits(lower)


# inputs the polish gate never admits, with value_bits, lower_bits and
# iterations as solved before the polish was added: PPT inputs on the
# Hermitian path, whose rho^PT shows no kernel, and two whose closest
# state is on both cones' boundaries, so lam_min(rho) fails the gate
UNPOLISHED_SOLVES = {
    "werner-0.3": (lambda: werner(0.3), True, (3.2034265038149176e-16, 0.0, 7)),
    "ppt-ginibre-2x2": (lambda: random_density(4, 4, 123).tagged(2, 2), True, (0.0, 0.0, 15)),
    "ppt-ginibre-2x3": (lambda: random_density(6, 6, 214).tagged(2, 3), True, (0.0, 0.0, 11)),
    "near-pure-2x3": (_near_pure_2x3, False, (0.9809465083785697, 0.9809465081476291, 26)),
    "ppt-edge-1e-8": (lambda: _ppt_boundary_2x3(1e-8), False, (5.8773266065492296e-12, 0.0, 20)),
}


@pytest.mark.parametrize("make, hermitian, want", UNPOLISHED_SOLVES.values(), ids=UNPOLISHED_SOLVES.keys())
def test_unpolished_solves_are_unchanged(make, hermitian, want, monkeypatch):
    calls = []
    inner = solver._kkt_polish

    def recorded(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(solver, "_kkt_polish", recorded)
    res = solver._solve(make(), 5000, hermitian=hermitian)
    assert not calls
    assert (res.value_bits, res.lower_bits, res.iterations) == want
