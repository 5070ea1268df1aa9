"""Acceptance battery: one test per release criterion.

Each test prints a single summary line, so a verbose run reads as a
pass/fail checklist.  The ensembles are fixed-seed, so every number
here is reproducible by rerunning the file.
"""

import math
import time

import numpy as np
import pytest

from reelab.criteria import (
    MONOTONE_TOL,
    loewner_matrix_psd_check,
    operator_monotone_search,
    reduction_criterion,
)
from reelab.entropy import (
    _theorem1_gaps,
    lemma2_bound,
    log_order_check,
    relative_entropy,
    von_neumann_entropy,
)
from reelab.hermitian import (
    LOG,
    SQUARE,
    HermitianMatrix,
    eig_hermitian,
    frechet_log_adjoint,
    hs_inner,
    matrix_log,
)
from reelab.solver import (
    bell_diagonal_ree_oracle,
    closest_state_for_pure,
    eof_two_qubit,
    ree_ppt,
)
from reelab.states import (
    DensityMatrix,
    _first_ppt,
    _random_density_arr,
    _states,
    bell_diagonal,
    partial_trace_A,
    partial_trace_B,
    permute_systems,
    random_density,
    random_pure,
    werner,
)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def ppt_full_rank_arrays(da: int, db: int, seeds0) -> list:
    """For each seed0, the array of random_density(d, d, s) for the first s from seed0 on whose state is PPT.

    1000 consecutive seeds per start in doubling chunks; chunk k of every
    start still without a PPT state is screened as one stack.
    """
    d = da * db
    found = [None] * len(seeds0)
    pending = list(range(len(seeds0)))
    offset = 0
    for size in (8, 16, 32, 64, 128, 256, 496):
        groups = [[(d, s) for s in range(seeds0[k] + offset, seeds0[k] + offset + size)] for k in pending]
        for k, mat in zip(pending, _first_ppt(groups, da, db)):
            found[k] = mat
        pending = [k for k in pending if found[k] is None]
        if not pending:
            return found
        offset += size
    raise AssertionError("rejection sampling budget exhausted")


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def pure_trials():
    # shared by the pure-state value criterion and the closest-state
    # reduction criterion, which quantifies over the same ensemble
    out = []
    for (da, db), count, base in (((2, 2), 50, 300), ((3, 3), 20, 400)):
        for i in range(count):
            psi = random_pure((da, db), seed=base + i)
            sigma = psi.density()
            out.append((psi, sigma, ree_ppt(sigma)))
    return out


def test_criterion_01_gap_inequality_ensemble():
    # the ensemble of one theorem1_gap call per state and side, evaluated
    # in chunks of 500 trials by the stacked kernels of verify's theorem1,
    # which reproduce theorem1_gap bit for bit
    t0 = time.time()
    worst = math.inf
    indeterminate = 0
    for (da, db), trials, base in (((2, 2), 10_000, 1_000_000), ((2, 3), 1_000, 20_000_000)):
        d = da * db
        for start in range(0, trials, 500):
            seeds = [base + 1000 * i for i in range(start, min(start + 500, trials))]
            sigma = _states(np.stack([_random_density_arr(d, d, seed) for seed in seeds]))
            rho = _states(np.stack(ppt_full_rank_arrays(da, db, [seed + 1 for seed in seeds])))
            gaps = np.concatenate(_theorem1_gaps(sigma, rho, da, db))
            undecided = np.isnan(gaps)
            indeterminate += int(np.sum(undecided))
            worst = min(worst, float(np.min(gaps[~undecided], initial=math.inf)))
    assert worst >= -1e-8
    print(
        f"criterion 1: PASS worst gap {worst:.3e}, "
        f"{indeterminate} indeterminate, {time.time() - t0:.1f}s"
    )


def test_criterion_02_log_order_proof_step():
    t0 = time.time()
    for mat in ppt_full_rank_arrays(2, 2, [40_000_000 + 1000 * i for i in range(1000)]):
        rho = DensityMatrix(mat, (2, 2))
        assert log_order_check(rho)
        assert reduction_criterion(rho).holds
    for f in (0.6, 0.8, 1.0 - 1e-3):
        state = werner(f)
        assert not log_order_check(state)
        assert not reduction_criterion(state).holds
    print(f"criterion 2: PASS 1000 PPT states + 3 werner probes, {time.time() - t0:.1f}s")


def test_criterion_03_pure_state_value(pure_trials):
    t0 = time.time()
    worst_solver = 0.0
    worst_lower = 0.0
    worst_closed = 0.0
    for psi, sigma, res in pure_trials:
        reduced = von_neumann_entropy(partial_trace_B(sigma))
        worst_solver = max(worst_solver, abs(res.value_bits - reduced))
        worst_lower = max(worst_lower, abs(res.lower_bits - reduced))
        closed = relative_entropy(sigma, closest_state_for_pure(psi))
        worst_closed = max(worst_closed, abs(closed - reduced))
    assert worst_solver <= 1e-8
    assert worst_lower <= 1e-8
    assert worst_closed <= 1e-9
    print(
        f"criterion 3: PASS solver dev {worst_solver:.3e}, lower-bound dev {worst_lower:.3e}, "
        f"closed-form dev {worst_closed:.3e}, {time.time() - t0:.1f}s"
    )


def test_criterion_04_lower_bound_ensemble():
    t0 = time.time()
    worst = math.inf
    worst_lower = math.inf
    for i in range(1000):
        rank = (i % 4) + 1
        sigma = random_density(4, rank, 60_000_000 + i).tagged(2, 2)
        res = ree_ppt(sigma)
        assert res.value_bits >= 0.0
        bound = lemma2_bound(sigma)
        worst = min(worst, res.value_bits - bound)
        worst_lower = min(worst_lower, res.lower_bits - bound)
    assert worst >= -1e-9
    assert worst_lower >= -1e-9
    print(
        f"criterion 4: PASS worst bound slack {worst:.3e}, "
        f"lower-bound slack {worst_lower:.3e}, {time.time() - t0:.1f}s"
    )


def test_criterion_05_formation_entropy_bound():
    t0 = time.time()
    worst = math.inf
    worst_lower = math.inf
    for i in range(200):
        rank = (i % 4) + 1
        sigma = random_density(4, rank, 70_000_000 + i).tagged(2, 2)
        res = ree_ppt(sigma)
        bound = eof_two_qubit(sigma) - von_neumann_entropy(sigma)
        worst = min(worst, res.value_bits - bound)
        worst_lower = min(worst_lower, res.lower_bits - bound)
    assert worst >= -1e-9
    assert worst_lower >= -1e-9
    print(
        f"criterion 5: PASS worst slack {worst:.3e}, "
        f"lower-bound slack {worst_lower:.3e}, {time.time() - t0:.1f}s"
    )


def test_criterion_06_additivity_on_pure_pairs():
    t0 = time.time()
    worst = 0.0
    worst_cross = -math.inf
    for i in range(10):
        psi1 = random_pure((2, 2), seed=80_000_000 + 2 * i)
        psi2 = random_pure((2, 2), seed=80_000_000 + 2 * i + 1)
        joint = permute_systems(
            DensityMatrix(np.kron(psi1.density().mat, psi2.density().mat)),
            (0, 2, 1, 3),
            (2, 2, 2, 2),
        ).tagged(4, 4)
        r1 = ree_ppt(psi1.density())
        r2 = ree_ppt(psi2.density())
        r12 = ree_ppt(joint)
        worst = max(worst, abs(r12.value_bits - r1.value_bits - r2.value_bits))
        # each side's certified lower bound stays below the other side's value
        worst_cross = max(
            worst_cross,
            r12.lower_bits - r1.value_bits - r2.value_bits,
            r1.lower_bits + r2.lower_bits - r12.value_bits,
        )
    assert worst <= 1e-8
    assert worst_cross <= 1e-8
    print(
        f"criterion 6: PASS worst additivity dev {worst:.3e}, "
        f"lower-bound excess {worst_cross:.3e}, {time.time() - t0:.1f}s"
    )


def test_criterion_07_closest_state_reduction(pure_trials):
    t0 = time.time()
    worst = 0.0
    for _, sigma, res in pure_trials:
        s_a = von_neumann_entropy(partial_trace_B(sigma))
        s_b = von_neumann_entropy(partial_trace_A(sigma))
        if s_a >= s_b - 1e-12:
            worst = max(
                worst,
                trace_distance(
                    partial_trace_B(res.closest_state).mat, partial_trace_B(sigma).mat
                ),
            )
        if s_b >= s_a - 1e-12:
            worst = max(
                worst,
                trace_distance(
                    partial_trace_A(res.closest_state).mat, partial_trace_A(sigma).mat
                ),
            )
    assert worst <= 1e-8
    print(f"criterion 7: PASS worst reduction distance {worst:.3e}, {time.time() - t0:.1f}s")


def test_criterion_08_operator_monotonicity():
    t0 = time.time()
    for dim in (2, 3, 4):
        found = operator_monotone_search(SQUARE, dim, 1000, seed=41 + dim)
        assert found is not None
        assert found.violation < -MONOTONE_TOL
    injected = operator_monotone_search(SQUARE, 2, 1, seed=99)
    assert injected is not None and injected.trials_used == 1
    assert injected.violation == pytest.approx(3.0 - math.sqrt(10.0), abs=1e-12)

    total = 0
    for dim in range(2, 9):
        trials = 14_286
        assert operator_monotone_search(LOG, dim, trials, seed=50 + dim) is None
        total += trials
    assert total >= 100_000

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        while True:
            pts = np.sort(rng.uniform(0.1, 10.0, size=n))
            if n == 1 or float(np.min(np.diff(pts))) > 1e-3:
                break
        ok, wmin = loewner_matrix_psd_check(LOG, pts)
        assert ok, f"log Loewner matrix not PSD at {pts}: {wmin}"
    bad, wmin = loewner_matrix_psd_check(SQUARE, [1.0, 2.0])
    assert not bad
    assert wmin < 0.0
    print(f"criterion 8: PASS square falsified, log survived {total} trials, {time.time() - t0:.1f}s")


def test_criterion_09_solver_vs_oracle():
    t0 = time.time()
    weight_sets = [
        [t, (1.0 - t) / 3.0, (1.0 - t) / 3.0, (1.0 - t) / 3.0]
        for t in np.linspace(0.05, 0.95, 10)
    ]
    rng = np.random.default_rng(4242)
    weight_sets += [rng.dirichlet(np.ones(4)).tolist() for _ in range(10)]
    ppt_side = sum(1 for w in weight_sets if max(w) <= 0.5)
    assert 0 < ppt_side < len(weight_sets)

    tol = 1e-8
    worst = 0.0
    for w in weight_sets:
        res = ree_ppt(bell_diagonal(w))
        want = bell_diagonal_ree_oracle(w)
        worst = max(worst, abs(res.value_bits - want), abs(res.lower_bits - want))
    assert worst <= tol
    print(
        f"criterion 9: PASS worst oracle dev {worst:.3e} over {len(weight_sets)} states "
        f"({ppt_side} PPT), {time.time() - t0:.1f}s"
    )


def test_criterion_10_numerics():
    t0 = time.time()
    # nonnegativity on random pairs, equality only at equality
    smallest = math.inf
    for i in range(10_000):
        dim = 2 + (i % 3)
        rank_s = (i % dim) + 1
        sigma = random_density(dim, rank_s, 90_000_000 + 2 * i)
        rho = random_density(dim, dim, 90_000_000 + 2 * i + 1)
        value = relative_entropy(sigma, rho)
        assert value >= -1e-9
        if math.isfinite(value):
            smallest = min(smallest, value)
        if value <= 1e-9:
            assert float(np.max(np.abs(sigma.mat - rho.mat))) <= 1e-6
    for i in range(100):
        rho = random_density(3, 3, 91_000_000 + i)
        assert relative_entropy(rho, rho) <= 1e-9
        bump = np.zeros((3, 3), dtype=complex)
        bump[0, 1] = bump[1, 0] = 1e-8
        near = DensityMatrix(rho.mat + bump)
        assert float(np.max(np.abs(near.mat - rho.mat))) <= 1e-6
        assert relative_entropy(near, rho) <= 1e-9

    # unitary invariance
    rng = np.random.default_rng(55)
    for i in range(100):
        dim = 2 + (i % 3)
        sigma = random_density(dim, dim, 92_000_000 + 2 * i)
        rho = random_density(dim, dim, 92_000_000 + 2 * i + 1)
        u = random_unitary(rng, dim)
        sigma_u = DensityMatrix(u @ sigma.mat @ u.conj().T)
        rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(sigma_u) == pytest.approx(
            von_neumann_entropy(sigma), abs=1e-10
        )
        assert relative_entropy(sigma_u, rho_u) == pytest.approx(
            relative_entropy(sigma, rho), abs=1e-10
        )

    # additivity over tensor products
    for i in range(100):
        s1 = random_density(2, 2, 93_000_000 + 4 * i)
        r1 = random_density(2, 2, 93_000_000 + 4 * i + 1)
        s2 = random_density(3, 3, 93_000_000 + 4 * i + 2)
        r2 = random_density(3, 3, 93_000_000 + 4 * i + 3)
        joint = relative_entropy(
            DensityMatrix(np.kron(s1.mat, s2.mat)), DensityMatrix(np.kron(r1.mat, r2.mat))
        )
        parts = relative_entropy(s1, r1) + relative_entropy(s2, r2)
        assert joint == pytest.approx(parts, abs=1e-9)

    # directional finite-difference check of the log gradient; forward
    # difference truncation is bounded by h/(2 lam_min^2), so the bound
    # scales with the sampled conditioning instead of a fixed constant
    h = 1e-5
    for i in range(100):
        dim = 2 + (i % 3)
        w = 0.05 + 0.95 * rng.random(dim)
        lam_min = float(np.min(w))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(g)[0]
        rho_mat = (q * w) @ q.conj().T
        sigma = random_density(dim, dim, 94_000_000 + i)
        delta = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        delta = HermitianMatrix((delta + delta.conj().T) / 2)
        delta = HermitianMatrix(delta.mat / np.linalg.norm(delta.mat))
        sig_h = HermitianMatrix(sigma.mat)
        grad = frechet_log_adjoint(eig_hermitian(HermitianMatrix(rho_mat)), sig_h)

        def forward_diff(step):
            return (
                hs_inner(sig_h, matrix_log(HermitianMatrix(rho_mat + step * delta.mat)))
                - hs_inner(sig_h, matrix_log(HermitianMatrix(rho_mat)))
            ) / step

        rhs = hs_inner(grad, delta)
        err = abs(forward_diff(h) - rhs)
        assert err <= h / lam_min**2 + 1e-7
        if i < 20:
            # first-order scaling: shrinking h by 10 shrinks the error by 10
            err_small = abs(forward_diff(h / 10.0) - rhs)
            assert err_small <= max(0.3 * err, 1e-7)
    print(f"criterion 10: PASS Klein floor {smallest:.3e}, {time.time() - t0:.1f}s")
