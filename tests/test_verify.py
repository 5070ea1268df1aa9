import dataclasses
import hashlib
import math

import numpy as np
import pytest

from reelab import states, verify
from reelab.errors import InputError, ShapeError
from reelab.hermitian import PSD_TOL
from reelab.states import (
    BipartiteDims,
    DensityMatrix,
    _is_ppt,
    _partial_transpose_b,
    _ppt_edge_weight,
    _random_density_arr,
    _random_separable_arr,
    random_separable,
)
from reelab.verify import (
    SUITE_NAMES,
    _nondistillable_arrays,
    _trial_rngs,
    record_to_json,
    run_suite,
    summary_to_json,
)


def campaign_text(result) -> str:
    lines = [record_to_json(r) for r in result.records]
    lines.append(summary_to_json(result.summary))
    return "\n".join(lines) + "\n"


def test_every_suite_passes_on_small_campaigns():
    budgets = {
        "theorem1": 60,
        "lemma2": 8,
        "corollary1": 4,
        "corollary2": 2,
        "lemma3": 8,
        "lemma4": 4,
        "monotone": 30,
        "reduction": 60,
    }
    for suite in SUITE_NAMES:
        result = run_suite(suite, budgets[suite], 7)
        assert result.all_pass, suite
        assert len(result.records) == budgets[suite]
        assert [r.trial for r in result.records] == list(range(budgets[suite]))
        summary = result.summary
        assert summary["passed"] + summary["failed"] + summary["discarded"] == budgets[suite]
        assert summary["failed"] == 0


def test_reports_are_deterministic():
    a = campaign_text(run_suite("theorem1", 40, 99))
    b = campaign_text(run_suite("theorem1", 40, 99))
    assert a == b


# sha256 of campaign_text for (suite, trials, seed, dims).  The theorem1
# 2x3 and 3x3 digests date from the sampler's closed-form blend onto the
# PPT boundary; the lemma2 digests, from the barrier path that stops on
# its certified gap and the closed-form answers of pure and PPT trials,
# pin the solver's records bit for bit.
# They pin the floating-point results of one numpy/BLAS build, so another
# build may need them recomputed.
FROZEN_REPORT_DIGESTS = {
    ("theorem1", 60, 7, (2, 2)): "c76526584d141657aacb0fb3023faace9921ec29cd43df40824844d8293d5635",
    ("theorem1", 60, 7, (2, 3)): "af9ed0c6b52421d46290629faac592480d2275410650ef447064e8a879c7f9aa",
    # every Ginibre trial at 3x3 exhausts the rejection budget and blends
    ("theorem1", 20, 7, (3, 3)): "cae106929ef25787052e53515740270047b12782036786af79780899b22d412b",
    ("reduction", 60, 7, (2, 2)): "5f67b1fd96b4814824394c642426c253ee5347a49af616fd3f0664e26cbcf2cc",
    ("reduction", 60, 7, (2, 3)): "73774b2314c3870a1e15bfad63d839fbfbdfc162b32910069d4e7e0395bb1362",
    ("monotone", 30, 7, (2, 2)): "85078f2e38855a8fbd49d2967cf4d52c941944c64c5ae733627a1b436eef805c",
    ("monotone", 30, 7, (2, 3)): "4337e06d87c859c4d9fb0415d1972681fbdc19a322a3d739504fe542fb2b809d",
    # each record carries the solve's value, iterations and lower-bound margin
    ("lemma2", 8, 7, (2, 2)): "a8ebec471b96068ecfafe0f42c808d9e4b18ae91753cd98a5aae7b7c6b950ca3",
    ("lemma2", 4, 7, (2, 3)): "d9fe61cc4b9b53bd760a6337901d82d4082e7f59ae5feb87c448c1b1bdb9fb64",
    # every trial saturates the lemma 2 bound, so each record carries the
    # reduction distance of the closest state
    ("lemma4", 4, 7, (2, 2)): "3ab6a822c5869c2895015b1408bee2dacbda81be3db0ba2e25f75a08802ec0f4",
    # at 2x3 S(sigma_A) = S(sigma_B), so both reductions are measured
    ("lemma4", 3, 7, (2, 3)): "bf6ed19ac137e6427e1092d4c188dccc4c48240af4d3d05d6ae65e464b899c03",
    ("corollary1", 3, 7, (2, 2)): "d310b608af558594ed515184214b8c7db68f9a7d8a8f62b8c38370c793166ae8",
    ("corollary1", 2, 7, (2, 3)): "c0f274ba1d4522d6b95884a6d8c5086cda16749b48a7d7e9d92fc6b3febb5ae0",
    # one trial: three solves, the product one at 4x4
    ("corollary2", 1, 7, (2, 2)): "ca33ffdfb9ca6b2303729a6c6c5e8b1c8bfdc4bb7fefec2024b7ae5df2f6f7e0",
    ("lemma3", 4, 7, (2, 2)): "103a11a2b96cd81770b0b17a7487a48a1fb2b0c8f1c20e8803bd8da21b8d18cb",
    ("theorem1", 20, 7, (2, 4)): "b17bc22433f26ed233024dca4355127a1d91c69504b4c7d6fe65a31ae34f3f48",
    # at 1x3 every state is PPT, so the sampler's rank rule must not skip a candidate
    ("theorem1", 20, 7, (1, 3)): "16ef3b7a04cccab1ae0b822ddba310e382b1822951da5ffddd48c849e80b66bb",
    # 2x3 with its sides swapped: the partial transpose acts on the larger side
    ("theorem1", 20, 7, (3, 2)): "bff14b066cd6ca1f4770385ef27bf2951a22b81e9effede2b7ffa1e089593794",
}


def test_verify_reports_match_parent():
    for (suite, trials, seed, dims), digest in FROZEN_REPORT_DIGESTS.items():
        text = campaign_text(run_suite(suite, trials, seed, dims=BipartiteDims(*dims)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (suite, dims)


def chunks_of(monkeypatch, trials, dims):
    """Cut verify's stacks to chunks of the given number of trials at dims."""
    monkeypatch.setattr(verify, "_STACK_ENTRIES", trials * dims.total**2)


def test_stacked_suites_match_parent_in_small_chunks(monkeypatch):
    # chunks of 7 trials put boundaries inside every stacked campaign and
    # leave uneven tails (60 = 8 x 7 + 4, 20 = 2 x 7 + 6, 30 = 4 x 7 + 2)
    stacked = 0
    for (suite, trials, seed, dims), digest in FROZEN_REPORT_DIGESTS.items():
        if suite not in ("theorem1", "reduction", "monotone"):
            continue
        dims = BipartiteDims(*dims)
        chunks_of(monkeypatch, 7, dims)
        text = campaign_text(run_suite(suite, trials, seed, dims=dims))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (suite, dims)
        stacked += 1
    assert stacked == 10


def test_reduction_crosses_a_full_size_chunk(monkeypatch):
    # the records on both sides of the boundary after the first full-size
    # 2x2 chunk are the ones chunks of 5 trials give
    dims = BipartiteDims(2, 2)
    trials = verify._STACK_ENTRIES // 16 + 3
    full = [record_to_json(r) for r in run_suite("reduction", trials, 23).records]
    chunks_of(monkeypatch, 5, dims)
    assert [record_to_json(r) for r in run_suite("reduction", trials, 23).records] == full


def test_nondistillable_draw_validates_once(monkeypatch):
    # the sampler builds no state: each drawn array is validated once, as
    # part of the stacked evaluation of its chunk
    calls = []
    init = states.DensityMatrix.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(states.DensityMatrix, "__init__", counting_init)
    dims = BipartiteDims(2, 3)
    rngs = [np.random.default_rng([11, k]) for k in range(20)]
    mats = _nondistillable_arrays(rngs, dims)
    assert not calls
    assert [mat.shape for mat in mats] == [(6, 6)] * 20
    stacks = []
    stacked = states._states

    def counting_states(arrs):
        stacks.append(len(arrs))
        return stacked(arrs)

    monkeypatch.setattr(verify, "_states", counting_states)
    run_suite("theorem1", 20, 11, dims=dims)
    assert not calls
    # rho and sigma of the one chunk; entropy's own binding validates the reductions
    assert stacks == [20, 20]


def sequential_nondistillable(rng, dims):
    """The sampler as a plain loop: one candidate drawn and tested at a time.

    Returns the state and the branch that made it.  Seeds are drawn as
    one array of size 1, as the sampler used to draw them.
    """
    d = dims.total
    da, db = dims.da, dims.db
    if rng.integers(0, 4) == 0:
        k = int(rng.integers(1, 4))
        s1 = int(rng.integers(0, 2**63 - 1, size=1)[0])
        return random_separable(dims, s1, k=k), "separable"
    for _ in range(200):
        rank = int(rng.integers(1, d + 1))
        s1 = int(rng.integers(0, 2**63 - 1, size=1)[0])
        last = _random_density_arr(d, rank, s1)
        if _is_ppt(last, da, db):
            return DensityMatrix(last, dims), "accepted"
    t = _ppt_edge_weight(last, da, db)
    return DensityMatrix((1.0 - t) * last + t * (np.eye(d) / d), dims), "blended"


def assert_sampler_matches_loop(dims, seeds) -> dict:
    """Check the sampler against the loop on trial 0 of each seed; count the branches."""
    dims = BipartiteDims(*dims)
    branches = {"separable": 0, "accepted": 0, "blended": 0}
    # one chunk of trials 0, one stream per seed, against a loop over each stream
    got = _nondistillable_arrays([_trial_rngs(seed, "theorem1", [0])[0] for seed in seeds], dims)
    for seed, mat in zip(seeds, got):
        want, branch = sequential_nondistillable(_trial_rngs(seed, "theorem1", [0])[0], dims)
        assert DensityMatrix(mat, dims).mat.tobytes() == want.mat.tobytes(), (dims, seed, branch)
        branches[branch] += 1
    return branches


def test_nondistillable_matches_sequential_loop():
    assert assert_sampler_matches_loop((2, 2), range(80))["accepted"] > 40
    # a third of the 2x3 Ginibre draws exhaust the budget and blend
    branches = assert_sampler_matches_loop((2, 3), range(80))
    assert branches["accepted"] > 20 and branches["blended"] > 10
    branches = assert_sampler_matches_loop((3, 2), range(40))
    assert branches["accepted"] > 10 and branches["blended"] > 5
    assert assert_sampler_matches_loop((2, 4), range(40))["blended"] > 10
    # at 3x3 every Ginibre draw blends
    branches = assert_sampler_matches_loop((3, 3), range(16))
    assert branches["accepted"] == 0 and branches["blended"] > 8
    # the rank rule at two more shapes, and at 1x3, where every state is
    # PPT and no candidate may be skipped
    assert assert_sampler_matches_loop((2, 5), range(12))["blended"] > 4
    assert assert_sampler_matches_loop((3, 4), range(12))["blended"] > 4
    assert assert_sampler_matches_loop((1, 3), range(40))["accepted"] > 20


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_bulk_pair_draw_matches_scalar_draws(da, db):
    # _nondistillable_arrays draws a stream's whole budget of (rank, seed)
    # pairs in one integers call with elementwise bounds: numpy must give
    # the values of the scalar rank and _state_seed calls in turn, so the
    # first k pairs are those of a k-pair draw, and a k-pair draw leaves
    # the stream where k scalar pairs leave it
    d = da * db
    budget = verify._PPT_BUDGET
    low = np.array([1, 0] * budget, dtype=np.int64)
    high = np.array([d + 1, 2**63 - 1] * budget, dtype=np.int64)
    top = 0
    for seed in range(4):
        whole = np.random.default_rng([seed, d]).integers(low, high).reshape(budget, 2).tolist()
        for k in (1, 8, 24, 56, 120, budget):
            part, loop = np.random.default_rng([seed, d]), np.random.default_rng([seed, d])
            assert part.integers(low[: 2 * k], high[: 2 * k]).reshape(k, 2).tolist() == whole[:k]
            assert whole[:k] == [[int(loop.integers(1, d + 1)), verify._state_seed(loop)] for _ in range(k)]
            assert part.integers(0, 2**40) == loop.integers(0, 2**40)
            assert part.standard_normal(5).tobytes() == loop.standard_normal(5).tobytes()
        top = max(top, max(rank for rank, _ in whole))
    assert top == d
    # the bounds' extremes, rank d and seed 2**63 - 2, come out without overflow
    bulk, loop = np.random.default_rng(d), np.random.default_rng(d)
    low = np.array([d, 2**63 - 9] * 8, dtype=np.int64)
    high = np.array([d + 1, 2**63 - 1] * 8, dtype=np.int64)
    pairs = bulk.integers(low, high).reshape(8, 2).tolist()
    assert pairs == [[d, int(loop.integers(2**63 - 9, 2**63 - 1))] for _ in range(8)]
    assert all(2**63 - 9 <= seed <= 2**63 - 2 for _, seed in pairs)
    assert np.random.default_rng(0).integers(high - 1, high).tolist() == [d, 2**63 - 2] * 8


def test_sigma_draws_match_one_seed_at_a_time():
    # the seeds are hashed in one pass; each state is the one its seed gives
    for d in (4, 6, 9):
        seeds = [[3, d, k] for k in range(30)]
        got = verify._sigma_draws([np.random.default_rng(s) for s in seeds], d)
        for s, (rank, mat) in zip(seeds, got):
            rng = np.random.default_rng(s)
            assert rank == int(rng.integers(1, d + 1))
            assert mat.tobytes() == _random_density_arr(d, rank, verify._state_seed(rng)).tobytes()


def test_nondistillable_states_pass_the_ppt_test():
    # separable mixtures and boundary blends sit within rounding of the
    # PPT edge, on either side of zero; the one PPT test accepts them all
    rng = np.random.default_rng(11)
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)):
        for _ in range(20):
            rho = DensityMatrix(_nondistillable_arrays([rng], dims)[0], dims)
            assert _is_ppt(rho.mat, dims.da, dims.db), dims


def bisected_edge_weight(mat, da, db):
    """The blend weight a 60-step bisection on the exact PPT edge finds."""
    d = da * db
    uniform = np.eye(d) / d
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        blend = (1.0 - mid) * mat + mid * uniform
        if np.linalg.eigvalsh(_partial_transpose_b(blend, da, db))[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_ppt_edge_weight_matches_bisection():
    rng = np.random.default_rng(3)
    blended = 0
    for da, db in ((2, 2), (2, 3), (3, 3), (2, 4)):
        d = da * db
        for _ in range(30):
            mat = _random_density_arr(d, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**63 - 1)))
            t = _ppt_edge_weight(mat, da, db)
            assert abs(t - bisected_edge_weight(mat, da, db)) <= 1e-14
            if t > 0.0:
                blended += 1
                blend = (1.0 - t) * mat + t * (np.eye(d) / d)
                assert abs(np.linalg.eigvalsh(_partial_transpose_b(blend, da, db))[0]) <= 1e-14
    assert blended > 60


def test_ppt_screen_tracks_exact_eigenvalue(monkeypatch):
    # the screen's stages on the drawn candidates: every candidate a 2x2
    # minor or a determinant sign discards fails the exact PPT test; at
    # 2x2 and 2x3, where rho^PT mostly has one negative eigenvalue, the
    # sign discards at least 3/4 of the NPT candidates the minors keep;
    # and each least eigenvalue the stacked eigvalsh gives for the rest is
    # within 1e-15 of the exact one
    eigvalsh = np.linalg.eigvalsh
    slogdet = np.linalg.slogdet
    least_minor = states._least_minor
    screened, signs, minors = [], [], []

    def recording_eigvalsh(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        if w.ndim == 2:
            screened.append(w[:, 0].copy())
        return w

    def recording_slogdet(a):
        sign, logdet = slogdet(a)
        signs.append(np.real(sign))
        return sign, logdet

    def recording_least_minor(*args):
        w = least_minor(*args)
        minors.append(w.copy())
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(np.linalg, "slogdet", recording_slogdet)
    monkeypatch.setattr(states, "_least_minor", recording_least_minor)
    rng = np.random.default_rng(5)
    worst = 0.0
    for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)):
        d = da * db
        specs = [(int(rng.integers(1, d + 1)), int(rng.integers(0, 2**63 - 1))) for _ in range(1000)]
        # the rank rule draws only the candidates of rank above max(dA, dB)
        drawn = [spec for spec in specs if spec[0] > max(da, db)]
        screened.clear()
        signs.clear()
        minors.clear()
        # groups of 8, each walked in one window of 8, so every drawn
        # candidate is screened, accepted groups' included
        states._first_ppt(np.array(specs).reshape(125, 8, 2), da, db)
        # the screen's stacks in order, each of at most _STACK_ENTRIES
        # entries; each stage sees the survivors of the one before
        signed = np.concatenate(minors) >= -(PSD_TOL + states._PPT_SCREEN_GUARD)
        decomposed = signed.copy()
        decomposed[signed] = np.concatenate(signs) >= 0.0
        least = np.concatenate(screened)
        assert len(minors) > 1 and len(signed) == len(drawn) and len(least) == np.sum(decomposed)
        exact = np.array([eigvalsh(_partial_transpose_b(_random_density_arr(d, *spec), da, db))[0] for spec in drawn])
        worst = max(worst, float(np.max(np.abs(least - exact[decomposed]))))
        # the minors discard a share of the candidates outside the PPT test, and no other
        assert np.all(exact[~signed] < -PSD_TOL), (da, db)
        assert np.sum(~signed) >= np.sum(exact < -PSD_TOL) // 4, (da, db)
        # so does the sign, on the minors' survivors
        assert np.all(exact[signed & ~decomposed] < -PSD_TOL), (da, db)
        if d <= 6:
            assert 4 * np.sum(signed & ~decomposed) >= 3 * np.sum(signed & (exact < -PSD_TOL)), (da, db)
    assert worst <= 1e-15


def test_sign_stage_keeps_ppt_states_and_leaves_even_counts_to_eigvalsh(monkeypatch):
    # det(rho^PT + cI) is negative only when an odd number of eigenvalues
    # lie below -c: PPT-edge blends, separable mixtures and states whose
    # least eigenvalue sits just above -PSD_TOL pass every stage, and a
    # rho^PT with exactly two eigenvalues below -c passes the minors and
    # the sign and is rejected by eigvalsh
    c = PSD_TOL + states._PPT_SCREEN_GUARD
    inside = -PSD_TOL * (1.0 - 1e-3)
    eigvalsh = np.linalg.eigvalsh
    decided = []

    def recording_eigvalsh(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        if w.ndim == 2:
            decided.append(len(w))
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    rng = np.random.default_rng(13)
    for da, db in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)):
        d = da * db
        mats = []
        for _ in range(40):
            mat = _random_density_arr(d, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**63 - 1)))
            lam = eigvalsh(_partial_transpose_b(mat, da, db))[0]
            t = _ppt_edge_weight(mat, da, db)
            mats.append((1.0 - t) * mat + t * (np.eye(d) / d))
            if lam < inside:
                # blended toward I/d until its least eigenvalue is inside
                t = (inside - lam) / (1.0 / d - lam)
                mats.append((1.0 - t) * mat + t * (np.eye(d) / d))
            mats.append(_random_separable_arr(BipartiteDims(da, db), np.random.default_rng(int(rng.integers(0, 2**63 - 1))), int(rng.integers(1, 4))))
        pt = _partial_transpose_b(np.stack(mats), da, db)
        least = eigvalsh(pt)[:, 0]
        assert np.all(least >= inside - 1e-14) and np.sum(np.abs(least - inside) <= 1e-14) >= 10, (da, db)
        decided.clear()
        assert np.all(states._screen_pt(pt, da, db)), (da, db)
        assert decided == [len(mats)], (da, db)
    for da, db in ((2, 4), (3, 3)):
        d = da * db
        pt = _partial_transpose_b(
            np.stack([_random_density_arr(d, int(rng.integers(db + 1, d + 1)), int(rng.integers(0, 2**63 - 1))) for _ in range(400)]),
            da,
            db,
        )
        two = (np.sum(eigvalsh(pt) < -c, axis=1) == 2) & (states._least_minor(pt, da, db) >= -c)
        assert np.sum(two) >= 20, (da, db)
        decided.clear()
        assert not np.any(states._screen_pt(pt[two], da, db)), (da, db)
        assert decided == [np.sum(two)], (da, db)


def test_least_minor_keeps_ppt_edge_and_separable_states():
    # interlacing: no 2x2 minor of rho^PT has an eigenvalue below rho^PT's
    # least, so the minor stage never discards a state on the PPT edge
    rng = np.random.default_rng(9)
    blended = 0
    for da, db in ((2, 2), (2, 3), (2, 4), (3, 3)):
        d = da * db
        mats = []
        for _ in range(40):
            mat = _random_density_arr(d, int(rng.integers(1, d + 1)), int(rng.integers(0, 2**63 - 1)))
            t = _ppt_edge_weight(mat, da, db)
            blended += t > 0.0
            mats.append((1.0 - t) * mat + t * (np.eye(d) / d))
            mats.append(_random_separable_arr(BipartiteDims(da, db), np.random.default_rng(int(rng.integers(0, 2**63 - 1))), int(rng.integers(1, 4))))
        pt = _partial_transpose_b(np.stack(mats), da, db)
        minor = states._least_minor(pt, da, db)
        assert np.all(minor >= -(PSD_TOL + states._PPT_SCREEN_GUARD)), (da, db)
        assert np.all(minor >= np.linalg.eigvalsh(pt)[:, 0] - 1e-15), (da, db)
    assert blended > 80


def test_first_ppt_skips_ranks_only_where_they_are_npt(monkeypatch):
    # candidates of rank at most max(dA, dB) are never drawn when both
    # sides have dimension 2 or more; at 1xN every rank is drawn
    screen = states._ppt_screen
    ranks = []

    def recorded(candidates, da, db):
        ranks.extend(rank for rank, _ in candidates)
        return screen(candidates, da, db)

    monkeypatch.setattr(states, "_ppt_screen", recorded)
    for da, db in ((2, 2), (2, 3), (3, 2), (3, 3), (1, 3), (3, 1)):
        d = da * db
        specs = [(1 + k % d, 900 + k) for k in range(8 * d)]
        ranks.clear()
        # groups of 8, each walked in one window of 8, so every drawn
        # candidate is screened
        states._first_ppt(np.array(specs).reshape(d, 8, 2), da, db)
        floor = max(da, db) if min(da, db) >= 2 else 0
        assert sorted(ranks) == sorted(rank for rank, _ in specs if rank > floor), (da, db)
    # groups whose every candidate is skipped draw nothing and accept none
    ranks.clear()
    assert states._first_ppt(np.array([[(1, 5), (2, 6)], [(3, 7), (1, 8)]]), 2, 3) == [None, None]
    assert ranks == []


def test_first_ppt_stops_screening_a_group_once_it_is_accepted(monkeypatch):
    # _first_ppt walks the groups still without a state in windows of 8,
    # 16, 32, 64 and 80 candidates: a group is seeded and screened up to
    # the window of its first PPT candidate and no further, and a group
    # without one walks all five
    entropy = states._entropy
    windows = []

    def recorded(prefix, values):
        windows.append(set(np.asarray(values).tolist()))
        return entropy(prefix, values)

    monkeypatch.setattr(states, "_entropy", recorded)
    da, db = 2, 3
    d = da * db
    low = np.array([1, 0] * 200, dtype=np.int64)
    high = np.array([d + 1, 2**63 - 1] * 200, dtype=np.int64)
    rng = np.random.default_rng(17)
    groups = np.stack([rng.integers(low, high).reshape(200, 2) for _ in range(16)])
    found = states._first_ppt(groups, da, db)
    bounds = [0, 8, 24, 56, 120, 200]
    last = []
    for group, mat in zip(groups.tolist(), found):
        accepted = next((i for i, spec in enumerate(group) if _is_ppt(_random_density_arr(d, *spec), da, db)), None)
        if accepted is None:
            assert mat is None
            last.append(4)
        else:
            assert mat.tobytes() == _random_density_arr(d, *group[accepted]).tobytes()
            last.append(int(np.searchsorted(bounds, accepted, side="right")) - 1)
    assert 0 in last and 4 in last
    assert len(windows) == 5
    for w, seeds in enumerate(windows):
        want = {
            seed
            for group, end in zip(groups.tolist(), last)
            if end >= w
            for rank, seed in group[bounds[w]:bounds[w + 1]]
            if rank > max(da, db)
        }
        assert seeds == want, w


@pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_ginibre_states_of_rank_at_most_the_larger_side_are_npt(da, db):
    # the cells the rank rule skips: a PPT state of rank at most
    # max(rank rho_A, rank rho_B) is separable, which a Ginibre state of
    # that rank is with probability 0; each must fail the PPT test by a
    # wide margin, not by rounding
    d = da * db
    rng = np.random.default_rng([31, da, db])
    for rank in range(1, max(da, db) + 1):
        g = (rng.standard_normal((2000, d, rank)) + 1j * rng.standard_normal((2000, d, rank))) / np.sqrt(2.0)
        m = g @ g.conj().swapaxes(1, 2)
        m /= np.real(np.trace(m, axis1=1, axis2=2))[:, None, None]
        least = np.linalg.eigvalsh(_partial_transpose_b(m, da, db))[:, 0]
        assert np.max(least) < -1e-5, (da, db, rank)


@pytest.mark.parametrize("offset", [0.5, -0.5])
def test_exact_test_alone_decides_inside_the_guard(monkeypatch, offset):
    # a screen that puts every candidate just inside the guard band, on
    # either side of the PPT threshold -PSD_TOL, must leave acceptance to
    # the exact _is_ppt
    eigvalsh = np.linalg.eigvalsh

    def guard_band_screen(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        if w.ndim == 2:
            w[:, 0] = -PSD_TOL + offset * states._PPT_SCREEN_GUARD
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", guard_band_screen)
    assert_sampler_matches_loop((2, 2), range(20))
    assert_sampler_matches_loop((2, 3), range(20))


def test_trial_streams_are_prefix_stable(monkeypatch):
    # trial i depends only on (seed, suite, i), not on the trial count nor
    # on where the chunk boundaries fall
    for suite in ("reduction", "theorem1", "monotone", "lemma3"):
        long = [record_to_json(r) for r in run_suite(suite, 10, 31).records]
        chunks_of(monkeypatch, 4, BipartiteDims(2, 2))
        assert [record_to_json(r) for r in run_suite(suite, 3, 31).records] == long[:3]
        assert [record_to_json(r) for r in run_suite(suite, 10, 31).records] == long
        monkeypatch.undo()


def test_records_serialize_with_sorted_keys():
    import json

    record = run_suite("reduction", 2, 7).records[1]
    doc = json.loads(record_to_json(record))
    assert list(doc) == sorted(doc)
    assert list(doc["quantities"]) == sorted(doc["quantities"])
    assert set(doc) == {
        "dims", "indeterminate", "margin", "pass", "quantities", "seed", "suite", "trial",
    }


def test_monotone_trial_zero_is_the_squaring_counterexample():
    record = run_suite("monotone", 1, 123).records[0]
    assert record.quantities["square_violation"] == pytest.approx(
        3.0 - math.sqrt(10.0), abs=1e-12
    )
    assert record.margin == pytest.approx(math.sqrt(10.0) - 3.0, abs=1e-12)
    assert record.passed


def test_theorem1_indeterminate_trials_are_discarded():
    result = run_suite("theorem1", 100, 7, dims=BipartiteDims(2, 3))
    summary = result.summary
    assert summary["discarded"] > 0
    assert result.all_pass
    for record in result.records:
        if record.indeterminate:
            assert record.margin is None
            assert record.passed
        else:
            assert record.margin is not None


def test_tolerance_override_changes_verdicts():
    relaxed = run_suite("corollary1", 3, 7)
    assert relaxed.all_pass
    strict = run_suite("corollary1", 3, 7, tol=1e-13)
    assert not strict.all_pass
    assert strict.summary["failed"] > 0
    # margins themselves do not depend on the tolerance
    for a, b in zip(relaxed.records, strict.records):
        assert a.margin == b.margin


def test_run_suite_validation():
    with pytest.raises(InputError):
        run_suite("nonsense", 5, 7)
    with pytest.raises(InputError):
        run_suite("theorem1", 0, 7)
    with pytest.raises(InputError):
        run_suite("theorem1", 5, -1)
    with pytest.raises(InputError):
        run_suite("theorem1", 5, 2**64)
    with pytest.raises(InputError):
        run_suite("theorem1", 5, 7, tol=0.0)
    with pytest.raises(InputError):
        run_suite("lemma3", 5, 7, dims=BipartiteDims(3, 3))


@pytest.mark.parametrize("trials, seed", [(5, True), (5, 1.5), (5, "7"), (True, 7), (2.5, 7), (None, 7)])
def test_run_suite_rejects_non_integral_counts_and_seeds(monkeypatch, trials, seed):
    # refused before any generator is seeded, as BipartiteDims refuses a
    # bool or fractional dimension
    monkeypatch.setattr(verify, "_trial_rngs", None)
    with pytest.raises(InputError):
        run_suite("reduction", trials, seed)


def test_run_suite_takes_integral_values_of_any_type():
    want = campaign_text(run_suite("reduction", 3, 7))
    for trials, seed in ((3.0, 7), (3, 7.0), (np.int64(3), np.uint64(7))):
        result = run_suite("reduction", trials, seed)
        assert campaign_text(result) == want
        assert type(result.records[0].seed) is int and type(result.summary["trials"]) is int


def test_run_suite_takes_dims_as_a_pair():
    for suite in ("reduction", "theorem1"):
        want = campaign_text(run_suite(suite, 3, 0, dims=BipartiteDims(2, 3)))
        result = run_suite(suite, 3, 0, dims=(2, 3))
        assert campaign_text(result) == want
        assert result.records[0].dims == BipartiteDims(2, 3)


@pytest.mark.parametrize("dims", [5, (2,), (2, 3, 4), (2, 0)])
def test_run_suite_rejects_malformed_dims(dims):
    # the typed error BipartiteDims raises, not a bare unpacking error
    with pytest.raises(ShapeError):
        run_suite("reduction", 1, 0, dims=dims)


def test_monotone_needs_two_dimensions():
    # the canonical squaring pair of trial 0 is 2x2
    with pytest.raises(InputError, match="at least 2"):
        run_suite("monotone", 2, 7, dims=BipartiteDims(1, 1))
    assert run_suite("monotone", 2, 7, dims=BipartiteDims(1, 2)).all_pass


def test_default_tolerances_cover_every_suite():
    # the suite table is the one source of names and tolerances
    assert SUITE_NAMES == tuple(verify._SUITES)
    assert all(tol > 0 for _, tol in verify._SUITES.values())


def test_infinite_margins_serialize_as_strings():
    result = run_suite("theorem1", 100, 7, dims=BipartiteDims(2, 3))
    texts = [record_to_json(r) for r in result.records]
    joined = "\n".join(texts)
    assert '"inf"' in joined
    for record, text in zip(result.records, texts):
        if record.indeterminate:
            assert '"margin": null' in text
            assert '"nan"' in text


def test_worst_margin_matches_records():
    result = run_suite("reduction", 50, 13)
    margins = [r.margin for r in result.records if not r.indeterminate]
    assert result.summary["worst_margin"] == min(margins)


def test_solver_suites_record_solve_diagnostics(monkeypatch):
    # each record carries the diagnostics of the one solve of its trial;
    # these campaigns hold closed-form answers (0 steps) and path solves
    solves = []
    solve = verify.ree_ppt

    def recorded(sigma):
        solves.append(solve(sigma))
        return solves[-1]

    monkeypatch.setattr(verify, "ree_ppt", recorded)
    iterations = []
    for suite in ("lemma2", "lemma3"):
        solves.clear()
        records = run_suite(suite, 2, 7).records
        assert len(solves) == len(records)
        for record, res in zip(records, solves):
            quantities = record.quantities
            assert quantities["ree_converged"] == (1.0 if res.converged else 0.0)
            assert quantities["ree_iterations"] == float(res.iterations)
            iterations.append(res.iterations)
    assert 0 in iterations
    assert any(n >= 1 for n in iterations)


@pytest.mark.parametrize("suite, trials", [("lemma3", 8), ("corollary1", 3)])
def test_solver_suites_read_the_certified_side(monkeypatch, suite, trials):
    # a lower bound 1e-6 bits below each value leaves every value-side
    # claim standing, so only the certified side can fail these suites
    solve = verify.ree_ppt

    def loose(sigma):
        res = solve(sigma)
        return dataclasses.replace(res, lower_bits=res.value_bits - 1e-6)

    assert run_suite(suite, trials, 7).all_pass
    monkeypatch.setattr(verify, "ree_ppt", loose)
    assert not run_suite(suite, trials, 7).all_pass


def test_corollary2_passes_at_2x3():
    # the product of two 2x3 pure states is a 4x9 (d = 36) solve; projected
    # gradient descent stopped there after one step, about 2 bits high
    result = run_suite("corollary2", 1, 7, BipartiteDims(2, 3))
    assert result.all_pass
    record = result.records[0]
    assert record.quantities["ree_product_converged"] == 1.0
