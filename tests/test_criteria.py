import hashlib

import numpy as np
import pytest

from reelab import criteria
from reelab.criteria import (
    loewner_matrix_psd_check,
    operator_monotone_search,
    ppt_criterion,
    reduction_criterion,
)
from reelab.errors import InputError
from reelab.hermitian import (
    IDENTITY_FN,
    LOG,
    SQRT,
    SQUARE,
    ScalarFunction,
    loewner_geq,
    matrix_function,
)
from reelab.states import (
    DensityMatrix,
    maximally_mixed,
    random_density,
    random_separable,
    singlet,
    werner,
)


def test_reduction_criterion_verdicts():
    assert reduction_criterion(maximally_mixed((2, 2))).holds
    verdict = reduction_criterion(singlet())
    assert not verdict.holds
    assert verdict.witness_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    # the witness is the singlet vector itself
    overlap = abs(np.vdot(verdict.witness_vector, singlet().mat @ verdict.witness_vector))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_reduction_werner_threshold():
    # scan the family: the verdict flips exactly past F = 1/2
    for f in np.arange(0.0, 1.0001, 1e-3):
        expected = f <= 0.5 + 1e-12
        assert reduction_criterion(werner(float(f)), 1e-9).holds == expected


def test_ppt_criterion_verdicts():
    ra = random_density(2, 2, 1).mat
    rb = random_density(2, 2, 2).mat
    prod = DensityMatrix(np.kron(ra, rb), (2, 2))
    assert ppt_criterion(prod).holds
    verdict = ppt_criterion(singlet())
    assert not verdict.holds
    assert verdict.witness_eigenvalue == pytest.approx(-0.5, abs=1e-12)


def test_criteria_reject_invalid_tolerance():
    # a NaN tolerance compared false and gave the separable werner(0.3)
    # a failing verdict
    for tol in (-1.0, np.nan):
        with pytest.raises(InputError):
            ppt_criterion(werner(0.3), tol)
        with pytest.raises(InputError):
            reduction_criterion(werner(0.3), tol)
        # log is operator monotone: no tolerance may disprove it
        with pytest.raises(InputError):
            loewner_matrix_psd_check(LOG, [1.0, 2.0, 3.0], tol)


def test_criteria_agree_two_qubits():
    # reduction and PPT are equivalent for 2x2; check verdict agreement
    for seed in range(300):
        rho = random_density(4, 4, seed).tagged(2, 2)
        assert ppt_criterion(rho).holds == reduction_criterion(rho).holds


def test_criteria_no_false_alarms_on_separables():
    for seed in range(10):
        rho = random_separable((2, 2), seed, k=32)
        assert ppt_criterion(rho, 1e-9).holds
        assert reduction_criterion(rho, 1e-9).holds


def test_monotone_search_identity_and_log_find_nothing():
    assert operator_monotone_search(IDENTITY_FN, 2, 200, seed=0) is None
    assert operator_monotone_search(SQRT, 3, 200, seed=1) is None
    for dim in (2, 3, 4):
        assert operator_monotone_search(LOG, dim, 500, seed=dim) is None


def test_monotone_search_square_finds_injected_pair():
    found = operator_monotone_search(SQUARE, 2, 1000, seed=7)
    assert found is not None
    assert found.trials_used == 1
    assert np.allclose(found.a.mat, [[2, 1], [1, 1]])
    assert np.allclose(found.b.mat, np.diag([1.0, 0.0]))
    assert found.violation == pytest.approx(3.0 - np.sqrt(10.0), abs=1e-12)


def test_monotone_search_square_padded_dims():
    for dim in (3, 4):
        found = operator_monotone_search(SQUARE, dim, 1000, seed=11)
        assert found is not None and found.trials_used == 1


def test_monotone_counterexample_reverifies():
    found = operator_monotone_search(SQUARE, 2, 1000, seed=3)
    assert loewner_geq(found.a, found.b, 1e-10)
    fa = matrix_function(found.a, SQUARE)
    fb = matrix_function(found.b, SQUARE)
    wmin = float(np.linalg.eigvalsh(fa.mat - fb.mat)[0])
    assert wmin == pytest.approx(found.violation, abs=1e-12)
    assert wmin < -1e-8


def test_monotone_search_deterministic():
    a = operator_monotone_search(SQUARE, 3, 50, seed=21)
    b = operator_monotone_search(SQUARE, 3, 50, seed=21)
    assert np.array_equal(a.a.mat, b.a.mat)
    assert np.array_equal(a.b.mat, b.b.mat)
    assert a.violation == b.violation and a.trials_used == b.trials_used


def test_monotone_search_negative_domain_edge():
    # log(1+x) and sqrt(x+2) are operator monotone on domains with a
    # finite negative edge; the sampled pair must stay ordered there
    log1p = ScalarFunction("log1p", np.log1p, -1.0)
    sqrt_shift = ScalarFunction("sqrt-shift", lambda x: np.sqrt(x + 2.0), -2.0)
    for dim in (2, 3, 4):
        assert operator_monotone_search(log1p, dim, 200, seed=dim) is None
        assert operator_monotone_search(sqrt_shift, dim, 200, seed=dim) is None
    square_shift = ScalarFunction("square-shift", lambda x: (x + 1.0) ** 2, -1.0)
    found = operator_monotone_search(square_shift, 3, 200, seed=0)
    assert found is not None and found.trials_used == 1


# (trials_used, violation, sha256 of the pair's A then B bytes) of the first
# counterexample in 1,000 trials at seed 41 + dim, frozen from the search
# that evaluated one trial at a time: SQUARE stops on its injected trial 0,
# and x^1.1, whose domain admits no injection, on a sampled pair
FROZEN_COUNTEREXAMPLES = {
    ("square", 2): (1, -0.16227766016837952, "6bd0f682981fe1f97e65a0fb5d7df44669e64d9b0eb010b9abeb23c962aab266"),
    ("square", 3): (1, -0.16227766016837952, "47b21196fdfd18bf6ec760059d865c8c3b7cc8326021b987a038efa5d74be269"),
    ("square", 4): (1, -0.16227766016837952, "5133903cd38648ff08ea027f30f3799cb2f01f5698847741ed51b37e891c704d"),
    ("pow1.1", 2): (1, -0.06813516573943001, "f91409e24a7d20f7022c8f5ca9669ad5f590df20064227e41d5f8893c8814557"),
    ("pow1.1", 3): (2, -0.030643534575429097, "82b21f649440d3ef2aa4b6c8ac7ecbef3a8749f83b8c5ef99248e34ee15379c0"),
    ("pow1.1", 4): (31, -0.003857875231449763, "735dd626804e8830cdc354a6d1e42228daacf75cc1924d0d3c4b4efd08dcba3a"),
}


@pytest.mark.parametrize("chunk", [None, 7])
def test_monotone_search_counterexamples_match_frozen(monkeypatch, chunk):
    # chunks of 7 trials put x^1.1's counterexample at 4x4 in the fifth chunk
    functions = {"square": SQUARE, "pow1.1": ScalarFunction("pow1.1", lambda x: np.power(x, 1.1), 0.0)}
    for (name, dim), (used, violation, digest) in FROZEN_COUNTEREXAMPLES.items():
        if chunk:
            monkeypatch.setattr(criteria, "_STACK_ENTRIES", chunk * dim * dim)
        found = operator_monotone_search(functions[name], dim, 1000, seed=41 + dim)
        assert (found.trials_used, found.violation) == (used, violation), (name, dim)
        assert hashlib.sha256(found.a.mat.tobytes() + found.b.mat.tobytes()).hexdigest() == digest


def test_monotone_search_input_validation():
    with pytest.raises(InputError):
        operator_monotone_search(LOG, 1, 10, seed=0)
    with pytest.raises(InputError):
        operator_monotone_search(LOG, 2, 0, seed=0)
    # a bool, fractional or negative seed is refused, not truncated
    for seed in (True, 1.5, -1, "3"):
        with pytest.raises(InputError):
            operator_monotone_search(SQUARE, 2, 10, seed=seed)
    with pytest.raises(InputError):
        operator_monotone_search(SQUARE, 2, 2.5, seed=0)
    with pytest.raises(InputError):
        operator_monotone_search(SQUARE, 2.5, 10, seed=0)
    # trial i is seeded by SeedSequence([seed, i]) in four 32-bit words:
    # the largest seed takes three, and a larger one is refused for every f,
    # not only for those that reach the seeding past the injected trial 0
    assert operator_monotone_search(LOG, 2, 300, seed=2**96 - 1) is None
    for f in (LOG, SQUARE):
        with pytest.raises(InputError, match=r"below 2\*\*96, got 79228162514264337593543950336"):
            operator_monotone_search(f, 2, 300, seed=2**96)
    # integral values of any type are taken as the integers they equal
    pow11 = ScalarFunction("pow1.1", lambda x: np.power(x, 1.1), 0.0)
    want = operator_monotone_search(pow11, 4, 100, seed=45)
    got = operator_monotone_search(pow11, 4.0, 100.0, seed=np.uint64(45))
    assert want.trials_used == 31
    assert (got.trials_used, got.a.mat.tobytes()) == (want.trials_used, want.a.mat.tobytes())


def test_loewner_matrix_log_psd():
    ok, wmin = loewner_matrix_psd_check(LOG, [0.5, 1.0, 2.0, 4.0])
    assert ok and wmin >= -1e-9
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = np.sort(rng.uniform(0.05, 10.0, size=rng.integers(2, 7)))
        if len(np.unique(pts)) != len(pts):
            continue
        ok, _ = loewner_matrix_psd_check(LOG, pts)
        assert ok


def test_loewner_matrix_square_not_psd():
    ok, wmin = loewner_matrix_psd_check(SQUARE, [1.0, 2.0])
    assert not ok
    assert wmin == pytest.approx(3.0 - np.sqrt(10.0), abs=1e-6)


def test_loewner_matrix_identity_all_ones():
    ok, wmin = loewner_matrix_psd_check(IDENTITY_FN, [0.3, 1.0, 5.0])
    assert ok and wmin == pytest.approx(0.0, abs=1e-9)


def test_loewner_matrix_duplicate_points():
    with pytest.raises(InputError):
        loewner_matrix_psd_check(LOG, [1.0, 1.0, 2.0])


def test_loewner_matrix_domain():
    from reelab.errors import DomainError

    with pytest.raises(DomainError):
        loewner_matrix_psd_check(LOG, [-1.0, 2.0])
    shifted = ScalarFunction("log-above-one", lambda x: np.log(x - 1.0), 1.0)
    ok, _ = loewner_matrix_psd_check(shifted, [1.5, 2.0, 3.0])
    assert ok


def test_loewner_matrix_near_domain_edge():
    # the finite-difference stencil must not cross a finite domain edge
    log1p = ScalarFunction("log1p", np.log1p, -1.0)
    ok, wmin = loewner_matrix_psd_check(log1p, [-0.9999999, 0.5])
    assert ok and wmin > 0.0
    shifted = ScalarFunction("log-above-one", lambda x: np.log(x - 1.0), 1.0)
    ok, wmin = loewner_matrix_psd_check(shifted, [1.0000001, 2.0])
    assert ok and wmin > 0.0
