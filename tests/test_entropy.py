import math

import numpy as np
import pytest

from reelab.entropy import (
    lemma2_bound,
    log_order_check,
    negative_conditional_entropy,
    relative_entropy,
    theorem1_gap,
    von_neumann_entropy,
)
from reelab.errors import DomainError, ShapeError
from reelab.hermitian import is_psd
from reelab.states import (
    DensityMatrix,
    maximally_mixed,
    partial_transpose_B,
    pure_from_schmidt,
    random_density,
    singlet,
    tensor_bipartite,
    werner,
)

H_09 = 0.4689955935892811  # binary entropy of 0.9, bits
KL_HALF_NINETEN = 0.7369655941662061  # KL((.5,.5)||(.9,.1)), bits


def random_ppt(dim, dims, seed):
    """Rejection-sample a random full-rank state until its partial transpose is PSD."""
    s = seed
    while True:
        rho = random_density(dim, dim, s).tagged(*dims)
        if is_psd(partial_transpose_B(rho), 1e-9)[0]:
            return rho
        s += 100003


def test_von_neumann_basics():
    assert von_neumann_entropy(pure_from_schmidt([1.0], (2, 2)).density()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(maximally_mixed((2, 3))) == pytest.approx(np.log2(6), abs=1e-12)
    assert von_neumann_entropy(DensityMatrix(np.diag([0.9, 0.1]))) == pytest.approx(H_09, abs=1e-12)


def test_relative_entropy_identity_cases():
    rho = random_density(4, 4, 2)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)
    sigma = random_density(4, 4, 3)
    d = 4
    expected = np.log2(d) - von_neumann_entropy(sigma)
    assert relative_entropy(sigma, DensityMatrix(np.eye(d) / d)) == pytest.approx(expected, abs=1e-10)


def test_relative_entropy_disjoint_support():
    p0 = DensityMatrix(np.diag([1.0, 0.0]))
    p1 = DensityMatrix(np.diag([0.0, 1.0]))
    assert relative_entropy(p0, p1) == math.inf


def test_relative_entropy_classical_kl():
    sigma = DensityMatrix(np.diag([0.5, 0.5]))
    rho = DensityMatrix(np.diag([0.9, 0.1]))
    assert relative_entropy(sigma, rho) == pytest.approx(KL_HALF_NINETEN, abs=1e-12)


def test_relative_entropy_shape_mismatch():
    with pytest.raises(ShapeError):
        relative_entropy(random_density(2, 2, 0), random_density(3, 3, 0))


def test_klein_inequality_ensemble():
    rng = np.random.default_rng(17)
    for _ in range(300):
        dim = int(rng.integers(2, 7))
        sigma = random_density(dim, dim, int(rng.integers(0, 2**63)))
        rho = random_density(dim, dim, int(rng.integers(0, 2**63)))
        val = relative_entropy(sigma, rho)
        assert val >= 0.0
        if np.max(np.abs(sigma.mat - rho.mat)) > 1e-6:
            assert val > 1e-9


def test_relative_entropy_zero_iff_equal():
    rho = random_density(4, 4, 9)
    assert relative_entropy(rho, rho) <= 1e-9
    bumped = rho.mat + np.diag([1e-8, -1e-8, 0, 0])
    sigma = DensityMatrix(bumped / np.trace(bumped).real)
    assert relative_entropy(sigma, rho) <= 1e-9


def test_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = np.linalg.eigh(g @ g.conj().T)[1]
        sigma = random_density(dim, dim, int(rng.integers(0, 2**63)))
        rho = random_density(dim, dim, int(rng.integers(0, 2**63)))
        sig_u = DensityMatrix(u @ sigma.mat @ u.conj().T)
        rho_u = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(sig_u) == pytest.approx(von_neumann_entropy(sigma), abs=1e-10)
        assert relative_entropy(sig_u, rho_u) == pytest.approx(relative_entropy(sigma, rho), abs=1e-10)


def test_relative_entropy_additivity():
    for seed in [(40, 41), (42, 43), (44, 45)]:
        s1 = random_density(4, 4, seed[0]).tagged(2, 2)
        r1 = random_density(4, 4, seed[0] + 10).tagged(2, 2)
        s2 = random_density(4, 4, seed[1]).tagged(2, 2)
        r2 = random_density(4, 4, seed[1] + 10).tagged(2, 2)
        joint = relative_entropy(tensor_bipartite(s1, s2), tensor_bipartite(r1, r2))
        split = relative_entropy(s1, r1) + relative_entropy(s2, r2)
        assert joint == pytest.approx(split, abs=1e-9)


def test_negative_conditional_entropy():
    ra = random_density(2, 2, 50)
    rb = random_density(2, 2, 51)
    prod = DensityMatrix(np.kron(ra.mat, rb.mat), (2, 2))
    assert negative_conditional_entropy(prod, "A") == pytest.approx(-von_neumann_entropy(rb), abs=1e-10)
    assert negative_conditional_entropy(singlet(), "A") == pytest.approx(1.0, abs=1e-10)
    assert negative_conditional_entropy(maximally_mixed((2, 2)), "A") == pytest.approx(-1.0, abs=1e-12)


def test_theorem1_gap_consistency_sigma_equals_rho():
    for seed in range(5):
        rho = random_ppt(4, (2, 2), seed)
        for side in ("A", "B"):
            gap = theorem1_gap(rho, rho, side)
            assert gap is not None and gap >= -1e-8


def test_theorem1_gap_singlet_cases():
    # against the maximally mixed state the inequality has slack 1
    gap = theorem1_gap(singlet(), maximally_mixed((2, 2)), "A")
    assert gap == pytest.approx(1.0, abs=1e-10)
    # against the closest PPT state (werner 1/2) it saturates
    gap = theorem1_gap(singlet(), werner(0.5), "A")
    assert gap == pytest.approx(0.0, abs=1e-10)


def test_theorem1_gap_product_sigma():
    ra = random_density(2, 2, 60)
    rb = random_density(2, 2, 61)
    prod = DensityMatrix(np.kron(ra.mat, rb.mat), (2, 2))
    gap = theorem1_gap(prod, prod, "A")
    assert gap == pytest.approx(von_neumann_entropy(rb), abs=1e-10)


def test_theorem1_gap_infinities():
    # rho supported on |00>,|11> only: joint diverges, reduction stays finite
    rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    assert theorem1_gap(singlet(), rho, "A") == math.inf
    # rank-one product rho: joint and reduced both diverge -> indeterminate
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert theorem1_gap(singlet(), rho, "A") is None
    # two sigma-overlaps of 6e-11 on rho's kernel each pass the support
    # test, their sum on rho_A's kernel does not: only the reduced term
    # diverges, which is indeterminate, not a violation (rho is separable)
    sigma = DensityMatrix(np.diag([6e-11, 6e-11, 0.5 - 6e-11, 0.5 - 6e-11]), (2, 2))
    rho = DensityMatrix(np.diag([1e-13, 1e-13, 0.5 - 1e-13, 0.5 - 1e-13]), (2, 2))
    assert relative_entropy(sigma, rho) == 0.0
    assert theorem1_gap(sigma, rho, "A") is None


def test_entropies_read_the_stored_spectra(monkeypatch):
    # the entropies read DensityMatrix.spectrum; only the constructors of
    # the two reductions decompose anything
    sigma = random_density(6, 6, 70).tagged(2, 3)
    rho = random_ppt(6, (2, 3), 71)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(m):
        calls.append(1)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for fn, args, expected in (
        (von_neumann_entropy, (sigma,), 0),
        (relative_entropy, (sigma, rho), 0),
        (theorem1_gap, (sigma, rho, "A"), 2),
        (theorem1_gap, (sigma, rho, "B"), 2),
        (lemma2_bound, (sigma,), 2),
    ):
        calls.clear()
        fn(*args)
        assert len(calls) == expected, fn.__name__


def test_log_order_maximally_mixed_and_ppt_ensemble():
    assert log_order_check(maximally_mixed((2, 2)), 1e-9)
    for seed in range(20):
        rho = random_ppt(4, (2, 2), 1000 + seed)
        assert log_order_check(rho, 1e-8)


def test_log_order_fails_near_singlet():
    # (1-eps) singlet + eps maximally mixed, full rank but strongly NPT
    eps = 0.05
    mat = (1 - eps) * singlet().mat + eps * np.eye(4) / 4
    rho = DensityMatrix(mat, (2, 2))
    assert not log_order_check(rho, 1e-8)


def test_log_order_rank_deficient_raises():
    with pytest.raises(DomainError):
        log_order_check(singlet(), 1e-9)


def test_lemma2_bound():
    assert lemma2_bound(singlet()) == pytest.approx(1.0, abs=1e-10)
    assert lemma2_bound(maximally_mixed((2, 2))) == pytest.approx(-1.0, abs=1e-12)
    psi = pure_from_schmidt([np.sqrt(0.9), np.sqrt(0.1)], (2, 2))
    assert lemma2_bound(psi.density()) == pytest.approx(H_09, abs=1e-10)
    # never exceeds the log-dim of the smaller side
    for seed in range(10):
        rho = random_density(6, 6, 300 + seed).tagged(2, 3)
        assert lemma2_bound(rho) <= np.log2(2) + 1e-12


def test_bipartite_functionals_reject_untagged_state():
    full_rank = random_density(4, 4, 9)
    # rank deficient: the A|B split is checked before any matrix log
    singular = DensityMatrix(singlet().mat)
    for state in (full_rank, singular):
        with pytest.raises(ShapeError):
            lemma2_bound(state)
        with pytest.raises(ShapeError):
            log_order_check(state, 1e-9)
        for side in ("A", "B"):
            with pytest.raises(ShapeError):
                negative_conditional_entropy(state, side)
