import zlib

import numpy as np
import pytest

from reelab import states
from reelab.criteria import ppt_criterion
from reelab.errors import (
    InputError,
    NormalizationError,
    ShapeError,
    StateInvariantError,
)
from reelab.hermitian import is_psd
from reelab.statefile import load_state, save_state
from reelab.states import (
    BipartiteDims,
    DensityMatrix,
    PureState,
    bell_diagonal,
    maximally_mixed,
    partial_trace_A,
    partial_trace_B,
    partial_transpose_B,
    permute_systems,
    pure_from_schmidt,
    random_density,
    random_pure,
    random_separable,
    reduction_operator,
    singlet,
    tensor_bipartite,
    werner,
)


def product_state(rho_a, rho_b):
    da, db = rho_a.shape[0], rho_b.shape[0]
    return DensityMatrix(np.kron(rho_a, rho_b), (da, db))


def test_density_matrix_invariants():
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(StateInvariantError):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(ShapeError):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    dm = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert dm.dims == BipartiteDims(2, 2)


def test_pure_state_norm():
    with pytest.raises(NormalizationError):
        PureState([1.0, 1.0, 0.0, 0.0], (2, 2))
    psi = PureState([1.0, 0.0, 0.0, 0.0], (2, 2))
    assert psi.density().matrix.trace() == pytest.approx(1.0)


def test_partial_trace_product():
    rng = np.random.default_rng(1)
    ra = random_density(2, 2, 10).mat
    rb = random_density(3, 3, 11).mat
    rho = product_state(ra, rb)
    assert np.allclose(partial_trace_B(rho).mat, ra, atol=1e-14)
    assert np.allclose(partial_trace_A(rho).mat, rb, atol=1e-14)


def test_partial_trace_singlet_and_mixed():
    assert np.allclose(partial_trace_B(singlet()).mat, np.eye(2) / 2, atol=1e-15)
    assert np.allclose(partial_trace_B(maximally_mixed((2, 3))).mat, np.eye(2) / 2, atol=1e-15)
    with pytest.raises(ShapeError):
        partial_trace_B(DensityMatrix(np.eye(4) / 4))


def test_partial_transpose_product_and_involution():
    ra = random_density(2, 2, 20).mat
    rb = random_density(2, 2, 21).mat
    rho = product_state(ra, rb)
    pt = partial_transpose_B(rho)
    assert np.allclose(pt.mat, np.kron(ra, rb.T), atol=1e-14)
    assert is_psd(pt, 1e-9)[0]
    # involution, and trace preserved
    back = partial_transpose_B(DensityMatrix(pt, (2, 2)))
    assert np.max(np.abs(back.mat - rho.mat)) <= 1e-14
    assert pt.trace() == pytest.approx(1.0)


def test_partial_transpose_singlet_witness():
    _, witness = is_psd(partial_transpose_B(singlet()), 1e-9)
    assert witness == pytest.approx(-0.5, abs=1e-12)


def test_reduction_operator():
    mm = maximally_mixed((2, 3))
    ok, witness = is_psd(reduction_operator(mm), 1e-9)
    assert ok and witness == pytest.approx(1 / 2 - 1 / 6, abs=1e-12)
    ok, witness = is_psd(reduction_operator(singlet()), 1e-9)
    assert not ok and witness == pytest.approx(-0.5, abs=1e-12)
    assert reduction_operator(mm).trace() == pytest.approx(3 - 1)


def test_reduction_operator_reads_the_matrix_without_validating(monkeypatch):
    # rho_A is built raw, bit-equal to the validated partial trace, and
    # the operator costs no decomposition
    states_in = [random_density(d, r, seed).tagged(da, d // da)
                 for d, da in ((4, 2), (6, 2), (9, 3), (65, 5))
                 for r in (1, 2, d) for seed in (0, 1)]
    expected = [partial_trace_B(rho).mat for rho in states_in]
    calls = []
    monkeypatch.setattr(states, "_eigh", lambda mat: calls.append(mat) or np.linalg.eigh(mat))
    for rho, rho_a in zip(states_in, expected):
        db = rho.dims.db
        assert states._trace_b(rho.mat, rho.dims.da, db).tobytes() == rho_a.tobytes()
        op = reduction_operator(rho)
        assert op.mat.tobytes() == (np.kron(rho_a, np.eye(db)) - rho.mat).tobytes()
    assert calls == []


def test_dims_have_one_rule(tmp_path):
    rho = random_density(6, 6, 1).tagged(2.0, 3)
    assert type(rho.dims.da) is int and rho.dims.da == 2
    assert partial_trace_B(rho).dim == 2
    save_state(rho, tmp_path / "s.json")
    assert load_state(tmp_path / "s.json").dims == BipartiteDims(2, 3)
    dims = BipartiteDims(np.int64(3), np.float64(2.0))
    assert (type(dims.da), type(dims.db)) == (int, int)
    assert dims == BipartiteDims(3, 2)
    for da in (True, np.True_, 2.5, "2", float("nan"), float("inf"), 0, -1):
        with pytest.raises(ShapeError):
            BipartiteDims(da, 2)
        with pytest.raises(ShapeError):
            BipartiteDims(2, da)


def test_reduction_and_ppt_hold_on_separables():
    for seed in range(6):
        rho = random_separable((2, 2), seed)
        assert is_psd(reduction_operator(rho), 1e-9)[0]
        assert is_psd(partial_transpose_B(rho), 1e-9)[0]
    rho = random_separable((2, 3), 99, k=40)
    assert is_psd(reduction_operator(rho), 1e-9)[0]
    assert is_psd(partial_transpose_B(rho), 1e-9)[0]


def tiles_state() -> DensityMatrix:
    """The Tiles UPB bound-entangled state at 3x3 (Bennett et al., PRL 82, 5385 (1999)).

    (I - sum_i |psi_i><psi_i|)/4 over the five Tiles product vectors: PPT,
    entangled and of rank 4, with a partial transpose whose least
    eigenvalue rounds to about -1e-16.
    """
    e = np.eye(3)
    minus01, minus12 = (e[0] - e[1]) / np.sqrt(2.0), (e[1] - e[2]) / np.sqrt(2.0)
    plus = e.sum(axis=0) / np.sqrt(3.0)
    vecs = [
        np.kron(e[0], minus01),
        np.kron(minus01, e[2]),
        np.kron(e[2], minus12),
        np.kron(minus12, e[0]),
        np.kron(plus, plus),
    ]
    upb = sum(np.outer(v, v.conj()) for v in vecs)
    return DensityMatrix((np.eye(9) - upb) / 4.0, (3, 3))


def test_tiles_state_is_ppt():
    rho = tiles_state()
    assert np.linalg.matrix_rank(rho.mat, tol=1e-12) == 4
    assert states._is_ppt(rho.mat, 3, 3)
    assert ppt_criterion(rho).holds


def test_reductions_refuse_a_pure_state_typed():
    psi = random_pure((2, 2), 1)
    for reduce in (partial_trace_B, partial_trace_A, reduction_operator):
        with pytest.raises(InputError, match=r"psi\.density\(\)"):
            reduce(psi)


def test_pure_from_schmidt():
    psi = pure_from_schmidt([1.0], (2, 2))
    assert np.allclose(psi.amplitudes, [1, 0, 0, 0])
    psi = pure_from_schmidt([np.sqrt(0.5), np.sqrt(0.5)], (2, 2))
    assert np.allclose(partial_trace_B(psi.density()).mat, np.eye(2) / 2, atol=1e-14)
    psi = pure_from_schmidt([np.sqrt(0.9), np.sqrt(0.1)], (2, 2))
    evals = np.linalg.eigvalsh(partial_trace_B(psi.density()).mat)
    assert np.allclose(evals, [0.1, 0.9], atol=1e-12)
    with pytest.raises(NormalizationError):
        pure_from_schmidt([1.0, 1.0], (2, 2))
    with pytest.raises(ShapeError):
        pure_from_schmidt([1.0, 0.0, 0.0], (2, 3))
    with pytest.raises(InputError):
        pure_from_schmidt([np.sqrt(2.0), -1.0], (2, 2))


def test_werner_family():
    assert np.max(np.abs(werner(1.0).mat - singlet().mat)) <= 1e-15
    assert np.allclose(werner(0.25).mat, np.eye(4) / 4, atol=1e-15)
    with pytest.raises(InputError):
        werner(1.5)
    with pytest.raises(NormalizationError):
        bell_diagonal([0.5, 0.5, 0.5, -0.5])
    # PPT exactly up to F = 1/2: the partial-transpose witness changes sign there
    for f, expect in [(0.3, True), (0.499, True), (0.501, False), (0.9, False)]:
        ok, _ = is_psd(partial_transpose_B(werner(f)), 1e-9)
        assert ok == expect
    # witness crosses zero linearly at 1/2
    w_lo = is_psd(partial_transpose_B(werner(0.5 - 1e-6)), 0.0)[1]
    w_hi = is_psd(partial_transpose_B(werner(0.5 + 1e-6)), 0.0)[1]
    assert w_lo > 0 > w_hi


def test_bell_diagonal_spectrum():
    p = [0.4, 0.3, 0.2, 0.1]
    rho = bell_diagonal(p)
    assert np.allclose(np.sort(np.linalg.eigvalsh(rho.mat)), sorted(p), atol=1e-12)


def test_random_density_reproducible():
    a = random_density(4, 4, 42)
    b = random_density(4, 4, 42)
    assert np.array_equal(a.mat, b.mat)
    assert abs(a.matrix.trace() - 1.0) <= 1e-12
    c = random_density(4, 4, 43)
    assert not np.array_equal(a.mat, c.mat)
    with pytest.raises(InputError):
        random_density(4, 5, 0)


def test_samplers_take_integral_sizes_of_any_type():
    a = random_density(4, 4, 42)
    # integral values of any numeric type are taken as the integers they
    # equal; bools and fractions are refused as InputError, not numpy's TypeError
    assert np.array_equal(random_density(4.0, np.int64(4), 42).mat, a.mat)
    for dim, rank in ((4, 2.5), (4, True), (4.5, 2), (True, 1), ("4", 2)):
        with pytest.raises(InputError):
            random_density(dim, rank, 1)
    sep = random_separable((2, 2), 5, k=3)
    assert np.array_equal(random_separable((2, 2), 5, k=3.0).mat, sep.mat)
    for k in (2.5, True, 0, -1, "2"):
        with pytest.raises(InputError):
            random_separable((2, 2), 1, k=k)


def test_samplers_take_nonnegative_integer_seeds():
    # negative and fractional seeds are InputError, not numpy's ValueError
    # or TypeError; integral seeds of any type and size are taken as is
    assert np.array_equal(random_density(4, 2, 5.0).mat, random_density(4, 2, 5).mat)
    random_pure((2, 2), 2**64)
    for seed in (-1, 1.5, True, "1"):
        for sample in (
            lambda: random_density(4, 2, seed),
            lambda: random_pure((2, 2), seed),
            lambda: random_separable((2, 2), seed),
        ):
            with pytest.raises(InputError, match="seed"):
                sample()


def test_random_density_rank_one_is_pure():
    rho = random_density(4, 1, 7)
    assert np.max(np.abs(rho.mat @ rho.mat - rho.mat)) <= 1e-9


def test_random_pure():
    psi = random_pure((2, 3), 5)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-12
    assert np.array_equal(psi.amplitudes, random_pure((2, 3), 5).amplitudes)


def test_tensor_bipartite():
    mm = maximally_mixed((2, 2))
    out = tensor_bipartite(mm, mm)
    assert np.allclose(out.mat, np.eye(16) / 16, atol=1e-15)
    assert out.dims == BipartiteDims(4, 4)

    s2 = tensor_bipartite(singlet(), singlet())
    assert np.allclose(partial_trace_B(s2).mat, np.eye(4) / 4, atol=1e-14)

    r1 = random_density(4, 4, 31).tagged(2, 2)
    r2 = random_density(6, 6, 32).tagged(2, 3)
    out = tensor_bipartite(r1, r2)
    # reduced state of the product is the product of the reduced states
    lhs = partial_trace_B(out).mat
    rhs = np.kron(partial_trace_B(r1).mat, partial_trace_B(r2).mat)
    assert np.allclose(lhs, rhs, atol=1e-13)
    # spectrum is the outer product of the factor spectra
    w = np.sort(np.linalg.eigvalsh(out.mat))
    w12 = np.sort(np.outer(np.linalg.eigvalsh(r1.mat), np.linalg.eigvalsh(r2.mat)).ravel())
    assert np.allclose(w, w12, atol=1e-10)


def test_tagged_reuses_the_validated_matrix(monkeypatch):
    mat = random_density(6, 3, 5).mat
    calls = []
    eigh = states._eigh

    def counting_eigh(m):
        calls.append(1)
        return eigh(m)

    monkeypatch.setattr(states, "_eigh", counting_eigh)
    rho = DensityMatrix(mat)
    assert len(calls) == 1
    # the validating decomposition is kept, bit for bit and read-only
    w, u = np.linalg.eigh(rho.mat)
    assert rho.spectrum.eigenvalues.tobytes() == w.tobytes()
    assert rho.spectrum.eigenvectors.tobytes() == u.tobytes()
    assert not rho.spectrum.eigenvalues.flags.writeable
    assert not rho.spectrum.eigenvectors.flags.writeable
    tagged = rho.tagged(2, 3)
    assert len(calls) == 1
    assert tagged.matrix is rho.matrix
    assert tagged.spectrum is rho.spectrum
    assert tagged.dims == BipartiteDims(2, 3)
    assert rho.dims is None
    with pytest.raises(ShapeError):
        rho.tagged(2, 2)


def test_tagged_checks_dims_as_the_constructor_does():
    rho = random_density(6, 3, 5)
    with pytest.raises(ShapeError) as tagged_err:
        rho.tagged(2, 2)
    with pytest.raises(ShapeError) as ctor_err:
        DensityMatrix(rho.mat, (2, 2))
    assert str(tagged_err.value) == str(ctor_err.value) == "dims 2x2 do not match matrix dimension 6"
    # a retag of a tagged state still shares the validated matrix and spectrum
    retagged = rho.tagged(2, 3).tagged(3, 2)
    assert retagged.matrix is rho.matrix
    assert retagged.spectrum is rho.spectrum
    assert retagged.dims == BipartiteDims(3, 2)


def test_permute_systems():
    r1 = random_density(2, 2, 51)
    r2 = random_density(3, 3, 52)
    rho = DensityMatrix(np.kron(r1.mat, r2.mat))
    ident = permute_systems(rho, (0, 1), (2, 3))
    assert np.array_equal(ident.mat, rho.mat)
    swapped = permute_systems(rho, (1, 0), (2, 3))
    assert np.allclose(swapped.mat, np.kron(r2.mat, r1.mat), atol=1e-15)
    back = permute_systems(swapped, (1, 0), (3, 2))
    assert np.allclose(back.mat, rho.mat, atol=1e-15)
    assert np.allclose(
        np.linalg.eigvalsh(swapped.mat), np.linalg.eigvalsh(rho.mat), atol=1e-12
    )
    with pytest.raises(InputError):
        permute_systems(rho, (0, 0), (2, 3))
    with pytest.raises(ShapeError):
        permute_systems(rho, (0, 1), (2, 2))


def test_partial_trace_preserves_trace():
    for seed in range(4):
        rho = random_density(6, 6, seed).tagged(2, 3)
        assert partial_trace_B(rho).matrix.trace() == pytest.approx(1.0, abs=1e-12)
        assert partial_trace_A(rho).matrix.trace() == pytest.approx(1.0, abs=1e-12)


def assert_same_streams(got, seeds) -> int:
    """Each generator of got against np.random.default_rng of its seed: state and 64 normal draws."""
    count = 0
    for rng, seed in zip(got, seeds):
        want = np.random.default_rng(seed)
        assert rng.bit_generator.state == want.bit_generator.state, seed
        assert rng.standard_normal(64).tobytes() == want.standard_normal(64).tobytes(), seed
        count += 1
    return count


def test_generators_match_default_rng_on_scalar_seeds():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 - 1]
    drawn = [int(s) for s in np.random.default_rng(3).integers(0, 2**64 - 1, size=3000, dtype=np.uint64)]
    for seeds in (edges, drawn, edges[:2]):
        assert assert_same_streams(states._generators(states._entropy((), seeds)), seeds) == len(seeds)


def test_generators_match_default_rng_on_trial_entropies():
    # the streams of verify ([seed, crc32(suite), trial], 3 or 4 words) and
    # of the monotone search ([seed, trial], 2 or 3 words)
    tag = zlib.crc32(b"theorem1")
    trials = [0, 1, 55, 2**31, 2**32 - 1]
    for seed in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1):
        for prefix in ((seed, tag), (seed,)):
            entropy = states._entropy(prefix, trials)
            assert entropy.shape[1] == len(prefix) + 1 + (seed >= 2**32)
            got = states._generators(entropy)
            assert assert_same_streams(got, [[*prefix, t] for t in trials]) == len(trials)


def test_generators_refuse_entropy_longer_than_the_pool():
    with pytest.raises(InputError):
        states._generators(np.zeros((3, 5), dtype=np.uint32))
    # a 64-bit seed, the suite tag and a trial index past 2**32 take 5 words
    with pytest.raises(InputError):
        states._generators(states._entropy((2**40, 17), [2**32]))
    with pytest.raises(InputError):
        states._entropy((-1,), [0])
    # PCG64 is the only bit generator a hashed seed can seed
    with pytest.raises(InputError):
        np.random.MT19937(states._HashedSeed(np.zeros(4, dtype=np.uint64)))
