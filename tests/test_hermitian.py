import numpy as np
import pytest

from reelab.errors import DomainError, InputError, ShapeError
from reelab.hermitian import (
    EXP,
    LOG,
    SQRT,
    SQUARE,
    HermitianMatrix,
    ScalarFunction,
    eig_hermitian,
    frechet_log_adjoint,
    from_diag,
    hs_inner,
    identity,
    is_psd,
    loewner_geq,
    matrix_function,
    matrix_log,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix((g + g.conj().T) / 2)


def random_pd(rng, dim, lo=0.1, hi=10.0):
    """Random positive definite matrix with eigenvalues mapped into [lo, hi]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, u = np.linalg.eigh(g @ g.conj().T)
    span = w[-1] - w[0]
    w = lo + (hi - lo) * (w - w[0]) / (span if span > 0 else 1.0)
    return HermitianMatrix((u * w) @ u.conj().T)


def test_construction_symmetrizes():
    h = HermitianMatrix([[1.0, 1j], [0.0, 2.0]])
    assert np.allclose(h.mat, h.mat.conj().T)
    assert h.mat[0, 1] == 0.5j
    assert h.mat[1, 0] == -0.5j


def test_construction_idempotent_on_hermitian_input():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 5)
    b = HermitianMatrix(a.mat)
    assert np.array_equal(a.mat, b.mat)


def test_construction_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ShapeError):
        HermitianMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        HermitianMatrix(np.zeros(4))
    with pytest.raises(InputError):
        HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        HermitianMatrix([[1.0, np.inf * 1j], [0.0, 1.0]])


def test_eig_identity_and_diagonal():
    dec = eig_hermitian(identity(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    dec = eig_hermitian(from_diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


def test_eig_pauli_x():
    dec = eig_hermitian(HermitianMatrix(PAULI_X))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    u = dec.eigenvectors
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-10
    assert np.max(np.abs(dec.reconstruct().mat - PAULI_X)) <= 1e-9


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        h = random_hermitian(rng, dim)
        dec = eig_hermitian(h)
        err = np.max(np.abs(dec.reconstruct().mat - h.mat))
        assert err <= 1e-9 * max(1.0, h.max_abs())
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_matrix_function_log_of_identity_is_zero():
    out = matrix_function(identity(2), LOG)
    assert np.allclose(out.mat, 0.0)


def test_matrix_function_sqrt_diagonal():
    out = matrix_function(from_diag([4.0, 9.0]), SQRT)
    assert np.allclose(out.mat, np.diag([2.0, 3.0]))


def test_matrix_function_exp_log_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        h = random_pd(rng, dim)
        back = matrix_function(matrix_function(h, EXP), LOG)
        # exp can push eigenvalues to ~2e4; round-trip error scales with that
        assert np.max(np.abs(back.mat - h.mat)) <= 1e-8 * max(1.0, np.exp(10.0))


def test_matrix_function_domain_error_carries_eigenvalue():
    with pytest.raises(DomainError) as err:
        matrix_function(from_diag([1.0, -0.5]), LOG)
    assert err.value.eigenvalue == pytest.approx(-0.5)


def test_matrix_log_scalar_case():
    out = matrix_log(3.0 * identity(4))
    assert np.allclose(out.mat, np.log(3.0) * np.eye(4))


def test_matrix_log_rejects_near_singular():
    with pytest.raises(DomainError):
        matrix_log(from_diag([1.0, 1e-12]))
    # just above the default tolerance is accepted
    matrix_log(from_diag([1.0, 1e-8]))


def test_is_psd_witness():
    ok, witness = is_psd(identity(2), 1e-9)
    assert ok and witness == pytest.approx(1.0)
    ok, witness = is_psd(from_diag([1.0, -0.5]), 1e-9)
    assert not ok and witness == pytest.approx(-0.5)
    for tol in (-1.0, np.nan):
        with pytest.raises(InputError):
            is_psd(identity(2), tol)


def test_loewner_geq_basics():
    assert loewner_geq(2.0 * identity(3), identity(3))
    with pytest.raises(ShapeError):
        loewner_geq(identity(2), identity(3))


def test_loewner_square_counterexample():
    # A >= B yet A^2 not >= B^2: squaring does not transport the order
    a = HermitianMatrix([[2.0, 1.0], [1.0, 1.0]])
    b = from_diag([1.0, 0.0])
    assert loewner_geq(a, b, 1e-9)
    a2 = matrix_function(a, SQUARE)
    b2 = matrix_function(b, SQUARE)
    assert not loewner_geq(a2, b2, 1e-8)
    _, witness = is_psd(a2 - b2, 1e-8)
    assert witness == pytest.approx(3.0 - np.sqrt(10.0), abs=1e-12)


def test_loewner_both_directions_means_equal():
    rng = np.random.default_rng(5)
    a = random_pd(rng, 4)
    b = HermitianMatrix(a.mat + 0.0)
    assert loewner_geq(a, b, 0.0) and loewner_geq(b, a, 0.0)
    assert np.max(np.abs(a.mat - b.mat)) <= 1e-9


def test_monotone_transport_commuting():
    # commuting pair A >= B: any monotone scalar function preserves the order
    rng = np.random.default_rng(13)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = np.linalg.eigh(g @ g.conj().T)[1]
        wb = rng.uniform(0.2, 5.0, size=dim)
        wa = wb + rng.uniform(0.0, 3.0, size=dim)
        a = HermitianMatrix((u * wa) @ u.conj().T)
        b = HermitianMatrix((u * wb) @ u.conj().T)
        assert loewner_geq(a, b, 1e-9)
        for f in (LOG, SQRT):
            assert loewner_geq(matrix_function(a, f), matrix_function(b, f), 1e-9)


def test_frechet_equal_eigenvalue_case():
    rng = np.random.default_rng(17)
    d = 3
    sigma = random_hermitian(rng, d)
    rho = eig_hermitian(identity(d) * (1.0 / d))
    out = frechet_log_adjoint(rho, sigma)
    assert np.allclose(out.mat, d * sigma.mat, atol=1e-12)


def test_frechet_commuting_diagonal_case():
    lam = np.array([0.2, 0.3, 0.5])
    rho = eig_hermitian(from_diag(lam))
    sigma = from_diag([0.1, 0.6, 0.3])
    out = frechet_log_adjoint(rho, sigma)
    assert np.allclose(np.diag(out.mat).real, np.array([0.1, 0.6, 0.3]) / lam)


def test_frechet_directional_finite_difference():
    # (tr{sigma log(rho+h D)} - tr{sigma log rho})/h ~= <frechet, D>
    rng = np.random.default_rng(23)
    h = 1e-5
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        rho_h = random_pd(rng, dim, lo=0.05, hi=1.0)
        sigma = random_pd(rng, dim, lo=0.05, hi=1.0)
        sigma = HermitianMatrix(sigma.mat / np.trace(sigma.mat).real)
        delta = random_hermitian(rng, dim)
        delta = HermitianMatrix(delta.mat / np.linalg.norm(delta.mat))
        grad = frechet_log_adjoint(eig_hermitian(rho_h), sigma)
        lhs = (
            hs_inner(sigma, matrix_log(HermitianMatrix(rho_h.mat + h * delta.mat)))
            - hs_inner(sigma, matrix_log(rho_h))
        ) / h
        rhs = hs_inner(grad, delta)
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))


def test_frechet_near_degenerate_spectrum_is_finite():
    lam = np.array([0.3, 0.3 * (1 + 1e-13), 0.4])
    rho = eig_hermitian(from_diag(lam))
    rng = np.random.default_rng(29)
    sigma = random_hermitian(rng, 3)
    out = frechet_log_adjoint(rho, sigma)
    assert np.all(np.isfinite(out.mat.real)) and np.all(np.isfinite(out.mat.imag))


def test_frechet_self_adjointness():
    # the divided-difference map is its own adjoint in the HS inner product
    rng = np.random.default_rng(31)
    rho = eig_hermitian(random_pd(rng, 4, lo=0.1, hi=1.0))
    sigma = random_hermitian(rng, 4)
    delta = random_hermitian(rng, 4)
    lhs = hs_inner(frechet_log_adjoint(rho, sigma), delta)
    rhs = hs_inner(sigma, frechet_log_adjoint(rho, delta))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_frechet_rejects_nonpositive_base():
    rng = np.random.default_rng(37)
    sigma = random_hermitian(rng, 2)
    with pytest.raises(DomainError):
        frechet_log_adjoint(eig_hermitian(from_diag([1.0, 0.0])), sigma)


def test_hs_inner_examples():
    assert hs_inner(identity(5), identity(5)) == pytest.approx(5.0)
    assert hs_inner(HermitianMatrix(PAULI_X), HermitianMatrix(PAULI_Z)) == pytest.approx(0.0)
    rng = np.random.default_rng(41)
    a = random_hermitian(rng, 4)
    w = np.linalg.eigvalsh(a.mat)
    assert hs_inner(a, a) == pytest.approx(float(np.sum(w**2)))
    with pytest.raises(ShapeError):
        hs_inner(identity(2), identity(3))


def test_scalar_function_custom_domain():
    half_log = ScalarFunction("log-shifted", lambda x: np.log(x - 1.0), 1.0)
    out = matrix_function(from_diag([2.0, 3.0]), half_log)
    assert np.allclose(np.diag(out.mat).real, [0.0, np.log(2.0)])
    with pytest.raises(DomainError):
        matrix_function(from_diag([1.0, 2.0]), half_log)
