import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtimebin.linalg import (
    check_density_matrix,
    commutator,
    dag,
    eig_hermitian,
    hermitian_basis,
    hermiticity_defect,
    min_eigenvalue,
    sqrtm_psd,
    state_fidelity,
)

from oracles import random_density_matrix, random_pure_state


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


@pytest.mark.parametrize("n", [3, 4])
def test_hermitian_basis(n):
    basis = hermitian_basis(n)
    assert basis.shape == (n * n, n, n)
    assert max(hermiticity_defect(b) for b in basis) == 0.0
    gram = np.einsum("kij,lji->kl", basis, basis)
    assert np.abs(gram - np.diag(np.diag(gram))).max() == 0.0
    m = random_hermitian(np.random.default_rng(n), n)
    coeff = np.einsum("kij,ji->k", basis, m) / np.diag(gram)
    assert np.abs(coeff.imag).max() < 1e-15
    assert np.abs(np.einsum("k,kij->ij", coeff.real, basis) - m).max() < 1e-14


def test_identity_eigenvalues():
    w, v = eig_hermitian(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ dag(v), np.eye(2))


def test_diagonal_sorted_descending():
    w, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [3.0, 2.0, 1.0])


def test_pauli_x_spectrum():
    # characteristic polynomial lambda^2 - 1 = 0 by hand
    w, v = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(w, [1.0, -1.0], atol=1e-12)
    m = (v * w) @ dag(v)
    assert np.abs(m - np.array([[0, 1], [1, 0]])).max() < 1e-12


def test_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="1.0"):
        eig_hermitian(m)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        eig_hermitian(np.zeros((2, 3), dtype=complex))


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_eig_reconstruction_and_orthonormality(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_hermitian(rng, dim)
    w, v = eig_hermitian(m)
    assert np.abs((v * w) @ dag(v) - m).max() < 1e-8
    assert np.abs(dag(v) @ v - np.eye(dim)).max() < 1e-9
    assert np.all(np.diff(w) <= 1e-12)
    # cross-check the spectrum against LAPACK
    ref = np.linalg.eigvalsh(m)[::-1]
    assert np.abs(w - ref).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_trace_cyclic(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-10


def test_matrix_op_identities():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(commutator(a, a), 0.0)
    assert np.allclose(dag(dag(a)), a)
    assert np.trace(np.eye(3)) == 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_check_density_matrix_diagnostics():
    check_density_matrix(np.diag([0.5, 0.5, 0.0]).astype(complex), dim=3)
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.diag([0.7, 0.5, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="hermiticity"):
        bad = np.diag([0.5, 0.5, 0.0]).astype(complex)
        bad[0, 1] = 0.1
        check_density_matrix(bad)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(np.diag([1.1, 0.2, -0.3]).astype(complex))


def test_min_eigenvalue():
    assert min_eigenvalue(np.diag([0.3, -0.1, 0.8]).astype(complex)) == \
        pytest.approx(-0.1, abs=1e-12)


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, 4)
    s = sqrtm_psd(rho)
    assert np.abs(s @ s - rho).max() < 1e-10


def test_state_fidelity_pure_states():
    rng = np.random.default_rng(11)
    a = random_pure_state(rng, 4)
    b = random_pure_state(rng, 4)
    fa = np.outer(a, a.conj())
    fb = np.outer(b, b.conj())
    assert state_fidelity(fa, fa) == pytest.approx(1.0, abs=1e-9)
    assert state_fidelity(fa, fb) == pytest.approx(abs(np.vdot(a, b)) ** 2,
                                                   abs=1e-9)
