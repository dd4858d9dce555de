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
    sqrt_spectrum,
    sqrtm_psd,
    state_fidelity,
)

from qdtimebin.timebin import concurrence

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
    with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got \(3, 3\)"):
        check_density_matrix(np.eye(3) / 3.0, dim=4)
    with pytest.raises(ValueError, match=r"expected a 4x4 matrix, got \(4,\)"):
        check_density_matrix(np.full(4, 0.25), dim=4)
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.diag([0.7, 0.5, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="hermiticity"):
        bad = np.diag([0.5, 0.5, 0.0]).astype(complex)
        bad[0, 1] = 0.1
        check_density_matrix(bad)
    with pytest.raises(ValueError, match="eigenvalue"):
        check_density_matrix(np.diag([1.1, 0.2, -0.3]).astype(complex))


def test_nan_entry_is_a_value_error():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    for i, j in ((0, 1), (2, 2)):
        bad = rho.copy()
        bad[i, j] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(bad)
        with pytest.raises(ValueError, match="(trace|hermiticity)"):
            check_density_matrix(bad)
        with pytest.raises(ValueError):
            state_fidelity(bad, rho)
        with pytest.raises(ValueError):
            state_fidelity(rho, bad)
        with pytest.raises(ValueError):
            concurrence(bad)


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


def random_stack(seed, n=6, dim=4):
    rng = np.random.default_rng(seed)
    return np.array([random_density_matrix(rng, dim) for _ in range(n)])


def test_stacked_calls_match_one_matrix_calls():
    rhos = random_stack(21)
    sigma = random_stack(22, n=1)[0]
    w, v = eig_hermitian(rhos)
    roots, spectra = sqrtm_psd(rhos), sqrt_spectrum(rhos, sigma)
    fidelities = state_fidelity(rhos, sigma)
    check_density_matrix(rhos, dim=4)
    for i, rho in enumerate(rhos):
        w1, v1 = eig_hermitian(rho)
        assert np.abs(w[i] - w1).max() <= 1e-13
        assert np.abs(v[i] - v1).max() <= 1e-13
        assert np.abs(roots[i] - sqrtm_psd(rho)).max() <= 1e-13
        assert np.abs(spectra[i] - sqrt_spectrum(rho, sigma)).max() <= 1e-13
        one = state_fidelity(rho, sigma)
        assert isinstance(one, float)
        assert abs(fidelities[i] - one) <= 1e-13
    # stacks broadcast against each other and keep their leading shape
    pairs = state_fidelity(rhos.reshape(2, 3, 4, 4), rhos[:3])
    assert pairs.shape == (2, 3)
    assert abs(pairs[1, 2] - state_fidelity(rhos[5], rhos[2])) <= 1e-13


def _unphysical(kind):
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    if kind == "trace":
        rho[0, 0] = 0.7
    elif kind == "hermiticity":
        rho[0, 1] = 0.1
    elif kind == "eigenvalue":
        rho = np.diag([0.6, 0.3, 0.3, -0.2]).astype(complex)
    else:
        rho[1, 2] = np.nan
    return rho


@pytest.mark.parametrize("kind", ["trace", "hermiticity", "eigenvalue", "nan"])
def test_stacked_check_names_the_first_bad_matrix(kind):
    # matrix 3 fails the check; matrix 4 fails another, and is not named
    rhos = random_stack(23)
    rhos[3] = _unphysical(kind)
    rhos[4] = _unphysical("trace" if kind != "trace" else "eigenvalue")
    with pytest.raises(ValueError) as alone:
        check_density_matrix(rhos[3])
    with pytest.raises(ValueError) as stacked:
        check_density_matrix(rhos)
    assert str(stacked.value) == f"matrix 3 of the stack: {alone.value}"
    if kind in ("hermiticity", "nan"):
        with pytest.raises(ValueError, match="^matrix 3 of the stack: "
                                             "matrix is not Hermitian"):
            eig_hermitian(rhos)
    with pytest.raises(ValueError, match="^matrix 3 of the stack"):
        concurrence(rhos)
