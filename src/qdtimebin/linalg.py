"""Dense complex linear algebra for small Hermitian problems.

Everything in the simulator lives in dimension 3 (quantum-dot ladder) or 4
(two photonic qubits).  Eigendecompositions go through LAPACK
(``np.linalg.eigh``) behind a wrapper that validates hermiticity and
returns eigenvalues in descending order.  Matrices are plain complex
ndarrays; density matrices carry their basis convention at the call site.
"""

from __future__ import annotations

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba.  Dimension mismatch propagates as ValueError."""
    return a @ b - b @ a


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| over all entries."""
    return float(np.abs(m - dag(m)).max())


def hermitian_basis(n: int) -> np.ndarray:
    """The n^2 Hermitian n x n matrices |i><i|, then for each i < j
    |i><j| + |j><i| and i(|j><i| - |i><j|), shape (n^2, n, n).

    They are orthogonal under tr(AB), with tr(A^2) = 1 on the diagonal
    ones and 2 on the others; every Hermitian matrix is a real
    combination of them.
    """
    basis = np.zeros((n * n, n, n), dtype=complex)
    basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            basis[k, i, j] = basis[k, j, i] = 1.0
            basis[k + 1, i, j], basis[k + 1, j, i] = -1j, 1j
            k += 2
    return basis


def eig_hermitian(m: np.ndarray,
                  herm_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    m : ndarray
        Square Hermitian matrix (checked against ``herm_tol``).
    herm_tol : float
        Maximum tolerated hermiticity defect of the input.

    Returns
    -------
    (w, v) : eigenvalues sorted descending, unitary matrix whose columns are
        the corresponding eigenvectors.

    Raises
    ------
    ValueError
        If the input is not square, or not Hermitian; the message carries
        the defect size.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > herm_tol:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dag| = {defect:.3e} "
            f"exceeds tolerance {herm_tol:.1e}")
    # the exactly-Hermitian part, so roundoff in the input cannot leak in
    w, v = np.linalg.eigh(0.5 * (m + dag(m)))
    return w[::-1], v[:, ::-1]


def min_eigenvalue(m: np.ndarray, herm_tol: float = 1e-8) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = eig_hermitian(m, herm_tol=herm_tol)
    return float(w[-1])


def check_density_matrix(rho: np.ndarray, dim: int | None = None,
                         trace_tol: float = 1e-9, herm_tol: float = 1e-9,
                         psd_tol: float = 1e-9) -> None:
    """Validate trace-1, hermiticity and positivity; raise with diagnostics.

    ``psd_tol`` bounds how negative the smallest eigenvalue may be.
    """
    rho = np.asarray(rho)
    if dim is not None and rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    tr_err = abs(np.trace(rho) - 1.0)
    if tr_err > trace_tol:
        raise ValueError(f"trace deviates from 1 by {tr_err:.3e}")
    defect = hermiticity_defect(rho)
    if defect > herm_tol:
        raise ValueError(f"hermiticity defect {defect:.3e} exceeds {herm_tol:.1e}")
    lam_min = min_eigenvalue(rho, herm_tol=max(herm_tol, 1e-8))
    if lam_min < -psd_tol:
        raise ValueError(f"negative eigenvalue {lam_min:.3e} below -{psd_tol:.1e}")


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero negative and near-noise eigenvalues so sqrt cannot amplify them."""
    floor = 1e-14 * max(1e-300, float(np.abs(w).max()))
    return np.where(w > floor, w, 0.0)


def sqrtm_psd(m: np.ndarray, herm_tol: float = 1e-8) -> np.ndarray:
    """Hermitian square root of a PSD matrix (tiny negative modes clipped)."""
    w, v = eig_hermitian(m, herm_tol=herm_tol)
    return (v * np.sqrt(_clip_spectrum(w))) @ dag(v)


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    s = sqrtm_psd(rho)
    inner = s @ sigma @ s
    w, _ = eig_hermitian(0.5 * (inner + dag(inner)), herm_tol=1e-6)
    return float(np.sum(np.sqrt(_clip_spectrum(w))) ** 2)
