"""Dense complex linear algebra for small Hermitian problems.

Everything in the simulator lives in dimension 3 (quantum-dot ladder) or 4
(two photonic qubits).  Eigendecompositions go through LAPACK
(``np.linalg.eigh``) behind a wrapper that validates hermiticity and
returns eigenvalues in descending order.  The MLE in ``tomography`` skips
the wrapper: ``_project_states``, ``_newton`` and
``_Likelihood.certified`` call ``np.linalg.eigh`` and
``np.linalg.eigvalsh`` directly, on stacks that are Hermitian by
construction, and take LAPACK's ascending order.  Matrices are plain complex
ndarrays; density matrices carry their basis convention at the call site.

``eig_hermitian``, ``check_density_matrix``, ``sqrtm_psd``,
``sqrt_spectrum`` and ``state_fidelity`` take one (n, n) matrix or a
(..., n, n) stack of them, and work matrix by matrix: on a stack they
return one result per matrix, each the one its matrix gets alone up to
roundoff, and a check that fails names the index of the first matrix that
fails it.  On one matrix they return a Python float where a stack gets an
array.
"""

from __future__ import annotations

import numpy as np


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba.  Dimension mismatch propagates as ValueError."""
    return a @ b - b @ a


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)| over all entries."""
    return float(np.max(_defects(m)))


def _defects(m: np.ndarray) -> np.ndarray:
    """max |m_ij - conj(m_ji)| of each matrix of a stack."""
    return np.abs(m - dag(m)).max(axis=(-2, -1))


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


def _raise_at_first(ok: np.ndarray, message) -> None:
    """Raise ValueError unless every matrix passes: ``ok`` holds one flag per
    matrix (0-d for one matrix), and ``message(i)`` describes matrix i, the
    first that fails, where i is () for one matrix.  On a stack the message
    starts with the index."""
    if ok.all():
        return
    i = tuple(int(k) for k in np.unravel_index(np.argmin(ok), ok.shape))
    text = message(i)
    if i:
        text = f"matrix {i[0] if len(i) == 1 else i} of the stack: {text}"
    raise ValueError(text)


def per_matrix(value: np.ndarray, kind=float):
    """``value`` as a Python ``kind`` for one matrix, or the array of a
    stack."""
    return kind(value) if np.ndim(value) == 0 else value


def eig_hermitian(m: np.ndarray,
                  herm_tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or each matrix of a stack.

    Parameters
    ----------
    m : ndarray
        Square Hermitian matrix, or a (..., n, n) stack of them (each
        checked against ``herm_tol``).
    herm_tol : float
        Maximum tolerated hermiticity defect of the input.

    Returns
    -------
    (w, v) : eigenvalues sorted descending, unitary matrix whose columns are
        the corresponding eigenvectors; (..., n) and (..., n, n) for a
        stack.

    Raises
    ------
    ValueError
        If the input is not square, or not Hermitian; the message carries
        the defect size, and for a stack the index of the first matrix that
        is not Hermitian.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = _defects(m)
    _raise_at_first(defect <= herm_tol,  # NaN fails too
                    lambda i: f"matrix is not Hermitian: max |m - m^dag| = "
                              f"{defect[i]:.3e} exceeds tolerance "
                              f"{herm_tol:.1e}")
    # the exactly-Hermitian part, so roundoff in the input cannot leak in
    w, v = np.linalg.eigh(0.5 * (m + dag(m)))
    return w[..., ::-1], v[..., ::-1]


def min_eigenvalue(m: np.ndarray, herm_tol: float = 1e-8) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = eig_hermitian(m, herm_tol=herm_tol)
    return float(w[-1])


def check_density_matrix(rho: np.ndarray, dim: int | None = None,
                         trace_tol: float = 1e-9, herm_tol: float = 1e-9,
                         psd_tol: float = 1e-9) -> None:
    """Validate trace-1, hermiticity and positivity of a matrix, or of each
    matrix of a stack; raise with diagnostics, for a stack those of the
    first matrix that fails a check, and its index.

    ``psd_tol`` bounds how negative the smallest eigenvalue may be.
    """
    rho = np.asarray(rho)
    if dim is not None and (rho.ndim < 2 or rho.shape[-2:] != (dim, dim)):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
    tr_err = abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    defect = _defects(rho)
    # NaN fails both
    checked = (tr_err <= trace_tol) & (defect <= herm_tol)
    lam_min = np.zeros(checked.shape)
    if checked.any():
        lam_min[checked] = eig_hermitian(
            rho[checked], herm_tol=max(herm_tol, 1e-8))[0][:, -1]

    def message(i):
        if not tr_err[i] <= trace_tol:
            return f"trace deviates from 1 by {tr_err[i]:.3e}"
        if not defect[i] <= herm_tol:
            return (f"hermiticity defect {defect[i]:.3e} exceeds "
                    f"{herm_tol:.1e}")
        return f"negative eigenvalue {lam_min[i]:.3e} below -{psd_tol:.1e}"

    _raise_at_first(checked & (lam_min >= -psd_tol), message)


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero negative and near-noise eigenvalues so sqrt cannot amplify them;
    the floor is set per matrix, by the largest |eigenvalue| of its row of
    ``w``."""
    floor = 1e-14 * np.maximum(1e-300, np.abs(w).max(axis=-1, keepdims=True))
    return np.where(w > floor, w, 0.0)


def sqrtm_psd(m: np.ndarray, herm_tol: float = 1e-8) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a stack
    (tiny negative modes clipped)."""
    w, v = eig_hermitian(m, herm_tol=herm_tol)
    return (v * np.sqrt(_clip_spectrum(w))[..., None, :]) @ dag(v)


def sqrt_spectrum(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho),
    descending, with negative and near-noise ones clipped to 0; stacks of
    ``rho`` and ``sigma`` broadcast against each other, with one row of
    values per pair."""
    s = sqrtm_psd(rho)
    inner = s @ sigma @ s
    w, _ = eig_hermitian(0.5 * (inner + dag(inner)), herm_tol=1e-6)
    return np.sqrt(_clip_spectrum(w))


def state_fidelity(rho: np.ndarray, sigma: np.ndarray):
    """Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2:
    a float for two matrices, an array for stacks, which broadcast against
    each other."""
    return per_matrix(np.sum(sqrt_spectrum(rho, sigma), axis=-1) ** 2)
