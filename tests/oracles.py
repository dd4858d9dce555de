"""Independent reference computations used only by the test suite.

Everything here is deliberately built from scratch (column-stacking
vectorization, closed forms, exact matrix exponentials) rather than reusing
the library's own operators, so agreement is a genuine cross-check.
"""

import numpy as np
from scipy.linalg import expm

G, X, B = 0, 1, 2


def ketbra3(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def ladder_hamiltonian(omega, delta_x, delta_b):
    h = np.zeros((3, 3), dtype=complex)
    h[G, X] = h[X, G] = omega / 2.0
    h[X, B] = h[B, X] = omega / 2.0
    h[X, X] = delta_x - delta_b
    h[B, B] = -2.0 * delta_b
    return h


def ladder_jumps(gamma_b, gamma_x, gamma_deph):
    """(operator, rate) pairs: cascade decay plus population dephasing."""
    jumps = [(ketbra3(X, B), gamma_b), (ketbra3(G, X), gamma_x)]
    a_bb = np.diag([0.0, -1.0, 1.0]).astype(complex)
    a_xx = np.diag([-1.0, 1.0, 0.0]).astype(complex)
    jumps += [(a_bb, gamma_deph), (a_xx, gamma_deph)]
    return jumps


def lindblad_superoperator(h, jumps):
    """Column-stacking superoperator of drho/dt = -i[h, rho] + dissipators."""
    n = h.shape[0]
    eye = np.eye(n)
    s = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for op, rate in jumps:
        anti = op.conj().T @ op
        s += rate * (np.kron(op.conj(), op)
                     - 0.5 * (np.kron(eye, anti) + np.kron(anti.T, eye)))
    return s


def apply_superoperator(s, rho):
    v = rho.reshape(-1, order="F")
    return (s @ v).reshape(rho.shape, order="F")


def propagate_expm(rho0, h, jumps, t):
    """Exact propagation at constant generator via the matrix exponential."""
    s = lindblad_superoperator(h, jumps)
    v = rho0.reshape(-1, order="F")
    return (expm(s * t) @ v).reshape(rho0.shape, order="F")


def cascade_populations(t, gamma_b, gamma_x):
    """Free biexciton cascade starting from rho = |b><b| (gamma_b != gamma_x)."""
    t = np.asarray(t, dtype=float)
    p_b = np.exp(-gamma_b * t)
    p_x = gamma_b / (gamma_b - gamma_x) * (np.exp(-gamma_x * t)
                                           - np.exp(-gamma_b * t))
    return p_b, p_x


def cascade_emission(t, gamma_b, gamma_x):
    """Closed-form emission integrals for the free cascade from |b><b|."""
    p_b_emit = 1.0 - np.exp(-gamma_b * t)
    int_x = gamma_b / (gamma_b - gamma_x) * (
        (1.0 - np.exp(-gamma_x * t)) / gamma_x
        - (1.0 - np.exp(-gamma_b * t)) / gamma_b)
    return gamma_x * int_x, p_b_emit


def random_density_matrix(rng, dim):
    """Haar-ish random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def fringe_visibility(rho, relative_phase, n=2 ** 16):
    """Contrast of <psi|rho|psi> sampled at n analysis phases alpha, with
    psi = (|e> + e^{i alpha}|l>) x (|e> + e^{i (alpha + relative_phase)}|l>)/2
    and the XX photon first."""
    alpha = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    xx = np.stack([np.ones(n), np.exp(1j * alpha)], axis=1)
    x = np.stack([np.ones(n), np.exp(1j * (alpha + relative_phase))], axis=1)
    psi = (xx[:, :, None] * x[:, None, :]).reshape(n, 4) / 2.0
    p = np.einsum("ni,ij,nj->n", psi.conj(), rho, psi).real
    return (p.max() - p.min()) / (p.max() + p.min())
