"""Time-bin entangled two-photon states and their entanglement metrics.

The two qubits are the biexciton (XX) and exciton (X) photons, each living
in the {|early>, |late>} basis; the joint basis order is fixed as
(|ee>, |el>, |le>, |ll>) with the XX qubit first.  The noise model has two
ingredients: a white accidental background from double excitations of the
emitter, and a contrast factor on the ee-ll coherence from phase noise of
the excitation process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import B, G, Trajectory
from .linalg import (
    _clip_spectrum,
    check_density_matrix,
    dag,
    eig_hermitian,
    sqrtm_psd,
)

EE, EL, LE, LL = 0, 1, 2, 3

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Number of late bins in each joint basis state, and the X photon's late bit.
_N_LATE = np.array([0, 1, 1, 2])
_X_LATE = np.array([0, 1, 0, 1])
_HARMONICS = np.arange(-2, 3)


@dataclass(frozen=True)
class TimeBinModelParams:
    """Noise model inputs.

    epsilon: per-pulse excitation probability; double excitations occur at
    epsilon^2 and feed an accidental background.  v_coh: contrast of the
    ee-ll coherence inherited from the excitation process.  pairing_weight:
    how many accidental coincidence combinations one double event offers to
    post-selection, relative to a single event's one.
    """

    phi_p: float = 0.0
    epsilon: float = 0.0
    v_coh: float = 1.0
    pairing_weight: float = 4.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 <= self.v_coh <= 1.0:
            raise ValueError(f"v_coh must be in [0, 1], got {self.v_coh}")
        if self.pairing_weight <= 0:
            raise ValueError("pairing_weight must be positive")

    def accidental_fraction(self) -> float:
        """Weight of the white background among post-selected coincidences."""
        eps, w = self.epsilon, self.pairing_weight
        if eps == 0.0:
            return 0.0
        return w * eps ** 2 / (2 * eps * (1 - eps) + w * eps ** 2)


def ideal_state(phi_p: float) -> np.ndarray:
    """Density matrix of (|ee> + e^{i phi_p} |ll>) / sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[EE] = 1.0 / np.sqrt(2.0)
    psi[LL] = np.exp(1j * phi_p) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def model_state(params: TimeBinModelParams) -> np.ndarray:
    """Ideal state with damped ee-ll coherence plus accidental background."""
    rho = ideal_state(params.phi_p)
    rho[EE, LL] *= params.v_coh
    rho[LL, EE] *= params.v_coh
    q = params.accidental_fraction()
    return (1.0 - q) * rho + q * np.eye(4) / 4.0


def excitation_coherence(traj: Trajectory, pulse_end: float) -> float:
    """Ground-biexciton coherence contrast at the end of the pulse.

    |<g|rho|b>| / sqrt(rho_gg * rho_bb), clamped to [0, 1]; this is the
    v_coh factor the excitation dynamics imprint on the entangled state.
    """
    rho = traj.state_at(pulse_end)
    p_g = rho[G, G].real
    p_b = rho[B, B].real
    if p_g <= 1e-9 or p_b <= 1e-9:
        raise ValueError(
            f"coherence contrast undefined: populations (rho_gg={p_g:.3e}, "
            f"rho_bb={p_b:.3e}) too small at t = {pulse_end}")
    return float(min(1.0, abs(rho[G, B]) / np.sqrt(p_g * p_b)))


def _fringe(rho: np.ndarray, relative_phase: float) -> float:
    """Visibility of the joint fringe when both analysis phases scan together
    at a fixed offset ``relative_phase`` between the two qubits.

    The joint projection probability is P(alpha) = sum_n c_n e^{i n alpha}
    for n = -2..2, where rho[r, s] enters c_n with n the change in late
    bins from r to s.  The extrema of P lie at the angles of the roots of
    sum_n n c_n z^(n+2); alpha = 0 covers a constant P, where that
    polynomial vanishes.
    """
    order = _N_LATE[None, :] - _N_LATE[:, None]
    terms = 0.25 * rho * np.exp(
        1j * relative_phase * (_X_LATE[None, :] - _X_LATE[:, None]))
    c = np.array([terms[order == n].sum() for n in _HARMONICS])
    alphas = np.append(0.0, np.angle(np.roots((_HARMONICS * c)[::-1])))
    probs = (np.exp(1j * np.outer(alphas, _HARMONICS)) @ c).real
    hi, lo = float(probs.max()), float(probs.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def visibilities(rho: np.ndarray) -> tuple[float, float, float]:
    """(time-basis correlation, energy-basis fringe visibilities at 0, pi/2).

    The time-basis value is P_ee + P_ll - P_el - P_le; the energy-basis
    values are coincidence fringe contrasts when both analysis qubits are
    projected onto superposition states with a common scanned phase.
    """
    d = np.real(np.diag(rho))
    v_time = float(d[EE] + d[LL] - d[EL] - d[LE])
    return v_time, _fringe(rho, 0.0), _fringe(rho, np.pi / 2.0)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a physical two-qubit state."""
    check_density_matrix(rho, dim=4, trace_tol=1e-8, herm_tol=1e-8,
                         psd_tol=1e-8)
    rho_tilde = _YY @ rho.conj() @ _YY
    root = sqrtm_psd(rho)
    m = root @ rho_tilde @ root
    w, _ = eig_hermitian(0.5 * (m + dag(m)), herm_tol=1e-6)
    lam = np.sqrt(_clip_spectrum(w))  # clip keeps sqrt from amplifying noise
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def fidelity_bell(rho: np.ndarray) -> tuple[float, float]:
    """Best overlap with (|ee> + e^{i phi} |ll>)/sqrt(2) over phi.

    Returns (fidelity, optimal phi); closed form
    f = (rho_ee,ee + rho_ll,ll)/2 + |rho_ee,ll|.
    """
    f = 0.5 * (rho[EE, EE].real + rho[LL, LL].real) + abs(rho[EE, LL])
    phi_opt = float(-np.angle(rho[EE, LL])) if rho[EE, LL] != 0 else 0.0
    return float(f), phi_opt


def coherence_metric(rho: np.ndarray) -> tuple[complex, int, int]:
    """Off-diagonal element of largest magnitude, with its indices."""
    mags = np.abs(rho).copy()
    np.fill_diagonal(mags, -1.0)  # never select a diagonal entry
    i, j = np.unravel_index(np.argmax(mags), mags.shape)
    return complex(rho[i, j]), int(i), int(j)


# --- density matrix CSV ------------------------------------------------------

def export_density_csv(rho: np.ndarray, path) -> None:
    """Write a 4x4 density matrix as a real block over an imaginary block."""
    rho = np.asarray(rho)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# 4x4 real part, then 4x4 imaginary part\n")
        for block in (rho.real, rho.imag):
            for row in block:
                fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


def import_density_csv(path) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(v) for v in line.split(",")])
    if len(rows) != 8 or any(len(r) != 4 for r in rows):
        raise ValueError("expected 8 rows of 4 values (real block, imag block)")
    arr = np.asarray(rows)
    return arr[:4] + 1j * arr[4:]
