"""Driven three-level ladder dynamics of the quantum-dot biexciton cascade.

Basis ordering is fixed as (|g>, |x>, |b>) = (ground, exciton, biexciton).
With hbar = 1, times are in ps and rates/energies in 1/ps.  A Gaussian
two-photon drive couples g-x and x-b with equal instantaneous amplitude;
spontaneous decay runs down the cascade b -> x -> g, and pure dephasing
acts on the level populations with a rate that may grow with the
instantaneous drive intensity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .linalg import commutator, dag, hermiticity_defect
from .ode import IntegrationError, integrate_adaptive

G, X, B = 0, 1, 2

LN2 = math.log(2.0)


@dataclass(frozen=True)
class PulseDrive:
    """Gaussian drive: amplitude(t) = omega0 * exp(-ln2 (t - t0)^2 / sigma^2).

    ``delta_x`` is the energy offset of the virtual two-photon level from
    the exciton; ``delta_b`` the detuning of the laser from the two-photon
    resonance.  Defaults put the laser exactly on two-photon resonance with
    a finite virtual-level offset.
    """

    omega0: float
    sigma: float
    t0: float = 0.0
    delta_x: float = 0.5
    delta_b: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")

    def amplitude(self, t):
        return self.omega0 * np.exp(-LN2 * (np.asarray(t) - self.t0) ** 2
                                    / self.sigma ** 2)


@dataclass(frozen=True)
class ConstantDrive:
    """Time-independent drive, mainly for oracle comparisons."""

    omega0: float
    delta_x: float = 0.5
    delta_b: float = 0.0

    def amplitude(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.omega0)


@dataclass(frozen=True)
class DecayRates:
    """Radiative rates of the cascade: b -> x at gamma_b, x -> g at gamma_x."""

    gamma_b: float = 0.002
    gamma_x: float = 0.001

    def __post_init__(self):
        if self.gamma_b < 0 or self.gamma_x < 0:
            raise ValueError("decay rates must be >= 0")


@dataclass(frozen=True)
class DephasingModel:
    """Pure dephasing rate gamma_bg + gamma_i0 * amplitude^n_p.

    n_p = 0 folds the intensity term into a constant, so the pure-background
    model is the special case (gamma_bg + gamma_i0, n_p arbitrary at zero
    drive).
    """

    gamma_bg: float = 0.0
    gamma_i0: float = 0.0
    n_p: int = 2

    def __post_init__(self):
        if self.gamma_bg < 0 or self.gamma_i0 < 0:
            raise ValueError("dephasing rates must be >= 0")
        if self.n_p < 0 or int(self.n_p) != self.n_p:
            raise ValueError(f"n_p must be a non-negative integer, got {self.n_p}")

    def rate(self, omega_t):
        return self.gamma_bg + self.gamma_i0 * np.asarray(omega_t) ** self.n_p


def pulse_area(drive: PulseDrive) -> float:
    """Integral of the drive amplitude over all time."""
    return drive.omega0 * drive.sigma * math.sqrt(math.pi / LN2)


def omega0_for_area(area: float, sigma: float) -> float:
    """Peak amplitude giving the requested pulse area at width sigma."""
    return area / (sigma * math.sqrt(math.pi / LN2))


def pulse_energy(drive: PulseDrive) -> float:
    """omega0^2 * sigma, proportional to the optical energy per pulse."""
    return drive.omega0 ** 2 * drive.sigma


# --- operators ------------------------------------------------------------

def hamiltonian(omega_t: float, drive) -> np.ndarray:
    """Instantaneous ladder Hamiltonian for drive amplitude ``omega_t``.

    H = omega_t/2 (|g><x| + |x><b| + h.c.)
        + (delta_x - delta_b)|x><x| - 2 delta_b |b><b|
    """
    if omega_t < 0:
        raise ValueError(f"omega_t must be >= 0, got {omega_t}")
    h = np.zeros((3, 3), dtype=complex)
    h[G, X] = h[X, G] = 0.5 * omega_t
    h[X, B] = h[B, X] = 0.5 * omega_t
    h[X, X] = drive.delta_x - drive.delta_b
    h[B, B] = -2.0 * drive.delta_b
    return h


def _ketbra(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m

# Jump operators of the cascade and the Hermitian dephasing operators.
L_BX = _ketbra(X, B)           # biexciton decay channel, rate gamma_b
L_XG = _ketbra(G, X)           # exciton decay channel, rate gamma_x
A_BB = np.diag([0.0, -1.0, 1.0]).astype(complex)
A_XX = np.diag([-1.0, 1.0, 0.0]).astype(complex)


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    opd = dag(op)
    anti = opd @ op
    return op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)


def lindblad_rhs(rho: np.ndarray, t: float, drive, decay: DecayRates,
                 deph: DephasingModel) -> np.ndarray:
    """d(rho)/dt = i[rho, H(t)] + decay and dephasing dissipators."""
    omega_t = float(drive.amplitude(t))
    h = hamiltonian(omega_t, drive)
    out = 1j * commutator(rho, h)
    out += decay.gamma_b * _dissipator(L_BX, rho)
    out += decay.gamma_x * _dissipator(L_XG, rho)
    g_deph = float(deph.rate(omega_t))
    if g_deph != 0.0:
        out += g_deph * (_dissipator(A_BB, rho) + _dissipator(A_XX, rho))
    return out


# --- vectorized generator for integration ----------------------------------

def _kron_left(a):  # vec(a @ rho), row-major vec
    return np.kron(a, np.eye(3))


def _kron_right(a):  # vec(rho @ a)
    return np.kron(np.eye(3), a.T)


def _kron_both(a, b):  # vec(a @ rho @ b)
    return np.kron(a, b.T)


def _dissipator_matrix(op: np.ndarray) -> np.ndarray:
    anti = dag(op) @ op
    return (_kron_both(op, dag(op))
            - 0.5 * (_kron_left(anti) + _kron_right(anti)))


def _commutator_matrix(h: np.ndarray) -> np.ndarray:
    # vec(i[rho, h]) = -i (h x I - I x h^T) vec(rho)
    return -1j * (_kron_left(h) - _kron_right(h))


def liouvillian_pieces(drive, decay: DecayRates, deph: DephasingModel):
    """Split the generator as m0 + amplitude(t)*m_drive + deph.rate(t)*m_deph.

    All three are complex 9x9 matrices acting on the row-major vec of rho.
    The amplitude enters the Hamiltonian linearly, and the two dephasing
    dissipators share one time-dependent rate, so this decomposition is
    exact for any drive envelope.
    """
    h_static = hamiltonian(0.0, drive)
    h_coupling = (_ketbra(G, X) + _ketbra(X, G)
                  + _ketbra(X, B) + _ketbra(B, X)) * 0.5
    m0 = _commutator_matrix(h_static)
    m0 += decay.gamma_b * _dissipator_matrix(L_BX)
    m0 += decay.gamma_x * _dissipator_matrix(L_XG)
    m_drive = _commutator_matrix(h_coupling)
    m_deph = _dissipator_matrix(A_BB) + _dissipator_matrix(A_XX)
    return m0, m_drive, m_deph


def liouvillian(omega: float, drive, decay: DecayRates,
                deph: DephasingModel) -> np.ndarray:
    """Full 9x9 generator at fixed drive amplitude ``omega``."""
    m0, m_drive, m_deph = liouvillian_pieces(drive, decay, deph)
    return m0 + omega * m_drive + float(deph.rate(omega)) * m_deph


def _to_real(m: np.ndarray) -> np.ndarray:
    """Real 18x18 image of a complex 9x9 operator on [Re(v); Im(v)]."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _rho_to_vec(rho: np.ndarray) -> np.ndarray:
    v = np.asarray(rho, dtype=complex).ravel()
    return np.concatenate([v.real, v.imag])


def _vec_to_rho(y: np.ndarray) -> np.ndarray:
    return (y[:9] + 1j * y[9:]).reshape(3, 3)


# --- evolution --------------------------------------------------------------

@dataclass
class Trajectory:
    """Stored master-equation solution on the accepted-step grid."""

    times: np.ndarray                  # strictly increasing, shape (n,)
    states: np.ndarray                 # shape (n, 3, 3) complex
    populations: np.ndarray = field(init=False)   # diag(rho) real, (n, 3)
    gb_coherence: np.ndarray = field(init=False)  # <g|rho|b>, (n,)

    def __post_init__(self):
        self.populations = np.real(self.states[:, (G, X, B), (G, X, B)])
        self.gb_coherence = self.states[:, G, B].copy()

    def state_at(self, t: float) -> np.ndarray:
        """Linear interpolation of rho between stored grid points."""
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t = {t} outside stored range [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t, side="right") - 1)
        if i >= len(ts) - 1:
            return self.states[-1].copy()
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1 - w) * self.states[i] + w * self.states[i + 1]


def pulse_window(drive: PulseDrive) -> tuple[float, float]:
    """(t0 - 5 sigma, t0 + 5 sigma): outside it the drive is below 3e-8 of
    its peak, so the generator is constant and the populations decay freely.
    """
    return (drive.t0 - 5 * drive.sigma, drive.t0 + 5 * drive.sigma)


def default_t_span(drive: PulseDrive, decay: DecayRates) -> tuple[float, float]:
    """The pulse window extended by 10 exciton lifetimes (10 / gamma_x).

    For trajectories that follow the radiative decay after the pulse, such
    as the ``evolve`` CSV; emission yields need no such span, since
    ``sweeps.emission_after_pulse`` adds the post-pulse emission exactly.
    A vanishing gamma_x has no finite tail, so callers must then pass an
    explicit span.
    """
    if decay.gamma_x <= 0:
        raise ValueError("default span needs gamma_x > 0; pass t_span explicitly")
    start, end = pulse_window(drive)
    return start, end + 10.0 / decay.gamma_x


def evolve(rho0: np.ndarray, drive, decay: DecayRates, deph: DephasingModel,
           t_span: tuple[float, float] | None = None, tol: float = 1e-9,
           max_step: float | None = None) -> Trajectory:
    """Integrate the master equation from ``rho0`` over ``t_span``.

    The density matrix is embedded as 18 real components and stepped with
    the adaptive embedded pair; the drive amplitude and dephasing rate are
    evaluated at the internal stage times.  No renormalization is applied
    to the stored states, so trace drift is visible to the tests.  Trace or
    hermiticity drift beyond 100*tol aborts with IntegrationError.
    """
    if t_span is None:
        t_span = default_t_span(drive, decay)
    t0, t1 = float(t_span[0]), float(t_span[1])
    span = t1 - t0
    if max_step is None:
        max_step = span / 400.0
        sigma = getattr(drive, "sigma", None)
        if sigma is not None:
            max_step = min(max_step, 2.0 * sigma)

    m0, m_drive, m_deph = liouvillian_pieces(drive, decay, deph)
    r0 = _to_real(m0)
    rd = _to_real(m_drive)
    rp = _to_real(m_deph)
    pure_background = deph.gamma_i0 == 0.0

    def rhs(t, y):
        omega_t = float(drive.amplitude(t))
        out = r0 @ y
        if omega_t != 0.0:
            out += omega_t * (rd @ y)
        g = deph.gamma_bg if pure_background else float(deph.rate(omega_t))
        if g != 0.0:
            out += g * (rp @ y)
        return out

    drift_cap = 100.0 * tol

    def check(t, y):
        rho = _vec_to_rho(y)
        tr_err = abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag)
        if tr_err > drift_cap:
            raise IntegrationError(
                f"trace drift {tr_err:.3e} exceeds {drift_cap:.1e} at t = {t:.6g}", t)
        defect = hermiticity_defect(rho)
        if defect > drift_cap:
            raise IntegrationError(
                f"hermiticity drift {defect:.3e} exceeds {drift_cap:.1e} "
                f"at t = {t:.6g}", t)

    times, ys = integrate_adaptive(rhs, (t0, t1), _rho_to_vec(rho0), tol,
                                   max_step, step_callback=check)
    states = (ys[:, :9] + 1j * ys[:, 9:]).reshape(-1, 3, 3)
    return Trajectory(times=times, states=states)


# --- emission probabilities -------------------------------------------------

def emission_probabilities(traj: Trajectory, decay: DecayRates,
                           t_f: float) -> tuple[float, float]:
    """Emitted-photon probabilities up to t_f.

    P_i(t_f) = gamma_i * integral of the level-i population from the start
    of the trajectory to t_f, taken exactly on the cubic spline through the
    stored populations.  Exciton emission includes the cascade fed by
    biexciton decay, so P_x >= P_b in the absence of re-excitation.
    """
    ts = traj.times
    if not ts[0] <= t_f <= ts[-1]:
        raise ValueError(f"t_f = {t_f} outside trajectory range [{ts[0]}, {ts[-1]}]")
    int_x, int_b = CubicSpline(ts, traj.populations[:, (X, B)]).integrate(
        ts[0], t_f)
    return float(decay.gamma_x * int_x), float(decay.gamma_b * int_b)


def cumulative_emission(traj: Trajectory, decay: DecayRates) -> tuple[np.ndarray, np.ndarray]:
    """Running trapezoid emission integrals on the stored grid (plot grade)."""
    dt = np.diff(traj.times)
    px = np.concatenate([[0.0], np.cumsum(
        0.5 * dt * (traj.populations[1:, X] + traj.populations[:-1, X]))])
    pb = np.concatenate([[0.0], np.cumsum(
        0.5 * dt * (traj.populations[1:, B] + traj.populations[:-1, B]))])
    return decay.gamma_x * px, decay.gamma_b * pb


def export_trajectory_csv(traj: Trajectory, decay: DecayRates, path,
                          params: dict | None = None) -> None:
    """Write the trajectory as CSV with the resolved parameters in the header."""
    px, pb = cumulative_emission(traj, decay)
    with open(path, "w", encoding="utf-8") as fh:
        if params is not None:
            fh.write("# " + json.dumps(params, sort_keys=True) + "\n")
        fh.write("t,rho_gg,rho_xx,rho_bb,re_gb,im_gb,p_x,p_b\n")
        for i, t in enumerate(traj.times):
            pop = traj.populations[i]
            c = traj.gb_coherence[i]
            fh.write(f"{t:.12e},{pop[G]:.12e},{pop[X]:.12e},{pop[B]:.12e},"
                     f"{c.real:.12e},{c.imag:.12e},{px[i]:.12e},{pb[i]:.12e}\n")
