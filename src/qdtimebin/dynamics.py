"""Driven three-level ladder dynamics of the quantum-dot biexciton cascade.

Basis ordering is fixed as (|g>, |x>, |b>) = (ground, exciton, biexciton).
With hbar = 1, times are in ps and rates/energies in 1/ps.  A Gaussian
two-photon drive couples g-x and x-b with equal instantaneous amplitude;
spontaneous decay runs down the cascade b -> x -> g, and pure dephasing
acts on the level populations with a rate that may grow with the
instantaneous drive intensity.

The master equation is written once, in ``lindblad_rhs``, as a constant
part, a part per unit drive amplitude and a part per unit dephasing rate
(``_lindblad_parts``); the integrator's real generator is those parts
applied to a Hermitian basis.  The state is the 9 real coordinates of
rho on ``linalg.hermitian_basis(3)`` (rho_gg, rho_xx, rho_bb first), then
the integrals of rho_xx and rho_bb, so rho stays Hermitian by
construction; no other module indexes it.

A batch is one ``PulseDrive`` whose ``omega0`` is an array of N peak
amplitudes.  One RK45 loop (``_rk45_steps``) steps it as one (11, N)
system: ``emission_after_pulse`` over the pulse window of a batch, adding
the emission after the pulse in closed form, and ``evolve`` for one drive,
storing every accepted step and propagating the drive-off stretches
outside the window exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import RK45
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import expm

from .linalg import commutator, dag, hermitian_basis, hermiticity_defect

G, X, B = 0, 1, 2

LN2 = math.log(2.0)

# Smallest integration tolerance: RK45 raises any rtol below it to it.
TOL_FLOOR = 100 * np.finfo(float).eps

# Components of the integrated state: the coordinates of rho on _BASIS,
# whose first three elements are |g><g|, |x><x| and |b><b|, then the
# integrals of rho_xx and rho_bb.
_BASIS = hermitian_basis(3)
_N_STATE = 11
# Coordinates of a Hermitian m: tr(dual_k m), with dual_k = B_k / tr(B_k^2).
_DUAL = _BASIS / np.einsum("kij,kji->k", _BASIS, _BASIS).real[:, None, None]

# Accepted RK45 steps one run of ``_rk45_steps`` may take.  A pulse window
# takes 400-615; a window made stiff by intensity dephasing (sigma 1e-6
# with gamma_i0 * omega0^2 ~ 3e12 /ps) would take millions.
_MAX_RK45_STEPS = 100_000


class IntegrationError(RuntimeError):
    """Integrator failure or invariant drift; carries the failure time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class StepBudgetError(IntegrationError):
    """``_rk45_steps`` took ``_MAX_RK45_STEPS`` steps before its span ended."""


@dataclass(frozen=True)
class PulseDrive:
    """Gaussian drive: amplitude(t) = omega0 * exp(-ln2 (t - t0)^2 / sigma^2).

    ``delta_x`` is the energy offset of the virtual two-photon level from
    the exciton; ``delta_b`` the detuning of the laser from the two-photon
    resonance.  Defaults put the laser exactly on two-photon resonance with
    a finite virtual-level offset.  An array ``omega0`` is a batch: one
    drive per peak amplitude, all of this pulse shape.
    """

    omega0: float | np.ndarray
    sigma: float
    t0: float = 0.0
    delta_x: float = 0.5
    delta_b: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if np.any(np.asarray(self.omega0) < 0):
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")

    def amplitude(self, t):
        return self.omega0 * np.exp(-LN2 * (t - self.t0) ** 2
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

def _ketbra(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


# Drive coupling per unit amplitude: (|g><x| + |x><b| + h.c.) / 2.
H_DRIVE = 0.5 * (_ketbra(G, X) + _ketbra(X, G) + _ketbra(X, B) + _ketbra(B, X))


def hamiltonian(omega_t: float, drive) -> np.ndarray:
    """Instantaneous ladder Hamiltonian for drive amplitude ``omega_t``.

    H = omega_t/2 (|g><x| + |x><b| + h.c.)
        + (delta_x - delta_b)|x><x| - 2 delta_b |b><b|
    """
    if omega_t < 0:
        raise ValueError(f"omega_t must be >= 0, got {omega_t}")
    return (np.diag([0.0, drive.delta_x - drive.delta_b, -2.0 * drive.delta_b])
            + omega_t * H_DRIVE)


# Jump operators of the cascade and the Hermitian dephasing operators.
L_BX = _ketbra(X, B)           # biexciton decay channel, rate gamma_b
L_XG = _ketbra(G, X)           # exciton decay channel, rate gamma_x
A_BB = np.diag([0.0, -1.0, 1.0]).astype(complex)
A_XX = np.diag([-1.0, 1.0, 0.0]).astype(complex)

GROUND = np.diag([1.0, 0.0, 0.0]).astype(complex)


def _dissipator(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    opd = dag(op)
    anti = opd @ op
    return op @ rho @ opd - 0.5 * (anti @ rho + rho @ anti)


def _lindblad_parts(rho: np.ndarray, drive, decay: DecayRates):
    """The parts of d(rho)/dt that are constant, per unit drive amplitude
    and per unit dephasing rate; ``rho`` may be a stack of matrices."""
    static = (1j * commutator(rho, hamiltonian(0.0, drive))
              + decay.gamma_b * _dissipator(L_BX, rho)
              + decay.gamma_x * _dissipator(L_XG, rho))
    return (static, 1j * commutator(rho, H_DRIVE),
            _dissipator(A_BB, rho) + _dissipator(A_XX, rho))


def lindblad_rhs(rho: np.ndarray, t: float, drive, decay: DecayRates,
                 deph: DephasingModel) -> np.ndarray:
    """d(rho)/dt = i[rho, H(t)] + decay and dephasing dissipators."""
    omega_t = float(drive.amplitude(t))
    if omega_t < 0:
        raise ValueError(f"omega_t must be >= 0, got {omega_t}")
    static, per_drive, per_deph = _lindblad_parts(rho, drive, decay)
    return static + omega_t * per_drive + float(deph.rate(omega_t)) * per_deph


# --- real generator for integration ----------------------------------------

def _coordinates(m: np.ndarray) -> np.ndarray:
    """Coordinates on _BASIS of a Hermitian matrix, or of a stack of them
    (shape (..., 9))."""
    return np.einsum("kij,...ji->...k", _DUAL, m).real


def _real_generator(drive, decay: DecayRates):
    """The parts of ``lindblad_rhs`` as real 11x11 maps (r0, rd, rp) of the
    integrated state: column k of each is the coordinates of that part
    applied to basis element k, and r0 has two rows that integrate rho_xx
    and rho_bb.  The generator at amplitude omega is
    r0 + omega rd + deph.rate(omega) rp."""
    r0, rd, rp = np.zeros((3, _N_STATE, _N_STATE))
    for r, part in zip((r0, rd, rp), _lindblad_parts(_BASIS, drive, decay)):
        r[:9, :9] = _coordinates(part).T
    r0[9, X] = r0[10, B] = 1.0
    return r0, rd, rp


def _initial_state(rho: np.ndarray, cap: float, t0: float) -> np.ndarray:
    """Integrated state of ``rho`` with both integrals at zero.  The
    coordinates keep only the Hermitian part of ``rho``, so a hermiticity
    defect beyond ``cap`` (or NaN) raises IntegrationError at ``t0``."""
    rho = np.asarray(rho, dtype=complex)
    defect = hermiticity_defect(rho)
    if not defect <= cap:
        raise IntegrationError(
            f"hermiticity drift {defect:.3e} exceeds {cap:.1e}", t0)
    return np.concatenate([_coordinates(rho), np.zeros(2)])


def _check_drift(times: np.ndarray, y: np.ndarray, cap: float) -> None:
    """Raise IntegrationError at the first state that is not finite or whose
    trace drift exceeds ``cap``; rho is Hermitian by construction.

    ``y`` holds the integrated states as columns, shape (11, n), and
    ``times[k]`` is the time of column k: the stored steps of one
    trajectory, or the drives of a batch at one step.
    """
    drift = np.abs(y[:3].sum(axis=0) - 1.0)
    bad = ~((drift <= cap) & np.isfinite(y).all(axis=0))
    if bad.any():
        i = int(np.argmax(bad))
        message = (f"trace drift {drift[i]:.3e} exceeds {cap:.1e}"
                   if not drift[i] <= cap else "state is not finite")
        raise IntegrationError(message, float(times[i]))


# --- evolution --------------------------------------------------------------

@dataclass
class Trajectory:
    """Stored master-equation solution: accepted RK45 steps, exact rows."""

    times: np.ndarray                  # strictly increasing, shape (n,)
    states: np.ndarray                 # shape (n, 3, 3) complex
    integrals: np.ndarray              # int. of rho_xx, rho_bb, (n, 2)
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
    """(t0 - 5 sigma, t0 + 5 sigma).  Outside it the drive is below 3e-8 of
    its peak and is taken to be off, in ``evolve`` (exact propagation) and
    in ``emission_after_pulse`` (closed-form tail) alike."""
    return (drive.t0 - 5 * drive.sigma, drive.t0 + 5 * drive.sigma)


def default_t_span(drive: PulseDrive, decay: DecayRates) -> tuple[float, float]:
    """The pulse window extended by 10 exciton lifetimes (10 / gamma_x).

    For trajectories that follow the radiative decay after the pulse, such
    as the ``evolve`` CSV; emission yields need no such span, since
    ``emission_after_pulse`` adds the post-pulse emission exactly.
    A vanishing gamma_x has no finite tail, so callers must then pass an
    explicit span.
    """
    if decay.gamma_x <= 0:
        raise ValueError("default span needs gamma_x > 0; pass t_span explicitly")
    start, end = pulse_window(drive)
    return start, end + 10.0 / decay.gamma_x


def _rk45_steps(y0: np.ndarray, drive, decay: DecayRates,
                deph: DephasingModel, t_span: tuple[float, float], tol: float,
                max_step: float | None = None):
    """Step the N drives of ``drive`` (one per entry of its ``omega0``) from
    the (11, N) states ``y0`` as one system, dY/dt = r0 @ Y
    + (rd @ Y) * omega(t) + (rp @ Y) * deph.rate(omega(t)); yield (t, Y)
    at the start and at each accepted step.  ``max_step`` defaults to 1/400
    of ``t_span`` and is at most all of it.  scipy's RK45 runs at
    rtol = atol = tol/sqrt(N): the RMS error norm over all 11 N components
    is at most 1 only if each drive's own norm at ``tol`` is.  Drift beyond
    100*tol at the start or at a step, a right-hand side that is not finite
    at the start, a failed step, or a step beyond ``_MAX_RK45_STEPS``
    before ``t_span`` ends (StepBudgetError) raises IntegrationError with
    its time; iterate under ``np.errstate(over="ignore", invalid="ignore")``
    to end overflow there.
    """
    n = y0.shape[1]
    r = np.vstack(_real_generator(drive, decay))

    def rhs(t, y):
        omega_t = drive.amplitude(t)
        a = r @ y.reshape(_N_STATE, n)
        return (a[:_N_STATE] + a[_N_STATE:2 * _N_STATE] * omega_t
                + a[2 * _N_STATE:] * deph.rate(omega_t)).ravel()

    t0, t1 = t_span
    max_step = min((t1 - t0) / 400.0 if max_step is None else max_step,
                   t1 - t0)
    cap, rtol, y = 100.0 * tol, tol / math.sqrt(n), y0.ravel()
    _check_drift(np.full(n, t0), y0, cap)
    f0 = rhs(t0, y)
    if not np.isfinite(f0).all():
        raise IntegrationError("right-hand side is not finite", t0)
    d1 = float(np.abs(f0).max())  # first step: 1 % of scale over rate
    first = min(max_step, 0.01 * (np.abs(y).max() + 1.0) / d1) if d1 else max_step
    solver = RK45(rhs, t0, y, t1, max_step=max_step, rtol=rtol, atol=rtol,
                  first_step=first)
    yield t0, y0
    for _ in range(_MAX_RK45_STEPS):
        if solver.status != "running":
            return
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"integration failed: {message}",
                                   float(solver.t))
        y = solver.y.reshape(_N_STATE, n)
        _check_drift(np.full(n, solver.t), y, cap)
        yield solver.t, y
    if solver.status == "running":
        raise StepBudgetError(
            f"RK45 step budget of {_MAX_RK45_STEPS} steps exhausted before "
            f"the span ends at {t1:.6g}: the equations are too stiff",
            float(solver.t))


def _propagate_exactly(gen: np.ndarray, y: np.ndarray, t_start: float,
                       t_end: float, cap: float):
    """(times, states) of exp(gen (t - t_start)) @ y on a uniform grid of
    (t_start, t_end]: 400 rows, or fewer where floats cannot resolve them.
    A generator that is not finite raises IntegrationError at t_start, and
    drift beyond ``cap`` at the first row that shows it."""
    if not np.isfinite(gen).all():
        raise IntegrationError("right-hand side is not finite", t_start)
    rows = int(min(400, max(1.0, (t_end - t_start) / (
        4.0 * np.spacing(max(abs(t_start), abs(t_end)))))))
    times = np.linspace(t_start, t_end, rows + 1)
    states = np.empty((_N_STATE, rows + 1))
    states[:, 0] = y
    step = expm(gen * ((t_end - t_start) / rows))
    for k in range(rows):
        states[:, k + 1] = step @ states[:, k]
    _check_drift(times, states, cap)
    return times[1:], states[:, 1:]


def evolve(rho0: np.ndarray, drive, decay: DecayRates, deph: DephasingModel,
           t_span: tuple[float, float] | None = None, tol: float = 1e-9,
           max_step: float | None = None) -> Trajectory:
    """Integrate the master equation from ``rho0`` over ``t_span``.

    RK45 (``_rk45_steps``, one drive, rtol = atol = ``tol``) steps the part
    inside the pulse window of a ``PulseDrive``, or the whole span of a
    ``ConstantDrive``, storing every accepted step; ``max_step`` (default
    1/400 of that part) caps its steps.  Outside the window the drive is
    off (``pulse_window``), and the state is propagated exactly with
    r0 + deph.rate(0) rp onto a uniform grid.  No renormalization is
    applied: drift beyond 100*tol, a generator that is not finite, or a
    failed step raises IntegrationError with its time.  ``drive.omega0``
    must be one amplitude, since one trajectory is stored.
    """
    if t_span is None:
        t_span = default_t_span(drive, decay)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    if not TOL_FLOOR <= tol <= 1e-3:
        raise ValueError(f"tol must be in [{TOL_FLOOR:.3g}, 1e-3], got {tol}")
    if np.size(drive.omega0) != 1:
        raise ValueError(
            f"evolve takes one omega0, got {np.size(drive.omega0)}")
    a, b = t0, t1  # the stretch that RK45 steps
    if isinstance(drive, PulseDrive):
        a, b = (min(max(t, t0), t1) for t in pulse_window(drive))
    r0, _, rp = _real_generator(drive, decay)
    off, cap = r0 + float(deph.rate(0.0)) * rp, 100.0 * tol
    parts = [(np.array([t0]), _initial_state(rho0, cap, t0)[:, None])]
    # Overflow and NaN end as IntegrationError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if a > t0:
            parts.append(_propagate_exactly(off, parts[-1][1][:, -1], t0, a, cap))
        if b > a:
            steps = _rk45_steps(parts[-1][1][:, -1:], drive, decay, deph,
                                (a, b), tol, max_step)
            next(steps)  # the start is stored already
            ts, ys = zip(*steps)
            parts.append((np.array(ts), np.hstack(ys)))
        if t1 > b:
            parts.append(_propagate_exactly(off, parts[-1][1][:, -1], b, t1, cap))
    ys = np.hstack([y for _, y in parts])
    return Trajectory(times=np.concatenate([t for t, _ in parts]),
                      states=np.einsum("kn,kij->nij", ys[:9], _BASIS),
                      integrals=ys[9:].T)


# --- emission probabilities -------------------------------------------------

def emission_probabilities(traj: Trajectory, decay: DecayRates,
                           t_f: float) -> tuple[float, float]:
    """Emitted-photon probabilities up to t_f.

    P_i(t_f) = gamma_i * integral of the level-i population from the start
    of the trajectory to t_f: the integral stored with each step, and
    between steps its cubic Hermite interpolant with the populations as
    derivatives.  Exciton emission includes the cascade fed by biexciton
    decay, so P_x >= P_b in the absence of re-excitation.
    """
    ts = traj.times
    if not ts[0] <= t_f <= ts[-1]:
        raise ValueError(f"t_f = {t_f} outside trajectory range [{ts[0]}, {ts[-1]}]")
    int_x, int_b = CubicHermiteSpline(ts, traj.integrals,
                                      traj.populations[:, (X, B)])(t_f)
    return float(decay.gamma_x * int_x), float(decay.gamma_b * int_b)


def emission_after_pulse(drive: PulseDrive, decay: DecayRates,
                         deph: DephasingModel, tol: float = 1e-8
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Total (p_x, p_b) of one pulse from the ground state, shape (N,), for
    each of the N peak amplitudes in ``drive.omega0``.

    The pulse windows of all amplitudes are stepped as one system
    (``_rk45_steps``); p_i is gamma_i times the integral of the level-i
    population it carries, plus the emission after the pulse in closed
    form.  After the drive is off the populations decay freely, so the
    remaining emission of a level with a positive rate equals the
    population left on it, and rho_bb also feeds the exciton.  A level
    with zero rate emits nothing after the pulse.  When tol/sqrt(N) would
    fall below ``TOL_FLOOR``, the amplitudes are stepped in chunks of
    floor((tol/TOL_FLOOR)^2).
    """
    if not TOL_FLOOR <= tol <= 1e-3:
        raise ValueError(f"tol must be in [{TOL_FLOOR:.3g}, 1e-3], got {tol}")
    t0, t1 = pulse_window(drive)
    if not t1 > t0:
        raise ValueError(f"pulse window ({t0}, {t1}) has no width")
    omega0 = np.atleast_1d(drive.omega0)
    n = len(omega0)
    y0 = _initial_state(GROUND, 100.0 * tol, t0)[:, None]
    p_x, p_b = np.empty(n), np.empty(n)
    chunk = max(1, int((tol / TOL_FLOOR) ** 2))
    for start in range(0, n, chunk):
        part = slice(start, start + chunk)
        w = omega0[part]
        with np.errstate(over="ignore", invalid="ignore"):  # see _rk45_steps
            for _, y in _rk45_steps(np.repeat(y0, len(w), axis=1),
                                    replace(drive, omega0=w), decay, deph,
                                    (t0, t1), tol):
                pass
        tail_b = y[B] if decay.gamma_b > 0 else 0.0
        tail_x = y[X] + tail_b if decay.gamma_x > 0 else 0.0
        p_x[part] = decay.gamma_x * y[9] + tail_x
        p_b[part] = decay.gamma_b * y[10] + tail_b
    return p_x, p_b


def cumulative_emission(traj: Trajectory, decay: DecayRates) -> tuple[np.ndarray, np.ndarray]:
    """Emitted-photon probabilities (P_x, P_b) up to each stored time."""
    return (decay.gamma_x * traj.integrals[:, 0],
            decay.gamma_b * traj.integrals[:, 1])


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
