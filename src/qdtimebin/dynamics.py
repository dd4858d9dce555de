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
amplitudes; its ``sigma`` and ``t0``, and the fields of its
``DephasingModel``, may hold one value per drive as well.  One window
stepper (``_window_steps``: DOP853 with an error norm per drive, whose
step forms the operators of all its stages in one product, sums each
stage in one product over [y; K] and ends in one product for y_new and the
error estimates, taking scipy's steps up to rounding, with no dense
output, or Radau for a window made stiff by dephasing) steps it
as one (11, N) system in pulse time tau = (t - t0) / sigma, over the
window |tau| <= ``PULSE_HALF_WIDTH`` that every drive shares whatever its
sigma: ``emission_after_pulse`` over the pulse windows of a batch, adding
the emission after the pulse in closed form, and ``evolve`` for one drive,
storing every accepted step.  Wherever the generator is constant, outside
a pulse window and for the whole span of a ``ConstantDrive``, ``evolve``
propagates the state exactly instead.  Time-resolved emission is read at a
trajectory's stored rows (``cumulative_emission``); to read it at a given
t_f, evolve to t_f.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.integrate
from scipy.integrate import Radau, trapezoid
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY
from scipy.linalg import expm
from scipy.sparse import csc_matrix

from .linalg import commutator, dag, hermitian_basis, hermiticity_defect

G, X, B = 0, 1, 2

LN2 = math.log(2.0)

# Smallest integration tolerance: scipy raises any rtol below it to it, in
# DOP853 and Radau alike.  The largest is TOL_CEILING (``check_tol``).
TOL_FLOOR = 100 * np.finfo(float).eps
TOL_CEILING = 1e-3
# Half-width of a pulse window in pulse time tau = (t - t0) / sigma.
PULSE_HALF_WIDTH = 5.0

# Components of the integrated state: the coordinates of rho on _BASIS,
# whose first three elements are |g><g|, |x><x| and |b><b|, then the
# integrals of rho_xx and rho_bb.
_BASIS = hermitian_basis(3)
_N_STATE = 11
# Coordinates of a Hermitian m: tr(dual_k m), with dual_k = B_k / tr(B_k^2).
_DUAL = _BASIS / np.einsum("kij,kji->k", _BASIS, _BASIS).real[:, None, None]

# Accepted steps one run of ``_window_steps`` may take, a guard.  At tol
# 1e-8 a pulse window takes 40-440 DOP853 steps (40 under the cap of span/40)
# and the 216-drive batch of a fit 190; a window made stiff by intensity
# dephasing (sigma 1e-6 with gamma_i0 * omega0^2 ~ 3e12 /ps) would take
# millions, and is stepped by Radau instead.
_MAX_WINDOW_STEPS = 100_000
# DOP853 steps that dephasing alone forces (``_window_method``) above which
# Radau steps a window of N drives: max(_RADAU_MIN_STEPS,
# _RADAU_STEPS * N^0.4).  Both were fitted, before DOP853 formed its own
# stage sums, to the crossover of one ``emission_after_pulse`` batch,
# DOP853 with its per-drive norm at rtol tol against Radau at tol/sqrt(N):
# then ~800 steps for one drive, ~1,500 for 48 and ~3,100 for 288 drives.
# Now (sigma 3.8e-3 to 1.5e-4, areas 5-20, 20 for one drive, gamma_i0
# 0.0349, delta_x 3.5, tol 1e-8; medians of 3-5 alternating runs, 2-core
# x86-64 VM, one thread) it is ~2,000 for one drive and 3,600-6,000 for 48
# and 288.  One drive, DOP853 against Radau: estimate 477 (sigma 3.8e-3)
# 0.025 against 0.070 s, 907 (2e-3) 0.040 against 0.074 s, 1,814 (1e-3)
# 0.073 against 0.080 s, 3,628 (5e-4) 0.13-0.15 against 0.08 s, 12,000
# (1.5e-4) 0.45 against 0.15 s.  Where dephasing sets the step, stability
# and not the norm limits DOP853, so these are the crossovers of the RMS
# norm at tol/sqrt(N) too.
_RADAU_STEPS = 360.0
_RADAU_MIN_STEPS = 800.0
# Real stability limit of DOP853: h |lambda| <= 6.39 for a real negative
# eigenvalue lambda, from the stability function of scipy's tableau
# (RK45's is 3.31).
_EXPLICIT_STABILITY = 6.39


class IntegrationError(RuntimeError):
    """Integrator failure or invariant drift; carries the failure time."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class StepBudgetError(IntegrationError):
    """``_window_steps`` took ``_MAX_WINDOW_STEPS`` steps before its span
    ended."""


def check_field(name: str, value, ok, need: str) -> None:
    """Raise ValueError unless ``value``, an int or float or an array of
    them (no bool or object), satisfies ``ok`` everywhere; NaN never does."""
    v = np.asarray(value)
    if v.dtype.kind not in "iuf" or not ok(v).all():
        raise ValueError(f"{name} must be {need}, got {value}")


def check_tol(tol: float) -> None:
    """Raise ValueError unless ``tol`` is in [TOL_FLOOR, TOL_CEILING], the
    range of ``evolve``, ``emission_after_pulse`` and 'numerics.tol'."""
    if not TOL_FLOOR <= tol <= TOL_CEILING:
        raise ValueError(
            f"tol must be in [{TOL_FLOOR:.3g}, {TOL_CEILING:g}], got {tol}")


@dataclass(frozen=True)
class PulseDrive:
    """Gaussian drive: amplitude(t) = omega0 * exp(-ln2 tau^2) at pulse time
    tau = (t - t0) / sigma.

    ``delta_x`` is the energy offset of the virtual two-photon level from
    the exciton; ``delta_b`` the detuning of the laser from the two-photon
    resonance.  Defaults put the laser exactly on two-photon resonance with
    a finite virtual-level offset.  An array ``omega0`` is a batch: one
    drive per peak amplitude.  ``sigma`` and ``t0`` may then hold one value
    per drive too; the detunings are shared.
    """

    omega0: float | np.ndarray
    sigma: float | np.ndarray
    t0: float | np.ndarray = 0.0
    delta_x: float = 0.5
    delta_b: float = 0.0

    def __post_init__(self):
        check_field("sigma", self.sigma, lambda v: v > 0, "> 0")
        check_field("omega0", self.omega0, lambda v: v >= 0, ">= 0")
        for name in ("t0", "delta_x", "delta_b"):
            check_field(name, getattr(self, name), np.isfinite, "finite")

    def amplitude(self, t):
        return self.amplitude_at((t - self.t0) / self.sigma)

    def amplitude_at(self, tau):
        """Amplitude at pulse time ``tau``."""
        return self.omega0 * np.exp(-LN2 * tau * tau)


@dataclass(frozen=True)
class ConstantDrive:
    """Time-independent drive, mainly for oracle comparisons."""

    omega0: float
    delta_x: float = 0.5
    delta_b: float = 0.0

    def __post_init__(self):
        check_field("omega0", self.omega0, lambda v: v >= 0, ">= 0")
        for name in ("delta_x", "delta_b"):
            check_field(name, getattr(self, name), np.isfinite, "finite")

    def amplitude(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.omega0)


@dataclass(frozen=True)
class DecayRates:
    """Radiative rates of the cascade: b -> x at gamma_b, x -> g at gamma_x."""

    gamma_b: float = 0.002
    gamma_x: float = 0.001

    def __post_init__(self):
        check_field("gamma_b", self.gamma_b, lambda v: v >= 0, ">= 0")
        check_field("gamma_x", self.gamma_x, lambda v: v >= 0, ">= 0")


@dataclass(frozen=True)
class DephasingModel:
    """Pure dephasing rate gamma_bg + gamma_i0 * amplitude^n_p.

    n_p = 0 folds the intensity term into a constant, so the pure-background
    model is the special case (gamma_bg + gamma_i0, n_p arbitrary at zero
    drive).  In a batch any field may be an array with one entry per drive.
    """

    gamma_bg: float | np.ndarray = 0.0
    gamma_i0: float | np.ndarray = 0.0
    n_p: int | np.ndarray = 2

    def __post_init__(self):
        check_field("gamma_bg", self.gamma_bg, lambda v: v >= 0, ">= 0")
        check_field("gamma_i0", self.gamma_i0, lambda v: v >= 0, ">= 0")
        check_field("n_p", self.n_p, lambda v: (v >= 0) & (np.floor(v) == v)
               & np.isfinite(v), "a non-negative integer")

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


def _real_generator(drive, decay: DecayRates) -> np.ndarray:
    """The parts of ``lindblad_rhs`` as real 11x11 maps (r0, rd, rp) of the
    integrated state, stacked (3, 11, 11): column k of each is the
    coordinates of that part applied to basis element k, and r0 has two
    rows that integrate rho_xx and rho_bb.  The generator at amplitude
    omega is r0 + omega rd + deph.rate(omega) rp."""
    parts = np.zeros((3, _N_STATE, _N_STATE))
    for r, part in zip(parts, _lindblad_parts(_BASIS, drive, decay)):
        r[:9, :9] = _coordinates(part).T
    parts[0, 9, X] = parts[0, 10, B] = 1.0
    return parts


# rp is one diagonal whatever the drive and decay, with entries 0, -1 and
# -5/2, so sigma rate times its largest |entry| bounds the real eigenvalues
# that dephasing adds to a window's generator (``_window_method``).
_RP_MAX = float(np.abs(
    _real_generator(ConstantDrive(0.0), DecayRates())[2]).max())


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


def _time_of(times, k: int) -> float:
    """Time of column k: ``times`` holds one per column, or one for all."""
    return float(times[k] if np.ndim(times) else times)


def _check_drift(times, y: np.ndarray, cap: float, where: str) -> None:
    """Raise IntegrationError at the first state that is not finite or whose
    trace drift exceeds ``cap``; rho is Hermitian by construction.

    ``y`` holds the integrated states as columns, shape (11, n), and
    ``times`` the time of each column (``_time_of``): the stored steps of
    one trajectory, or the drives of a batch at one step.  The message ends
    "in the {where}", naming what computed the states.
    """
    drift = np.abs(y[:3].sum(axis=0) - 1.0)
    bad = ~((drift <= cap) & np.isfinite(y).all(axis=0))
    if bad.any():
        i = int(np.argmax(bad))
        message = (f"trace drift {drift[i]:.3e} exceeds {cap:.1e}"
                   if not drift[i] <= cap else "state is not finite")
        raise IntegrationError(f"{message} in the {where}",
                               _time_of(times, i))


# --- evolution --------------------------------------------------------------

@dataclass
class Trajectory:
    """Master-equation solution at the accepted window steps, spaced as
    ``tol`` allows, and at the rows of the exact drive-off propagation.

    Quantities are known at these rows only: to read them at a time t_f,
    evolve to t_f."""

    times: np.ndarray                  # strictly increasing, shape (n,)
    states: np.ndarray                 # shape (n, 3, 3) complex
    integrals: np.ndarray              # int. of rho_xx, rho_bb, (n, 2)
    populations: np.ndarray = field(init=False)   # diag(rho) real, (n, 3)
    gb_coherence: np.ndarray = field(init=False)  # <g|rho|b>, (n,)

    def __post_init__(self):
        self.populations = np.real(self.states[:, (G, X, B), (G, X, B)])
        self.gb_coherence = self.states[:, G, B].copy()


def pulse_window(drive: PulseDrive) -> tuple[float, float]:
    """(t0 - w sigma, t0 + w sigma), tau in [-w, w], w = PULSE_HALF_WIDTH;
    arrays for a batch with one sigma or t0 per drive.  Outside it the drive
    is below 3e-8 of its peak and is taken to be off, in ``evolve`` (exact
    propagation) and in ``emission_after_pulse`` (closed-form tail) alike."""
    half = PULSE_HALF_WIDTH * drive.sigma
    return (drive.t0 - half, drive.t0 + half)


def default_t_span(drive: PulseDrive, decay: DecayRates) -> tuple[float, float]:
    """The pulse window extended by 10 exciton lifetimes (10 / gamma_x).

    For trajectories that follow the radiative decay after the pulse, such
    as the ``evolve`` CSV; emission yields need no such span, since
    ``emission_after_pulse`` adds the post-pulse emission exactly.
    A vanishing gamma_x has no finite tail, and a ``ConstantDrive`` no
    window, so callers must then pass an explicit span.
    """
    if not isinstance(drive, PulseDrive):
        raise ValueError("a ConstantDrive needs an explicit t_span")
    if decay.gamma_x <= 0:
        raise ValueError("default span needs gamma_x > 0; pass t_span explicitly")
    start, end = pulse_window(drive)
    return start, end + 10.0 / decay.gamma_x


class DOP853(scipy.integrate.DOP853):
    """scipy's DOP853 on the (11, N) state of N drives, raveled row-major,
    with an error norm per drive and a step of its own.

    The error norm bounds each drive's error: the largest over the drives
    of scipy's norm of that drive's 11 components (column n).  Each drive
    of a batch then steps at rtol = atol = tol as if it were alone.

    The right-hand side of a window is linear in the state, so a step
    takes its stages from two functions that ``_window_steps`` hands over
    instead of calling ``fun`` once per stage: ``operators(taus)`` stacks
    the operators of the right-hand side at the pulse times ``taus``, and
    ``apply(op, y, out)`` writes op applied to y into ``out``, both (11, N)
    views.  Each attempted step forms its 12 operators in one call, at
    tau + c h for the stages c = C[1:] and for its end, c = 1.  Then it
    runs the stage recursion K[s] = op_s(y + h A[s, :s] @ K[:s]) into
    ``K`` and takes the derivative at its end, counting 12 evaluations in
    ``nfev``.  Each stage sum is one product of the weights
    (1, h A[s, :s]) with the rows [y; K[:s]] of one work array [y; K].
    The step's end is one product too: the weights (1, h B) give y_new and
    scipy's E5 and E3 the two error estimates, exactly as from all 13
    stages, since E5 and E3 weight K[12], the derivative at the end, by 0.
    Every view of the work array a step reads or writes is made once,
    here.

    These sums round differently from scipy's ``rk_step``, which adds y
    after the weighted stages, so a step from the same state agrees with
    scipy's to rounding.  The error estimate E K is a cancelling sum,
    which magnifies that rounding into the step sizes, so a window's pulse
    times can move by ~1e-9 against scipy's (in the tests and the
    benchmark's windows, over as many steps).

    scipy's are the tableau, the step-size constants ``SAFETY``,
    ``MIN_FACTOR`` and ``MAX_FACTOR``, the control law of
    ``RungeKutta._step_impl``, which ``_step_impl`` runs on Python floats,
    the initial step (two calls of ``fun``), the status and the scale
    atol + rtol max(|y|, |y_new|).  The solver has no dense output
    (``dense_output()`` raises): a window is read at its accepted steps.
    A solver made without ``operators`` estimates error norms but cannot
    step.
    """

    # in units of h, per stage 1 .. 11 and then the step's end: the weights
    # of K[0] .. K[11] in its sum (A[s], then B), and its pulse time
    _BY_H = np.column_stack((
        np.vstack((scipy.integrate.DOP853.A[1:], scipy.integrate.DOP853.B)),
        np.append(scipy.integrate.DOP853.C[1:], 1.0)))
    # sums over a drive's 11 components of the squared E5 K / scale and
    # E3 K / scale, stacked: its e5 and e5 + e3 / 100
    _SQUARES = np.kron([[1.0, 0.0], [1.0, 0.01]], np.ones(_N_STATE))
    _TINY = np.finfo(float).tiny

    def __init__(self, fun, t0, y0, t_bound, *, operators=None, apply=None,
                 **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self.operators, self.apply = operators, apply
        # the control law runs on floats, where scipy's may be numpy's
        self.t, self.t_bound = float(self.t), float(self.t_bound)
        self.h_abs, self.max_step = float(self.h_abs), float(self.max_step)
        self.direction = float(self.direction)
        self._rtol, self._atol = float(self.rtol), float(self.atol)
        m = self.n_stages
        # the step's work array W: y in row 0, then the 13 rows of K; no
        # dense output reads the stages scipy's K_extended would add
        del self.K_extended
        W = np.empty((1 + len(self.K), self.n))
        self.K, self._W = W[1:], W
        # the weights of W[:13] = [y; K[:12]]: (1, h A[s, :s]) per stage
        # s = 1 .. 11, then those of the step's end, (1, h B) for y_new and
        # (0, E5[:12]) and (0, E3[:12]) for the error estimates, exact as E5
        # and E3 weight K[12] by 0; then, in the last column, h times the
        # pulse times of the stages and the end.  One multiply by h fills
        # each step's; the 1s, the 0s and the E rows stay.
        sums = np.ones((m + 2, m + 2))
        sums[m:, 0] = 0.0
        sums[m:, 1:-1] = self.E5[:m], self.E3[:m]
        self._by_h, self._h_times = sums[:m, 1:], sums[:m, -1]
        # the step's end: y_new in row 0, then the error estimates
        ends = np.empty((3, self.n))
        self._ends, self._err = ends, ends[1:]
        self._end_sums, self._end_rows = sums[m - 1:, :-1], W[:m + 1]
        # views (11, N), as apply takes them: of a stage's sum y_s, of
        # y_new and of the rows of K; per stage s = 1 .. 11, its weights,
        # the rows of W they weight (y, K[:s]), y_s flat and as a view, and
        # the row of K that its derivative fills
        shape = (_N_STATE, self.n // _N_STATE)
        y_s, k = np.empty(self.n), W.reshape(len(W), *shape)
        self._stages = [(sums[i, :i + 2], W[:i + 2], y_s, y_s.reshape(shape),
                         k[i + 2]) for i in range(m - 1)]
        self._end = (ends[0].reshape(shape), k[m + 1])

    def _error_norm(self, err, h, scale):
        """The error norm of scipy's error estimates err = (E5 K, E3 K), of
        shape (2, 11 N), at step h and scale: the largest over the drives
        of |h| e5 / sqrt(11 (e5 + e3 / 100)), where e5 and e3 are the sums
        of squares of the drive's 11 components of E5 K / scale and
        E3 K / scale, scipy's norm for each drive alone.  A drive with no
        error reads 0, and a NaN or inf rejects the step (returns inf).
        Overwrites err."""
        np.divide(err, scale, out=err)
        np.multiply(err, err, out=err)
        # (e5, e5 + e3 / 100) of each drive
        squares = np.dot(self._SQUARES, err.reshape(2 * _N_STATE, -1))
        if squares.shape[1] == 1:  # one drive, on floats
            (e5,), (denom,) = squares.tolist()
            if not denom < math.inf:
                return math.inf
            return abs(h) * e5 / math.sqrt(_N_STATE * denom) if denom else 0.0
        e5, denom = squares
        if not denom.max() < math.inf:
            return math.inf
        # a drive with no error has e5 = denom = 0: its e5^2 / denom reads 0
        np.maximum(denom, self._TINY, out=denom)
        np.divide(e5, denom, out=denom)
        denom *= e5
        return abs(h) * math.sqrt(denom.max() / _N_STATE)

    def _rk_step(self, t, y, h):
        """(y_new, f_new) of scipy's ``rk_step(self.fun, t, y, self.f, h,
        A, B, C, K)``, up to rounding, from one call of ``operators``.
        Leaves scipy's error estimates (E5 K, E3 K) in ``_err``."""
        self.nfev += len(self._h_times)
        W, apply = self._W, self.apply
        W[0] = y
        W[1] = self.f
        np.multiply(self._BY_H, h, out=self._by_h)
        ops = self.operators(self._h_times + t)
        for (sums, rows, y_s, y_in, out), op in zip(self._stages, ops):
            np.dot(sums, rows, out=y_s)  # y + h (K[:s].T @ A[s, :s])
            apply(op, y_in, out)
        np.dot(self._end_sums, self._end_rows, out=self._ends)
        apply(ops[-1], *self._end)
        return self._ends[0].copy(), self.K[-1].copy()

    def _step_impl(self):
        # the control law of scipy's RungeKutta._step_impl, on floats
        t, y, direction = self.t, self.y, self.direction
        exponent = self.error_exponent
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = self.h_abs
        if h_abs > self.max_step:
            h_abs = self.max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = self._rk_step(t, y, h)
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= self._rtol
            scale += self._atol
            error_norm = self._error_norm(self._err, h, scale)
            if error_norm < 1.0:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            rejected = True
        if error_norm == 0.0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** exponent)
        if rejected:
            factor = min(1.0, factor)
        self.h_previous, self.y_old, self.t, self.y = h, y, t_new, y_new
        self.h_abs, self.f = h_abs * factor, f_new
        return True, None


def _window_method(drive: PulseDrive, deph: DephasingModel,
                   tau_span: tuple[float, float]):
    """DOP853, or Radau for a batch of N drives whose dephasing alone would
    force DOP853 past max(``_RADAU_MIN_STEPS``, ``_RADAU_STEPS`` N^0.4)
    steps over ``tau_span``.

    sigma_n rate_n(tau) ``_RP_MAX`` bounds the real eigenvalues of drive
    n's generator that dephasing adds at pulse time tau; DOP853 is stable
    only for steps with h |lambda| <= ``_EXPLICIT_STABILITY``, so it takes
    at least the integral of sigma_n _RP_MAX rate_n / 6.39 over the span
    (trapezoids on 41 points: the rate of a Gaussian drive is smooth, and
    an estimate needs no more).
    Windows limited by oscillation (a large sigma times the detuning or the
    drive) stay explicit: an implicit step must follow the oscillation too,
    so Radau would gain nothing there.
    """
    tau = np.linspace(tau_span[0], tau_span[1], 41)
    rate = deph.rate(drive.amplitude_at(tau[:, None]))
    steps = (_RP_MAX / _EXPLICIT_STABILITY
             * np.max(drive.sigma * trapezoid(rate, tau, axis=0)))
    n = np.size(drive.omega0)
    limit = max(_RADAU_MIN_STEPS, _RADAU_STEPS * n ** 0.4)
    return Radau if steps > limit else DOP853


def _pulse_coefficients(drive: PulseDrive, deph: DephasingModel, n: int):
    """The matrix C and the exponents p, taken once per window, from which
    the (3, N) coefficient rows sigma, sigma omega and sigma rate(omega) of
    the N drives, raveled row-major, are C @ e**p at pulse time tau, where
    omega is each drive's amplitude there and e = exp(-ln2 tau^2) is
    shared by every drive: the rows are sigma, (sigma omega0) e and
    sigma gamma_bg + (sigma gamma_i0 omega0^n_p) e^n_p.

    Returns C.T, of shape (m, 3N), and p = (0, 1, then each distinct n_p
    of the batch), of shape (m,).  0.0**0 is 1, so n_p = 0 still folds
    gamma_i0 into a constant.  A drive whose omega0^n_p overflows gets an
    infinite or NaN entry, which ``_window_steps`` reports at its start.
    """
    sigma = np.broadcast_to(np.asarray(drive.sigma, dtype=float), (n,))
    omega0 = np.asarray(drive.omega0, dtype=float)
    n_p, column = np.unique(np.broadcast_to(deph.n_p, (n,)),
                            return_inverse=True)
    by_power = np.zeros((2 + n_p.size, 3, n))
    by_power[0, 0] = sigma
    by_power[1, 1] = sigma * omega0
    by_power[0, 2] = sigma * deph.gamma_bg
    by_power[2 + column, 2, np.arange(n)] = (
        sigma * deph.gamma_i0 * omega0 ** np.asarray(deph.n_p))
    return by_power.reshape(-1, 3 * n), np.concatenate(([0.0, 1.0], n_p))


def _pulse_rows(by_power: np.ndarray, p: np.ndarray, shape: tuple):
    """The function of pulse time tau that returns e**p @ ``by_power``,
    with e = exp(-ln2 tau^2), in shape np.shape(tau) + ``shape``: tau is
    one number, or an array with the rows at each of its entries.
    (by_power, p) are those of ``_pulse_coefficients``, which give the
    coefficient rows of a batch, or a generator folded from them.  The
    powers are exp(-ln2 p tau^2), one exp over every p and tau, and each
    call returns a new array."""
    exponents = -LN2 * p

    def at(tau):
        powers = np.exp(np.square(tau)[..., None] * exponents)
        return (powers @ by_power).reshape(powers.shape[:-1] + shape)

    return at


def _block_jacobian(parts: np.ndarray, at, n: int):
    """Jacobian of ``_window_steps``' right-hand side at pulse time tau, a
    function of (tau, y), from the parts (r0, rd, rp) of
    ``_real_generator`` and ``at``, the coefficient rows of the N drives
    (``_pulse_rows``).  For the (11, N) state raveled row-major it is block
    diagonal over the drives: entry (k N + n, l N + n) is
    sigma_n (r0 + omega_n rd + rate_n rp)[k, l], 121 N entries in all."""
    size = _N_STATE * n
    # in CSC order, column l N + n holds rows k N + n, k = 0 .. 10
    rows = np.tile((np.arange(0, size, n) + np.arange(n)[:, None]).ravel(),
                   _N_STATE)
    starts = np.arange(0, _N_STATE * size + 1, _N_STATE)
    parts = np.moveaxis(parts, 0, -1)  # (11, 11, 3)

    def jac(tau, y):
        blocks = parts @ at(tau).reshape(3, n)  # (11, 11, N)
        return csc_matrix((blocks.transpose(1, 2, 0).ravel(), rows, starts),
                          shape=(size, size))

    return jac


def _window_steps(y0: np.ndarray, drive: PulseDrive, decay: DecayRates,
                  deph: DephasingModel, tau_span: tuple[float, float],
                  tol: float):
    """Step the N drives of ``drive`` (one per entry of its ``omega0``) from
    the (11, N) states ``y0`` as one system over ``tau_span`` in pulse time
    tau = (t - t0) / sigma; yield (t, Y) at the start and at each accepted
    step, where t = t0 + sigma tau in ps, one per drive where their sigma
    or t0 differ.

    Column n obeys dY/dtau = sigma_n (r0 @ Y + (rd @ Y) omega_n
    + (rp @ Y) deph.rate(omega_n)), with omega_n = drive.amplitude_at(tau),
    its amplitude at its own time t0 + sigma tau: the three parts weighted
    by the coefficient rows of ``_pulse_coefficients``.  ``drive.sigma``,
    ``drive.t0`` and the fields of ``deph`` may hold one value per drive:
    drives of different sigma share the window |tau| <= PULSE_HALF_WIDTH
    and one step sequence.  The method is ``DOP853``, whose error norm is
    the largest of the drives' own norms, at rtol = atol = tol whatever N,
    and which takes its stages from the operators of the right-hand side
    (``_pulse_rows`` at the stage times: the generator of one drive, or
    the coefficient rows of a batch) and the function that applies one to
    (11, N) views of its work array, both handed to it here.  It forms its
    stage sums, error estimates and scale itself; scipy's are its tableau,
    its step-size constants and control law, which it runs on floats, and
    its initial step.  So it steps as scipy's DOP853 would with this
    right-hand side, up to rounding; it has no dense output, so the window
    is read at its accepted steps.  Or the method is Radau where dephasing
    makes the window stiff (``_window_method``), calling the right-hand
    side, with the exact Jacobian from the same operators: one drive's
    generator, or a batch's ``_block_jacobian``.
    Radau's norm is scipy's RMS over all 11 N components, which no
    subclass can replace, so it steps at rtol = atol = tol/sqrt(N): that
    RMS is at most 1 only if each drive's own norm at ``tol`` is.  rtol
    never falls below ``TOL_FLOOR``, where scipy would raise it, so below
    tol = ``TOL_FLOOR`` sqrt(N) each drive's step error is bounded by
    ``TOL_FLOOR`` sqrt(N) instead of tol (3.3e-13 for a fit's 216 drives).
    Drift beyond 100*tol at the start or at the end, a right-hand side that
    is not finite at the start, a failed step, or a step beyond
    ``_MAX_WINDOW_STEPS`` before ``tau_span`` ends (StepBudgetError)
    raises IntegrationError with its time in ps: that of
    the drive that drifts or is not finite, or of the first drive for a
    failure of the whole system, which also gives the tau where the shared
    step sequence stopped; every message but that of the right-hand side
    names the method.  Iterate under
    ``np.errstate(over="ignore", invalid="ignore")`` to end overflow there.
    """
    n = y0.shape[1]
    parts = _real_generator(drive, decay)

    def times(tau):
        return drive.t0 + drive.sigma * tau

    by_power, p = _pulse_coefficients(drive, deph, n)
    if n == 1:
        # one drive: its operator is its (11, 11) generator, the parts
        # folded with its coefficients once here, applied by np.dot and
        # Radau's dense Jacobian.  In DOP853's stage loop a 160-step window
        # takes 6.2 ms this way and 9.1 ms through the rows of a batch, and
        # a call of rhs 4.4 against 5.9 us (2-core x86-64 VM, one thread).
        at = _pulse_rows(by_power @ parts.reshape(3, -1), p, parts.shape[1:])
        apply = np.dot
    else:
        # columns 9 and 10 of every part are 0: the integrals feed nothing
        r = np.hstack(parts[:, :, :9])
        at = _pulse_rows(by_power, p, (3, 1, n))
        # apply scales the 9 coordinates of rho in Y by each coefficient
        # row into this (3, 9, N) stack in one broadcast multiply, so that
        # one (11, 27) product applies the generator: fewer passes over the
        # state and no temporaries, where scaling and adding r0 Y, rd Y and
        # rp Y would take five of each
        scaled = np.empty((3, 9, n))
        stacked = scaled.reshape(3 * 9, n)

        def apply(rows, y, out):
            np.multiply(rows, y[:9], out=scaled)
            np.dot(r, stacked, out=out)

    def rhs(tau, y):
        # a new array each call: scipy keeps the derivatives it is given
        out = np.empty_like(y)
        apply(at(tau), y.reshape(_N_STATE, n), out.reshape(_N_STATE, n))
        return out

    tau0, tau1 = tau_span
    method = _window_method(drive, deph, tau_span)
    cap, y = 100.0 * tol, y0.ravel()
    rtol = tol if method is DOP853 else max(tol / math.sqrt(n), TOL_FLOOR)
    where = f"{method.__name__} window"
    _check_drift(times(tau0), y0, cap, where)
    # A solver with a derivative that is not finite never returns.
    bad = ~np.isfinite(rhs(tau0, y).reshape(_N_STATE, n)).all(axis=0)
    if bad.any():
        raise IntegrationError("right-hand side is not finite",
                               _time_of(times(tau0), np.argmax(bad)))
    # Each step is capped at 1/40 of the span (sigma/4 in a pulse window).
    # The cap binds only on the rising edge of a pulse, where the drive is
    # still weak and the solver would step up to sigma/2.
    if method is DOP853:
        options = {"operators": at, "apply": apply}
    else:  # one drive's operator, its generator, is its own Jacobian
        options = {"jac": _block_jacobian(parts, at, n) if n > 1
                   else lambda tau, y: at(tau)}
    solver = method(rhs, tau0, y, tau1, max_step=(tau1 - tau0) / 40.0,
                    rtol=rtol, atol=rtol, **options)
    t, y = times(tau0), y0
    yield t, y
    try:
        for _ in range(_MAX_WINDOW_STEPS):
            if solver.status != "running":
                break
            message = solver.step()
            if solver.status == "failed":
                raise IntegrationError(
                    f"{method.__name__} integration failed at pulse time "
                    f"tau = {solver.t:.6g}: {message}",
                    _time_of(times(solver.t), 0))
            t, y = times(solver.t), solver.y.reshape(_N_STATE, n)
            yield t, y
        if solver.status == "running":
            raise StepBudgetError(
                f"{method.__name__} step budget of {_MAX_WINDOW_STEPS} steps "
                f"exhausted at pulse time tau = {solver.t:.6g}, before the "
                f"span ends at tau = {tau1:.6g}: the window needs more steps",
                _time_of(times(solver.t), 0))
        # A Runge-Kutta step conserves the trace, a linear invariant, up to
        # rounding, and a state that is not finite makes its error norm NaN
        # or inf, which rejects it: one check at the end of the window
        # suffices.
        _check_drift(t, y, cap, where)
    finally:
        # scipy's solver keeps closures over itself; dropping them lets its
        # work arrays go when the window ends, not at a later cyclic
        # collection (peak RSS of a 20 s perfbench fit run on a 2-core
        # x86-64 VM: 86.5 -> 85.4 MB)
        solver.fun = solver.fun_vectorized = solver.jac = None


def _propagate_exactly(gen: np.ndarray, y: np.ndarray, t_start: float,
                       t_end: float, cap: float):
    """(times, states) of exp(gen (t - t_start)) @ y on a uniform grid of
    (t_start, t_end]: 400 rows, or fewer where floats cannot resolve them.
    A generator that is not finite raises IntegrationError at t_start, and
    drift beyond ``cap`` at the first row that shows it, "in the exact
    propagation"."""
    if not np.isfinite(gen).all():
        raise IntegrationError("right-hand side is not finite", t_start)
    rows = int(min(400, max(1.0, (t_end - t_start) / (
        4.0 * np.spacing(max(abs(t_start), abs(t_end)))))))
    times = np.linspace(t_start, t_end, rows + 1)
    states = np.empty((_N_STATE, rows + 1))
    states[:, 0] = y
    step = expm(gen * ((t_end - t_start) / rows))
    states[:, 1] = step @ y
    # with rows 1 .. m filled and step raised to the m-th power, rows
    # m + 1 .. 2m are step @ rows 1 .. m: 2 log2(rows) products, not rows
    m = 1
    while m < rows:
        k = min(m, rows - m)
        states[:, m + 1:m + k + 1] = step @ states[:, 1:k + 1]
        step = step @ step
        m += k
    _check_drift(times, states, cap, "exact propagation")
    return times[1:], states[:, 1:]


def evolve(rho0: np.ndarray, drive, decay: DecayRates, deph: DephasingModel,
           t_span: tuple[float, float] | None = None, tol: float = 1e-9
           ) -> Trajectory:
    """Integrate the master equation from ``rho0`` over ``t_span``.

    ``_window_steps`` (one drive, rtol = atol = ``tol``) steps the part
    inside the pulse window of a ``PulseDrive`` in its pulse time, storing
    every accepted step at t0 + sigma tau; ``tol`` sets their length.  It
    bounds the error of each step, not of the result: against DOP853 at
    rtol 1e-13 on the same window, the emission it gives for one pulse is
    up to ~3*tol off.  Below tol 1e-8 the window's neglected drive sets
    the error instead: 30*tol at tol 1e-9 and 293*tol at 1e-10 against a
    window of |tau| <= 8 (sigma 1, delta_x 0.5; ``emission_after_pulse``).
    Outside the window the drive is off (``pulse_window``), and the state
    is propagated exactly with r0 + deph.rate(0) rp onto a uniform grid.
    A ``ConstantDrive`` is propagated exactly over the whole span with
    r0 + omega0 rd + deph.rate(omega0) rp, onto at most 400 uniform rows;
    ``tol`` then sets only the drift cap.  No renormalization is applied:
    drift beyond 100*tol, a generator that is not finite, or a failed step
    raises IntegrationError with its time.  Every field of ``drive`` and
    of ``deph`` must be one value, since one trajectory is stored.
    """
    if t_span is None:
        t_span = default_t_span(drive, decay)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    check_tol(tol)
    for model in (drive, deph):
        for f in fields(model):
            size = np.size(getattr(model, f.name))
            if size != 1:
                raise ValueError(f"evolve takes one {f.name}, got {size}")
    r0, rd, rp = _real_generator(drive, decay)
    cap = 100.0 * tol
    parts = [(np.array([t0]), _initial_state(rho0, cap, t0)[:, None])]
    # Overflow and NaN end as IntegrationError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        # the window is stepped over (a, b), where the drive is on; gen is
        # constant outside
        if isinstance(drive, PulseDrive):
            a, b = (min(max(t, t0), t1) for t in pulse_window(drive))
            gen = r0 + float(deph.rate(0.0)) * rp
        else:
            a = b = t1
            gen = r0 + drive.omega0 * rd + float(deph.rate(drive.omega0)) * rp
        if a > t0:
            parts.append(_propagate_exactly(gen, parts[-1][1][:, -1], t0, a, cap))
        if b > a:
            steps = _window_steps(parts[-1][1][:, -1:], drive, decay, deph,
                                  ((a - drive.t0) / drive.sigma,
                                   (b - drive.t0) / drive.sigma), tol)
            next(steps)  # the start is stored already
            ts, ys = zip(*steps)
            parts.append((np.array(ts, dtype=float), np.hstack(ys)))
        if t1 > b:
            parts.append(_propagate_exactly(gen, parts[-1][1][:, -1], b, t1, cap))
    ys = np.hstack([y for _, y in parts])
    return Trajectory(times=np.concatenate([t for t, _ in parts]),
                      states=np.einsum("kn,kij->nij", ys[:9], _BASIS),
                      integrals=ys[9:].T)


# --- emission probabilities -------------------------------------------------

def emission_after_pulse(drive: PulseDrive, decay: DecayRates,
                         deph: DephasingModel, tol: float = 1e-8
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Total (p_x, p_b) of one pulse from the ground state, shape (N,), for
    each of the N peak amplitudes in ``drive.omega0``; ``drive.sigma``,
    ``drive.t0`` and the fields of ``deph`` may instead hold one value per
    amplitude.

    The pulse windows of all amplitudes are stepped as one system in pulse
    time, whatever their sigma and whichever method steps them: one
    ``_window_steps`` call.  p_i is gamma_i times the integral of the
    level-i population it carries, plus the emission after the pulse in
    closed form.  After the drive is off the populations decay freely, so
    the remaining emission of a level with a positive rate equals the
    population left on it, and rho_bb also feeds the exciton.  A level
    with zero rate emits nothing after the pulse.  ``tol`` bounds each
    amplitude's error of each step, not of p (``_window_steps``: DOP853
    bounds each amplitude's own norm at ``tol``, Radau the batch's RMS at
    max(tol/sqrt(N), ``TOL_FLOOR``)), so where Radau steps a batch below
    tol = ``TOL_FLOOR`` sqrt(N), each amplitude's step error is bounded by
    ``TOL_FLOOR`` sqrt(N) instead of tol.  Against DOP853 at rtol 1e-13 on
    the same window, p is up to ~3*tol off, in a batch and for one
    amplitude alike.  The window neglects the drive outside
    |tau| <= ``PULSE_HALF_WIDTH``, and below tol 1e-8 that sets the error:
    against a window of |tau| <= 8 at rtol 1e-13 (sigma 1, delta_x 0.5, no
    dephasing, areas 1-30) the worst measured error is 5.6*tol at tol 1e-8,
    30*tol at 1e-9 and 293*tol at 1e-10.
    When the whole system fails (a failed step, or the step budget), an
    IntegrationError's ``t`` is drive 0's time, which may not be the drive
    the method cannot follow; its message names the method and gives the
    pulse time tau shared by all.
    """
    check_tol(tol)
    n = np.size(drive.omega0)
    start, end = (np.broadcast_to(t, (n,)) for t in pulse_window(drive))
    narrow = ~(end > start)
    if narrow.any():
        i = np.argmax(narrow)
        raise ValueError(f"pulse window ({start[i]}, {end[i]}) has no width")
    y0 = _initial_state(GROUND, 100.0 * tol, start[0])[:, None]
    span = (-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH)
    with np.errstate(over="ignore", invalid="ignore"):  # see _window_steps
        for _, y in _window_steps(np.repeat(y0, n, axis=1), drive, decay,
                                  deph, span, tol):
            pass
    tail_b = y[B] if decay.gamma_b > 0 else 0.0
    tail_x = y[X] + tail_b if decay.gamma_x > 0 else 0.0
    return decay.gamma_x * y[9] + tail_x, decay.gamma_b * y[10] + tail_b


def cumulative_emission(traj: Trajectory, decay: DecayRates) -> tuple[np.ndarray, np.ndarray]:
    """Emitted-photon probabilities (P_x, P_b) up to each stored time.

    P_i = gamma_i times the integral of the level-i population from the
    start of the trajectory, carried with each row; the last row gives the
    emission over the whole span.  Exciton emission includes the cascade
    fed by biexciton decay, so P_x >= P_b in the absence of re-excitation.
    """
    return (decay.gamma_x * traj.integrals[:, 0],
            decay.gamma_b * traj.integrals[:, 1])


def export_trajectory_csv(traj: Trajectory, decay: DecayRates, path,
                          params: dict | None = None) -> None:
    """Write the trajectory as CSV with the resolved parameters in the header.

    Values are written at 13 significant digits.  DOP853's step-size
    control magnifies rounding about 10^7-fold into the pulse-window rows
    and their times, so these are byte-reproducible on one numpy/BLAS
    build only: another may change them from about the 9th digit.
    """
    header = "t,rho_gg,rho_xx,rho_bb,re_gb,im_gb,p_x,p_b"
    if params is not None:
        header = "# " + json.dumps(params, sort_keys=True) + "\n" + header
    np.savetxt(path, np.column_stack((
        traj.times, traj.populations, traj.gb_coherence.real,
        traj.gb_coherence.imag, *cumulative_emission(traj, decay))),
        fmt="%.12e", delimiter=",", header=header, comments="",
        encoding="utf-8")
