"""Parameter sweeps over pulse area and pulse energy.

Covers the Rabi-oscillation curves used to diagnose intensity-dependent
dephasing, the one-parameter fit of the dephasing amplitude from the
damping of the first Rabi cycle, and the biexciton-to-direct-exciton yield
optimization over pulse energy.

Every photon yield comes from ``dynamics.emission_after_pulse`` on one
``PulseDrive`` whose ``omega0`` holds the peak amplitudes of a batch.  A
sweep curve is one batch, and so is a first-cycle search: p_b at 48
Chebyshev points of area, whose interpolant gives the first maximum and
minimum.  A fit is one such search per gamma_i0 it tries, and returns each
(gamma_i0, ratio) pair in its ``FitResult``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Chebyshev

from .dynamics import (
    LN2,
    DecayRates,
    DephasingModel,
    IntegrationError,
    PulseDrive,
    StepBudgetError,
    emission_after_pulse,
    omega0_for_area,
)

# Positive floor for the direct-exciton yield p_x - p_b; at or below the
# floor the ratio is reported as saturated rather than divergent.
DIRECT_EXCITON_FLOOR = 1e-6

# A first-cycle search integrates p_b at this many Chebyshev points of
# this window, in units of the coherent first-maximum area.
_SCAN_SAMPLES = 48
_SCAN_WINDOW = (0.15, 2.2)


class OverdampedError(RuntimeError):
    """Rabi curve has no resolvable first maximum/minimum pair."""


@dataclass
class SweepResult:
    """One sweep curve; ``abscissa`` is pulse area or pulse energy."""

    abscissa: np.ndarray
    abscissa_kind: str            # "area" or "energy"
    omega0: np.ndarray
    p_b: np.ndarray
    p_x: np.ndarray
    ratio: np.ndarray
    saturated: np.ndarray
    sigma: float
    deph: DephasingModel
    decay: DecayRates
    failures: list = field(default_factory=list)
    peak_abscissa: float | None = None
    peak_ratio: float | None = None
    peak_interior: bool = False

    def flag_reexcitation(self) -> np.ndarray:
        """Points where exciton emission exceeds one photon per pulse."""
        return self.p_x > 1.0


def _sweep_points(abscissa: np.ndarray, abscissa_kind: str,
                  drive: PulseDrive, deph: DephasingModel,
                  decay: DecayRates, tol: float) -> SweepResult:
    """Evaluate one curve, a drive with one omega0 per point, as one batch.

    If the batch fails, its points are integrated one at a time in index
    order, and each failed point leaves NaN entries and an (index, message)
    failure record.  omega0 increases with the index (both sweeps demand
    increasing abscissae), and with it the coupling and the dephasing rate
    at every t; so once a point exhausts the RK45 step budget, every later
    point is recorded as failed without being integrated.
    """
    failures = []
    try:
        p_x, p_b = emission_after_pulse(drive, decay, deph, tol=tol)
    except IntegrationError:
        p_x = np.full(len(abscissa), np.nan)
        p_b = np.full(len(abscissa), np.nan)
        stiff = None  # the point that exhausted the step budget
        for i in range(len(abscissa)):
            if stiff is not None:
                failures.append((i, (
                    f"not integrated: point {stiff} (abscissa "
                    f"{abscissa[stiff]:.6g}) exhausted the RK45 step budget, "
                    f"and a larger omega0 is stiffer")))
                continue
            try:
                (p_x[i],), (p_b[i],) = emission_after_pulse(
                    replace(drive, omega0=drive.omega0[i:i + 1]), decay,
                    deph, tol=tol)
            except IntegrationError as exc:  # failure marker, sweep continues
                failures.append((i, f"{type(exc).__name__}: {exc}"))
                if isinstance(exc, StepBudgetError):
                    stiff = i
    direct = p_x - p_b
    saturated = direct <= DIRECT_EXCITON_FLOOR
    ratio = p_b / np.maximum(direct, DIRECT_EXCITON_FLOOR)
    return SweepResult(
        abscissa=abscissa, abscissa_kind=abscissa_kind, omega0=drive.omega0,
        p_b=p_b, p_x=p_x, ratio=ratio, saturated=saturated,
        sigma=float(drive.sigma), deph=deph, decay=decay, failures=failures)


def rabi_sweep(sigma: float, deph: DephasingModel, decay: DecayRates,
               areas, tol: float = 1e-8, delta_x: float = 0.5,
               delta_b: float = 0.0) -> SweepResult:
    """Emission probabilities versus pulse area, starting from the ground state.

    Each point converts the area to a peak amplitude at fixed ``sigma`` and
    records the total biexciton and exciton photon yields of one pulse; the
    whole curve is one ``emission_after_pulse`` batch.  If the batch fails,
    the points are integrated one by one (``_sweep_points``), and failures
    at individual points leave NaN entries and a failure record instead of
    aborting the sweep.
    """
    areas = np.asarray(areas, dtype=float)
    if len(areas) < 2 or np.any(np.diff(areas) <= 0):
        raise ValueError("areas must be increasing with at least 2 points")
    drive = PulseDrive(omega0=omega0_for_area(areas, sigma), sigma=sigma,
                       delta_x=delta_x, delta_b=delta_b)
    return _sweep_points(areas, "area", drive, deph, decay, tol)


def coherent_first_max_area(sigma: float, delta_x: float) -> float:
    """Pulse area of the first two-photon Rabi maximum, small-leakage estimate.

    Adiabatic elimination of the intermediate level gives an effective
    two-photon coupling omega^2/(2 delta_x); the first population maximum
    sits where its time integral reaches pi.
    """
    if not delta_x > 0:
        raise ValueError(f"delta_x must be > 0, got {delta_x}")
    omega_sq = 2.0 * math.pi * delta_x / (sigma * math.sqrt(math.pi / (2 * LN2)))
    return math.sqrt(omega_sq) * sigma * math.sqrt(math.pi / LN2)


def first_cycle_extrema(sigma: float, deph: DephasingModel, decay: DecayRates,
                        delta_x: float = 0.5, tol: float = 1e-8):
    """Locate the first maximum and following minimum of p_b versus area.

    Returns (area_max, pb_max, area_min, pb_min).  p_b is integrated in one
    ``emission_after_pulse`` batch at the 48 Chebyshev points of the
    window [0.15, 2.2] x ``coherent_first_max_area``, and interpolated
    there by a degree-47 Chebyshev series (``Chebyshev.interpolate``, i.e.
    ``chebinterpolate`` mapped onto the window).  The extrema are the real
    roots of its derivative inside the window: the first with negative
    curvature is the maximum, the next with positive curvature the
    minimum.  The interpolant's values there are returned.

    All drives of a batch are one RK45 system and share one step sequence,
    so the integrator's error is a smooth function of area, and the
    interpolant converges spectrally, down to the integrator's tolerance.
    Chunking in ``emission_after_pulse`` would break this; it starts below
    48 drives only for tol < ~1.5e-13.

    Raises OverdampedError when no interior extremum survives the damping.
    """
    def pb_of_areas(areas: np.ndarray) -> np.ndarray:
        drive = PulseDrive(omega0=omega0_for_area(areas, sigma), sigma=sigma,
                           delta_x=delta_x)
        return emission_after_pulse(drive, decay, deph, tol=tol)[1]

    window = np.array(_SCAN_WINDOW) * coherent_first_max_area(sigma, delta_x)
    pb = Chebyshev.interpolate(pb_of_areas, _SCAN_SAMPLES - 1, domain=window)
    roots = pb.deriv().roots()
    roots = roots[(roots.imag == 0) & (roots.real > window[0])
                  & (roots.real < window[1])].real
    curvature = pb.deriv(2)(roots)
    i_max = next((i for i, c in enumerate(curvature) if c < 0), None)
    if i_max is None:
        raise OverdampedError("no interior first maximum in the scanned window")
    i_min = next((i for i in range(i_max + 1, len(roots))
                  if curvature[i] > 0), None)
    if i_min is None:
        raise OverdampedError("no first minimum after the first maximum")
    a_max, a_min = roots[i_max], roots[i_min]
    return float(a_max), float(pb(a_max)), float(a_min), float(pb(a_min))


def first_cycle_ratio(sigma: float, deph: DephasingModel, decay: DecayRates,
                      delta_x: float = 0.5, tol: float = 1e-8) -> float:
    """(first maximum of p_b) / (first minimum of p_b)."""
    _, v_max, _, v_min = first_cycle_extrema(sigma, deph, decay,
                                             delta_x=delta_x, tol=tol)
    return v_max / v_min


GAMMA_I0_BRACKET_MAX = 10.0

# A fit stops within this fraction of its target, or fails after this many.
_FIT_REL_TOL = 0.01
_FIT_MAX_EVALS = 70


@dataclass(frozen=True)
class FitResult:
    """Fitted gamma_i0, its ratio, and each (gamma_i0, ratio) tried, in order."""

    gamma_i0: float
    ratio: float
    evaluations: list[tuple[float, float]]


def fit_gamma_i0(n_p: int, target_ratio: float, sigma: float,
                 decay: DecayRates, gamma_bg: float = 0.0,
                 delta_x: float = 0.5, tol: float = 1e-8) -> FitResult:
    """Dephasing amplitude reproducing a first-cycle max/min ratio.

    The simulated ratio decreases monotonically with gamma_i0.  The search
    starts at 0.02; while the ratio stays above ``target_ratio`` the value
    doubles, within [0, 10], each old value becoming the lower end of the
    bracket; then deterministic bisection.  gamma_i0 = 0 is searched only
    when the ratio at 0.02 is already below the target, the one case where
    the target may be unreachable; it then counts towards
    ``_FIT_MAX_EVALS``.  No value is searched twice, and the first whose
    ratio matches the target to 1 % is returned.  Each search is one
    ``first_cycle_ratio``, so one batch of 48 drives.
    """
    if target_ratio <= 1.0:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    if n_p not in (0, 1, 2, 3, 4):
        raise ValueError(f"n_p must be in 0..4, got {n_p}")

    def ratio_of(gamma_i0: float) -> float:
        deph = DephasingModel(gamma_bg=gamma_bg, gamma_i0=gamma_i0, n_p=n_p)
        try:
            return first_cycle_ratio(sigma, deph, decay, delta_x=delta_x,
                                     tol=tol)
        except OverdampedError:
            return 1.0  # beyond any meaningful target; drives bisection down

    evaluations = []
    lo, hi, gamma = None, math.inf, 0.02  # lo None: gamma_i0 = 0 unsearched
    while len(evaluations) < _FIT_MAX_EVALS:
        r = ratio_of(gamma)
        evaluations.append((gamma, r))
        if abs(r - target_ratio) <= _FIT_REL_TOL * target_ratio:
            return FitResult(gamma, r, evaluations)
        if r > target_ratio:
            lo = gamma
        else:
            hi = gamma
            if lo is None:
                evaluations.append((0.0, ratio_of(0.0)))
                if evaluations[-1][1] < target_ratio:
                    raise ValueError(
                        f"target ratio {target_ratio:.4g} unreachable: "
                        f"undamped curve already gives "
                        f"{evaluations[-1][1]:.4g}")
                lo = 0.0
        gamma = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if gamma > GAMMA_I0_BRACKET_MAX:
            raise ValueError(
                f"target ratio {target_ratio:.4g} unreachable within "
                f"gamma_i0 <= {GAMMA_I0_BRACKET_MAX}")
    raise RuntimeError(
        f"fit did not reach {_FIT_REL_TOL:.1%} of target after "
        f"{_FIT_MAX_EVALS} evaluations (bracket [{lo:.4g}, {hi:.4g}])")


def ratio_sweep(sigmas, energy_axis, deph: DephasingModel, decay: DecayRates,
                delta_x: float = 0.5, delta_b: float = 0.0,
                tol: float = 1e-8) -> list[SweepResult]:
    """Biexciton vs direct-exciton yield over pulse energy, per pulse length.

    The abscissa is omega0^2 * sigma (proportional to energy per pulse) so
    curves for different sigmas are comparable.  The direct-exciton yield is
    taken as p_x - p_b: every biexciton decay feeds exactly one cascade
    exciton photon, so the excess isolates direct excitation of the exciton.
    Each curve is one ``emission_after_pulse`` batch giving both yields of
    one pulse at every point; failed points are handled as in
    ``rabi_sweep``.
    With delta_x = 0 the exciton transition is resonant and the ratio
    collapses; a finite delta_x is required for meaningful curves.

    Each curve reports the location/value of its ratio maximum and whether
    that maximum is interior to the scanned range.
    """
    if len(sigmas) == 0:
        raise ValueError("need at least one pulse length")
    energy_axis = np.asarray(energy_axis, dtype=float)
    if np.any(np.diff(energy_axis) <= 0):
        raise ValueError("energy axis must be strictly increasing")

    results = []
    for sigma in sigmas:
        drive = PulseDrive(omega0=np.sqrt(energy_axis / sigma), sigma=sigma,
                           delta_x=delta_x, delta_b=delta_b)
        res = _sweep_points(energy_axis.copy(), "energy", drive, deph, decay,
                            tol)
        usable = ~res.saturated & np.isfinite(res.ratio)
        if usable.any():
            idx = int(np.argmax(np.where(usable, res.ratio, -np.inf)))
            res.peak_abscissa = float(energy_axis[idx])
            res.peak_ratio = float(res.ratio[idx])
            res.peak_interior = bool(0 < idx < len(energy_axis) - 1)
        results.append(res)
    return results


def export_sweep_csv(result: SweepResult, path, extra_params: dict | None = None) -> None:
    """CSV with a JSON header of all model parameters and of each failed
    point (index, abscissa, error), one row per point."""
    params = {
        "abscissa_kind": result.abscissa_kind,
        "sigma": result.sigma,
        "dephasing": {"gamma_bg": result.deph.gamma_bg,
                      "gamma_i0": result.deph.gamma_i0,
                      "n_p": result.deph.n_p},
        "decay": {"gamma_b": result.decay.gamma_b,
                  "gamma_x": result.decay.gamma_x},
        "peak_abscissa": result.peak_abscissa,
        "peak_ratio": result.peak_ratio,
        "peak_interior": result.peak_interior,
        "failures": [{"index": i, "abscissa": float(result.abscissa[i]),
                      "error": error} for i, error in result.failures],
    }
    if extra_params:
        params.update(extra_params)
    sqrt_area = math.sqrt(math.pi / LN2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(params, sort_keys=True) + "\n")
        fh.write("theta,omega0,energy,p_b,p_x,ratio,saturated\n")
        for i in range(len(result.abscissa)):
            w = float(result.omega0[i])  # w * w may overflow to inf silently
            theta = w * result.sigma * sqrt_area
            energy = w * w * result.sigma
            fh.write(f"{theta:.12e},{w:.12e},{energy:.12e},"
                     f"{result.p_b[i]:.12e},{result.p_x[i]:.12e},"
                     f"{result.ratio[i]:.12e},{int(result.saturated[i])}\n")
