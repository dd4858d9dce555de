"""Parameter sweeps over pulse area and pulse energy.

Covers the Rabi-oscillation curves used to diagnose intensity-dependent
dephasing, the one-parameter fit of the dephasing amplitude from the
damping of the first Rabi cycle, and the biexciton-to-direct-exciton yield
optimization over pulse energy.

Every photon yield comes from ``emission_after_pulse``, which integrates
the pulse windows of many drives of one pulse shape as one batched system
(``dynamics.pulse_window_populations``), whose state carries the
population integrals, and adds the post-pulse emission in closed form.  A
sweep curve is one batch.  A first-cycle search is five batches: its scan,
then four zoom rounds that refine the maximum and the minimum together.
Only the first search of a fit is so; each later one is four batches, the
zoom rounds started from the previous search's extrema.  A fit returns
each (gamma_i0, ratio) pair it tried in its ``FitResult``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    LN2,
    TOL_FLOOR,
    DecayRates,
    DephasingModel,
    IntegrationError,
    PulseDrive,
    omega0_for_area,
    pulse_window_populations,
)

GROUND = np.diag([1.0, 0.0, 0.0]).astype(complex)

# Positive floor for the direct-exciton yield p_x - p_b; at or below the
# floor the ratio is reported as saturated rather than divergent.
DIRECT_EXCITON_FLOOR = 1e-6

# Areas in the scan that starts a first-cycle search.
_SCAN_SAMPLES = 48

# Each zoom round samples a bracket at 17 points and keeps the two
# neighbours of the best one, 1/8 of the bracket; four rounds narrow it
# 8**4 = 4096 times.
_ZOOM_SAMPLES = 17
_ZOOM_ROUNDS = 4


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
                  omega0: np.ndarray, sigma: float, deph: DephasingModel,
                  decay: DecayRates, delta_x: float, delta_b: float,
                  t0: float, tol: float) -> SweepResult:
    """Evaluate one curve as one batch of drives.

    If the batch fails, its points are integrated one at a time, and each
    failed point leaves NaN entries and an (index, message) failure record.
    """
    drives = [PulseDrive(omega0=w, sigma=sigma, t0=t0, delta_x=delta_x,
                         delta_b=delta_b) for w in omega0]
    failures = []
    try:
        p_x, p_b = emission_after_pulse(drives, decay, deph, tol=tol)
    except IntegrationError:
        p_x = np.full(len(drives), np.nan)
        p_b = np.full(len(drives), np.nan)
        for i, drive in enumerate(drives):
            try:
                (p_x[i],), (p_b[i],) = emission_after_pulse([drive], decay,
                                                            deph, tol=tol)
            except IntegrationError as exc:  # failure marker, sweep continues
                failures.append((i, f"{type(exc).__name__}: {exc}"))
    direct = p_x - p_b
    saturated = direct <= DIRECT_EXCITON_FLOOR
    ratio = p_b / np.maximum(direct, DIRECT_EXCITON_FLOOR)
    return SweepResult(
        abscissa=abscissa, abscissa_kind=abscissa_kind, omega0=omega0,
        p_b=p_b, p_x=p_x, ratio=ratio, saturated=saturated,
        sigma=float(sigma), deph=deph, decay=decay, failures=failures)


def rabi_sweep(sigma: float, deph: DephasingModel, decay: DecayRates,
               areas, tol: float = 1e-8, delta_x: float = 0.5,
               delta_b: float = 0.0, t0: float = 0.0) -> SweepResult:
    """Emission probabilities versus pulse area, starting from the ground state.

    Each point converts the area to a peak amplitude at fixed ``sigma`` and
    records the total biexciton and exciton photon yields of one pulse; the
    whole curve is one ``emission_after_pulse`` batch.  If the batch fails,
    the points are integrated one by one, and failures at individual points
    leave NaN entries and a failure record instead of aborting the sweep.
    """
    areas = np.asarray(areas, dtype=float)
    if len(areas) < 2 or np.any(np.diff(areas) <= 0):
        raise ValueError("areas must be increasing with at least 2 points")
    omega0 = np.array([omega0_for_area(a, sigma) for a in areas])
    return _sweep_points(areas, "area", omega0, sigma, deph, decay,
                         delta_x, delta_b, t0, tol)


# --- emission of one pulse ----------------------------------------------------

def emission_after_pulse(drives, decay: DecayRates, deph: DephasingModel,
                         tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Total (p_x, p_b) of one pulse for each drive, with the radiative tail
    added in closed form.

    The drives must differ only in ``omega0``.  Their pulse windows are
    integrated as one batch (``dynamics.pulse_window_populations``); p_i is
    gamma_i times the integral of the level-i population it carries.  After
    the drive is off the populations decay freely, so the remaining
    emission of a level with a positive rate equals the population left on
    it, and rho_bb also feeds the exciton.  A level with zero rate emits
    nothing after the pulse.  When tol/sqrt(N) would fall below
    ``TOL_FLOOR``, the drives are integrated in chunks of
    floor((tol/TOL_FLOOR)^2).
    """
    n = len(drives)
    p_x, p_b = np.empty(n), np.empty(n)
    chunk = max(1, int((tol / TOL_FLOOR) ** 2))
    for start in range(0, n, chunk):
        part = slice(start, start + chunk)
        rho_xx, rho_bb, int_x, int_b = pulse_window_populations(
            GROUND, drives[part], decay, deph, tol=tol)
        tail_b = rho_bb if decay.gamma_b > 0 else 0.0
        tail_x = rho_xx + tail_b if decay.gamma_x > 0 else 0.0
        p_x[part] = decay.gamma_x * int_x + tail_x
        p_b[part] = decay.gamma_b * int_b + tail_b
    return p_x, p_b


def coherent_first_max_area(sigma: float, delta_x: float) -> float:
    """Pulse area of the first two-photon Rabi maximum, small-leakage estimate.

    Adiabatic elimination of the intermediate level gives an effective
    two-photon coupling omega^2/(2 delta_x); the first population maximum
    sits where its time integral reaches pi.
    """
    omega_sq = 2.0 * math.pi * delta_x / (sigma * math.sqrt(math.pi / (2 * LN2)))
    return math.sqrt(omega_sq) * sigma * math.sqrt(math.pi / LN2)


def _pb_sampler(sigma: float, deph: DephasingModel, decay: DecayRates,
                delta_x: float, delta_b: float, tol: float):
    """p_b at each of an array of areas, as one batch."""
    def pb_of_areas(areas: np.ndarray) -> np.ndarray:
        drives = [PulseDrive(omega0=omega0_for_area(a, sigma), sigma=sigma,
                             delta_x=delta_x, delta_b=delta_b) for a in areas]
        return emission_after_pulse(drives, decay, deph, tol=tol)[1]
    return pb_of_areas


def _scan_areas(sigma: float, delta_x: float) -> np.ndarray:
    """The 48 areas of the scan around the coherent first-cycle scale."""
    return np.linspace(0.15, 2.2, _SCAN_SAMPLES) * coherent_first_max_area(
        sigma, delta_x)


def _scan_brackets(pb_of_areas, grid: np.ndarray):
    """Scan ``grid`` in one batch; return the (lo, hi) brackets, the scan
    neighbours of the first maximum and of the minimum after it."""
    pb = pb_of_areas(grid)
    i_max = next((i for i in range(1, _SCAN_SAMPLES - 1)
                  if pb[i] >= pb[i - 1] and pb[i] >= pb[i + 1]), None)
    if i_max is None:
        raise OverdampedError("no interior first maximum in the scanned window")
    i_min = next((i for i in range(i_max + 1, _SCAN_SAMPLES - 1)
                  if pb[i] <= pb[i - 1] and pb[i] <= pb[i + 1]), None)
    if i_min is None:
        raise OverdampedError("no first minimum after the first maximum")
    return grid[[i_max - 1, i_min - 1]], grid[[i_max + 1, i_min + 1]]


def _zoom_extrema(pb_of_areas, lo: np.ndarray, hi: np.ndarray,
                  warm: bool = False):
    """Refine the maximum in bracket 0 and the minimum in bracket 1
    together: each round samples both brackets at 17 areas in one batch and
    keeps the neighbours of the best sample.  Returns (area_max, pb_max,
    area_min, pb_min), the best samples of the last round; with ``warm``,
    None instead as soon as a best sample of the first round sits at a
    bracket end, where the extremum may lie outside the bracket."""
    sign = np.array([[1.0], [-1.0]])  # maximize row 0, minimize row 1
    rows = np.arange(2)
    for k in range(_ZOOM_ROUNDS):
        areas = np.linspace(lo, hi, _ZOOM_SAMPLES, axis=1)
        pb = pb_of_areas(areas.ravel()).reshape(areas.shape)
        best = np.argmax(sign * pb, axis=1)
        if warm and k == 0 and np.any((best == 0)
                                      | (best == _ZOOM_SAMPLES - 1)):
            return None
        lo = areas[rows, np.maximum(best - 1, 0)]
        hi = areas[rows, np.minimum(best + 1, _ZOOM_SAMPLES - 1)]
    (a_max, a_min), (v_max, v_min) = areas[rows, best], pb[rows, best]
    return float(a_max), float(v_max), float(a_min), float(v_min)


def first_cycle_extrema(sigma: float, deph: DephasingModel, decay: DecayRates,
                        delta_x: float = 0.5, delta_b: float = 0.0,
                        tol: float = 1e-8):
    """Locate the first maximum and following minimum of p_b versus area.

    Returns (area_max, pb_max, area_min, pb_min).  The curve is sampled at
    48 areas around the coherent first-cycle scale in one batch.
    Both extrema are then refined together by zooming: each round samples
    each bracket (at first the scan neighbours of the extremum) at 17 areas
    in one batch and keeps the neighbours of the best sample, so four
    rounds narrow both brackets 4096 times in four batches.  The best
    samples of the last round are returned.  This is the cold search;
    ``fit_gamma_i0`` starts its later searches from the extrema of the
    previous one instead of from the scan.

    Raises OverdampedError when no interior extremum survives the damping.
    """
    pb_of_areas = _pb_sampler(sigma, deph, decay, delta_x, delta_b, tol)
    return _zoom_extrema(pb_of_areas, *_scan_brackets(
        pb_of_areas, _scan_areas(sigma, delta_x)))


def _warm_first_cycle_extrema(sigma: float, deph: DephasingModel,
                              decay: DecayRates, delta_x: float, tol: float,
                              near: tuple[float, float]):
    """``first_cycle_extrema`` zooming from brackets of one scan spacing on
    either side of ``near`` = (area_max, area_min) instead of from the
    scan.  When the first round finds an extremum at a bracket end, the
    extrema have moved too far, and the cold search runs instead."""
    grid = _scan_areas(sigma, delta_x)
    centre, spacing = np.array(near), grid[1] - grid[0]
    found = _zoom_extrema(_pb_sampler(sigma, deph, decay, delta_x, 0.0, tol),
                          centre - spacing, centre + spacing, warm=True)
    if found is None:
        found = first_cycle_extrema(sigma, deph, decay, delta_x=delta_x,
                                    tol=tol)
    return found


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
    ratio matches the target to 1 % is returned.  The first search is
    ``first_cycle_extrema``; each later one zooms from the extrema of the
    previous one, and falls back to ``first_cycle_extrema`` when they have
    moved too far.
    """
    if target_ratio <= 1.0:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    if n_p not in (0, 1, 2, 3, 4):
        raise ValueError(f"n_p must be in 0..4, got {n_p}")
    near = None  # (area_max, area_min) of the last search that found them

    def ratio_of(gamma_i0: float) -> float:
        nonlocal near
        deph = DephasingModel(gamma_bg=gamma_bg, gamma_i0=gamma_i0, n_p=n_p)
        try:
            if near is None:
                found = first_cycle_extrema(sigma, deph, decay,
                                            delta_x=delta_x, tol=tol)
            else:
                found = _warm_first_cycle_extrema(sigma, deph, decay,
                                                  delta_x, tol, near)
        except OverdampedError:
            return 1.0  # beyond any meaningful target; drives bisection down
        a_max, v_max, a_min, v_min = found
        near = a_max, a_min
        return v_max / v_min

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
                delta_x: float = 0.5, delta_b: float = 0.0, t0: float = 0.0,
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
        res = _sweep_points(energy_axis.copy(), "energy",
                            np.sqrt(energy_axis / sigma), sigma, deph, decay,
                            delta_x, delta_b, t0, tol)
        usable = ~res.saturated & np.isfinite(res.ratio)
        if usable.any():
            idx = int(np.argmax(np.where(usable, res.ratio, -np.inf)))
            res.peak_abscissa = float(energy_axis[idx])
            res.peak_ratio = float(res.ratio[idx])
            res.peak_interior = bool(0 < idx < len(energy_axis) - 1)
        results.append(res)
    return results


def export_sweep_csv(result: SweepResult, path, extra_params: dict | None = None) -> None:
    """CSV with a JSON header of all model parameters, one row per point."""
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
    }
    if extra_params:
        params.update(extra_params)
    sqrt_area = math.sqrt(math.pi / LN2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(params, sort_keys=True) + "\n")
        fh.write("theta,omega0,energy,p_b,p_x,ratio,saturated\n")
        for i in range(len(result.abscissa)):
            w = result.omega0[i]
            theta = w * result.sigma * sqrt_area
            energy = w * w * result.sigma
            fh.write(f"{theta:.12e},{w:.12e},{energy:.12e},"
                     f"{result.p_b[i]:.12e},{result.p_x[i]:.12e},"
                     f"{result.ratio[i]:.12e},{int(result.saturated[i])}\n")
