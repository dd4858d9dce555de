"""Parameter sweeps over pulse area and pulse energy.

Covers the Rabi-oscillation curves used to diagnose intensity-dependent
dephasing, the one-parameter fit of the dephasing amplitude from the
damping of the first Rabi cycle, and the biexciton-to-direct-exciton yield
optimization over pulse energy.

Every photon yield comes from ``dynamics.emission_after_pulse`` on one
``PulseDrive`` whose ``omega0`` holds the peak amplitudes of a batch,
stepped in pulse time so that drives of different sigma and dephasing
share one step sequence.  A sweep is one batch over all its curves (every
dephasing model of a Rabi sweep, every sigma of a ratio sweep), and if it
fails, each point is integrated alone.  A first-cycle search is one batch:
p_b at 36 Chebyshev points of area, whose interpolant gives the first
maximum and minimum, integrated again at 48 points when the tail of that
interpolant's Chebyshev series exceeds tol.  A fit searches 6 gamma_i0
values in one batch of 6 such blocks, the Chebyshev-Lobatto points of an
interval, and takes the root of the interpolant of 1/ratio on the first
interval that brackets its target; its ``FitResult`` holds every
(gamma_i0, ratio) pair integrated, and the area count and tail of the
interval that gave the fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial import polyutils as pu
from numpy.polynomial.chebyshev import chebinterpolate, chebpts2

from .dynamics import (
    DecayRates,
    DephasingModel,
    IntegrationError,
    PulseDrive,
    StepBudgetError,
    emission_after_pulse,
    omega0_for_area,
    pulse_area,
    pulse_energy,
)

# Positive floor for the direct-exciton yield p_x - p_b; at or below the
# floor the ratio is reported as saturated rather than divergent.
DIRECT_EXCITON_FLOOR = 1e-6

# A first-cycle search integrates p_b at the Chebyshev points of this
# window, in units of the coherent first-maximum area: as many as the first
# count, then, if the interpolant of any block leaves a tail above tol, as
# many as the second, once.  Tails at tol 1e-8, sigma 12, delta_x 3.5:
# n_p 2 with gamma_i0 0-0.24 reads <= 1.2e-12 at 36 areas; n_p 4 reads
# <= 2e-9, but 2e-8 at gamma_i0 0.08, which reruns (at 32 areas gamma_i0
# 0.03 and 0.04 read 3e-8 and 5e-8).
_SCAN_SAMPLES = (36, 48)
_SCAN_WINDOW = (0.15, 2.2)
# A fit integrates this many gamma_i0 values per batch: the
# Chebyshev-Lobatto points of one interval, both ends included.
_FIT_SAMPLES = 6


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


def _curve(abscissa: np.ndarray, abscissa_kind: str, drive: PulseDrive,
           deph: DephasingModel, decay: DecayRates, p_x: np.ndarray,
           p_b: np.ndarray, failures: list) -> SweepResult:
    direct = p_x - p_b
    saturated = direct <= DIRECT_EXCITON_FLOOR
    ratio = p_b / np.maximum(direct, DIRECT_EXCITON_FLOOR)
    return SweepResult(
        abscissa=abscissa, abscissa_kind=abscissa_kind, omega0=drive.omega0,
        p_b=p_b, p_x=p_x, ratio=ratio, saturated=saturated,
        sigma=float(drive.sigma), deph=deph, decay=decay, failures=failures)


def _sweep_points(abscissa: np.ndarray, abscissa_kind: str, curves: list,
                  decay: DecayRates, tol: float) -> list[SweepResult]:
    """Evaluate the curves, (drive, model) pairs whose drives have one
    omega0 per point and differ only in omega0 and sigma, as one batch; one
    ``SweepResult`` per curve, with its own sigma and model.

    A sigma or a model field that the curves share stays one value in the
    batch; otherwise each curve's value is repeated over its points.  If
    the batch fails, every point is integrated alone, curve by curve in
    index order, and each failed point leaves NaN entries and an (index,
    message) failure record.  omega0 increases with the index (both sweeps
    demand increasing abscissae), and with it the coupling, the oscillation
    rate and the dephasing rate at every t; so once a point exhausts the
    window step budget, every later point of its curve is recorded as
    failed without being integrated.
    """
    n = len(abscissa)
    drives, models = zip(*curves)

    def per_point(values):
        return values[0] if len(set(values)) == 1 else np.repeat(values, n)

    drive = replace(drives[0],
                    omega0=np.concatenate([d.omega0 for d in drives]),
                    sigma=per_point([d.sigma for d in drives]))
    deph = DephasingModel(*(per_point([getattr(m, name) for m in models])
                            for name in ("gamma_bg", "gamma_i0", "n_p")))
    failures = [[] for _ in curves]
    try:
        p_x, p_b = emission_after_pulse(drive, decay, deph, tol=tol)
    except IntegrationError:
        p_x, p_b = np.full((2, len(drive.omega0)), np.nan)
        stiff = {}  # curve -> its point that exhausted the step budget
        for j in range(len(drive.omega0)):
            k, i = divmod(j, n)
            if k in stiff:
                failures[k].append((i, (
                    f"not integrated: point {stiff[k]} (abscissa "
                    f"{abscissa[stiff[k]]:.6g}) exhausted the window step "
                    f"budget, and a larger omega0 needs more steps")))
                continue
            try:
                (p_x[j],), (p_b[j],) = emission_after_pulse(
                    replace(drives[k], omega0=drive.omega0[j:j + 1]), decay,
                    models[k], tol=tol)
            except IntegrationError as exc:  # failure marker, sweep continues
                failures[k].append((i, f"{type(exc).__name__}: {exc}"))
                if isinstance(exc, StepBudgetError):
                    stiff[k] = i
    return [_curve(abscissa, abscissa_kind, d, m, decay,
                   p_x[k * n:(k + 1) * n], p_b[k * n:(k + 1) * n], failures[k])
            for k, (d, m) in enumerate(curves)]


def rabi_sweep(sigma: float, models: list[DephasingModel], decay: DecayRates,
               areas, tol: float = 1e-8, delta_x: float = 0.5,
               delta_b: float = 0.0) -> list[SweepResult]:
    """Emission probabilities versus pulse area from the ground state, one
    curve per dephasing model.

    Each point converts the area to a peak amplitude at fixed ``sigma`` and
    records the total biexciton and exciton photon yields of one pulse;
    all curves are one ``emission_after_pulse`` batch, whose drives carry
    their model's dephasing.  If the batch fails, every point is
    integrated alone (``_sweep_points``), and failures at individual points
    leave NaN entries and a failure record instead of aborting the sweep.
    """
    if len(models) == 0:
        raise ValueError("need at least one dephasing model")
    areas = np.asarray(areas, dtype=float)
    if len(areas) < 2 or np.any(np.diff(areas) <= 0):
        raise ValueError("areas must be increasing with at least 2 points")
    drive = PulseDrive(omega0=omega0_for_area(areas, sigma), sigma=sigma,
                       delta_x=delta_x, delta_b=delta_b)
    return _sweep_points(areas, "area", [(drive, m) for m in models], decay,
                         tol)


def coherent_first_max_area(sigma: float, delta_x: float) -> float:
    """Pulse area of the first two-photon Rabi maximum, small-leakage estimate.

    Adiabatic elimination of the intermediate level gives an effective
    two-photon coupling omega^2/(2 delta_x); the first population maximum
    sits where its time integral reaches pi.
    """
    if not delta_x > 0:
        raise ValueError(f"delta_x must be > 0, got {delta_x}")
    # omega^2 is a Gaussian of width sigma / sqrt(2), of area omega0^2 times
    # that of a unit drive of this width
    squared = pulse_area(PulseDrive(1.0, sigma / math.sqrt(2.0)))
    return pulse_area(PulseDrive(math.sqrt(2.0 * math.pi * delta_x / squared),
                                 sigma))


def _first_cycles(sigma: float, deph: DephasingModel, decay: DecayRates,
                  delta_x: float, tol: float) -> tuple[list, int, float]:
    """First-cycle extrema of p_b versus area for each of the K values in
    ``deph.gamma_i0``, as one ``emission_after_pulse`` batch of K blocks of
    36 areas; ``first_cycle_extrema`` is the case K = 1.

    The tail of a block is the larger magnitude of the last two Chebyshev
    coefficients of its interpolant (Aurentz and Trefethen, "Chopping a
    Chebyshev series", ACM TOMS 43 (2017)).  If any block's tail exceeds
    ``tol``, the absolute tolerance of each p_b, every block is integrated
    again in one batch of 48 areas, which is kept whatever its tail: the
    interpolant of a block never mixes two batches, and the blocks of a
    fit's interval share one step sequence.  A fit's batch is 6 x 36 = 216
    drives, which ``emission_after_pulse`` steps whole, as every batch.

    Returns the extrema, one (area_max, pb_max, area_min, pb_min) per value
    or None where no interior first maximum and following minimum survive
    the damping; the area count of the batch they come from; and the
    largest tail of its blocks.
    """
    gamma_i0 = np.atleast_1d(deph.gamma_i0)
    window = np.array(_SCAN_WINDOW) * coherent_first_max_area(sigma, delta_x)

    def pb_of_x(x: np.ndarray) -> np.ndarray:
        areas = pu.mapdomain(x, Chebyshev.window, window)
        drive = PulseDrive(omega0=np.tile(omega0_for_area(areas, sigma),
                                          len(gamma_i0)),
                           sigma=sigma, delta_x=delta_x)
        columns = replace(deph, gamma_i0=np.repeat(gamma_i0, len(areas)))
        p_b = emission_after_pulse(drive, decay, columns, tol=tol)[1]
        return p_b.reshape(len(gamma_i0), len(areas)).T

    for samples in _SCAN_SAMPLES:
        coefs = chebinterpolate(pb_of_x, samples - 1)  # (samples, K)
        tail = float(np.abs(coefs[-2:]).max())
        if tail <= tol:
            break
    extrema = []
    for coef in coefs.T:
        pb = Chebyshev(coef, domain=window)
        roots = pb.deriv().roots()
        roots = roots[(roots.imag == 0) & (roots.real > window[0])
                      & (roots.real < window[1])].real
        curvature = pb.deriv(2)(roots)
        i_max = next((i for i, c in enumerate(curvature) if c < 0), None)
        i_min = None if i_max is None else next(
            (i for i in range(i_max + 1, len(roots)) if curvature[i] > 0),
            None)
        if i_min is None:
            extrema.append(None)
            continue
        a_max, a_min = roots[i_max], roots[i_min]
        extrema.append((float(a_max), float(pb(a_max)), float(a_min),
                        float(pb(a_min))))
    return extrema, samples, tail


def first_cycle_extrema(sigma: float, deph: DephasingModel, decay: DecayRates,
                        delta_x: float = 0.5, tol: float = 1e-8):
    """Locate the first maximum and following minimum of p_b versus area.

    Returns (area_max, pb_max, area_min, pb_min).  p_b is integrated in one
    ``emission_after_pulse`` batch at the 36 Chebyshev points of the
    window [0.15, 2.2] x ``coherent_first_max_area``, and interpolated
    there by a degree-35 Chebyshev series (``chebinterpolate`` mapped onto
    the window); if the tail of that series exceeds ``tol``, at 48 points
    and degree 47 instead (``_first_cycles``).  The extrema are the real
    roots of its derivative inside the window: the first with negative
    curvature is the maximum, the next with positive curvature the
    minimum.  The interpolant's values there are returned.

    All drives of a batch are one system and share one step sequence,
    so the integrator's error is a smooth function of area, and the
    interpolant converges spectrally, down to the integrator's tolerance.

    Raises OverdampedError when no interior extremum pair survives the
    damping.
    """
    (extrema,), _, _ = _first_cycles(sigma, deph, decay, delta_x, tol)
    if extrema is None:
        raise OverdampedError("no interior first maximum followed by a "
                              "minimum in the scanned window")
    return extrema


def first_cycle_ratio(sigma: float, deph: DephasingModel, decay: DecayRates,
                      delta_x: float = 0.5, tol: float = 1e-8) -> float:
    """(first maximum of p_b) / (first minimum of p_b)."""
    _, v_max, _, v_min = first_cycle_extrema(sigma, deph, decay,
                                             delta_x=delta_x, tol=tol)
    return v_max / v_min


GAMMA_I0_BRACKET_MAX = 10.0


class UnreachableTargetError(ValueError):
    """No gamma_i0 in [0, GAMMA_I0_BRACKET_MAX] gives the target ratio."""


@dataclass(frozen=True)
class FitResult:
    """Fitted gamma_i0, its ratio, and each (gamma_i0, ratio) integrated,
    in order; ``scan_samples`` and ``scan_tail`` are the area count of the
    batch of the interval that gave ``gamma_i0`` and the largest tail of
    its blocks (``_first_cycles``)."""

    gamma_i0: float
    ratio: float
    evaluations: list[tuple[float, float]]
    scan_samples: int
    scan_tail: float

    @property
    def bracket(self) -> tuple[float, float]:
        """The interval whose interpolant gave ``gamma_i0``: the ends of
        the last batch of ``_FIT_SAMPLES`` evaluations."""
        return self.evaluations[-_FIT_SAMPLES][0], self.evaluations[-1][0]


def check_fit_target(n_p: int, target_ratio: float) -> None:
    """Raise ValueError naming the argument that fit_gamma_i0 refuses."""
    if isinstance(n_p, (bool, np.bool_)) or n_p not in (0, 1, 2, 3, 4):
        raise ValueError(f"n_p must be an integer in 0..4, got {n_p!r}")
    if not target_ratio > 1.0:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")


def fit_gamma_i0(n_p: int, target_ratio: float, sigma: float,
                 decay: DecayRates, gamma_bg: float = 0.0,
                 delta_x: float = 0.5, tol: float = 1e-8) -> FitResult:
    """Dephasing amplitude reproducing a first-cycle max/min ratio.

    The simulated ratio decreases monotonically with gamma_i0, and
    1/ratio = pb_min/pb_max is nearly linear in it.  The search integrates
    one interval [lo, hi] at a time, as one ``_first_cycles`` batch at its
    6 Chebyshev-Lobatto points (``_FIT_SAMPLES``, both ends included).  It
    starts at [0.02, 0.04].  While the ratio at hi is above
    ``target_ratio`` the next interval is [hi, 2 hi], up to
    ``GAMMA_I0_BRACKET_MAX``; if the ratio at 0.02 is below it, the one
    next interval is [0, 0.02].  A sample without first-cycle extrema
    reads as ratio 1.  It is not a smooth point, so an interval with such
    a sample before hi is narrowed to [lo, that sample] and integrated
    again.  The fit is the root of the degree-5 Chebyshev interpolant of
    1/ratio on the first interval whose ends bracket the target, and its
    ``ratio`` is the interpolant's value there; ``evaluations`` holds
    every sample, interval by interval, and ``scan_samples`` and
    ``scan_tail`` say how well that interval's batch resolved its Rabi
    curves.

    Raises UnreachableTargetError when the ratio at gamma_i0 = 0 is below
    the target, or the ratio at ``GAMMA_I0_BRACKET_MAX`` above it.
    """
    check_fit_target(n_p, target_ratio)
    evaluations, scans = [], []

    def sample(lo: float, hi: float):
        x = chebpts2(_FIT_SAMPLES)
        gammas = 0.5 * (lo * (1.0 - x) + hi * (1.0 + x))  # ends exact
        deph = DephasingModel(gamma_bg=gamma_bg, gamma_i0=gammas, n_p=n_p)
        extrema, *scan = _first_cycles(sigma, deph, decay, delta_x, tol)
        scans.append(scan)
        ratios = np.array([1.0 if e is None else e[1] / e[3]
                           for e in extrema])
        evaluations.extend(zip(gammas.tolist(), ratios.tolist()))
        return gammas, ratios, [e is None for e in extrema]

    lo, hi = 0.02, 0.04
    gammas, ratios, overdamped = sample(lo, hi)
    if ratios[0] < target_ratio:
        lo, hi = 0.0, lo
        gammas, ratios, overdamped = sample(lo, hi)
        if ratios[0] < target_ratio:
            raise UnreachableTargetError(
                f"target ratio {target_ratio:.4g} unreachable: the ratio at "
                f"gamma_i0 = 0 with gamma_bg = {gamma_bg:.4g} is "
                f"{ratios[0]:.4g}, and gamma_i0 only lowers it")
    while ratios[-1] > target_ratio:
        if hi >= GAMMA_I0_BRACKET_MAX:
            raise UnreachableTargetError(
                f"target ratio {target_ratio:.4g} unreachable: the ratio at "
                f"gamma_i0 = {hi:.4g} is still {ratios[-1]:.4g}")
        lo, hi = hi, min(2.0 * hi, GAMMA_I0_BRACKET_MAX)
        gammas, ratios, overdamped = sample(lo, hi)
    while any(overdamped[:-1]):
        hi = gammas[overdamped.index(True)]
        gammas, ratios, overdamped = sample(lo, hi)
    fit = Chebyshev.fit(gammas, 1.0 / ratios, _FIT_SAMPLES - 1,
                        domain=[lo, hi])
    # the smallest real root in [lo, hi], or the nearest one where rounding
    # puts a root at an end just outside
    roots = (fit - 1.0 / target_ratio).roots()
    roots = np.sort(roots[roots.imag == 0].real)
    outside = np.abs(roots - np.clip(roots, lo, hi))
    gamma = float(np.clip(roots[np.argmin(outside)], lo, hi))
    return FitResult(gamma, float(1.0 / fit(gamma)), evaluations, *scans[-1])


def ratio_sweep(sigmas, energy_axis, deph: DephasingModel, decay: DecayRates,
                delta_x: float = 0.5, delta_b: float = 0.0,
                tol: float = 1e-8) -> list[SweepResult]:
    """Biexciton vs direct-exciton yield over pulse energy, per pulse length.

    The abscissa is omega0^2 * sigma (proportional to energy per pulse) so
    curves for different sigmas are comparable.  The direct-exciton yield is
    taken as p_x - p_b: every biexciton decay feeds exactly one cascade
    exciton photon, so the excess isolates direct excitation of the exciton.
    All curves are one ``emission_after_pulse`` batch, stepped in pulse
    time whatever their sigma, giving both yields of one pulse at every
    point; failed curves and points are handled as in ``rabi_sweep``.
    With delta_x = 0 the exciton transition is resonant and the ratio
    collapses; a finite delta_x is required for meaningful curves.

    Each curve reports the location/value of its ratio maximum and whether
    that maximum is interior to the scanned range.
    """
    if len(sigmas) == 0:
        raise ValueError("need at least one pulse length")
    energy_axis = np.array(energy_axis, dtype=float)
    if np.any(np.diff(energy_axis) <= 0):
        raise ValueError("energy axis must be strictly increasing")

    curves = [(PulseDrive(omega0=np.sqrt(energy_axis / sigma), sigma=sigma,
                          delta_x=delta_x, delta_b=delta_b), deph)
              for sigma in sigmas]
    results = _sweep_points(energy_axis, "energy", curves, decay, tol)
    for res in results:
        usable = ~res.saturated & np.isfinite(res.ratio)
        if usable.any():
            idx = int(np.argmax(np.where(usable, res.ratio, -np.inf)))
            res.peak_abscissa = float(energy_axis[idx])
            res.peak_ratio = float(res.ratio[idx])
            res.peak_interior = bool(0 < idx < len(energy_axis) - 1)
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
    drive = PulseDrive(result.omega0, result.sigma)
    with np.errstate(over="ignore"):  # an overflowing energy is written as inf
        theta, energy = pulse_area(drive), pulse_energy(drive)
    np.savetxt(path, np.column_stack((
        theta, result.omega0, energy, result.p_b, result.p_x, result.ratio,
        result.saturated)), fmt=["%.12e"] * 6 + ["%d"], delimiter=",",
        header="# " + json.dumps(params, sort_keys=True)
        + "\ntheta,omega0,energy,p_b,p_x,ratio,saturated",
        comments="", encoding="utf-8")
