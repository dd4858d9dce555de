import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from qdtimebin import IntegrationError, dynamics, sweeps
from qdtimebin.dynamics import (
    GROUND,
    DecayRates,
    DephasingModel,
    PulseDrive,
    emission_probabilities,
    evolve,
    omega0_for_area,
    pulse_window,
)
from qdtimebin.sweeps import (
    OverdampedError,
    UnreachableTargetError,
    coherent_first_max_area,
    emission_after_pulse,
    export_sweep_csv,
    first_cycle_extrema,
    first_cycle_ratio,
    fit_gamma_i0,
    rabi_sweep,
    ratio_sweep,
)

DECAY = DecayRates(gamma_b=0.004, gamma_x=0.002)
NO_DEPH = DephasingModel(0.0, 0.0)


def test_rabi_sweep_zero_area_gives_nothing():
    (res,) = rabi_sweep(12.0, [NO_DEPH], DECAY, areas=[0.0, 0.5], tol=1e-8,
                        delta_x=0.5)
    assert res.p_b[0] == pytest.approx(0.0, abs=1e-10)
    assert res.p_x[0] == pytest.approx(0.0, abs=1e-10)
    assert res.abscissa_kind == "area"
    assert not res.flag_reexcitation().any()


def test_rabi_sweep_validates_grid():
    with pytest.raises(ValueError):
        rabi_sweep(12.0, [NO_DEPH], DECAY, areas=[1.0])
    with pytest.raises(ValueError):
        rabi_sweep(12.0, [NO_DEPH], DECAY, areas=[2.0, 1.0])
    with pytest.raises(ValueError, match="dephasing model"):
        rabi_sweep(12.0, [], DECAY, areas=[1.0, 2.0])


def test_rabi_sweep_oscillates_and_damps():
    theta = coherent_first_max_area(12.0, 0.5)
    areas = np.linspace(0.2, 1.6, 13) * theta
    coherent, damped = rabi_sweep(
        12.0, [NO_DEPH, DephasingModel(0.0, 0.0349, 2)], DECAY, areas,
        delta_x=0.5)
    i_max = np.argmax(coherent.p_b)
    assert coherent.p_b[i_max] > 0.9
    assert 0 < i_max < len(areas) - 1
    # oscillation comes back down after the maximum
    assert coherent.p_b[-1] < coherent.p_b[i_max] - 0.3
    # intensity-dependent dephasing visibly damps the first maximum
    assert damped.p_b[i_max] < coherent.p_b[i_max] - 0.05
    assert np.all(coherent.p_b[np.isfinite(coherent.p_b)] <= 2.0)


def test_emission_after_pulse_matches_full_span():
    drive = PulseDrive(omega0=0.35, sigma=12.0, delta_x=0.5)
    deph = DephasingModel(0.0, 0.0349, 2)
    (p_x_fast,), (p_b_fast,) = emission_after_pulse(drive, DECAY, deph,
                                                    tol=1e-9)
    traj = evolve(GROUND, drive, DECAY, deph, tol=1e-9)
    p_x_ref, p_b_ref = emission_probabilities(traj, DECAY, traj.times[-1])
    # the default-span reference truncates its radiative tail at e^-10; the
    # closed-form tail has no such cutoff, so agreement is bounded by that
    assert p_x_fast == pytest.approx(p_x_ref, abs=2 * np.exp(-10))
    assert p_b_fast == pytest.approx(p_b_ref, abs=1e-7)


def test_emission_after_pulse_zero_rates():
    drive = PulseDrive(omega0=0.35, sigma=12.0, delta_x=0.5)
    deph = DephasingModel(0.0, 0.0349, 2)
    # a biexciton that never decays leaves only direct exciton emission
    no_b = DecayRates(gamma_b=0.0, gamma_x=0.002)
    (p_x,), (p_b,) = emission_after_pulse(drive, no_b, deph, tol=1e-9)
    traj = evolve(GROUND, drive, no_b, deph, tol=1e-9)
    p_x_ref, _ = emission_probabilities(traj, no_b, traj.times[-1])
    assert p_b == 0.0
    assert p_x > 1e-3
    assert p_x == pytest.approx(p_x_ref, abs=2 * np.exp(-10))
    # an exciton that never decays emits nothing; the biexciton emission
    # is checked on a span that follows its own decay to e^-10
    no_x = DecayRates(gamma_b=0.004, gamma_x=0.0)
    (p_x,), (p_b,) = emission_after_pulse(drive, no_x, deph, tol=1e-9)
    traj = evolve(GROUND, drive, no_x, deph, t_span=(-60.0, 60.0 + 10 / 0.004),
                  tol=1e-9)
    _, p_b_ref = emission_probabilities(traj, no_x, traj.times[-1])
    assert p_x == 0.0
    assert p_b > 0.1
    assert p_b == pytest.approx(p_b_ref, abs=2 * np.exp(-10))
    (p_x,), (p_b,) = emission_after_pulse(drive, DecayRates(0.0, 0.0), deph)
    assert (p_x, p_b) == (0.0, 0.0)


@pytest.mark.parametrize("sigma", [4.0, 12.0])
@pytest.mark.parametrize("area", [14.0, 28.0])
def test_one_drive_emission_matches_evolve(sigma, area):
    drive = PulseDrive(omega0=omega0_for_area(area, sigma), sigma=sigma,
                       delta_x=3.5)
    deph = DephasingModel(0.0, 0.0349, 2)
    traj = evolve(GROUND, drive, DECAY, deph, t_span=pulse_window(drive),
                  tol=1e-8)
    p_x, p_b = emission_probabilities(traj, DECAY, traj.times[-1])
    _, rho_xx, rho_bb = traj.populations[-1]
    (p_x_batch,), (p_b_batch,) = emission_after_pulse(drive, DECAY, deph)
    assert p_x_batch == pytest.approx(p_x + rho_xx + rho_bb, abs=1e-12)
    assert p_b_batch == pytest.approx(p_b + rho_bb, abs=1e-12)


def test_batch_matches_drives_alone():
    deph = DephasingModel(0.0, 0.0349, 2)
    areas = np.linspace(2.0, 40.0, 48)
    drive = PulseDrive(omega0=omega0_for_area(areas, 12.0), sigma=12.0,
                       delta_x=3.5)
    p_x, p_b = emission_after_pulse(drive, DECAY, deph)
    alone = np.array([emission_after_pulse(replace(drive, omega0=w), DECAY,
                                           deph)
                      for w in drive.omega0])[:, :, 0]
    assert np.abs(p_x - alone[:, 0]).max() < 1e-8
    assert np.abs(p_b - alone[:, 1]).max() < 1e-8


def test_tiny_tolerance_integrates_in_chunks():
    # (tol / TOL_FLOOR)^2 = 3.2: no more than 3 drives fit in one batch
    tol = 4e-14
    deph = DephasingModel(0.0, 0.0349, 2)
    areas = np.array([6.0, 12.0, 18.0, 24.0])
    drive = PulseDrive(omega0=omega0_for_area(areas, 4.0), sigma=4.0,
                       delta_x=3.5)
    p_x, p_b = emission_after_pulse(drive, DECAY, deph, tol=tol)
    alone = np.array([emission_after_pulse(replace(drive, omega0=w), DECAY,
                                           deph, tol=tol)
                      for w in drive.omega0])[:, :, 0]
    assert np.abs(p_x - alone[:, 0]).max() < 1e-10
    assert np.abs(p_b - alone[:, 1]).max() < 1e-10


def test_chunks_never_split_a_block(monkeypatch):
    # (tol / TOL_FLOOR)^2 = 3.2 drives fit in a chunk, but a block is 4:
    # each chunk is one whole block, its own dephasing columns included
    tol = 4e-14
    sizes = []
    steps = dynamics._rk45_steps

    def counted(y0, drive, decay, deph, t_span, tol):
        sizes.append((len(drive.omega0), np.size(deph.gamma_i0)))
        return steps(y0, drive, decay, deph, t_span, tol)

    monkeypatch.setattr(dynamics, "_rk45_steps", counted)
    areas = np.tile([6.0, 12.0, 18.0, 24.0], 2)
    drive = PulseDrive(omega0=omega0_for_area(areas, 4.0), sigma=4.0,
                       delta_x=3.5)
    deph = DephasingModel(0.0, np.repeat([0.0, 0.0349], 4), 2)
    p_x, p_b = emission_after_pulse(drive, DECAY, deph, tol=tol, block=4)
    assert sizes == [(4, 4), (4, 4)]
    alone = emission_after_pulse(replace(drive, omega0=drive.omega0[4:]),
                                 DECAY, DephasingModel(0.0, 0.0349, 2),
                                 tol=tol, block=4)
    assert np.array_equal(p_x[4:], alone[0])
    assert np.array_equal(p_b[4:], alone[1])


def test_rabi_sweep_points_are_emission_after_pulse():
    deph = DephasingModel(0.0, 0.0349, 2)
    (res,) = rabi_sweep(12.0, [deph], DECAY, areas=[3.0, 9.0], delta_x=0.5)
    drive = PulseDrive(omega0=res.omega0, sigma=12.0, delta_x=0.5)
    p_x, p_b = emission_after_pulse(drive, DECAY, deph)
    assert np.array_equal(res.p_x, p_x) and np.array_equal(res.p_b, p_b)


def test_sweep_records_only_integration_failures(monkeypatch):
    def bad_call(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(sweeps, "emission_after_pulse", bad_call)
    with pytest.raises(TypeError, match="unexpected argument"):
        rabi_sweep(12.0, [NO_DEPH], DECAY, areas=[1.0, 2.0])

    def underflow(*args, **kwargs):
        raise IntegrationError("step size underflow (1e-15) at t = 3", 3.0)

    monkeypatch.setattr(sweeps, "emission_after_pulse", underflow)
    (res,) = rabi_sweep(12.0, [NO_DEPH], DECAY, areas=[1.0, 2.0])
    assert np.isnan(res.p_x).all() and np.isnan(res.p_b).all()
    assert res.failures == [
        (i, "IntegrationError: step size underflow (1e-15) at t = 3")
        for i in range(2)]


def test_step_budget_skips_the_stiffer_points(monkeypatch):
    # sigma 1e-6 with intensity dephasing is stiff at both areas; once the
    # first point alone exhausts the step budget, the second is not tried
    monkeypatch.setattr(dynamics, "_MAX_RK45_STEPS", 2_000)
    sizes = []

    def counted(drive, decay, deph, tol=1e-8):
        sizes.append(len(drive.omega0))
        return emission_after_pulse(drive, decay, deph, tol=tol)

    monkeypatch.setattr(sweeps, "emission_after_pulse", counted)
    (res,) = rabi_sweep(1e-6, [DephasingModel(0.01, 0.0349, 2)], DECAY,
                        areas=[15.0, 20.0], delta_x=3.5)
    assert sizes == [2, 1]
    assert np.isnan(res.p_b).all()
    (i0, first), (i1, second) = res.failures
    assert (i0, i1) == (0, 1)
    assert first.startswith("StepBudgetError: RK45 step budget of 2000")
    assert second.startswith("not integrated: point 0 (abscissa 15)")


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_rabi_batch_of_two_models_matches_each_alone(tol):
    # two models are one batch; each model alone is its own batch, and
    # both stay within the 20 tol that bounds either against the oracle
    models = [DephasingModel(0.01, 0.0349, 2), DephasingModel(0.0, 0.0219, 4)]
    areas = np.geomspace(0.3, 30.0, 12)
    both = rabi_sweep(4.0, models, DECAY, areas, tol=tol, delta_x=3.5)
    for model, res in zip(models, both):
        (alone,) = rabi_sweep(4.0, [model], DECAY, areas, tol=tol,
                              delta_x=3.5)
        assert res.deph is model and res.sigma == 4.0
        assert np.abs(res.p_x - alone.p_x).max() <= 20 * tol
        assert np.abs(res.p_b - alone.p_b).max() <= 20 * tol


def test_failed_merged_batch_falls_back_curve_by_curve(monkeypatch):
    # sigma 1000 turns the detuning into a phase of 3500 per unit of pulse
    # time, more than 2,000 steps can follow: the batch of both curves
    # fails, then every point is integrated alone, up to the first point
    # of the sigma 1000 curve
    monkeypatch.setattr(dynamics, "_MAX_RK45_STEPS", 2_000)
    calls = []

    def recorded(drive, decay, deph, tol=1e-8):
        try:
            out = emission_after_pulse(drive, decay, deph, tol=tol)
        except IntegrationError as exc:
            calls.append((np.ndim(drive.sigma), len(drive.omega0), exc))
            raise
        calls.append((np.ndim(drive.sigma), len(drive.omega0), None))
        return out

    monkeypatch.setattr(sweeps, "emission_after_pulse", recorded)
    energies = np.array([2.0, 5.5, 9.0, 16.0])
    short, long = ratio_sweep([4.0, 1000.0], energies,
                              DephasingModel(0.01, 0.0349, 2), DECAY,
                              delta_x=3.5)
    assert [c[:2] for c in calls] == [(1, 8)] + [(0, 1)] * 4 + [(0, 1)]
    # a stiff curve costs two step budgets: the batch's and its first point's
    assert [i for i, c in enumerate(calls)
            if isinstance(c[2], dynamics.StepBudgetError)] == [0, 5]
    assert short.failures == [] and np.isfinite(short.p_b).all()
    assert np.isfinite(short.ratio).all() and short.sigma == 4.0
    assert long.sigma == 1000.0 and np.isnan(long.p_b).all()
    assert [i for i, _ in long.failures] == [0, 1, 2, 3]
    assert long.failures[0][1].startswith("StepBudgetError")
    assert long.failures[1][1].startswith("not integrated: point 0")
    # the time of the failure is in ps, inside the sigma 1000 window
    # (-5000, 5000) and outside the window of pulse time, (-5, 5)
    t = calls[-1][2].t
    assert -5000.0 < t < -5.0


def test_first_cycle_extrema_ordering():
    a_max, v_max, a_min, v_min = first_cycle_extrema(
        12.0, DephasingModel(0.0, 0.0349, 2), DECAY, delta_x=3.5)
    assert a_max < a_min
    assert v_max > v_min > 0.0
    # the coherent estimate is the right scale
    assert 0.5 < a_max / coherent_first_max_area(12.0, 3.5) < 1.6
    # the golden-section search over single evolves found these values
    assert v_max == pytest.approx(0.79298063615123, abs=1e-8)
    assert v_min == pytest.approx(0.27243644425334, abs=1e-8)


def test_first_cycle_overdamped_raises():
    with pytest.raises(OverdampedError):
        first_cycle_extrema(12.0, DephasingModel(gamma_bg=0.5), DECAY,
                            delta_x=0.5)


def test_fit_gamma_i0_validation():
    with pytest.raises(ValueError, match="target_ratio"):
        fit_gamma_i0(2, 0.9, 12.0, DECAY)
    with pytest.raises(ValueError, match="target_ratio"):
        fit_gamma_i0(2, math.nan, 12.0, DECAY)
    with pytest.raises(ValueError, match="n_p"):
        fit_gamma_i0(7, 2.0, 12.0, DECAY)
    # a bool is not taken as n_p = 1
    with pytest.raises(ValueError, match="n_p"):
        fit_gamma_i0(True, 2.9, 12.0, DECAY)


def test_fit_gamma_i0_unreachable_target():
    # the ratio at gamma_i0 = 0 bounds what any fit can reach; gamma_i0 = 0
    # is searched after [0.02, 0.04], and nothing after it
    with pytest.raises(UnreachableTargetError,
                       match=r"ratio at gamma_i0 = 0 with gamma_bg = 0 is "):
        fit_gamma_i0(2, 1e9, 12.0, DECAY, delta_x=3.5)
    # a background-overdamped curve is not undamped, and reads as ratio 1
    with pytest.raises(UnreachableTargetError,
                       match="gamma_bg = 0.5 is 1,") as err:
        fit_gamma_i0(2, 2.9, 12.0, DECAY, gamma_bg=0.5, delta_x=3.5)
    assert "undamped" not in str(err.value)
    assert isinstance(err.value, ValueError)


def test_fit_gamma_i0_round_trip_quick():
    planted = 0.05
    deph = DephasingModel(0.0, planted, 2)
    r = first_cycle_ratio(12.0, deph, DECAY, delta_x=3.5)
    fitted = fit_gamma_i0(2, r, 12.0, DECAY, delta_x=3.5).gamma_i0
    assert fitted == pytest.approx(planted, rel=0.02)


def test_fit_gamma_i0_root_below_first_bracket_point():
    # a ratio below the target at 0.02 puts the root in (0, 0.02): that
    # interval, gamma_i0 = 0 first, is searched after [0.02, 0.04]
    planted = 0.01
    r = first_cycle_ratio(12.0, DephasingModel(0.0, planted, 2), DECAY,
                          delta_x=3.5)
    fit = fit_gamma_i0(2, r, 12.0, DECAY, delta_x=3.5)
    gammas = [g for g, _ in fit.evaluations]
    assert len(gammas) == 2 * sweeps._FIT_SAMPLES
    assert (gammas[0], gammas[5], gammas[6], gammas[11]) == (0.02, 0.04,
                                                             0.0, 0.02)
    assert fit.bracket == (0.0, 0.02)
    assert fit.gamma_i0 == pytest.approx(planted, rel=1e-4)


def _reference_root(target, n_p, lo, hi):
    """gamma_i0 where first_cycle_ratio crosses ``target``, by brentq."""
    def excess(gamma_i0):
        deph = DephasingModel(0.0, gamma_i0, n_p)
        try:
            return first_cycle_ratio(12.0, deph, DECAY, delta_x=3.5) - target
        except OverdampedError:
            return 1.0 - target
    return brentq(excess, lo, hi, xtol=1e-12, rtol=1e-10)


@pytest.mark.parametrize("n_p, planted", [
    (2, 0.005), (2, 0.0349), (2, 0.05), (2, 0.12), (4, 0.0021), (4, 0.0219)])
def test_fit_gamma_i0_matches_brentq(n_p, planted):
    target = first_cycle_ratio(12.0, DephasingModel(0.0, planted, n_p),
                               DECAY, delta_x=3.5)
    fit = fit_gamma_i0(n_p, target, 12.0, DECAY, delta_x=3.5)
    reference = _reference_root(target, n_p, 0.5 * planted, 2.0 * planted)
    assert fit.gamma_i0 == pytest.approx(reference, rel=1e-4)
    lo, hi = fit.bracket
    assert lo <= fit.gamma_i0 <= hi


def test_fit_gamma_i0_next_to_overdamping():
    # target 1.05 lies just below the gamma_i0 (~0.25) where the first
    # cycle disappears: overdamped samples narrow the bracket
    fit = fit_gamma_i0(2, 1.05, 12.0, DECAY, delta_x=3.5)
    reference = _reference_root(1.05, 2, 0.16, 0.32)
    assert fit.gamma_i0 == pytest.approx(reference, rel=0.01)
    lo, hi = fit.bracket
    assert fit.evaluations[-1] == (hi, 1.0)
    assert all(r > 1.0 for _, r in fit.evaluations[-sweeps._FIT_SAMPLES:-1])


def test_batch_blocks_match_single_searches():
    gammas = np.array([0.0, 0.005, 0.02, 0.0349, 0.06, 0.1])
    batch = sweeps._first_cycles(12.0, DephasingModel(0.0, gammas, 2), DECAY,
                                 3.5, 1e-8)
    for gamma_i0, (_, v_max, _, v_min) in zip(gammas, batch):
        alone = first_cycle_ratio(12.0, DephasingModel(0.0, gamma_i0, 2),
                                  DECAY, delta_x=3.5)
        assert v_max / v_min == pytest.approx(alone, rel=1e-7)


@pytest.mark.parametrize("gamma_i0", [0.0, 0.0349])
def test_first_cycle_extrema_are_integrated_values(gamma_i0):
    # the interpolant's extremum values are p_b of a drive at those areas
    deph = DephasingModel(0.0, gamma_i0, 2)
    a_max, v_max, a_min, v_min = first_cycle_extrema(12.0, deph, DECAY,
                                                     delta_x=3.5)
    for area, value in ((a_max, v_max), (a_min, v_min)):
        drive = PulseDrive(omega0=omega0_for_area(area, 12.0), sigma=12.0,
                           delta_x=3.5)
        _, (p_b,) = emission_after_pulse(drive, DECAY, deph)
        assert p_b == pytest.approx(value, abs=1e-8)


def test_monotone_damping_property():
    # the first-cycle ratio never increases with the dephasing amplitude
    gammas = np.linspace(0.0, 0.09, 10)
    ratios = [first_cycle_ratio(12.0, DephasingModel(0.0, g, 2), DECAY,
                                delta_x=3.5, tol=1e-7) for g in gammas]
    assert all(a >= b - 1e-6 for a, b in zip(ratios, ratios[1:]))


def test_ratio_sweep_zero_drive_saturated():
    res = ratio_sweep([12.0], [1e-10, 1.0, 2.0], NO_DEPH, DECAY,
                      delta_x=3.5)[0]
    assert res.saturated[0]
    assert np.isfinite(res.ratio[0])


def test_ratio_sweep_validates():
    with pytest.raises(ValueError):
        ratio_sweep([], [1.0, 2.0], NO_DEPH, DECAY)
    with pytest.raises(ValueError):
        ratio_sweep([12.0], [2.0, 1.0], NO_DEPH, DECAY)


def test_ratio_sweep_longer_pulse_wins():
    deph = DephasingModel(0.01, 0.0349, 2)
    energies = np.linspace(1.0, 16.0, 10)
    short, long = ratio_sweep([4.0, 12.0], energies, deph, DECAY,
                              delta_x=3.5)
    assert long.peak_ratio > short.peak_ratio
    assert short.sigma == 4.0 and long.sigma == 12.0
    assert long.abscissa_kind == "energy"


def test_sweep_csv_export(tmp_path):
    (res,) = rabi_sweep(12.0, [DephasingModel(0.0, 0.02, 2)], DECAY,
                        areas=[1.0, 2.0, 3.0], delta_x=0.5)
    path = tmp_path / "sweep.csv"
    export_sweep_csv(res, path, extra_params={"tag": "test"})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert header["sigma"] == 12.0
    assert header["dephasing"]["gamma_i0"] == 0.02
    assert header["tag"] == "test"
    assert header["failures"] == []
    assert lines[1] == "theta,omega0,energy,p_b,p_x,ratio,saturated"
    assert len(lines) == 2 + 3
    row = [float(v) for v in lines[2].split(",")]
    assert row[0] == pytest.approx(1.0)  # theta round trip
    assert row[1] == pytest.approx(omega0_for_area(1.0, 12.0))
