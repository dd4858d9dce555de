import json
from dataclasses import replace

import numpy as np
import pytest

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
    res = rabi_sweep(12.0, NO_DEPH, DECAY, areas=[0.0, 0.5], tol=1e-8,
                     delta_x=0.5)
    assert res.p_b[0] == pytest.approx(0.0, abs=1e-10)
    assert res.p_x[0] == pytest.approx(0.0, abs=1e-10)
    assert res.abscissa_kind == "area"
    assert not res.flag_reexcitation().any()


def test_rabi_sweep_validates_grid():
    with pytest.raises(ValueError):
        rabi_sweep(12.0, NO_DEPH, DECAY, areas=[1.0])
    with pytest.raises(ValueError):
        rabi_sweep(12.0, NO_DEPH, DECAY, areas=[2.0, 1.0])


def test_rabi_sweep_oscillates_and_damps():
    theta = coherent_first_max_area(12.0, 0.5)
    areas = np.linspace(0.2, 1.6, 13) * theta
    coherent = rabi_sweep(12.0, NO_DEPH, DECAY, areas, delta_x=0.5)
    damped = rabi_sweep(12.0, DephasingModel(0.0, 0.0349, 2), DECAY, areas,
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


def test_rabi_sweep_points_are_emission_after_pulse():
    deph = DephasingModel(0.0, 0.0349, 2)
    res = rabi_sweep(12.0, deph, DECAY, areas=[3.0, 9.0], delta_x=0.5)
    drive = PulseDrive(omega0=res.omega0, sigma=12.0, delta_x=0.5)
    p_x, p_b = emission_after_pulse(drive, DECAY, deph)
    assert np.array_equal(res.p_x, p_x) and np.array_equal(res.p_b, p_b)


def test_sweep_records_only_integration_failures(monkeypatch):
    def bad_call(*args, **kwargs):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(sweeps, "emission_after_pulse", bad_call)
    with pytest.raises(TypeError, match="unexpected argument"):
        rabi_sweep(12.0, NO_DEPH, DECAY, areas=[1.0, 2.0])

    def underflow(*args, **kwargs):
        raise IntegrationError("step size underflow (1e-15) at t = 3", 3.0)

    monkeypatch.setattr(sweeps, "emission_after_pulse", underflow)
    res = rabi_sweep(12.0, NO_DEPH, DECAY, areas=[1.0, 2.0])
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
    res = rabi_sweep(1e-6, DephasingModel(0.01, 0.0349, 2), DECAY,
                     areas=[15.0, 20.0], delta_x=3.5)
    assert sizes == [2, 1]
    assert np.isnan(res.p_b).all()
    (i0, first), (i1, second) = res.failures
    assert (i0, i1) == (0, 1)
    assert first.startswith("StepBudgetError: RK45 step budget of 2000")
    assert second.startswith("not integrated: point 0 (abscissa 15)")


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
    with pytest.raises(ValueError, match="n_p"):
        fit_gamma_i0(7, 2.0, 12.0, DECAY)


def test_fit_gamma_i0_unreachable_target():
    # the undamped curve's ratio bounds what any fit can reach
    with pytest.raises(ValueError, match="unreachable"):
        fit_gamma_i0(2, 1e9, 12.0, DECAY, delta_x=3.5)


def test_fit_gamma_i0_round_trip_quick():
    planted = 0.05
    deph = DephasingModel(0.0, planted, 2)
    r = first_cycle_ratio(12.0, deph, DECAY, delta_x=3.5)
    fitted = fit_gamma_i0(2, r, 12.0, DECAY, delta_x=3.5).gamma_i0
    assert fitted == pytest.approx(planted, rel=0.02)


def test_fit_gamma_i0_root_below_first_bracket_point():
    # a ratio below the target at 0.02 puts the root in (0, 0.02), so the
    # undamped curve is searched to confirm that the target is reachable
    planted = 0.01
    r = first_cycle_ratio(12.0, DephasingModel(0.0, planted, 2), DECAY,
                          delta_x=3.5)
    fit = fit_gamma_i0(2, r, 12.0, DECAY, delta_x=3.5)
    assert [g for g, _ in fit.evaluations][:2] == [0.02, 0.0]
    assert fit.gamma_i0 == pytest.approx(planted, rel=0.02)


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
    res = rabi_sweep(12.0, DephasingModel(0.0, 0.02, 2), DECAY,
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
