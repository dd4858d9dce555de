import itertools
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import quad
from scipy.linalg import expm

from qdtimebin import dynamics
from qdtimebin.dynamics import (
    B,
    G,
    GROUND,
    X,
    ConstantDrive,
    DecayRates,
    DephasingModel,
    IntegrationError,
    PulseDrive,
    StepBudgetError,
    cumulative_emission,
    default_t_span,
    emission_after_pulse,
    evolve,
    export_trajectory_csv,
    hamiltonian,
    _real_generator,
    lindblad_rhs,
    omega0_for_area,
    pulse_area,
    pulse_energy,
    pulse_window,
)
from qdtimebin.linalg import hermitian_basis, hermiticity_defect, min_eigenvalue

import oracles

BIEXCITON = np.diag([0.0, 0.0, 1.0]).astype(complex)
EXCITON = np.diag([0.0, 1.0, 0.0]).astype(complex)
NO_DECAY = DecayRates(gamma_b=0.0, gamma_x=0.0)
NO_DEPH = DephasingModel(gamma_bg=0.0, gamma_i0=0.0)


# --- Hamiltonian -------------------------------------------------------------

def test_hamiltonian_zero():
    drive = ConstantDrive(omega0=0.0, delta_x=0.0, delta_b=0.0)
    assert np.allclose(hamiltonian(0.0, drive), 0.0)


def test_hamiltonian_resonant_coupling():
    drive = ConstantDrive(omega0=2.0, delta_x=0.0, delta_b=0.0)
    h = hamiltonian(2.0, drive)
    assert h[G, X] == h[X, B] == 1.0
    assert np.allclose(np.diag(h), 0.0)
    assert h[G, B] == 0.0
    assert hermiticity_defect(h) == 0.0


def test_hamiltonian_detunings():
    drive = ConstantDrive(omega0=0.0, delta_x=3.0, delta_b=1.0)
    h = hamiltonian(0.0, drive)
    assert np.allclose(h, np.diag([0.0, 2.0, -2.0]))


def test_hamiltonian_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        hamiltonian(-1.0, ConstantDrive(omega0=1.0))


# --- drive / model types ------------------------------------------------------

def test_pulse_amplitude_profile():
    drive = PulseDrive(omega0=2.0, sigma=3.0, t0=1.0)
    assert drive.amplitude(1.0) == pytest.approx(2.0)
    assert drive.amplitude(4.0) == pytest.approx(1.0)  # half maximum at t0+sigma
    with pytest.raises(ValueError):
        PulseDrive(omega0=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        PulseDrive(omega0=-1.0, sigma=1.0)
    with pytest.raises(ValueError, match="omega0 must be >= 0"):
        ConstantDrive(omega0=-1.0)


def test_batch_drive_rejects_a_negative_amplitude():
    drive = PulseDrive(omega0=np.array([0.0, 0.5, 2.0]), sigma=3.0)
    assert drive.amplitude(0.0).tolist() == [0.0, 0.5, 2.0]
    with pytest.raises(ValueError, match="omega0 must be >= 0"):
        PulseDrive(omega0=np.array([0.5, -1e-3, 2.0]), sigma=3.0)


def test_dephasing_model_rate():
    deph = DephasingModel(gamma_bg=0.1, gamma_i0=0.5, n_p=2)
    assert deph.rate(2.0) == pytest.approx(0.1 + 0.5 * 4.0)
    flat = DephasingModel(gamma_bg=0.0, gamma_i0=0.3, n_p=0)
    assert flat.rate(0.0) == flat.rate(5.0) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        DephasingModel(gamma_i0=-1.0)
    with pytest.raises(ValueError):
        DephasingModel(n_p=-1)
    # an int past 64 bits makes an object array
    with pytest.raises(ValueError, match="n_p"):
        DephasingModel(n_p=10**20)


@pytest.mark.parametrize("make, field", [
    (lambda v: PulseDrive(omega0=v, sigma=4.0), "omega0"),
    (lambda v: PulseDrive(omega0=1.0, sigma=v), "sigma"),
    (lambda v: PulseDrive(omega0=1.0, sigma=4.0, t0=v), "t0"),
    (lambda v: PulseDrive(omega0=1.0, sigma=4.0, delta_x=v), "delta_x"),
    (lambda v: PulseDrive(omega0=1.0, sigma=4.0, delta_b=v), "delta_b"),
    pytest.param(lambda v: ConstantDrive(omega0=v), "omega0",
                 id="constant-omega0"),
    pytest.param(lambda v: ConstantDrive(omega0=1.0, delta_x=v), "delta_x",
                 id="constant-delta_x"),
    pytest.param(lambda v: ConstantDrive(omega0=1.0, delta_b=v), "delta_b",
                 id="constant-delta_b"),
    (lambda v: DecayRates(gamma_b=v), "gamma_b"),
    (lambda v: DecayRates(gamma_x=v), "gamma_x"),
    (lambda v: DephasingModel(gamma_bg=v), "gamma_bg"),
    (lambda v: DephasingModel(gamma_i0=v), "gamma_i0"),
    (lambda v: DephasingModel(n_p=v), "n_p"),
])
@pytest.mark.parametrize("value", [math.nan, True, np.array([1.0, math.nan])],
                         ids=["nan", "bool", "array-with-nan"])
def test_model_fields_reject_nan_and_bool(make, field, value):
    with pytest.raises(ValueError, match=field):
        make(value)


def test_dephasing_fields_may_be_arrays():
    deph = DephasingModel(gamma_bg=0.01, gamma_i0=np.array([0.0, 0.5]),
                          n_p=np.array([2, 4]))
    assert deph.rate(np.array([2.0, 2.0])).tolist() == [0.01, 0.01 + 8.0]
    for n_p in (np.array([2, 2.5]), np.array([2, -2]), math.inf):
        with pytest.raises(ValueError, match="n_p"):
            DephasingModel(n_p=n_p)
    with pytest.raises(ValueError, match="gamma_i0"):
        DephasingModel(gamma_i0=np.array([0.1, -0.1]))


def test_pulse_area_values():
    assert pulse_area(PulseDrive(omega0=0.0, sigma=1.0)) == 0.0
    drive = PulseDrive(omega0=1.0, sigma=1.0)
    assert pulse_area(drive) == pytest.approx(2.12893, abs=1e-5)
    # adaptive quadrature oracle
    ref, _ = quad(lambda t: drive.amplitude(t), -40, 40, epsabs=1e-12)
    assert pulse_area(drive) == pytest.approx(ref, abs=1e-9)
    assert pulse_area(PulseDrive(omega0=1.0, sigma=2.0)) == \
        pytest.approx(2 * pulse_area(drive), rel=1e-12)
    assert pulse_energy(PulseDrive(omega0=3.0, sigma=2.0)) == 18.0
    assert omega0_for_area(pulse_area(drive), 1.0) == pytest.approx(1.0)


# --- master equation right-hand side -----------------------------------------

def test_rhs_ground_state_stationary():
    drive = ConstantDrive(omega0=0.0)
    out = lindblad_rhs(GROUND, 0.0, drive, DecayRates(1.0, 1.0),
                       DephasingModel(0.5, 0.2, 2))
    assert np.abs(out).max() < 1e-15


def test_rhs_biexciton_decay_feeds_exciton():
    drive = ConstantDrive(omega0=0.0)
    out = lindblad_rhs(BIEXCITON, 0.0, drive, DecayRates(gamma_b=1.0, gamma_x=0.0),
                       NO_DEPH)
    expected = np.diag([0.0, 1.0, -1.0])
    assert np.abs(out - expected).max() < 1e-14


def test_rhs_pure_dephasing_on_gx_coherence():
    # The x-population channel alone damps the g-x coherence with
    # coefficient 4*(gamma_d/2) = 2 gamma_d; the b-population channel adds
    # another gamma_d/2 through its anticommutator, so the full model gives
    # 2.5 gamma_d.  Both are pinned against the superoperator oracle.
    c = 0.3 - 0.1j
    rho = np.zeros((3, 3), dtype=complex)
    rho[G, X] = c
    rho[X, G] = np.conj(c)
    gamma_d = 0.7

    a_xx = np.diag([-1.0, 1.0, 0.0]).astype(complex)
    s_xx = oracles.lindblad_superoperator(np.zeros((3, 3)), [(a_xx, gamma_d)])
    only_xx = oracles.apply_superoperator(s_xx, rho)
    assert only_xx[G, X] == pytest.approx(-2.0 * gamma_d * c, abs=1e-14)

    out = lindblad_rhs(rho, 0.0, ConstantDrive(omega0=0.0, delta_x=0.0),
                       NO_DECAY, DephasingModel(gamma_bg=gamma_d))
    assert out[G, X] == pytest.approx(-2.5 * gamma_d * c, abs=1e-14)
    s_full = oracles.lindblad_superoperator(
        np.zeros((3, 3)), oracles.ladder_jumps(0.0, 0.0, gamma_d))
    ref = oracles.apply_superoperator(s_full, rho)
    assert np.abs(out - ref).max() < 1e-14


def test_rhs_against_superoperator_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        omega = rng.uniform(0, 3)
        dx, db = rng.uniform(-2, 2, size=2)
        gb, gx, gd = rng.uniform(0, 2, size=3)
        rho = oracles.random_density_matrix(rng, 3)
        drive = ConstantDrive(omega0=omega, delta_x=dx, delta_b=db)
        ours = lindblad_rhs(rho, 0.0, drive, DecayRates(gb, gx),
                            DephasingModel(gamma_bg=gd))
        s = oracles.lindblad_superoperator(
            oracles.ladder_hamiltonian(omega, dx, db),
            oracles.ladder_jumps(gb, gx, gd))
        ref = oracles.apply_superoperator(s, rho)
        assert np.abs(ours - ref).max() < 1e-12
        assert abs(np.trace(ours)) < 1e-12
        assert hermiticity_defect(ours) < 1e-12


def test_real_generator_matches_oracle():
    # the integrator's generator r0 + omega rd + rate rp, derived from
    # lindblad_rhs on the Hermitian basis, against the column-stacking oracle
    rng = np.random.default_rng(5)
    drive = ConstantDrive(omega0=1.3, delta_x=0.7, delta_b=-0.2)
    decay = DecayRates(0.4, 0.9)
    deph = DephasingModel(gamma_bg=0.1, gamma_i0=0.2, n_p=2)
    omega, rate = 1.3, float(deph.rate(1.3))
    r0, rd, rp = _real_generator(drive, decay)
    gen = r0 + omega * rd + rate * rp
    s = oracles.lindblad_superoperator(
        oracles.ladder_hamiltonian(omega, 0.7, -0.2),
        oracles.ladder_jumps(0.4, 0.9, rate))
    basis = hermitian_basis(3)
    norms = np.einsum("kij,kji->k", basis, basis).real
    for _ in range(10):
        rho = oracles.random_density_matrix(rng, 3)
        y = np.concatenate(
            [np.einsum("kij,ji->k", basis, rho).real / norms, rng.normal(size=2)])
        dy = gen @ y
        ours = np.einsum("k,kij->ij", dy[:9], basis)
        ref = oracles.apply_superoperator(s, rho)
        assert np.abs(ours - ref).max() < 1e-12
        # the last two components integrate rho_xx and rho_bb
        assert np.abs(dy[9:] - np.real(np.diag(rho))[[X, B]]).max() < 1e-15


# --- evolution ----------------------------------------------------------------

def test_evolve_ground_is_constant():
    drive = PulseDrive(omega0=0.0, sigma=1.0)
    traj = evolve(GROUND, drive, DecayRates(0.5, 0.25), NO_DEPH,
                  t_span=(0.0, 10.0), tol=1e-9)
    assert np.abs(traj.states - GROUND).max() < 1e-12
    assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-10)


def test_evolve_cascade_matches_closed_form():
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    drive = ConstantDrive(omega0=0.0, delta_x=0.0)
    traj = evolve(BIEXCITON, drive, decay, NO_DEPH, t_span=(0.0, 10.0),
                  tol=1e-10)
    p_b, p_x = oracles.cascade_populations(traj.times, 2.0, 1.0)
    assert np.abs(traj.populations[:, B] - p_b).max() < 1e-6
    assert np.abs(traj.populations[:, X] - p_x).max() < 1e-6
    # populations are the diagonal of the stored states
    assert np.abs(traj.populations
                  - np.real(traj.states[:, (G, X, B), (G, X, B)])).max() == 0.0


def test_evolve_two_level_rabi():
    # large equal detunings park the biexciton level far away, reducing the
    # ladder to a resonant two-level system
    big = 400.0
    drive = ConstantDrive(omega0=1.0, delta_x=big, delta_b=big)
    traj = evolve(GROUND, drive, NO_DECAY, NO_DEPH, t_span=(0.0, 5.0),
                  tol=1e-10)
    ref = np.cos(traj.times / 2.0) ** 2
    assert np.abs(traj.populations[:, G] - ref).max() < 1e-5


def test_evolve_matches_expm_oracle():
    rng = np.random.default_rng(123)
    omega, dx, db = 1.2, 0.6, -0.1
    gb, gx, gd = 0.8, 0.5, 0.3
    drive = ConstantDrive(omega0=omega, delta_x=dx, delta_b=db)
    rho0 = oracles.random_density_matrix(rng, 3)
    traj = evolve(rho0, drive, DecayRates(gb, gx),
                  DephasingModel(gamma_bg=gd), t_span=(0.0, 5.0), tol=1e-10)
    s = oracles.lindblad_superoperator(
        oracles.ladder_hamiltonian(omega, dx, db),
        oracles.ladder_jumps(gb, gx, gd))
    for i in range(0, len(traj.times), 37):
        ref = oracles.propagate_expm(rho0, oracles.ladder_hamiltonian(omega, dx, db),
                                     oracles.ladder_jumps(gb, gx, gd),
                                     traj.times[i])
        assert np.abs(traj.states[i] - ref).max() < 1e-6


def test_constant_drive_is_propagated_exactly(monkeypatch):
    # a constant generator needs no stepping: one exact stretch, with the
    # intensity dephasing at the drive's constant amplitude
    def no_steps(*args, **kwargs):
        raise AssertionError("a ConstantDrive was stepped")

    monkeypatch.setattr(dynamics, "_window_steps", no_steps)
    rng = np.random.default_rng(17)
    omega, dx, db, gb, gx = 1.1, 0.8, 0.2, 0.3, 0.6
    deph = DephasingModel(gamma_bg=0.05, gamma_i0=0.2, n_p=2)
    rho0 = oracles.random_density_matrix(rng, 3)
    traj = evolve(rho0, ConstantDrive(omega0=omega, delta_x=dx, delta_b=db),
                  DecayRates(gb, gx), deph, t_span=(0.0, 7.0), tol=1e-8)
    assert len(traj.times) == 401
    h = oracles.ladder_hamiltonian(omega, dx, db)
    jumps = oracles.ladder_jumps(gb, gx, float(deph.rate(omega)))
    for t, state in zip(traj.times, traj.states):
        ref = oracles.propagate_expm(rho0, h, jumps, t)
        assert np.abs(state - ref).max() < 1e-12


def test_evolve_intensity_dependent_dephasing_uses_stage_times():
    # compare against a fine-grid reference: same model, much tighter tol
    drive = PulseDrive(omega0=0.8, sigma=2.0, t0=0.0, delta_x=0.5)
    decay = DecayRates(0.01, 0.005)
    deph = DephasingModel(gamma_bg=0.0, gamma_i0=0.3, n_p=2)
    t_span = (-10.0, 10.0)
    a = evolve(GROUND, drive, decay, deph, t_span=t_span, tol=1e-8)
    b = evolve(GROUND, drive, decay, deph, t_span=t_span, tol=1e-12)
    assert np.abs(a.states[-1] - b.states[-1]).max() < 1e-6


def test_evolve_validates_inputs():
    drive = PulseDrive(omega0=0.0, sigma=1.0)
    with pytest.raises(ValueError, match="tol must be in"):
        evolve(GROUND, drive, DecayRates(), NO_DEPH, t_span=(0, 10), tol=1e-2)
    # emission_after_pulse takes the same tol range
    for tol in (1e-2, 1e-14):
        with pytest.raises(ValueError, match="tol must be in"):
            emission_after_pulse(drive, DecayRates(), NO_DEPH, tol=tol)
    with pytest.raises(ValueError):
        evolve(GROUND, drive, DecayRates(gamma_b=0.1, gamma_x=0.0), NO_DEPH)
    with pytest.raises(ValueError, match="t_span must be increasing"):
        evolve(GROUND, drive, DecayRates(), NO_DEPH, t_span=(1.0, 0.0))
    # a constant drive has no pulse window to take a default span from
    with pytest.raises(ValueError, match="ConstantDrive.*t_span"):
        evolve(GROUND, ConstantDrive(1.0), DecayRates(), DephasingModel())


def test_evolve_rejects_a_batch_drive():
    # evolve stores one trajectory; a batch goes to emission_after_pulse
    batch = PulseDrive(omega0=np.array([0.2, 0.4]), sigma=4.0)
    with pytest.raises(ValueError, match="one omega0, got 2"):
        evolve(GROUND, batch, DecayRates(), NO_DEPH, t_span=(-20.0, 20.0))
    drive = PulseDrive(omega0=0.2, sigma=4.0)
    batch = DephasingModel(gamma_i0=np.array([0.0, 0.0349]))
    with pytest.raises(ValueError, match="one gamma_i0, got 2"):
        evolve(GROUND, drive, DecayRates(), batch, t_span=(-20.0, 20.0))
    batch = PulseDrive(omega0=0.2, sigma=np.array([4.0, 12.0]))
    with pytest.raises(ValueError, match="one sigma, got 2"):
        evolve(GROUND, batch, DecayRates(), NO_DEPH, t_span=(-20.0, 20.0))


def test_failed_mixed_sigma_batch_names_its_pulse_time(monkeypatch):
    # sigma 1000 with delta_x 3.5 is more than 2,000 steps can follow; the
    # whole system fails, so the message gives the pulse time at which the
    # shared step sequence stopped, and t is drive 0's time there
    monkeypatch.setattr(dynamics, "_MAX_WINDOW_STEPS", 2_000)
    sigma = np.repeat([4.0, 1000.0], 4)
    energies = np.tile([2.0, 5.5, 9.0, 16.0], 2)
    drive = PulseDrive(omega0=np.sqrt(energies / sigma), sigma=sigma,
                       delta_x=3.5)
    with pytest.raises(StepBudgetError, match="step budget") as err:
        emission_after_pulse(drive, DecayRates(0.004, 0.002),
                             DephasingModel(0.01, 0.0349, 2))
    tau = _budget_tau(err.value, "DOP853", 2_000)
    assert err.value.t == pytest.approx(4.0 * tau, rel=1e-5)


def _budget_tau(err: StepBudgetError, method: str, budget: int) -> float:
    """The pulse time at which ``err`` says ``method`` exhausted a step
    budget of ``budget`` steps, its message checked whole."""
    message = str(err)
    tau = float(re.search(r"at pulse time tau = (\S+),", message).group(1))
    assert message == (
        f"{method} step budget of {budget} steps exhausted at pulse time "
        f"tau = {tau:.6g}, before the span ends at tau = 5: the window "
        "needs more steps")
    assert -5.0 < tau < 5.0
    return tau


def test_stiff_window_exhausts_the_radau_step_budget(monkeypatch,
                                                     window_methods):
    # Radau steps a window made stiff by dephasing, under the same budget:
    # 5 steps end before the window does, and t is the drive's own time
    # t0 + sigma tau in ps
    monkeypatch.setattr(dynamics, "_MAX_WINDOW_STEPS", 5)
    drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, 1.5e-4)]),
                       sigma=1.5e-4, t0=2.0, delta_x=3.5)
    with pytest.raises(StepBudgetError) as err:
        emission_after_pulse(drive, DecayRates(0.004, 0.002),
                             DephasingModel(0.01, 0.0349, 2))
    assert window_methods == ["Radau"]
    tau = _budget_tau(err.value, "Radau", 5)
    assert err.value.t == pytest.approx(2.0 + 1.5e-4 * tau, abs=1e-9)


def test_stiff_window_steps_with_radau(window_methods):
    # dephasing of ~3e12 /ps at the peak of a 1e-6 ps pulse would force
    # DOP853 to millions of steps, past the budget, and at 1.5e-4 ps to
    # ~12,000 (2.6 s, against 0.2 s for Radau): Radau steps both windows;
    # the 12 ps pulse of the same area and model is not stiff
    deph = DephasingModel(0.01, 0.0349, 2)
    for sigma in (1e-6, 1.5e-4, 12.0):
        drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, sigma)]),
                           sigma=sigma, delta_x=3.5)
        p_x, p_b = emission_after_pulse(drive, DecayRates(0.004, 0.002), deph)
        assert 0.0 <= p_b[0] <= p_x[0] <= 1.0
    assert window_methods == ["Radau", "Radau", "DOP853"]


def test_window_method_bounds_the_explicit_steps():
    # the bound integrates the rate over the window: at sigma 1.5e-4 it is
    # ~12,100, as many as the DOP853 steps the window takes, where 10 units
    # of tau at the peak rate gave ~80,000
    deph = DephasingModel(0.01, 0.0349, 2)
    drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, 1.5e-4)]),
                       sigma=1.5e-4, delta_x=3.5)
    rp = _real_generator(drive, DecayRates(0.004, 0.002))[2]
    rate = quad(lambda tau: float(deph.rate(drive.amplitude_at(tau))[0]),
                -5.0, 5.0)[0]
    steps = 1.5e-4 * np.abs(rp).max() * rate / dynamics._EXPLICIT_STABILITY
    assert 12_000 < steps < 12_200
    for limit, method in ((0.99 * steps, "Radau"), (1.01 * steps, "DOP853")):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_RADAU_STEPS", limit)
            chosen = dynamics._window_method(drive, deph, (-5.0, 5.0))
        assert chosen == method


@pytest.mark.parametrize("drive, decay", [
    (PulseDrive(omega0=1.3, sigma=4.0, delta_x=3.5, delta_b=0.1),
     DecayRates(0.004, 0.002)),
    (PulseDrive(omega0=0.2, sigma=12.0, delta_x=-0.7, delta_b=2.0),
     NO_DECAY),
    (ConstantDrive(omega0=5.0, delta_x=0.0, delta_b=0.0),
     DecayRates(0.5, 0.0)),
])
def test_dephasing_part_is_one_diagonal(drive, decay):
    # _window_method bounds the dephasing eigenvalues by _RP_MAX, taken
    # once: rp is diagonal, the same whatever the drive and decay, with
    # entries 0 (populations and integrals), -1 (g-b) and -5/2 (g-x, x-b)
    rp = _real_generator(drive, decay)[2]
    assert np.array_equal(rp, np.diag(np.diag(rp)))
    assert sorted(set(np.diag(rp))) == [-2.5, -1.0, 0.0]
    assert dynamics._RP_MAX == np.abs(rp).max() == 2.5


def test_forced_radau_matches_dop853(monkeypatch, window_methods):
    # at sigma 1e-3 the bound on DOP853's steps is ~1,800, above the Radau
    # threshold of 800 for two drives: Radau steps the batch, and DOP853,
    # forced by a threshold of ~13,000, agrees with it
    drive = PulseDrive(omega0=omega0_for_area(np.array([5.0, 20.0]), 1e-3),
                       sigma=1e-3, delta_x=3.5)
    decay, deph = DecayRates(0.004, 0.002), DephasingModel(0.01, 0.0349, 2)
    implicit = np.array(emission_after_pulse(drive, decay, deph))
    monkeypatch.setattr(dynamics, "_RADAU_STEPS", 10_000)
    explicit = np.array(emission_after_pulse(drive, decay, deph))
    assert window_methods == ["Radau", "DOP853"]
    assert np.abs(implicit - explicit).max() < 1e-10


def test_moderately_stiff_single_drive_steps_with_radau(window_methods):
    # at sigma 5e-4 dephasing alone forces DOP853 to ~3,600 steps (0.27 s
    # against Radau's 0.09 s): past the threshold of 800 for one drive,
    # Radau steps the window, within 20 tol of the oracle
    decay, deph = DecayRates(0.004, 0.002), DephasingModel(0.01, 0.0349, 2)
    drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, 5e-4)]),
                       sigma=5e-4, delta_x=3.5)
    p = np.array(emission_after_pulse(drive, decay, deph))
    assert window_methods == ["Radau"]
    ref = np.array(oracles.pulse_emission([20.0], 5e-4, 3.5, 0.004, 0.002,
                                          0.01, 0.0349, 2, method="Radau"))
    assert np.abs(p - ref).max() <= 20 * 1e-8


def test_mildly_stiff_single_drive_steps_with_dop853(window_methods):
    # at sigma 3.8e-3 the bound on DOP853's steps is ~477, under the
    # threshold of 800 for one drive, where DOP853 (0.04 s) is faster than
    # Radau (0.06 s): DOP853 steps the window, within 20 tol of the oracle
    decay, deph = DecayRates(0.004, 0.002), DephasingModel(0.01, 0.0349, 2)
    drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, 3.8e-3)]),
                       sigma=3.8e-3, delta_x=3.5)
    p = np.array(emission_after_pulse(drive, decay, deph))
    assert window_methods == ["DOP853"]
    ref = np.array(oracles.pulse_emission([20.0], 3.8e-3, 3.5, 0.004, 0.002,
                                          0.01, 0.0349, 2, method="Radau"))
    assert np.abs(p - ref).max() <= 20 * 1e-8


def test_window_method_needs_no_numpy_trapezoid(monkeypatch):
    # np.trapezoid is new in numpy 2.0; the estimate must not need it
    monkeypatch.delattr(np, "trapezoid", raising=False)
    drive = PulseDrive(omega0=np.array([omega0_for_area(20.0, 1.5e-4)]),
                       sigma=1.5e-4, delta_x=3.5)
    chosen = dynamics._window_method(
        drive, DephasingModel(0.01, 0.0349, 2), (-5.0, 5.0))
    assert chosen == "Radau"


# scipy's DOP853 error estimates E5 K and E3 K, stacked
_E = np.stack((scipy.integrate.DOP853.E5, scipy.integrate.DOP853.E3))
_ERROR_NORM = dynamics._error_norm


def _error_norm_inputs(n: int, seed: int):
    """Random (K, h, scale) of n drives for an error norm of (E5 K, E3 K):
    K holds the 13 stages of the 11 n components."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(13, 11 * n)), 0.37,
            rng.uniform(1e-9, 1e-7, size=11 * n))


def _scipys_norm(K, h, scale):
    """scipy's DOP853 error norm of the stages K."""
    dop853 = scipy.integrate.DOP853
    return dop853._estimate_error_norm(dop853, K, h, scale)


def test_dop853_error_norm_is_scipys_for_one_drive():
    # the same formula as scipy's, with sums of squares for its squared
    # np.linalg.norm: equal to rounding
    K, h, scale = _error_norm_inputs(1, 3)
    assert _ERROR_NORM(_E @ K, h, scale) == pytest.approx(
        _scipys_norm(K, h, scale), rel=1e-14, abs=0.0)


def test_dop853_error_norm_is_the_largest_drive_norm():
    # drive n of the (11, 5) state raveled row-major holds components n::5
    K, h, scale = _error_norm_inputs(5, 4)
    alone = [_scipys_norm(K[:, n::5], h, scale[n::5]) for n in range(5)]
    assert _ERROR_NORM(_E @ K, h, scale) == pytest.approx(
        max(alone), rel=1e-14, abs=0.0)
    # a drive with no error reads 0 and leaves the other drive's norm
    K, h, scale = _error_norm_inputs(2, 5)
    K[:, 0::2] = 0.0
    assert _ERROR_NORM(_E @ K, h, scale) == pytest.approx(
        _scipys_norm(K[:, 1::2], h, scale[1::2]), rel=1e-14, abs=0.0)
    assert _ERROR_NORM(_E @ (0.0 * K), h, scale) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dop853_error_norm_rejects_a_non_finite_drive(bad):
    K, h, scale = _error_norm_inputs(5, 6)
    K[:, 2] = bad  # component 0 of drive 2
    with np.errstate(invalid="ignore"):  # as ``_window_steps`` is iterated
        assert not _ERROR_NORM(_E @ K, h, scale) < 1.0


def test_dop853_steps_a_batch_through_its_error_norm(monkeypatch):
    # the step must decide by the per-drive norm: a two-drive window takes
    # one call per step tried, at least one per accepted step
    calls = []

    def counted(err, h, scale):
        calls.append(scale.size)
        return _ERROR_NORM(err, h, scale)

    monkeypatch.setattr(dynamics, "_error_norm", counted)
    drive = PulseDrive(omega0=omega0_for_area(np.array([3.0, 9.0]), 12.0),
                       sigma=12.0, delta_x=3.5)
    y0 = np.repeat(dynamics._initial_state(GROUND, 1.0, 0.0)[:, None], 2, 1)
    steps = len(list(dynamics._window_steps(
        y0, drive, DecayRates(0.004, 0.002), NO_DEPH, (-5.0, 5.0), 1e-8))) - 1
    assert steps > 0 and len(calls) >= steps
    assert set(calls) == {22}


def _scripted(norms, tried: list):
    """An error norm that returns ``norms`` in turn, then 0.5, whatever
    its arguments, and appends to ``tried`` on each call."""
    norms = itertools.chain(norms, itertools.repeat(0.5))

    def norm(*args):
        tried.append(None)
        return next(norms)

    return norm


@pytest.mark.parametrize("norms, tau_span, fails", [
    # a rejection, then an accepted step that may not grow (min(1, factor)),
    # then growth by 10 (norm 0) up to max_step, a rejection followed by
    # norm 0, whose factor is 1, and steps of norm 0.5 to the end
    ([3.0, 0.4, 0.0, 0.5, 0.9, 2.0, 0.0, 1e-3, 0.3], (0.0, 4.5), False),
    # a short span, whose steps grow to max_step at once and whose last
    # step is clipped to its end
    ([0.7, 0.0, 0.2, 0.0], (0.5, 0.8), False),
    # rejected down to the smallest step: h falls below 10 ulp of tau
    ([2.0, 0.0] + [1e30] * 40, (1.0, 4.0), True),
], ids=["reject-grow", "clip", "too-small"])
def test_dop853_step_control_decides_as_scipys(monkeypatch, norms, tau_span,
                                               fails):
    # Fed the same error norms, the window's DOP853 takes the steps of
    # scipy's control law (RungeKutta._step_impl under OdeSolver.step) from
    # scipy's initial step: the same pulse times after as many attempts,
    # bit for bit, and a failure where scipy's fails, naming DOP853 and
    # that pulse time.  At sigma 1 and t0 0, t is tau.
    tol, ours, theirs, handed = 1e-8, [], [], []
    steps = dynamics._dop853_steps

    def recorded(rhs, *args):
        handed.append(rhs)
        return steps(rhs, *args)

    monkeypatch.setattr(dynamics, "_dop853_steps", recorded)
    monkeypatch.setattr(dynamics, "_error_norm", _scripted(norms, ours))
    drive = PulseDrive(omega0=np.array([0.5]), sigma=1.0, delta_x=3.5)
    y0 = dynamics._initial_state(GROUND, 1.0, 0.0)[:, None]
    decisions, failure = [], None
    try:
        for t, _ in dynamics._window_steps(y0, drive, DecayRates(0.004, 0.002),
                                           NO_DEPH, tau_span, tol):
            decisions.append((t, len(ours)))
    except IntegrationError as exc:
        failure = exc

    class Scripted(scipy.integrate.DOP853):
        _estimate_error_norm = _scripted(norms, theirs)

    solver = Scripted(handed[0], tau_span[0], y0.ravel(), tau_span[1],
                      max_step=(tau_span[1] - tau_span[0]) / 40.0, rtol=tol,
                      atol=tol)
    expected = [(solver.t, 0)]
    while solver.status == "running":
        message = solver.step()
        if solver.status != "failed":
            expected.append((solver.t, len(theirs)))
    assert decisions == expected and len(decisions) >= 2
    assert len(ours) == len(theirs)
    assert (failure is not None) == fails == (solver.status == "failed")
    if fails:
        assert str(failure) == ("DOP853 integration failed at pulse time "
                                f"tau = {solver.t:.6g}: {message}")
        assert failure.t == solver.t
    else:
        assert decisions[-1][0] == tau_span[1]


def _handed(monkeypatch, drive, deph, decay, method=None):
    """(name, args): the method ``_window_steps`` chose for the pulse window
    of ``drive`` and what it handed that method's generator: (rhs,
    operators, apply, tau, y, tau_end, max_step, tol) for "DOP853", (rhs,
    jac, ...) for "Radau", forced if ``method`` names one.  Nothing is
    stepped."""
    handed = []

    def fake(name):
        def steps(*args):
            handed.append((name, args))
            *_, tau, y, tau_end, max_step, tol = args
            yield tau_end, y

        return steps

    monkeypatch.setattr(dynamics, "_dop853_steps", fake("DOP853"))
    monkeypatch.setattr(dynamics, "_radau_steps", fake("Radau"))
    if method is not None:
        monkeypatch.setattr(dynamics, "_window_method", lambda *args: method)
    n = np.size(drive.omega0)
    y0 = np.repeat(dynamics._initial_state(GROUND, 1.0, 0.0)[:, None], n, 1)
    list(dynamics._window_steps(y0, drive, decay, deph, (-5.0, 5.0), 1e-8))
    (name, args), = handed
    return name, args


def _mixed_batch():
    """(drive, deph, decay) of six drives, each with its own sigma and t0,
    n_p 0, 2, 4 and 60, and two drives off."""
    drive = PulseDrive(omega0=np.array([0.3, 0.0, 1.2, 2.0, 2.0, 0.0]),
                       sigma=np.array([1.0, 4.0, 12.0, 0.5, 3.0, 2.0]),
                       t0=np.array([0.0, -3.0, 2.0, 1.0, 0.5, -1.0]),
                       delta_x=3.5, delta_b=0.1)
    deph = DephasingModel(np.array([0.01, 0.0, 0.02, 0.01, 0.01, 0.02]),
                          np.array([0.0349, 0.1, 0.0219, 0.2, 0.03, 0.05]),
                          np.array([0, 2, 4, 2, 60, 0]))
    return drive, deph, DecayRates(0.004, 0.002)


def test_window_rhs_applies_the_generator_of_each_drive(monkeypatch):
    # the coefficient rows give, per drive, sigma (r0 + omega rd + rate rp)
    # with omega from amplitude_at and rate from DephasingModel.rate: for a
    # batch with its own sigma, n_p 0, 2, 4 and 60 and two drives off, and
    # for each drive alone, out to the window ends, where e^60 underflows
    # to 0; the drive off with n_p 0 has rate gamma_bg + gamma_i0, as
    # 0.0**0 is 1
    drive, deph, decay = _mixed_batch()
    r0, rd, rp = _real_generator(drive, decay)
    y = np.random.default_rng(9).normal(size=(11, 6))
    batch = _handed(monkeypatch, drive, deph, decay)[1][0]
    for tau in (-5.0, -4.2, -0.3, 0.0, 1.7, 5.0):
        dy = batch(tau, y.ravel()).reshape(11, 6)
        assert np.isfinite(dy).all()
        for i in range(6):
            one = PulseDrive(drive.omega0[i], drive.sigma[i], drive.t0[i],
                             delta_x=3.5, delta_b=0.1)
            rates = DephasingModel(deph.gamma_bg[i], deph.gamma_i0[i],
                                   int(deph.n_p[i]))
            omega = one.amplitude_at(tau)
            ref = one.sigma * (r0 + omega * rd + rates.rate(omega) * rp) \
                @ y[:, i]
            scale = np.abs(ref).max()
            assert np.abs(dy[:, i] - ref).max() <= 1e-13 * scale
            alone = _handed(monkeypatch, one, rates, decay)[1][0]
            assert np.abs(alone(tau, y[:, i]) - ref).max() <= 1e-13 * scale


def _one_drive():
    """(drive, deph, decay) of the pulse that calibrates v_coh in the
    benchmark's entangle runs."""
    return (PulseDrive(omega0=omega0_for_area(14.0, 12.0), sigma=12.0,
                       delta_x=3.5),
            DephasingModel(0.0, 0.0349, 2), DecayRates(0.004, 0.002))


def _mixed_batch_off_stiffness():
    """``_mixed_batch`` with its n_p = 60 drive at omega0 1: at 2 its rate,
    ~3e16 /ps, makes the window stiff, and Radau steps it."""
    drive, deph, decay = _mixed_batch()
    omega0 = drive.omega0.copy()
    omega0[4] = 1.0
    return replace(drive, omega0=omega0), deph, decay


def _stepped_window(monkeypatch, window, tol):
    """(rhs, y0, accepted, attempts) of ``window``'s DOP853 pulse window
    over (-5, 5): the right-hand side ``_window_steps`` handed
    ``_dop853_steps`` and the (11 N,) start; then (tau, y, attempts so far)
    of each accepted step, and the error estimates (E5 K, E3 K), h and the
    13 stage derivatives K of each attempted one, K[1:] as the stepper's
    own ``apply`` wrote them."""
    handed, accepted, attempts, stages = [], [], [], []
    steps = dynamics._dop853_steps

    def recorded(rhs, operators, apply, tau, y, *rest):
        handed.append((rhs, operators, apply, tau, y, *rest))

        def recording(op, y_in, out):
            apply(op, y_in, out)
            stages.append(out.ravel().copy())

        # K[0]: the derivative at the first step's start, then the end
        # derivative K[12] of the last accepted step
        stages.append(rhs(tau, y))
        for tau, y in steps(rhs, operators, recording, tau, y, *rest):
            accepted.append((tau, y, len(attempts)))
            stages[:] = [attempts[-1][2][-1]]
            yield tau, y

    def norm(err, h, scale):
        # the 12 derivatives of this attempt follow its K[0]
        K = np.array(stages[-13:])
        del stages[-12:]
        attempts.append((err.copy(), h, K))
        return _ERROR_NORM(err, h, scale)

    monkeypatch.setattr(dynamics, "_dop853_steps", recorded)
    monkeypatch.setattr(dynamics, "_error_norm", norm)
    drive, deph, decay = window()
    n = np.size(drive.omega0)
    y0 = np.repeat(dynamics._initial_state(GROUND, 1.0, 0.0)[:, None], n, 1)
    list(dynamics._window_steps(y0, drive, decay, deph, (-5.0, 5.0), tol))
    (rhs, _, _, tau, y, *_), = handed
    assert tau == -5.0 and np.array_equal(y, y0.ravel())
    return rhs, y, accepted, attempts


def _per_drive(a, n):
    """Largest |a| of each drive, for rows of the (11, N) state raveled."""
    return np.abs(a).reshape(-1, 11, n).max(axis=(0, 1))


@pytest.mark.parametrize("window", [_one_drive, _mixed_batch_off_stiffness],
                         ids=["one-drive", "mixed-batch"])
def test_dop853_steps_as_scipys_stage_loop(monkeypatch, window):
    # The window takes scipy's DOP853 steps, with the same right-hand side
    # and error norm, up to rounding: one drive those of stock
    # scipy.integrate.DOP853, a batch those of scipy's step with the
    # per-drive norm.  It takes as many accepted steps, with as many
    # evaluations, to the same state.  Its pulse times agree within 1e-7:
    # the error estimate E K is a cancelling sum, which magnifies a stage's
    # rounding into the step size.
    tol = 1e-8
    rhs, y0, accepted, attempts = _stepped_window(monkeypatch, window, tol)
    n = y0.size // 11
    dop853 = scipy.integrate.DOP853
    if n > 1:
        class PerDrive(dop853):
            def _estimate_error_norm(self, K, h, scale):
                return _ERROR_NORM(_E @ K, h, scale)

        dop853 = PerDrive
    stock = dop853(rhs, -5.0, y0, 5.0, max_step=0.25, rtol=tol, atol=tol)
    stock_taus = [stock.t]
    while stock.status == "running":
        stock.step()
        stock_taus.append(stock.t)
    assert stock.status == "finished"
    taus = [-5.0] + [tau for tau, _, _ in accepted]
    assert len(taus) == len(stock_taus)
    assert np.abs(np.subtract(taus, stock_taus)).max() <= 1e-7
    assert (_per_drive(accepted[-1][1] - stock.y, n)
            <= 1e-13 * _per_drive(stock.y, n)).all()
    # scipy evaluates the right-hand side twice for its initial step, then
    # 12 times per attempted step
    assert stock.nfev == 2 + 12 * len(attempts) > 12 * (len(taus) - 1)


def test_dop853_error_estimates_come_from_the_end_product(monkeypatch):
    # For one drive and for a mixed batch, each attempted step's error
    # rows are E5 K and E3 K over all 13 of its own stages, up to
    # rounding (measured: equal), though the end product takes only the
    # first 12: E5 and E3 weight K[12] by 0.  From each accepted step's
    # start, scipy's rk_step with the same h (one call of the right-hand
    # side per stage) gives y_new within 1e-14 of each drive's scale
    # (measured 4.3e-16), and f_new within 1e-11 of the drive's largest
    # stage derivative (measured 3.8e-13): the operator's entries, up to
    # sigma delta_x = 42, exceed the derivatives, which cancel near the
    # ground state.
    # scipy's private rk_step is imported here, so that a scipy release
    # that moves it fails this test alone
    from scipy.integrate._ivp.rk import rk_step

    dop853 = scipy.integrate.DOP853
    for window in (_one_drive, _mixed_batch_off_stiffness):
        with monkeypatch.context() as patched:
            rhs, y, accepted, attempts = _stepped_window(patched, window,
                                                         1e-8)
        largest = 0.0
        for err, _, K in attempts:
            ref = _E @ K
            assert np.abs(err - ref).max() <= 1e-13 * np.abs(K).max()
            largest = max(largest, np.abs(ref).max() / np.abs(K).max())
        assert largest > 1e-6
        n = y.size // 11
        K, tau = np.empty((13, y.size)), -5.0
        for tau_new, y_new, tried in accepted:
            h = tau_new - tau
            assert attempts[tried - 1][1] == h
            ref, f_ref = rk_step(rhs, tau, y, rhs(tau, y), h, dop853.A,
                                 dop853.B, dop853.C, K)
            assert (_per_drive(y_new - ref, n)
                    <= 1e-14 * _per_drive(ref, n)).all()
            assert (_per_drive(rhs(tau_new, y_new) - f_ref, n)
                    <= 1e-11 * _per_drive(K, n)).all()
            tau, y = tau_new, y_new


@pytest.mark.parametrize("n", [1, 3])
def test_window_rhs_returns_a_new_array_each_call(monkeypatch, n):
    # Radau keeps the derivatives it is given (its f and the stages of its
    # Newton iteration), so a reused output array would change them
    drive = PulseDrive(omega0=np.linspace(0.3, 1.2, n), sigma=4.0,
                       delta_x=3.5)
    name, (rhs, *_) = _handed(monkeypatch, drive,
                              DephasingModel(0.01, 0.0349, 2),
                              DecayRates(0.004, 0.002), method="Radau")
    assert name == "Radau"
    y = np.random.default_rng(3).normal(size=11 * n)
    first = rhs(-0.4, y)
    kept = first.copy()
    second = rhs(1.3, y)
    assert second is not first and not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


def test_block_jacobian_applies_lindblad_rhs():
    # Radau's Jacobian is, per drive, sigma times the master equation at
    # its own time t0 + sigma tau, on the coordinates of rho, and sigma
    # times rho_xx and rho_bb on the two integrals
    drive = PulseDrive(omega0=np.array([0.3, 1.2, 2.0]),
                       sigma=np.array([1.0, 4.0, 12.0]),
                       t0=np.array([0.0, -3.0, 2.0]), delta_x=3.5,
                       delta_b=0.1)
    gamma_i0, decay = np.array([0.0, 0.0349, 0.1]), DecayRates(0.004, 0.002)
    rows = dynamics._pulse_rows(*dynamics._pulse_coefficients(
        drive, DephasingModel(0.01, gamma_i0, 2), 3), (3, 3))
    jac = dynamics._block_jacobian(_real_generator(drive, decay), rows,
                                   3)(0.7, None)
    assert jac.nnz == 121 * 3
    y = np.random.default_rng(5).normal(size=(11, 3))
    dy = (jac @ y.ravel()).reshape(11, 3)
    basis = hermitian_basis(3)
    for i in range(3):
        one = PulseDrive(drive.omega0[i], drive.sigma[i], drive.t0[i],
                         delta_x=3.5, delta_b=0.1)
        rho = np.einsum("k,kij->ij", y[:9, i], basis)
        ref = one.sigma * lindblad_rhs(
            rho, one.t0 + 0.7 * one.sigma, one, decay,
            DephasingModel(0.01, gamma_i0[i], 2))
        assert np.abs(np.einsum("k,kij->ij", dy[:9, i], basis)
                      - ref).max() < 1e-12
        assert np.abs(dy[9:, i] - one.sigma * rho[[X, B], [X, B]]).max() \
            < 1e-12


def _radau_window(monkeypatch, window):
    """(fun, jac, N): the right-hand side and Jacobian ``_window_steps``
    hands Radau for ``window`` of N drives, with Radau forced."""
    drive, deph, decay = window()
    _, (fun, jac, *_) = _handed(monkeypatch, drive, deph, decay,
                                method="Radau")
    return fun, jac, np.size(drive.omega0)


@pytest.mark.parametrize("window", [_one_drive, _mixed_batch],
                         ids=["one-drive", "mixed-batch"])
def test_radau_jacobian_is_the_derivative_of_its_rhs(monkeypatch, window):
    # the right-hand side is linear in the state, so Radau's Jacobian at
    # pulse time tau applied to any y is the right-hand side there: one
    # drive's is its dense (11, 11) generator, a batch's the block-diagonal
    # CSC matrix of 121 entries per drive
    fun, jac, n = _radau_window(monkeypatch, window)
    y = np.random.default_rng(11).normal(size=11 * n)
    for tau in (-5.0, -0.3, 0.0, 1.7, 5.0):
        J = jac(tau, y)
        if n == 1:
            assert isinstance(J, np.ndarray) and J.shape == (11, 11)
        else:
            assert J.format == "csc" and J.nnz == 121 * n
        ref = fun(tau, y)
        assert np.isfinite(ref).all()
        assert (_per_drive(J @ y - ref, n)
                <= 1e-13 * _per_drive(ref, n)).all()


@pytest.mark.parametrize("drive, deph, t_span", [
    pytest.param(PulseDrive(omega0=math.inf, sigma=4.0), NO_DEPH, None,
                 id="drive1"),
    pytest.param(PulseDrive(omega0=1.0, sigma=4.0),
                 DephasingModel(gamma_bg=math.inf), None,
                 id="infinite-gamma_bg"),
    # the stretch before the window is propagated exactly: its generator
    # must be checked as well
    pytest.param(PulseDrive(omega0=1.0, sigma=4.0),
                 DephasingModel(gamma_bg=math.inf), (-100.0, 100.0),
                 id="infinite-gamma_bg-before-window"),
])
def test_evolve_non_finite_drive_fails_at_start(drive, deph, t_span):
    t_span = t_span or pulse_window(drive)
    start = time.perf_counter()
    with pytest.raises(IntegrationError) as err:
        evolve(GROUND, drive, DecayRates(), deph, t_span=t_span)
    assert err.value.t == t_span[0]
    assert time.perf_counter() - start < 1.0


ACCEPTANCE_06 = dict(decay=DecayRates(gamma_b=0.004, gamma_x=0.002),
                     deph=DephasingModel(gamma_bg=0.01, gamma_i0=0.0349))


def test_default_span_steps_the_window_like_a_window_only_evolve():
    drive = PulseDrive(omega0=omega0_for_area(20.0, 12.0), sigma=12.0,
                       delta_x=3.5)
    full = evolve(GROUND, drive, **ACCEPTANCE_06, tol=1e-8)
    window = evolve(GROUND, drive, **ACCEPTANCE_06,
                    t_span=pulse_window(drive), tol=1e-8)
    n = len(window.times)
    assert np.array_equal(full.times[:n], window.times)
    assert np.array_equal(full.states[:n], window.states)
    assert np.array_equal(full.integrals[:n], window.integrals)
    # after the window: at most 400 rows of the exact propagation
    assert len(full.times) - n <= 400


@pytest.mark.parametrize("deph", [
    pytest.param(ACCEPTANCE_06["deph"], id="acceptance-06"),
    pytest.param(DephasingModel(0.0, 0.0219, 4), id="quartic"),
    pytest.param(NO_DEPH, id="no-dephasing"),
])
@pytest.mark.parametrize("delta_x", [0.5, 3.5])
@pytest.mark.parametrize("sigma", [1.0, 4.0, 12.0])
def test_pulse_window_emission_matches_oracle(sigma, delta_x, deph):
    # Against DOP853 at rtol 1e-13 on the column-stacked equation: a batch
    # and every other area stepped alone stay within 20 tol.  The largest
    # error on this grid is 9.9 tol: area 30 alone at sigma 1, delta_x 0.5,
    # no dephasing, tol 1e-6.
    decay, areas = ACCEPTANCE_06["decay"], np.geomspace(0.3, 30.0, 12)
    ref = np.array(oracles.pulse_emission(
        areas, sigma, delta_x, decay.gamma_b, decay.gamma_x,
        deph.gamma_bg, deph.gamma_i0, deph.n_p))
    drive = PulseDrive(omega0=omega0_for_area(areas, sigma),
                       sigma=sigma, delta_x=delta_x)
    for tol in (1e-6, 1e-8):
        batch = np.array(emission_after_pulse(drive, decay, deph, tol=tol))
        assert np.abs(batch - ref).max() <= 20 * tol
        for i in range(1, len(areas), 2):
            alone = emission_after_pulse(
                replace(drive, omega0=drive.omega0[i:i + 1]), decay, deph,
                tol=tol)
            assert np.abs(np.ravel(alone) - ref[:, i]).max() <= 20 * tol


@pytest.mark.parametrize("deph", [
    pytest.param(ACCEPTANCE_06["deph"], id="acceptance-06"),
    pytest.param(NO_DEPH, id="no-dephasing"),
])
def test_mixed_sigma_batch_matches_oracle(deph):
    # one batch steps sigma 1, 4 and 12 in pulse time, as one system with
    # one step sequence, within the 20 tol of each sigma's own batch
    decay, areas = ACCEPTANCE_06["decay"], np.geomspace(0.3, 30.0, 12)
    sigmas = np.repeat([1.0, 4.0, 12.0], len(areas))
    ref = np.hstack([oracles.pulse_emission(
        areas, sigma, 3.5, decay.gamma_b, decay.gamma_x, deph.gamma_bg,
        deph.gamma_i0, deph.n_p) for sigma in (1.0, 4.0, 12.0)])
    drive = PulseDrive(omega0=omega0_for_area(np.tile(areas, 3), sigmas),
                       sigma=sigmas, delta_x=3.5)
    for tol in (1e-6, 1e-8):
        batch = np.array(emission_after_pulse(drive, decay, deph, tol=tol))
        assert np.abs(batch - ref).max() <= 20 * tol


def test_drive_off_stretch_is_propagated_exactly():
    # with n_p = 0 the dephasing rate is gamma_bg + gamma_i0 at any drive
    rng = np.random.default_rng(7)
    rho0 = oracles.random_density_matrix(rng, 3)
    drive = PulseDrive(omega0=0.3, sigma=4.0, delta_x=0.6, delta_b=-0.1)
    gb, gx, g_bg, g_i0 = 0.08, 0.05, 0.02, 0.03
    traj = evolve(rho0, drive, DecayRates(gb, gx),
                  DephasingModel(gamma_bg=g_bg, gamma_i0=g_i0, n_p=0),
                  t_span=(-100.0, 30.0), tol=1e-9)
    before = traj.times <= pulse_window(drive)[0]
    assert before.sum() > 100
    h = oracles.ladder_hamiltonian(0.0, 0.6, -0.1)
    jumps = oracles.ladder_jumps(gb, gx, g_bg + g_i0)
    err = max(np.abs(traj.states[i] - oracles.propagate_expm(
        rho0, h, jumps, traj.times[i] + 100.0)).max()
        for i in np.flatnonzero(before))
    assert err < 1e-12


def test_exact_propagation_rows_are_expm_of_their_time():
    # the rows come from powers of one step, each product doubling the rows
    # filled: row k is exp(gen (t_k - t_start)) @ y, the integrals too,
    # across each doubling and in the last, partial one (rows 257 .. 400)
    drive = PulseDrive(omega0=0.3, sigma=4.0, delta_x=0.6, delta_b=-0.1)
    r0, rd, rp = _real_generator(drive, DecayRates(0.08, 0.05))
    gen = r0 + 0.7 * rd + 0.02 * rp
    y = dynamics._initial_state(oracles.random_density_matrix(
        np.random.default_rng(11), 3), 1e-12, 2.0)
    times, states = dynamics._propagate_exactly(gen, y, 2.0, 62.0, 1e-9)
    assert len(times) == 400 and times[-1] == 62.0
    for k in (0, 1, 2, 3, 4, 127, 128, 255, 256, 257, 398, 399):
        ref = expm(gen * (times[k] - 2.0)) @ y
        assert np.abs(states[:, k] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_picosecond_fraction_pulse_evolves_quickly():
    # the drive-off tail is propagated exactly, so the step count no longer
    # scales with span / sigma
    drive = PulseDrive(omega0=omega0_for_area(20.0, 1e-6), sigma=1e-6,
                       delta_x=3.5)
    start = time.perf_counter()
    traj = evolve(GROUND, drive, DecayRates(gamma_b=0.004, gamma_x=0.002),
                  DephasingModel(gamma_bg=0.01, gamma_i0=0.0), tol=1e-8)
    assert time.perf_counter() - start < 5.0
    assert len(traj.times) <= 1000
    assert traj.times[-1] == default_t_span(drive, DecayRates(0.004, 0.002))[1]


def test_batch_non_finite_drive_fails_at_start():
    drive = PulseDrive(omega0=np.array([0.2, math.inf, 0.4]), sigma=4.0)
    with pytest.raises(IntegrationError) as err:
        emission_after_pulse(drive, DecayRates(), NO_DEPH)
    assert err.value.t == pulse_window(drive)[0]


def test_batch_window_without_width_is_refused():
    # t0 +- 5 sigma rounds to t0: the window would integrate nothing
    drive = PulseDrive(omega0=np.array([0.2]), sigma=12.0, t0=1e300)
    with pytest.raises(ValueError, match="no width"):
        emission_after_pulse(drive, DecayRates(), NO_DEPH)


def test_evolve_refuses_a_window_without_width_in_pulse_time():
    # the window (0, 1) ps of a sigma 1e30 pulse maps to one pulse time:
    # (0 - t0) / sigma and (1 - t0) / sigma both round to 1
    drive = PulseDrive(omega0=1e-30, sigma=1e30, t0=-1e30)
    with pytest.raises(ValueError) as err:
        evolve(GROUND, drive, DecayRates(), NO_DEPH, t_span=(0.0, 1.0))
    assert str(err.value) == (
        "pulse window (0.0, 1.0) has no width in pulse time")


def test_evolve_reports_trace_drift_at_start():
    drive = PulseDrive(omega0=0.5, sigma=4.0)
    t_span = pulse_window(drive)
    with pytest.raises(IntegrationError, match="trace drift") as err:
        evolve(2.0 * GROUND, drive, DecayRates(), NO_DEPH, t_span=t_span)
    assert err.value.t == t_span[0]


def test_drift_messages_name_the_method():
    # a drift or a state that is not finite says what computed it: the
    # DOP853 or Radau window, or the exact propagation outside it
    stiff = PulseDrive(omega0=omega0_for_area(20.0, 1e-6), sigma=1e-6,
                       delta_x=3.5)
    drive = PulseDrive(omega0=0.5, sigma=4.0)
    cases = [
        (drive, NO_DEPH, pulse_window(drive), "DOP853 window"),
        (stiff, DephasingModel(0.01, 0.0349, 2), pulse_window(stiff),
         "Radau window"),
        (drive, NO_DEPH, (-100.0, 20.0), "exact propagation"),
        (ConstantDrive(0.5), NO_DEPH, (0.0, 10.0), "exact propagation"),
    ]
    for drv, deph, t_span, where in cases:
        with pytest.raises(IntegrationError) as err:
            evolve(2.0 * GROUND, drv, DecayRates(), deph, t_span=t_span)
        assert str(err.value) == f"trace drift 1.000e+00 exceeds 1.0e-07 in the {where}"
        assert err.value.t == t_span[0]
    y = np.zeros((11, 2))
    y[:3] = 1.0 / 3.0
    y[4, 1] = math.nan
    with pytest.raises(IntegrationError) as err:
        dynamics._check_drift(np.array([0.0, 2.5]), y, 1e-7, "Radau window")
    assert str(err.value) == "state is not finite in the Radau window"
    assert err.value.t == 2.5


@pytest.mark.parametrize("method", ["DOP853", "Radau"])
def test_overflow_mid_window_fails_with_its_time(rows_overflow_past_half,
                                                 window_methods, method):
    # past tau = 0.5 (t = 6) every step has a NaN or inf error norm, so the
    # stepper rejects it until it fails there: one drive and a batch end
    # with one time each, never with a state that is not finite
    rows_overflow_past_half(method)
    decay, deph = DecayRates(0.004, 0.002), DephasingModel(0.01, 0.0349, 2)
    omega0 = omega0_for_area(np.array([5.0, 20.0]), 12.0)
    runs = [lambda: evolve(GROUND, PulseDrive(omega0=omega0[1], sigma=12.0,
                                              delta_x=3.5),
                           decay, deph, t_span=(-100.0, 100.0)),
            lambda: emission_after_pulse(
                PulseDrive(omega0=omega0, sigma=12.0, delta_x=3.5), decay,
                deph)]
    for run in runs:
        with pytest.raises(IntegrationError,
                           match=f"^{method} integration failed at pulse "
                                 "time tau = 0.5: ") as err:
            run()
        assert isinstance(err.value.t, float)
        assert err.value.t == pytest.approx(6.0, rel=1e-12)
    assert window_methods == [method, method]


def test_evolve_rejects_non_hermitian_start():
    # the state keeps only the Hermitian part of rho0, so a defect must fail
    drive = PulseDrive(omega0=0.5, sigma=4.0)
    rho0 = GROUND.copy()
    rho0[G, X] = 1e-3
    window = pulse_window(drive)
    for t_span in (window, (-100.0, window[1])):
        with pytest.raises(IntegrationError, match="hermiticity drift") as err:
            evolve(rho0, drive, DecayRates(), NO_DEPH, t_span=t_span)
        assert err.value.t == t_span[0]


def test_default_span_covers_pulse_and_decay():
    drive = PulseDrive(omega0=1.0, sigma=4.0, t0=2.0)
    decay = DecayRates(gamma_b=0.02, gamma_x=0.01)
    t0, t1 = default_t_span(drive, decay)
    assert t0 == 2.0 - 20.0
    assert t1 == 2.0 + 20.0 + 1000.0


# --- emission probabilities ----------------------------------------------------

def test_emission_zero_drive_from_ground():
    drive = PulseDrive(omega0=0.0, sigma=1.0)
    traj = evolve(GROUND, drive, DecayRates(0.5, 0.25), NO_DEPH,
                  t_span=(0.0, 20.0))
    p_x, p_b = np.array(cumulative_emission(traj, DecayRates(0.5, 0.25)))[:, -1]
    assert p_x == pytest.approx(0.0, abs=1e-12)
    assert p_b == pytest.approx(0.0, abs=1e-12)


def test_emission_cascade_complete():
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    drive = ConstantDrive(omega0=0.0, delta_x=0.0)
    traj = evolve(BIEXCITON, drive, decay, NO_DEPH, t_span=(0.0, 20.0),
                  tol=1e-10)
    p_x, p_b = np.array(cumulative_emission(traj, decay))[:, -1]
    assert p_x == pytest.approx(1.0, abs=1e-5)
    assert p_b == pytest.approx(1.0, abs=1e-5)
    # intermediate time against the closed form: evolve to it
    traj = evolve(BIEXCITON, drive, decay, NO_DEPH, t_span=(0.0, 3.7),
                  tol=1e-10)
    ref_x, ref_b = oracles.cascade_emission(3.7, 2.0, 1.0)
    p_x, p_b = np.array(cumulative_emission(traj, decay))[:, -1]
    assert p_x == pytest.approx(ref_x, abs=1e-6)
    assert p_b == pytest.approx(ref_b, abs=1e-6)


def test_emission_from_exciton_only():
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    traj = evolve(EXCITON, ConstantDrive(omega0=0.0, delta_x=0.0), decay,
                  NO_DEPH, t_span=(0.0, 25.0), tol=1e-10)
    p_x, p_b = np.array(cumulative_emission(traj, decay))[:, -1]
    assert p_x == pytest.approx(1.0, abs=1e-5)
    assert p_b == pytest.approx(0.0, abs=1e-8)


# --- trajectory invariants ------------------------------------------------------

def test_trajectory_conservation_under_drive():
    drive = PulseDrive(omega0=0.9, sigma=3.0, t0=0.0, delta_x=0.5)
    decay = DecayRates(0.05, 0.02)
    deph = DephasingModel(gamma_bg=0.02, gamma_i0=0.1, n_p=2)
    traj = evolve(GROUND, drive, decay, deph, t_span=(-15.0, 60.0), tol=1e-9)
    trace = traj.states.trace(axis1=1, axis2=2)
    assert np.abs(trace - 1.0).max() < 1e-7
    defects = [hermiticity_defect(s) for s in traj.states]
    assert max(defects) < 1e-8
    eigs = [min_eigenvalue(0.5 * (s + s.conj().T)) for s in traj.states]
    assert min(eigs) > -1e-6
    assert np.abs(traj.populations.sum(axis=1) - 1.0).max() < 1e-8


def test_two_photon_pi_pulse_fills_biexciton():
    # coherent transfer: first Rabi maximum of the biexciton photon yield
    from qdtimebin.sweeps import first_cycle_extrema
    decay = DecayRates(gamma_b=2e-4, gamma_x=1e-4)
    _, pb_max, _, pb_min = first_cycle_extrema(
        sigma=12.0, deph=NO_DEPH, decay=decay, delta_x=0.5, tol=1e-9)
    assert pb_max > 0.95
    assert pb_min < 0.05


def test_trajectory_csv_export(tmp_path):
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    traj = evolve(BIEXCITON, ConstantDrive(omega0=0.0, delta_x=0.0), decay,
                  NO_DEPH, t_span=(0.0, 5.0))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, decay, path, params={"note": "cascade"})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "t,rho_gg,rho_xx,rho_bb,re_gb,im_gb,p_x,p_b"
    assert len(lines) == 2 + len(traj.times)
    # cumulative columns approach the analytic totals
    last = [float(v) for v in lines[-1].split(",")]
    ref_x, ref_b = oracles.cascade_emission(5.0, 2.0, 1.0)
    assert last[6] == pytest.approx(ref_x, abs=1e-4)
    assert last[7] == pytest.approx(ref_b, abs=1e-4)


def test_csv_emission_columns_match_closed_form_cascade(tmp_path):
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    traj = evolve(BIEXCITON, ConstantDrive(omega0=0.0, delta_x=0.0), decay,
                  NO_DEPH, t_span=(0.0, 5.0))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(traj, decay, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    ref = np.column_stack(oracles.cascade_emission(traj.times, 2.0, 1.0))
    assert np.abs(rows[:, 6:8] - ref).max() < 1e-11


def test_cumulative_emission_monotone():
    decay = DecayRates(gamma_b=2.0, gamma_x=1.0)
    traj = evolve(BIEXCITON, ConstantDrive(omega0=0.0, delta_x=0.0), decay,
                  NO_DEPH, t_span=(0.0, 5.0))
    px, pb = cumulative_emission(traj, decay)
    assert np.all(np.diff(px) >= 0) and np.all(np.diff(pb) >= 0)
    assert px[0] == pb[0] == 0.0


def test_package_import_leaves_out_scipy_interpolate():
    # emission is read at a trajectory's rows, never between them, so the
    # package has no use for an interpolant
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, qdtimebin; "
            "print('scipy.interpolate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
