import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtimebin.dynamics import ConstantDrive, DecayRates, DephasingModel, PulseDrive, evolve
from qdtimebin.linalg import min_eigenvalue
from qdtimebin.timebin import (
    EE,
    EL,
    LE,
    LL,
    TimeBinModelParams,
    coherence_metric,
    concurrence,
    excitation_coherence,
    export_density_csv,
    fidelity_bell,
    ideal_state,
    import_density_csv,
    model_state,
    time_visibility,
    visibilities,
)

from oracles import (
    fringe_visibility,
    random_density_matrix,
    random_pure_state,
)

GROUND = np.diag([1.0, 0.0, 0.0]).astype(complex)
MIXED = np.eye(4, dtype=complex) / 4.0

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_Y, _Y)


def wootters_oracle(rho):
    """Concurrence via general (non-Hermitian) eigenvalues of rho rho~."""
    rho_tilde = _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.abs(np.sort(np.real(np.linalg.eigvals(rho @ rho_tilde)))[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def fringe_oracle(rho, relative_phase, n=20001):
    """Loop-built joint projection probability, scanned over alpha."""
    best_hi, best_lo = -np.inf, np.inf
    for alpha in np.linspace(0, 2 * np.pi, n):
        ka = np.array([1.0, np.exp(1j * alpha)]) / np.sqrt(2)
        kb = np.array([1.0, np.exp(1j * (alpha + relative_phase))]) / np.sqrt(2)
        p = np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()))
        val = np.real(np.trace(rho @ p))
        best_hi = max(best_hi, val)
        best_lo = min(best_lo, val)
    return (best_hi - best_lo) / (best_hi + best_lo)


# --- ideal state ---------------------------------------------------------------

def test_ideal_state_zero_phase():
    rho = ideal_state(0.0)
    assert rho[EE, EE] == rho[LL, LL] == pytest.approx(0.5)
    assert rho[EE, LL] == rho[LL, EE] == pytest.approx(0.5)
    assert np.count_nonzero(np.abs(rho) > 1e-15) == 4
    assert np.allclose(rho.imag, 0.0)


def test_ideal_state_pi_phase():
    rho = ideal_state(np.pi)
    assert rho[EE, LL] == pytest.approx(-0.5)
    assert rho[LL, EE] == pytest.approx(-0.5)


def test_ideal_state_general_phase_coherence():
    phi = 1.234
    rho = ideal_state(phi)
    assert rho[EE, LL] == pytest.approx(0.5 * np.exp(-1j * phi))
    assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)


# --- model state ---------------------------------------------------------------

def test_model_state_limits():
    ideal = ideal_state(0.7)
    assert np.abs(model_state(TimeBinModelParams(phi_p=0.7)) - ideal).max() == 0.0
    rho = model_state(TimeBinModelParams(phi_p=0.0, epsilon=0.0, v_coh=0.0))
    assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]))
    assert concurrence(rho) == 0.0


def test_accidental_fraction():
    p = TimeBinModelParams(epsilon=0.06)
    q = p.accidental_fraction()
    assert q == pytest.approx(4 * 0.06 ** 2 / (2 * 0.06 * 0.94 + 4 * 0.06 ** 2))
    assert TimeBinModelParams(epsilon=0.0).accidental_fraction() == 0.0
    # halving the pairing weight lowers the accidental fraction
    q2 = TimeBinModelParams(epsilon=0.06, pairing_weight=2.0).accidental_fraction()
    assert q2 < q


def test_model_state_table_consistency():
    # epsilon = 0.06 with v_coh chosen so the Bell fidelity hits 0.88
    eps = 0.06
    q = TimeBinModelParams(epsilon=eps).accidental_fraction()
    v = (2 * (0.88 - q / 4) / (1 - q)) - 1.0
    rho = model_state(TimeBinModelParams(phi_p=0.0, epsilon=eps, v_coh=v))
    f, _ = fidelity_bell(rho)
    assert f == pytest.approx(0.88, abs=1e-12)
    c = concurrence(rho)
    assert 0.78 - 0.06 <= c <= 0.78 + 0.06
    assert c == pytest.approx(wootters_oracle(rho), abs=1e-10)
    val, _, _ = coherence_metric(rho)
    assert 0.39 - 0.03 <= abs(val) <= 0.39 + 0.03


def test_model_state_parameter_validation():
    with pytest.raises(ValueError):
        TimeBinModelParams(epsilon=1.5)
    with pytest.raises(ValueError):
        TimeBinModelParams(v_coh=-0.1)
    with pytest.raises(ValueError):
        TimeBinModelParams(pairing_weight=0.0)


@pytest.mark.parametrize("field", ["phi_p", "epsilon", "v_coh",
                                   "pairing_weight"])
@pytest.mark.parametrize("value", [np.nan, True, np.inf],
                         ids=["nan", "bool", "inf"])
def test_model_params_reject_nan_inf_and_bool(field, value):
    with pytest.raises(ValueError, match=field):
        TimeBinModelParams(**{field: value})


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 2 * np.pi), st.floats(0, 0.5), st.floats(0, 1))
def test_model_state_physical(phi, eps, v):
    rho = model_state(TimeBinModelParams(phi_p=phi, epsilon=eps, v_coh=v))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert min_eigenvalue(rho) > -1e-12


def test_model_state_monotonicity():
    cs_eps = [concurrence(model_state(TimeBinModelParams(epsilon=e, v_coh=0.9)))
              for e in np.linspace(0.0, 0.3, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(cs_eps, cs_eps[1:]))
    cs_v = [concurrence(model_state(TimeBinModelParams(epsilon=0.06, v_coh=v)))
            for v in np.linspace(0.0, 1.0, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(cs_v, cs_v[1:]))


def test_model_state_phase_covariance():
    base = model_state(TimeBinModelParams(phi_p=0.0, epsilon=0.1, v_coh=0.8))
    for phi in np.linspace(0.0, 2 * np.pi, 7):
        rho = model_state(TimeBinModelParams(phi_p=phi, epsilon=0.1, v_coh=0.8))
        u = np.kron(np.diag([1.0, np.exp(1j * phi)]), np.eye(2))
        assert np.abs(rho - u @ base @ u.conj().T).max() < 1e-14
        assert concurrence(rho) == pytest.approx(concurrence(base), abs=1e-10)
        assert fidelity_bell(rho)[0] == pytest.approx(fidelity_bell(base)[0],
                                                      abs=1e-12)


# --- visibilities ----------------------------------------------------------------

def test_visibilities_ideal():
    v = visibilities(ideal_state(0.3))
    assert v[0] == pytest.approx(1.0, abs=1e-12)
    assert v[1] == pytest.approx(1.0, abs=1e-5)
    assert v[2] == pytest.approx(1.0, abs=1e-5)


def test_visibilities_maximally_mixed():
    assert np.allclose(visibilities(MIXED), 0.0, atol=1e-12)
    # a zero matrix has a fringe of zero everywhere: no contrast, no NaN
    assert visibilities(np.zeros((4, 4))) == (0.0, 0.0, 0.0)


def test_visibilities_model_state():
    params = TimeBinModelParams(phi_p=0.0, epsilon=0.06, v_coh=0.911)
    rho = model_state(params)
    q = params.accidental_fraction()
    v_time, v_e0, v_e90 = visibilities(rho)
    assert v_time == pytest.approx(1.0 - q, abs=1e-12)
    assert v_e0 == pytest.approx(fringe_oracle(rho, 0.0), abs=1e-4)
    assert v_e90 == pytest.approx(fringe_oracle(rho, np.pi / 2), abs=1e-4)


def test_visibilities_random_states_match_dense_scan():
    # full 4x4 states, so every harmonic of the fringe contributes
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density_matrix(rng, 4)
        _, v_e0, v_e90 = visibilities(rho)
        assert v_e0 == pytest.approx(fringe_visibility(rho, 0.0), abs=1e-7)
        assert v_e90 == pytest.approx(fringe_visibility(rho, np.pi / 2),
                                      abs=1e-7)


# --- concurrence -----------------------------------------------------------------

def test_concurrence_bell_states():
    for psi in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]):
        v = np.array(psi, dtype=complex) / np.sqrt(2)
        assert concurrence(np.outer(v, v.conj())) == pytest.approx(1.0, abs=1e-9)


def test_concurrence_product_state():
    rng = np.random.default_rng(0)
    a = random_pure_state(rng, 2)
    b = random_pure_state(rng, 2)
    v = np.kron(a, b)
    assert concurrence(np.outer(v, v.conj())) == pytest.approx(0.0, abs=1e-8)


def test_concurrence_unbalanced_superposition():
    v = np.array([np.sqrt(0.9), 0.0, 0.0, np.sqrt(0.1)], dtype=complex)
    assert concurrence(np.outer(v, v.conj())) == pytest.approx(0.6, abs=1e-10)


def test_concurrence_werner():
    p = 0.84
    rho = p * ideal_state(0.0) + (1 - p) * MIXED
    assert concurrence(rho) == pytest.approx((3 * p - 1) / 2, abs=1e-10)
    assert fidelity_bell(rho)[0] == pytest.approx((3 * p + 1) / 4, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_concurrence_pure_state_formula(seed):
    rng = np.random.default_rng(seed)
    v = random_pure_state(rng, 4)
    rho = np.outer(v, v.conj())
    a, b, c, d = v
    assert concurrence(rho) == pytest.approx(2 * abs(a * d - b * c), abs=1e-10)


def test_concurrence_rejects_unphysical():
    rho = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        concurrence(rho)


# --- fidelity and coherence --------------------------------------------------------

def test_fidelity_bell_ideal_and_mixed():
    for phi in (0.0, 1.0, np.pi):
        f, phi_opt = fidelity_bell(ideal_state(phi))
        assert f == pytest.approx(1.0, abs=1e-12)
        assert np.exp(1j * phi_opt) == pytest.approx(np.exp(1j * phi), abs=1e-9)
    f, _ = fidelity_bell(MIXED)
    assert f == pytest.approx(0.25, abs=1e-12)


def test_fidelity_bell_closed_form():
    params = TimeBinModelParams(phi_p=0.4, epsilon=0.06, v_coh=0.911)
    q = params.accidental_fraction()
    f, phi_opt = fidelity_bell(model_state(params))
    assert f == pytest.approx((1 - q) * (1 + 0.911) / 2 + q / 4, abs=1e-12)
    assert phi_opt == pytest.approx(0.4, abs=1e-12)
    assert f == pytest.approx(0.88, abs=0.01)


def test_coherence_metric_values():
    val, i, j = coherence_metric(ideal_state(0.0))
    assert (i, j) in ((EE, LL), (LL, EE))
    assert val == pytest.approx(0.5)
    val, _, _ = coherence_metric(ideal_state(np.pi))
    assert val == pytest.approx(-0.5)
    val, _, _ = coherence_metric(MIXED)
    assert val == 0.0
    # magnitude bounded by 1/2 for physical states
    rho = model_state(TimeBinModelParams(epsilon=0.2, v_coh=0.9))
    assert abs(coherence_metric(rho)[0]) <= 0.5 + 1e-12


def test_stacked_metrics_match_one_matrix_calls():
    # a stack of states gives each metric of each matrix in one call; one
    # matrix still gives Python numbers
    rng = np.random.default_rng(31)
    rhos = np.array([random_density_matrix(rng, 4) for _ in range(5)]
                    + [ideal_state(0.7), MIXED])
    c, (f, phi), (coh, i, j), v = (concurrence(rhos), fidelity_bell(rhos),
                                   coherence_metric(rhos),
                                   time_visibility(rhos))
    for k, rho in enumerate(rhos):
        one = (concurrence(rho), *fidelity_bell(rho), *coherence_metric(rho),
               time_visibility(rho))
        assert [type(x) for x in one] == [float, float, float, complex, int,
                                          int, float]
        stacked = (c[k], f[k], phi[k], coh[k], i[k], j[k], v[k])
        assert np.abs(np.subtract(stacked, one)).max() <= 1e-13
    assert coherence_metric(rhos.reshape(7, 1, 4, 4))[1].shape == (7, 1)


# --- excitation coherence -----------------------------------------------------------

def test_excitation_coherence_unitary_is_one():
    drive = PulseDrive(omega0=0.35, sigma=12.0, t0=0.0, delta_x=0.5)
    traj = evolve(GROUND, drive, DecayRates(0.0, 0.0), DephasingModel(),
                  t_span=(-60.0, 60.0), tol=1e-10)
    v = excitation_coherence(traj.states[-1])
    assert v == pytest.approx(1.0, abs=1e-6)


def test_excitation_coherence_weak_pulse():
    drive = PulseDrive(omega0=0.06, sigma=12.0, t0=0.0, delta_x=0.5)
    traj = evolve(GROUND, drive, DecayRates(2e-5, 1e-5), DephasingModel(),
                  t_span=(-60.0, 60.0), tol=1e-10)
    assert excitation_coherence(traj.states[-1]) > 0.999


def test_excitation_coherence_dephasing_dominated():
    sigma = 5.0
    drive = PulseDrive(omega0=0.4, sigma=sigma, t0=0.0, delta_x=0.5)
    traj = evolve(GROUND, drive, DecayRates(1e-4, 5e-5),
                  DephasingModel(gamma_bg=2.0 / sigma), t_span=(-25.0, 25.0),
                  tol=1e-9)
    assert excitation_coherence(traj.states[-1]) < 0.1


def test_excitation_coherence_needs_population():
    drive = PulseDrive(omega0=0.0, sigma=1.0)
    traj = evolve(GROUND, drive, DecayRates(0.0, 0.0), DephasingModel(),
                  t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="population"):
        excitation_coherence(traj.states[-1])


# --- csv --------------------------------------------------------------------------

def test_density_csv_round_trip(tmp_path):
    rho = model_state(TimeBinModelParams(phi_p=0.9, epsilon=0.1, v_coh=0.7))
    path = tmp_path / "rho.csv"
    export_density_csv(rho, path)
    back = import_density_csv(path)
    assert np.abs(back - rho).max() < 1e-12
