import numpy as np
import pytest

from qdtimebin.linalg import min_eigenvalue, state_fidelity
from qdtimebin.timebin import TimeBinModelParams, concurrence, ideal_state, model_state
from qdtimebin.tomography import (
    MeasurementSetting,
    Projector,
    TomographyDataset,
    expected_counts,
    load_dataset,
    reconstruct_linear,
    reconstruct_mle,
    save_dataset,
    _setting_operators,
    simulate_counts,
    standard_settings,
)

from oracles import random_density_matrix


def joint_ops(settings):
    return [s.operator() for s in settings]


# --- settings -------------------------------------------------------------------

def test_sixteen_settings_informationally_complete():
    settings = standard_settings()
    assert len(settings) == 16
    ops = joint_ops(settings)
    gram = np.array([[np.real(np.trace(a.conj().T @ b)) for b in ops]
                     for a in ops])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 16


def test_setting_operators_match_kron_of_projectors():
    settings = standard_settings() + [
        MeasurementSetting(Projector("S", 1.23), Projector("L"))]
    ops = _setting_operators(settings)
    assert ops.shape == (17, 4, 4)
    assert np.abs(ops - np.array(joint_ops(settings))).max() <= 1e-15
    assert _setting_operators([]).shape == (0, 4, 4)


def test_projectors_rank_one_idempotent():
    for s in standard_settings():
        for p in (s.xx.matrix(), s.x.matrix()):
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_basis_projector_overlaps():
    e = Projector("E").matrix()
    l = Projector("L").matrix()
    s0 = Projector("S", 0.0).matrix()
    assert abs(np.trace(e @ l)) < 1e-15
    assert np.trace(s0 @ e).real == pytest.approx(0.5)


def test_projector_labels_round_trip():
    for p in (Projector("E"), Projector("L"), Projector("S", 1.23)):
        q = Projector.from_label(p.label())
        assert q.kind == p.kind
        assert q.phase == pytest.approx(p.phase)
    with pytest.raises(ValueError):
        Projector("Q")


# --- forward model ----------------------------------------------------------------

def test_expected_counts_basis_states():
    settings = standard_settings()
    rho_ee = np.zeros((4, 4), dtype=complex)
    rho_ee[0, 0] = 1.0
    mu = expected_counts(rho_ee, settings, 1000.0)
    by_label = {(s.xx.label(), s.x.label()): m for s, m in zip(settings, mu)}
    assert by_label[("E", "E")] == pytest.approx(1000.0)
    assert by_label[("L", "L")] == pytest.approx(0.0, abs=1e-10)
    mu_ideal = expected_counts(ideal_state(0.0), settings, 1000.0)
    by_label = {(s.xx.label(), s.x.label()): m
                for s, m in zip(settings, mu_ideal)}
    assert by_label[("S0.000000", "S0.000000")] == pytest.approx(500.0)


def test_simulate_counts_deterministic():
    rho = ideal_state(0.5)
    settings = standard_settings()
    a = simulate_counts(rho, settings, 1e4, seed=7)
    b = simulate_counts(rho, settings, 1e4, seed=7)
    c = simulate_counts(rho, settings, 1e4, seed=8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.all(a.counts >= 0)


# --- linear inversion ---------------------------------------------------------------

def noiseless_dataset(rho, n_mean=1e6):
    settings = standard_settings()
    mu = expected_counts(rho, settings, n_mean)
    return TomographyDataset(settings=settings, counts=mu,
                             total_per_setting=n_mean)


def test_linear_exact_on_noiseless_ideal():
    rho = ideal_state(0.3)
    rec = reconstruct_linear(noiseless_dataset(rho))
    assert np.abs(rec.rho - rho).max() < 1e-10
    assert rec.physical


def test_linear_exact_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rho = random_density_matrix(rng, 4)
        rec = reconstruct_linear(noiseless_dataset(rho))
        assert np.abs(rec.rho - rho).max() < 1e-10


def _project_psd(rho):
    from qdtimebin.linalg import dag, eig_hermitian
    w, v = eig_hermitian(rho, herm_tol=1e-8)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ dag(v)
    return out / np.trace(out).real


def test_linear_finite_counts_close():
    rho = model_state(TimeBinModelParams(epsilon=0.06, v_coh=0.9))
    fs = []
    for seed in range(8):
        data = simulate_counts(rho, standard_settings(), 1e5, seed)
        rec = reconstruct_linear(data)
        fs.append(state_fidelity(_project_psd(rec.rho), rho))
    assert min(fs) > 0.99


def test_linear_rejects_incomplete_settings():
    settings = [MeasurementSetting(Projector("E"), Projector("E"))] * 16
    counts = np.full(16, 100.0)
    with pytest.raises(ValueError, match="(singular|time-basis)"):
        reconstruct_linear(TomographyDataset(settings=settings, counts=counts,
                                             total_per_setting=100.0))


# --- maximum likelihood ---------------------------------------------------------------

def test_mle_gradient_matches_finite_differences():
    from qdtimebin.tomography import _estimate_norm, _poisson_nll_and_grad
    rho = model_state(TimeBinModelParams(epsilon=0.1, v_coh=0.8))
    data = simulate_counts(rho, standard_settings(), 1e4, seed=3)
    n_hat = _estimate_norm(data)
    ops = np.array([s.operator() for s in data.settings])
    rng = np.random.default_rng(0)
    t = rng.normal(size=16) * 0.3 + np.array([1.0] * 4 + [0.0] * 12)
    val, ana = _poisson_nll_and_grad(t, ops, data.counts, n_hat)
    eps = 1e-6
    num = np.array([
        (_poisson_nll_and_grad(t + eps * np.eye(16)[i], ops, data.counts,
                               n_hat)[0]
         - _poisson_nll_and_grad(t - eps * np.eye(16)[i], ops, data.counts,
                                 n_hat)[0]) / (2 * eps)
        for i in range(16)])
    assert np.abs(ana - num).max() < 1e-4 * max(1.0, np.abs(num).max())


def test_mle_noiseless_recovers_truth():
    rho = ideal_state(0.4)
    res = reconstruct_mle(noiseless_dataset(rho))
    assert state_fidelity(res.rho, rho) > 1 - 1e-8
    assert res.converged


def test_mle_converged_at_high_counts():
    # at 1e5 counts the linear inversion is often already physical, so the
    # fit starts at the optimum; the flag must still report convergence
    rho = model_state(TimeBinModelParams(epsilon=0.05, v_coh=0.9))
    settings = standard_settings()
    stalled = [seed for seed in range(40)
               if not reconstruct_mle(
                   simulate_counts(rho, settings, 1e5, seed)).converged]
    assert stalled == []


def test_mle_output_always_physical():
    rng = np.random.default_rng(5)
    settings = standard_settings()
    for _ in range(5):
        counts = rng.integers(0, 500, size=16).astype(float)
        data = TomographyDataset(settings=settings, counts=counts,
                                 total_per_setting=500.0)
        res = reconstruct_mle(data)
        assert abs(np.trace(res.rho) - 1.0) < 1e-12
        assert min_eigenvalue(res.rho) > -1e-12


def test_mle_matches_linear_when_physical():
    rho = model_state(TimeBinModelParams(epsilon=0.15, v_coh=0.7))
    data = simulate_counts(rho, standard_settings(), 1e6, seed=11)
    lin = reconstruct_linear(data)
    mle = reconstruct_mle(data)
    if lin.physical:
        assert np.abs(lin.rho - mle.rho).max() < 5e-3


def test_mle_concurrence_recovery():
    rho = model_state(TimeBinModelParams(epsilon=0.06, v_coh=0.911))
    c_true = concurrence(rho)
    cs = []
    for seed in range(6):
        data = simulate_counts(rho, standard_settings(), 1e5, seed)
        cs.append(concurrence(reconstruct_mle(data).rho))
    assert abs(np.mean(cs) - c_true) < 0.03


def test_mle_rejects_all_zero_counts():
    data = TomographyDataset(settings=standard_settings(),
                             counts=np.zeros(16), total_per_setting=100.0)
    with pytest.raises(ValueError, match="degenerate"):
        reconstruct_mle(data)


def test_dataset_validation_and_io(tmp_path):
    settings = standard_settings()
    with pytest.raises(ValueError, match="length"):
        TomographyDataset(settings=settings, counts=np.zeros(5),
                          total_per_setting=10.0)
    with pytest.raises(ValueError, match="non-negative"):
        TomographyDataset(settings=settings, counts=np.full(16, -1.0),
                          total_per_setting=10.0)
    data = simulate_counts(ideal_state(0.0), settings, 1e4, seed=1)
    path = tmp_path / "counts.txt"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.counts, data.counts)
    assert back.total_per_setting == data.total_per_setting
    assert all(a.xx.label() == b.xx.label() and a.x.label() == b.x.label()
               for a, b in zip(back.settings, data.settings))
