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
    reconstruct_mle_many,
    save_dataset,
    _setting_kets,
    simulate_counts,
    standard_settings,
)

from oracles import (mle_face_newton, mle_lbfgs, mle_optimality_gap,
                     poisson_deviance, random_density_matrix)


def projector_matrix(p):
    k = p.ket()
    return np.outer(k, k.conj())


def joint_ops(settings):
    return [np.kron(projector_matrix(s.xx), projector_matrix(s.x))
            for s in settings]


def joint_kets(settings):
    return np.array([np.kron(s.xx.ket(), s.x.ket()) for s in settings])


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
    kets = _setting_kets(settings)
    assert kets.shape == (17, 4)
    ops = kets[:, :, None] * kets[:, None, :].conj()
    assert np.abs(ops - np.array(joint_ops(settings))).max() <= 1e-15
    assert _setting_kets([]).shape == (0, 4)


def test_projectors_rank_one_idempotent():
    for s in standard_settings():
        for p in (projector_matrix(s.xx), projector_matrix(s.x)):
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)


def test_basis_projector_overlaps():
    e = projector_matrix(Projector("E"))
    l = projector_matrix(Projector("L"))
    s0 = projector_matrix(Projector("S", 0.0))
    assert abs(np.trace(e @ l)) < 1e-15
    assert np.trace(s0 @ e).real == pytest.approx(0.5)


def test_projector_labels_round_trip():
    for p in (Projector("E"), Projector("L"), Projector("S", 1.23),
              Projector("S", np.pi / 2.0), Projector("S", -np.pi / 3.0)):
        assert Projector.from_label(p.label()) == p
    with pytest.raises(ValueError):
        Projector("Q")


@pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
def test_projector_rejects_non_finite_phase(phase, tmp_path):
    with pytest.raises(ValueError, match="phase"):
        Projector("S", phase)
    path = tmp_path / "counts.txt"
    path.write_text(f"# n_mean = 1.0e+02\n0 S{phase} E 5\n")
    with pytest.raises(ValueError, match="phase"):
        load_dataset(path)


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
    s0 = Projector("S", 0.0).label()
    assert by_label[(s0, s0)] == pytest.approx(500.0)


def test_simulate_counts_deterministic():
    rho = ideal_state(0.5)
    settings = standard_settings()
    a = simulate_counts(rho, settings, 1e4, seed=7)
    b = simulate_counts(rho, settings, 1e4, seed=7)
    c = simulate_counts(rho, settings, 1e4, seed=8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.all(a.counts >= 0)


def test_simulate_counts_for_seeds_match_each_seed_alone():
    # a sequence of seeds gives one dataset per seed, bit for bit the one
    # its seed gives alone
    rho = model_state(TimeBinModelParams(epsilon=0.06, v_coh=0.93))
    settings = standard_settings()
    seeds = [3, 0, 2 ** 40, 3]
    many = simulate_counts(rho, settings, 512.0, seeds)
    assert len(many) == len(seeds)
    for seed, data in zip(seeds, many):
        alone = simulate_counts(rho, settings, 512.0, seed)
        assert np.array_equal(data.counts, alone.counts)
        assert data.settings == alone.settings
        assert data.total_per_setting == alone.total_per_setting
    assert simulate_counts(rho, settings, 512.0, np.array(seeds))[2].counts \
        .tolist() == many[2].counts.tolist()


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
    # G = n_hat sum_k (1 - c_k / mu_k) |k><k| is the gradient in rho of the
    # deviance: tr(G H) is its derivative along any Hermitian H
    from qdtimebin.tomography import (_deviance, _design, _estimate_norm,
                                      _gradient)
    rho = model_state(TimeBinModelParams(epsilon=0.1, v_coh=0.8))
    data = simulate_counts(rho, standard_settings(), 1e4, seed=3)
    n_hat = _estimate_norm(data)
    counts = data.counts[None]
    rho = 0.9 * rho + 0.1 * random_density_matrix(np.random.default_rng(1), 4)

    def deviance(x):
        mu = expected_counts(x, data.settings, n_hat)[None]
        return _deviance(mu, counts)[0]

    mu = expected_counts(rho, data.settings, n_hat)[None]
    grad = _gradient(mu, counts, np.array([n_hat]),
                     _design(joint_kets(data.settings)).conj())[0]
    assert np.abs(grad - grad.conj().T).max() <= 1e-12 * np.abs(grad).max()
    rng = np.random.default_rng(0)
    eps = 1e-6
    for _ in range(8):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        num = (deviance(rho + eps * h) - deviance(rho - eps * h)) / (2 * eps)
        ana = np.trace(grad @ h).real
        assert abs(ana - num) < 1e-6 * max(1.0, abs(num))


def test_mle_noiseless_recovers_truth():
    rho = ideal_state(0.4)
    res = reconstruct_mle(noiseless_dataset(rho))
    assert state_fidelity(res.rho, rho) > 1 - 1e-8
    assert res.converged


def test_mle_deviance_is_that_of_the_returned_state():
    rho = model_state(TimeBinModelParams(epsilon=0.1, v_coh=0.8))
    settings = standard_settings()
    data = simulate_counts(rho, settings, 500.0, 3)
    res = reconstruct_mle(data)
    # the four time-basis settings sum to the count scale
    n_hat = sum(c for s, c in zip(settings, data.counts)
                if s.xx.kind in "EL" and s.x.kind in "EL")
    mu = expected_counts(res.rho, settings, n_hat)
    c = data.counts
    seen = c > 0
    ref = np.sum(mu - c) + np.sum(c[seen] * np.log(c[seen] / mu[seen]))
    assert res.deviance == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert res.deviance >= 0
    assert reconstruct_mle(noiseless_dataset(rho)).deviance < 1e-6


def test_mle_converged_at_high_counts():
    # at 1e5 counts the linear inversion is often already physical, so the
    # fit starts at the optimum; the flag must still report convergence
    rho = model_state(TimeBinModelParams(epsilon=0.05, v_coh=0.9))
    settings = standard_settings()
    stalled = []
    for seed in range(40):
        res = reconstruct_mle(simulate_counts(rho, settings, 1e5, seed))
        if not res.converged:
            stalled.append(seed)
        assert res.deviance >= 0
    assert stalled == []


LOW_COUNT_ROWS = [
    [254, 18, 105, 121, 13, 217, 129, 106, 135, 124, 249, 120, 154, 116, 111, 22],
    [243, 13, 123, 123, 20, 244, 100, 130, 117, 117, 234, 122, 129, 125, 129, 16],
    [254, 11, 118, 120, 13, 234, 113, 134, 109, 112, 242, 128, 128, 125, 132, 13],
    [231, 18, 125, 125, 10, 213, 113, 123, 115, 111, 242, 128, 117, 118, 113, 24],
    # its Newton steps reach a gap of 2.7e-7 where the deviance (0.89)
    # changes by less than its rounding
    [253, 17, 134, 113, 17, 256, 167, 142, 119, 118, 252, 132, 110, 127, 141, 22],
]


@pytest.mark.parametrize("counts", LOW_COUNT_ROWS)
def test_mle_low_counts_reach_the_optimum(counts):
    # low-count datasets of the tomo benchmark on which a fit can stop on a
    # rank-2 face, 0.005-0.03 above the minimum deviance, and still report
    # convergence; the gap is an independent bound on the excess deviance
    data = TomographyDataset(settings=standard_settings(),
                             counts=np.array(counts, dtype=float),
                             total_per_setting=500.0)
    res = reconstruct_mle(data)
    assert res.converged
    assert mle_optimality_gap(res.rho, counts) <= 1e-2
    assert res.deviance <= mle_lbfgs(counts)[1] + 1e-9


def test_overcomplete_settings_reconstruct():
    # a 17th setting makes the design (17, 16): both reconstructions must
    # take any informationally complete list, not only the square one
    settings = standard_settings() + [
        MeasurementSetting(Projector("S", 1.0), Projector("S", 2.0))]
    rho = model_state(TimeBinModelParams(phi_p=0.3, epsilon=0.1, v_coh=0.8))
    exact = TomographyDataset(settings=settings,
                              counts=expected_counts(rho, settings, 1e6),
                              total_per_setting=1e6)
    assert np.abs(reconstruct_linear(exact).rho - rho).max() <= 1e-12
    # the reference fit's first L-BFGS-B run on these counts stops on a
    # rank-3 face, with an optimality gap of 0.32; the fit must reach the
    # optimum
    data = simulate_counts(rho, settings, 500.0, seed=3)
    res = reconstruct_mle(data)
    kets = joint_kets(settings)
    assert res.converged
    assert mle_optimality_gap(res.rho, data.counts, kets) <= 1e-2
    assert res.deviance <= mle_lbfgs(data.counts, kets)[1] + 1e-9
    assert res.deviance == pytest.approx(
        poisson_deviance(res.rho, data.counts, kets), rel=1e-9, abs=1e-9)


def _tomo_low_counts(n_seeds=40):
    # the regime of the tomo benchmark's ~500-count pass
    rho = model_state(TimeBinModelParams(epsilon=0.06, v_coh=0.93,
                                         pairing_weight=4.0))
    return [simulate_counts(rho, standard_settings(), 510.0, seed)
            for seed in range(n_seeds)]


def test_mle_matches_the_reference_fit():
    # L-BFGS-B over a complex factor T, with its mixed second run, is the
    # reference: no seed may end above its deviance, nor far from the
    # optimum by the independent gap bound
    datasets = _tomo_low_counts()
    for data, res in zip(datasets, reconstruct_mle_many(datasets)):
        assert res.converged
        assert res.deviance <= mle_lbfgs(data.counts)[1] + 1e-9
        assert mle_optimality_gap(res.rho, data.counts) <= 1e-2


def test_stacked_fits_match_each_fit_alone():
    # each fit of a stack stops on its own and computes per fit, so that a
    # seed's answer does not depend on the seeds fitted with it
    datasets = _tomo_low_counts()
    stacked = reconstruct_mle_many(datasets)
    assert len(stacked) == len(datasets)
    for data, res in zip(datasets, stacked):
        alone = reconstruct_mle(data)
        assert np.abs(res.rho - alone.rho).max() <= 1e-12
        assert abs(res.deviance - alone.deviance) <= 1e-12
        assert res.n_iter == alone.n_iter
        assert res.converged == alone.converged
    other = standard_settings()[::-1]
    mixed = datasets[:2] + [TomographyDataset(
        settings=other, counts=datasets[2].counts, total_per_setting=510.0)]
    with pytest.raises(ValueError, match="share one settings list"):
        reconstruct_mle_many(mixed)
    with pytest.raises(ValueError, match="no datasets"):
        reconstruct_mle_many([])


def _gap_regimes():
    """(name, datasets, bound on |rho - reference|) of each regime."""
    settings = standard_settings()
    model = model_state(TimeBinModelParams(epsilon=0.06, v_coh=0.93,
                                           pairing_weight=4.0))
    over = settings + [MeasurementSetting(Projector("S", 1.0),
                                          Projector("S", 2.0))]
    rho17 = model_state(TimeBinModelParams(phi_p=0.3, epsilon=0.1, v_coh=0.8))
    return [
        ("tomo ~510", _tomo_low_counts(), 1e-6),
        ("tomo 1e5", simulate_counts(model, settings, 1e5, list(range(40))),
         1e-6),
        ("noiseless pure", [noiseless_dataset(ideal_state(0.4))], 1e-6),
        # at a rank-1 fit the gap grows as the square of the distance to the
        # optimum, so a gap within 1e-7 max(D, 1) pins rho to ~3e-5 only
        ("pure at 50", simulate_counts(ideal_state(0.0), settings, 50.0,
                                       list(range(10))), 1e-4),
        ("mixed at 20", simulate_counts(np.eye(4) / 4.0, settings, 20.0,
                                        list(range(10))), 1e-6),
        ("low-count rows", [TomographyDataset(
            settings=settings, counts=np.array(c, dtype=float),
            total_per_setting=500.0) for c in LOW_COUNT_ROWS], 1e-6),
        ("17 settings", simulate_counts(rho17, over, 500.0, [3, 4, 5]), 1e-6),
    ]


def test_mle_certifies_its_gap():
    # every fit stops on a gap within 1e-7 of max(D, 1), by the independent
    # oracle, and lies near a reference polished on its face to a far
    # smaller gap, no lower in deviance than the fit by more than that gap
    for name, datasets, bound in _gap_regimes():
        kets = _setting_kets(datasets[0].settings)
        for data, res in zip(datasets, reconstruct_mle_many(datasets)):
            allowed = 1e-7 * max(res.deviance, 1.0)
            gap = mle_optimality_gap(res.rho, data.counts, kets)
            assert res.converged and gap <= allowed, name
            assert res.n_iter <= 50, name
            # the two gaps agree to their rounding, tens of eps times the
            # count scale
            rounding = 64 * np.finfo(float).eps * data.counts[[0, 1, 4, 5]].sum()
            assert res.gap == pytest.approx(gap, rel=1e-6, abs=rounding), name
            ref = mle_face_newton(res.rho, data.counts, kets)
            assert mle_optimality_gap(ref, data.counts, kets) <= 1e-2 * allowed
            assert np.abs(res.rho - ref).max() <= bound, name
            assert res.deviance <= poisson_deviance(
                ref, data.counts, kets) + gap, name


def test_mle_leaves_a_wrong_face(monkeypatch):
    # a rank that has held for one step sends a fit to Newton steps on a
    # face that is not the optimum's: it goes back to the projected
    # gradient, and still ends within 1e-9 of the reference deviance
    from qdtimebin import tomography

    datasets = _tomo_low_counts()
    reference = reconstruct_mle_many(datasets)
    newton, faces = tomography._newton, []

    def spy(lik, fits, rho, iters, r):
        out = newton(lik, fits, rho, iters, r)
        faces.append((r, len(fits), int(np.sum(~out[2]))))
        return out

    monkeypatch.setattr(tomography, "_newton", spy)
    monkeypatch.setattr(tomography, "_MLE_RANK_HOLD", 1)
    for data, ref, res in zip(datasets, reference,
                              reconstruct_mle_many(datasets)):
        assert res.converged
        assert abs(res.deviance - ref.deviance) <= 1e-9
        assert mle_optimality_gap(res.rho, data.counts) <= 1e-7 * max(
            res.deviance, 1.0)
    assert sum(n for _, n, _ in faces) >= len(datasets)
    assert sum(back for _, _, back in faces) > 0


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
    with pytest.raises(ValueError, match="finite"):
        TomographyDataset(settings=settings,
                          counts=np.append(np.ones(15), np.nan),
                          total_per_setting=10.0)
    data = simulate_counts(ideal_state(0.0), settings, 1e4, seed=1)
    path = tmp_path / "counts.txt"
    save_dataset(data, path)
    back = load_dataset(path)
    assert np.array_equal(back.counts, data.counts)
    assert back.total_per_setting == data.total_per_setting
    assert back.settings == data.settings
