import contextlib
import importlib.util
import io
import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtimebin import cli, dynamics, tomography
from qdtimebin.cli import main
from qdtimebin.config import RunConfig

import oracles


# Stands for a JSON integer literal of 5,001 digits, past Python's limit of
# 4,300 on an integer string, which json.dumps cannot write.
HUGE_INT = "<1 followed by 5,000 zeros>"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1).replace(
        json.dumps(HUGE_INT), "1" + "0" * 5000))
    return path


def evolve_config(area=0.0):
    return {
        "dot": {"gamma_x": 0.002, "gamma_b": 0.004, "delta_x": 0.5,
                "delta_b": 0.0},
        "pulse": {"sigma": 12.0, "t0": 0.0, "area": area},
        "dephasing": {"gamma_bg": 0.0, "gamma_i0": 0.0, "n_p": 2},
        "numerics": {"tol": 1e-8},
    }


def test_evolve_zero_drive_constant_trajectory(tmp_path, capsys):
    cfg = write_config(tmp_path, evolve_config(area=0.0))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# ")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.allclose(rows[:, 1], 1.0, atol=1e-9)  # rho_gg stays 1
    assert np.allclose(rows[:, 7], 0.0, atol=1e-12)


def test_evolve_pi_area_pulse_fills_biexciton(tmp_path):
    from qdtimebin.sweeps import first_cycle_extrema
    from qdtimebin.dynamics import DecayRates, DephasingModel
    a_max, _, _, _ = first_cycle_extrema(
        12.0, DephasingModel(0.0, 0.0), DecayRates(0.004, 0.002),
        delta_x=0.5, tol=1e-8)
    cfg = write_config(tmp_path, evolve_config(area=a_max))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in lines[-1].split(",")]
    assert last[7] > 0.95  # cumulative biexciton photon yield


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = evolve_config()
    bad["dot"]["gamma_q"] = 1.0
    cfg = write_config(tmp_path, bad)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["evolve", "--config", str(missing),
                 "--out", str(tmp_path)]) == 2
    cfg = write_config(tmp_path, [])
    capsys.readouterr()
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "top-level" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["entangle", "--config", str(cfg), "--out", str(tmp_path),
              "--seed", "abc"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def _set(path, value):
    def edit(data):
        *parents, key = path
        node = data
        for p in parents:
            node = node.setdefault(p, {})
        node[key] = value
    return edit


def _edits(*edits):
    def edit(data):
        for e in edits:
            e(data)
    return edit


_AREAS = {"models": [{"gamma_bg": 0.0, "gamma_i0": 0.0, "n_p": 2}]}
_SIGMAS = {"energies": [1.0, 2.0]}
_FIT = {"fit": {"n_p": 2, "target_ratio": 3.2}}
_TIMEBIN = {"phi_p": 0.0, "epsilon": 0.06, "v_coh": 0.92}
_LOW_COUNTS = {"n_mean": 5, "seed": 3, "n_seeds": 40}
# The whole stderr line of errors in the sections of 'pulse', 'tomography',
# 'sweep.fit' and a grid's {start, stop, num}: (id, edit, message).
_MESSAGES = [
    ("pulse-area-and-omega0", _set(["pulse", "omega0"], 0.4),
     "'pulse' must set either 'area' or 'omega0', not both"),
    ("pulse.sigma-negative", _set(["pulse", "sigma"], -1.0),
     "'pulse.sigma' must be >= 1e-12, got -1.0"),
    ("pulse.sigma-null", _set(["pulse", "sigma"], None),
     "'pulse.sigma' is required"),
    ("pulse.sigma-missing", _set(["pulse"], {"area": 1.0}),
     "missing key(s) in 'pulse': sigma"),
    ("pulse.area-negative", _set(["pulse", "area"], -3.0),
     "'pulse.area' must be >= 0.0, got -3.0"),
    ("pulse.omega0-negative", _set(["pulse"], {"sigma": 12.0, "omega0": -0.4}),
     "'pulse.omega0' must be >= 0.0, got -0.4"),
    ("pulse.omega0-string", _set(["pulse"], {"sigma": 12.0, "omega0": "1"}),
     "'pulse.omega0' must be a number, got '1'"),
    ("pulse-unknown-key", _set(["pulse", "width"], 1.0),
     "unknown key(s) in 'pulse': width"),
    ("tomography.n_mean-zero", _set(["tomography", "n_mean"], 0.0),
     "'tomography.n_mean' must be >= 1e-09, got 0.0"),
    ("tomography.n_mean-above-poisson-limit",
     _set(["tomography", "n_mean"], 1e300),
     "'tomography.n_mean' must be <= 1e+18, got 1e+300"),
    ("tomography.seed-negative", _set(["tomography", "seed"], -3),
     "'tomography.seed' must be >= 0, got -3"),
    ("tomography.seed-float", _set(["tomography", "seed"], 1.5),
     "'tomography.seed' must be an integer, got 1.5"),
    ("tomography.seed-null", _set(["tomography", "seed"], None),
     "'tomography.seed' must be an integer, got None"),
    ("tomography.n_seeds-zero", _set(["tomography", "n_seeds"], 0),
     "'tomography.n_seeds' must be >= 1, got 0"),
    ("tomography-not-an-object", _set(["tomography"], [1]),
     "section 'tomography' must be an object"),
    ("sweep.fit-missing-key", _set(["sweep"], {"fit": {"n_p": 2}}),
     "missing key(s) in 'sweep.fit': target_ratio"),
    ("sweep.fit-empty", _set(["sweep"], {"fit": {}}),
     "missing key(s) in 'sweep.fit': n_p, target_ratio"),
    ("sweep.fit-unknown-key", _set(["sweep"], {"fit": dict(_FIT["fit"],
                                                          gamma_i0=0.1)}),
     "unknown key(s) in 'sweep.fit': gamma_i0"),
    ("sweep.fit-null", _set(["sweep"], {"fit": None}),
     "section 'sweep.fit' must be an object"),
    ("sweep.fit.n_p-out-of-range", _set(["sweep"], {"fit": {
        "n_p": 7, "target_ratio": 2.0}}),
     "'sweep.fit.n_p' must be an integer in 0..4, got 7"),
    ("sweep.fit.n_p-float", _set(["sweep"], {"fit": {
        "n_p": 2.0, "target_ratio": 2.0}}),
     "'sweep.fit.n_p' must be an integer, got 2.0"),
    ("sweep.fit.target_ratio-below-1", _set(["sweep"], {"fit": {
        "n_p": 2, "target_ratio": 0.5}}),
     "'sweep.fit.target_ratio' must exceed 1, got 0.5"),
    ("sweep.fit.target_ratio-null", _set(["sweep"], {"fit": {
        "n_p": 2, "target_ratio": None}}),
     "'sweep.fit.target_ratio' is required"),
    ("sweep.areas.num-one", _set(["sweep"], {"areas": {
        "start": 1.0, "stop": 2.0, "num": 1}}),
     "'sweep.areas.num' must be >= 2, got 1"),
    ("sweep.areas.start-null", _set(["sweep"], {"areas": {
        "start": None, "stop": 2.0, "num": 3}}),
     "'sweep.areas.start' is required"),
    ("sweep.areas-missing-keys", _set(["sweep"], {"areas": {"start": 1.0}}),
     "missing key(s) in 'sweep.areas': num, stop"),
    ("numerics.tol-above-ceiling", _set(["numerics", "tol"], 0.5),
     "'numerics.tol' must be <= 0.001, got 0.5"),
    ("numerics.t_span-decreasing", _set(["numerics", "t_span"], [1.0, 0.0]),
     "'numerics.t_span' must be [t0, t1] with t1 > t0"),
]


@pytest.mark.parametrize("command, edit, key", [
    ("rabi", _set(["sweep"], dict(_AREAS, areas=[1.0, "2"])), "sweep.areas"),
    ("ratio", _set(["sweep"], dict(_SIGMAS, sigmas=["4"])), "sweep.sigmas"),
    ("ratio", _set(["sweep"], dict(_SIGMAS, sigmas=[-4.0])), "sweep.sigmas"),
    ("evolve", _set(["numerics", "t_span"], [0.0, "1"]), "numerics.t_span"),
    ("entangle", _set(["timebin"], {"v_coh": 1.5}), "timebin.v_coh"),
    pytest.param("evolve", _set(["numerics", "max_step"], 0.3), "max_step",
                 id="evolve-edit-numerics.max_step"),
    ("evolve", _set(["numerics", "tol"], 0.5), "numerics.tol"),
    pytest.param("evolve", _set(["numerics", "tol"], 1e-14), "numerics.tol",
                 id="evolve-edit-numerics.tol-below-floor"),
    ("evolve", _set(["dot", "gamma_x"], 0.0), "numerics.t_span"),
    ("evolve", _set(["dot", "delta_x"], float("nan")), "dot.delta_x"),
    ("evolve", _set(["dephasing", "n_p"], True), "dephasing.n_p"),
    pytest.param("evolve", _set(["dephasing", "n_p"], 10**20),
                 "dephasing.n_p", id="evolve-edit-dephasing.n_p-past-64-bits"),
    pytest.param("evolve", _set(["dephasing", "n_p"], None), "dephasing.n_p",
                 id="evolve-edit-dephasing.n_p-null"),
    # every section is checked at parse time, used by the command or not
    ("evolve", _set(["timebin", "epsilon"], 1.5), "timebin.epsilon"),
    ("evolve", _set(["sweep"], {"models": [{"gamma_bg": -1.0}]}),
     "sweep.models[0].gamma_bg"),
    pytest.param("evolve", _set(["sweep"], {"fit": {
        "n_p": 7, "target_ratio": 2.0}}), "sweep.fit.n_p",
                 id="evolve-edit-sweep.fit.n_p-unused"),
    ("evolve", _set(["dot", "gamma_b"], -1.0), "dot.gamma_b"),
    ("evolve", _set(["pulse", "area"], -3.0), "pulse.area"),
    ("evolve", _set(["pulse", "t0"], 1e300), "pulse.t0"),
    pytest.param("evolve", _set(["pulse", "sigma"], 1e300), "pulse.sigma",
                 id="evolve-edit-pulse.sigma-overflowing"),
    pytest.param("evolve", _set(["pulse", "t0"], 1e17), "pulse.t0",
                 id="evolve-edit-pulse.t0-coarser-than-step"),
    pytest.param("evolve", _edits(_set(["dot", "delta_x"], 3.5),
                                  _set(["pulse", "t0"], 1e13)), "pulse.t0",
                 id="evolve-edit-pulse.t0-coarser-than-detuning"),
    pytest.param("ratio", _set(["sweep"], dict(_SIGMAS, sigmas=[1e300])),
                 "sweep.sigmas", id="ratio-edit-sweep.sigmas-overflowing"),
    # ratio names each curve's file by sigma in %g: 4.0000001 would
    # overwrite the file of 4
    pytest.param("ratio", _set(["sweep"], dict(
        _SIGMAS, sigmas=[4.0, 4.0000001, 12.0])), "sweep.sigmas[1]",
                 id="ratio-edit-sweep.sigmas-same-file-name"),
    pytest.param("evolve", _set(["dephasing", "gamma_bg"], 1e300),
                 "dephasing.gamma_bg",
                 id="evolve-edit-dephasing.gamma_bg-overflowing"),
    # a JSON integer past the float range
    pytest.param("evolve", _set(["dephasing", "gamma_bg"], 10**400),
                 "dephasing.gamma_bg",
                 id="evolve-edit-dephasing.gamma_bg-integer-past-float"),
    pytest.param("evolve", _set(["pulse", "sigma"], 10**400), "pulse.sigma",
                 id="evolve-edit-pulse.sigma-integer-past-float"),
    pytest.param("evolve", _set(["numerics", "tol"], 10**400),
                 "numerics.tol",
                 id="evolve-edit-numerics.tol-integer-past-float"),
    pytest.param("rabi", _set(["sweep"], dict(_AREAS, areas=[1.0, 10**400])),
                 "sweep.areas[1]",
                 id="rabi-edit-sweep.areas-integer-past-float"),
    pytest.param("entangle", _set(["tomography", "n_mean"], 10**400),
                 "tomography.n_mean",
                 id="entangle-edit-tomography.n_mean-integer-past-float"),
    pytest.param("evolve", _set(["dephasing", "gamma_bg"], HUGE_INT),
                 "dephasing.gamma_bg",
                 id="evolve-edit-dephasing.gamma_bg-integer-past-digit-limit"),
    pytest.param("entangle", _edits(
        _set(["timebin"], {"epsilon": 0.06}),
        _set(["tomography"], {"n_mean": 1e4, "seed": 3, "n_seeds": HUGE_INT})),
                 "tomography.n_seeds",
                 id="entangle-edit-tomography.n_seeds-integer-past-digit-limit"),
    pytest.param("evolve", _set(["dot", "gamma_x"], 1e300), "dot.gamma_x",
                 id="evolve-edit-dot.gamma_x-overflowing"),
    pytest.param("rabi", _set(["sweep"], dict(_AREAS, areas=[1.0])),
                 "sweep.areas", id="rabi-edit-sweep.areas-one-point"),
    ("fit-dephasing",
     _set(["sweep"], {"fit": {"n_p": 2, "target_ratio": 0.5}}),
     "sweep.fit.target_ratio"),
    ("fit-dephasing",
     _set(["sweep"], {"fit": {"n_p": 7, "target_ratio": 2.0}}),
     "sweep.fit.n_p"),
    ("fit-dephasing",
     _set(["sweep"], {"fit": {"n_p": -1, "target_ratio": 2.0}}),
     "sweep.fit.n_p"),
    pytest.param("fit-dephasing", _edits(_set(["sweep"], _FIT),
                                         _set(["dot", "delta_b"], 0.05)),
                 "dot.delta_b", id="fit-dephasing-edit-dot.delta_b-detuned"),
    pytest.param("fit-dephasing", _edits(_set(["sweep"], _FIT),
                                         _set(["dot", "delta_x"], 0.0)),
                 "dot.delta_x", id="fit-dephasing-edit-dot.delta_x-zero"),
    pytest.param("fit-dephasing", _edits(_set(["sweep"], _FIT),
                                         _set(["dot", "delta_x"], -3.5)),
                 "dot.delta_x", id="fit-dephasing-edit-dot.delta_x-negative"),
    pytest.param("fit-dephasing", _edits(_set(["sweep"], _FIT),
                                         _set(["dot", "gamma_b"], 0.0)),
                 "dot.gamma_b", id="fit-dephasing-edit-dot.gamma_b-zero"),
    # an unreachable target is a config problem: the curve is overdamped
    # by gamma_bg alone, or undamped and still below the target
    pytest.param("fit-dephasing", _edits(_set(["sweep"], _FIT),
                                         _set(["dephasing", "gamma_bg"], 0.5)),
                 "sweep.fit.target_ratio",
                 id="fit-dephasing-edit-dephasing.gamma_bg-overdamped"),
    pytest.param("fit-dephasing", _set(["sweep"], {"fit": {
        "n_p": 2, "target_ratio": 1e9}}), "sweep.fit.target_ratio",
                 id="fit-dephasing-edit-sweep.fit.target_ratio-unreachable"),
    pytest.param("entangle", _set(["tomography", "n_mean"], 1e300),
                 "tomography.n_mean",
                 id="entangle-edit-tomography.n_mean-above-poisson-limit"),
    pytest.param("entangle", _set(["tomography"], {"seed": -3}),
                 "tomography.seed", id="entangle-edit-tomography.seed-negative"),
    # a pulse of area 0 leaves rho_bb at 0, so it cannot calibrate v_coh
    pytest.param("entangle", _edits(
        _set(["pulse", "area"], 0.0), _set(["timebin"], {"epsilon": 0.06}),
        _set(["tomography"], {"n_mean": 1e4, "seed": 3, "n_seeds": 1})),
                 "timebin.v_coh", id="entangle-edit-timebin.v_coh-uncalibratable"),
    # at 5 counts seed index 19 of 40 draws no time-basis count, and at 1e-9
    # every seed draws none: the likelihood is flat
    pytest.param("entangle", _edits(_set(["timebin"], _TIMEBIN),
                                    _set(["tomography"], _LOW_COUNTS)),
                 "'tomography.n_mean' = 5.0 is too low: degenerate dataset 19",
                 id="entangle-edit-tomography.n_mean-no-time-basis-count"),
    pytest.param("entangle", _edits(
        _set(["timebin"], _TIMEBIN),
        _set(["tomography"], dict(_LOW_COUNTS, n_mean=1e-9))),
                 "'tomography.n_mean' = 1e-09 is too low: degenerate dataset 0",
                 id="entangle-edit-tomography.n_mean-no-count"),
    pytest.param("evolve", _set(["dot"], 5), "'dot'", id="evolve-edit-dot"),
    pytest.param("fit-dephasing", _set(["sweep"], {"fit": {
        "n_p": 2, "target_ratio": None}}), "sweep.fit.target_ratio",
                 id="fit-dephasing-edit-sweep.fit.target_ratio-null"),
    pytest.param("rabi", _set(["sweep"], dict(_AREAS, areas=5)),
                 "sweep.areas", id="rabi-edit-sweep.areas-number"),
    pytest.param("evolve", _set(["pulse"], {"sigma": 12.0}), "'pulse'",
                 id="evolve-edit-pulse-sigma-only"),
    pytest.param("ratio", _set(["sweep"], dict(_SIGMAS, sigmas=[])),
                 "sweep.sigmas", id="ratio-edit-sweep.sigmas-empty"),
    pytest.param("rabi", _set(["sweep"], dict(_AREAS, models=[],
                                              areas=[1.0, 2.0])),
                 "sweep.models", id="rabi-edit-sweep.models-empty"),
    pytest.param("evolve", _set(["numerics", "t_span"], [0.0]),
                 "numerics.t_span", id="evolve-edit-numerics.t_span-one-time"),
    pytest.param("ratio", _set(["sweep"], {"sigmas": [4.0]}),
                 "sweep.energies", id="ratio-edit-sweep.energies-missing"),
    pytest.param("fit-dephasing", _set(["sweep"], {}), "sweep.fit",
                 id="fit-dephasing-edit-sweep-empty"),
    *[pytest.param("evolve", edit, f"config error: {message}\n",
                   id=f"evolve-message-{name}")
      for name, edit, message in _MESSAGES],
])
def test_config_problem_exits_2_naming_key(tmp_path, capsys, command, edit,
                                           key):
    data = evolve_config(area=1.0)
    edit(data)
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


def test_pulse_far_from_time_zero_runs(tmp_path):
    # the float grid near t0 = 1e12 (spacing 1.2e-4 ps) still resolves the
    # fastest time scale 1/delta_x = 0.29 ps to within 1e-3
    data = evolve_config(area=20.0)
    data["dot"]["delta_x"] = 3.5
    data["pulse"]["t0"] = 1e12
    cfg = write_config(tmp_path, data)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integration_failure_exits_3_with_time(tmp_path, capsys):
    # a finite but overflowing drive fails the first step; an overflowing
    # dephasing rate makes the right-hand side infinite at the start
    for pulse, gamma_i0 in (({"omega0": 1e300}, 0.0),
                            ({"area": 1e308}, 0.0349)):
        data = evolve_config()
        data["pulse"] = dict(pulse, sigma=12.0, t0=0.0)
        data["dephasing"]["gamma_i0"] = gamma_i0
        data["numerics"]["t_span"] = [-60.0, 60.0]
        cfg = write_config(tmp_path, data)
        assert main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure at t = -60" in err
        assert err.count("t = -60") == 1


@pytest.mark.parametrize("method", ["DOP853", "Radau"])
def test_overflow_mid_window_exits_3_with_time(tmp_path, capsys,
                                               rows_overflow_past_half,
                                               method):
    # a window whose rates overflow past tau = 0.5 fails there, t = 6 ps
    rows_overflow_past_half(method)
    data = evolve_config(area=20.0)
    data["dephasing"]["gamma_i0"] = 0.0349
    cfg = write_config(tmp_path, data)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure at t = 6: {method} integration "
                          "failed at pulse time tau = 0.5: ")
    assert err.count("t = ") == 1


def full_config():
    """A valid config with every section and every scalar key set."""
    data = evolve_config(area=1.0)
    data["timebin"] = {"phi_p": 0.0, "epsilon": 0.06, "pairing_weight": 4.0,
                       "v_coh": 0.92}
    data["tomography"] = {"n_mean": 1e4, "seed": 3, "n_seeds": 1}
    data["sweep"] = {
        "areas": {"start": 0.5, "stop": 12.0, "num": 4},
        "energies": [1.0, 2.0],
        "sigmas": [4.0],
        "models": [{"gamma_bg": 0.0, "gamma_i0": 0.0349, "n_p": 2}],
        "fit": {"n_p": 2, "target_ratio": 3.2},
    }
    data["numerics"].update(t_span=[-60.0, 60.0])
    return data


def _scalar_keys(node, name="", path=()):
    """(full key, path) of every scalar in a config tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _scalar_keys(v, f"{name}.{k}" if name else k,
                                    path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _scalar_keys(v, f"{name}[{i}]", path + (i,))
    else:
        yield name, path


_FULL_KEYS = sorted(_scalar_keys(full_config()))


def _full_config_with(path, value):
    data = full_config()
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return data


@settings(max_examples=200, deadline=None, database=None)
@given(key=st.sampled_from(_FULL_KEYS),
       value=st.sampled_from([True, False, "1.0", [1.0], {"x": 1.0}]))
def test_wrong_type_value_exits_2_naming_key(key, value):
    # the unedited config parses, so the error comes from the edit; config
    # errors abort before any integration, so each case is quick
    RunConfig.parse(full_config())
    name, path = key
    data = _full_config_with(path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evolve", "--config", str(cfg), "--out", tmp])
    assert code == 2
    assert f"'{name}'" in err.getvalue()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(key=st.sampled_from(_FULL_KEYS),
       value=st.sampled_from([0, 1e-300, 1e300, -1e300, 1e17]),
       command=st.sampled_from(["evolve", "rabi", "ratio", "fit-dephasing",
                                "entangle"]))
def test_extreme_number_exits_0_2_or_3(key, value, command):
    # an extreme number is a config problem, a numerical failure or a
    # result, never an escaping exception or a numpy warning; a smaller
    # step budget ends long windows quickly
    _, path = key
    data = _full_config_with(path, value)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dynamics, "_MAX_WINDOW_STEPS", 2_000), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cfg = write_config(Path(tmp), data)
        code = main([command, "--config", str(cfg), "--out", tmp])
    assert code in (0, 2, 3)


def test_rabi_overflowing_areas_write_failed_points(tmp_path, capsys):
    # omega0^2 of the areas near 1e300 overflows: those points fail, and
    # their energy is written as inf without a numpy warning
    data = full_config()
    data["sweep"]["areas"]["stop"] = 1e300
    cfg = write_config(tmp_path, data)
    assert main(["rabi", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "3 point(s) failed integration" in capsys.readouterr().err
    lines = (tmp_path / "rabi_model0_np2.csv").read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert [f["index"] for f in header["failures"]] == [1, 2, 3]
    energies = [row.split(",")[2] for row in lines[2:]]
    assert float(energies[0]) > 0 and energies[1:] == ["inf"] * 3


def test_rabi_three_models_three_files(tmp_path):
    data = evolve_config()
    del data["pulse"]["area"]
    data["sweep"] = {
        "areas": {"start": 0.5, "stop": 12.0, "num": 4},
        "models": [{"gamma_bg": 0.002, "gamma_i0": 0.0, "n_p": 0},
                   {"gamma_bg": 0.0, "gamma_i0": 0.0349, "n_p": 2},
                   {"gamma_bg": 0.0, "gamma_i0": 0.0219, "n_p": 4}],
    }
    cfg = write_config(tmp_path, data)
    assert main(["rabi", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("rabi_model*.csv"))
    assert [f.name for f in files] == [
        "rabi_model0_np0.csv", "rabi_model1_np2.csv", "rabi_model2_np4.csv"]
    header = json.loads(files[1].read_text().splitlines()[0][2:])
    assert header["config"]["sweep"]["models"][1]["gamma_i0"] == 0.0349


@pytest.mark.parametrize("command, sweep, files", [
    ("rabi", {"areas": [3.0, 9.0, 15.0],
              "models": [{"gamma_bg": 0.0, "gamma_i0": 0.0349, "n_p": 2},
                         {"gamma_bg": 0.0, "gamma_i0": 0.0219, "n_p": 4}]},
     ["rabi_model0_np2.csv", "rabi_model1_np4.csv"]),
    ("ratio", {"sigmas": [4.0, 12.0], "energies": [1.0, 4.0, 9.0]},
     ["ratio_sigma12.csv", "ratio_sigma4.csv"]),
])
def test_sweep_command_integrates_one_batch(tmp_path, monkeypatch, command,
                                            sweep, files):
    # every model of rabi, and every sigma of ratio, is one batch
    from qdtimebin import sweeps
    batches = []
    emission = sweeps.emission_after_pulse

    def counted(drive, decay, deph, tol=1e-8):
        batches.append(len(drive.omega0))
        return emission(drive, decay, deph, tol=tol)

    monkeypatch.setattr(sweeps, "emission_after_pulse", counted)
    data = evolve_config()
    data["dot"]["delta_x"] = 3.5
    data["sweep"] = sweep
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert batches == [6]
    assert sorted(f.name for f in tmp_path.glob("*.csv")) == files


def test_rabi_missing_grid_exits_2(tmp_path):
    data = evolve_config()
    data["sweep"] = {"models": [{"gamma_bg": 0.0, "gamma_i0": 0.1, "n_p": 2}]}
    cfg = write_config(tmp_path, data)
    assert main(["rabi", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_ratio_two_sigmas(tmp_path):
    data = evolve_config()
    data["dot"]["delta_x"] = 3.5
    data["dephasing"] = {"gamma_bg": 0.01, "gamma_i0": 0.0349, "n_p": 2}
    del data["pulse"]
    data["sweep"] = {"sigmas": [4.0, 12.0],
                     "energies": {"start": 1.0, "stop": 16.0, "num": 8}}
    cfg = write_config(tmp_path, data)
    assert main(["ratio", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "ratio_sigma4.csv").exists()
    assert (tmp_path / "ratio_sigma12.csv").exists()
    peaks = json.loads((tmp_path / "ratio_peaks.json").read_text())["peaks"]
    by_sigma = {p["sigma"]: p for p in peaks}
    assert by_sigma[12.0]["peak_ratio"] > by_sigma[4.0]["peak_ratio"]


def test_ratio_reports_failed_points(tmp_path, monkeypatch, capsys):
    from qdtimebin import IntegrationError, sweeps
    emission = sweeps.emission_after_pulse

    def fail_above(drive, decay, deph, tol=1e-8):
        if max(drive.omega0 ** 2 * drive.sigma) > 3.0:
            raise IntegrationError("step size underflow", 3.0)
        return emission(drive, decay, deph, tol=tol)

    monkeypatch.setattr(sweeps, "emission_after_pulse", fail_above)
    data = evolve_config()
    data["dot"]["delta_x"] = 3.5
    del data["pulse"]
    data["sweep"] = {"sigmas": [12.0],
                     "energies": {"start": 1.0, "stop": 4.0, "num": 4}}
    cfg = write_config(tmp_path, data)
    assert main(["ratio", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "1 point(s) failed integration" in capsys.readouterr().err
    header = json.loads(
        (tmp_path / "ratio_sigma12.csv").read_text().splitlines()[0][2:])
    assert header["failures"] == [
        {"index": 3, "abscissa": 4.0,
         "error": "IntegrationError: step size underflow"}]


def test_ratio_missing_dephasing_exits_2(tmp_path):
    data = evolve_config()
    del data["dephasing"]
    data["sweep"] = {"sigmas": [12.0],
                     "energies": {"start": 1.0, "stop": 4.0, "num": 3}}
    cfg = write_config(tmp_path, data)
    assert main(["ratio", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def entangle_config():
    return {
        "timebin": {"phi_p": 0.0, "epsilon": 0.06, "pairing_weight": 4.0,
                    "v_coh": 0.92},
        "tomography": {"n_mean": 2e4, "seed": 5, "n_seeds": 2},
    }


def test_negative_seed_option_exits_2_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, entangle_config())
    with pytest.raises(SystemExit) as exc:
        main(["entangle", "--config", str(cfg), "--out", str(tmp_path),
              "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "entangle_report.json").exists()


@pytest.mark.parametrize("command",
                         ["evolve", "rabi", "ratio", "fit-dephasing"])
def test_seed_option_belongs_to_entangle(tmp_path, capsys, command):
    # only entangle draws counts; elsewhere --seed would be ignored
    cfg = write_config(tmp_path, evolve_config())
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--out", str(tmp_path),
              "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, module, name", [
    ("rabi", cli, "load_config"),
    ("entangle", tomography, "simulate_counts"),
])
def test_allocation_too_large_exits_3(tmp_path, monkeypatch, capsys,
                                      command, module, name):
    # an oversized grid or seed count makes numpy refuse the allocation;
    # the refusal is faked here, since a real one may instead be granted
    # by an overcommitting system and then exhaust its memory
    message = ("Unable to allocate 7.28 TiB for an array with shape "
               "(1000000000000,) and data type float64")

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, name, refuse)
    cfg = write_config(tmp_path, entangle_config())
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_linalg_failure_exits_3_without_traceback(tmp_path, monkeypatch,
                                                  capsys):
    def fail(datasets):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(tomography, "reconstruct_mle_many", fail)
    cfg = write_config(tmp_path, entangle_config())
    assert main(["entangle", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: Eigenvalues did not converge" in err
    assert "Traceback" not in err


def test_entangle_computes_each_metric_once_per_run(tmp_path, monkeypatch):
    # the counts of all seeds are drawn in one call, and each metric of the
    # fitted states is taken on their stack: one call per run, whatever the
    # number of seeds, plus one on the model state
    from qdtimebin import cli, timebin, tomography
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("concurrence", "fidelity_bell", "coherence_metric",
                 "time_visibility"):
        counted(timebin, name)
    counted(cli, "state_fidelity")
    counted(tomography, "simulate_counts")
    data = entangle_config()
    data["tomography"]["n_seeds"] = 5
    cfg = write_config(tmp_path, data)
    assert main(["entangle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # the model state's time visibility comes through visibilities
    assert calls == {"concurrence": 2, "fidelity_bell": 2,
                     "coherence_metric": 2, "time_visibility": 2,
                     "state_fidelity": 1, "simulate_counts": 1}
    report = json.loads((tmp_path / "entangle_report.json").read_text())
    assert all(len(v["values"]) == 5
               for v in report["reconstruction"].values())


def test_entangle_ideal_configuration(tmp_path):
    data = {"timebin": {"epsilon": 0.0, "v_coh": 1.0},
            "tomography": {"n_mean": 1e4, "seed": 3, "n_seeds": 1}}
    cfg = write_config(tmp_path, data)
    assert main(["entangle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "entangle_report.json").read_text())
    m = report["model_metrics"]
    assert m["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert m["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert m["coherence_abs"] == pytest.approx(0.5, abs=1e-12)
    assert report["reconstruction"]["fidelity"]["mean"] > 0.97


def test_entangle_with_calibrated_coherence(tmp_path):
    data = evolve_config(area=5.0)
    data["timebin"] = {"phi_p": 0.0, "epsilon": 0.06, "v_coh": None}
    data["tomography"] = {"n_mean": 1e4, "seed": 11, "n_seeds": 2}
    data["dephasing"] = {"gamma_bg": 0.0, "gamma_i0": 0.02, "n_p": 2}
    cfg = write_config(tmp_path, data)
    assert main(["entangle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "entangle_report.json").read_text())
    assert 0.0 < report["v_coh"] < 1.0
    assert len(report["reconstruction"]["fidelity"]["values"]) == 2
    assert (tmp_path / "model_state.csv").exists()
    assert (tmp_path / "reconstructed_state.csv").exists()
    assert (tmp_path / "tomography_counts.txt").exists()


def test_fit_dephasing_round_trip(tmp_path):
    data = evolve_config()
    data["dot"]["delta_x"] = 3.5
    data["sweep"] = {"fit": {"n_p": 2, "target_ratio": 3.2}}
    cfg = write_config(tmp_path, data)
    assert main(["fit-dephasing", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "fit_dephasing.json").read_text())
    assert out["achieved_ratio"] == pytest.approx(3.2, rel=0.011)
    assert out["gamma_i0"] > 0
    # the interval that gave the fit was resolved at 36 areas
    assert out["scan_samples"] == 36
    assert 0.0 < out["scan_tail"] <= 1e-8


def test_fit_dephasing_searches_each_gamma_once(tmp_path, monkeypatch):
    # the acceptance-05 target lies in the first interval [0.02, 0.04]: one
    # batch of 6 gamma_i0 values x 36 areas, whose interpolant of 1/ratio
    # gives gamma_i0; the report records that bracket and each sample
    from qdtimebin import sweeps
    batches = []
    emission = sweeps.emission_after_pulse

    def counted(drive, decay, deph, tol=1e-8):
        batches.append(len(drive.omega0))
        return emission(drive, decay, deph, tol=tol)

    monkeypatch.setattr(sweeps, "emission_after_pulse", counted)
    data = {"dot": {"gamma_b": 0.004, "gamma_x": 0.002, "delta_x": 3.5},
            "pulse": {"sigma": 12.0},
            "sweep": {"fit": {"n_p": 2, "target_ratio": 2.9106995511630265}}}
    cfg = write_config(tmp_path, data)
    assert main(["fit-dephasing", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    out = json.loads((tmp_path / "fit_dephasing.json").read_text())
    assert batches == [216]
    assert out["gamma_i0"] == pytest.approx(0.0349, rel=1e-6)
    assert out["bracket"] == [0.02, 0.04]
    searched = [e["gamma_i0"] for e in out["evaluations"]]
    assert len(searched) == 6 and searched == sorted(searched)
    assert (searched[0], searched[-1]) == (0.02, 0.04)
    monkeypatch.undo()
    ratio = sweeps.first_cycle_ratio(
        12.0, sweeps.DephasingModel(0.0, out["gamma_i0"], 2),
        sweeps.DecayRates(0.004, 0.002), delta_x=3.5)
    assert out["achieved_ratio"] == pytest.approx(ratio, rel=1e-6)


def test_benchmark_configs_step_with_dop853(tmp_path, window_methods):
    # every pulse window of the benchmark's passes, warm-ups included, is
    # stepped by DOP853: none of its regimes is stiff
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 1)
        for command, config in plan["warmup"] + plan["steps"]:
            cfg = write_config(tmp_path, plan["configs"][config])
            assert main([command, "--config", str(cfg),
                         "--out", str(tmp_path / name)]) == 0
    assert len(window_methods) >= 6 and set(window_methods) == {"DOP853"}


def test_stiff_pulse_window_steps_with_radau(tmp_path):
    # intensity dephasing of ~3e12 /ps at the peak of a 1e-6 ps pulse would
    # take DOP853 millions of steps; Radau steps the window instead, and the
    # yields match the oracle, integrated by Radau as well
    data = evolve_config(area=20.0)
    data["dot"]["delta_x"] = 3.5
    data["pulse"]["sigma"] = 1e-6
    data["dephasing"].update(gamma_bg=0.01, gamma_i0=0.0349)
    cfg = write_config(tmp_path, data)
    start = time.monotonic()
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    assert time.monotonic() - start < 10.0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    pop, p_x, p_b = rows[:, 1:4], rows[:, 6], rows[:, 7]
    assert (pop >= -1e-9).all() and (p_b >= 0.0).all()
    assert (p_b <= p_x).all() and (p_x <= 1.0).all()
    # after the last row each level emits the population left on it, and
    # rho_bb feeds the exciton as well
    ref_x, ref_b = oracles.pulse_emission([20.0], 1e-6, 3.5, 0.004, 0.002,
                                          0.01, 0.0349, 2, method="Radau")
    _, rho_xx, rho_bb = pop[-1]
    assert p_x[-1] + rho_xx + rho_bb == pytest.approx(ref_x[0], abs=20e-8)
    assert p_b[-1] + rho_bb == pytest.approx(ref_b[0], abs=20e-8)


def test_entangle_report_records_mle_status_per_seed(tmp_path):
    data = entangle_config()
    cfg = write_config(tmp_path, data)
    assert main(["entangle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    mle = json.loads((tmp_path / "entangle_report.json").read_text())["mle"]
    n_seeds = data["tomography"]["n_seeds"]
    assert sorted(mle) == ["converged", "deviance", "gap", "log_likelihood",
                           "n_iter"]
    assert all(len(v) == n_seeds for v in mle.values())
    assert all(isinstance(c, bool) for c in mle["converged"])
    assert all(isinstance(n, int) and n >= 0 for n in mle["n_iter"])
    assert all(np.isfinite(mle["log_likelihood"]))
    # the deviance is >= 0 up to roundoff: ~0 when the linear inversion is
    # already physical
    assert all(d > -1e-9 and np.isfinite(d) for d in mle["deviance"])
    # each seed's certified optimality gap bounds its excess deviance
    assert all(c and -1e-9 <= g <= 1e-7 * max(d, 1.0) for c, g, d in zip(
        mle["converged"], mle["gap"], mle["deviance"]))


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, entangle_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["entangle", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["entangle", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("entangle_report.json", "model_state.csv",
                 "reconstructed_state.csv", "tomography_counts.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_changes_counts(tmp_path):
    cfg = write_config(tmp_path, entangle_config())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["entangle", "--config", str(cfg), "--out", str(out1),
                 "--seed", "1"]) == 0
    assert main(["entangle", "--config", str(cfg), "--out", str(out2),
                 "--seed", "2"]) == 0
    assert (out1 / "tomography_counts.txt").read_bytes() != \
        (out2 / "tomography_counts.txt").read_bytes()
