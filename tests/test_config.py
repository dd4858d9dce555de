import json

import numpy as np
import pytest

from qdtimebin.config import ConfigError, RunConfig, load_config
from qdtimebin.dynamics import DecayRates, DephasingModel
from qdtimebin.timebin import TimeBinModelParams


def minimal_config():
    return {
        "dot": {"gamma_x": 0.002, "gamma_b": 0.004, "delta_x": 3.5,
                "delta_b": 0.0},
        "pulse": {"sigma": 12.0, "t0": 0.0, "area": 10.0},
        "dephasing": {"gamma_bg": 0.0, "gamma_i0": 0.0349, "n_p": 2},
    }


def test_parse_minimal():
    cfg = RunConfig.parse(minimal_config())
    assert cfg.dot.delta_x == 3.5
    assert cfg.pulse.sigma == 12.0
    assert cfg.dephasing.n_p == 2
    drive = cfg.pulse.drive(cfg.dot)
    assert drive.delta_x == 3.5
    assert drive.omega0 > 0


def test_unknown_key_named_in_error():
    data = minimal_config()
    data["dot"]["gamma_z"] = 1.0
    with pytest.raises(ConfigError, match="gamma_z"):
        RunConfig.parse(data)
    data = minimal_config()
    data["pulze"] = {}
    with pytest.raises(ConfigError, match="pulze"):
        RunConfig.parse(data)


def test_negative_rate_rejected():
    data = minimal_config()
    data["dot"]["gamma_x"] = -0.1
    with pytest.raises(ConfigError, match="gamma_x"):
        RunConfig.parse(data)


def test_area_omega0_exclusive():
    data = minimal_config()
    data["pulse"]["omega0"] = 0.4
    # the whole message: the section name is not wrapped a second time
    with pytest.raises(ConfigError, match="^'pulse' must set either 'area' "
                                          "or 'omega0', not both$"):
        RunConfig.parse(data)


def test_sweep_grid_forms():
    data = minimal_config()
    data["sweep"] = {"areas": {"start": 1.0, "stop": 5.0, "num": 5},
                     "energies": [0.5, 1.0, 2.0],
                     "sigmas": [4.0, 12.0]}
    cfg = RunConfig.parse(data)
    assert np.allclose(cfg.sweep.areas, np.linspace(1, 5, 5))
    assert list(cfg.sweep.energies) == [0.5, 1.0, 2.0]
    data["sweep"]["areas"] = {"start": 1.0, "stop": 5.0}
    with pytest.raises(ConfigError, match="num"):
        RunConfig.parse(data)


def test_timebin_and_tomography_sections():
    data = minimal_config()
    data["timebin"] = {"phi_p": 0.1, "epsilon": 0.06, "v_coh": None}
    data["tomography"] = {"n_mean": 1e5, "seed": 9, "n_seeds": 3}
    cfg = RunConfig.parse(data)
    # the config builds the model objects; v_coh null or absent means
    # "calibrate from the pulse"
    assert isinstance(cfg.dot.decay, DecayRates)
    # the config's own defaults, not DecayRates' 0.002 / 0.001
    assert RunConfig.parse({}).dot.decay == DecayRates(gamma_b=0.004,
                                                       gamma_x=0.002)
    assert isinstance(cfg.dephasing, DephasingModel)
    assert isinstance(cfg.timebin, TimeBinModelParams)
    assert (cfg.timebin.phi_p, cfg.timebin.epsilon) == (0.1, 0.06)
    assert cfg.calibrate_v_coh
    del data["timebin"]["v_coh"]
    assert RunConfig.parse(data).calibrate_v_coh
    data["timebin"]["v_coh"] = 0.9
    cfg = RunConfig.parse(data)
    assert not cfg.calibrate_v_coh and cfg.timebin.v_coh == 0.9
    assert cfg.tomography.n_seeds == 3
    data["tomography"]["seed"] = "seven"
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.parse(data)


def test_require_names_missing_section():
    cfg = RunConfig.parse(minimal_config())
    cfg.require("dot", "pulse")
    with pytest.raises(ConfigError, match="tomography"):
        cfg.require("tomography")


def test_load_config_file_errors(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "missing.json")
    path.write_text(json.dumps(minimal_config()))
    assert load_config(path).pulse.sigma == 12.0
