"""The numeric tables the CLI writes, pinned byte for byte.

Every value is written as ``f"{x:.12e}"`` (so -0.0, nan and inf keep their
own spelling), comma-separated, one row per line; the sweep table's
``saturated`` column is an integer.  The test run turns RuntimeWarnings
into errors, so a table whose energy column overflows must be written
without one.
"""

import json
import math

import numpy as np
import pytest

from qdtimebin.dynamics import (
    DecayRates,
    DephasingModel,
    Trajectory,
    export_trajectory_csv,
)
from qdtimebin.sweeps import SweepResult, export_sweep_csv
from qdtimebin.timebin import export_density_csv, import_density_csv


def _row(*values) -> str:
    return ",".join(f"{v:.12e}" for v in values) + "\n"


def test_trajectory_csv_format(tmp_path):
    decay = DecayRates(gamma_b=0.004, gamma_x=0.002)
    states = np.zeros((2, 3, 3), dtype=complex)
    states[0, 0, 0] = 1.0
    states[1] = [[0.25, 0.0, complex(-0.0, 1e-300)],
                 [0.0, -0.0, 0.0],
                 [complex(-0.0, -1e-300), 0.0, 0.75]]
    traj = Trajectory(times=np.array([-60.0, 1.5]), states=states,
                      integrals=np.array([[0.0, 0.0], [0.3, 1.0 / 3.0]]))
    path = tmp_path / "trajectory.csv"
    table = ("t,rho_gg,rho_xx,rho_bb,re_gb,im_gb,p_x,p_b\n"
             + _row(-60.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
             + _row(1.5, 0.25, -0.0, 0.75, -0.0, 1e-300,
                    0.002 * 0.3, 0.004 * (1.0 / 3.0)))
    export_trajectory_csv(traj, decay, path, params={"b": 1, "a": "x"})
    assert path.read_text(encoding="utf-8") == '# {"a": "x", "b": 1}\n' + table
    export_trajectory_csv(traj, decay, path)
    assert path.read_text(encoding="utf-8") == table


def test_sweep_csv_format(tmp_path):
    # point 1 failed (nan yields, not saturated), and its omega0 squared
    # overflows the energy column to inf
    sigma = 12.0
    omega0 = np.array([0.0, 1e200, 0.25])
    result = SweepResult(
        abscissa=np.array([0.0, 2.0, 3.0]), abscissa_kind="area",
        omega0=omega0, p_b=np.array([0.0, np.nan, -0.0]),
        p_x=np.array([0.0, np.nan, 1e-7]),
        ratio=np.array([np.nan, np.nan, 1.5e6]),
        saturated=np.array([True, False, False]), sigma=sigma,
        deph=DephasingModel(0.01, 0.0349, 2),
        decay=DecayRates(gamma_b=0.004, gamma_x=0.002),
        failures=[(1, "IntegrationError: right-hand side is not finite")])
    path = tmp_path / "sweep.csv"
    export_sweep_csv(result, path, extra_params={"config": {"k": [1, 2]}})
    params = {
        "abscissa_kind": "area", "sigma": sigma,
        "dephasing": {"gamma_bg": 0.01, "gamma_i0": 0.0349, "n_p": 2},
        "decay": {"gamma_b": 0.004, "gamma_x": 0.002},
        "peak_abscissa": None, "peak_ratio": None, "peak_interior": False,
        "failures": [{"index": 1, "abscissa": 2.0, "error":
                      "IntegrationError: right-hand side is not finite"}],
        "config": {"k": [1, 2]},
    }
    sqrt_area = math.sqrt(math.pi / math.log(2.0))
    rows = ""
    for i, w in enumerate(omega0.tolist()):
        rows += _row(w * sigma * sqrt_area, w, w * w * sigma,
                     result.p_b[i], result.p_x[i],
                     result.ratio[i])[:-1] + f",{int(result.saturated[i])}\n"
    assert "inf," in rows and "nan,nan,nan,0" in rows
    assert path.read_text(encoding="utf-8") == (
        "# " + json.dumps(params, sort_keys=True) + "\n"
        "theta,omega0,energy,p_b,p_x,ratio,saturated\n" + rows)


def test_density_csv_format(tmp_path):
    rho = np.array([[0.5, 0.0, 0.0, 0.25 - 0.125j],
                    [0.0, -0.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0 / 3.0, 0.0],
                    [0.25 + 0.125j, 0.0, 0.0, 1.0 / 6.0]])
    rho[1, 2] = complex(0.0, -0.0)
    path = tmp_path / "rho.csv"
    export_density_csv(rho, path)
    assert path.read_text(encoding="utf-8") == (
        "# 4x4 real part, then 4x4 imaginary part\n"
        + "".join(_row(*row) for row in rho.real)
        + "".join(_row(*row) for row in rho.imag))
    assert np.abs(import_density_csv(path) - rho).max() < 1e-12


@pytest.mark.parametrize("text", [
    "1,0,0,0\n" * 7,
    "1,0,0,0\n" * 7 + "1,0,0\n",
    "1,0,0,0,0\n" * 8,
])
def test_density_csv_rejects_other_shapes(tmp_path, text):
    path = tmp_path / "rho.csv"
    path.write_text("# 4x4 real part, then 4x4 imaginary part\n" + text,
                    encoding="utf-8")
    with pytest.raises(ValueError):
        import_density_csv(path)
