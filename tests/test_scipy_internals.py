"""What ``dynamics.DOP853`` takes from scipy's private Runge-Kutta module.

Its step copies ``RungeKutta._step_impl`` with that module's step-size
constants, and its stage loop runs scipy's DOP853 tableau.  This module
imports scipy only, so that a scipy release which moves any of these fails
here by name, even when ``qdtimebin.dynamics`` no longer imports.
"""

import numbers

import scipy.integrate
from scipy.integrate._ivp import rk


def test_step_size_constants_are_where_the_step_copy_reads_them():
    for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
        value = getattr(rk, name, None)
        assert isinstance(value, numbers.Real), \
            f"scipy.integrate._ivp.rk.{name} is gone"


def test_dop853_tableau_has_the_shapes_the_stage_loop_reads():
    dop853 = scipy.integrate.DOP853
    assert dop853.n_stages == 12
    assert dop853.A.shape == (12, 12)
    assert dop853.B.shape == dop853.C.shape == (12,)
    assert dop853.E3.shape == dop853.E5.shape == (13,)
    assert dop853.C[0] == 0.0  # stage 0 is the derivative at the start
