"""What ``dynamics.DOP853`` takes from scipy's private Runge-Kutta module.

Its step runs scipy's step-size control law, that of
``RungeKutta._step_impl``, with that module's step-size constants and the
solver's error exponent, and its stage loop runs scipy's DOP853 tableau.
It takes the error estimates E5 K and E3 K from the product that ends the
step, over the stages before the last, which holds only while E5 and E3
weight the last stage by 0.  It keeps scipy's ``K_extended`` as rows of
its own work array, with ``K`` a view of the first rows, where scipy's
dense output reads them.  This module imports scipy only, so that a scipy
release which moves or changes any of these fails here by name, even when
``qdtimebin.dynamics`` no longer imports.
"""

import numbers

import numpy as np
import scipy.integrate
from scipy.integrate._ivp import rk


def test_step_size_constants_are_where_the_control_law_reads_them():
    for name, value in (("SAFETY", 0.9), ("MIN_FACTOR", 0.2),
                        ("MAX_FACTOR", 10)):
        found = getattr(rk, name, None)
        assert isinstance(found, numbers.Real), \
            f"scipy.integrate._ivp.rk.{name} is gone"
        assert found == value, \
            f"scipy.integrate._ivp.rk.{name} is {found}, not {value}"


def test_dop853_error_exponent_is_minus_one_eighth():
    solver = scipy.integrate.DOP853(lambda t, y: -y, 0.0, np.ones(3), 1.0)
    assert solver.error_exponent == -1 / 8, \
        f"DOP853's error_exponent is {solver.error_exponent}, not -1/8"


def test_dop853_error_estimates_do_not_weight_the_last_stage():
    dop853 = scipy.integrate.DOP853
    assert dop853.E3[12] == dop853.E5[12] == 0.0, \
        "E3 or E5 weights K[12], the derivative at the step's end"


def test_dop853_tableau_has_the_shapes_the_stage_loop_reads():
    dop853 = scipy.integrate.DOP853
    assert dop853.n_stages == 12
    assert dop853.A.shape == (12, 12)
    assert dop853.B.shape == dop853.C.shape == (12,)
    assert dop853.E3.shape == dop853.E5.shape == (13,)
    assert dop853.C[0] == 0.0  # stage 0 is the derivative at the start


def test_dop853_keeps_its_stages_where_the_work_array_puts_them():
    dop853 = scipy.integrate.DOP853
    solver = dop853(lambda t, y: -y, 0.0, np.ones(3), 1.0)
    extended = getattr(solver, "K_extended", None)
    assert extended is not None, "DOP853 no longer allocates K_extended"
    assert extended.shape == (16, 3), \
        f"K_extended has {extended.shape[0]} rows, not N_STAGES_EXTENDED = 16"
    extended[:] = np.arange(16.0)[:, None]
    assert solver.K.shape == (dop853.n_stages + 1, 3) and np.array_equal(
        solver.K, extended[:dop853.n_stages + 1]) and np.shares_memory(
        solver.K, extended), "K is no longer a view of K_extended's first rows"
    assert dop853.A_EXTRA.shape == (3, 16), "A_EXTRA changed shape"
    assert dop853.C_EXTRA.shape == (3,), "C_EXTRA changed shape"
