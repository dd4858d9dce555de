"""What ``dynamics.DOP853`` takes from scipy's private Runge-Kutta module.

Its step reads scipy's DOP853 tableau, the step-size constants
``SAFETY``, ``MIN_FACTOR`` and ``MAX_FACTOR``, the solver's
``error_exponent`` and the initial step that scipy's ``__init__`` takes.
It takes the error estimates E5 K and E3 K from the product that ends the
step, over the stages before the last, which holds only while E5 and E3
weight the last stage by 0.  ``dynamics.TOL_FLOOR`` and Radau's rtol of
max(tol/sqrt(N), TOL_FLOOR) rest on the floor to which both solvers raise
a smaller rtol.  This module imports scipy only, so that a
scipy release which moves or changes any of these fails here by name,
even when ``qdtimebin.dynamics`` no longer imports.
"""

import math
import numbers

import numpy as np
import pytest
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


def test_dop853_init_hands_the_step_what_it_reads():
    # the step reads f = fun(t0, y0), a K of n_stages + 1 rows (its work
    # array is [y; K]) and h_abs, max_step, rtol and atol as given
    dop853 = scipy.integrate.DOP853
    y0 = np.array([1.0, -2.0, 3.0])
    try:
        solver = dop853(lambda t, y: -y, 0.5, y0, 4.0, first_step=0.1,
                        max_step=0.25, rtol=1e-8, atol=1e-9)
    except TypeError as exc:
        raise AssertionError(
            "DOP853 no longer takes first_step, max_step, rtol and atol: "
            f"{exc}") from None
    assert solver.h_abs == 0.1, "DOP853's h_abs is not first_step"
    assert solver.max_step == 0.25, "DOP853's max_step is not as given"
    assert solver.rtol == 1e-8 and solver.atol == 1e-9, \
        "DOP853's rtol and atol are not as given"
    f = getattr(solver, "f", None)
    assert f is not None and np.array_equal(f, -y0), \
        "DOP853.__init__ no longer sets f = fun(t0, y0)"
    K = getattr(solver, "K", None)
    assert K is not None and K.shape == (dop853.n_stages + 1, 3), \
        "DOP853.__init__ no longer allocates K of n_stages + 1 rows"
    # with no first_step, scipy picks it; the step clips it to max_step
    # itself, so this case is one whose initial step lies under max_step
    # whatever scipy's rule
    solver = dop853(lambda t, y: -40.0 * y, 0.0, y0, 4.0, max_step=0.25,
                    rtol=1e-8, atol=1e-8)
    h_abs = float(solver.h_abs)
    assert math.isfinite(h_abs) and 0.0 < h_abs <= 0.25, \
        f"DOP853's initial step h_abs = {h_abs} is not in (0, max_step]"


@pytest.mark.parametrize("method", ["DOP853", "Radau"])
def test_rtol_below_100_eps_is_raised_to_it(method):
    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning):
        solver = getattr(scipy.integrate, method)(
            lambda t, y: -y, 0.0, np.ones(3), 1.0, rtol=floor / 10,
            atol=floor / 10)
    assert solver.rtol == floor, \
        f"{method} raises rtol {floor / 10} to {solver.rtol}, not {floor}"
