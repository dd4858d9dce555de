"""What ``qdtimebin.dynamics`` takes from scipy's solvers.

``_dop853_steps`` reads scipy's DOP853 tableau and takes the error
estimates E5 K and E3 K from the product that ends the step, over the
stages before the last, which holds only while E5 and E3 weight the last
stage by 0.  ``dynamics.TOL_FLOOR`` and Radau's rtol of
max(tol/sqrt(N), TOL_FLOOR) rest on the floor to which Radau raises a
smaller rtol.  This module imports scipy only, so that a scipy release
which moves or changes any of these fails here by name, even when
``qdtimebin.dynamics`` no longer imports.
"""

import numpy as np
import pytest
import scipy.integrate


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


@pytest.mark.parametrize("method", ["Radau"])
def test_rtol_below_100_eps_is_raised_to_it(method):
    floor = 100 * np.finfo(float).eps
    with pytest.warns(UserWarning):
        solver = getattr(scipy.integrate, method)(
            lambda t, y: -y, 0.0, np.ones(3), 1.0, rtol=floor / 10,
            atol=floor / 10)
    assert solver.rtol == floor, \
        f"{method} raises rtol {floor / 10} to {solver.rtol}, not {floor}"
