import math

import numpy as np
import pytest

from qdtimebin import dynamics


@pytest.fixture
def window_methods(monkeypatch):
    """Names of the methods ``dynamics._window_steps`` chooses, in call
    order."""
    methods = []
    choose = dynamics._window_method

    def recorded(*args):
        method = choose(*args)
        methods.append(method.__name__)
        return method

    monkeypatch.setattr(dynamics, "_window_method", recorded)
    return methods


@pytest.fixture
def rows_overflow_past_half(monkeypatch):
    """Make the coefficient rows of every pulse window infinite past pulse
    time tau = 0.5, as for a drive whose rates overflow mid-window: at one
    tau, and at each tau of the stage times of a DOP853 step.
    Returns a function that forces the window method, "DOP853" or
    "Radau"."""
    rows = dynamics._pulse_rows

    def overflowing(coef, p, shape):
        at = rows(coef, p, shape)

        def at_tau(tau):
            out = at(tau)
            out[np.greater(tau, 0.5)] = math.inf
            return out

        return at_tau

    monkeypatch.setattr(dynamics, "_pulse_rows", overflowing)

    def force(method):
        limit = 0.0 if method == "Radau" else math.inf
        monkeypatch.setattr(dynamics, "_RADAU_STEPS", limit)
        monkeypatch.setattr(dynamics, "_RADAU_MIN_STEPS", limit)

    return force
