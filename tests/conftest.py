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
