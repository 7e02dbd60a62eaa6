import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def classify_calls(monkeypatch):
    """A list that grows by one on every ``classify`` call made through any
    module of the package that binds the name."""
    from bosonic_telesim import capacity, channels, convergence, peeling

    calls, real = [], channels.classify

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (capacity, channels, convergence, peeling):
        if getattr(mod, "classify", None) is real:
            monkeypatch.setattr(mod, "classify", counted)
    return calls
