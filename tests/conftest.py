import builtins
import math

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=200)
hypothesis.settings.load_profile("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The (name, batch shape) of every numpy cholesky, eigh and eigvalsh
    call, in order."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(M, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(M)[:-2]))
            return _original(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture
def compensated_sum(monkeypatch):
    """Swaps ``builtins.sum`` for one that sums floats exactly rounded
    (``math.fsum``), as a compensated sum (Python 3.12 on) can differ from
    left-to-right adds. Sums of anything else go to the original."""
    original = builtins.sum

    def fsum(items, start=0):
        items = list(items)
        if type(start) in (int, float) and all(type(v) is float for v in items):
            return math.fsum([start, *items])
        return original(items, start)

    monkeypatch.setattr(builtins, "sum", fsum)
