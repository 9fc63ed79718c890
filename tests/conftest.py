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
