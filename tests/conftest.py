"""Let the ``python -m bellbet`` processes the network tests spawn import the
package from this source tree when it is not installed (``pythonpath`` in
pyproject.toml only reaches the test process itself), and give the tests a
spy on the seeded streams and one on ``np.fmod``."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def draws(monkeypatch):
    """The (seed, role) of every seeded stream drawn, in order."""
    from bellbet import rng

    calls = []
    real = rng._draw

    def spy(seed, role, *args, **kwargs):
        calls.append((seed, role))
        return real(seed, role, *args, **kwargs)

    monkeypatch.setattr(rng, "_draw", spy)
    return calls


@pytest.fixture
def fmod_calls(monkeypatch):
    """The arguments of every ``np.fmod`` call, in order."""
    import numpy as np

    calls = []
    real = np.fmod

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "fmod", spy)
    return calls
