import sys

import numpy as np
import pytest
from hypothesis import settings

from hybridiq import linalg

# Property tests draw the same examples on every run, so tier-1 time and
# results stay fixed; no example database is written.
settings.register_profile("hybridiq", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("hybridiq")


@pytest.fixture
def kraus_defect_calls(monkeypatch):
    """Wrap kraus_defect wherever a hybridiq module holds it; the list gets one entry per call."""
    original = linalg.kraus_defect
    calls = []

    def counted(stack):
        calls.append(np.shape(stack))
        return original(stack)

    for name, module in list(sys.modules.items()):
        holds = getattr(module, "kraus_defect", None) is original
        if holds and name.partition(".")[0] == "hybridiq":
            monkeypatch.setattr(module, "kraus_defect", counted)
    return calls


def _numpy_linalg_calls(monkeypatch, name: str) -> list:
    """Wrap numpy.linalg.<name>; the list gets the shape of each matrix stack it is given."""
    original = getattr(np.linalg, name)
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Wrap numpy.linalg.svd; the list gets the shape of each matrix stack it factors."""
    return _numpy_linalg_calls(monkeypatch, "svd")


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Wrap numpy.linalg.eigvalsh, which linalg.spectra calls above d = 2."""
    return _numpy_linalg_calls(monkeypatch, "eigvalsh")


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Wrap numpy.linalg.cholesky, which linalg.positive_parts calls above d = 2."""
    return _numpy_linalg_calls(monkeypatch, "cholesky")
