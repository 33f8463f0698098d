"""Hypothesis profiles for the property tests, and a fixture that counts SVDs.

``tier1`` (the default) is derandomized: every run draws the same examples, so
the suite's outcome depends on the code alone. ``long`` draws many more, from a
fresh random seed each run; select it with ``HYPOTHESIS_PROFILE=long``. Neither
keeps an example database.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile("tier1", derandomize=True, database=None, max_examples=25,
                          deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("long", database=None, max_examples=1000, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def svd_calls(monkeypatch):
    """A list that records every SVD numpy takes through ``np.linalg``: ``svd``,
    ``svdvals``, and ``norm`` at a spectral or nuclear order."""
    calls = []

    def counted(name, real, spectral=lambda *a, **k: True):
        def call(*args, **kwargs):
            if spectral(*args, **kwargs):
                calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)

    counted("svd", np.linalg.svd)
    counted("svdvals", np.linalg.svdvals)
    counted("norm", np.linalg.norm,
            lambda x, ord=None, *a, **k: isinstance(ord, (int, str)) and ord in (2, -2, "nuc"))
    return calls
