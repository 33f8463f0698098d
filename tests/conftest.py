"""Hypothesis profiles for the property tests.

``tier1`` (the default) is derandomized: every run draws the same examples, so
the suite's outcome depends on the code alone. ``long`` draws many more, from a
fresh random seed each run; select it with ``HYPOTHESIS_PROFILE=long``. Neither
keeps an example database.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile("tier1", derandomize=True, database=None, max_examples=25,
                          deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("long", database=None, max_examples=1000, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
