"""Shared test settings.

Property tests run under one Hypothesis profile: the examples are derived from
each test's source rather than drawn at random (``derandomize``), no example
database is written, no per-example deadline applies and every property test
tries the same fixed number of examples, so the suite is deterministic and its
running time is bounded.
"""

from hypothesis import settings

settings.register_profile(
    "curvforms", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("curvforms")
