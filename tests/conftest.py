"""Hypothesis profiles: tier-1 replays, CI's chaos job searches.

``tier1`` is loaded by default: every ``@given`` test draws the same
examples on every run and keeps no example database, so the suite is
red or green because of the code, never because of the search's luck.
The open-ended search runs in CI's ``chaos`` job with
``--hypothesis-profile=search --hypothesis-seed=<printed seed>``; a
test's own ``@settings(max_examples=...)`` still outranks a profile's.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, database=None, deadline=None
)
settings.register_profile(
    "search", max_examples=1000, print_blob=True, deadline=None
)
settings.load_profile("tier1")
