"""Test configuration: a deterministic hypothesis profile, so that every
run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile(
    "rigidtori", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("rigidtori")
