"""Test configuration: a deterministic hypothesis profile, so that every
run of the suite draws the same examples, and a character-table memo that
every test starts empty, so that no test depends on the ones before it."""

import pytest
from hypothesis import settings

from rigidtori import characters

settings.register_profile(
    "rigidtori", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("rigidtori")


def _forget_tables():
    characters._LAST = None
    characters._KEPT.clear()
    characters._COMPUTED.clear()


@pytest.fixture(autouse=True)
def fresh_tables():
    """Empties the table memo and its fingerprints before the test; the
    test may call the returned function to empty them again."""
    _forget_tables()
    return _forget_tables
