"""Fixtures shared by several test modules."""

import pytest

from wittkit import groups


@pytest.fixture
def eliminations(monkeypatch):
    """A list that gains one entry per Smith elimination during the test.

    Every elimination in the package runs ``groups._smith``, so wrapping it
    by name counts them all. Clear the list between calls counted apart.
    """
    calls = []
    core = groups._smith

    def counted(*args):
        calls.append(None)
        return core(*args)

    monkeypatch.setattr(groups, "_smith", counted)
    return calls
