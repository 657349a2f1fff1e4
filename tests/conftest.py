"""Fixtures shared by several test modules."""

import pytest

from wittkit import groups, specseq


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


@pytest.fixture
def f2_echelons(monkeypatch):
    """A list that gains one entry per F2 echelon during the test.

    ``f2_rank`` and ``cokernel_map`` both run ``groups._f2_echelon``, the one
    elimination over F2, so wrapping it by name counts them all. Clear the
    list between calls counted apart.
    """
    calls = []
    core = groups._f2_echelon

    def counted(vectors):
        calls.append(None)
        return core(vectors)

    monkeypatch.setattr(groups, "_f2_echelon", counted)
    return calls


@pytest.fixture
def checked_maps(monkeypatch):
    """A list that gains one entry per checked ``GroupMap`` construction.

    ``GroupMap(...)`` runs ``__post_init__``, its per-entry, shape and
    relation checks; ``built_map`` does not. Clear the list between calls
    counted apart.
    """
    calls = []
    core = groups.GroupMap.__post_init__

    def counted(self):
        calls.append(None)
        return core(self)

    monkeypatch.setattr(groups.GroupMap, "__post_init__", counted)
    return calls


@pytest.fixture
def checked_pages(monkeypatch):
    """A list that gains one entry per checked ``BigradedPage`` construction.

    ``BigradedPage(...)`` runs ``__post_init__``, its position, index, shape
    and composite checks; ``turn_page`` does not. Clear the list between
    calls counted apart.
    """
    calls = []
    core = specseq.BigradedPage.__post_init__

    def counted(self):
        calls.append(None)
        return core(self)

    monkeypatch.setattr(specseq.BigradedPage, "__post_init__", counted)
    return calls
