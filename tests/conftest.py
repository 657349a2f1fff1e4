"""Fixtures shared by several test modules."""

import importlib
import pkgutil

import pytest

import wittkit
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

    Every F2 rank, ``homology_at``'s F2 route included, is ``f2_rank``, which
    runs ``groups._f2_echelon``, the one elimination over F2, so wrapping it
    by name counts them all. Clear the list between calls counted apart.
    """
    calls = []
    core = groups._f2_echelon

    def counted(vectors):
        calls.append(None)
        return core(vectors)

    monkeypatch.setattr(groups, "_f2_echelon", counted)
    return calls


@pytest.fixture
def groups_built(monkeypatch):
    """A list that gains one entry per ``SymGroup`` built during the test.

    ``SymGroup(...)`` runs ``__post_init__``; ``from_counts`` builds a group
    without it, so it is wrapped under every name that binds it in a module of
    the package. Clear the list between calls counted apart.
    """
    calls = []
    init, core = groups.SymGroup.__post_init__, groups.from_counts

    def counted_init(self):
        calls.append(None)
        return init(self)

    def counted(*args):
        calls.append(None)
        return core(*args)

    monkeypatch.setattr(groups.SymGroup, "__post_init__", counted_init)
    for info in pkgutil.iter_modules(wittkit.__path__):
        module = importlib.import_module("wittkit." + info.name)
        for name, value in list(vars(module).items()):
            if value is core:
                monkeypatch.setattr(module, name, counted)
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
