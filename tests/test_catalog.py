"""Registry contents, parameter grammar, the pipeline-over-catalog sweep,
and the per-process memo of registered entries."""

import types

import pytest

from sample_spaces import (
    blowup_p2_surface,
    enriques_surface,
    eye,
    k3_surface,
    p2_surface,
    ruled_surface,
)
from wittkit import catalog
from wittkit.catalog import (
    MAX_GENUS,
    MAX_K3_RHO,
    CatalogEntry,
    catalog_get,
    catalog_instances,
    catalog_list,
)
from wittkit.compare import compare_w_kok
from wittkit.errors import InconsistentDescriptor, UnknownName
from wittkit.groups import TRIVIAL, Z, free
from wittkit.spaces import (
    SpaceDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    make_curve,
)
from wittkit.specseq import ahss_k, pardon_stable
from wittkit.topko import ko_table
from wittkit.witt import witt_table


def test_catalog_list():
    names = catalog_list()
    assert set(names) == {
        "point", "p1", "p2", "blowup_p2", "enriques",
        "curve", "affine_curve", "k3", "ruled",
    }
    assert names == catalog_list()  # deterministic order


def test_plain_entries():
    assert catalog_get("point").descriptor.kind == "point"
    assert catalog_get("p1").descriptor == make_curve(True, 0)
    assert catalog_get("p2").descriptor == p2_surface()
    assert catalog_get("blowup_p2").descriptor == blowup_p2_surface()
    assert catalog_get("enriques").descriptor == enriques_surface()


def test_parametric_entries():
    assert catalog_get("curve?g=3").descriptor == make_curve(True, 3)
    assert catalog_get("affine_curve?g=1&n=2").descriptor == make_curve(False, 1, 2)
    assert catalog_get("affine_curve?n=2&g=1").descriptor == make_curve(False, 1, 2)
    assert catalog_get("k3?rho=20").descriptor == k3_surface(20)
    assert catalog_get("k3?rho=0").descriptor == k3_surface(0)
    assert catalog_get("ruled?g=2").descriptor == ruled_surface(2)
    assert catalog_get("curve?g=8").descriptor == make_curve(True, 8)


def literal_curve(projective, g, n=0):
    """A curve's descriptor written out field by field, pi2 entry by entry."""
    rho = 1 if projective else 0
    b1 = 2 * g + (0 if projective else n - 1)
    return SpaceDescriptor(projective=projective, genus=g, punctures=n, rho=rho,
                           pi2=eye(rho), h_int_table=(Z, free(b1), Z if projective else TRIVIAL))


def test_every_entry_equals_its_literal():
    # the sample surfaces are the registered literals with every identity and
    # the Enriques pi2 built entry by entry; the catalog must give the same
    # descriptors, with int entries only
    want = {"point": SpaceDescriptor(h_int_table=(Z,)), "p1": literal_curve(True, 0),
            "p2": p2_surface(), "blowup_p2": blowup_p2_surface(),
            "enriques": enriques_surface()}
    want.update(("k3?rho=%d" % rho, k3_surface(rho)) for rho in range(MAX_K3_RHO + 1))
    want.update(("ruled?g=%d" % g, ruled_surface(g)) for g in range(MAX_GENUS + 1))
    want.update(("curve?g=%d" % g, literal_curve(True, g)) for g in range(MAX_GENUS + 1))
    want.update(("affine_curve?g=%d&n=%d" % (g, n), literal_curve(False, g, n))
                for g in range(MAX_GENUS + 1) for n in range(1, 6))
    for name, literal in want.items():
        got = catalog_get(name).descriptor
        assert got == literal, name
        assert all(type(x) is int for m in (got.sq2, got.pi2, got.s1)
                   for row in m for x in row), name


def test_entry_names_are_canonical():
    # every kept name and 45 affine ones, each also with its keys swapped
    names = REGISTERED + tuple("affine_curve?g=%d&n=%d" % (g, n)
                               for g in range(MAX_GENUS + 1) for n in range(1, 6))
    assert len(names) == 44 + 45
    for name in names:
        base, sep, query = name.partition("?")
        swapped = base + sep + "&".join(query.split("&")[::-1])
        assert catalog_get(name).name == catalog_get(swapped).name == name, swapped
    assert catalog_get("affine_curve?n=2&g=1").name == "affine_curve?g=1&n=2"
    assert catalog_get("k3?rho=7").name == "k3?rho=7"
    assert catalog_get("point").name == "point"


def test_unknown_names():
    for bad in ("godeaux", "bielliptic", "k4", ""):
        with pytest.raises(UnknownName):
            catalog_get(bad)


def test_parameter_grammar_errors():
    with pytest.raises(UnknownName):
        catalog_get("p1?g=2")  # plain entry takes no parameters
    with pytest.raises(UnknownName):
        catalog_get("curve")  # missing required parameter
    with pytest.raises(UnknownName):
        catalog_get("k3?r=20")  # unknown key
    with pytest.raises(UnknownName):
        catalog_get("k3?rho=twenty")
    with pytest.raises(UnknownName):
        catalog_get("affine_curve?g=1")  # n missing
    # a key given twice, and any value that is not canonical decimal
    for name in ("k3?rho=5&rho=20", "affine_curve?g=1&n=1&n=2", "curve?g=01",
                 "curve?g=+1", "curve?g=\u0661", "curve?g=1_0", "curve?g= 1",
                 "curve?g=-0", "k3?rho=", "curve?g=None", "k3?rho=None"):
        with pytest.raises(UnknownName):
            catalog_get(name)


def test_parameter_range_validation():
    with pytest.raises(InconsistentDescriptor):
        catalog_get("curve?g=9")
    with pytest.raises(InconsistentDescriptor):
        catalog_get("k3?rho=21")
    with pytest.raises(InconsistentDescriptor):
        catalog_get("affine_curve?g=1&n=0")
    with pytest.raises(InconsistentDescriptor):
        catalog_get("ruled?g=-1")


SURFACE_NOTE_KEYS = {"h_int", "nu", "rho", "ch2_mod2_rank", "sq2", "pi2"}


@pytest.mark.parametrize("name", catalog_instances())
def test_every_numeric_field_is_annotated(name):
    entry = catalog_get(name)
    assert isinstance(entry, CatalogEntry)
    if entry.descriptor.kind == "curve":
        assert {"genus", "punctures"} <= set(entry.notes)
    elif entry.descriptor.kind == "surface":
        assert SURFACE_NOTE_KEYS <= set(entry.notes)
        if entry.descriptor.s1 is not None and name.startswith("k3"):
            assert "s1" in entry.notes
    assert all(isinstance(v, str) and v for v in entry.notes.values())


@pytest.mark.parametrize("name", catalog_instances())
def test_full_pipeline_runs(name):
    space = catalog_get(name).descriptor
    witt_table(space)
    ko_table(space)
    compare_w_kok(space)
    ahss_k(space)
    if space.kind == "surface":
        pardon_stable(space)
    if space.kind == "curve" and space.projective:
        witt_table(space, "O(p)")
        compare_w_kok(space, "O(p)")


@pytest.mark.parametrize("name", catalog_instances())
def test_descriptor_json_round_trip(name):
    space = catalog_get(name).descriptor
    assert descriptor_from_json(descriptor_to_json(space)) == space


def test_instances_are_deterministic_and_include_witnesses():
    assert catalog_instances() == catalog_instances()
    names = catalog_instances()
    assert "k3?rho=20" in names  # designated mismatch witness
    assert "enriques" in names   # designated eta-obstructed witness
    assert all(name == catalog_get(name).name for name in names)


# every name whose parameters the registry bounds: the ones built once
REGISTERED = (
    ("point", "p1", "p2", "blowup_p2", "enriques")
    + tuple("curve?g=%d" % g for g in range(MAX_GENUS + 1))
    + tuple("k3?rho=%d" % rho for rho in range(MAX_K3_RHO + 1))
    + tuple("ruled?g=%d" % g for g in range(MAX_GENUS + 1))
)


@pytest.fixture
def builds(monkeypatch):
    """Empty the memo for one test and count the descriptors catalog_get builds."""
    monkeypatch.setattr(catalog, "_BUILT", {})
    made = []
    for name in ("make_point", "make_curve", "make_surface"):
        real = getattr(catalog, name)
        monkeypatch.setattr(catalog, name,
                            lambda *a, real=real, **k: made.append(a) or real(*a, **k))
    return made


def test_each_registered_entry_is_built_once(builds):
    assert len(REGISTERED) == 44
    for name in REGISTERED:
        before = len(builds)
        catalog_get(name)
        assert len(builds) == before + 1, name
        catalog_get(name)
        catalog_get(name)
        assert len(builds) == before + 1, name
    assert len(catalog._BUILT) == 44


def test_a_kept_entry_equals_a_fresh_build(monkeypatch):
    kept = [catalog_get(name) for name in REGISTERED]
    monkeypatch.setattr(catalog, "_BUILT", {})
    for name, entry in zip(REGISTERED, kept):
        fresh = catalog_get(name)
        assert fresh == entry and fresh is not entry, name
        assert catalog_get(name) == fresh, name


@pytest.mark.parametrize("name", ["enriques", "k3?rho=10", "curve?g=2",
                                  "ruled?g=0", "affine_curve?g=1&n=2"])
def test_changing_returned_notes_leaves_the_next_lookup_alone(name):
    entry = catalog_get(name)
    want = dict(entry.notes)
    entry.notes["genus"] = "changed"
    entry.notes.pop("rho", None)
    assert catalog_get(name).notes == want
    assert catalog_get(name).notes is not catalog_get(name).notes


def test_affine_curves_are_built_on_every_lookup(builds):
    catalog_get("curve?g=1")
    kept = dict(catalog._BUILT)
    for i in range(200):
        catalog_get("affine_curve?g=%d&n=%d" % (i % (MAX_GENUS + 1), 1 + i // 9))
    assert catalog._BUILT == kept
    assert len(builds) == 1 + 200


@pytest.mark.parametrize("name", ["k3?rho=21", "curve?g=9", "ruled?g=-1"])
def test_a_refused_name_is_refused_on_every_call(builds, name):
    for _ in range(3):
        with pytest.raises(InconsistentDescriptor) as info:
            catalog_get(name)
        assert info.value.signal == "inconsistent-descriptor"
    assert catalog._BUILT == {} and builds == []


def test_catalog_get_is_a_plain_function():
    # a per-layer tracer wraps only plain functions; a caching wrapper
    # around catalog_get would hide its calls
    assert type(catalog.catalog_get) is types.FunctionType
