"""Descriptor construction, validation, and derived cohomology tables.

Curve mod-2 cohomology is checked against an independent cellular-cochain
oracle (one-vertex CW models: wedge of circles, closed orientable surface).
"""

import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_generated_surfaces import open_surfaces, projective_surfaces

import sample_spaces
import wittkit
from wittkit.catalog import MAX_GENUS, MAX_K3_RHO, catalog_get, catalog_instances
from wittkit.errors import DegreeOutOfRange, InconsistentDescriptor
from wittkit.groups import (
    TRIVIAL,
    Z,
    SymGroup,
    cyclic,
    divisible,
    elementary_two,
    f2_rank,
    free,
    mod2,
    parse_group,
    render,
)
from wittkit.spaces import (
    INTEGRAL,
    MAX_CURVE_RANK,
    MAX_GROUP_SUMMANDS,
    MOD2,
    SpaceDescriptor,
    betti,
    descriptor_from_json,
    descriptor_to_json,
    etale_h,
    k0_alg,
    make_curve,
    make_point,
    make_surface,
    pic_columns,
    picard,
    require_kind,
    singular_h,
    sq2z_on_pic,
)
from wittkit.specseq import ahss_ko, pardon_stable
from wittkit.witt import witt_table

# ---------------------------------------------------------------------------
# oracle: cellular cochain complexes of the standard one-vertex CW models


def cw_mod2_ranks(n_vertices, edges, faces_boundary_degrees):
    """Mod-2 cohomology ranks of a CW complex with cells listed per dimension.

    ``edges``: number of 1-cells, all loops at the single vertex (coboundary
    zero). ``faces_boundary_degrees``: for each 2-cell, the mod-2 multiset of
    edge traversals as a vector over the edges.
    """
    assert n_vertices == 1
    # d0: C^0 -> C^1 is zero (loops), d1: C^1 -> C^2 is the transpose of the
    # boundary. Ranks over F2.
    d1 = tuple(tuple(row) for row in faces_boundary_degrees)  # faces x edges
    r = f2_rank(d1)
    h0 = 1
    h1 = edges - r
    h2 = len(faces_boundary_degrees) - r
    return h0, h1, h2


def closed_surface_model(g):
    # one face glued along the product of commutators: every edge twice
    return cw_mod2_ranks(1, 2 * g, [[0] * (2 * g)]) if g >= 0 else None


def wedge_model(k):
    return cw_mod2_ranks(1, k, [])


# ---------------------------------------------------------------------------
# construction and validation


def test_make_curve_validation():
    make_curve(True, 0, 0)
    make_curve(True, 2)
    make_curve(False, 1, 2)
    with pytest.raises(InconsistentDescriptor):
        make_curve(True, 1, 1)
    with pytest.raises(InconsistentDescriptor):
        make_curve(False, 1, 0)
    with pytest.raises(InconsistentDescriptor):
        make_curve(True, -1)


def test_curve_size_is_bounded():
    # the tables build 2g + n invariant factors; a huge genus must be
    # refused at construction, not run the process out of memory
    assert MAX_CURVE_RANK >= 2 * 1000
    make_curve(True, 1000)
    make_curve(True, MAX_CURVE_RANK // 2)
    make_curve(False, 0, MAX_CURVE_RANK)
    make_curve(False, 1000, MAX_CURVE_RANK - 2000)
    for projective, genus, punctures in ((True, MAX_CURVE_RANK // 2 + 1, 0),
                                         (False, 1000, MAX_CURVE_RANK - 1999),
                                         (False, 0, MAX_CURVE_RANK + 1),
                                         (True, 10 ** 12, 0),
                                         (False, 1, 10 ** 12)):
        with pytest.raises(InconsistentDescriptor, match="genus"):
            make_curve(projective, genus, punctures)
    for fields in ({"projective": True, "genus": 10 ** 12, "punctures": 0},
                   {"projective": False, "genus": 1, "punctures": 10 ** 12}):
        with pytest.raises(InconsistentDescriptor, match="genus"):
            descriptor_from_json(json.dumps(dict(kind="curve", **fields)))
    doc = {"kind": "curve", "projective": True, "genus": 37, "punctures": 0}
    assert descriptor_from_json(json.dumps(doc)) == make_curve(True, 37)


def p2_surface():
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, Z, TRIVIAL, Z),
        nu=0,
        rho=1,
        ch2_mod2_rank=1,
        sq2=((1,),),
        pi2=((1,),),
    )


def enriques_surface():
    h2 = SymGroup(10, (2,), 0)
    pi2 = tuple(
        tuple(int(i == j) for j in range(11)) for i in range(12)
    )
    sq2 = ((0,) * 11 + (1,),)
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, h2, cyclic(2), Z),
        nu=1,
        rho=10,
        ch2_mod2_rank=1,
        sq2=sq2,
        pi2=pi2,
    )


def k3_surface(rho):
    eye = tuple(tuple(int(i == j) for j in range(22)) for i in range(22))
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, free(22), TRIVIAL, Z),
        nu=0,
        rho=rho,
        ch2_mod2_rank=1,
        sq2=((0,) * 22,),
        pi2=eye,
        s1=((0,) * rho,),
    )


def test_make_surface_accepts_standard_data():
    p2 = p2_surface()
    assert betti(p2) == (1, 0, 1, 0, 1)
    enr = enriques_surface()
    assert betti(enr) == (1, 0, 10, 0, 1)
    k3 = k3_surface(20)
    assert betti(k3) == (1, 0, 22, 0, 1)


def test_kind_is_read_off_the_cohomology_table():
    # no descriptor stores a kind, so none can carry one that its table denies
    assert "kind" not in [f.name for f in dataclasses.fields(SpaceDescriptor)]
    samples = [make_point(), make_curve(True, 0), make_curve(True, 7),
               make_curve(False, 0, 1), make_curve(False, 3, 4)]
    samples += [catalog_get(name).descriptor for name in catalog_instances()]
    samples += [sample_spaces.p2_surface(), sample_spaces.blowup_p2_surface(),
                sample_spaces.enriques_surface(), sample_spaces.k3_surface(10),
                sample_spaces.ruled_surface(2), sample_spaces.abelian_like_surface()]
    for space in samples:
        assert space.kind == ("point", "curve", "surface")[space.dim], space
    assert [s.kind for s in samples[:5]] == ["point"] + ["curve"] * 4
    assert sample_spaces.p2_surface().kind == "surface"
    with pytest.raises(TypeError):
        SpaceDescriptor(kind="surface")
    with pytest.raises(TypeError):
        dataclasses.replace(make_point(), kind="surface")


@pytest.mark.parametrize("length", (0, 2, 4, 7))
def test_a_table_of_no_dimension_has_no_kind(length):
    # a descriptor built by hand around the constructors: a cohomology table
    # lists H^0..H^(2 dim), so any length but 1, 3 or 5 names no dimension
    space = SpaceDescriptor(h_int_table=(Z,) * length)
    callers = [lambda: space.dim, lambda: space.kind, lambda: str(space),
               lambda: descriptor_to_json(space), lambda: witt_table(space),
               lambda: ahss_ko(space), lambda: pardon_stable(space)]
    callers += [lambda kind=kind: require_kind(space, kind)
                for kind in ("point", "curve", "surface")]
    for call in callers:
        with pytest.raises(InconsistentDescriptor) as info:
            call()
        assert info.value.signal == "inconsistent-descriptor"


def test_make_surface_rejects_bad_data():
    with pytest.raises(InconsistentDescriptor, match="rho"):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, Z), 0, 2, 1, ((1,),), ((1,),))
    with pytest.raises(InconsistentDescriptor, match="nu"):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, Z), 1, 1, 1, ((1,),), ((1,),))
    with pytest.raises(InconsistentDescriptor, match="h0"):
        make_surface(True, (free(2), TRIVIAL, Z, TRIVIAL, Z), 0, 1, 1, ((1,),), ((1,),))
    with pytest.raises(InconsistentDescriptor, match="h1"):
        make_surface(True, (Z, cyclic(2), Z, TRIVIAL, Z), 0, 1, 1, ((1,),), ((1,),))
    with pytest.raises(InconsistentDescriptor, match="projective-h4"):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, free(2)), 0, 1, 1,
                     ((1, 1), (0, 0)), ((1,),))
    # pi2 must be injective
    with pytest.raises(InconsistentDescriptor, match="pi2-injective"):
        make_surface(True, (Z, TRIVIAL, free(2), TRIVIAL, Z), 0, 2, 1,
                     ((1, 1),), ((1, 1), (0, 0)))
    # shape errors name the offending matrix
    with pytest.raises(InconsistentDescriptor, match="sq2"):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, Z), 0, 1, 1, ((1, 1),), ((1,),))
    # s1 has no default when the Picard lattice is smaller than H^2
    with pytest.raises(InconsistentDescriptor, match="s1"):
        make_surface(True, (Z, TRIVIAL, free(22), TRIVIAL, Z), 0, 20, 1,
                     ((0,) * 22,),
                     tuple(tuple(int(i == j) for j in range(22)) for i in range(22)))
    with pytest.raises(InconsistentDescriptor, match="ch2"):
        make_surface(False, (Z, TRIVIAL, Z, TRIVIAL, TRIVIAL), 0, 1, 1,
                     (), ((1,),))
    # a divisible summand is Picard data, never a cohomology group
    with pytest.raises(InconsistentDescriptor):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, divisible(1)), 0, 1, 1,
                     ((1,),), ((1,),))


def test_s1_default_is_restricted_composite():
    p2 = p2_surface()
    assert p2.s1 == ((1,),)
    enr = enriques_surface()
    assert enr.s1 == ((0,) * 11,)
    assert sq2z_on_pic(enr) == enr.s1


def test_s1_must_match_sq2_when_pic_is_onto():
    # rho = b2: s1 is Sq2 on H^2(Z)/2, so a supplied s1 may not contradict it
    with pytest.raises(InconsistentDescriptor, match="s1"):
        make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, Z), 0, 1, 1, ((1,),), ((1,),),
                     s1=((0,),))
    with pytest.raises(InconsistentDescriptor, match="s1"):
        make_surface(True, (Z, TRIVIAL, free(2), TRIVIAL, Z), 0, 2, 1, ((0, 1),),
                     ((1, 0), (0, 1)), s1=((1, 1),))
    assert make_surface(True, (Z, TRIVIAL, Z, TRIVIAL, Z), 0, 1, 1, ((1,),), ((1,),),
                        s1=((3,),)) == p2_surface()
    # below b2 the supplied s1 is the only source and is kept as given
    below = make_surface(True, (Z, TRIVIAL, free(2), TRIVIAL, Z), 0, 1, 1, ((1, 1),),
                         ((1, 0), (0, 1)), s1=((0,),))
    assert below.s1 == ((0,),)


CATALOG_SURFACES = (["p2", "blowup_p2", "enriques"]
                    + ["k3?rho=%d" % r for r in range(MAX_K3_RHO + 1)]
                    + ["ruled?g=%d" % g for g in range(MAX_GENUS + 1)])


def test_known_surfaces_load_with_their_s1():
    # the loader's s1 check refuses none of the surfaces the package knows
    spaces = [catalog_get(name).descriptor for name in CATALOG_SURFACES]
    spaces += [sample_spaces.p2_surface(), sample_spaces.blowup_p2_surface(),
               sample_spaces.enriques_surface(), sample_spaces.abelian_like_surface()]
    spaces += [sample_spaces.k3_surface(r) for r in range(MAX_K3_RHO + 1)]
    spaces += [sample_spaces.ruled_surface(g) for g in range(MAX_GENUS + 1)]
    for space in spaces:
        assert descriptor_from_json(descriptor_to_json(space)) == space, space


@pytest.mark.parametrize("name", CATALOG_SURFACES)
def test_surface_json_round_trip_runs_no_elimination(eliminations, name):
    # every H^i of a catalog surface has at most one torsion factor, so its
    # group strings parse without an elimination
    text = descriptor_to_json(catalog_get(name).descriptor)
    eliminations.clear()
    assert descriptor_to_json(descriptor_from_json(text)) == text
    assert len(eliminations) == 0


# ---------------------------------------------------------------------------
# cohomology tables


def test_curve_mod2_matches_cellular_oracle():
    for g in range(4):
        want = closed_surface_model(g)
        c = make_curve(True, g)
        got = tuple(etale_h(c, d).order().bit_length() - 1 for d in range(3))
        assert got == want, g
    for g in range(3):
        for n in range(1, 4):
            k = 2 * g + n - 1
            want = wedge_model(k)
            c = make_curve(False, g, n)
            got = tuple(etale_h(c, d).order().bit_length() - 1 for d in range(3))
            assert got == want, (g, n)


def test_etale_frozen_examples():
    assert etale_h(make_curve(True, 0), 1) == TRIVIAL
    assert etale_h(make_curve(True, 2), 1) == elementary_two(4)
    assert etale_h(make_curve(False, 1, 2), 1) == elementary_two(3)
    assert etale_h(make_curve(True, 1), 2) == cyclic(2)
    assert etale_h(make_curve(False, 1, 1), 2) == TRIVIAL


def test_singular_h_tables():
    torus = make_curve(True, 1)
    assert singular_h(torus, 1, INTEGRAL) == free(2)
    assert singular_h(torus, 0, INTEGRAL) == Z
    enr = enriques_surface()
    assert singular_h(enr, 2, MOD2) == elementary_two(12)
    assert singular_h(enr, 1, MOD2) == cyclic(2)
    assert singular_h(enr, 3, MOD2) == cyclic(2)
    assert singular_h(enr, 4, MOD2) == cyclic(2)
    p2 = p2_surface()
    assert singular_h(p2, 3, MOD2) == TRIVIAL
    with pytest.raises(DegreeOutOfRange):
        singular_h(torus, 3, INTEGRAL)
    with pytest.raises(ValueError):
        singular_h(make_point(), 0, "bogus")
    with pytest.raises(DegreeOutOfRange):
        etale_h(make_point(), 1)


def test_euler_characteristic_consistency():
    # alternating mod-2 ranks equal alternating Betti numbers
    for space in (p2_surface(), enriques_surface(), k3_surface(7)):
        chi_b = sum((-1) ** d * b for d, b in enumerate(betti(space)))
        chi_2 = sum(
            (-1) ** d * (singular_h(space, d, MOD2).order().bit_length() - 1)
            for d in range(5)
        )
        assert chi_b == chi_2


def test_picard():
    assert picard(make_curve(True, 1)) == SymGroup(1, (), 2)
    assert picard(make_curve(True, 0)) == Z
    assert picard(make_curve(False, 2, 1)) == divisible(4)
    assert mod2(picard(make_curve(False, 3, 2))) == TRIVIAL
    assert picard(make_point()) == TRIVIAL
    assert picard(p2_surface()) == Z
    assert picard(enriques_surface()) == SymGroup(10, (2,), 0)
    # mod-2 rank of Pic is rho + nu for projective surfaces
    for s in (p2_surface(), enriques_surface(), k3_surface(5)):
        assert mod2(picard(s)) == elementary_two(s.rho + s.nu)


def test_pic_embedding():
    enr = enriques_surface()
    assert pic_columns(enr) == tuple(range(10)) + (10,)
    m = sample_spaces.reference_picard_image_matrix(enr)
    assert len(m) == 12 and len(m[0]) == 11
    assert f2_rank(m) == 11


def test_k0_alg():
    assert k0_alg(make_point()) == (Z,)
    assert k0_alg(make_curve(True, 2)) == (Z, SymGroup(1, (), 4))
    assert k0_alg(make_curve(False, 1, 1)) == (Z, divisible(2))
    assert k0_alg(p2_surface()) == (Z, Z, Z)


def test_betti_tables():
    assert betti(make_point()) == (1,)
    assert betti(make_curve(True, 3)) == (1, 6, 1)
    assert betti(make_curve(False, 0, 3)) == (1, 2, 0)


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_round_trip():
    for space in (
        make_point(),
        make_curve(True, 2),
        make_curve(False, 1, 3),
        p2_surface(),
        enriques_surface(),
        k3_surface(11),
    ):
        text = descriptor_to_json(space)
        again = descriptor_from_json(text)
        assert again == space
        assert descriptor_to_json(again) == text


def test_json_curve_schema():
    c = descriptor_from_json(
        '{"kind":"curve","projective":true,"genus":2,"punctures":0}'
    )
    assert c == make_curve(True, 2)
    import json as _json

    doc = _json.loads(descriptor_to_json(make_curve(False, 1, 2)))
    assert set(doc) == {"kind", "projective", "genus", "punctures"}


def test_json_surface_schema_keys():
    import json as _json

    doc = _json.loads(descriptor_to_json(p2_surface()))
    assert set(doc) == {
        "kind", "projective", "h_int", "nu", "rho", "ch2_mod2_rank",
        "sq2", "pi2", "s1",
    }
    assert doc["h_int"] == ["Z", "0", "Z", "0", "Z"]
    # s1 may be omitted; the default reconstruction must agree
    del doc["s1"]
    assert descriptor_from_json(_json.dumps(doc)) == p2_surface()


def test_json_rejects_malformed():
    bad = [
        "not json",
        '{"kind":"plane"}',
        '{"kind":"curve","projective":true,"genus":2}',
        '{"kind":"curve","projective":true,"genus":2,"punctures":0,"extra":1}',
        '{"kind":"curve","projective":"yes","genus":2,"punctures":0}',
        '{"kind":"curve","projective":true,"genus":"two","punctures":0}',
        '["kind","curve"]',
    ]
    for text in bad:
        with pytest.raises(InconsistentDescriptor):
            descriptor_from_json(text)
    with pytest.raises(InconsistentDescriptor, match="h_int"):
        descriptor_from_json(
            '{"kind":"surface","projective":true,"h_int":["Z","0","Q","0","Z"],'
            '"nu":0,"rho":1,"ch2_mod2_rank":1,"sq2":[[1]],"pi2":[[1]]}'
        )


# The three loader holes: each malformed surface must end in the descriptor
# error, not a traceback, a signal-less error or a silent acceptance.


def _p2_doc(**changes):
    doc = json.loads(descriptor_to_json(p2_surface()))
    doc.update(changes)
    return doc


def test_json_rejects_non_string_h_int_entries():
    for raw in ([1, 2, 3, 4, 5], ["Z", "0", 1, "0", "Z"], ["Z", None, "Z", "0", "Z"]):
        with pytest.raises(InconsistentDescriptor, match="h_int"):
            descriptor_from_json(_p2_doc(h_int=raw))


def test_json_matrices_take_integers_only():
    for entry in (None, "x", "1", 1.5, 1.0, True):
        with pytest.raises(InconsistentDescriptor, match="sq2 entries"):
            descriptor_from_json(_p2_doc(sq2=[[entry]]))
        with pytest.raises(InconsistentDescriptor, match="pi2 entries"):
            descriptor_from_json(_p2_doc(pi2=[[entry]]))
    assert descriptor_from_json(_p2_doc(sq2=[[3]])) == p2_surface()


def test_make_surface_matrices_take_integers_only():
    # the loader's rule, after the shape check: floats, strings, bools and
    # None are refused, not read as 1 or left to a bare TypeError
    h_int = (Z, TRIVIAL, Z, TRIVIAL, Z)
    for entry in (None, "x", "1", 1.5, 1.7, 3.2, 1.0, True, False):
        bad = ((entry,),)
        for name, sq2, pi2, s1 in (("sq2", bad, ((1,),), None),
                                   ("pi2", ((1,),), bad, None),
                                   ("s1", ((1,),), ((1,),), bad)):
            with pytest.raises(InconsistentDescriptor, match="^%s entries must be integers$" % name):
                make_surface(True, h_int, 0, 1, 1, sq2, pi2, s1)
    with pytest.raises(InconsistentDescriptor, match="sq2 must be a 1x1 F2 matrix"):
        make_surface(True, h_int, 0, 1, 1, ((None, None),), ((1,),))
    # odd and negative integers reduce mod 2
    assert make_surface(True, h_int, 0, 1, 1, ((3,),), ((-1,),)) == p2_surface()


def test_constructors_take_the_loaders_scalar_and_matrix_types():
    # the loader's types: a bool is not an integer, an integer is not a
    # boolean, and a matrix is a sequence of rows
    for args in (("yes", 1), (1, 1), (True, 1.0), (True, True), (False, 0, True)):
        with pytest.raises(InconsistentDescriptor, match="must be an? (integer|boolean)$"):
            make_curve(*args)
    h_int = (Z, TRIVIAL, Z, TRIVIAL, Z)
    good = dict(projective=True, h_int=h_int, nu=0, rho=1, ch2_mod2_rank=1,
                sq2=((1,),), pi2=((1,),))
    for key, bad in (("projective", 1), ("nu", False), ("rho", True), ("rho", 1.0),
                     ("ch2_mod2_rank", "1")):
        with pytest.raises(InconsistentDescriptor, match="^%s must be" % key):
            make_surface(**dict(good, **{key: bad}))
    for key, bad in (("pi2", (1,)), ("pi2", 5), ("sq2", None), ("s1", "1")):
        with pytest.raises(InconsistentDescriptor, match="^%s must be a sequence of rows$" % key):
            make_surface(**dict(good, **{key: bad}))
    with pytest.raises(InconsistentDescriptor, match="^h_int must list"):
        make_surface(**dict(good, h_int=5))
    # the loader's bound on the summands of a group, which it reads back
    h3 = SymGroup(1, (3,) * (MAX_GROUP_SUMMANDS - 1))  # Z + Z/3 + ...: at the bound
    space = make_surface(False, (Z, TRIVIAL, TRIVIAL, h3, TRIVIAL), 0, 0, 0, (), ())
    assert descriptor_from_json(descriptor_to_json(space)) == space
    with pytest.raises(InconsistentDescriptor, match="at most %d summands" % MAX_GROUP_SUMMANDS):
        make_surface(False, (Z, TRIVIAL, TRIVIAL, SymGroup(1, (3,) * MAX_GROUP_SUMMANDS),
                             TRIVIAL), 0, 0, 0, (), ())
    assert make_surface(**dict(good, sq2=[[1]], pi2=[(1,)])) == p2_surface()


# values of the wrong type in every field: bools for integers and integers
# for bools, floats and strings for either, and matrices that are not
# sequences of integer rows. Whatever a constructor accepts, the loader must
# read back from its JSON; whatever it refuses, it refuses with the
# descriptor error.
WRONG_VALUES = (None, True, False, 0, 1, 2, -1, 1.0, 0.5, "1", "yes", 5, (1,),
                [], ((1,),), [[1]], ((True,),), [[1.0]], ((1, 0), "ab"))
WRONG = st.sampled_from(WRONG_VALUES)
SURFACE_FIELDS = ("projective", "h_int", "nu", "rho", "ch2_mod2_rank", "sq2", "pi2", "s1")


def accepted_round_trips(make, **args):
    try:
        space = make(**args)
    except InconsistentDescriptor:
        return
    assert descriptor_from_json(descriptor_to_json(space)) == space, args


@settings(max_examples=200, deadline=None)
@given(projective=st.booleans() | WRONG, genus=st.integers(-1, 40) | WRONG,
       punctures=st.integers(-1, 4) | WRONG)
def test_accepted_curves_round_trip(projective, genus, punctures):
    accepted_round_trips(make_curve, projective=projective, genus=genus, punctures=punctures)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(CATALOG_SURFACES), data=st.data())
def test_accepted_surfaces_round_trip(name, data):
    space = catalog_get(name).descriptor
    args = {key: getattr(space, key) for key in SURFACE_FIELDS if key != "h_int"}
    args["h_int"] = space.h_int_table
    for key in data.draw(st.lists(st.sampled_from(SURFACE_FIELDS), max_size=3, unique=True)):
        args[key] = data.draw(WRONG)
    accepted_round_trips(make_surface, **args)


# Documents with two faults: a loader that checks every scalar, then each
# matrix as a JSON list, before it calls make_surface names a fault that the
# constructor would name later, or names it in other words.
MULTI_FAULT_SURFACES = (
    dict(h_int=["Z^2", "0", "Z", "0", "Z"], sq2=[[1.5]]),
    dict(sq2=[[None]], pi2="x"),
    dict(pi2=[1]),
)


def loaded_and_built(doc):
    """What ``descriptor_from_json`` gives on ``doc``, and what ``make_surface``
    gives on its parsed h_int and its other fields: a space or the refusal."""
    def outcome(call):
        try:
            return call()
        except InconsistentDescriptor as exc:
            return (exc.signal, str(exc))

    table = tuple([parse_group(s) for s in doc["h_int"]])
    fields = [doc[key] for key in ("projective", "nu", "rho", "ch2_mod2_rank", "sq2", "pi2")]
    return (outcome(lambda: descriptor_from_json(doc)),
            outcome(lambda: make_surface(fields[0], table, *fields[1:], doc.get("s1"))))


def test_the_loader_names_the_constructors_first_fault():
    for changes in MULTI_FAULT_SURFACES:
        loaded, built = loaded_and_built(_p2_doc(**changes))
        assert isinstance(built, tuple) and loaded == built, changes
    # a wrong value in one field or two, as a file would carry it; no wrong
    # value is a list of five group strings, so for h_int only the loader's
    # own refusal can be checked
    base, values = _p2_doc(), [json.loads(json.dumps(v)) for v in WRONG_VALUES]
    for first, second in itertools.combinations_with_replacement(SURFACE_FIELDS, 2):
        for a, b in itertools.product(values, repeat=2):
            doc = dict(base, **{first: a})
            doc[second] = b
            if "h_int" in (first, second):
                with pytest.raises(InconsistentDescriptor, match="^h_int must list"):
                    descriptor_from_json(doc)
            else:
                loaded, built = loaded_and_built(doc)
                assert loaded == built, (first, a, second, b)


def test_free_ranks_past_the_bound_are_refused_at_once():
    # H^1 and H^3 need no matrix, so a file could name Z^N for any N
    for rank in (10 ** 6, 10 ** 7, 10 ** 9):
        start = time.perf_counter()
        with pytest.raises(InconsistentDescriptor, match="free rank at most %d$" % MAX_CURVE_RANK):
            make_surface(True, (Z, free(rank), Z, free(rank), Z), 0, 1, 1, ((1,),), ((1,),))
        with pytest.raises(InconsistentDescriptor, match="free rank at most %d$" % MAX_CURVE_RANK):
            descriptor_from_json(_p2_doc(h_int=["Z", "Z^%d" % rank, "Z", "Z^%d" % rank, "Z"]))
        assert time.perf_counter() - start < 0.5, rank
    for h2 in (free(MAX_CURVE_RANK + 1), SymGroup(MAX_CURVE_RANK + 1, (2,), 0)):
        with pytest.raises(InconsistentDescriptor, match="free rank at most"):
            make_surface(False, (Z, TRIVIAL, h2, TRIVIAL, TRIVIAL), 0, 0, 0, (), ())
    # at the bound the space loads
    at_bound = make_surface(True, (Z, free(MAX_CURVE_RANK), Z, free(MAX_CURVE_RANK), Z),
                            0, 1, 1, ((1,),), ((1,),))
    assert descriptor_from_json(descriptor_to_json(at_bound)) == at_bound


def test_projective_duality_covers_odd_torsion():
    # H^2 = Z/3 with H^3 = 0 satisfies the 2-torsion count but not duality
    for h2, h3 in (("Z/3", "0"), ("Z/3", "Z/9"), ("Z/15", "Z/5")):
        doc = _p2_doc(h_int=["Z", "0", "Z + " + h2, h3, "Z"])
        with pytest.raises(InconsistentDescriptor, match="projective-duality"):
            descriptor_from_json(doc)
    with pytest.raises(InconsistentDescriptor, match="projective-duality"):
        make_surface(True, (Z, TRIVIAL, SymGroup(1, (3,), 0), TRIVIAL, Z), 0, 1, 1,
                     ((1,),), ((1,),))
    # odd torsion on both sides is dual; Enriques (Z/2 in both degrees) loads
    odd = make_surface(True, (Z, TRIVIAL, SymGroup(1, (3,), 0), cyclic(3), Z),
                       0, 1, 1, ((1,),), ((1,),))
    assert descriptor_from_json(descriptor_to_json(odd)) == odd
    enr = enriques_surface()
    assert descriptor_from_json(descriptor_to_json(enr)) == enr


# Projective surfaces that duality or Hodge symmetry forbid, with rho = 1:
# F1 has b1 = 2 and b3 = 0, F2 has b1 = b3 = 1.
FORBIDDEN_SURFACES = (
    ("b3-differs-from-b1", ["Z", "Z^2", "Z", "0", "Z"], "projective-duality"),
    ("odd-b1", ["Z", "Z", "Z", "Z", "Z"], "projective-b1"),
)


@pytest.mark.parametrize("name, h_int, rule", FORBIDDEN_SURFACES,
                         ids=[row[0] for row in FORBIDDEN_SURFACES])
def test_projective_surface_needs_dual_ranks_and_even_b1(name, h_int, rule):
    table = tuple(parse_group(h) for h in h_int)
    with pytest.raises(InconsistentDescriptor, match=rule):
        make_surface(True, table, 0, 1, 1, ((1,),), ((1,),))
    with pytest.raises(InconsistentDescriptor, match=rule):
        descriptor_from_json(_p2_doc(h_int=h_int))
    # neither rule binds a non-projective surface
    other = make_surface(False, table, 0, 1, 1, ((1,),), ((1,),))
    assert descriptor_from_json(descriptor_to_json(other)) == other


def test_betti_check_survives_a_descriptor_forced_past_the_loader():
    # the loader refuses b1 != b3 now, so the Betti-number check of w_surface
    # guards only descriptors built around make_surface; it must still raise
    # with assert statements stripped
    child = (
        "import dataclasses, sys\n"
        "from wittkit.catalog import catalog_get\n"
        "from wittkit.errors import InvariantViolation\n"
        "from wittkit.groups import TRIVIAL, Z, free\n"
        "from wittkit.witt import w_surface\n"
        "p2 = catalog_get('p2').descriptor\n"
        "forced = dataclasses.replace(p2, h_int_table=(Z, free(2), Z, TRIVIAL, Z))\n"
        "try:\n"
        "    w_surface(forced, 1)\n"
        "    print(sys.flags.optimize, 'passed')\n"
        "except InvariantViolation as exc:\n"
        "    print(sys.flags.optimize, exc.signal)\n"
    )
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 invariant-violation\n"


def test_json_too_deep_or_too_long_is_a_descriptor_error():
    # json.loads raises RecursionError on deep nesting and ValueError on an
    # integer past the int-conversion limit; neither may escape the loader
    digits = "3" * 5000
    for text in ("[" * 100000 + "]" * 100000,
                 '{"kind": "curve", "projective": true, "genus": %s, "punctures": 0}'
                 % digits):
        with pytest.raises(InconsistentDescriptor, match="not valid JSON"):
            descriptor_from_json(text)
    doc = _p2_doc(h_int=["Z", "0", "Z + Z/" + digits, "0", "Z"])
    with pytest.raises(InconsistentDescriptor, match="h_int"):
        descriptor_from_json(json.dumps(doc))


def test_render_parse_used_by_descriptors():
    # the h_int grammar is the group grammar
    assert render(parse_group("Z^10 + Z/2")) == "Z^10 + Z/2"


# The descriptor writer as it stood before each kind's fields came from one
# table, copied verbatim (only renamed). The table-driven writer must give
# the same bytes on every descriptor.


def _reference_matrix_to_json(m) -> list:
    return [list(row) for row in m]


def reference_descriptor_to_json(space: SpaceDescriptor) -> str:
    if space.kind == "point":
        doc = {"kind": "point"}
    elif space.kind == "curve":
        doc = {
            "kind": "curve",
            "projective": space.projective,
            "genus": space.genus,
            "punctures": space.punctures,
        }
    else:
        doc = {
            "kind": "surface",
            "projective": space.projective,
            "h_int": [render(h) for h in space.h_int_table],
            "nu": space.nu,
            "rho": space.rho,
            "ch2_mod2_rank": space.ch2_mod2_rank,
            "sq2": _reference_matrix_to_json(space.sq2),
            "pi2": _reference_matrix_to_json(space.pi2),
            "s1": _reference_matrix_to_json(space.s1),
        }
    return json.dumps(doc, sort_keys=True)


def assert_writes_as_reference(space):
    text = descriptor_to_json(space)
    assert text == reference_descriptor_to_json(space), space
    assert descriptor_from_json(text) == space


def test_descriptor_writer_matches_reference_on_the_catalog():
    spaces = [catalog_get(name).descriptor for name in catalog_instances()]
    spaces += [make_point(), p2_surface(), enriques_surface(), k3_surface(7)]
    for space in spaces:
        assert_writes_as_reference(space)


@settings(max_examples=100, deadline=None)
@given(genus=st.integers(0, MAX_CURVE_RANK // 2 - 4), punctures=st.integers(0, 8))
def test_descriptor_writer_matches_reference_on_curves(genus, punctures):
    assert_writes_as_reference(make_curve(punctures == 0, genus, punctures))


@settings(max_examples=100, deadline=None)
@given(drawn=st.one_of(projective_surfaces(), open_surfaces()))
def test_descriptor_writer_matches_reference_on_drawn_surfaces(drawn):
    assert_writes_as_reference(drawn[0])


def test_the_loader_calls_each_constructor_through_its_module(monkeypatch):
    # a constructor rebound in its module, as a tracer or a test rebinds it,
    # is the one the loader calls
    calls = []
    for name in ("make_point", "make_curve", "make_surface"):
        core = getattr(wittkit.spaces, name)
        monkeypatch.setattr(wittkit.spaces, name,
                            lambda *args, core=core, name=name: calls.append(name) or core(*args))
    for instance in ("point", "p1", "k3?rho=10"):
        descriptor_from_json(descriptor_to_json(catalog_get(instance).descriptor))
    assert calls == ["make_point", "make_curve", "make_surface"]
