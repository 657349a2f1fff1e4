"""Witt/GW tables against their frozen values, the surface formulas against
the Pardon engine, Karoubi bookkeeping, and Stiefel-Whitney arithmetic against
a brute-force polynomial oracle."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    reference_cancel,
    reference_cancel_point,
    ruled_surface,
)
import wittkit
from wittkit.errors import (
    InconsistentDescriptor,
    InvariantViolation,
    NoSuchTwist,
    RenderParseError,
    RingMismatch,
    TruncationError,
    UnsupportedTwist,
    WittkitError,
)
from wittkit.catalog import catalog_get
from wittkit.compare import compare_w_kok
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    SymGroup,
    direct_sum,
    elementary_two,
    from_counts,
    mod2_rank,
    render,
)
from wittkit.spaces import make_curve, make_point, make_surface
from wittkit.specseq import pardon_stable
from wittkit.topko import KOK_POINT, ko_curve, ko_curve_reduced, ko_point, ko_table, kok_reduced
from wittkit.witt import (
    FHImage,
    RingContext,
    TruncatedClass,
    check_twist,
    curve_symplectic_ring,
    element_degree,
    fh_image,
    generic_sw_ring,
    gw_curve,
    gw_curve_reduced,
    gw_point,
    karoubi_check,
    minus_point,
    normalize_twist,
    projective_space_ring,
    ring_mul,
    ring_parse,
    ring_pow,
    ring_render,
    sw_metabolic_total,
    sw_whitney_product,
    w0_graded_surface,
    w_curve,
    w_point,
    w_reduced,
    w_surface,
    witt_json_payload,
    witt_table,
)

TW = ("trivial", "O(p)")


# ---------------------------------------------------------------------------
# brute-force polynomial oracle for the metabolic class formula
#
# Polynomials over F2 are sets of (t-degree, exponent-tuple) monomials in the
# variables (e, c1, c2, c3, c4); xor is addition. Completely independent of
# the RingContext machinery.

_NVARS = 5
_ONE = (0,) * _NVARS


def _pmul(p, q):
    out = set()
    for t1, m1 in p:
        for t2, m2 in q:
            key = (t1 + t2, tuple(a + b for a, b in zip(m1, m2)))
            out ^= {key}
    return out


def _ppow(p, n):
    acc = {(0, _ONE)}
    for _ in range(n):
        acc = _pmul(acc, p)
    return acc


def oracle_metabolic(rank, chern_js, complex_base):
    """Expand sum((1 + e t)^{rank-j} c_j t^{2j}) with c_j the j-th variable."""
    one_plus_et = {(0, _ONE)}
    if not complex_base:
        e_mono = tuple(1 if v == 0 else 0 for v in range(_NVARS))
        one_plus_et = {(0, _ONE), (1, e_mono)}
    total = set()
    for j in chern_js:
        cj = _ONE if j == 0 else tuple(1 if v == j else 0 for v in range(_NVARS))
        total ^= _pmul(_ppow(one_plus_et, rank - j), {(2 * j, cj)})
    return total


def _mono_label(mono):
    names = ("e", "c1", "c2", "c3", "c4")
    parts = []
    for name, expo in zip(names, mono):
        if expo == 1:
            parts.append(name)
        elif expo > 1:
            parts.append("%s^%d" % (name, expo))
    return "*".join(parts) if parts else "1"


def oracle_vector(ring, total, t_degree):
    vec = [0] * len(ring.basis)
    for t, mono in total:
        if t == t_degree:
            vec[ring.basis.index(_mono_label(mono))] ^= 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# point and curve tables


def test_point_tables():
    assert tuple(gw_point(i) for i in range(4)) == (Z, TRIVIAL, Z, Z2)
    assert tuple(w_point(i) for i in range(4)) == (Z2, TRIVIAL, TRIVIAL, TRIVIAL)
    assert gw_point(7) == Z2
    assert gw_point(-1) == gw_point(3)
    assert w_point(2) == TRIVIAL


@pytest.mark.parametrize("g", range(4))
def test_curve_tables_untwisted(g):
    c = make_curve(True, g)
    expected_gw = (
        SymGroup(1, (2,) * (2 * g + 1), 0),
        SymGroup(1, (), 2 * g),
        Z,
        SymGroup(1, (2,), 2 * g),
    )
    expected_w = (elementary_two(2 * g + 1), Z2, TRIVIAL, TRIVIAL)
    for i in range(4):
        assert gw_curve(c, i) == expected_gw[i]
        assert w_curve(c, i) == expected_w[i]


@pytest.mark.parametrize("g", range(4))
def test_curve_tables_twisted(g):
    c = make_curve(True, g)
    expected_gw = (
        SymGroup(1, (2,) * (2 * g), 0),
        SymGroup(1, (), 2 * g),
        Z,
        SymGroup(1, (), 2 * g),
    )
    expected_w = (elementary_two(2 * g), TRIVIAL, TRIVIAL, TRIVIAL)
    for i in range(4):
        assert gw_curve(c, i, "O(p)") == expected_gw[i]
        assert w_curve(c, i, "O(p)") == expected_w[i]


def test_p1_specializations():
    p1 = make_curve(True, 0)
    assert tuple(w_curve(p1, i) for i in range(4)) == (Z2, Z2, TRIVIAL, TRIVIAL)
    assert w_curve(p1, 1) == Z2
    assert all(w_curve(p1, i, "O(p)") == TRIVIAL for i in range(4))
    assert gw_curve(make_curve(True, 1), 3) == SymGroup(1, (2,), 2)


@pytest.mark.parametrize("g,n", [(0, 1), (1, 2), (2, 1), (3, 4)])
def test_affine_tables(g, n):
    c = make_curve(False, g, n)
    k = 2 * g + n - 1
    assert gw_curve(c, 0) == SymGroup(1, (2,) * k, 0)
    assert gw_curve(c, 1) == SymGroup(0, (), 2 * g)
    assert gw_curve(c, 2) == Z
    assert gw_curve(c, 3) == SymGroup(0, (2,), 2 * g)
    assert w_curve(c, 0) == elementary_two(k + 1)
    assert all(w_curve(c, i) == TRIVIAL for i in (1, 2, 3))


def test_affine_twice_punctured_torus():
    # W^0 of the twice-punctured genus-1 curve: Z/2 + wedge rank 3
    assert w_curve(make_curve(False, 1, 2), 0) == elementary_two(4)


def test_twist_validation():
    with pytest.raises(NoSuchTwist):
        w_curve(make_curve(False, 1, 1), 0, "O(p)")
    with pytest.raises(NoSuchTwist):
        gw_curve(make_curve(True, 1), 0, "O(q)")
    with pytest.raises(NoSuchTwist):
        witt_table(make_point(), "O(p)")
    assert normalize_twist(None) == "trivial"


def test_kind_guards():
    with pytest.raises(InconsistentDescriptor):
        gw_curve(p2_surface(), 0)
    with pytest.raises(InconsistentDescriptor):
        w_curve(make_point(), 0)
    with pytest.raises(InconsistentDescriptor):
        w_surface(make_curve(True, 1), 0)
    with pytest.raises(InconsistentDescriptor):
        karoubi_check(p2_surface())
    with pytest.raises(UnsupportedTwist):
        witt_table(p2_surface(), "O(p)")


@pytest.mark.parametrize("g", range(5))
def test_reduced_plus_point_bracket_is_total(g):
    c = make_curve(True, g)
    brackets_gw = (Z, TRIVIAL, Z, Z2)
    brackets_w = (Z2, TRIVIAL, TRIVIAL, TRIVIAL)
    for i in range(4):
        assert direct_sum(gw_curve_reduced(c, i), brackets_gw[i]) == gw_curve(c, i)
        assert direct_sum(w_reduced(c, i), brackets_w[i]) == w_curve(c, i)
        # twisted groups carry no point summand
        assert gw_curve_reduced(c, i, "O(p)") == gw_curve(c, i, "O(p)")
        assert w_reduced(c, i, "O(p)") == w_curve(c, i, "O(p)")


def test_every_w_group_has_exponent_two():
    spaces = [make_curve(True, g) for g in range(5)]
    spaces += [make_curve(False, g, n) for g in range(3) for n in (1, 3)]
    for c in spaces:
        for i in range(4):
            for tw in (TW if c.projective else TW[:1]):
                g = w_curve(c, i, tw)
                assert g.free_rank == 0 and g.divisible_rank == 0
                assert all(d == 2 for d in g.torsion)


# ---------------------------------------------------------------------------
# surfaces

SURFACES = [
    p2_surface(),
    blowup_p2_surface(),
    enriques_surface(),
    k3_surface(0),
    k3_surface(1),
    k3_surface(10),
    k3_surface(20),
    ruled_surface(0),
    ruled_surface(2),
    abelian_like_surface(),
]


def test_w_surface_frozen_tables():
    assert [w_surface(p2_surface(), i) for i in range(4)] == [Z2, TRIVIAL, TRIVIAL, TRIVIAL]
    assert [w_surface(blowup_p2_surface(), i) for i in range(4)] == [Z2, Z2, TRIVIAL, TRIVIAL]
    assert [w_surface(enriques_surface(), i) for i in range(4)] == [
        elementary_two(3), elementary_two(12), Z2, TRIVIAL]
    assert [w_surface(k3_surface(20), i) for i in range(4)] == [
        elementary_two(3), elementary_two(20), Z2, TRIVIAL]
    assert [w_surface(k3_surface(0), i) for i in range(4)] == [
        elementary_two(23), TRIVIAL, Z2, TRIVIAL]


def test_w0_graded_pieces():
    assert w0_graded_surface(p2_surface()) == (Z2, TRIVIAL, TRIVIAL)
    assert w0_graded_surface(enriques_surface()) == (Z2, Z2, Z2)
    assert w0_graded_surface(k3_surface(20)) == (Z2, TRIVIAL, elementary_two(2))
    assert w0_graded_surface(blowup_p2_surface()) == (Z2, TRIVIAL, TRIVIAL)
    assert w0_graded_surface(ruled_surface(2)) == (Z2, elementary_two(4), TRIVIAL)


@pytest.mark.parametrize("space", SURFACES, ids=str)
def test_w_surface_matches_pardon_engine(space):
    # dual route: closed form vs the spectral-sequence column read-off
    rep = pardon_stable(space)
    for i in range(3):
        assert rep.resolved_group(i) == w_surface(space, i)
    assert w_surface(space, 3) == TRIVIAL


def test_w_surface_reduced():
    for space in SURFACES:
        assert direct_sum(w_reduced(space, 0), Z2) == w_surface(space, 0)
        for i in (1, 2, 3):
            assert w_reduced(space, i) == w_surface(space, i)


def test_witt_table_payload_shape():
    t = witt_table(make_curve(True, 0))
    payload = witt_json_payload(t)
    assert list(payload) == ["GW", "W", "twist", "flags"]
    assert payload["W"] == ["Z/2", "Z/2", "0", "0"]
    assert payload["twist"] == "trivial"
    assert payload["flags"] == {"karoubi_split": [True, False, True, True]}

    point = witt_json_payload(witt_table(make_point()))
    assert point["GW"] == ["Z", "0", "Z", "Z/2"]

    surf = witt_json_payload(witt_table(p2_surface()))
    assert surf["GW"] == [None, None, None, None]
    assert surf["W"] == ["Z/2", "0", "0", "0"]


# ---------------------------------------------------------------------------
# forgetful-hyperbolic image patterns


def test_fh_image_untwisted_projective():
    c = make_curve(True, 1)
    assert fh_image(c, 2) == FHImage(coords=("deg",), columns=(), jac=False)
    assert fh_image(c, 1) == FHImage(coords=("deg",), columns=((2,),), jac=True)
    assert fh_image(c, 3) == fh_image(c, 1)
    assert fh_image(c, 0) == fh_image(c, 2)


def test_fh_image_twisted():
    c = make_curve(True, 1)
    assert fh_image(c, 0, "O(p)") == FHImage(
        coords=("rank", "deg"), columns=((2, 1),), jac=False)
    assert fh_image(c, 1, "O(p)") == FHImage(
        coords=("rank", "deg"), columns=((0, 1),), jac=True)


def test_fh_image_affine_and_surface():
    aff = make_curve(False, 2, 1)
    assert fh_image(aff, 0) == FHImage(coords=(), columns=(), jac=False)
    assert fh_image(aff, 1) == FHImage(coords=(), columns=(), jac=True)
    s = p2_surface()
    assert fh_image(s, 0).gr_multipliers == (2, 0, 2)
    assert fh_image(s, 1).gr_multipliers == (0, 2, 0)
    assert fh_image(s, 4).gr_multipliers == (2, 0, 2)
    with pytest.raises(UnsupportedTwist):
        fh_image(s, 0, "O(p)")
    with pytest.raises(InconsistentDescriptor):
        fh_image(make_point(), 0)


# ---------------------------------------------------------------------------
# Karoubi bookkeeping


@pytest.mark.parametrize("g", range(4))
def test_karoubi_untwisted(g):
    c = make_curve(True, g)
    rep = karoubi_check(c)
    assert rep.passed
    assert rep.coords == ("deg",)
    assert [n.split for n in rep.nodes] == [True, False, True, True]
    assert [n.s_piece for n in rep.nodes] == [
        Z2, SymGroup(1, (), 2 * g), TRIVIAL, SymGroup(1, (), 2 * g)]
    for i, n in enumerate(rep.nodes):
        assert n.w_reduced == w_reduced(c, i)
        assert n.gw_reduced == gw_curve_reduced(c, i)
        assert n.failures == ()


@pytest.mark.parametrize("g", range(4))
def test_karoubi_twisted(g):
    rep = karoubi_check(make_curve(True, g), "O(p)")
    assert rep.passed
    assert rep.coords == ("rank", "deg")
    assert [n.split for n in rep.nodes] == [True, True, True, True]
    assert [n.s_piece for n in rep.nodes] == [
        Z, SymGroup(1, (), 2 * g), Z, SymGroup(1, (), 2 * g)]


@pytest.mark.parametrize("g,n", [(0, 1), (1, 2), (2, 3)])
def test_karoubi_affine(g, n):
    rep = karoubi_check(make_curve(False, g, n))
    assert rep.passed
    assert rep.coords == ()
    assert [n.s_piece for n in rep.nodes] == [
        TRIVIAL, SymGroup(0, (), 2 * g), TRIVIAL, SymGroup(0, (), 2 * g)]
    assert all(n.split for n in rep.nodes)


def test_karoubi_rank_identity_holds_everywhere():
    # rank W^i = rank GW^i_red - mod-2 rank of the hyperbolic image
    for g in range(4):
        for tw in TW:
            rep = karoubi_check(make_curve(True, g), tw)
            assert all("rank2-identity" not in n.failures for n in rep.nodes)
            assert rep.passed


# ---------------------------------------------------------------------------
# Stiefel-Whitney arithmetic


def test_metabolic_complex_line():
    ring = projective_space_ring(2)
    h = ring_parse(ring, "h")
    total = sw_metabolic_total([ring.unit(), h], 1, ring, complex=True)
    assert total.coefficients[0] == ring.unit()
    assert total.coefficients[2] == h
    assert all(not any(total.coefficients[d]) for d in (1, 3, 4))


def test_metabolic_general_field_line():
    ring = generic_sw_ring(2)
    c1 = ring_parse(ring, "c1")
    total = sw_metabolic_total([ring.unit(), c1], 1, ring, complex=False)
    assert total.coefficients[1] == ring.minus_one
    assert total.coefficients[2] == c1  # the binomial (1 choose 2) term vanishes


def test_metabolic_trivial_lagrangian():
    ring = projective_space_ring(3)
    total = sw_metabolic_total([ring.unit()], 0, ring, complex=True)
    assert total.coefficients[0] == ring.unit()
    assert all(not any(c) for c in total.coefficients[1:])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("complex_base", [False, True])
def test_metabolic_matches_polynomial_oracle(rank, complex_base):
    ring = generic_sw_ring(4)
    chern_js = list(range(rank + 1))
    chern = [ring.unit()] + [ring_parse(ring, "c%d" % j) for j in range(1, rank + 1)]
    total = sw_metabolic_total(chern, rank, ring, complex=complex_base)
    expected = oracle_metabolic(rank, chern_js, complex_base)
    for d in range(ring.max_degree + 1):
        assert total.coefficients[d] == oracle_vector(ring, expected, d), d


def test_metabolic_partial_chern_vs_oracle():
    ring = generic_sw_ring(4)
    # only c_0 and c_2 present
    chern = [ring.unit(), ring.zero(), ring_parse(ring, "c2")]
    total = sw_metabolic_total(chern, 3, ring, complex=False)
    expected = oracle_metabolic(3, [0, 2], False)
    for d in range(ring.max_degree + 1):
        assert total.coefficients[d] == oracle_vector(ring, expected, d), d


def test_metabolic_complex_kills_odd_and_copies_chern():
    for ring in (projective_space_ring(2), curve_symplectic_ring(2)):
        one = ring.unit()
        deg2 = [i for i, d in enumerate(ring.degrees) if d == 2]
        c1 = tuple(1 if i in deg2[:1] else 0 for i in range(len(ring.basis)))
        total = sw_metabolic_total([one, c1], 3, ring, complex=True)
        assert total.coefficients[2] == c1
        assert all(not any(total.coefficients[d])
                   for d in range(1, ring.max_degree + 1, 2))


def test_whitney_worked_examples():
    ring = projective_space_ring(2)
    h = ring_parse(ring, "h")
    a = TruncatedClass(ring, (ring.unit(), ring.zero(), h))
    sq = sw_whitney_product(a, a)
    assert sq.coefficients[4] == ring_parse(ring, "h^2")
    assert all(not any(sq.coefficients[d]) for d in (1, 2, 3))

    one = TruncatedClass(ring, (ring.unit(),))
    assert sw_whitney_product(a, one) == a

    cr = curve_symplectic_ring(2)
    x = TruncatedClass(cr, (cr.unit(), ring_parse(cr, "a1")))
    y = TruncatedClass(cr, (cr.unit(), ring_parse(cr, "a2")))
    prod = sw_whitney_product(x, y)
    assert prod.coefficients[1] == ring_parse(cr, "a1+a2")
    assert not any(prod.coefficients[2])  # a1*a2 = 0: orthogonal lines


def test_whitney_hyperbolic_plane_detects_top_class():
    cr = curve_symplectic_ring(1)
    x = TruncatedClass(cr, (cr.unit(), ring_parse(cr, "a1")))
    y = TruncatedClass(cr, (cr.unit(), ring_parse(cr, "b1")))
    assert sw_whitney_product(x, y).coefficients[2] == ring_parse(cr, "pt")


def _random_class(ring, rng):
    coeffs = [ring.unit()]
    for d in range(1, ring.max_degree + 1):
        vec = [0] * len(ring.basis)
        for i, deg in enumerate(ring.degrees):
            if deg == d and rng.random() < 0.5:
                vec[i] = 1
        coeffs.append(tuple(vec))
    return TruncatedClass(ring, tuple(coeffs))


@st.composite
def _classes(draw, ring):
    coeffs = [ring.unit()]
    for d in range(1, ring.max_degree + 1):
        vec = [0] * len(ring.basis)
        for i, deg in enumerate(ring.degrees):
            if deg == d and draw(st.booleans()):
                vec[i] = 1
        coeffs.append(tuple(vec))
    return TruncatedClass(ring, tuple(coeffs))


_CURVE_RING = curve_symplectic_ring(2)


@settings(max_examples=60, deadline=None)
@given(_classes(_CURVE_RING), _classes(_CURVE_RING), _classes(_CURVE_RING))
def test_whitney_commutative_associative(a, b, c):
    assert sw_whitney_product(a, b) == sw_whitney_product(b, a)
    left = sw_whitney_product(sw_whitney_product(a, b), c)
    right = sw_whitney_product(a, sw_whitney_product(b, c))
    assert left == right
    assert left.coefficients[0] == _CURVE_RING.unit()
    for x, y in ((a, b), (b, c), (sw_whitney_product(a, b), c)):
        assert _whitney(sw_whitney_product, x, y) == _whitney(reference_sw_whitney_product, x, y)


def reference_sw_whitney_product(a: TruncatedClass, b: TruncatedClass,
                                 ring: RingContext | None = None) -> TruncatedClass:
    """sw_whitney_product as it stood before a total class multiplied as one ring
    element: a ring_mul per pair of t-degrees, with its own overflow check."""
    if ring is None:
        ring = a.ring
    if a.ring != ring or b.ring != ring:
        raise RingMismatch("classes live over different ring contexts")
    out = [ring.zero() for _ in range(ring.max_degree + 1)]
    for i, ai in enumerate(a.coefficients):
        if not any(ai):
            continue
        for j, bj in enumerate(b.coefficients):
            if not any(bj):
                continue
            if i + j > ring.max_degree:
                if ring.truncates_to_zero:
                    continue
                raise TruncationError(
                    "t^%d term overflows max degree %d" % (i + j, ring.max_degree))
            term = ring_mul(ring, ai, bj)
            out[i + j] = tuple(x ^ y for x, y in zip(out[i + j], term))
    return TruncatedClass(ring, tuple(out))


def _whitney(fn, a, b):
    """The coefficients of ``fn(a, b)``, or TruncationError if it raises that."""
    try:
        return fn(a, b).coefficients
    except TruncationError:
        return TruncationError


def _bulk_class(ring, rng):
    """A class with entries 0 to 3 up to a random t-degree and zero above it, so
    that pairs over a ring whose overflow raises both fit and overflow."""
    top = rng.randrange(1, ring.max_degree + 2)
    return TruncatedClass(ring, (ring.unit(),) + tuple(
        tuple([rng.choice((0, 1, 2, 3)) if deg == d < top else 0 for deg in ring.degrees])
        for d in range(1, ring.max_degree + 1)))


def test_whitney_random_seeded_bulk():
    # the reference's coefficients, or TruncationError on both sides
    ring = projective_space_ring(4)
    rng = random.Random(20240817)
    for _ in range(120):
        a, b = _random_class(ring, rng), _random_class(ring, rng)
        assert sw_whitney_product(a, b) == sw_whitney_product(b, a)
        assert _whitney(sw_whitney_product, a, b) == _whitney(reference_sw_whitney_product, a, b)
    overflowed = set()
    for ring in ([projective_space_ring(d) for d in range(1, 9)]
                 + [curve_symplectic_ring(g) for g in range(5)]
                 + [generic_sw_ring(r) for r in range(1, 5)]):
        for _ in range(40):
            a, b = _bulk_class(ring, rng), _bulk_class(ring, rng)
            expected = _whitney(reference_sw_whitney_product, a, b)
            assert _whitney(sw_whitney_product, a, b) == expected, (ring.name, a, b)
            if not ring.truncates_to_zero:
                overflowed.add(expected is TruncationError)
    assert overflowed == {False, True}


def test_truncation_signals():
    gen = generic_sw_ring(1)
    c1 = ring_parse(gen, "c1")
    a = TruncatedClass(gen, (gen.unit(), gen.zero(), c1))
    with pytest.raises(TruncationError):
        sw_whitney_product(a, a)
    with pytest.raises(TruncationError):
        # (1 + e t)^3 needs e^3 in a ring truncated above degree 2
        sw_metabolic_total([gen.unit(), c1], 3, gen, complex=False)
    big = projective_space_ring(1)
    h = ring_parse(big, "h")
    b = TruncatedClass(big, (big.unit(), big.zero(), h))
    assert not any(sw_whitney_product(b, b).coefficients[2])  # silently truncates


def test_ring_mismatch():
    a = TruncatedClass(projective_space_ring(2), (projective_space_ring(2).unit(),))
    b = TruncatedClass(curve_symplectic_ring(1), (curve_symplectic_ring(1).unit(),))
    with pytest.raises(RingMismatch):
        sw_whitney_product(a, b)


def test_truncated_class_validation():
    ring = projective_space_ring(2)
    with pytest.raises(ValueError):
        TruncatedClass(ring, (ring.zero(),))
    with pytest.raises(ValueError):
        # degree-2 element at t-weight 1
        TruncatedClass(ring, (ring.unit(), ring_parse(ring, "h")))


def test_metabolic_validation():
    ring = generic_sw_ring(2)
    with pytest.raises(ValueError):
        sw_metabolic_total([ring.zero()], 1, ring, complex=True)
    with pytest.raises(ValueError):
        sw_metabolic_total([ring.unit(), ring_parse(ring, "c1"),
                            ring_parse(ring, "c2")], 1, ring, complex=True)
    with pytest.raises(ValueError):
        sw_metabolic_total([ring.unit(), ring_parse(ring, "e")], 1, ring, complex=True)


def reference_sw_metabolic_total(lagrangian_chern, rank, ring, complex):
    """sw_metabolic_total as it stood before its walk over m was bounded by the
    ring's top degree: every m = 0..rank - j, parity from the binomial itself."""
    chern = [tuple(c) for c in lagrangian_chern]
    if not chern or chern[0] != ring.unit():
        raise ValueError("lagrangian Chern classes must start with c_0 = 1")
    if len(chern) - 1 > rank:
        raise ValueError("a rank-%d bundle has no c_%d" % (rank, len(chern) - 1))
    for j, c in enumerate(chern):
        deg = element_degree(ring, c)
        if deg is not None and deg != 2 * j:
            raise ValueError("c_%d must be homogeneous of degree %d" % (j, 2 * j))
    e = ring.zero() if complex else ring.minus_one
    out = [ring.zero() for _ in range(ring.max_degree + 1)]
    for j, cj in enumerate(chern):
        if not any(cj):
            continue
        for m in range(rank - j + 1):
            if comb(rank - j, m) % 2 == 0:
                continue
            if m and not any(e):
                break
            term = ring_mul(ring, ring_pow(ring, e, m), cj)
            if any(term):
                out[2 * j + m] = tuple(x ^ y for x, y in zip(out[2 * j + m], term))
    return TruncatedClass(ring, tuple(out))


SW_RINGS = ([projective_space_ring(d) for d in range(1, 5)]
            + [curve_symplectic_ring(g) for g in range(3)]
            + [generic_sw_ring(r) for r in range(1, 4)])


@pytest.mark.parametrize("ring", SW_RINGS, ids=[r.name for r in SW_RINGS])
def test_metabolic_total_matches_the_unbounded_walk(ring):
    # the same class, or the same exception and message, on ranks 0..300
    # with the unit and with each degree-2 basis element as c_1
    chern_lists = [[ring.unit()]] + [
        [ring.unit(), tuple(int(k == i) for k in range(len(ring.basis)))]
        for i, d in enumerate(ring.degrees) if d == 2]

    def result(fn, chern, rank, complex_base):
        try:
            return fn(chern, rank, ring, complex_base).coefficients
        except (TruncationError, ValueError) as exc:
            return type(exc), str(exc)

    for chern in chern_lists:
        for rank in range(301):
            for complex_base in (False, True):
                assert result(sw_metabolic_total, chern, rank, complex_base) \
                    == result(reference_sw_metabolic_total, chern, rank, complex_base), \
                    (ring.name, chern, rank, complex_base)


def reference_monomial_ring(name, gens, max_degree, truncates_to_zero, minus_one_label=None):
    """_monomial_ring as it stood before a monomial's degree was one function:
    each exponent probed one past its range, each degree summed inline."""
    labels = [lab for lab, _ in gens]
    monos = [()]  # exponent tuples over gens
    for _ in gens:
        grown = []
        for expo in monos:
            e = 0
            while True:
                cand = expo + (e,)
                deg = sum(gens[t][1] * cand[t] for t in range(len(cand)))
                if deg > max_degree:
                    break
                grown.append(cand)
                e += 1
        monos = grown
    monos.sort(key=lambda expo: (sum(gens[t][1] * expo[t] for t in range(len(expo))), expo))

    def label_of(expo):
        parts = []
        for t, e in enumerate(expo):
            if e == 1:
                parts.append(labels[t])
            elif e > 1:
                parts.append("%s^%d" % (labels[t], e))
        return "*".join(parts) if parts else "1"

    basis = tuple(label_of(e) for e in monos)
    degrees = tuple(sum(gens[t][1] * e[t] for t in range(len(e))) for e in monos)
    index = {e: i for i, e in enumerate(monos)}
    products = {}
    for i, ei in enumerate(monos):
        for j in range(i, len(monos)):
            if degrees[i] + degrees[j] > max_degree:
                continue
            tot = tuple(a + b for a, b in zip(ei, monos[j]))
            products[(i, j)] = (index[tot],)
    minus_one = [0] * len(basis)
    if minus_one_label is not None:
        minus_one[basis.index(minus_one_label)] = 1
    return RingContext(name, basis, degrees, products, max_degree,
                       truncates_to_zero, tuple(minus_one))


def test_monomial_rings_match_the_probing_builder():
    # the same basis order, labels, degrees, products and class of (-1)
    for d in range(65):
        assert projective_space_ring(d) \
            == reference_monomial_ring("P%d" % d, (("h", 2),), 2 * d, True), d
    for r in range(1, 9):
        gens = (("e", 1),) + tuple(("c%d" % j, 2 * j) for j in range(1, r + 1))
        assert generic_sw_ring(r) == reference_monomial_ring(
            "generic%d" % r, gens, 2 * r, False, minus_one_label="e"), r


def test_ring_parse_render():
    ring = curve_symplectic_ring(1)
    assert ring_render(ring, ring_parse(ring, "a1 + b1")) == "a1 + b1"
    assert ring_parse(ring, "0") == ring.zero()
    assert ring_render(ring, ring.zero()) == "0"
    with pytest.raises(RenderParseError):
        ring_parse(ring, "nope")
    gen = generic_sw_ring(2)
    assert gen.basis[0] == "1" and gen.degrees[0] == 0
    assert ring_parse(gen, "1") == gen.unit()


# Smith normal forms per call on a genus-20 projective curve, counted at
# groups._smith, the one elimination core. These are the counts once the
# duplicate tables were derived from one another, zero maps stopped costing
# an elimination, maps between elementary 2-groups were read off F2 ranks,
# the curve tables were built from summand counts, homology at a middle
# group Z was read off two integers and direct sums ran one presentation
# only for two or more torsion factors (karoubi_check's eight direct sums
# ran one each, and seven of them have at most one torsion factor). The
# karoubi_check rows fell from 11 and 28 when its F.H lattice test began to
# read the im F cokernels that the S-pieces already need, instead of
# building each again. The untwisted row fell from 9 to 7 when cokernel_map
# began to read its W-cokernels into (Z/2)^(2g+1) off an F2 reduction; the
# O(p) shadow Z + (Z/2)^2g is not elementary, so that row stays. A change
# that adds eliminations must lower them or say why.
ELIMINATIONS_GENUS_20 = (
    ("witt_table", lambda c: witt_table(c), 0),
    ("witt_table O(p)", lambda c: witt_table(c, "O(p)"), 0),
    ("ko_table", lambda c: ko_table(c), 0),
    ("karoubi_check", lambda c: karoubi_check(c), 7),
    ("karoubi_check O(p)", lambda c: karoubi_check(c, "O(p)"), 24),
    ("compare_w_kok", lambda c: compare_w_kok(c), 0),
)


@pytest.mark.parametrize("name, call, most", ELIMINATIONS_GENUS_20,
                         ids=[row[0] for row in ELIMINATIONS_GENUS_20])
def test_elimination_count_does_not_grow(eliminations, name, call, most):
    call(make_curve(True, 20))
    # a row with a positive bound must count at least one elimination, so a
    # counter that sees none fails instead of passing every row
    floor = 1 if most else 0
    assert floor <= len(eliminations) <= most, (name, len(eliminations))


# Smith normal forms per table on catalog surfaces, counted as above. Every
# surface table is read off summand counts, W by w_surface and KO/K by one
# rank formula, so none runs an elimination; the karoubi_check rows above
# show that the counter is not blind. A change that adds one must say why.
ELIMINATIONS_SURFACES = (
    ("k3?rho=10", 0, 0, 0),
    ("enriques", 0, 0, 0),
    ("ruled?g=7", 0, 0, 0),
    ("p2", 0, 0, 0),
    ("blowup_p2", 0, 0, 0),
    ("k3?rho=0", 0, 0, 0),
    ("k3?rho=20", 0, 0, 0),
    ("ruled?g=8", 0, 0, 0),
)


@pytest.mark.parametrize("name, witt, ko, compare", ELIMINATIONS_SURFACES,
                         ids=[row[0] for row in ELIMINATIONS_SURFACES])
def test_surface_elimination_count_does_not_grow(eliminations, name, witt, ko, compare):
    space = catalog_get(name).descriptor
    counts = []
    for table in (witt_table, ko_table, compare_w_kok):
        eliminations.clear()
        table(space)
        counts.append(len(eliminations))
    assert counts == [witt, ko, compare], name


# F2 echelons per table call, counted at groups._f2_echelon: a W row ranks
# s1 once and reads the rank of c1 as rho + nu, a KO/K row ranks Sq2 once,
# and compare_w_kok reads its shift-0 mismatch ranks off the rows it holds
# (7, 1 and 11 on k3?rho=10 when every shift read its own ranks, and 2, 1
# and 3 when a W row also ranked c1 off pi2).
ECHELONS_TABLES = (
    ("k3?rho=10", 1, 1, 2),
    ("enriques", 1, 1, 2),
    ("p2", 1, 1, 2),
    ("k3?rho=0", 1, 1, 2),
    ("curve?g=3", 1, 1, 2),
    ("point", 1, 1, 2),
)


@pytest.mark.parametrize("name, witt, ko, compare", ECHELONS_TABLES,
                         ids=[row[0] for row in ECHELONS_TABLES])
def test_table_echelon_count_does_not_grow(f2_echelons, name, witt, ko, compare):
    space = catalog_get(name).descriptor
    counts = []
    for table in (witt_table, ko_table, compare_w_kok):
        f2_echelons.clear()
        table(space)
        counts.append(len(f2_echelons))
    assert counts[0] <= witt and counts[1] == ko and 1 <= counts[2] <= compare, (name, counts)


@given(st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 3)),
       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), st.sampled_from(TW))
def test_minus_point_is_cancel_point_on_count_built_groups(total_counts, point_counts, tw):
    # the same group, or the same InvariantViolation with the same message,
    # raised in every mode; a twisted group is its own reduced group
    total, point = from_counts(*total_counts), from_counts(*point_counts)

    def result(call):
        try:
            return call(total, point, tw)
        except InvariantViolation as exc:
            return (exc.signal, str(exc))

    assert result(minus_point) == result(reference_cancel_point)


@pytest.mark.parametrize("name", ["point", "p1", "curve?g=3", "affine_curve?g=1&n=2",
                                  "k3?rho=10"])
def test_tables_and_reduced_rows_run_no_cancel(name):
    # a reduced row is the count minus the point's count, and no module of the
    # package removes a summand any other way; the count must equal the
    # complement of the point summand that the reference cancel computes
    assert not any(hasattr(module, "cancel") for module in
                   (wittkit.groups, wittkit.witt, wittkit.topko, wittkit.compare))
    space = catalog_get(name).descriptor
    twists = []
    for tw in TW:
        try:
            check_twist(space, tw)
        except WittkitError:
            continue
        twists.append(tw)
        wt, kt = witt_table(space, tw), ko_table(space, tw)
        w_pt, gw_pt = [w_point(i) for i in range(4)], [gw_point(i) for i in range(4)]
        rows = [(wt.w, wt.w_reduced, w_pt), (kt.kok, kt.kok_reduced, KOK_POINT),
                (wt.w, [w_reduced(space, i, tw) for i in range(4)], w_pt),
                (kt.kok, [kok_reduced(space, 2 * i, tw) for i in range(4)], KOK_POINT)]
        if space.kind != "surface":
            rows.append((wt.gw, wt.gw_reduced, gw_pt))
        if space.kind == "curve":
            nodes = karoubi_check(space, tw).nodes
            rows += [(wt.gw, [gw_curve_reduced(space, i, tw) for i in range(4)], gw_pt),
                     (wt.gw, [n.gw_reduced for n in nodes], gw_pt),
                     (wt.w, [n.w_reduced for n in nodes], w_pt)]
        report = compare_w_kok(space, tw)
        if report.mismatch is not None and report.mismatch[0] == 0:
            top = report.rows[0]
            assert report.mismatch[1:] == (
                mod2_rank(reference_cancel_point(top.w, w_point(0), tw)),
                mod2_rank(reference_cancel_point(top.kok, KOK_POINT[0], tw))), (name, tw)
        for full, reduced, point in rows:
            assert list(reduced) == [reference_cancel_point(g, p, tw)
                                     for g, p in zip(full, point)], (name, tw)
    if space.kind == "curve":
        assert [ko_curve_reduced(space, d) for d in range(8)] == [
            reference_cancel(ko_curve(space, d), ko_point(d)) for d in range(8)], name
    assert twists, name


def test_twist_validation_builds_no_picard_group(monkeypatch):
    # Pic/2 has rank rho + nu, so O(p) is validated from the descriptor's
    # integers; compare_w_kok validates it three times
    calls = []
    core = wittkit.witt.picard
    monkeypatch.setattr(wittkit.witt, "picard", lambda s: calls.append(s) or core(s))
    report = compare_w_kok(make_curve(True, 20), "O(p)")
    assert report.twist == "O(p)" and calls == []
    with pytest.raises(NoSuchTwist):
        check_twist(make_curve(False, 3, 2), "O(p)")
    assert calls == []
