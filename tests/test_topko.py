"""KO/K/KOK tables against frozen values, the curve Witt coincidence, and
the AHSS engine as an independent oracle for every emitted order."""

import pytest

from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    ruled_surface,
)
from wittkit.errors import (
    DegreeOutOfRange,
    InconsistentDescriptor,
    NoSuchTwist,
    UnsupportedTwist,
)
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    SymGroup,
    direct_sum,
    elementary_two,
    f2_rank,
    free,
    mod2_rank,
    two_torsion,
)
from wittkit.spaces import betti, make_curve, make_point, make_surface, thom_space
from wittkit.specseq import ahss_k, ahss_ko, pardon_stable
from wittkit.topko import (
    KoTable,
    eta_iso_check,
    k1_two_torsion,
    k_top_graded,
    ko_curve,
    ko_curve_reduced,
    ko_point,
    ko_table,
    kok,
    kok_reduced,
    mod2_ranks,
    ql_hermitian_verdict,
    sq2_integral,
    topko_json_payload,
)
from wittkit.witt import w, w_curve, w_point

SURFACES = [
    p2_surface(),
    blowup_p2_surface(),
    enriques_surface(),
    k3_surface(0),
    k3_surface(10),
    k3_surface(20),
    ruled_surface(0),
    ruled_surface(2),
    abelian_like_surface(),
]

CURVES = [make_curve(True, g) for g in range(4)] + [
    make_curve(False, 0, 1),
    make_curve(False, 1, 2),
    make_curve(False, 2, 3),
]

# total degree at which KO^d lands inside the engine's window; pinned here
# independently of the module under test
KO_READ = {0: 0, 1: 1, 2: 2, 3: -5, 4: -4, 5: -3, 6: -2, 7: -1}


# ---------------------------------------------------------------------------
# KO tables


def test_ko_point():
    assert tuple(ko_point(d) for d in range(8)) == (
        Z, TRIVIAL, TRIVIAL, TRIVIAL, Z, TRIVIAL, Z2, Z2)
    assert ko_point(8) == Z
    assert ko_point(-2) == Z2


@pytest.mark.parametrize("g", range(4))
def test_ko_projective_curve(g):
    c = make_curve(True, g)
    expected = (
        SymGroup(1, (2,) * (2 * g + 1), 0),
        SymGroup(2 * g, (2,), 0),
        Z,
        TRIVIAL,
        Z,
        free(2 * g),
        SymGroup(1, (2,), 0),
        elementary_two(2 * g + 1),
    )
    for d in range(8):
        assert ko_curve(c, d) == expected[d]
        assert ko_curve(c, d + 8) == expected[d]


def test_ko_worked_examples():
    assert ko_curve(make_curve(True, 1), 1) == SymGroup(2, (2,), 0)
    assert ko_curve(make_curve(True, 0), 6) == SymGroup(1, (2,), 0)
    assert ko_curve(make_curve(True, 0), 3) == TRIVIAL


@pytest.mark.parametrize("g,n", [(0, 1), (1, 2), (3, 2)])
def test_ko_affine_curve(g, n):
    c = make_curve(False, g, n)
    k = 2 * g + n - 1
    expected = (
        SymGroup(1, (2,) * k, 0),
        free(k),
        TRIVIAL,
        TRIVIAL,
        Z,
        free(k),
        Z2,
        elementary_two(k + 1),
    )
    assert tuple(ko_curve(c, d) for d in range(8)) == expected


def test_ko_rejects_non_curves():
    with pytest.raises(InconsistentDescriptor):
        ko_curve(make_point(), 0)
    with pytest.raises(InconsistentDescriptor):
        ko_curve(p2_surface(), 0)


@pytest.mark.parametrize("c", CURVES, ids=str)
def test_ko_reduced_plus_point_is_total(c):
    for d in range(8):
        assert direct_sum(ko_curve_reduced(c, d), ko_point(d)) == ko_curve(c, d)


# ---------------------------------------------------------------------------
# KO/K quotients


@pytest.mark.parametrize("c", CURVES, ids=str)
def test_kok_equals_witt_on_curves(c):
    twists = ("trivial", "O(p)") if c.projective else ("trivial",)
    for tw in twists:
        for i in range(4):
            assert kok(c, 2 * i, tw) == w_curve(c, i, tw)


def test_kok_point_equals_witt():
    for i in range(4):
        assert kok(make_point(), 2 * i) == w_point(i)


def test_kok_surface_frozen():
    assert [kok(p2_surface(), s) for s in (0, 2, 4, 6)] == [
        Z2, TRIVIAL, TRIVIAL, TRIVIAL]
    assert [kok(blowup_p2_surface(), s) for s in (0, 2, 4, 6)] == [
        Z2, Z2, TRIVIAL, TRIVIAL]
    assert [kok(enriques_surface(), s) for s in (0, 2, 4, 6)] == [
        elementary_two(3), elementary_two(12), Z2, TRIVIAL]
    for rho in (0, 10, 20):
        assert [kok(k3_surface(rho), s) for s in (0, 2, 4, 6)] == [
            Z2, elementary_two(22), Z2, TRIVIAL]


def test_kok_compact_four_manifold_pattern():
    # b1 = 4, b2 = 6, nu = 0, vanishing integral Sq2
    x = abelian_like_surface()
    b = betti(x)
    assert f2_rank(sq2_integral(x)) == 0
    assert kok(x, 0) == elementary_two(1 + b[1] + 2 * x.nu)
    assert kok(x, 2) == elementary_two(b[1] + b[2] + 2 * x.nu)
    assert kok(x, 4) == Z2
    assert kok(x, 6) == TRIVIAL


def test_kok_ruled():
    for g in (0, 2):
        x = ruled_surface(g)
        assert kok(x, 0) == elementary_two(1 + 2 * g)
        assert kok(x, 2) == elementary_two(1 + 2 * g)
        assert kok(x, 4) == TRIVIAL


@pytest.mark.parametrize("space", SURFACES + CURVES + [make_point()], ids=str)
def test_kok_exponent_two_and_top_vanishing(space):
    for shift in (0, 2, 4, 6):
        g = kok(space, shift)
        assert g.free_rank == 0 and g.divisible_rank == 0
        assert all(d == 2 for d in g.torsion)
    assert kok(space, 6) == TRIVIAL
    assert kok(space, -2) == kok(space, 6)
    assert kok(space, 10) == kok(space, 2)


@pytest.mark.parametrize("space", SURFACES, ids=str)
def test_kok4_vanishes_iff_sq2z_onto(space):
    onto = f2_rank(sq2_integral(space)) == 1
    assert (kok(space, 4) == TRIVIAL) == onto


def test_kok_twist_errors():
    with pytest.raises(UnsupportedTwist):
        kok(p2_surface(), 0, "O(p)")
    with pytest.raises(NoSuchTwist):
        kok(make_point(), 0, "O(p)")
    with pytest.raises(NoSuchTwist):
        kok(make_curve(False, 1, 1), 0, "O(p)")
    with pytest.raises(NoSuchTwist):
        kok(make_curve(True, 1), 0, "O(3p)")
    with pytest.raises(DegreeOutOfRange):
        kok(make_curve(True, 1), 1)


def test_kok_reduced_conventions():
    c = make_curve(True, 2)
    assert direct_sum(kok_reduced(c, 0), Z2) == kok(c, 0)
    assert kok_reduced(c, 0, "O(p)") == kok(c, 0, "O(p)")
    assert kok_reduced(c, 2) == kok(c, 2)
    assert kok_reduced(make_point(), 0) == TRIVIAL
    for space in SURFACES:
        assert direct_sum(kok_reduced(space, 0), Z2) == kok(space, 0)


@pytest.mark.parametrize("space", SURFACES, ids=str)
def test_kok0_reduced_rank_two_ways(space):
    b = betti(space)
    h2_mod2_dim = len(space.pi2)
    route_b = (b[1] + space.nu) + (h2_mod2_dim - f2_rank(space.pi2))
    assert mod2_rank(kok_reduced(space, 0)) == route_b


# ---------------------------------------------------------------------------
# complex K side


def test_k_top_graded():
    assert k_top_graded(p2_surface()) == (Z, Z, Z)
    assert k_top_graded(make_point()) == (Z, TRIVIAL, TRIVIAL)
    assert k_top_graded(make_curve(True, 3)) == (Z, Z, TRIVIAL)
    assert k_top_graded(make_curve(False, 3, 1)) == (Z, TRIVIAL, TRIVIAL)
    assert k_top_graded(enriques_surface()) == (Z, SymGroup(10, (2,), 0), Z)


def test_k1_two_torsion():
    assert k1_two_torsion(enriques_surface()) == Z2
    assert k1_two_torsion(p2_surface()) == TRIVIAL
    assert k1_two_torsion(k3_surface(20)) == TRIVIAL
    assert k1_two_torsion(make_curve(True, 4)) == TRIVIAL
    assert k1_two_torsion(ruled_surface(2)) == TRIVIAL


# ---------------------------------------------------------------------------
# eta lemma and mod-2 ranks


def thom_space_of_odd_bundle(g):
    """The Thom space of an odd-degree line bundle on a genus-g curve: cells
    in dimensions 0, 2, 3 (2g of them) and 4. By Wu's formula Sq2 u = w2(L) u
    for the Thom class u, and w2(L) = deg L mod 2 is the top class."""
    return make_surface(False, [Z, TRIVIAL, Z, free(2 * g), Z], 0, 1, 1, [[1]], [[1]])


def test_twisted_curve_kok_is_the_reduced_kok_of_the_thom_space():
    # KO^n(C; L) = reduced KO^(n+2)(Th L); ahss_ko and eta_iso_check read the
    # Thom space off its own page, independently of the twisted curve row, and
    # so does pardon_stable for W^i(C; L) = reduced W^(i+1)(Th L)
    for g in range(61):
        thom = thom_space_of_odd_bundle(g)
        assert not ahss_ko(thom).unknown_degrees, g
        assert eta_iso_check(thom), g
        curve = make_curve(True, g)
        # the model the twisted rows read equals the one make_surface validates
        assert thom_space(curve) == thom, g
        rep = pardon_stable(thom)
        for i in range(4):
            assert kok_reduced(thom, 2 * i + 2) == kok(curve, 2 * i, "O(p)"), (g, i)
            column = rep.resolved_group((i + 1) % 4)
            assert column == direct_sum(w(curve, i, "O(p)"), w_point(i + 1)), (g, i)


@pytest.mark.parametrize(
    "space", CURVES + SURFACES + [make_point()], ids=str)
def test_eta_iso_check(space):
    expected = k1_two_torsion(space).is_trivial
    assert eta_iso_check(space) == expected


def test_eta_obstructed_only_for_enriques_here():
    flags = [eta_iso_check(s) for s in SURFACES]
    assert flags.count(False) == 1
    assert not eta_iso_check(enriques_surface())


def test_mod2_ranks_curve():
    r = mod2_ranks(make_curve(True, 1))
    assert r.w == (4, 1, 0, 3)
    assert r.kok == r.w
    assert r.k0_order_log2 == 2
    assert r.k1_two_rank == 0 and r.signal is None


def test_mod2_ranks_point_and_p2():
    assert mod2_ranks(make_point()).w == (1, 0, 0, 1)
    assert mod2_ranks(make_point()).k0_order_log2 == 1
    r = mod2_ranks(p2_surface())
    assert r.w == (1, 0, 0, 1)
    assert r.kok == (1, 0, 0, 1)
    assert r.k0_order_log2 == 3


def test_mod2_ranks_obstructed():
    r = mod2_ranks(enriques_surface())
    assert r.w is None and r.kok is None
    assert r.signal == "eta-obstructed"
    assert r.k1_two_rank == 1
    # K-row still emitted: gr K0 contributes 12 free + one Z/2, Bockstein
    # adds the K1 two-torsion
    assert r.k0_order_log2 == 14


def test_mod2_ranks_w_matches_kok_when_pic_onto():
    for space in SURFACES:
        if space.kind == "surface" and space.rho != betti(space)[2]:
            continue
        r = mod2_ranks(space)
        if r.w is not None:
            assert r.w == r.kok


def test_ql_hermitian_verdict():
    assert ql_hermitian_verdict(make_curve(True, 3)).verdict
    assert ql_hermitian_verdict(make_curve(False, 1, 2)).verdict
    assert ql_hermitian_verdict(make_point()).verdict
    assert ql_hermitian_verdict(p2_surface()).verdict
    assert ql_hermitian_verdict(ruled_surface(2)).verdict

    enriques = ql_hermitian_verdict(enriques_surface())
    assert not enriques.verdict
    assert enriques.pic_surjective and enriques.k1_two_rank == 1
    assert enriques.shifts_checked == ()

    k3 = ql_hermitian_verdict(k3_surface(20))
    assert not k3.verdict
    assert not k3.pic_surjective and k3.k1_two_rank == 0


# ---------------------------------------------------------------------------
# AHSS engine as oracle


def _piece_profile(pieces):
    frees = 0
    torsion = []
    for g in pieces:
        assert g.divisible_rank == 0
        frees += g.free_rank
        torsion.extend(g.torsion)
    return frees, tuple(sorted(torsion))


@pytest.mark.parametrize("c", CURVES, ids=str)
def test_ahss_ko_reproduces_curve_table(c):
    rep = ahss_ko(c)
    assert not rep.unknown_degrees
    for d in range(8):
        table = ko_curve(c, d)
        assert _piece_profile(rep.pieces(KO_READ[d])) == (
            table.free_rank, tuple(sorted(table.torsion)))


def test_ahss_ko_reproduces_point_table():
    rep = ahss_ko(make_point())
    for d in range(8):
        table = ko_point(d)
        assert _piece_profile(rep.pieces(KO_READ[d])) == (
            table.free_rank, tuple(sorted(table.torsion)))


@pytest.mark.parametrize(
    "space", CURVES + SURFACES + [make_point()], ids=str)
def test_ahss_k_collapses_onto_graded_k(space):
    rep = ahss_k(space)
    assert not rep.unknown_degrees
    even = tuple(g for g in k_top_graded(space) if not g.is_trivial)
    assert rep.pieces(0) == even
    odd = tuple(
        g for g in (
            _h_int(space, 1), _h_int(space, 3)) if not g.is_trivial)
    assert rep.pieces(1) == odd


def _h_int(space, degree):
    from wittkit.spaces import singular_h
    if degree > 2 * space.dim:
        return TRIVIAL
    return singular_h(space, degree, "integral")


def test_ahss_ko_taint_matches_fundamental_group_data():
    # the undetermined page-3 arrow needs H^1(Z/2) and H^4(Z/2) both nonzero
    assert not ahss_ko(p2_surface()).unknown_degrees
    assert not ahss_ko(k3_surface(20)).unknown_degrees
    tainted = ahss_ko(abelian_like_surface()).unknown_degrees
    assert 1 in tainted and 2 in tainted
    assert -5 not in tainted and -3 not in tainted and -1 not in tainted


# ---------------------------------------------------------------------------
# assembled table and payload


def test_ko_table_payload_curve():
    payload = topko_json_payload(ko_table(make_curve(True, 0)))
    assert list(payload) == ["KO", "K0_gr", "KOK"]
    assert payload["KO"] == ["Z + Z/2", "Z/2", "Z", "0", "Z", "0", "Z + Z/2", "Z/2"]
    assert payload["K0_gr"] == ["Z", "Z", "0"]
    assert payload["KOK"] == ["Z/2", "Z/2", "0", "0"]


def test_ko_table_payload_twisted_and_surface():
    twisted = topko_json_payload(ko_table(make_curve(True, 1), "O(p)"))
    assert twisted["KO"] == [None] * 8
    assert twisted["KOK"] == ["Z/2 + Z/2", "0", "0", "0"]

    surf = topko_json_payload(ko_table(enriques_surface()))
    assert surf["KO"] == [None] * 8
    assert surf["K0_gr"] == ["Z", "Z^10 + Z/2", "Z"]
    assert surf["KOK"][2] == "Z/2"


def test_ko_table_point():
    t = ko_table(make_point())
    assert isinstance(t, KoTable)
    assert t.ko == (Z, TRIVIAL, TRIVIAL, TRIVIAL, Z, TRIVIAL, Z2, Z2)
    assert t.ko_reduced == (TRIVIAL,) * 8
    assert t.kok == (Z2, TRIVIAL, TRIVIAL, TRIVIAL)
    assert t.kok_reduced == (TRIVIAL,) * 4


def test_ko_table_twist_errors():
    with pytest.raises(UnsupportedTwist):
        ko_table(p2_surface(), "O(p)")
    with pytest.raises(NoSuchTwist):
        ko_table(make_point(), "O(p)")


def test_eta_identifies_two_torsion_across_the_table():
    # KOK^{2i} = KO^{2i-1}[2], read straight off the frozen tables
    for c in CURVES:
        for i in range(4):
            assert kok(c, 2 * i) == two_torsion(ko_curve(c, (2 * i - 1) % 8))
