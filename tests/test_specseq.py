"""Engine behavior checked against brute-force F2 chain homology, plus the
frozen page data of the standard examples."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    ruled_surface,
)
from test_generated_surfaces import open_surfaces, projective_surfaces
from test_kernel_rows import count_calls, reference_f2_mul
from test_space_rows import parent_map_from_f2
from wittkit.catalog import catalog_get, catalog_instances
from wittkit.errors import MalformedPage, UnsupportedDivisibleMap
from wittkit import specseq
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    GroupMap,
    SymGroup,
    composite_is_zero,
    cyclic,
    direct_sum,
    divisible,
    elementary_two,
    free,
    homology_at,
    is_elementary_two,
    mod2_generators,
    mod2_rank,
    zero_map,
)
from wittkit.spaces import (
    INTEGRAL,
    MOD2,
    make_curve,
    make_point,
    singular_h,
)
from wittkit.specseq import (
    COHOMOLOGICAL,
    DEFAULT_REGION,
    PARDON,
    BigradedPage,
    EInfinityReport,
    _K_KNOWN_ZERO,
    _KO_KNOWN_ZERO,
    _map_from_f2,
    _total_degree,
    ahss_k,
    ahss_k_page,
    ahss_ko,
    ahss_ko_page,
    bidegree,
    dump_page,
    pardon_e2,
    pardon_stable,
    run_to_stable,
    turn_page,
)

# ---------------------------------------------------------------------------
# brute-force oracle over F2


def f2_kernel_dim(m, cols):
    hits = 0
    for bits in range(2 ** cols):
        v = [(bits >> j) & 1 for j in range(cols)]
        if all(sum(r * x for r, x in zip(row, v)) % 2 == 0 for row in m):
            hits += 1
    return hits.bit_length() - 1


def left_kernel_rows(m, rows, cols):
    # all w with w.m = 0, as candidate next differentials
    out = []
    for bits in range(2 ** rows):
        w = [(bits >> i) & 1 for i in range(rows)]
        if all(sum(w[i] * m[i][j] for i in range(rows)) % 2 == 0 for j in range(cols)):
            out.append(tuple(w))
    return out


def test_two_term_f2_homology_against_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 3)
        m = tuple(tuple(rng.randint(0, 1) for _ in range(a)) for _ in range(b))
        pool = left_kernel_rows(m, b, a)
        n = tuple(rng.choice(pool) for _ in range(c))
        A, B, C = elementary_two(a), elementary_two(b), elementary_two(c)
        diffs = {}
        if a:
            diffs[(0, 0)] = GroupMap(A, B, m)
        if c:
            diffs[(2, -1)] = GroupMap(B, C, n)
        page = BigradedPage(
            entries={(0, 0): A, (2, -1): B, (4, -2): C},
            r=2,
            convention=COHOMOLOGICAL,
            differentials=diffs,
        )
        nxt = turn_page(page)
        rank_m = a - f2_kernel_dim(m, a)
        rank_n = b - f2_kernel_dim(n, b)
        assert nxt.group_at(0, 0) == elementary_two(a - rank_m)
        assert nxt.group_at(2, -1) == elementary_two((b - rank_n) - rank_m)
        assert nxt.group_at(4, -2) == elementary_two(c - rank_n)


def test_noncomposable_differentials_rejected():
    A = elementary_two(1)
    with pytest.raises(MalformedPage):
        BigradedPage(
            entries={(0, 0): A, (2, -1): A, (4, -2): A},
            r=2,
            convention=COHOMOLOGICAL,
            differentials={
                (0, 0): GroupMap(A, A, ((1,),)),
                (2, -1): GroupMap(A, A, ((1,),)),
            },
        )


def test_page_validation():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z}, r=2, convention="diagonal")
    with pytest.raises(MalformedPage):
        BigradedPage(
            entries={(0, 0): Z},
            r=2,
            convention=COHOMOLOGICAL,
            differentials={(0, 0): zero_map(Z, Z)},  # target position empty
        )
    with pytest.raises(MalformedPage):
        BigradedPage(
            entries={(0, 0): Z, (2, -1): Z2},
            r=2,
            convention=COHOMOLOGICAL,
            differentials={(2, -1): zero_map(Z2, Z2)},  # leaves toward nothing
        )
    with pytest.raises(MalformedPage):
        BigradedPage(
            entries={(0, 0): Z, (2, -1): Z2},
            r=2,
            convention=COHOMOLOGICAL,
            differentials={(0, 0): zero_map(Z2, Z2)},  # wrong domain
        )
    from wittkit.groups import divisible

    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): divisible(2)}, r=2, convention=PARDON)
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): "Z"}, r=2, convention=COHOMOLOGICAL)


# Malformed pages a user can hand in: each is refused with MalformedPage, not
# accepted or left to fail later with a bare TypeError or AttributeError.


def test_page_refuses_a_position_that_is_not_integral():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={("a", 1): Z}, r=2, convention=COHOMOLOGICAL)


def test_page_refuses_a_fractional_position():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0.5, 1): Z}, r=2, convention=COHOMOLOGICAL)


def test_page_refuses_a_string_index():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z}, r="2", convention=COHOMOLOGICAL)


def test_page_refuses_a_boolean_index():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z}, r=True, convention=COHOMOLOGICAL)


def test_page_refuses_a_negative_index():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z}, r=-20, convention=COHOMOLOGICAL)
    assert BigradedPage(entries={(0, 0): Z}, r=0, convention=COHOMOLOGICAL).r == 0


def test_page_refuses_a_differential_that_is_not_a_map():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z, (2, -1): Z2}, r=2, convention=COHOMOLOGICAL,
                     differentials={(0, 0): ((1,),)})


def test_page_refuses_a_differential_key_that_is_not_a_position():
    with pytest.raises(MalformedPage):
        BigradedPage(entries={(0, 0): Z, (2, -1): Z2}, r=2, convention=COHOMOLOGICAL,
                     differentials={5: zero_map(Z, Z2)})


def test_a_checked_page_cannot_be_changed_in_place():
    # the FOUND case: zero d2's, then replaced by maps whose composite is not
    # zero, which turn_page would trust; every page is read-only instead
    A = elementary_two(2)
    entries = {(0, 0): A, (2, -1): A, (4, -2): A}
    zeros = {(0, 0): zero_map(A, A), (2, -1): zero_map(A, A)}
    page = BigradedPage(entries=entries, r=2, convention=COHOMOLOGICAL, differentials=zeros)
    for view in (page.entries, page.differentials):
        with pytest.raises(TypeError):
            view[(0, 0)] = GroupMap(A, A, ((1, 0), (0, 1)))
    with pytest.raises(TypeError):
        del page.entries[(0, 0)]
    nxt = turn_page(page)
    for view in (nxt.entries, nxt.differentials):
        with pytest.raises(TypeError):
            view[(0, 0)] = A
    # the caller's dicts are copied, and equality reads the contents
    entries[(0, 0)] = Z
    assert page.group_at(0, 0) == A
    assert page == BigradedPage(entries=dict(page.entries), r=2, convention=COHOMOLOGICAL,
                                differentials=dict(zeros))
    assert page != dataclasses.replace(page, differentials={})
    assert nxt == BigradedPage(entries={(0, 0): A, (2, -1): A, (4, -2): A}, r=3,
                               convention=COHOMOLOGICAL)
    assert dataclasses.replace(page) == page


def test_page_check_multiplies_no_zero_map(monkeypatch):
    # a zero map composes to zero, so only pairs of nonzero maps are multiplied
    calls = []
    core = specseq.composite_is_zero
    monkeypatch.setattr(specseq, "composite_is_zero",
                        lambda f, g: calls.append(None) or core(f, g))
    A = elementary_two(1)
    one = GroupMap(A, A, ((1,),))
    for first, second, products in ((zero_map(A, A), one, 0), (one, zero_map(A, A), 0),
                                     (zero_map(A, A), zero_map(A, A), 0)):
        calls.clear()
        BigradedPage(entries={(0, 0): A, (2, -1): A, (4, -2): A}, r=2,
                     convention=COHOMOLOGICAL,
                     differentials={(0, 0): first, (2, -1): second})
        assert len(calls) == products
    for name in ("k3?rho=10", "enriques", "p2"):
        calls.clear()
        ahss_ko_page(catalog_get(name).descriptor)
        assert calls == [], name


def test_trivial_entries_dropped_and_zero_page_turns_to_itself():
    page = BigradedPage(
        entries={(0, 0): Z, (1, 1): TRIVIAL, (2, 0): free(3)},
        r=2,
        convention=COHOMOLOGICAL,
    )
    assert (1, 1) not in page.entries
    assert turn_page(page).entries == page.entries


def test_bidegree_conventions():
    assert bidegree(COHOMOLOGICAL, 2) == (2, -1)
    assert bidegree(COHOMOLOGICAL, 3) == (3, -2)
    assert bidegree(PARDON, 2) == (1, 1)
    assert bidegree(PARDON, 3) == (1, 2)


def test_kernel_of_integral_to_f2_surjection():
    # d2 out of a rank-one free entry: kernel is 2Z, still free of rank one
    page = ahss_ko_page(p2_surface())
    nxt = turn_page(page)
    assert nxt.group_at(2, 0) == Z
    assert nxt.group_at(4, -1) == TRIVIAL
    assert nxt.group_at(2, -1) == TRIVIAL
    assert nxt.group_at(4, -2) == TRIVIAL


def test_turn_page_rejects_maps_with_divisible_behavior():
    # a differential touching a divisible entry cannot be built, and a map
    # has no setting that would let one through
    with pytest.raises(UnsupportedDivisibleMap):
        zero_map(Z2, direct_sum(Z2, divisible(1)))
    with pytest.raises(TypeError):
        zero_map(Z2, Z2, divisible_behavior="zero")


# ---------------------------------------------------------------------------
# run_to_stable plumbing


def test_empty_page_gives_empty_report():
    page = BigradedPage(entries={}, r=2, convention=COHOMOLOGICAL)
    report = run_to_stable(page)
    assert report.entries == {}
    assert report.degrees == {}
    assert report.resolved_group(0) == TRIVIAL


def test_region_violation_rejected():
    page = BigradedPage(entries={(9, 9): Z}, r=2, convention=COHOMOLOGICAL)
    with pytest.raises(MalformedPage):
        run_to_stable(page)


def test_filtration_order_and_pieces():
    rep = ahss_ko(make_curve(True, 2))
    triples = rep.degrees[0]
    assert [(s, t) for s, t, _ in triples] == [(0, 0), (1, -1), (2, -2)]
    assert rep.pieces(0) == (Z, elementary_two(4), Z2)
    assert rep.extension_resolved[0] is False
    assert rep.resolved_group(0) is None


def test_exponent_two_assembly():
    rep = pardon_stable(make_curve(True, 1))
    assert rep.pieces(0) == (Z2, elementary_two(2))
    assert rep.resolved_group(0) == elementary_two(3)
    assert rep.resolved_group(1) == Z2
    assert rep.resolved_group(2) == TRIVIAL
    plain = run_to_stable(
        pardon_e2(make_curve(True, 1)), ((0, 2), (0, 2)),
        known_zero={3: frozenset({(0, 0)})},
    )
    assert plain.resolved_group(0) is None  # extensions not declared split


# ---------------------------------------------------------------------------
# Pardon pages


def test_pardon_p2_page_and_collapse():
    page = pardon_e2(p2_surface())
    assert page.entries == {(0, 0): Z2, (1, 1): Z2, (2, 2): Z2}
    assert page.differentials[(1, 1)].matrix == ((1,),)
    nxt = turn_page(page)
    assert nxt.group_at(1, 1) == TRIVIAL
    assert nxt.group_at(2, 2) == TRIVIAL
    assert nxt.group_at(0, 0) == Z2


def test_pardon_p1():
    page = pardon_e2(make_curve(True, 0))
    assert page.entries == {(0, 0): Z2, (1, 1): Z2}
    rep = pardon_stable(make_curve(True, 0))
    assert rep.resolved_group(0) == Z2
    assert rep.resolved_group(1) == Z2


def test_pardon_projective_curves():
    for g in range(4):
        rep = pardon_stable(make_curve(True, g))
        assert rep.pieces(0) == ((Z2, elementary_two(2 * g)) if g else (Z2,))
        assert rep.resolved_group(1) == Z2
        assert rep.resolved_group(2) == TRIVIAL
        assert rep.resolved_group(3) == TRIVIAL


def test_pardon_affine_curves():
    rep = pardon_stable(make_curve(False, 1, 2))
    assert rep.resolved_group(0) == elementary_two(4)  # unit plus H^1
    assert rep.resolved_group(1) == TRIVIAL


def test_pardon_point():
    rep = pardon_stable(make_point())
    assert rep.resolved_group(0) == Z2
    assert rep.resolved_group(1) == TRIVIAL


def test_pardon_enriques_entries():
    page = pardon_e2(enriques_surface())
    assert page.entries[(0, 1)] == Z2
    assert page.entries[(1, 1)] == elementary_two(11)
    assert page.entries[(0, 2)] == Z2
    assert page.entries[(1, 2)] == Z2
    assert page.entries[(2, 2)] == Z2
    # s1 defaults to zero here, so everything survives
    rep = pardon_stable(enriques_surface())
    assert rep.resolved_group(0) == elementary_two(3)
    assert rep.resolved_group(1) == elementary_two(12)
    assert rep.resolved_group(2) == Z2


def test_pardon_k3():
    rep = pardon_stable(k3_surface(20))
    assert rep.resolved_group(0) == elementary_two(3)  # 1 + (22 - 20)
    assert rep.resolved_group(1) == elementary_two(20)
    assert rep.resolved_group(2) == Z2


# ---------------------------------------------------------------------------
# Atiyah-Hirzebruch pages


def test_ko_point_pattern():
    rep = ahss_ko(make_point())
    want = [Z, Z2, Z2, TRIVIAL, Z, TRIVIAL, TRIVIAL, TRIVIAL]
    got = [rep.resolved_group(-d) for d in range(8)]
    assert got == want


def test_ko_curve_degrees():
    rep = ahss_ko(make_curve(True, 2))
    assert rep.pieces(1) == (free(4), Z2)
    assert rep.pieces(2) == (Z,)
    assert rep.pieces(-3) == (free(4),)
    assert rep.pieces(-2) == (Z2, Z)
    assert rep.pieces(-1) == (Z2, elementary_two(4))
    assert rep.unknown_degrees == frozenset()


def test_ko_affine_curve_degrees():
    rep = ahss_ko(make_curve(False, 1, 2))  # wedge of three circles
    assert rep.pieces(0) == (Z, elementary_two(3))
    assert rep.pieces(1) == (free(3),)
    assert rep.pieces(2) == ()
    assert rep.pieces(-2) == (Z2,)
    assert rep.pieces(-1) == (Z2, elementary_two(3))


def test_ko_p2_no_unknowns():
    rep = ahss_ko(p2_surface())
    assert rep.unknown_degrees == frozenset()
    assert rep.pieces(0) == (Z, Z2, Z)
    assert rep.pieces(1) == ()
    assert rep.pieces(2) == (Z,)


def test_ko_enriques():
    rep = ahss_ko(enriques_surface())
    assert rep.unknown_degrees == frozenset()
    # the (2,-2) entry has no outgoing arrow (row -3 vanishes): all 12 survive
    assert rep.pieces(0) == (Z, Z2, elementary_two(12), Z)
    # the rank-one Sq2 cuts the (2,-1) entry down to 11; H^3(Z/2) joins it
    assert rep.pieces(1) == (elementary_two(11), Z2)
    # H^4(Z/2) is killed by the image of Sq2
    assert rep.pieces(-1) == (Z2, Z2, Z2)


def test_ko_unknown_differential_marks_degrees():
    rep = ahss_ko(abelian_like_surface())
    assert (3, (1, 0), (4, -2)) in rep.unknown_arrows
    assert (3, (1, -8), (4, -10)) in rep.unknown_arrows
    assert {1, 2} <= set(rep.unknown_degrees)
    assert rep.resolved_group(1) is None
    assert rep.resolved_group(2) is None
    # degree 0 stays readable
    assert rep.resolved_group(0) is None  # mixed pieces, but not unknown
    assert 0 not in rep.unknown_degrees


def test_ko_ruled_surface_kills_unknown_target():
    # Sq2 is onto H^4(Z/2) here, so the page-3 source has nothing to hit
    rep = ahss_ko(ruled_surface(2))
    assert rep.unknown_degrees == frozenset()


def test_k_collapse_and_reading():
    for space in (p2_surface(), enriques_surface(), make_curve(True, 3)):
        page = ahss_k_page(space)
        rep = ahss_k(space)
        assert rep.entries == page.entries
        assert rep.unknown_degrees == frozenset()
    rep = ahss_k(p2_surface())
    assert rep.pieces(0) == (Z, Z, Z)
    assert rep.pieces(1) == ()
    rep = ahss_k(enriques_surface())
    from wittkit.groups import SymGroup

    assert rep.pieces(0) == (Z, SymGroup(10, (2,), 0), Z)
    assert rep.pieces(1) == (Z2,)


# ---------------------------------------------------------------------------
# invariants


def test_total_f2_dimension_never_increases():
    for space in (p2_surface(), enriques_surface(), k3_surface(3),
                  ruled_surface(1), make_curve(True, 2)):
        page = ahss_ko_page(space)
        for _ in range(4):
            nxt = turn_page(page)
            for pos, grp in nxt.entries.items():
                assert mod2_rank(grp) <= mod2_rank(page.entries[pos])
            page = nxt


def test_stable_entries_idempotent():
    page = ahss_ko_page(enriques_surface())
    rep = ahss_ko(enriques_surface())
    for _ in range(6):
        page = turn_page(page)
    assert page.entries == rep.entries
    assert turn_page(page).entries == rep.entries


def test_dump_format():
    text = dump_page(pardon_e2(p2_surface()))
    assert text == (
        "E_2[0,0] = Z/2\n"
        "E_2[1,1] = Z/2\n"
        "E_2[2,2] = Z/2\n"
        "d_2[0,0→1,1] = [0]\n"
        "d_2[1,1→2,2] = [1]"
    )
    assert dump_page(pardon_e2(p2_surface())) == text


# Smith normal forms per engine run, counted at groups._smith: turn_page reads
# the homology at an elementary 2-group entry off the F2 ranks of its maps,
# each ranked once, and on these surfaces every other entry with a d2 is a
# kernel from a free group into a finite one that homology_at reads without
# an elimination, so no engine run eliminates at all.
ELIMINATIONS_ENGINES = (
    ("enriques", (0, 0, 0)),
    ("k3?rho=10", (0, 0, 0)),
    ("ruled?g=2", (0, 0, 0)),
    ("p2", (0, 0, 0)),
    ("blowup_p2", (0, 0, 0)),
    ("ruled?g=7", (0, 0, 0)),
)


@pytest.mark.parametrize("name, most", ELIMINATIONS_ENGINES,
                         ids=[row[0] for row in ELIMINATIONS_ENGINES])
def test_engine_elimination_count_does_not_grow(eliminations, name, most):
    space = catalog_get(name).descriptor
    counts = []
    for engine in (pardon_stable, ahss_ko, ahss_k):
        eliminations.clear()
        engine(space)
        counts.append(len(eliminations))
    assert all(n <= m for n, m in zip(counts, most)), (name, counts)


# F2 echelons per engine call (ahss_ko, pardon_stable, ahss_k), counted at
# groups._f2_echelon: turning a page ranks each differential into an
# elementary 2-group once, and a zero one not at all. Sq2 vanishes on a K3
# and its integral part on an Enriques surface, so their KO pages rank
# nothing or only the two Sq2 maps; p2 and the others rank their four d2's
# once each. The Pardon page reads the rank of c1 at (0, 2) as rho + nu and
# ranks only its d2, s1, which is zero on a K3 and an Enriques surface.
ECHELONS_ENGINES = (
    ("k3?rho=10", (0, 0, 0)),
    ("enriques", (2, 0, 0)),
    ("p2", (4, 1, 0)),
    ("ruled?g=7", (4, 1, 0)),
    ("blowup_p2", (4, 1, 0)),
)


@pytest.mark.parametrize("name, most", ECHELONS_ENGINES,
                         ids=[row[0] for row in ECHELONS_ENGINES])
def test_engine_echelon_count_does_not_grow(f2_echelons, name, most):
    space = catalog_get(name).descriptor
    counts = []
    for engine in (ahss_ko, pardon_stable, ahss_k):
        f2_echelons.clear()
        engine(space)
        counts.append(len(f2_echelons))
    assert all(n <= m for n, m in zip(counts, most)), (name, counts)


@pytest.mark.parametrize("name", [row[0] for row in ECHELONS_ENGINES])
def test_ahss_page_builds_each_group_once(monkeypatch, name):
    # one singular_h per degree and coefficient, not one per (p, q) cell
    space = catalog_get(name).descriptor
    calls = []
    core = specseq.singular_h

    def counted(space, degree, coefficients):
        calls.append((degree, coefficients))
        return core(space, degree, coefficients)

    monkeypatch.setattr(specseq, "singular_h", counted)
    for build, coefficients in ((ahss_ko_page, 2), (ahss_k_page, 1)):
        calls.clear()
        build(space)
        assert sorted(calls) == sorted(set(calls)), name
        assert len(calls) == coefficients * (2 * space.dim + 1), name


# ---------------------------------------------------------------------------
# the Atiyah-Hirzebruch pages against their hand-written rows

# The two page builders as they stood before both were read off the point's
# KO and K tables, copied verbatim (only renamed), except that the KO page
# lifts its d2 with ``parent_map_from_f2`` and composes Sq2 with pi2 by
# ``reference_f2_mul``, so it shares neither with the package. The shared
# builder must give the same entries in the same order, the same
# differentials and the same dump, and the engines the same reports.

# KO coefficient rows inside one Bott window: q = 0, -4, -8 carry H^p(Z),
# q = -1, -2, -9, -10 carry H^p(Z/2), the rest vanish
_KO_Z_ROWS = (0, -4, -8)
_KO_F2_ROWS = (-1, -2, -9, -10)


def reference_ahss_ko_page(space) -> BigradedPage:
    """KO-theory E2-page with d2 installed.

    d2 is Sq2 composed with mod-2 reduction on the H^p(Z) rows and Sq2 itself
    on the H^p(Z/2) rows; both vanish on classes of degree below 2, so the
    only nonzero matrices occur at p = 2 (surfaces).
    """
    p_max = 2 * space.dim
    entries = {}
    for q in _KO_Z_ROWS:
        for p in range(p_max + 1):
            entries[(p, q)] = singular_h(space, p, INTEGRAL)
    for q in _KO_F2_ROWS:
        for p in range(p_max + 1):
            entries[(p, q)] = singular_h(space, p, MOD2)
    entries = {pos: g for pos, g in entries.items() if not g.is_trivial}

    diffs = {}
    for q_src in (0, -1, -8, -9):
        for p in range(p_max - 1):
            src, tgt = (p, q_src), (p + 2, q_src - 1)
            if src not in entries or tgt not in entries:
                continue
            if p < 2:
                diffs[src] = zero_map(entries[src], entries[tgt])
            elif q_src in (0, -8):
                diffs[src] = parent_map_from_f2(entries[src], entries[tgt],
                                                reference_f2_mul(space.sq2, space.pi2))
            else:
                diffs[src] = parent_map_from_f2(entries[src], entries[tgt], space.sq2)
    return BigradedPage(entries=entries, r=2, convention=COHOMOLOGICAL,
                        differentials=diffs)


def reference_ahss_k_page(space) -> BigradedPage:
    """K-theory E2-page: H^p(Z) in even rows, no differentials to install.

    d2 lands in odd rows and vanishes; d3 vanishes on degree <= 1 classes and
    its p = 2 source would land beyond the dimension, so the page collapses.
    """
    p_max = 2 * space.dim
    entries = {}
    for q in (0, -2, -4):
        for p in range(p_max + 1):
            entries[(p, q)] = singular_h(space, p, INTEGRAL)
    entries = {pos: g for pos, g in entries.items() if not g.is_trivial}
    return BigradedPage(entries=entries, r=2, convention=COHOMOLOGICAL)


AHSS_ENGINES = (
    (ahss_ko_page, ahss_ko, reference_ahss_ko_page, -10, _KO_KNOWN_ZERO),
    (ahss_k_page, ahss_k, reference_ahss_k_page, -4, _K_KNOWN_ZERO),
)


def assert_ahss_matches_reference(space):
    p_max = 2 * space.dim
    for build, engine, reference, q_lo, known_zero in AHSS_ENGINES:
        page, ref = build(space), reference(space)
        assert list(page.entries.items()) == list(ref.entries.items())
        assert page.differentials == ref.differentials
        assert (page.r, page.convention) == (ref.r, ref.convention)
        assert dump_page(page) == dump_page(ref)
        rep = engine(space)
        ref_rep = run_to_stable(ref, ((0, p_max), (q_lo, 0)),
                                known_zero=known_zero)
        for f in dataclasses.fields(EInfinityReport):
            assert getattr(rep, f.name) == getattr(ref_rep, f.name), f.name
        assert list(rep.entries) == list(ref_rep.entries)


REFERENCE_SPACES = (
    [("catalog:" + name, lambda name=name: catalog_get(name).descriptor)
     for name in catalog_instances()]
    + [("p2", p2_surface), ("blowup_p2", blowup_p2_surface),
       ("enriques", enriques_surface), ("abelian_like", abelian_like_surface)]
    + [("k3:%d" % rho, lambda rho=rho: k3_surface(rho)) for rho in (0, 1, 10, 20)]
    + [("ruled:%d" % g, lambda g=g: ruled_surface(g)) for g in (0, 1, 2, 5)]
    + [("curve:%d" % g, lambda g=g: make_curve(True, g)) for g in range(9)]
    + [("affine:%d,%d" % (g, n), lambda g=g, n=n: make_curve(False, g, n))
       for g in range(4) for n in range(1, 4)]
    + [("point", make_point)]
)


@pytest.mark.parametrize("make", [row[1] for row in REFERENCE_SPACES],
                         ids=[row[0] for row in REFERENCE_SPACES])
def test_ahss_pages_match_reference(make):
    assert_ahss_matches_reference(make())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projective_surfaces())
def test_ahss_pages_match_reference_on_generated_surfaces(drawn):
    assert_ahss_matches_reference(drawn[0])


# ---------------------------------------------------------------------------
# builder pages by construction

# The builders' differentials are zero maps and F2 lifts into elementary
# 2-groups, valid by construction, so they are built with no checked
# GroupMap; the page they form is still checked by BigradedPage.

BUILDERS = (pardon_e2, ahss_ko_page, ahss_k_page)
COUNTED_SURFACES = tuple(
    [name for name in catalog_instances() if catalog_get(name).descriptor.dim == 2]
    + ["ruled?g=8"])


@pytest.mark.parametrize("name", COUNTED_SURFACES)
def test_builder_pages_construct_no_checked_map(checked_maps, name):
    space = catalog_get(name).descriptor
    built = 0
    for build in BUILDERS:
        checked_maps.clear()
        built += len(build(space).differentials)
        assert len(checked_maps) == 0, (name, build.__name__)
    assert built, name  # the pages do install differentials
    GroupMap(Z, Z, ((1,),))  # the counter sees a checked construction
    assert len(checked_maps) == 1


@pytest.mark.parametrize("name", COUNTED_SURFACES)
def test_an_engine_checks_only_its_builder_page(checked_pages, name):
    # the page a builder returns is checked once; turning it, by ranks or by
    # relabelling r, builds every later page from checked entries, unchecked
    space = catalog_get(name).descriptor
    for engine in (pardon_stable, ahss_ko, ahss_k):
        checked_pages.clear()
        assert engine(space).pages_turned >= 2, (name, engine.__name__)
        assert len(checked_pages) == 1, (name, engine.__name__)
    checked_pages.clear()
    # a page a user builds is checked, and a malformed one still refused
    A = elementary_two(1)
    one = GroupMap(A, A, ((1,),))
    with pytest.raises(MalformedPage, match="do not compose to zero"):
        BigradedPage(entries={(0, 0): A, (2, -1): A, (4, -2): A}, r=2,
                     convention=COHOMOLOGICAL, differentials={(0, 0): one, (2, -1): one})
    assert len(checked_pages) == 1


@pytest.mark.parametrize("name", ("ruled?g=8", "enriques", "p2"))
def test_a_page_with_no_differentials_turns_by_relabelling(monkeypatch, name):
    # after d2 the engines' pages have no differentials: the next page keeps
    # the same entries mapping, and no group is built or ranked on the way
    built = []
    core = SymGroup.__post_init__
    for build in BUILDERS:
        page = turn_page(build(catalog_get(name).descriptor))
        with monkeypatch.context() as m:
            m.setattr(SymGroup, "__post_init__", lambda g: built.append(g) or core(g))
            for counted in ("wittkit.groups.from_counts", "wittkit.specseq.homology_at",
                            "wittkit.specseq.f2_rank"):
                m.setattr(counted, lambda *a: built.append(a))
            nxt = turn_page(page)
            last = turn_page(nxt)
        assert built == [], (name, build.__name__)
        assert nxt.entries is page.entries and last.entries is page.entries
        assert (nxt.r, nxt.convention, nxt.differentials) == (4, page.convention, {})
        assert last.r == 5


def assert_pages_equal_checked_rebuilds(space):
    # rebuilt through the checked constructors, every page is the same page;
    # a built map that broke a relation would raise in GroupMap here
    for build in BUILDERS:
        page = build(space)
        checked = {pos: GroupMap(d.domain, d.codomain, d.matrix)
                   for pos, d in page.differentials.items()}
        rebuilt = BigradedPage(entries=dict(page.entries), r=page.r,
                               convention=page.convention, differentials=checked)
        assert page == rebuilt
        assert list(page.entries.items()) == list(rebuilt.entries.items())
        for pos, d in page.differentials.items():
            assert type(d) is GroupMap and d == checked[pos], pos
            assert hash(d) == hash(checked[pos]), pos
            assert type(d.matrix) is tuple and all(
                type(row) is tuple and all(type(x) is int for x in row) for row in d.matrix)
        assert dump_page(page) == dump_page(rebuilt)


@pytest.mark.parametrize("make", [row[1] for row in REFERENCE_SPACES]
                         + [lambda: catalog_get("ruled?g=8").descriptor],
                         ids=[row[0] for row in REFERENCE_SPACES] + ["catalog:ruled?g=8"])
def test_builder_pages_equal_their_checked_rebuilds(make):
    assert_pages_equal_checked_rebuilds(make())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projective_surfaces())
def test_builder_pages_equal_their_checked_rebuilds_on_generated_surfaces(drawn):
    assert_pages_equal_checked_rebuilds(drawn[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(open_surfaces())
def test_builder_pages_equal_their_checked_rebuilds_on_open_surfaces(drawn):
    assert_pages_equal_checked_rebuilds(drawn[0])


def reference_map_from_f2(domain: SymGroup, codomain: SymGroup, rows) -> GroupMap:
    """``_map_from_f2`` as it stood when every lift was a checked ``GroupMap``,
    copied verbatim (only renamed)."""
    src_col = {j: c for c, j in enumerate(mod2_generators(domain))}
    full = tuple([
        tuple([int(rows[i][src_col[j]]) % 2 if j in src_col else 0
               for j in range(domain.ngens)])
        for i in range(codomain.ngens)
    ])
    return GroupMap(domain, codomain, full)


@st.composite
def f2_lift_domains(draw):
    """Free, even-torsion and odd-torsion generators in any mix."""
    chain, d = [], 1
    for _ in range(draw(st.integers(0, 4))):
        d *= draw(st.sampled_from((2, 2, 3, 5)))
        chain.append(d)
    return SymGroup(draw(st.integers(0, 3)), tuple(chain))


def f2_rows(draw, domain, m):
    n = mod2_rank(domain)
    return [draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n)) for _ in range(m)]


def lift_outcome(call, *args):
    try:
        f = call(*args)
    except Exception as exc:  # the type and the message must agree
        return type(exc), str(exc)
    return f, hash(f), repr(f), type(f)


@settings(max_examples=200, deadline=None)
@given(f2_lift_domains(), st.integers(0, 4), st.data())
def test_f2_lift_into_elementary_two_is_the_checked_map(domain, m, data):
    codomain = elementary_two(m)
    rows = f2_rows(data.draw, domain, m)
    assert lift_outcome(_map_from_f2, domain, codomain, rows) == lift_outcome(
        reference_map_from_f2, domain, codomain, rows)


@settings(max_examples=300, deadline=None)
@given(f2_lift_domains(), st.integers(0, 1), st.integers(0, 4), st.data())
def test_f2_lift_matches_the_generator_lookup_on_any_rows(domain, div, m, data):
    # rows too few or too many, each too short or too long, odd-order and
    # divisible domains: the same map, or the same exception and message
    domain = SymGroup(domain.free_rank, domain.torsion, div)
    codomain = elementary_two(m)
    widths = st.sampled_from((mod2_rank(domain), domain.ngens)) | st.integers(0, domain.ngens + 1)
    rows = [data.draw(st.lists(st.integers(-2, 3), min_size=w, max_size=w))
            for w in data.draw(st.lists(widths, min_size=max(m - 1, 0), max_size=m + 1))]
    if data.draw(st.booleans()):
        rows = tuple(map(tuple, rows))
    assert lift_outcome(_map_from_f2, domain, codomain, rows) == lift_outcome(
        parent_map_from_f2, domain, codomain, rows)


def assert_lifts_match_the_generator_lookup(space):
    # every lift a builder asks for, with the rows it passes
    asked = []
    live = specseq._map_from_f2
    with pytest.MonkeyPatch.context() as m:
        m.setattr(specseq, "_map_from_f2", lambda *args: asked.append(args) or live(*args))
        for build in BUILDERS:
            build(space)
    for args in asked:
        assert lift_outcome(live, *args) == lift_outcome(parent_map_from_f2, *args), str(space)
    return asked


def test_lifts_match_the_generator_lookup_on_the_catalog():
    lifted = 0
    for name in catalog_instances():
        lifted += len(assert_lifts_match_the_generator_lookup(catalog_get(name).descriptor))
    assert lifted  # the catalog surfaces lift d2s


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projective_surfaces())
def test_lifts_match_the_generator_lookup_on_generated_surfaces(drawn):
    assert_lifts_match_the_generator_lookup(drawn[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(open_surfaces())
def test_lifts_match_the_generator_lookup_on_open_surfaces(drawn):
    assert_lifts_match_the_generator_lookup(drawn[0])


def test_a_lift_reads_its_rows_mod_2_only_when_they_fit(monkeypatch):
    # H^2(Z) = Z + Z/3 (an odd-order generator, whose column stays zero) and a
    # short row take the generator lookup; full rows on Z^2 are read mod 2
    looked_up = count_calls(monkeypatch, specseq, "mod2_generators")
    for domain, rows, lookups in ((SymGroup(1, (3,)), ((1,),), 1), (free(2), ((3, -2),), 0),
                                  (SymGroup(0, (2, 4)), ((1, 1),), 0), (free(2), ((1,),), 1)):
        looked_up.clear()
        assert lift_outcome(_map_from_f2, domain, Z2, rows) == lift_outcome(
            parent_map_from_f2, domain, Z2, rows)
        assert len(looked_up) == lookups, (domain, rows)
    assert _map_from_f2(SymGroup(1, (3,)), Z2, ((1,),)).matrix == ((1, 0),)
    assert _map_from_f2(free(2), Z2, ((3, -2),)).matrix == ((1, 0),)


# ---------------------------------------------------------------------------
# turning pages against the parent's engine

# turn_page and run_to_stable as they stood before differentials were ranked
# once per page, copied verbatim (only renamed): every entry with a
# differential went through homology_at, and every page was rebuilt and
# checked again. The engine must give the same pages and reports.


def reference_turn_page(page: BigradedPage) -> BigradedPage:
    """Homology at every position; the next page's differentials are zero."""
    ds, dt = bidegree(page.convention, page.r)
    new_entries = {}
    for pos, grp in page.entries.items():
        outgoing = page.differentials.get(pos)
        incoming = page.differentials.get((pos[0] - ds, pos[1] - dt))
        if incoming is None and outgoing is None:
            h = grp
        else:
            h = homology_at(incoming, outgoing)
        if not h.is_trivial:
            new_entries[pos] = h
    return BigradedPage(
        entries=new_entries,
        r=page.r + 1,
        convention=page.convention,
    )


def reference_run_to_stable(
    page: BigradedPage,
    region=DEFAULT_REGION,
    *,
    exponent_two: bool = False,
    known_zero=None,
) -> EInfinityReport:
    """Turn pages until no differential can fit inside the region.

    ``known_zero`` maps a page index to the set of source positions whose
    differential the instantiation has pinned to zero. Any other
    source/target pair of nonzero entries with no installed differential is
    treated as zero but recorded in ``unknown_arrows`` (maps from a finite
    group to a torsion-free one are forced and not recorded). With
    ``exponent_two``, a degree whose pieces are all elementary 2-groups
    counts as resolved.
    """
    (s_lo, s_hi), (t_lo, t_hi) = region
    for (s, t) in page.entries:
        if not (s_lo <= s <= s_hi and t_lo <= t <= t_hi):
            raise MalformedPage("entry at (%d, %d) lies outside the region" % (s, t))
    known_zero = known_zero or {}
    unknown = []
    start = page.r
    while True:
        ds, dt = bidegree(page.convention, page.r)
        if ds > s_hi - s_lo or abs(dt) > t_hi - t_lo:
            break
        declared = known_zero.get(page.r, ())
        for pos, grp in page.entries.items():
            tgt = (pos[0] + ds, pos[1] + dt)
            tgt_grp = page.entries.get(tgt)
            if tgt_grp is None or pos in page.differentials or pos in declared:
                continue
            if grp.free_rank == 0 and not tgt_grp.torsion:
                continue  # finite source, torsion-free target: forced zero
            unknown.append((page.r, pos, tgt))
        page = reference_turn_page(page)

    degrees = {}
    for pos in sorted(page.entries):
        degrees.setdefault(_total_degree(page.convention, pos), []).append(
            (pos[0], pos[1], page.entries[pos])
        )
    degrees = {d: tuple(v) for d, v in degrees.items()}
    resolved = {
        d: len(v) <= 1 or (exponent_two and all(is_elementary_two(g) for _, _, g in v))
        for d, v in degrees.items()
    }
    tainted = frozenset(
        _total_degree(page.convention, p) for _, src, tgt in unknown for p in (src, tgt)
    )
    return EInfinityReport(
        entries=dict(page.entries),
        convention=page.convention,
        degrees=degrees,
        extension_resolved=resolved,
        unknown_degrees=tainted,
        unknown_arrows=tuple(unknown),
        pages_turned=page.r - start,
    )


# entries: elementary 2-groups, and groups that are not (Z, Z^2, Z/4, Z + Z/2)
PAGE_GROUPS = (Z2, elementary_two(2), elementary_two(3), Z, free(2), cyclic(4),
               SymGroup(1, (2,), 0))


def _orders(g):
    return (0,) * g.free_rank + g.torsion  # 0 for a free generator


def _respects_relations(x, d, e):
    # an entry x from a generator of order d (0: free) to one of order e
    return d == 0 or (e != 0 and d * x % e == 0)


@st.composite
def small_pages(draw):
    """A valid page inside the default region: a few chains along the page's
    bidegree and a few loose entries, and for each source with a target a
    missing, zero or random differential. Entries of a random matrix that
    would break the relations are set to 0, and a differential that does not
    compose to zero with the one before it becomes the zero map."""
    convention = draw(st.sampled_from((COHOMOLOGICAL, PARDON)))
    r = draw(st.integers(0, 3))
    ds, dt = bidegree(convention, r)
    groups = st.sampled_from(PAGE_GROUPS)
    entries = draw(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(-3, 3)),
                                   groups, max_size=4))
    for _ in range(draw(st.integers(1, 3))):
        s0, t0 = draw(st.integers(0, 2)), draw(st.integers(-3, 3))
        for k in range(draw(st.integers(2, 4))):
            if s0 + k * ds <= 5 and abs(t0 + k * dt) <= 8:
                entries[(s0 + k * ds, t0 + k * dt)] = draw(groups)
    bare = draw(st.integers(0, 4)) == 0  # a page with no differentials
    diffs = {}
    for pos in sorted(entries):
        tgt = (pos[0] + ds, pos[1] + dt)
        if bare or tgt not in entries:
            continue
        kind = draw(st.sampled_from(("missing", "zero", "random", "random")))
        if kind == "missing":
            continue
        dom, cod = entries[pos], entries[tgt]
        gm = zero_map(dom, cod)
        if kind == "random":
            rows = []
            for e in _orders(cod):
                xs = draw(st.lists(st.integers(-1, 2), min_size=dom.ngens,
                                   max_size=dom.ngens))
                rows.append([x if _respects_relations(x, d, e) else 0
                             for x, d in zip(xs, _orders(dom))])
            gm = GroupMap(dom, cod, rows)
            incoming = diffs.get((pos[0] - ds, pos[1] - dt))
            if incoming is not None and not composite_is_zero(incoming, gm):
                gm = zero_map(dom, cod)
        diffs[pos] = gm
    page = BigradedPage(entries=entries, r=r, convention=convention, differentials=diffs)
    pins = draw(st.dictionaries(st.integers(r, r + 3),
                                st.frozensets(st.sampled_from(sorted(entries) or [(0, 0)])),
                                max_size=3))
    return page, pins, draw(st.booleans())


def _reaches_homology(page, pos):
    # an entry the ranks cannot read: not an elementary 2-group, or one whose
    # outgoing map lands in a group that is not
    ds, dt = bidegree(page.convention, page.r)
    out = page.differentials.get(pos)
    if out is None and (pos[0] - ds, pos[1] - dt) not in page.differentials:
        return False
    grp = page.entries[pos]
    return not is_elementary_two(grp) or (out is not None
                                          and not is_elementary_two(out.codomain))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(small_pages())
def test_turn_and_stable_report_match_reference(monkeypatch, drawn):
    page, pins, exponent_two = drawn
    fallback = []

    def counted(f, g):
        fallback.append(None)
        return homology_at(f, g)

    with monkeypatch.context() as m:
        m.setattr(specseq, "homology_at", counted)
        nxt = turn_page(page)
    ref = reference_turn_page(page)
    assert list(nxt.entries.items()) == list(ref.entries.items())
    assert (nxt.r, nxt.convention, nxt.differentials) == (ref.r, ref.convention, {})
    assert len(fallback) == sum(_reaches_homology(page, pos) for pos in page.entries)
    rep = run_to_stable(page, exponent_two=exponent_two, known_zero=pins)
    ref_rep = reference_run_to_stable(page, exponent_two=exponent_two, known_zero=pins)
    for f in dataclasses.fields(EInfinityReport):
        assert getattr(rep, f.name) == getattr(ref_rep, f.name), f.name
    assert list(rep.entries.items()) == list(ref_rep.entries.items())
