"""Bigraded spectral-sequence engine over finitely generated abelian groups.

Two indexing conventions are supported. "cohomological" pages carry
differentials of bidegree (r, -r+1) and total degree s+t; "pardon" pages
carry differentials of bidegree (1, r-1) and are graded by the column s
alone. Entries are SymGroups, differentials are GroupMaps between them, and
turning a page replaces every entry by kernel(outgoing)/image(incoming): by
F2 ranks, each differential ranked once, where that entry and the outgoing
target are elementary 2-groups, and by ``homology_at`` everywhere else. A
page with no differentials turns by relabelling r.

Three builders instantiate the engine: pardon_e2 (Witt groups of every
space), ahss_ko and ahss_k (topological KO and K of the underlying
complex). Differentials the builders do not install are zero; positions on
later pages where a nonzero map cannot be ruled out are reported as unknown
rather than silently dropped.
"""

from dataclasses import dataclass, field
from itertools import repeat
from operator import mod
from types import MappingProxyType

from .errors import MalformedPage
from .groups import (
    TRIVIAL,
    Z,
    Z2,
    GroupMap,
    SymGroup,
    built_map,
    composite_is_zero,
    elementary_two,
    exponent_two,
    f2_rank,
    homology_at,
    is_elementary_two,
    mod2,
    mod2_generators,
    mod2_matrix,
    render,
    zero_map,
)
from .spaces import (
    INTEGRAL,
    MOD2,
    c1_rank,
    mod2_betti,
    picard,
    singular_h,
    sq2_integral,
)

COHOMOLOGICAL = "cohomological"
PARDON = "pardon"

# region bound: ((s_lo, s_hi), (t_lo, t_hi)); entries must vanish outside
DEFAULT_REGION = ((0, 5), (-8, 8))


def bidegree(convention: str, r: int) -> tuple[int, int]:
    if convention == COHOMOLOGICAL:
        return (r, -r + 1)
    if convention == PARDON:
        return (1, r - 1)
    raise MalformedPage("unknown convention %r" % (convention,))


@dataclass(frozen=True)
class BigradedPage:
    """Immutable snapshot of one page.

    ``entries`` maps (s, t) to a nonzero SymGroup; missing positions are
    zero. ``differentials`` maps a source position to the GroupMap leaving
    it; the target position is determined by the convention's bidegree.
    Missing differentials are zero maps. Both are read-only once checked.
    """

    entries: dict
    r: int
    convention: str
    differentials: dict = field(default_factory=dict)

    def __post_init__(self):
        if type(self.r) is not int or self.r < 0:
            raise MalformedPage("page index r must be an int >= 0, got %r" % (self.r,))
        ds, dt = bidegree(self.convention, self.r)
        kept = {}
        for pos, grp in self.entries.items():
            if not (isinstance(pos, tuple) and len(pos) == 2
                    and type(pos[0]) is int and type(pos[1]) is int):
                raise MalformedPage("entry position %r is not an (s, t) pair" % (pos,))
            if not isinstance(grp, SymGroup):
                raise MalformedPage("entry at %r is not a SymGroup" % (pos,))
            if grp.divisible_rank:
                raise MalformedPage("entry at %r carries a divisible summand" % (pos,))
            if not grp.is_trivial:
                kept[pos] = grp
        object.__setattr__(self, "entries", MappingProxyType(kept))
        diffs = dict(self.differentials)
        for pos, gm in diffs.items():
            if pos not in kept:  # kept holds (s, t) pairs only
                raise MalformedPage("differential leaves empty position %r" % (pos,))
            tgt = (pos[0] + ds, pos[1] + dt)
            if tgt not in kept:
                raise MalformedPage(
                    "differential %r -> %r lands on an empty position" % (pos, tgt))
            if not (isinstance(gm, GroupMap) and gm.domain == kept[pos]
                    and gm.codomain == kept[tgt]):
                raise MalformedPage("differential at %r does not match the entries" % (pos,))
        # consecutive differentials must compose to zero; a zero map does
        nonzero = {pos for pos, gm in diffs.items() if any(map(any, gm.matrix))}
        for pos in nonzero:
            tgt = (pos[0] + ds, pos[1] + dt)
            if tgt in nonzero and not composite_is_zero(diffs[pos], diffs[tgt]):
                raise MalformedPage(
                    "differentials at %r and %r do not compose to zero" % (pos, tgt))
        object.__setattr__(self, "differentials", MappingProxyType(diffs))

    def group_at(self, s: int, t: int) -> SymGroup:
        return self.entries.get((s, t), TRIVIAL)


def _built_page(entries, r: int, convention: str) -> BigradedPage:
    """A page with no differentials on read-only checked entries, built unchecked."""
    page = object.__new__(BigradedPage)
    vars(page).update(entries=entries, r=r, convention=convention,
                      differentials=MappingProxyType({}))
    return page


def turn_page(page: BigradedPage) -> BigradedPage:
    """Homology at every position; the next page's differentials are zero.

    A page with no differentials relabels r and keeps its entries mapping. Else
    elementary 2-group entries whose maps all land in elementary 2-groups read it
    off F2 ranks, each map ranked once (a zero one with no echelon); other entries
    go through ``homology_at``."""
    if not page.differentials:
        return _built_page(page.entries, page.r + 1, page.convention)
    ds, dt = bidegree(page.convention, page.r)
    rank = {pos: f2_rank(gm.matrix) if any(map(any, gm.matrix)) else 0
            for pos, gm in page.differentials.items() if is_elementary_two(gm.codomain)}
    new_entries = {}
    for pos, grp in page.entries.items():
        src = (pos[0] - ds, pos[1] - dt)
        outgoing = page.differentials.get(pos)
        incoming = page.differentials.get(src)
        if incoming is None and outgoing is None:
            h = grp
        elif is_elementary_two(grp) and (outgoing is None or pos in rank):
            h = elementary_two(grp.ngens - rank.get(src, 0) - rank.get(pos, 0))
        else:
            h = homology_at(incoming, outgoing)
        if not h.is_trivial:
            new_entries[pos] = h
    return _built_page(MappingProxyType(new_entries), page.r + 1, page.convention)


def _total_degree(convention: str, pos) -> int:
    return pos[0] + pos[1] if convention == COHOMOLOGICAL else pos[0]


@dataclass
class EInfinityReport:
    """Stable page plus per-degree assembly bookkeeping.

    ``degrees`` maps a total degree to its graded pieces as (s, t, group)
    triples in filtration order (increasing s, then t). ``unknown_degrees``
    collects total degrees touched by a differential whose value the builder
    could not determine; their pieces are not trustworthy.
    """

    entries: dict
    convention: str
    degrees: dict
    extension_resolved: dict
    unknown_degrees: frozenset
    unknown_arrows: tuple
    pages_turned: int

    def pieces(self, degree: int):
        return tuple([g for _, _, g in self.degrees.get(degree, ())])

    def resolved_group(self, degree: int):
        """The abutment in one degree, or None when it cannot be assembled. Several
        pieces resolve only as elementary 2-groups, so they add up as a count."""
        resolved = self.extension_resolved.get(degree, True)
        if degree in self.unknown_degrees or not resolved:
            return None
        pieces = self.pieces(degree)
        if len(pieces) == 1:
            return pieces[0]
        return elementary_two(sum(exponent_two(g).ngens for g in pieces))


def run_to_stable(
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
        r, entries, installed = page.r, page.entries, page.differentials
        ds, dt = bidegree(page.convention, r)
        if ds > s_hi - s_lo or abs(dt) > t_hi - t_lo:
            break
        declared = known_zero.get(r, ())
        for pos, grp in entries.items():
            tgt = (pos[0] + ds, pos[1] + dt)
            tgt_grp = entries.get(tgt)
            if tgt_grp is None or pos in installed or pos in declared:
                continue
            if grp.free_rank == 0 and not tgt_grp.torsion:
                continue  # finite source, torsion-free target: forced zero
            unknown.append((r, pos, tgt))
        page = turn_page(page)

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


# ---------------------------------------------------------------------------
# debug dump


def dump_page(page: BigradedPage) -> str:
    ds, dt = bidegree(page.convention, page.r)
    lines = []
    for (s, t) in sorted(page.entries):
        lines.append("E_%d[%d,%d] = %s" % (page.r, s, t, render(page.entries[(s, t)])))
    for (s, t) in sorted(page.differentials):
        m = mod2_matrix(page.differentials[(s, t)])
        body = "; ".join(" ".join(str(x) for x in row) for row in m)
        lines.append(
            "d_%d[%d,%d→%d,%d] = [%s]" % (page.r, s, t, s + ds, t + dt, body)
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders


def _map_from_f2(domain: SymGroup, codomain: SymGroup, rows) -> GroupMap:
    """Lift an F2 matrix on mod-2 generators to a GroupMap.

    Columns of ``rows`` are indexed by the free-then-even-torsion generators
    of the domain; odd-torsion generators get zero columns. The codomain must
    have exponent 2, so the lift is a map by construction and built unchecked.
    Rows that fit a domain with no odd-order generator are read mod 2; any
    other input takes the generator lookup, which refuses a missing entry.
    """
    head = rows[:codomain.ngens]
    if ((not domain.torsion or domain.torsion[0] % 2 == 0) and len(head) == codomain.ngens
            and not {*map(len, head)} - {domain.ngens}):
        return built_map(domain, codomain,
                         tuple([tuple(map(mod, map(int, row), repeat(2))) for row in head]))
    src_col = {j: c for c, j in enumerate(mod2_generators(domain))}
    full = tuple([
        tuple([int(rows[i][src_col[j]]) % 2 if j in src_col else 0
               for j in range(domain.ngens)])
        for i in range(codomain.ngens)
    ])
    return built_map(domain, codomain, full)


def pardon_e2(space) -> BigradedPage:
    """E2-page of the spectral sequence converging to the Witt groups.

    Column s contributes to W^s; every space fills the same six entries. The
    unit form generates (0,0) and survives, so its outgoing differentials are
    zero; the one out of (0,1) vanishes; the one nontrivial d2 is s1 at (1,1).
    """
    entries = {
        (0, 0): Z2,
        (0, 1): elementary_two(mod2_betti(space.h_int_table, 1)),
        (1, 1): mod2(picard(space)),
        (0, 2): elementary_two(mod2_betti(space.h_int_table, 2) - c1_rank(space)),
        (1, 2): elementary_two(mod2_betti(space.h_int_table, 3)),
        (2, 2): elementary_two(space.ch2_mod2_rank),
    }
    entries = {pos: g for pos, g in entries.items() if not g.is_trivial}
    diffs = {}
    if (0, 0) in entries and (1, 1) in entries:
        diffs[(0, 0)] = zero_map(entries[(0, 0)], entries[(1, 1)])
    if (0, 1) in entries and (1, 2) in entries:
        diffs[(0, 1)] = zero_map(entries[(0, 1)], entries[(1, 2)])
    if (1, 1) in entries and (2, 2) in entries:
        diffs[(1, 1)] = _map_from_f2(entries[(1, 1)], entries[(2, 2)], space.s1)
    return BigradedPage(entries=entries, r=2, convention=PARDON, differentials=diffs)


PARDON_REGION = ((0, 2), (0, 2))

# d3 out of (0,0) is zero because the unit form survives to the abutment
_PARDON_KNOWN_ZERO = {3: frozenset({(0, 0)})}


def pardon_stable(space) -> EInfinityReport:
    return run_to_stable(
        pardon_e2(space),
        PARDON_REGION,
        exponent_two=True,  # Witt groups of these varieties are 2-torsion
        known_zero=_PARDON_KNOWN_ZERO,
    )


# KO^n and K^n of a point, n mod 8. Row q of an Atiyah-Hirzebruch page
# carries H^p with the point's coefficients at n = q.
KO_POINT = (Z, TRIVIAL, TRIVIAL, TRIVIAL, Z, TRIVIAL, Z2, Z2)
K_POINT = (Z, TRIVIAL) * 4
_COEFFICIENTS = {Z: INTEGRAL, Z2: MOD2}


def _ahss_page(space, point, q_lo: int) -> BigradedPage:
    """E2-page on the rows q_lo..0 with d2 installed.

    Row q carries H^p(Z) where the point has Z and H^p(Z/2) where it has
    Z/2. d2 runs only into a Z/2 row: out of a Z row it is Sq2 composed with
    mod-2 reduction, out of a Z/2 row Sq2 itself. Both vanish on classes of
    degree below 2, so the only nonzero matrices occur at p = 2 (surfaces).
    """
    rows = sorted((q for q in range(0, q_lo - 1, -1) if point[q % 8] in _COEFFICIENTS),
                  key=lambda q: point[q % 8] == Z2)  # Z rows first
    h = {c: [singular_h(space, p, _COEFFICIENTS[c]) for p in range(2 * space.dim + 1)]
         for c in {point[q % 8] for q in rows}}  # each row repeats one of these
    entries = {(p, q): g for q in rows for p, g in enumerate(h[point[q % 8]])
               if not g.is_trivial}
    sq = {Z2: space.sq2, Z: sq2_integral(space)} if Z2 in point else {}  # by source row
    diffs = {}
    for (p, q), src in entries.items():
        tgt = entries.get((p + 2, q - 1))
        if tgt is None or point[(q - 1) % 8] != Z2:
            continue
        if p < 2:
            diffs[(p, q)] = zero_map(src, tgt)
        else:
            diffs[(p, q)] = _map_from_f2(src, tgt, sq[point[q % 8]])
    return BigradedPage(entries=entries, r=2, convention=COHOMOLOGICAL,
                        differentials=diffs)


def ahss_ko_page(space) -> BigradedPage:
    """KO-theory E2-page, one Bott window of rows, with d2 installed."""
    return _ahss_page(space, KO_POINT, -10)


# page 3: the unit positions survive, and the d3 on the H^p(Z/2) rows
# q = -2, -10 (beta.Sq2 up to the identifications) vanishes on classes of
# degree below 2 while its p >= 2 targets exceed the dimension; p runs to a
# surface's top degree 4, and a pin above a smaller space's names no entry
_KO_KNOWN_ZERO = {3: frozenset({(0, 0), (0, -8)}
                               | {(p, q) for p in range(5) for q in (-2, -10)})}


def ahss_ko(space) -> EInfinityReport:
    return run_to_stable(ahss_ko_page(space), ((0, 2 * space.dim), (-10, 0)),
                         known_zero=_KO_KNOWN_ZERO)


def ahss_k_page(space) -> BigradedPage:
    """K-theory E2-page: H^p(Z) in the even rows. No Z/2 row means no d2; d3
    vanishes on degree <= 1 classes and its p = 2 source would land beyond
    the dimension, so the page collapses."""
    return _ahss_page(space, K_POINT, -4)


_K_KNOWN_ZERO = {3: frozenset({(p, q) for p in (0, 1) for q in (0, -2, -4)})}


def ahss_k(space) -> EInfinityReport:
    return run_to_stable(ahss_k_page(space), ((0, 2 * space.dim), (-4, 0)),
                         known_zero=_K_KNOWN_ZERO)
