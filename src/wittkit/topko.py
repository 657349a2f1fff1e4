"""Topological K, KO, and KO/K groups in closed form.

A point or a curve is stably a wedge of spheres, b_p copies of S^p (an
affine curve is a wedge of circles; the top cell of a projective one is
attached by a product of commutators, which is stably null). So KO^n is the
sum of b_p copies of KO^(n-p) of a point. KO/K of every space is one rank
formula over cell data: the integral cohomology H^0..H^4 and the rank of
Sq2 from H^2(Z)/2 to H^4(Z/2), read off the Atiyah-Hirzebruch page.
Realification followed by complexification is multiplication by 2, so every
quotient has exponent two, and the formula counts its Z/2 summands. A
reduced row is the count minus the point's count. Odd KO totals of surfaces
are never emitted: the quotient formulas do not need them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegreeOutOfRange, InvariantViolation
from .groups import (
    TRIVIAL,
    Z,
    SymGroup,
    elementary_two,
    even_count,
    f2_rank,
    from_counts,
    mod2_rank,
    render,
    two_torsion,
)
from .spaces import (
    INTEGRAL,
    SpaceDescriptor,
    betti,
    cohomology,
    mod2_betti,
    pic_surjective,
    require_kind,
    sq2_integral,
)
from .specseq import KO_POINT as _KO_POINT, ahss_ko
from .witt import ODD_TWIST, TRIVIAL_TWIST, check_twist, minus_point, thom_row, w_row


# ---------------------------------------------------------------------------
# KO tables


def _wedge(space: SpaceDescriptor, n: int) -> SymGroup:
    """KO^n of a point or a curve: the sum over p of b_p copies of KO^(n-p)
    of a point, whose entries are Z, Z/2 or 0."""
    free_rank = twos = 0
    for p, b in enumerate(betti(space)):
        g = _KO_POINT[(n - p) % 8]
        free_rank += b * g.free_rank
        twos += b * len(g.torsion)
    return from_counts(free_rank, twos)


def ko_point(d: int) -> SymGroup:
    return _KO_POINT[d % 8]


def ko_curve(space: SpaceDescriptor, d: int) -> SymGroup:
    """KO^d of the underlying complex of a smooth curve."""
    require_kind(space, "curve")
    return _wedge(space, d)


def ko_curve_reduced(space: SpaceDescriptor, d: int) -> SymGroup:
    """Total KO^d minus the KO^d of a point: the wedge less its basepoint cell."""
    return minus_point(ko_curve(space, d), ko_point(d), TRIVIAL_TWIST)


# ---------------------------------------------------------------------------
# KO/K quotients


def _kok_count(h_int: tuple, sq2_rank: int, i: int) -> int:
    """Number of Z/2 summands of KO^2i/K of a complex of dimension at most
    four, from its integral cohomology H^0.. (missing degrees count as 0) and
    the rank of Sq2 from H^2(Z)/2 to H^4(Z/2)."""
    h = h_int + (TRIVIAL,) * (6 - len(h_int))
    i %= 4
    if i == 0:
        # the torsion of H^3 counts the cokernel of H^2(Z)/2 -> H^2(Z/2)
        return 1 + mod2_betti(h, 1) + even_count(h[3])
    if i == 1:
        return mod2_rank(h[2]) - sq2_rank + mod2_betti(h, 3)
    if i == 2:
        return mod2_betti(h, 4) - sq2_rank
    return 0


KOK_POINT = tuple([elementary_two(_kok_count((Z,), 0, i)) for i in range(4)])


def kok_row(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> tuple:
    """KO^0/K, KO^2/K, KO^4/K and KO^6/K of the space, from one rank of Sq2."""
    if check_twist(space, twist) == ODD_TWIST:
        return thom_row(kok_row, space, KOK_POINT)
    rank = f2_rank(sq2_integral(space))
    return tuple([elementary_two(_kok_count(space.h_int_table, rank, i)) for i in range(4)])


def kok(space: SpaceDescriptor, shift: int, twist=TRIVIAL_TWIST) -> SymGroup:
    """KO^shift/K of the space, shift even, eight-periodic."""
    if shift % 2:
        raise DegreeOutOfRange("KO/K quotients live in even shifts only")
    return kok_row(space, twist)[(shift % 8) // 2]


def kok_reduced(space: SpaceDescriptor, shift: int, twist=TRIVIAL_TWIST) -> SymGroup:
    tw = check_twist(space, twist)
    return minus_point(kok(space, shift, tw), KOK_POINT[(shift % 8) // 2], tw)


# ---------------------------------------------------------------------------
# complex K-theory


def k_top_graded(space: SpaceDescriptor) -> tuple:
    """Graded pieces (Z, H^2(Z), H^4(Z)) of K^0."""
    return (Z, cohomology(space, 2, INTEGRAL), cohomology(space, 4, INTEGRAL))


def k1_two_torsion(space: SpaceDescriptor) -> SymGroup:
    # K^1 = H^1 + H^3; H^1 is free for every descriptor kind here
    return two_torsion(cohomology(space, 3, INTEGRAL))


# ---------------------------------------------------------------------------
# eta multiplication and mod-2 rank arithmetic

def eta_iso_check(space: SpaceDescriptor) -> bool:
    """True when multiplication by eta identifies KO^{2i-1}[2] with KO^2i/K.

    The verdict is the vanishing of the 2-torsion of K^1. When it holds, the
    identification is asserted on every space, by two-torsion ranks of the
    pieces of ahss_ko (both sides are F2-vector spaces on points and curves),
    skipping shifts an undetermined arrow touches. The window cuts the rows
    below q = -10, so KO^d is read at total degree d - 8 for d > 2.
    """
    if not k1_two_torsion(space).is_trivial:
        return False
    rep, quotients = ahss_ko(space), kok_row(space)
    for i in range(4):
        d = (2 * i - 1) % 8
        td = d if d <= 2 else d - 8
        if td in rep.unknown_degrees:
            continue
        predicted = sum(mod2_rank(two_torsion(g)) for g in rep.pieces(td))
        if mod2_rank(quotients[i]) != predicted:
            raise InvariantViolation(
                "eta: KO^%d/K of %s is not the 2-torsion of KO^%d" % (2 * i, space, d))
    return True


@dataclass(frozen=True)
class Mod2Ranks:
    """Ranks with Z/2 coefficients, additive over adjacent shifts.

    ``w`` and ``kok`` hold rank W^i(Z/2) for i = 0..3 and rank KO^2i/K(Z/2);
    both are None when 2-torsion in K^1 obstructs the eta identification.
    ``k0_order_log2`` is log2 of the order of K^0(Z/2), always emitted.
    """

    w: tuple | None
    kok: tuple | None
    k0_order_log2: int
    k1_two_rank: int
    signal: str | None = None


def mod2_ranks(space: SpaceDescriptor) -> Mod2Ranks:
    k1_rank = mod2_rank(k1_two_torsion(space))
    k0_log2 = sum(mod2_rank(g) for g in k_top_graded(space)) + k1_rank
    if k1_rank:
        return Mod2Ranks(None, None, k0_log2, k1_rank, signal="eta-obstructed")
    ranks = [[mod2_rank(g) for g in row] for row in (w_row(space), kok_row(space))]
    w_sums, kok_sums = [tuple([r[i] + r[(i + 1) % 4] for i in range(4)]) for r in ranks]
    return Mod2Ranks(w_sums, kok_sums, k0_log2, 0)


@dataclass(frozen=True)
class QlReport:
    pic_surjective: bool
    k1_two_rank: int
    verdict: bool
    shifts_checked: tuple


def ql_hermitian_verdict(space: SpaceDescriptor) -> QlReport:
    """Both hypotheses of the hermitian comparison at once: Picard group
    surjecting onto H^2(Z) and 2-torsion-free K^1. When they hold the
    shiftwise Witt vs KO/K equality is asserted on the spot."""
    onto = pic_surjective(space)
    k1_rank = mod2_rank(k1_two_torsion(space))
    verdict = onto and k1_rank == 0
    checked = ()
    if verdict:
        for i, (w_grp, quotient) in enumerate(zip(w_row(space), kok_row(space))):
            if not (w_grp == quotient):
                raise InvariantViolation(
                    "W^%d and KO^%d/K of %s differ" % (i, 2 * i, space))
        checked = (0, 1, 2, 3)
    return QlReport(onto, k1_rank, verdict, checked)


# ---------------------------------------------------------------------------
# assembled table


@dataclass(frozen=True)
class KoTable:
    kind: str
    twist: str
    ko: tuple
    ko_reduced: tuple
    k0_graded: tuple
    kok: tuple
    kok_reduced: tuple


def ko_table(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> KoTable:
    """All emitted topological groups of one descriptor.

    KO totals are filled for the point and untwisted curves; twisted curves
    and surfaces carry None in all eight slots (the Thom space of O(p) is not
    a wedge, so its KO totals are not emitted; surface odd totals need an
    undetermined differential).
    """
    tw = check_twist(space, twist)
    if space.dim == 2 or tw == ODD_TWIST:
        ko = ko_red = (None,) * 8
    else:
        ko = tuple([_wedge(space, d) for d in range(8)])
        ko_red = tuple([minus_point(g, p, tw) for g, p in zip(ko, _KO_POINT)])
    quotients = kok_row(space, tw)
    return KoTable(
        kind=space.kind,
        twist=tw,
        ko=ko,
        ko_reduced=ko_red,
        k0_graded=k_top_graded(space),
        kok=quotients,
        kok_reduced=tuple([minus_point(g, p, tw) for g, p in zip(quotients, KOK_POINT)]),
    )


def topko_json_payload(table: KoTable) -> dict:
    return {
        "KO": [render(g) if g is not None else None for g in table.ko],
        "K0_gr": [render(g) for g in table.k0_graded],
        "KOK": [render(g) for g in table.kok],
    }
