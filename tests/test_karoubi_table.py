"""The per-case Karoubi table of ``witt``, against the hand setup it replaced.

``reference_karoubi_setup``, ``reference_split_flags`` and the curve branch
of ``reference_fh_image`` are the functions as they stood when the proof
data of ``karoubi_check`` was typed out once per curve case, copied verbatim
(only renamed), with the three divisible flags they read. The table, with
the zero rows of the untouched generators and the odd-shift ``jac`` derived
from it, must give the same coordinates, K_0 shadow, forgetful images,
hyperbolic matrices, split flags and F.H images on every curve case, and the
parity of the shift, which ``karoubi_check`` reads in place of the flags,
must call im F full exactly where the hand setup does. Every cokernel that
``karoubi_check`` reads there must also equal the one of the elimination
route that once built a projection for each.
"""

import pytest
from test_groups import reference_cokernel_map
from wittkit import witt
from wittkit.groups import TRIVIAL, Z, GroupMap, SymGroup, cokernel, free, from_counts
from wittkit.spaces import SpaceDescriptor, make_curve, picard, require_kind
from wittkit.witt import (
    ODD_TWIST,
    TRIVIAL_TWIST,
    FHImage,
    _hyperbolic_map,
    _karoubi_case,
    _split_flags,
    check_twist,
    fh_image,
    gw_curve_reduced,
    karoubi_check,
    witt_table,
)

_DIV_FULL = "full"        # image covers the whole divisible summand
_DIV_TORSION = "torsion"  # image is exactly its 2-torsion
_DIV_ZERO = "zero"        # image misses it entirely


def reference_split_flags(space: SpaceDescriptor, tw: str) -> tuple:
    # the only nonsplit extension in the curve tables is untwisted GW^1
    if space.projective and tw == TRIVIAL_TWIST:
        return (True, False, True, True)
    return (True, True, True, True)


def reference_karoubi_setup(space: SpaceDescriptor, tw: str, gw_fg: tuple):
    """Coordinate frame, forgetful images, and hyperbolic matrices per shift.

    ``im_f[i]`` is the image of GW^i under F as (columns, divisible flag);
    ``hyp[i]`` is the matrix of the hyperbolic map into the GW^i shadow
    ``gw_fg[i]``.
    """
    g2 = 2 * space.genus
    if not space.projective:
        k_fg = TRIVIAL
        im_f = (((), _DIV_TORSION), ((), _DIV_FULL), ((), _DIV_ZERO), ((), _DIV_FULL))
        hyp = tuple(tuple(() for _ in range(gw_fg[i].ngens)) for i in range(4))
        return (), k_fg, im_f, hyp
    if tw == ODD_TWIST:
        k_fg = free(2)  # (rank, deg)
        im_f = (
            (((2, 1),), _DIV_TORSION),
            (((0, 1),), _DIV_FULL),
            (((2, 1),), _DIV_ZERO),
            (((0, 1),), _DIV_FULL),
        )
        hyp = (
            ((1, 0),) + ((0, 0),) * g2,   # rank generator spans the split Z/2-free part
            ((1, -2),),
            ((1, 0),),
            ((1, -2),),
        )
        return ("rank", "deg"), k_fg, im_f, hyp
    k_fg = Z  # (deg)
    im_f = (
        ((), _DIV_TORSION),
        (((1,),), _DIV_FULL),
        ((), _DIV_ZERO),
        (((2,),), _DIV_FULL),
    )
    hyp = (
        ((1,),) + ((0,),) * g2,
        ((2,),),
        (),
        ((1,),),
    )
    return ("deg",), k_fg, im_f, hyp


def reference_fh_image(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> FHImage:
    require_kind(space, "curve")
    tw = check_twist(space, twist)
    even = i % 2 == 0
    if tw == ODD_TWIST:
        if even:
            return FHImage(coords=("rank", "deg"), columns=((2, 1),), jac=False)
        return FHImage(coords=("rank", "deg"), columns=((0, 1),), jac=True)
    if space.projective:
        if even:
            return FHImage(coords=("deg",), columns=(), jac=False)
        return FHImage(coords=("deg",), columns=((2,),), jac=True)
    return FHImage(coords=(), columns=(), jac=not even)


CURVE_CASES = tuple(
    (make_curve(True, g), tw) for g in range(41) for tw in (TRIVIAL_TWIST, ODD_TWIST)
) + tuple((make_curve(False, g, n), TRIVIAL_TWIST) for g in range(21) for n in range(1, 6))


def test_karoubi_table_matches_hand_setup():
    for space, tw in CURVE_CASES:
        gw_fg = tuple(SymGroup(g.free_rank, g.torsion, 0)
                      for g in (gw_curve_reduced(space, i, tw) for i in range(4)))
        coords, k_fg, im_f, hyp = reference_karoubi_setup(space, tw, gw_fg)
        table_coords, im_cols, touched, _ = _karoubi_case(space, tw)
        case = (space, tw)
        assert table_coords == coords, case
        assert free(len(table_coords)) == k_fg, case
        assert im_cols == tuple(cols for cols, _ in im_f), case
        # im F on GW^i covers the divisible summand exactly at odd i, so the
        # S-piece of shift i + 1 keeps the Jacobian exactly after an even i
        assert [div == _DIV_FULL for _, div in im_f] == [i % 2 == 1 for i in range(4)], case
        jac = picard(space).divisible_rank
        assert [n.s_piece.divisible_rank for n in karoubi_check(space, tw).nodes] \
            == [0 if im_f[(i - 1) % 4][1] == _DIV_FULL else jac for i in range(4)], case
        for i in range(4):
            assert _hyperbolic_map(k_fg, gw_fg[i], touched[i]) == GroupMap(
                k_fg, gw_fg[i], hyp[i]), (case, i)
        flags = reference_split_flags(space, tw)
        assert _split_flags(space, tw) == flags, case
        assert witt_table(space, tw).flags == {"karoubi_split": list(flags)}, case
        for i in range(8):
            assert fh_image(space, i, tw) == reference_fh_image(space, i, tw), (case, i)


def test_karoubi_report_reads_the_table():
    # the report's frame and split expectations are the table's, and every
    # check passes on it
    for space, tw in CURVE_CASES[:12] + CURVE_CASES[82:92]:
        rep = karoubi_check(space, tw)
        assert rep.passed, (space, tw)
        assert rep.coords == _karoubi_case(space, tw)[0]
        assert tuple(n.split_expected for n in rep.nodes) == reference_split_flags(space, tw)


def test_karoubi_cokernel_projections_match_reference(monkeypatch):
    # per shift, the cokernels of im F and of H, and one per F.H column
    maps = []
    monkeypatch.setattr(witt, "cokernel", lambda f: maps.append(f) or cokernel(f))
    for space, tw in CURVE_CASES:
        karoubi_check(space, tw)
    assert len(maps) == sum(8 + 2 * sum(map(len, _karoubi_case(space, tw)[3]))
                            for space, tw in CURVE_CASES)
    for f in maps:
        assert cokernel(f) == reference_cokernel_map(f)[0], f


# One-entry corruptions of a curve case of ``witt._KAROUBI_CURVES`` on a genus-3
# curve: the twist, the part of the case (1 the columns of im F, 2 the rows H
# touches, 3 the F.H columns at even and odd shifts), the shift, the entry as
# the table has it, the corrupted entry, and the failures of each node that
# fails, keyed by shift. Every label but ``divisible-rank`` fires here.
CORRUPTIONS = (
    (ODD_TWIST, 3, 1, ((0, 1),), ((1, 0),), {1: ("fh-lattice",), 3: ("fh-lattice",)}),
    (ODD_TWIST, 3, 0, ((2, 1),), ((1, 1),), {0: ("fh-lattice",), 2: ("fh-lattice",)}),
    (ODD_TWIST, 2, 0, ((1, 0),), ((2, 0),),
     {0: ("w-cokernel", "rank2-identity", "split-flag")}),
    (ODD_TWIST, 1, 1, ((0, 1),), ((1, 1),), {1: ("fh-lattice",), 2: ("exact",)}),
    (TRIVIAL_TWIST, 2, 1, ((2,),), ((4,),), {1: ("w-cokernel",)}),
    (TRIVIAL_TWIST, 2, 0, ((1,),), ((2,),),
     {0: ("exact", "w-cokernel", "rank2-identity", "split-flag")}),
    (TRIVIAL_TWIST, 3, 1, ((2,),), ((1,),), {3: ("fh-lattice",)}),
    (TRIVIAL_TWIST, 3, 1, ((2,),), ((3,),), {3: ("fh-lattice",)}),
)


def _failures(report) -> dict:
    return {n.shift: n.failures for n in report.nodes if n.failures}


@pytest.mark.parametrize("tw, part, shift, old, new, want", CORRUPTIONS)
def test_a_corrupted_table_entry_fails_its_checks(monkeypatch, tw, part, shift, old, new, want):
    case = witt._KAROUBI_CURVES[tw]
    assert case[part][shift] == old
    entries = list(case[part])
    entries[shift] = new
    corrupted = case[:part] + (tuple(entries),) + case[part + 1:]
    monkeypatch.setitem(witt._KAROUBI_CURVES, tw, corrupted)
    report = karoubi_check(make_curve(True, 3), tw)
    assert not report.passed
    assert _failures(report) == want


def test_a_gw_row_without_the_jacobian_fails_the_divisible_rank(monkeypatch):
    row = witt._gw_row
    monkeypatch.setattr(witt, "_gw_row", lambda space, tw: tuple(
        [from_counts(g.free_rank, len(g.torsion)) for g in row(space, tw)]))
    curve = make_curve(True, 3)
    assert _failures(karoubi_check(curve, TRIVIAL_TWIST)) == {
        1: ("divisible-rank",), 3: ("divisible-rank", "split-flag")}
    assert _failures(karoubi_check(curve, ODD_TWIST)) == {
        1: ("divisible-rank", "split-flag"), 3: ("divisible-rank", "split-flag")}
