"""The curve tables read off summand counts, against the direct-sum assembly
they replaced, and KO of points and curves read off the wedge of spheres,
against the hand tables it replaced.

``reference_gw_curve``, ``reference_w_curve`` and ``reference_kok`` are the
functions as they stood when every curve group was assembled with
``direct_sum``, copied verbatim (only renamed). ``reference_kok`` reads the
surface formula and the point row of that time, copied verbatim as
``reference_kok_surface`` and ``REFERENCE_KOK_POINT``, so it shares no KO/K
code with the package. The count rows must give the
same render, or raise the same exception, for every curve, shift and twist,
and so must the reduced groups derived from them. ``reference_ko_curve`` is
``ko_curve`` as it stood when it held one hand table per kind of curve,
copied verbatim (only renamed).
"""

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

from wittkit.catalog import catalog_get, catalog_instances
from wittkit.errors import DegreeOutOfRange, WittkitError
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    SymGroup,
    direct_sum,
    direct_sum_all,
    divisible,
    elementary_two,
    exponent_two,
    f2_rank,
    mod2_rank,
    render,
)
from wittkit.spaces import (
    INTEGRAL,
    MOD2,
    SpaceDescriptor,
    etale_h,
    make_curve,
    make_point,
    picard,
    require_kind,
    sq2_integral,
)
from wittkit.spaces import cohomology as _h
from wittkit.topko import (
    _KO_POINT,
    ko_curve,
    ko_curve_reduced,
    ko_point,
    ko_table,
    kok,
    kok_reduced,
)
from wittkit.witt import (
    ODD_TWIST,
    TRIVIAL_TWIST,
    check_twist,
    gw_curve,
    gw_curve_reduced,
    gw_point,
    w_curve,
    w_point,
    w_reduced,
)


def reference_gw_curve(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    require_kind(space, "curve")
    tw = check_twist(space, twist)
    i %= 4
    if i == 2:
        return Z
    jac = divisible(picard(space).divisible_rank)
    if tw == ODD_TWIST:
        return direct_sum(Z, etale_h(space, 1) if i == 0 else jac)
    deg = Z if space.projective else TRIVIAL
    if i == 0:
        # etale H^2 is Z/2 when projective, 0 when affine
        return direct_sum_all([Z, etale_h(space, 1), etale_h(space, 2)])
    if i == 1:
        return direct_sum(deg, jac)
    return direct_sum_all([Z2, deg, jac])


def reference_w_curve(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    require_kind(space, "curve")
    tw = check_twist(space, twist)
    h1 = etale_h(space, 1)
    i %= 4
    if tw == ODD_TWIST:
        g = h1 if i == 0 else TRIVIAL
    elif i == 0:
        g = direct_sum(Z2, h1)
    elif i == 1:
        g = etale_h(space, 2)
    else:
        g = TRIVIAL
    return exponent_two(g)


# KO^n/rK^n of a point: r is 2 on KO^0 and onto KO^4 and KO^6; K^7 = 0
REFERENCE_KO_MOD_RK_POINT = (Z2, TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL, TRIVIAL, Z2)
REFERENCE_KOK_POINT = REFERENCE_KO_MOD_RK_POINT[::2]


def reference_kok_surface(space: SpaceDescriptor, i: int) -> SymGroup:
    sq = sq2_integral(space)
    r = f2_rank(sq)
    if i == 0:
        image_defect = _h(space, 2, MOD2).ngens - f2_rank(space.pi2)
        return direct_sum_all(
            [Z2, _h(space, 1, MOD2), elementary_two(image_defect)]
        )
    if i == 1:
        kernel_rank = mod2_rank(_h(space, 2, INTEGRAL)) - r
        return direct_sum(elementary_two(kernel_rank), _h(space, 3, MOD2))
    if i == 2:
        return elementary_two(_h(space, 4, MOD2).ngens - r)
    return TRIVIAL


def reference_kok(space: SpaceDescriptor, shift: int, twist=TRIVIAL_TWIST) -> SymGroup:
    """KO^shift/K of the space, shift even, eight-periodic."""
    if shift % 2:
        raise DegreeOutOfRange("KO/K quotients live in even shifts only")
    tw = check_twist(space, twist)
    i = (shift % 8) // 2
    if space.kind == "point":
        g = REFERENCE_KOK_POINT[i]
    elif space.kind == "curve":
        h1 = _h(space, 1, MOD2)
        if tw == ODD_TWIST:
            g = h1 if i == 0 else TRIVIAL
        elif space.projective:
            g = (direct_sum(Z2, h1), Z2, TRIVIAL, TRIVIAL)[i]
        else:
            g = direct_sum(Z2, h1) if i == 0 else TRIVIAL
    else:
        g = reference_kok_surface(space, i)
    return exponent_two(g)


def reference_ko_curve(space: SpaceDescriptor, d: int) -> SymGroup:
    """KO^d of the underlying complex of a smooth curve."""
    require_kind(space, "curve")
    d %= 8
    # KO^d as (free rank, number of Z/2 summands) for d = 0..7
    if space.projective:
        k = 2 * space.genus
        table = ((1, k + 1), (k, 1), (1, 0), (0, 0), (1, 0), (k, 0), (1, 1), (0, k + 1))
    else:
        k = 2 * space.genus + space.punctures - 1
        table = ((1, k), (k, 0), (0, 0), (0, 0), (1, 0), (k, 0), (0, 1), (0, k + 1))
    free_rank, twos = table[d]
    return SymGroup(free_rank, (2,) * twos, 0)


def outcome(call):
    try:
        return render(call())
    except WittkitError as exc:
        return type(exc)


def at_even(fn):
    """fn(space, shift, twist) read at shift 2i, as the i-th KO/K entry."""
    return lambda space, i, tw: fn(space, 2 * i, tw)


# (name, total, reduced, reference total, point group), all taking
# (space, i, twist); the reduced reference cancels the point group from the
# reference total by the rule the package uses
ROWS = (
    ("gw", gw_curve, gw_curve_reduced, reference_gw_curve, gw_point),
    ("w", w_curve, w_reduced, reference_w_curve, w_point),
    ("kok", at_even(kok), at_even(kok_reduced), at_even(reference_kok),
     lambda i: REFERENCE_KOK_POINT[i]),
)


def assert_rows_match(curves):
    for space in curves:
        for tw in (TRIVIAL_TWIST, ODD_TWIST):
            for i in range(4):
                for name, total, red, reference, point in ROWS:
                    try:
                        ref = reference(space, i, tw)
                    except WittkitError as exc:
                        want = want_red = type(exc)
                    else:
                        want = render(ref)
                        want_red = outcome(lambda: reference_cancel_point(ref, point(i), tw))
                    where = (name, str(space), tw, i)
                    assert outcome(lambda: total(space, i, tw)) == want, where
                    assert outcome(lambda: red(space, i, tw)) == want_red, where


def test_projective_curve_rows_match_direct_sum_assembly():
    assert_rows_match(make_curve(True, g) for g in range(41))


def test_affine_curve_rows_match_direct_sum_assembly():
    assert_rows_match(make_curve(False, g, n) for g in range(13) for n in range(1, 7))


def assert_kok_matches_reference(space):
    """kok, kok_reduced and ko_table against reference_kok at all four
    shifts, in every twist the space admits."""
    for tw in (TRIVIAL_TWIST, ODD_TWIST):
        try:
            check_twist(space, tw)
        except WittkitError:
            continue
        table = ko_table(space, tw)
        for i in range(4):
            want = reference_kok(space, 2 * i, tw)
            want_red = render(reference_cancel_point(want, REFERENCE_KOK_POINT[i], tw))
            where = (str(space), tw, i)
            assert render(kok(space, 2 * i, tw)) == render(want), where
            assert render(table.kok[i]) == render(want), where
            assert render(kok_reduced(space, 2 * i, tw)) == want_red, where
            assert render(table.kok_reduced[i]) == want_red, where


def test_kok_matches_reference_on_points_and_curves():
    spaces = [make_point()]
    spaces += [make_curve(True, g) for g in range(41)]
    spaces += [make_curve(False, g, n) for g in range(13) for n in range(1, 7)]
    for space in spaces:
        assert_kok_matches_reference(space)


def test_kok_matches_reference_on_catalog_and_sample_spaces():
    spaces = [catalog_get(name).descriptor for name in catalog_instances()]
    spaces += [p2_surface(), blowup_p2_surface(), enriques_surface(),
               abelian_like_surface()]
    spaces += [k3_surface(rho) for rho in (0, 1, 10, 20)]
    spaces += [ruled_surface(g) for g in range(4)]
    for space in spaces:
        assert_kok_matches_reference(space)


def assert_ko_matches_hand_tables(curves):
    for space in curves:
        table = ko_table(space)
        for d in range(8):
            want = render(reference_ko_curve(space, d))
            want_red = render(reference_cancel(reference_ko_curve(space, d), ko_point(d)))
            where = (str(space), d)
            assert render(ko_curve(space, d)) == want, where
            assert render(ko_curve(space, d + 8)) == want, where
            assert render(table.ko[d]) == want, where
            assert render(ko_curve_reduced(space, d)) == want_red, where
            assert render(table.ko_reduced[d]) == want_red, where


def test_projective_curve_ko_matches_hand_table():
    assert_ko_matches_hand_tables(make_curve(True, g) for g in range(41))


def test_affine_curve_ko_matches_hand_table():
    assert_ko_matches_hand_tables(
        make_curve(False, g, n) for g in range(13) for n in range(1, 7))


def test_point_ko_and_kok_are_the_point_tables():
    point = make_point()
    table = ko_table(point)
    assert tuple(map(render, table.ko)) == tuple(map(render, _KO_POINT))
    assert tuple(map(render, table.kok)) == tuple(map(render, REFERENCE_KOK_POINT))
    for i in range(4):
        assert render(kok(point, 2 * i)) == render(REFERENCE_KOK_POINT[i])
