"""Picard data of every space with no branch on its kind, and GW of the point
and of curves from one count, against the per-kind routes they replaced.

``reference_picard``, ``reference_c1_rank``, ``reference_pic_surjective``,
``reference_pic_columns``, ``reference_check_twist``, ``reference_gw_curve``
and ``REFERENCE_GW_POINT`` are ``picard``, ``c1_rank``, ``pic_surjective``,
``pic_columns``, ``check_twist``, ``gw_curve`` and ``_GW_POINT`` as they
stood when each read the kind of the space, copied verbatim (only renamed,
with ``reference_picard_image_matrix`` reading ``reference_pic_columns``);
``sample_spaces.reference_picard_image_matrix`` is the copy that reads
``pic_columns``, and ``reference_cancel_point`` removes the point summand.
``reference_dim`` is the kind table ``SpaceDescriptor.dim`` read, and
``reference_descriptor_to_json`` the point and curve branches of
``descriptor_to_json``. Every entry point must give the same value, or raise
the same error signal, at every shift 0..7 and in both twists.
"""

import json
import re

import pytest
import sample_spaces
from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    reference_cancel_point,
    ruled_surface,
)

from wittkit.catalog import catalog_get, catalog_instances
from wittkit.compare import compare_w_kok
from wittkit.errors import NoSuchTwist, UnsupportedTwist, WittkitError
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    SymGroup,
    divisible,
    f2_rank,
    mod2_rank,
    render,
)
from wittkit.spaces import (
    SpaceDescriptor,
    betti,
    c1_rank,
    descriptor_from_json,
    descriptor_to_json,
    etale_h,
    make_curve,
    make_point,
    pic_columns,
    pic_surjective,
    picard,
    require_kind,
)
from wittkit.witt import (
    ODD_TWIST,
    TRIVIAL_TWIST,
    check_twist,
    gw_curve,
    gw_point,
    normalize_twist,
    witt_table,
)


def reference_dim(space: SpaceDescriptor) -> int:
    return {"point": 0, "curve": 1, "surface": 2}[space.kind]


def reference_picard(space: SpaceDescriptor) -> SymGroup:
    if space.kind == "point":
        return TRIVIAL
    if space.kind == "curve":
        if space.projective:
            return SymGroup(1, (), 2 * space.genus)
        # divisible quotient: the finitely generated shadow collapses
        return divisible(2 * space.genus)
    table = space.h_int_table
    b1 = table[1].free_rank
    return SymGroup(space.rho, table[2].torsion, b1)


def reference_c1_rank(space: SpaceDescriptor) -> int:
    """Rank of c1: Pic/2 -> H^2(Z/2), which is onto below dimension two."""
    if space.kind == "surface":
        return f2_rank(reference_picard_image_matrix(space))
    return mod2_rank(reference_picard(space))


def reference_pic_columns(space: SpaceDescriptor) -> tuple:
    """Columns of pi2 spanning the image of Pic/2 inside H^2(Z)/2.

    Convention: the first rho free generators of H^2 followed by all nu
    torsion generators (the Neron-Severi lattice is primitively embedded).
    """
    b2 = space.h_int_table[2].free_rank
    return tuple(range(space.rho)) + tuple(range(b2, b2 + space.nu))


def reference_picard_image_matrix(space: SpaceDescriptor):
    cols = reference_pic_columns(space)
    return tuple([tuple([row[j] for j in cols]) for row in space.pi2])


def reference_pic_surjective(space: SpaceDescriptor) -> bool:
    """Whether Pic(X) covers H^2(X;Z); always true below dimension two."""
    if space.kind == "surface":
        return space.rho == betti(space)[2]
    return True


def reference_check_twist(space: SpaceDescriptor, twist) -> str:
    """The normalized twist class, once it is known to exist on ``space``."""
    tw = normalize_twist(twist)
    if tw == ODD_TWIST:
        if space.kind == "surface":
            raise UnsupportedTwist("twisted surface groups are out of contract")
        if space.kind == "point":
            raise NoSuchTwist("a point admits only the trivial twist")
        if not space.projective:
            # every line bundle on an affine curve is a square
            raise NoSuchTwist("affine curves admit no nontrivial twist class")
    return tw


REFERENCE_GW_POINT = (Z, TRIVIAL, Z, Z2)


def reference_gw_point(i: int) -> SymGroup:
    return REFERENCE_GW_POINT[i % 4]


def reference_gw_curve(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    require_kind(space, "curve")
    tw = reference_check_twist(space, twist)
    b1, deg = etale_h(space, 1).ngens, etale_h(space, 2).ngens
    jac = reference_picard(space).divisible_rank
    # GW^i as (free rank, number of Z/2, divisible rank); deg is 1 iff projective
    if tw == ODD_TWIST:
        table = ((1, b1, 0), (1, 0, jac), (1, 0, 0), (1, 0, jac))
    else:
        table = ((1, b1 + deg, 0), (deg, 0, jac), (1, 0, 0), (deg, 1, jac))
    free_rank, twos, div = table[i % 4]
    return SymGroup(free_rank, (2,) * twos, div)


def reference_descriptor_to_json(space: SpaceDescriptor) -> str:
    if space.kind == "point":
        doc = {"kind": "point"}
    else:
        doc = {
            "kind": "curve",
            "projective": space.projective,
            "genus": space.genus,
            "punctures": space.punctures,
        }
    return json.dumps(doc, sort_keys=True)


def reference_gw_row(space: SpaceDescriptor, tw: str) -> tuple:
    """``witt_table``'s GW row and its reduced row, as per-kind routes."""
    if space.kind == "surface":
        return (None,) * 4, (None,) * 4
    row = tuple([reference_gw_point(i) if space.kind == "point"
                 else reference_gw_curve(space, i, tw) for i in range(4)])
    return row, tuple([reference_cancel_point(g, reference_gw_point(i), tw)
                       for i, g in enumerate(row)])


def outcome(call):
    """The render of a group, any other value as it is, or the error signal."""
    try:
        got = call()
    except WittkitError as exc:
        return ("error", exc.signal)
    return render(got) if isinstance(got, SymGroup) else got


def assert_picard_matches_references(space):
    """The Picard readers, the twist rule, GW at shifts 0..7 in both twists,
    ``witt_table``'s GW rows and the comparison's Picard flag against the
    per-kind routes."""
    where = str(space)
    assert space.dim == reference_dim(space), where
    assert render(picard(space)) == render(reference_picard(space)), where
    assert c1_rank(space) == reference_c1_rank(space), where
    # rho + nu is the rank of pi2 on the Picard columns on every space
    image = sample_spaces.reference_picard_image_matrix(space)
    assert c1_rank(space) == f2_rank(image), where
    if space.dim:
        assert pic_columns(space) == reference_pic_columns(space), where
        assert image == reference_picard_image_matrix(space), where
    else:  # the reference indexes H^2, which the point's table lacks
        assert pic_columns(space) == image == (), where
    assert pic_surjective(space) is reference_pic_surjective(space), where
    for tw in (TRIVIAL_TWIST, ODD_TWIST, None, "weird"):
        assert outcome(lambda: check_twist(space, tw)) \
            == outcome(lambda: reference_check_twist(space, tw)), (where, tw)
    for tw in (TRIVIAL_TWIST, ODD_TWIST):
        for i in range(8):
            assert outcome(lambda: gw_curve(space, i, tw)) \
                == outcome(lambda: reference_gw_curve(space, i, tw)), (where, tw, i)
        table = outcome(lambda: witt_table(space, tw))
        ref = outcome(lambda: reference_gw_row(space, reference_check_twist(space, tw)))
        if isinstance(ref, tuple) and ref[0] == "error":
            assert table == ref, (where, tw)
        else:
            assert (table.gw, table.gw_reduced) == ref, (where, tw)
            assert compare_w_kok(space, tw).pic_surjective \
                is reference_pic_surjective(space), (where, tw)


def assert_descriptor_json_unchanged(space):
    text = descriptor_to_json(space)
    assert text == reference_descriptor_to_json(space), str(space)
    assert descriptor_from_json(text) == space, str(space)


def test_point_matches_references():
    for i in range(-4, 12):
        assert gw_point(i) == reference_gw_point(i), i
    point = make_point()
    assert_picard_matches_references(point)
    assert_descriptor_json_unchanged(point)


def test_no_such_twist_names_the_space():
    for space in (make_point(), make_curve(False, 0, 1), make_curve(False, 2, 3)):
        with pytest.raises(NoSuchTwist,
                           match="^%s admits only the trivial twist$" % re.escape(str(space))):
            check_twist(space, ODD_TWIST)


def test_projective_curves_match_references():
    for g in range(61):
        curve = make_curve(True, g)
        assert_picard_matches_references(curve)
        assert_descriptor_json_unchanged(curve)


def test_affine_curves_match_references():
    for g in range(21):
        for n in range(1, 6):
            curve = make_curve(False, g, n)
            assert_picard_matches_references(curve)
            assert_descriptor_json_unchanged(curve)


def test_catalog_and_sample_spaces_match_references():
    spaces = [catalog_get(name).descriptor for name in catalog_instances()]
    assert len(spaces) == 16
    spaces += [p2_surface(), blowup_p2_surface(), enriques_surface(),
               abelian_like_surface()]
    spaces += [k3_surface(rho) for rho in (0, 1, 10, 20)]
    spaces += [ruled_surface(g) for g in range(4)]
    for space in spaces:
        assert_picard_matches_references(space)
