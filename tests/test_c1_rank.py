"""The rank of c1 read off rho + nu, against the F2 rank of pi2 on the Picard
columns.

``c1_rank`` returns rho + nu, the rank of Pic/2: every constructor gives pi2
full column rank b2 + nu, and the Picard columns are rho + nu of those
columns. ``assert_picard_matches_references`` ranks
``reference_picard_image_matrix`` as the oracle on the point, curves, the
catalog instances, the sample surfaces and the generated projective and open
surfaces. Here the oracle
also runs on every catalog entry, and on surfaces whose pi2 is a random
full-column-rank F2 matrix rather than an identity with extra rows, with
nu > 0 and 2-torsion in H^3; on those the W rows and the Pardon page must
also equal the reference routes that rank pi2 themselves.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sample_spaces import reference_picard_image_matrix
from test_generated_surfaces import TORSION, _bits
from test_picard_rows import assert_picard_matches_references
from test_space_rows import assert_matches_references
from test_surface_rows import assert_w_matches_reference

from wittkit.catalog import MAX_GENUS, MAX_K3_RHO, catalog_get
from wittkit.groups import TRIVIAL, Z, SymGroup, even_count, f2_rank, mod2_rank
from wittkit.spaces import c1_rank, make_surface


def test_every_catalog_entry():
    names = ["point", "p1", "p2", "blowup_p2", "enriques"]
    names += ["k3?rho=%d" % rho for rho in range(MAX_K3_RHO + 1)]
    names += ["ruled?g=%d" % g for g in range(MAX_GENUS + 1)]
    names += ["curve?g=%d" % g for g in range(MAX_GENUS + 1)]
    names += ["affine_curve?g=%d&n=%d" % (g, n) for g in range(MAX_GENUS + 1)
              for n in range(1, 6)]
    for name in names:
        space = catalog_get(name).descriptor
        assert c1_rank(space) == f2_rank(reference_picard_image_matrix(space)), name


def _generic_pi2(draw, m2, t3):
    """A random m2 + t3 by m2 F2 matrix of full column rank: the identity over
    t3 random rows, mixed by random row additions, which keep the column
    rank and reach every such matrix."""
    rows = [[int(i == j) for j in range(m2)] for i in range(m2)] + _bits(draw, t3, m2)
    n = len(rows)
    if n > 1:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                  .filter(lambda ij: ij[0] != ij[1]), max_size=3 * n)):
            rows[j] = [(x + y) % 2 for x, y in zip(rows[j], rows[i])]
    assert f2_rank(rows) == m2
    return rows


@st.composite
def generic_surfaces(draw):
    """Projective and open surfaces with a generic pi2; the torsion lists
    give nu > 0 and 2-torsion in H^3 in most draws."""
    projective = draw(st.booleans())
    t2 = draw(st.sampled_from(TORSION))
    if projective:
        b1 = draw(st.sampled_from((0, 2, 4)))
        b2 = draw(st.integers(1, 8))
        h_int = (Z, SymGroup(b1), SymGroup(b2, t2), SymGroup(b1, t2), Z)
    else:
        b2 = draw(st.integers(0, 8))
        h_int = (Z, SymGroup(draw(st.integers(0, 4))), SymGroup(b2, t2),
                 SymGroup(draw(st.integers(0, 4)), draw(st.sampled_from(TORSION))),
                 draw(st.sampled_from((Z, TRIVIAL))))
    nu, nt3, ch2 = even_count(h_int[2]), even_count(h_int[3]), mod2_rank(h_int[4])
    rho = draw(st.integers(0, b2))
    m2 = b2 + nu
    pi2 = _generic_pi2(draw, m2, nt3)
    sq2 = _bits(draw, ch2, m2 + nt3)
    s1 = _bits(draw, ch2, rho + nu) if rho < b2 else None
    return make_surface(projective, h_int, nu, rho, ch2, sq2, pi2, s1)


# two surfaces with a generic pi2, nu > 0 and 2-torsion in H^3: a projective
# one, whose H^3 torsion matches H^2, and an open one whose H^3 has more
# 2-torsion than H^2
FIXED_GENERIC = (
    make_surface(True, (Z, TRIVIAL, SymGroup(2, (2,)), SymGroup(0, (2,)), Z), 1, 1, 1,
                 ((1, 0, 1, 1),), ((1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)), ((1, 0),)),
    make_surface(False, (Z, SymGroup(1), SymGroup(1, (2,)), SymGroup(0, (2, 2)), TRIVIAL),
                 1, 0, 0, (), ((1, 1), (1, 0), (0, 0), (1, 1)), ()),
)


def assert_generic_surface(space):
    assert_picard_matches_references(space)
    assert_w_matches_reference(space)
    assert_matches_references(space)


def test_fixed_surfaces_with_a_generic_pi2():
    for space in FIXED_GENERIC:
        assert space.nu > 0 and even_count(space.h_int_table[3]) > 0
        assert_generic_surface(space)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generic_surfaces())
def test_drawn_surfaces_with_a_generic_pi2(space):
    assert_generic_surface(space)
