"""Generated surfaces against the engines.

The projective strategy draws valid projective surface descriptors: b1
even, b2 at least 1, one torsion part shared by H^2 and H^3 (duality), a
Picard rank rho in 0..b2, and F2 matrices of the shapes the loader asks for.
For each drawn surface the closed forms must agree with the spectral-sequence
engines, and the comparison, eta and hermitian verdicts must follow from
rho = b2 and the 2-rank nu of the torsion alone. The non-projective strategy
drops duality: b1 and b3 and the torsion of H^2 and H^3 are drawn apart, and
H^4 is Z or 0; the comparison verdict still follows from rho = b2. On both,
KO/K must equal ``reference_kok``, the surface formula as it stood before
KO/K was read off cell counts, and W and every engine's resolved groups
must equal ``reference_w_surface`` and ``reference_resolved_group``, the
direct-sum assembly W had before it was read off summand counts. The Pardon
page, the eta check and K_0 must also equal the per-kind routes they had
before W of every space was one count, and the Picard readers and the twist
rule the routes they had before every space carried its Picard data.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_curve_rows import assert_kok_matches_reference
from test_picard_rows import assert_picard_matches_references
from test_space_rows import assert_matches_references
from test_surface_rows import assert_w_matches_reference

from wittkit.compare import SURFACE_ISO, compare_w_kok
from wittkit.groups import TRIVIAL, Z, SymGroup, even_count, mod2_rank
from wittkit.spaces import make_surface
from wittkit.specseq import pardon_stable
from wittkit.topko import eta_iso_check, ql_hermitian_verdict
from wittkit.witt import w_surface

TORSION = ((), (2,), (2, 2), (3,), (4,), (2, 6))


def _bits(draw, rows, cols):
    return [[draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]


def _injective_pi2(draw, m2, t3):
    """pi2: H^2(Z)/2 (m2 generators) into H^2(Z/2), which has t3 more
    generators for the 2-torsion of H^3; full column rank by the identity."""
    rows = [[int(i == j) for j in range(m2)] for i in range(m2)] + _bits(draw, t3, m2)
    return draw(st.permutations(rows))


@st.composite
def projective_surfaces(draw):
    b1 = draw(st.sampled_from((0, 2, 4, 6)))
    b2 = draw(st.integers(1, 12))
    torsion = draw(st.sampled_from(TORSION))
    nu = even_count(SymGroup(0, torsion))
    rho = draw(st.integers(0, b2))
    h_int = (Z, SymGroup(b1), SymGroup(b2, torsion), SymGroup(b1, torsion), Z)
    m2 = b2 + nu
    pi2 = _injective_pi2(draw, m2, nu)
    sq2 = _bits(draw, 1, m2 + nu)
    s1 = _bits(draw, 1, rho + nu) if rho < b2 else None
    return make_surface(True, h_int, nu, rho, 1, sq2, pi2, s1), b2, nu


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projective_surfaces())
def test_generated_surfaces_match_the_engines(drawn):
    space, b2, nu = drawn
    rep = pardon_stable(space)
    for i in range(4):
        if rep.resolved_group(i) is not None:
            assert rep.resolved_group(i) == w_surface(space, i), i
    onto = space.rho == b2
    assert (compare_w_kok(space).verdict == SURFACE_ISO) == onto
    # eta_iso_check raises if KO/K and the AHSS disagree
    assert eta_iso_check(space) == (nu == 0)
    assert ql_hermitian_verdict(space).verdict == (onto and nu == 0)
    assert_kok_matches_reference(space)
    assert_w_matches_reference(space)
    assert_matches_references(space)
    assert_picard_matches_references(space)


@st.composite
def open_surfaces(draw):
    b1, b2, b3 = (draw(st.integers(0, 6)), draw(st.integers(0, 10)),
                  draw(st.integers(0, 6)))
    t2, t3 = draw(st.sampled_from(TORSION)), draw(st.sampled_from(TORSION))
    h4 = draw(st.sampled_from((Z, TRIVIAL)))
    nu = even_count(SymGroup(0, t2))
    rho = draw(st.integers(0, b2))
    h_int = (Z, SymGroup(b1), SymGroup(b2, t2), SymGroup(b3, t3), h4)
    m2, nt3 = b2 + nu, even_count(SymGroup(0, t3))
    pi2 = _injective_pi2(draw, m2, nt3)
    sq2 = _bits(draw, mod2_rank(h4), m2 + nt3)
    s1 = _bits(draw, mod2_rank(h4), rho + nu) if rho < b2 else None
    return make_surface(False, h_int, nu, rho, mod2_rank(h4), sq2, pi2, s1), nt3


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(open_surfaces())
def test_generated_open_surfaces_match_the_engines(drawn):
    space, nt3 = drawn
    rep = pardon_stable(space)
    for i in range(4):
        if rep.resolved_group(i) is not None:
            assert rep.resolved_group(i) == w_surface(space, i), i
    # with rho = b2 every shift agrees, projective or not; below it W^0 is larger
    onto = space.rho == space.h_int_table[2].free_rank
    assert (compare_w_kok(space).verdict == SURFACE_ISO) == onto
    # eta_iso_check raises if KO/K and the AHSS disagree; K^1 has 2-torsion
    # exactly when H^3 does
    assert eta_iso_check(space) == (nt3 == 0)
    assert_kok_matches_reference(space)
    assert_w_matches_reference(space)
    assert_matches_references(space)
    assert_picard_matches_references(space)
