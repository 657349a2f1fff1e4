"""The group kernel's per-entry work in C builtins, and KO/K from one Sq2 rank
per row, against the routes they replaced.

``reference_mat_mul``, ``reference_f2_mul``, ``reference_f2_echelon``,
``reference_f2_rank``, the ``__post_init__`` bodies of ``ReferenceSymGroup``
and ``ReferenceGroupMap``, ``reference_composite_is_zero``,
``reference_cokernel_map`` and ``reference_kok`` are ``mat_mul``, ``f2_mul``,
``_f2_echelon``, ``f2_rank``, the two constructors' checks,
``composite_is_zero``, ``cokernel_map`` and ``kok`` as they stood when each
walked every entry in a Python generator (``kok`` composing Sq2 with pi2 for
every shift), copied verbatim with the helpers they read (only renamed).
``f2_mul`` is gone: ``reference_f2_mul`` is now the oracle of
``spaces.sq2_integral``, which sums Sq2 after pi2 by rows. On drawn
matrices, groups and maps every entry point must give the same value, or
raise the same exception type with the same message. The one departure is
intended: a ragged operand of ``mat_mul`` or ``sq2_integral`` is now refused
with ``ShapeMismatch``, where the old product truncated or raised a bare
``IndexError``. The echelon's pivots may differ as vectors (each is
reduced only until its lowest bit is new); their lowest bits, in order, and
their span may not.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
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

from wittkit import compare, groups, specseq, topko, witt
from wittkit.catalog import catalog_get, catalog_instances
from wittkit.compare import compare_w_kok
from wittkit.errors import DegreeOutOfRange, ShapeMismatch, UnsupportedDivisibleMap
from wittkit.groups import (
    TRIVIAL,
    Z,
    GroupMap,
    SymGroup,
    composite_is_zero,
    cokernel_map,
    elementary_two,
    even_count,
    f2_rank,
    is_elementary_two,
    mat_mul,
    mod2_rank,
    relation_rows,
    transpose,
)
from wittkit.spaces import (
    MOD2,
    SpaceDescriptor,
    cohomology,
    make_curve,
    make_point,
    mod2_betti,
    sq2_integral,
)
from wittkit.specseq import ahss_k_page, ahss_ko_page
from wittkit.topko import ko_table, kok, kok_row, mod2_ranks
from wittkit.witt import ODD_TWIST, TRIVIAL_TWIST, check_twist, karoubi_check, witt_table

# ---------------------------------------------------------------------------
# the replaced routes, verbatim


def reference_mat_mul(a, b, b_cols: int | None = None):
    """a (p x q) times b (q x r); pass b_cols when b has no rows."""
    nc = b_cols if b_cols is not None else (len(b[0]) if b else 0)
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch("inner dimensions disagree: %d vs %d" % (len(a[0]), len(b)))
    return tuple([
        tuple([sum(row[k] * b[k][j] for k in range(len(b))) for j in range(nc)])
        for row in a
    ])


def reference_column(m, j: int, nrows: int):
    return tuple([m[i][j] for i in range(nrows)])


def reference_f2_echelon(vectors) -> list:
    """Echelon form over F2 of vectors mod 2: bitmasks, distinct lowest bits."""
    pivots = []
    for vec in vectors:
        bits = 0
        for j, x in enumerate(vec):
            if x & 1:
                bits |= 1 << j
        for p in pivots:
            if bits & p & -p:
                bits ^= p
        if bits:
            pivots.append(bits)
    return pivots


def reference_f2_rank(m) -> int:
    """Rank over F2; integer entries are reduced mod 2."""
    return len(reference_f2_echelon(m))


def reference_f2_mul(a, b, b_cols: int | None = None):
    return tuple([tuple([x % 2 for x in row]) for row in reference_mat_mul(a, b, b_cols)])


@dataclass(frozen=True)
class ReferenceSymGroup:
    free_rank: int = 0
    torsion: tuple = ()
    divisible_rank: int = 0

    def __post_init__(self):
        tor = tuple(self.torsion)
        object.__setattr__(self, "torsion", tor)
        if not all(isinstance(x, int) for x in (self.free_rank, self.divisible_rank) + tor):
            raise ValueError("SymGroup ranks and invariant factors must be ints")
        if self.free_rank < 0 or self.divisible_rank < 0:
            raise ValueError("negative rank in SymGroup")
        for d in tor:
            if d < 2:
                raise ValueError("invariant factors must be >= 2, got %r" % (d,))
        for a, b in zip(tor, tor[1:]):
            if b % a:
                raise ValueError("invariant factors %d | %d fail divisibility" % (a, b))


def reference_in_relation_lattice(vec, g: SymGroup) -> bool:
    for r in range(g.free_rank):
        if vec[r]:
            return False
    for i, d in enumerate(g.torsion):
        if vec[g.free_rank + i] % d:
            return False
    return True


@dataclass(frozen=True)
class ReferenceGroupMap:
    domain: SymGroup
    codomain: SymGroup
    matrix: tuple

    def __post_init__(self):
        mat = tuple([tuple(row) for row in self.matrix])
        object.__setattr__(self, "matrix", mat)
        if not all(isinstance(x, int) for row in mat for x in row):
            raise ValueError("GroupMap matrix entries must be ints")
        if len(mat) != self.codomain.ngens or any(
            len(row) != self.domain.ngens for row in mat
        ):
            raise ShapeMismatch(
                "matrix must be %dx%d (codomain x domain generators)"
                % (self.codomain.ngens, self.domain.ngens)
            )
        if self.domain.divisible_rank or self.codomain.divisible_rank:
            raise UnsupportedDivisibleMap(
                "a GroupMap takes no divisible summand on either side")
        # the matrix must send domain relations into the codomain lattice
        for i, d in enumerate(self.domain.torsion):
            col = reference_column(mat, self.domain.free_rank + i, self.codomain.ngens)
            if not reference_in_relation_lattice([d * c for c in col], self.codomain):
                raise ValueError(
                    "matrix does not respect relations: generator of order %d "
                    "has image of larger order" % d
                )


def reference_composite_is_zero(f: GroupMap, g: GroupMap) -> bool:
    if f.codomain != g.domain:
        raise ShapeMismatch("maps are not composable")
    prod = reference_mat_mul(g.matrix, f.matrix, f.domain.ngens)
    nc = g.codomain.ngens
    return all(
        reference_in_relation_lattice(reference_column(prod, j, nc), g.codomain)
        for j in range(f.domain.ngens)
    )


def reference_cokernel_map(f: GroupMap):
    b = f.codomain
    n = b.ngens
    if is_elementary_two(b):
        piv = {(v & -v).bit_length() - 1: v for v in reference_f2_echelon(zip(*f.matrix))}
        for p in sorted(piv, reverse=True):  # back-substitute: fully reduced
            for q, v in piv.items():
                if q < p and v >> p & 1:
                    piv[q] = v ^ piv[p]
        rows = [[0] * n for _ in range(n - len(piv))]
        for row, i in zip(rows, (i for i in range(n) if i not in piv)):
            row[i] = 1
            for q, v in piv.items():
                row[q] = v >> i & 1
        coker = elementary_two(len(rows))
        return coker, GroupMap(b, coker, rows)
    rel = tuple([reference_column(f.matrix, j, n)
                 for j in range(f.domain.ngens)]) + relation_rows(b)
    u1, s1, _ = groups._smith(transpose(rel, n), n, len(rel), True, False)
    k = min(n, len(rel))
    free_idx = [i for i in range(n) if i >= k or s1[i][i] == 0]
    tor_idx = [i for i in range(k) if s1[i][i] >= 2]
    coker = SymGroup(len(free_idx), tuple([s1[i][i] for i in tor_idx]), 0)
    proj = GroupMap(b, coker, tuple([u1[i] for i in free_idx + tor_idx]))
    return coker, proj


def reference_kok_count(h_int: tuple, sq2_rank: int, i: int) -> int:
    h = h_int + (TRIVIAL,) * (6 - len(h_int))

    def h_mod2(p):  # rank of H^p(Z/2), by universal coefficients
        return mod2_rank(h[p]) + even_count(h[p + 1])

    i %= 4
    if i == 0:
        # the torsion of H^3 counts the cokernel of H^2(Z)/2 -> H^2(Z/2)
        return 1 + h_mod2(1) + even_count(h[3])
    if i == 1:
        return mod2_rank(h[2]) - sq2_rank + h_mod2(3)
    if i == 2:
        return h_mod2(4) - sq2_rank
    return 0


def reference_kok(space: SpaceDescriptor, shift: int, twist=TRIVIAL_TWIST) -> SymGroup:
    """KO^shift/K of the space, shift even, eight-periodic."""
    if shift % 2:
        raise DegreeOutOfRange("KO/K quotients live in even shifts only")
    tw = check_twist(space, twist)
    i = (shift % 8) // 2
    if tw == ODD_TWIST:
        # KO^n(C; L) is the reduced KO^(n+2) of the Thom space of L; by Wu's
        # formula Sq2 of its Thom class is w2(L) = deg L mod 2, the top class
        thom = (Z, TRIVIAL) + space.h_int_table
        count = reference_kok_count(thom, 1, i + 1) - reference_kok_count((Z,), 0, i + 1)
    else:
        count = reference_kok_count(space.h_int_table, f2_rank(sq2_integral(space)), i)
    return elementary_two(count)


# ---------------------------------------------------------------------------
# helpers


def outcome(call, *args):
    """('ok', value) or (exception type, message)."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # any type: the two routes must raise alike
        return (type(exc), str(exc))


def ragged(a, b, b_cols):
    nc = b_cols if b_cols is not None else (len(b[0]) if b else 0)
    return len({len(row) for row in a}) > 1 or any(len(row) != nc for row in b)


ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.integers(-(2 ** 80), 2 ** 80),
    st.fractions(max_denominator=5).filter(lambda x: x.denominator > 1),
    st.floats(-4, 4, allow_nan=False).filter(lambda x: x != int(x)),
)
INT_ENTRIES = st.one_of(st.integers(-3, 3), st.booleans(), st.integers(-(2 ** 80), 2 ** 80))


def matrix(draw, rows, cols, entries=ENTRIES):
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


@st.composite
def products(draw):
    p, q, r = (draw(st.integers(0, 4)) for _ in range(3))
    entries = draw(st.sampled_from((INT_ENTRIES, ENTRIES)))
    a, b = list(matrix(draw, p, q, entries)), list(matrix(draw, q, r, entries))
    b_cols = draw(st.sampled_from((None, r))) if b else draw(st.integers(0, 3))
    if draw(st.booleans()):  # break a shape: a short or long row, a wrong inner size
        which = draw(st.sampled_from(("a", "b", "inner")))
        rows = a if which == "a" else b
        if which == "inner":
            a = [row + (1,) for row in a]
        elif rows:
            k = draw(st.integers(0, len(rows) - 1))
            rows[k] = rows[k][:-1] if rows[k] and draw(st.booleans()) else rows[k] + (2,)
    return tuple(a), tuple(b), b_cols


# ---------------------------------------------------------------------------
# products


@settings(max_examples=400, deadline=None)
@given(products())
def test_products_match_the_generator_route(drawn):
    a, b, b_cols = drawn
    if ragged(a, b, b_cols):
        with pytest.raises(ShapeMismatch):
            mat_mul(a, b, b_cols)
    else:
        assert outcome(mat_mul, a, b, b_cols) == outcome(reference_mat_mul, a, b, b_cols)


def test_ragged_operands_are_refused():
    # the old product truncated the long row and indexed past the short one
    assert reference_mat_mul(((1, 2), (3, 4, 5)), ((1,), (1,))) == ((3,), (7,))
    with pytest.raises(IndexError):
        reference_mat_mul(((1, 2), (3,)), ((1,), (1,)))
    with pytest.raises(IndexError):
        reference_mat_mul(((1, 2),), ((1, 1), (1,)))
    for a, b in ((((1, 2), (3, 4, 5)), ((1,), (1,))), (((1, 2), (3,)), ((1,), (1,))),
                 (((1, 2),), ((1, 1), (1,)))):
        with pytest.raises(ShapeMismatch, match="ragged operand"):
            mat_mul(a, b)
    with pytest.raises(ShapeMismatch, match="ragged operand"):
        mat_mul(((1,),), ((1, 1),), 3)  # b_cols disagrees with b's rows
    assert mat_mul(((1, 2),), (), 2) == reference_mat_mul(((1, 2),), (), 2) == ((0, 0),)


# ---------------------------------------------------------------------------
# Sq2 after pi2, by rows


def assert_sq2_is_the_f2_product(space):
    assert sq2_integral(space) == reference_f2_mul(space.sq2, space.pi2), str(space)


def test_sq2_integral_is_the_f2_product_on_the_catalog():
    for name in catalog_instances():
        assert_sq2_is_the_f2_product(catalog_get(name).descriptor)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(projective_surfaces())
def test_sq2_integral_is_the_f2_product_on_generated_surfaces(drawn):
    assert_sq2_is_the_f2_product(drawn[0])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(open_surfaces())
def test_sq2_integral_is_the_f2_product_on_open_surfaces(drawn):
    assert_sq2_is_the_f2_product(drawn[0])


@settings(max_examples=400, deadline=None)
@given(products())
def test_sq2_integral_is_the_f2_product_on_drawn_matrices(drawn):
    # integer entries only: the F2 matrices of a descriptor are ints
    sq2, pi2, b_cols = drawn
    assume(all(type(x) in (int, bool) for row in sq2 + pi2 for x in row))
    space = SpaceDescriptor(sq2=sq2, pi2=pi2)
    if ragged(sq2, pi2, None):
        with pytest.raises(ShapeMismatch):
            sq2_integral(space)
    elif pi2 or b_cols in (None, 0):  # the product reads its width off pi2
        assert outcome(sq2_integral, space) == outcome(reference_f2_mul, sq2, pi2)


@pytest.mark.parametrize("name", ["blowup_p2", "enriques", "k3?rho=20", "ruled?g=2"])
def test_a_descriptor_forced_ragged_is_refused(name):
    # replace runs no check of make_surface, so a ragged operand reaches the product
    space = catalog_get(name).descriptor
    short_pi2 = space.pi2[:-1] + (space.pi2[-1][:-1],)
    two_sq2_rows = space.sq2 + (space.sq2[0] + (0,),)
    for forced in (replace(space, pi2=short_pi2), replace(space, sq2=two_sq2_rows)):
        for call in (sq2_integral, ahss_ko_page):
            with pytest.raises(ShapeMismatch, match="ragged operand"):
                call(forced)


# ---------------------------------------------------------------------------
# the F2 echelon


def bits_to_vector(bits, n):
    return tuple(bits >> j & 1 for j in range(n))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(0, 1), INT_ENTRIES), min_size=n, max_size=n),
    max_size=9)))
def test_echelon_keeps_the_pivot_set_and_span(vectors):
    new, old = groups._f2_echelon(vectors), reference_f2_echelon(vectors)
    assert [v & -v for v in new] == [v & -v for v in old]
    assert f2_rank(vectors) == reference_f2_rank(vectors) == len(old)
    n = max((len(v) for v in vectors), default=0)
    both = [bits_to_vector(v, n) for v in new + old]
    assert reference_f2_rank(both) == len(old)


@pytest.mark.parametrize("vectors", [
    ((1, 0.5),), ((Fraction(1, 2),),), (("x",),), 5, ((1,), 7), ((1, None),)])
def test_echelon_refuses_what_it_refused(vectors):
    assert outcome(groups._f2_echelon, vectors)[0] != "ok"
    assert outcome(f2_rank, vectors) == outcome(reference_f2_rank, vectors)


# ---------------------------------------------------------------------------
# the constructors' checks

RANKS = st.one_of(st.integers(-2, 4), st.booleans(), st.just(1.0), st.just(None))
FACTORS = st.one_of(st.integers(-3, 40), st.booleans(), st.just(2.0),
                    st.integers(2 ** 70, 2 ** 71))


@st.composite
def chains(draw):
    """Invariant-factor chains (built by multiplying up) or arbitrary lists."""
    if draw(st.booleans()):
        return draw(st.lists(FACTORS, max_size=6))
    out, d = [], draw(st.integers(2, 6))
    for _ in range(draw(st.integers(0, 5))):
        out.append(d)
        d *= draw(st.integers(1, 3))
    return out


@settings(max_examples=500, deadline=None)
@given(RANKS, chains(), RANKS)
def test_group_checks_match(free_rank, torsion, divisible_rank):
    new = outcome(SymGroup, free_rank, torsion, divisible_rank)
    old = outcome(ReferenceSymGroup, free_rank, torsion, divisible_rank)
    if old[0] == "ok":
        assert new[0] == "ok"
        assert (new[1].free_rank, new[1].torsion, new[1].divisible_rank) == (
            old[1].free_rank, old[1].torsion, old[1].divisible_rank)
    else:
        assert new == old


SMALL_GROUPS = [SymGroup(f, t) for f in (0, 1, 2)
                for t in ((), (2,), (3,), (2, 2), (2, 4), (6,), (2, 6), (4, 8), (3, 9, 18))]


def respecting(draw, dom, cod, entries=st.integers(-9, 9)):
    """Random entries, most columns scaled so the map respects relations."""
    rows = []
    for r in range(cod.ngens):
        row = []
        for j in range(dom.ngens):
            x = draw(entries)
            if j >= dom.free_rank and draw(st.integers(0, 5)):
                d = dom.torsion[j - dom.free_rank]
                e = cod.torsion[r - cod.free_rank] if r >= cod.free_rank else 0
                x = 0 if e == 0 else x * (e // gcd(e, d))
            row.append(x)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def drawn_maps(draw):
    dom, cod = draw(st.sampled_from(SMALL_GROUPS)), draw(st.sampled_from(SMALL_GROUPS))
    mat = respecting(draw, dom, cod, draw(st.sampled_from((st.integers(-9, 9), ENTRIES))))
    twist = draw(st.integers(0, 9))
    if twist == 0 and mat and mat[0]:  # a short row
        mat = (mat[0][:-1],) + mat[1:]
    elif twist == 1:  # a missing row
        mat = mat[:-1]
    elif twist == 2:
        dom = SymGroup(dom.free_rank, dom.torsion, 1)
    elif twist == 3:
        cod = SymGroup(cod.free_rank, cod.torsion, 2)
    return dom, cod, mat


def map_outcome(cls, dom, cod, mat):
    """('ok', stored matrix) or (exception type, message)."""
    kind, value = outcome(cls, dom, cod, mat)
    return (kind, value.matrix) if kind == "ok" else (kind, value)


@settings(max_examples=600, deadline=None)
@given(drawn_maps())
def test_map_checks_match(drawn):
    dom, cod, mat = drawn
    assert map_outcome(GroupMap, dom, cod, mat) == map_outcome(ReferenceGroupMap, dom, cod, mat)


def test_bad_map_reports_the_first_failing_generator():
    dom, cod = SymGroup(1, (2, 4, 8)), SymGroup(0, (16,))
    for mat, order in ((((0, 1, 1, 1),), 2), (((0, 8, 1, 1),), 4), (((0, 8, 4, 1),), 8),
                       (((5, 8, 4, 2),), None), (((1, 1, 4, 2),), 2)):
        new = map_outcome(GroupMap, dom, cod, mat)
        assert new == map_outcome(ReferenceGroupMap, dom, cod, mat)
        if order is None:
            assert new == ("ok", mat)
        else:
            assert new == (ValueError, "matrix does not respect relations: generator of "
                           "order %d has image of larger order" % order)
    # a factor dividing the domain's first order imposes nothing: any entries go
    assert GroupMap(SymGroup(0, (4, 8)), SymGroup(0, (2, 4)), ((1, 1), (1, 3))).matrix


# ---------------------------------------------------------------------------
# maps: composites and cokernels


def map_or_none(draw, dom, cod, entries=INT_ENTRIES):
    try:
        return GroupMap(dom, cod, respecting(draw, dom, cod, entries))
    except ValueError:
        return None


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data())
def test_composites_match(data):
    draw = data.draw
    a, b, c = (draw(st.sampled_from(SMALL_GROUPS)) for _ in range(3))
    f, g = map_or_none(draw, a, b), map_or_none(draw, b, c)
    if f is None or g is None:
        return
    assert composite_is_zero(f, g) == reference_composite_is_zero(f, g)
    other = draw(st.sampled_from(SMALL_GROUPS))
    g2 = map_or_none(draw, other, c)
    if g2 is not None:
        assert outcome(composite_is_zero, f, g2) == outcome(reference_composite_is_zero, f, g2)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(st.data())
def test_cokernels_match(data):
    draw = data.draw
    a = draw(st.sampled_from(SMALL_GROUPS))
    b = draw(st.one_of(st.builds(elementary_two, st.integers(0, 7)),
                       st.sampled_from(SMALL_GROUPS)))
    f = map_or_none(draw, a, b)
    if f is None:
        return
    assert cokernel_map(f) == reference_cokernel_map(f)


# ---------------------------------------------------------------------------
# KO/K: one Sq2 rank per row


def spaces():
    out = [make_point()]
    out += [make_curve(True, g) for g in range(0, 30, 3)]
    out += [make_curve(False, g, n) for g in range(0, 6, 2) for n in range(1, 5)]
    out += [catalog_get(name).descriptor for name in catalog_instances()]
    out += [p2_surface(), blowup_p2_surface(), enriques_surface(), abelian_like_surface()]
    out += [k3_surface(r) for r in (0, 7, 20)] + [ruled_surface(g) for g in (0, 3)]
    return out


def assert_kok_rows_match(space):
    for tw in (TRIVIAL_TWIST, ODD_TWIST, "O(q)", None):
        for shift in range(-3, 10):
            where = (str(space), tw, shift)
            assert outcome(kok, space, shift, tw) == outcome(reference_kok, space, shift, tw), where
        row = outcome(kok_row, space, tw)
        if row[0] == "ok":
            assert row[1] == tuple(reference_kok(space, 2 * i, tw) for i in range(4))
            assert ko_table(space, tw).kok == row[1]
        else:
            assert row == outcome(reference_kok, space, 0, tw)


def test_kok_rows_match_on_fixed_spaces():
    for space in spaces():
        assert_kok_rows_match(space)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(projective_surfaces().map(lambda d: d[0]), open_surfaces().map(lambda d: d[0])))
def test_kok_rows_match_on_generated_surfaces(space):
    assert_kok_rows_match(space)


def count_calls(monkeypatch, module, name):
    calls = []
    core = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return core(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("space", [k3_surface(10), enriques_surface(), make_curve(True, 2)],
                         ids=str)
def test_sq2_is_composed_once_per_page_and_row(monkeypatch, space):
    in_topko = count_calls(monkeypatch, topko, "sq2_integral")
    in_specseq = count_calls(monkeypatch, specseq, "sq2_integral")
    ahss_ko_page(space)
    assert len(in_specseq) == 1
    ahss_k_page(space)
    assert len(in_specseq) == 1  # no Z/2 row, no d2
    for call in (kok_row, ko_table):
        in_topko.clear()
        call(space)
        assert len(in_topko) == 1, call
    in_topko.clear()
    ranks = mod2_ranks(space)
    assert len(in_topko) == (ranks.kok is not None)  # none when eta-obstructed
    in_topko.clear()
    compare_w_kok(space)
    # a shift-0 mismatch reads its reduced ranks off the rows it holds
    assert len(in_topko) == 1


def test_catalog_surfaces_multiply_no_integer_matrices(monkeypatch):
    # Sq2 after pi2 is summed by rows: building the surfaces and running the
    # three engines and the tables on them multiplies no integer matrices
    products = count_calls(monkeypatch, groups, "mat_mul")
    names = [name for name in catalog_instances() if catalog_get(name).descriptor.dim == 2]
    assert len(names) == 8
    for name in names:
        space = catalog_get(name).descriptor
        for call in (specseq.ahss_ko, specseq.ahss_k, specseq.pardon_stable, witt_table,
                     ko_table, compare_w_kok):
            call(space)
    assert products == []
    groups.mat_mul(((1,),), ((1,),))  # the counter sees a product
    assert len(products) == 1


@pytest.mark.parametrize("twist", [TRIVIAL_TWIST, ODD_TWIST])
def test_twist_is_validated_once(monkeypatch, twist):
    calls = count_calls(monkeypatch, witt, "check_twist")
    space = make_curve(True, 5)
    for call in (karoubi_check, witt_table):
        calls.clear()
        call(space, twist)
        assert len(calls) == 1, call


def test_each_twisted_table_reads_the_thom_model_once(monkeypatch):
    # W and KO/K of a curve under O(p) are read off one Thom-space model per
    # row; an untwisted table never builds it
    importers = [m for m in (compare, specseq, topko, witt) if hasattr(m, "thom_space")]
    assert importers
    reads = [count_calls(monkeypatch, module, "thom_space") for module in importers]
    space = make_curve(True, 5)
    for call, twisted in ((witt_table, 1), (ko_table, 1), (karoubi_check, 1), (compare_w_kok, 2)):
        for twist, expected in ((TRIVIAL_TWIST, 0), (ODD_TWIST, twisted)):
            for calls in reads:
                calls.clear()
            call(space, twist)
            assert sum(map(len, reads)) == expected, (call, twist)


def test_mod2_betti_reads_the_mod2_cohomology():
    for space in spaces():
        for p in range(0, 7):
            want = cohomology(space, p, MOD2).ngens
            assert mod2_betti(space.h_int_table, p) == want, (str(space), p)
        assert mod2_betti(space.h_int_table, -1) == 0
