"""Core group arithmetic, checked against independent oracles.

The oracles never call into the code under test: determinants come from a
fraction-free Bareiss elimination, invariant factors from gcds of minors,
group structure from brute-force element counting, and F2 ranks from image
enumeration. The Smith normal form is also checked against a frozen copy of
its earlier, unoptimised elimination, which must give the same transforms,
homology against a frozen copy of its integer-only route, which must give
the same group, direct sums and group parsing against frozen copies of
their one-elimination-per-summand folds, which must give the same groups,
and the cokernel projection into elementary 2-groups against a frozen copy
of its elimination route, which must give the same cokernel. The row tests'
oracle ``reference_cancel`` (in ``sample_spaces``) is checked here as well.
"""

import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sample_spaces import reference_cancel

import wittkit
from wittkit.errors import (
    InvariantViolation,
    RenderParseError,
    ShapeMismatch,
    UnsupportedDivisibleMap,
)
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    ExactnessReport,
    GroupMap,
    SymGroup,
    built_map,
    check_exact,
    cokernel,
    cokernel_map,
    composite_is_zero,
    cyclic,
    direct_sum,
    direct_sum_all,
    divisible,
    elementary_two,
    even_count,
    exponent_two,
    f2_rank,
    free,
    from_counts,
    group_from_presentation,
    homology_at,
    identity,
    image_rank2,
    is_elementary_two,
    kernel,
    mat_mul,
    mod2,
    mod2_generators,
    mod2_rank,
    nullspace,
    parse_group,
    relation_rows,
    render,
    snf,
    snf_diagonal,
    transpose,
    two_torsion,
    zero_map,
)
from wittkit import groups

# ---------------------------------------------------------------------------
# oracles


def bareiss_det(m):
    """Fraction-free determinant; exact for integer matrices."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def minor_gcd(m, rows, cols, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    g = 0
    for rs in itertools.combinations(range(rows), k):
        for cs in itertools.combinations(range(cols), k):
            sub = [[m[i][j] for j in cs] for i in rs]
            g = math.gcd(g, bareiss_det(sub))
    return g


def rank_q(m, rows, cols):
    """Rank over the rationals by plain Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(rows):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def prime_power_multiset(factors):
    """Decompose invariant factors into prime powers; order-insensitive."""
    out = []
    for d in factors:
        n = d
        p = 2
        while p * p <= n:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
        if n > 1:
            out.append(n)
    return sorted(out)


def elements(g):
    """All elements of a finite group in canonical coordinates."""
    assert g.free_rank == 0 and g.divisible_rank == 0
    return list(itertools.product(*(range(d) for d in g.torsion)))


def apply_map(f, x):
    """Image of x under f, reduced into codomain coordinates."""
    b = f.codomain
    y = [sum(f.matrix[i][j] * x[j] for j in range(len(x))) for i in range(b.ngens)]
    for i, d in enumerate(b.torsion):
        y[b.free_rank + i] %= d
    return tuple(y)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# The Smith normal form as it stood before its pivot search, divisibility
# sweep and transforms were made cheaper, copied verbatim (only renamed).
# The current elimination must make the same pivot choices and the same row
# and column operations, so it returns the same (U, S, V) on every input.


def _swap_rows(a, u, i, j):
    if i != j:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, mult):
    # row_dst += mult * row_src
    if mult:
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + mult * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, mult):
    if mult:
        for row in a:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]


def reference_snf(m, rows: int | None = None, cols: int | None = None):
    """Smith normal form with transforms: returns (U, S, V) with U*m*V = S.

    U and V are unimodular, S is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ... Zeros come last.
    """
    nr = rows if rows is not None else len(m)
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    a = [list(map(int, row)) for row in m]
    if len(a) != nr or any(len(row) != nc for row in a):
        raise ShapeMismatch("matrix shape does not match declared %dx%d" % (nr, nc))
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    t = 0
    while t < min(nr, nc):
        # smallest nonzero entry of the trailing block becomes the pivot
        best, pi, pj = 0, -1, -1
        for i in range(t, nr):
            for j in range(t, nc):
                e = abs(a[i][j])
                if e and (best == 0 or e < best):
                    best, pi, pj = e, i, j
        if pi < 0:
            break
        _swap_rows(a, u, t, pi)
        _swap_cols(a, v, t, pj)
        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    _add_row(a, u, i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        # remainder beats the pivot; promote it and redo
                        _swap_rows(a, u, t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    _add_col(a, v, j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        restart = True
            if restart:
                continue
            # pivot must divide the whole trailing block for the chain
            bad = None
            for i in range(t + 1, nr):
                if any(a[i][j] % a[t][t] for j in range(t + 1, nc)):
                    bad = i
                    break
            if bad is None:
                break
            _add_row(a, u, t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return (
        tuple(map(tuple, u)),
        tuple(map(tuple, a)),
        tuple(map(tuple, v)),
    )


# The homology routine as it stood before the F2-rank and free-kernel
# shortcuts, copied verbatim (only renamed, divisible guard dropped). It is
# the integer route those shortcuts skip, so the current routine must give
# the same group, or raise the same exception, on every pair of maps.


def reference_homology_at(f: GroupMap | None, g: GroupMap | None) -> SymGroup:
    """ker(g)/im(f) at the middle group; ``None`` stands for the zero map.

    At least one map is given. ``kernel`` is ``homology_at(None, g)`` and
    ``cokernel`` is ``homology_at(f, None)``; when both maps are given their
    composite must be zero. Zero image columns add no relation, and a zero g
    makes every element a cycle, so it costs no nullspace.
    """
    # no divisible guard: GroupMap refuses a divisible summand on either side
    if f is not None and g is not None and not composite_is_zero(f, g):
        raise ValueError("homology undefined: composite is not zero")
    b = f.codomain if f is not None else g.domain
    n = b.ngens
    images = () if f is None else tuple(
        col for col in transpose(f.matrix, f.domain.ngens) if any(col))
    boundaries = images + relation_rows(b)
    if g is None or not any(map(any, g.matrix)):
        return group_from_presentation(boundaries, n) if images else b
    # cycles: {x : g(x) lies in the codomain relation lattice}, spanned in
    # domain coordinates; the lattice always contains b's own relations
    c = g.codomain
    relc = relation_rows(c)
    stacked = tuple(g.matrix[i] + tuple(r[i] for r in relc) for i in range(c.ngens))
    cycles = tuple(vec[:n] for vec in nullspace(stacked, c.ngens, n + len(relc)))
    # (cycles + boundaries) / boundaries, presented on the cycles
    k = len(cycles)
    basis = nullspace(transpose(cycles + boundaries, n), n, k + len(boundaries))
    return group_from_presentation(tuple(vec[:k] for vec in basis), k)


# The cokernel projection as it stood before the F2 route into elementary
# 2-groups, copied verbatim (only renamed, divisible guard dropped). That
# route must give the same cokernel group and a valid projection; its
# projection may differ, because U depends on integer entries that an F2
# reduction cannot see. ``_column`` is the package's column reader of that
# time, copied verbatim.
_smith = groups._smith


def _column(m, j: int, nrows: int):
    return tuple([m[i][j] for i in range(nrows)])


def reference_cokernel_map(f: GroupMap):
    """Cokernel together with the canonical projection from the codomain."""
    # no divisible guard: GroupMap refuses a divisible summand on either side
    b = f.codomain
    n = b.ngens
    rel = tuple(
        _column(f.matrix, j, n) for j in range(f.domain.ngens)
    ) + relation_rows(b)
    u1, s1, _ = _smith(transpose(rel, n), n, len(rel), True, False)
    k = min(n, len(rel))
    free_idx = [i for i in range(n) if i >= k or s1[i][i] == 0]
    tor_idx = [i for i in range(k) if s1[i][i] >= 2]
    coker = SymGroup(len(free_idx), tuple(s1[i][i] for i in tor_idx), 0)
    proj = GroupMap(b, coker, tuple(u1[i] for i in free_idx + tor_idx))
    return coker, proj


# Direct sums and group parsing as they stood before ``_chain``, copied
# verbatim (only renamed): ``direct_sum`` ran its own presentation,
# ``direct_sum_all`` folded it, one elimination per summand, and
# ``parse_group`` folded one cyclic group per token. The invariant factors
# are unique, so the one-presentation routes must give the same groups.
_TOK_FREE, _TOK_CYCLIC, _TOK_DIV = groups._TOK_FREE, groups._TOK_CYCLIC, groups._TOK_DIV


def reference_direct_sum(a: SymGroup, b: SymGroup) -> SymGroup:
    factors = a.torsion + b.torsion
    n = len(factors)
    rel = tuple(
        tuple(factors[i] if j == i else 0 for j in range(n)) for i in range(n)
    )
    merged = group_from_presentation(rel, n)
    return SymGroup(
        a.free_rank + b.free_rank + merged.free_rank,
        merged.torsion,
        a.divisible_rank + b.divisible_rank,
    )


def reference_direct_sum_all(groups) -> SymGroup:
    total = TRIVIAL
    for g in groups:
        total = reference_direct_sum(total, g)
    return total


def reference_parse_group(text: str) -> SymGroup:
    """Parse the rendering grammar; summands may come in any order."""
    s = text.strip()
    if s == "0":
        return TRIVIAL
    free_rank = 0
    factors = []
    div = 0
    for tok in s.split(" + "):
        m = _TOK_FREE.match(tok) or _TOK_CYCLIC.match(tok) or _TOK_DIV.match(tok)
        if not m:
            raise RenderParseError("bad group token %r in %r" % (tok, text))
        try:
            n = int(m.group(1) or 1)
        except ValueError:  # more digits than the int-conversion limit
            raise RenderParseError("number too long in %r" % tok[:32]) from None
        if m.re is _TOK_FREE:
            free_rank += n
        elif m.re is _TOK_DIV:
            div += n
        elif n < 2:
            raise RenderParseError("cyclic order must be >= 2 in %r" % tok)
        else:
            factors.append(n)
    base = reference_direct_sum_all(SymGroup(torsion=(n,)) for n in factors)
    return SymGroup(free_rank, base.torsion, div)


# ---------------------------------------------------------------------------
# strategies

entry = st.integers(-9, 9)


@st.composite
def int_matrices(draw, max_rows=5, max_cols=5):
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    m = tuple(tuple(draw(entry) for _ in range(c)) for _ in range(r))
    return m, r, c


# Shapes for the differential SNF test. The elimination has no coefficient
# control, so a dense matrix much past 10x10 can take seconds; the large
# shapes are therefore diagonal, sparse, near-diagonal or thin.
@st.composite
def diagonal_matrices(draw, max_side=20):
    r = draw(st.integers(0, max_side))
    c = draw(st.integers(0, max_side))
    d = draw(st.lists(st.integers(-12, 12), min_size=min(r, c), max_size=min(r, c)))
    m = tuple(tuple(d[i] if i == j else 0 for j in range(c)) for i in range(r))
    return m, r, c


@st.composite
def sparse_matrices(draw, max_side=20, max_cells=12, diagonal=False):
    r = draw(st.integers(0, max_side))
    c = draw(st.integers(0, max_side))
    m = [[0] * c for _ in range(r)]
    if diagonal:
        for i in range(min(r, c)):
            m[i][i] = draw(st.sampled_from((0, 1, -1, 2, 3, 4, 6, -2)))
    if r and c:
        for _ in range(draw(st.integers(0, max_cells))):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
            m[i][j] = draw(st.integers(-9, 9))
    return tuple(map(tuple, m)), r, c


@st.composite
def dense_small_entries(draw, max_side=10):
    r = draw(st.integers(0, max_side))
    c = draw(st.integers(0, max_side))
    cell = st.sampled_from((0, 1, -1, 2, -2))
    m = tuple(tuple(draw(cell) for _ in range(c)) for _ in range(r))
    return m, r, c


@st.composite
def thin_matrices(draw, max_short=3, max_long=20):
    short = draw(st.integers(0, max_short))
    long_ = draw(st.integers(0, max_long))
    r, c = (short, long_) if draw(st.booleans()) else (long_, short)
    m = tuple(tuple(draw(entry) for _ in range(c)) for _ in range(r))
    return m, r, c


snf_shapes = st.one_of(
    int_matrices(),
    diagonal_matrices(),
    sparse_matrices(),
    sparse_matrices(max_cells=8, diagonal=True),
    dense_small_entries(),
    thin_matrices(),
)


@st.composite
def sym_groups(draw, max_free=3, max_factors=3, max_div=2):
    fr = draw(st.integers(0, max_free))
    k = draw(st.integers(0, max_factors))
    chain = []
    d = 1
    for _ in range(k):
        d *= draw(st.sampled_from([2, 2, 3, 4, 5, 6]))
        chain.append(d)
    dv = draw(st.integers(0, max_div))
    return SymGroup(fr, tuple(chain), dv)


@st.composite
def finite_groups(draw, max_factors=3):
    k = draw(st.integers(0, max_factors))
    chain = []
    d = 1
    for _ in range(k):
        d *= draw(st.sampled_from([2, 2, 3, 4]))
        chain.append(d)
    return SymGroup(0, tuple(chain), 0)


def random_well_defined_map(rng, a, b):
    """Uniform-ish well-defined map between groups without divisible parts."""
    rows = []
    for i in range(b.ngens):
        row = []
        if i < b.free_rank:
            e = 0
        else:
            e = b.torsion[i - b.free_rank]
        for j in range(a.ngens):
            if j < a.free_rank:
                row.append(rng.randint(-4, 4))
            else:
                d = a.torsion[j - a.free_rank]
                if e == 0:
                    row.append(0)
                else:
                    step = e // math.gcd(e, d)
                    row.append(step * rng.randint(0, max(1, e // step) - 1))
        rows.append(tuple(row))
    return GroupMap(a, b, tuple(rows))


# A zero map and zero image columns take their own route through
# homology_at, so the brute-force tests draw them as well.
MAP_SHAPES = ("random", "zero", "zero-columns")


def shaped_map(rng, a, b, shape):
    """A random map, the zero map, or a random map with some columns zeroed."""
    f = random_well_defined_map(rng, a, b)
    if shape == "random":
        return f
    keep = [shape == "zero-columns" and rng.random() < 0.5 for _ in range(a.ngens)]
    return GroupMap(a, b, tuple(
        tuple(x if k else 0 for x, k in zip(row, keep)) for row in f.matrix))


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_frozen_example():
    m = ((2, 4), (6, 8))
    u, s, v = snf(m)
    assert s == ((2, 0), (0, 4))
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    # oracle: d1 = gcd of entries, d1*d2 = |det|
    assert minor_gcd(m, 2, 2, 1) == 2
    assert abs(bareiss_det(m)) == 8


def test_snf_empty_shapes():
    u, s, v = snf((), 0, 3)
    assert u == () and s == () and v == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    u, s, v = snf(((), ()), 2, 0)
    assert s == ((), ())
    u, s, v = snf(((0, 0), (0, 0)))
    assert s == ((0, 0), (0, 0))


def test_snf_rejects_ragged():
    with pytest.raises(ShapeMismatch):
        snf(((1, 2), (3,)))
    with pytest.raises(ShapeMismatch):
        snf(((1, 2),), 2, 2)


@settings(max_examples=120)
@given(int_matrices())
def test_snf_properties(mrc):
    m, r, c = mrc
    u, s, v = snf(m, r, c)
    assert mat_mul(mat_mul(u, m, c), v, c) == s
    assert abs(bareiss_det(u)) == 1
    assert abs(bareiss_det(v)) == 1
    diag = [s[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert s[i][j] == 0
    for d in diag:
        assert d >= 0
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    # invariant factor theorem: prod of first k diagonals = gcd of k-minors
    prod = 1
    for k in range(1, min(r, c) + 1):
        prod *= diag[k - 1]
        assert prod == minor_gcd(m, r, c, k)


@settings(max_examples=80)
@given(int_matrices())
def test_nullspace_properties(mrc):
    m, r, c = mrc
    basis = nullspace(m, r, c)
    assert len(basis) == c - rank_q(m, r, c)
    for vec in basis:
        assert all(
            sum(m[i][j] * vec[j] for j in range(c)) == 0 for i in range(r)
        )
    # saturation: the basis generates a direct summand of Z^c
    if basis:
        diag = snf_diagonal(basis, len(basis), c)
        assert all(d == 1 for d in diag)


@settings(max_examples=300, deadline=None)
@given(snf_shapes)
def test_snf_matches_reference_elimination(mrc):
    m, r, c = mrc
    want = reference_snf(m, r, c)
    rows = [list(row) for row in m]
    assert snf(rows, r, c) == want
    assert rows == [list(row) for row in m]  # the input is left alone
    u, s, v = want
    k = min(r, c)
    assert snf_diagonal(rows, r, c) == tuple(s[i][i] for i in range(k))
    assert nullspace(rows, r, c) == tuple(
        tuple(v[i][j] for i in range(c)) for j in range(c) if j >= k or s[j][j] == 0)
    assert rows == [list(row) for row in m]
    # the private core gives the same S and each transform it tracks
    for track_u, track_v in itertools.product((False, True), repeat=2):
        cu, cs, cv = groups._smith(m, r, c, track_u, track_v)
        assert tuple(map(tuple, cs)) == s
        assert (cu is not None) == track_u and (cv is not None) == track_v
        if track_u:
            assert tuple(map(tuple, cu)) == u
        if track_v:
            assert tuple(map(tuple, cv)) == v


def test_snf_matches_reference_on_fixed_shapes():
    # pivot ties, unit short cut, divisibility fix-up and negative pivots
    cases = (
        ((2, 4), (6, 8)),
        ((2, 0), (0, 3)),                 # the sweep must add the bad row
        ((4, 6, 2), (2, 2, 4), (6, 2, 2)),
        ((0, -3, 3), (3, 0, -3), (-3, 3, 0)),
        ((5, 1, 1), (1, 5, 1), (1, 1, -1)),
        ((-2, 0, 0, 0), (0, 0, -4, 0), (0, 6, 0, 0)),
        tuple(tuple(2 if i == j else 0 for j in range(20)) for i in range(20)),
        tuple(tuple(d if i == j else 0 for j in range(12)) for i, d in
              enumerate((12, 8, 6, 9, 4, 10, 3, 2, 15, 14, 7, 5))),
    )
    for m in cases:
        assert snf(m) == reference_snf(m), m


# ---------------------------------------------------------------------------
# canonical groups


def test_symgroup_validation():
    with pytest.raises(ValueError):
        SymGroup(-1)
    with pytest.raises(ValueError):
        SymGroup(0, (1,), 0)
    with pytest.raises(ValueError):
        SymGroup(0, (4, 2), 0)
    with pytest.raises(ValueError):
        SymGroup(0, (2, 3), 0)
    SymGroup(0, (2, 6, 12), 1)  # fine
    assert SymGroup(0, [2, 4]).torsion == (2, 4)  # a list becomes a tuple


@pytest.mark.parametrize("build", [
    lambda: SymGroup(0, (2.7,)),
    lambda: SymGroup(0, ("4",)),
    lambda: SymGroup(0, (4.0,)),
    lambda: SymGroup(1.5),
    lambda: SymGroup(0, (), 1.0),
    lambda: cyclic(-2),
    lambda: cyclic(-1),
    lambda: cyclic(2.0),
    lambda: GroupMap(Z, Z, ((1.9,),)),
    lambda: GroupMap(Z, Z, (("1",),)),
], ids=["float-factor", "str-factor", "integral-float-factor", "float-rank",
        "float-divisible-rank", "cyclic-minus-two", "cyclic-minus-one",
        "cyclic-float", "float-entry", "str-entry"])
def test_constructors_refuse_what_is_not_an_int(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [free, elementary_two, divisible],
                         ids=["free", "elementary_two", "divisible"])
def test_rank_constructors_refuse_a_negative_rank(build):
    # every W and KO/K group is elementary_two of a count, so a miscount
    # must fail here instead of printing 0
    assert build(0) == TRIVIAL
    for rank in (-1, -2):
        with pytest.raises(ValueError):
            build(rank)


def test_constructors_keep_ints_and_turn_lists_into_tuples():
    assert cyclic(0) == Z and cyclic(1) == TRIVIAL and cyclic(6) == SymGroup(0, (6,))
    f = GroupMap(free(2), Z, [[1, -3]])
    assert f.matrix == ((1, -3),)


def test_presentation_frozen_examples():
    assert group_from_presentation(((2, 0),), 2) == SymGroup(1, (2,), 0)
    assert group_from_presentation(((1, 0), (0, 1)), 2) == TRIVIAL
    assert group_from_presentation((), 3) == free(3)
    assert group_from_presentation(((2, 0), (0, 3)), 2) == cyclic(6)
    assert group_from_presentation(((4, 0), (0, 6)), 2) == SymGroup(0, (2, 12), 0)


@settings(max_examples=60)
@given(int_matrices(max_rows=4, max_cols=4), st.randoms(use_true_random=False))
def test_presentation_row_op_invariance(mrc, rng):
    m, r, c = mrc
    g = group_from_presentation(m, c)
    rows = [list(row) for row in m]
    for _ in range(6):
        if r < 2:
            break
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            mult = rng.randint(-3, 3)
            rows[i] = [x + mult * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    assert group_from_presentation(tuple(map(tuple, rows)), c) == g


def test_direct_sum_frozen():
    assert direct_sum(cyclic(2), cyclic(3)) == cyclic(6)
    assert direct_sum(cyclic(4), cyclic(6)) == SymGroup(0, (2, 12), 0)
    assert direct_sum(Z, divisible(2)) == SymGroup(1, (), 2)
    assert direct_sum_all([Z2, Z2, Z2]) == elementary_two(3)


@settings(max_examples=60)
@given(sym_groups(), sym_groups())
def test_direct_sum_crt_oracle(a, b):
    s = direct_sum(a, b)
    assert s.free_rank == a.free_rank + b.free_rank
    assert s.divisible_rank == a.divisible_rank + b.divisible_rank
    assert prime_power_multiset(s.torsion) == prime_power_multiset(
        a.torsion + b.torsion
    )
    assert direct_sum(a, b) == direct_sum(b, a)


@settings(max_examples=30)
@given(sym_groups(), sym_groups(), sym_groups())
def test_direct_sum_associative(a, b, c):
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


# Orders for the differential tests of the one-presentation routes: small
# ones that CRT-recombine, and 2^40, 3^20 and their product, whose
# eliminations run on big integers.
SUM_ORDERS = (2, 2, 3, 4, 5, 6, 8, 9, 12, 2 ** 40, 3 ** 20, 2 ** 40 * 3 ** 20)


@st.composite
def summed_groups(draw):
    """A canonical group with a free part, a divisible part and up to four
    cyclic summands, built by the reference fold."""
    orders = draw(st.lists(st.sampled_from(SUM_ORDERS), max_size=4))
    tor = reference_direct_sum_all(SymGroup(0, (d,)) for d in orders).torsion
    return SymGroup(draw(st.integers(0, 3)), tor, draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(summed_groups(), max_size=6))
def test_direct_sum_matches_reference(gs):
    assert direct_sum_all(gs) == reference_direct_sum_all(gs)
    assert direct_sum_all(iter(gs)) == reference_direct_sum_all(gs)
    if len(gs) >= 2:
        assert direct_sum(gs[0], gs[1]) == reference_direct_sum(gs[0], gs[1])


summand_tokens = st.one_of(
    st.sampled_from(SUM_ORDERS).map(lambda d: "Z/%d" % d),
    st.integers(1, 4).map(lambda r: "Z" if r == 1 else "Z^%d" % r),
    st.integers(1, 3).map(lambda t: "D(%d)" % t),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60).flatmap(
    lambda n: st.lists(summand_tokens, min_size=n, max_size=n)))
def test_parse_group_matches_reference(tokens):
    text = " + ".join(tokens) or "0"
    assert parse_group(text) == reference_parse_group(text)


@pytest.mark.parametrize("text, count", [
    ("0", 0),
    ("Z^3 + D(2)", 0),
    ("Z/3", 0),
    ("Z + Z/%d + D(1)" % 2 ** 40, 0),
    ("Z/2 + Z/3", 1),
    ("Z/4 + Z + Z/6 + D(2)", 1),
    (" + ".join(["Z/3"] * 60), 1),
    (" + ".join(["Z/2", "Z/3", "Z^2", "Z/4"] * 20), 1),
], ids=["zero", "free-and-divisible", "one-cyclic", "one-big-cyclic", "two-cyclic",
        "mixed", "sixty-z3", "eighty-mixed"])
def test_parse_group_runs_one_elimination_at_most(eliminations, text, count):
    parse_group(text)
    assert len(eliminations) == count


def test_direct_sum_all_runs_one_elimination_at_most(eliminations):
    direct_sum_all([cyclic(3)] * 40 + [SymGroup(2, (2, 4), 1)] * 10)
    assert len(eliminations) == 1
    eliminations.clear()
    direct_sum_all([Z, cyclic(5), divisible(2), free(3)])
    direct_sum(Z2, Z)
    direct_sum_all([])
    assert len(eliminations) == 0


def test_mod2_two_torsion_frozen():
    g = SymGroup(2, (4,), 5)
    assert mod2(g) == elementary_two(3)
    h = SymGroup(0, (4, 12), 1)  # contains Z/4 + Z/6 up to iso? no: fixed chain
    assert two_torsion(h) == elementary_two(3)
    assert mod2(divisible(7)) == TRIVIAL
    assert two_torsion(divisible(7)) == elementary_two(7)
    assert mod2_rank(SymGroup(1, (2, 3 * 4), 2)) == 3


@settings(max_examples=60)
@given(sym_groups())
def test_mod2_two_torsion_counting_oracle(g):
    evens = sum(1 for q in prime_power_multiset(g.torsion) if q % 2 == 0)
    assert mod2(g) == elementary_two(g.free_rank + evens)
    assert two_torsion(g) == elementary_two(evens + g.divisible_rank)


@settings(max_examples=40)
@given(finite_groups())
def test_two_torsion_brute_force(g):
    count = sum(
        1
        for x in elements(g)
        if all((2 * xi) % d == 0 for xi, d in zip(x, g.torsion))
    )
    assert two_torsion(g).order() == count


def test_order():
    assert TRIVIAL.order() == 1
    assert cyclic(6).order() == 6
    assert SymGroup(0, (2, 4), 0).order() == 8
    assert Z.order() is None
    assert divisible(1).order() is None


def test_exponent_two_check():
    for good in (TRIVIAL, Z2, elementary_two(3)):
        assert exponent_two(good) is good
    for bad in (Z, cyclic(4), SymGroup(0, (2, 2, 6), 0), divisible(1),
                SymGroup(1, (2,), 0)):
        with pytest.raises(InvariantViolation) as info:
            exponent_two(bad)
        assert info.value.signal == "invariant-violation"
        assert not is_elementary_two(bad)


@settings(max_examples=60)
@given(sym_groups(), st.sampled_from([Z, Z2, cyclic(3), divisible(1)]))
def test_cancel_undoes_direct_sum(a, c):
    assert reference_cancel(direct_sum(a, c), c) == a


def test_cancel_rejects_non_summands():
    for total, summand in ((cyclic(4), Z2), (Z2, Z), (TRIVIAL, divisible(1)),
                           (SymGroup(0, (2, 12), 0), cyclic(6)), (cyclic(9), cyclic(3))):
        with pytest.raises(InvariantViolation) as info:
            reference_cancel(total, summand)
        assert info.value.signal == "invariant-violation"
    # Z/2 + Z/4 + Z/3: the Z/2 and the Z/3 are summands, complements exact
    g = SymGroup(0, (2, 12), 0)
    assert reference_cancel(g, Z2) == cyclic(12)
    assert reference_cancel(g, cyclic(3)) == SymGroup(0, (2, 4), 0)
    assert reference_cancel(g, TRIVIAL) == g


def reference_elementary_two(rank: int) -> SymGroup:
    """``elementary_two`` as it stood when it checked every factor, copied
    verbatim (only renamed)."""
    if rank < 0:
        raise ValueError("negative rank in SymGroup")
    return SymGroup(torsion=(2,) * rank)


def outcome_of(call, *args):
    try:
        g = call(*args)
    except Exception as exc:  # the type is what must agree
        return type(exc)
    return (g, hash(g), repr(g), render(g))


@given(st.one_of(st.integers(-3, 60), st.booleans(), st.none(), st.text(max_size=2),
                 st.floats(-2, 5), st.fractions(-2, 5), st.just(2.0), st.just(Fraction(3))))
def test_elementary_two_matches_its_checked_form(rank):
    # from counts, no factor is checked, yet every input gives the same group
    # (equal, same hash and repr) or the same exception type as before
    assert outcome_of(elementary_two, rank) == outcome_of(reference_elementary_two, rank)


@given(st.integers(0, 4), st.integers(0, 40), st.integers(0, 4))
def test_count_built_groups_are_the_checked_groups(a, b, t):
    g, ref = from_counts(a, b, t), SymGroup(a, (2,) * b, t)
    assert (g, hash(g), repr(g), render(g)) == (ref, hash(ref), repr(ref), render(ref))
    assert type(g) is SymGroup and g.torsion == ref.torsion
    for counts in ((-1, b, t), (a, -1, t), (a, b, -1)):
        with pytest.raises(ValueError, match="negative rank in SymGroup"):
            from_counts(*counts)
    # the constructor a user calls keeps every check
    with pytest.raises(ValueError):
        SymGroup(a, (2,) * b + (1,), t)


def per_factor_elementary_two(g):
    """``is_elementary_two`` as it stood when it read every factor."""
    return g.free_rank == 0 and g.divisible_rank == 0 and all(d == 2 for d in g.torsion)


GROUP_TOKENS = ("Z", "Z^2", "Z/2", "Z/2", "Z/3", "Z/4", "Z/6", "D(1)")


@st.composite
def groups_from_every_builder(draw):
    """A group from one of the routes that build a SymGroup."""
    route = draw(st.sampled_from(("SymGroup", "from_counts", "direct_sum_all", "parse_group",
                                  "cancel", "mod2", "two_torsion", "homology_at")))
    if route == "SymGroup":
        return draw(sym_groups())
    if route == "from_counts":
        return from_counts(draw(st.integers(0, 2)), draw(st.integers(0, 40)),
                           draw(st.integers(0, 2)))
    if route == "direct_sum_all":
        return direct_sum_all(draw(st.lists(sym_groups(), max_size=4)))
    if route == "parse_group":
        tokens = draw(st.lists(st.sampled_from(GROUP_TOKENS), min_size=1, max_size=6))
        return parse_group(" + ".join(tokens))
    if route == "cancel":
        c = draw(st.sampled_from([Z, Z2, cyclic(3), divisible(1), TRIVIAL]))
        return reference_cancel(direct_sum(draw(sym_groups()), c), c)
    if route == "mod2":
        return mod2(draw(sym_groups()))
    if route == "two_torsion":
        return two_torsion(draw(sym_groups()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a, b, c = (draw(sym_groups(max_div=0)) for _ in range(3))
    f, g = random_well_defined_map(rng, a, b), random_well_defined_map(rng, b, c)
    shape = draw(st.sampled_from(("kernel", "cokernel", "homology")))
    if shape == "kernel":
        return homology_at(None, g)
    if shape == "cokernel":
        return homology_at(f, None)
    return homology_at(f, g if composite_is_zero(f, g) else zero_map(b, c))


@settings(max_examples=300, deadline=None)
@given(groups_from_every_builder())
@example(SymGroup(0, (2, 2, 6)))
@example(SymGroup(0, (3,)))
@example(from_counts(0, 40))
def test_elementary_two_reads_the_chain(g):
    # every builder leaves a divisibility chain of factors >= 2, so the last
    # factor is 2 exactly when every factor is
    assert is_elementary_two(g) == per_factor_elementary_two(g)


def map_outcome(call, *args):
    try:
        f = call(*args)
    except Exception as exc:  # the type and the message must agree
        return type(exc), str(exc)
    return f, hash(f), repr(f), type(f), type(f.matrix)


@settings(max_examples=200)
@given(sym_groups(), sym_groups())
def test_zero_map_is_the_checked_zero_map(a, b):
    # built with no check, it is the map the checked constructor gives, and a
    # divisible side raises the same exception with the same message
    zeros = ((0,) * a.ngens,) * b.ngens
    assert map_outcome(zero_map, a, b) == map_outcome(GroupMap, a, b, zeros)
    assert map_outcome(built_map, a, b, zeros) == map_outcome(GroupMap, a, b, zeros)


@settings(max_examples=100)
@given(sym_groups(max_div=0), sym_groups(max_div=0), st.integers(0, 2**32 - 1))
def test_built_map_is_the_checked_map(a, b, seed):
    matrix = random_well_defined_map(random.Random(seed), a, b).matrix
    assert map_outcome(built_map, a, b, matrix) == map_outcome(GroupMap, a, b, matrix)


def test_zero_map_runs_no_check(checked_maps):
    zero_map(elementary_two(40), free(3))
    zero_map(SymGroup(2, (3, 6)), elementary_two(5))
    assert len(checked_maps) == 0
    with pytest.raises(UnsupportedDivisibleMap):
        zero_map(divisible(1), Z)
    GroupMap(Z, Z, ((1,),))  # the constructor a user calls keeps every check
    assert len(checked_maps) == 2


def test_mod2_generator_counts():
    g = SymGroup(2, (2, 6, 12, 36), 1)
    assert even_count(g) == 4
    assert mod2_generators(g) == (0, 1, 2, 3, 4, 5)
    assert mod2_generators(SymGroup(1, (3, 6), 0)) == (0, 2)
    assert mod2_rank(g) == len(mod2_generators(g))


def test_exponent_two_check_runs_under_python_O():
    # a bare assert would be stripped under -O; this check must still raise
    child = (
        "import sys\n"
        "from wittkit.errors import InvariantViolation\n"
        "from wittkit.groups import Z, exponent_two\n"
        "try:\n"
        "    exponent_two(Z)\n"
        "except InvariantViolation as exc:\n"
        "    print(sys.flags.optimize, exc.signal)\n"
    )
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 invariant-violation\n"


# ---------------------------------------------------------------------------
# rendering


def test_render_frozen():
    assert render(TRIVIAL) == "0"
    assert render(Z) == "Z"
    assert render(free(3)) == "Z^3"
    assert render(SymGroup(2, (2, 4), 1)) == "Z^2 + Z/2 + Z/4 + D(1)"
    assert render(divisible(3)) == "D(3)"
    assert str(cyclic(12)) == "Z/12"


def test_parse_round_trip_frozen():
    for text in ["0", "Z", "Z^2", "Z/2", "Z + Z/2 + Z/6 + D(2)", "Z^5 + Z/16"]:
        assert render(parse_group(text)) == text
    # parsing canonicalizes factor order and CRT-recombines
    assert parse_group("Z/3 + Z/2") == cyclic(6)
    assert parse_group("Z + Z") == free(2)
    assert parse_group("Z/4 + Z/6") == SymGroup(0, (2, 12), 0)


@settings(max_examples=80)
@given(sym_groups())
def test_parse_render_inverse(g):
    assert parse_group(render(g)) == g


def test_parse_rejects_garbage():
    for bad in ["", "Z/1", "Z/0", "Z^0", "D(0)", "0 + Z", "Z +", "Z++Z", "q", "Z / 2"]:
        with pytest.raises(RenderParseError):
            parse_group(bad)


def test_parse_rejects_numbers_past_the_int_conversion_limit():
    digits = "3" * 5000
    for bad in ["Z/" + digits, "Z^" + digits, "D(%s)" % digits, "Z + Z/" + digits]:
        with pytest.raises(RenderParseError):
            parse_group(bad)


# ---------------------------------------------------------------------------
# maps: construction and validation


def test_map_shape_validation():
    with pytest.raises(ShapeMismatch):
        GroupMap(Z, Z, ((1, 0),))
    with pytest.raises(ShapeMismatch):
        GroupMap(free(2), Z, ((1,),))


def test_map_well_definedness():
    # Z/2 -> Z/4 sending the generator to a class of order 4 is not a map
    with pytest.raises(ValueError):
        GroupMap(cyclic(2), cyclic(4), ((1,),))
    GroupMap(cyclic(2), cyclic(4), ((2,),))  # multiplication into the 2-torsion
    # torsion cannot map onto a free generator
    with pytest.raises(ValueError):
        GroupMap(cyclic(2), Z, ((1,),))
    GroupMap(cyclic(2), Z, ((0,),))


def test_divisible_behavior_rules():
    # a divisible summand on the domain, the codomain or both is refused
    d = divisible(2)
    for a, b in ((d, TRIVIAL), (Z2, d), (d, d), (direct_sum(Z, d), Z)):
        with pytest.raises(UnsupportedDivisibleMap):
            zero_map(a, b)
    with pytest.raises(UnsupportedDivisibleMap):
        GroupMap(d, d, ())
    # the map has no setting for how a divisible summand is carried
    for behavior in ("absent", "zero", "torsion-inclusion"):
        with pytest.raises(TypeError):
            GroupMap(Z, Z, ((1,),), divisible_behavior=behavior)
        with pytest.raises(TypeError):
            zero_map(Z, Z, divisible_behavior=behavior)


def test_finitely_generated_ops_reject_divisible_maps():
    # no operation can be handed a map with a divisible side: none is built
    d = divisible(1)
    with pytest.raises(UnsupportedDivisibleMap):
        GroupMap(d, d, identity(d.ngens))
    with pytest.raises(UnsupportedDivisibleMap):
        GroupMap(direct_sum(Z2, d), direct_sum(Z2, d), ((1,),))
    with pytest.raises(UnsupportedDivisibleMap):
        GroupMap(Z, direct_sum(Z, d), ((1,),))
    f = GroupMap(Z2, Z2, ((1,),))
    assert kernel(f).is_trivial and cokernel(f).is_trivial and image_rank2(f) == 1
    assert check_exact([f, zero_map(Z2, TRIVIAL)]).ok


# ---------------------------------------------------------------------------
# kernel / cokernel / image


def test_kernel_cokernel_frozen():
    double = GroupMap(Z, Z, ((2,),))
    assert kernel(double) == TRIVIAL
    assert cokernel(double) == cyclic(2)

    diag23 = GroupMap(free(2), free(2), ((2, 0), (0, 3)))
    assert kernel(diag23) == TRIVIAL
    assert cokernel(diag23) == cyclic(6)

    two_in_four = GroupMap(cyclic(2), cyclic(4), ((2,),))
    assert kernel(two_in_four) == TRIVIAL
    assert cokernel(two_in_four) == cyclic(2)

    onto = GroupMap(cyclic(4), cyclic(2), ((1,),))
    assert kernel(onto) == cyclic(2)
    assert cokernel(onto) == TRIVIAL

    fold = GroupMap(free(2), Z, ((1, 1),))
    assert kernel(fold) == Z
    assert cokernel(fold) == TRIVIAL

    z = zero_map(cyclic(4), free(2))
    assert kernel(z) == cyclic(4)
    assert cokernel(z) == free(2)


def test_cokernel_map_projection():
    f = GroupMap(free(2), free(2), ((2, 0), (0, 3)))
    coker, proj = cokernel_map(f)
    assert coker == cyclic(6)
    assert proj.domain == f.codomain and proj.codomain == coker
    # the projection kills exactly the image: its kernel has order |B|/|coker|
    assert cokernel(proj) == TRIVIAL
    assert composite_is_zero(f, proj)


def test_identity_and_compose():
    g = SymGroup(1, (2, 4), 0)
    ident = GroupMap(g, g, identity(g.ngens))
    assert kernel(ident) == TRIVIAL
    assert cokernel(ident) == TRIVIAL
    f = GroupMap(cyclic(4), cyclic(4), ((3,),))
    h = GroupMap(f.domain, f.codomain, mat_mul(f.matrix, f.matrix, f.domain.ngens))
    assert h.matrix == ((9,),)
    assert kernel(h) == TRIVIAL  # 9 is a unit mod 4


@settings(max_examples=50)
@given(finite_groups(), finite_groups(), st.sampled_from(MAP_SHAPES),
       st.randoms(use_true_random=False))
def test_kernel_cokernel_brute_force(a, b, shape, rng):
    f = shaped_map(rng, a, b, shape)
    xs = elements(a)
    images = [apply_map(f, x) for x in xs]
    zero_b = tuple([0] * b.ngens)

    ker = kernel(f)
    ker_set = [x for x, y in zip(xs, images) if y == zero_b]
    assert ker.order() == len(ker_set)
    for d in divisors(max(1, ker.order())):
        want = math.prod(math.gcd(d, q) for q in ker.torsion)
        got = sum(
            1
            for x in ker_set
            if all((d * xi) % q == 0 for xi, q in zip(x, a.torsion))
        )
        assert got == want

    image = set(images)
    cok = cokernel(f)
    assert cok.order() * len(image) == b.order()
    for d in divisors(max(1, cok.order())):
        want = math.prod(math.gcd(d, q) for q in cok.torsion)
        got = (
            sum(
                1
                for y in elements(b)
                if tuple(
                    (d * yi) % q for yi, q in zip(y, b.torsion)
                ) in image
            )
            // len(image)
        )
        assert got == want


# "none" stands for the zero map given as None; one of the two maps is given
SHAPE_PAIRS = tuple((fs, gs) for fs in MAP_SHAPES + ("none",)
                    for gs in MAP_SHAPES + ("none",) if not fs == gs == "none")


@settings(max_examples=50, deadline=None)
@given(finite_groups(), finite_groups(), finite_groups(), st.sampled_from(SHAPE_PAIRS),
       st.randoms(use_true_random=False))
def test_homology_at_brute_force(a, b, c, shapes, rng):
    # ker(g)/im(f) at b by enumeration
    f_shape, g_shape = shapes
    g = None if g_shape == "none" else shaped_map(rng, b, c, g_shape)
    zero_b, zero_c = tuple([0] * b.ngens), tuple([0] * c.ngens)
    cycles = [y for y in elements(b) if g is None or apply_map(g, y) == zero_c]
    if f_shape == "none":
        f = None
        boundaries = {zero_b}
    else:
        # send each generator of a to a cycle whose order divides its own;
        # "zero" sends all of them to 0 and "zero-columns" about half
        cols = []
        for d in a.torsion:
            if f_shape == "zero" or (f_shape == "zero-columns" and rng.random() < 0.5):
                cols.append(zero_b)
            else:
                cols.append(rng.choice([y for y in cycles if all(
                    (d * yi) % q == 0 for yi, q in zip(y, b.torsion))]))
        f = GroupMap(a, b, tuple(tuple(col[i] for col in cols) for i in range(b.ngens)))
        boundaries = {apply_map(f, x) for x in elements(a)}

    # kernel and cokernel are homology_at with None for the missing map
    if f is None:
        h = kernel(g)
    elif g is None:
        h = cokernel(f)
    else:
        h = homology_at(f, g)
    assert h.free_rank == 0 and h.divisible_rank == 0
    assert h.order() * len(boundaries) == len(cycles)
    # classes h with d*h = 0, counted as cycles x with d*x a boundary
    for d in divisors(h.order()):
        want = math.prod(math.gcd(d, q) for q in h.torsion)
        got = sum(
            1 for x in cycles
            if tuple((d * xi) % q for xi, q in zip(x, b.torsion)) in boundaries
        ) // len(boundaries)
        assert got == want


@settings(max_examples=50)
@given(sym_groups(max_div=0), sym_groups(max_div=0), st.sampled_from(MAP_SHAPES),
       st.randoms(use_true_random=False))
def test_cokernel_matches_cokernel_map(a, b, shape, rng):
    f = shaped_map(rng, a, b, shape)
    assert cokernel(f) == cokernel_map(f)[0]


# Domains of maps into (Z/2)^n, which cokernel_map once read off an F2
# echelon: free, elementary, odd cyclic (whose columns must be even), Z/4,
# and a mix of all of them.
F2_DOMAINS = (
    st.integers(0, 6).map(free),
    st.integers(0, 6).map(elementary_two),
    st.sampled_from([3, 5, 9, 15]).map(cyclic),
    st.just(cyclic(4)),
    st.lists(st.sampled_from([Z, Z2, cyclic(3), cyclic(4)]), max_size=5).map(direct_sum_all),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cokernel_map_into_elementary_two_matches_reference(data):
    b = elementary_two(data.draw(st.integers(0, 12)))
    a = data.draw(st.one_of(F2_DOMAINS))
    entries = st.sampled_from([0, 1, -1, 2, -2, 3, -3])
    # an odd-order generator must map to an even column
    even = mod2_generators(a)
    cols = [[data.draw(entries) * (1 if j in even else 2) for _ in range(b.ngens)]
            for j in range(a.ngens)]
    f = GroupMap(a, b, tuple(zip(*cols)) or ((),) * b.ngens)
    coker, proj = cokernel_map(f)
    assert (coker, proj) == reference_cokernel_map(f)
    assert composite_is_zero(f, proj)
    assert check_exact([f, proj, zero_map(coker, TRIVIAL)]).ok


# Groups for the differential homology test: elementary 2-groups take the
# F2 route, free middle groups into finite targets the free-kernel route,
# and groups with Z/4 or with a free part beside odd torsion stay on the
# integer route. Domains may also be odd torsion, whose maps into (Z/2)^n
# are zero mod 2 but not as integer matrices.
@st.composite
def homology_groups(draw, odd=False):
    kind = draw(st.sampled_from(("elementary-two", "free", "with-four", "free-and-three")
                                + (("odd",) if odd else ())))
    k = draw(st.integers(0, 3))
    if kind == "elementary-two":
        return elementary_two(k)
    if kind == "free":
        return free(k)
    if kind == "with-four":
        return SymGroup(draw(st.integers(0, 1)), (2,) * k + (4,))
    return SymGroup(int(kind == "free-and-three"), (3,) * k)


def generator_orders(g):
    """Order of each canonical generator, 0 for a free one."""
    return (0,) * g.free_rank + g.torsion


def fitted_entry(x, d, e):
    """x, scaled to the least multiple a generator of order d may send to x
    times one of order e; 0 stands for a free generator."""
    if d == 0:
        return x
    return 0 if e == 0 else x * (e // math.gcd(e, d))


@st.composite
def drawn_maps(draw, a, b, shape, columns=None):
    """A map a -> b with entries drawn from {0, +-1, +-2, +-3} and fitted to
    the generator orders, or with its columns drawn from ``columns``.
    ``shape`` is one of MAP_SHAPES."""
    cell = st.sampled_from((0, 1, -1, 2, -2, 3, -3))
    cols = []
    for d in generator_orders(a):
        if columns is None:
            col = [fitted_entry(draw(cell), d, e) for e in generator_orders(b)]
        else:
            col = draw(columns(d))
        if shape == "zero" or (shape == "zero-columns" and draw(st.booleans())):
            col = [0] * b.ngens
        cols.append(col)
    return GroupMap(a, b, tuple(tuple(col[i] for col in cols) for i in range(b.ngens)))


def cycle_columns(g):
    """For an f that composes to zero with g: each column is a combination
    of cycles of g, scaled so that its order divides the order of the
    domain generator it is the image of."""
    b, c = g.domain, g.codomain
    relc = relation_rows(c)
    stacked = tuple(g.matrix[i] + tuple(r[i] for r in relc) for i in range(c.ngens))
    cycles = [vec[:b.ngens] for vec in nullspace(stacked, c.ngens, b.ngens + len(relc))]

    @st.composite
    def column(draw, d):
        x = [0] * b.ngens
        for vec in cycles:
            t = draw(st.sampled_from((0, 1, -1, 2, -2, 3, -3)))
            x = [xi + t * vi for xi, vi in zip(x, vec)]
        if d == 0:
            return x
        if any(x[:b.free_rank]):
            return [0] * b.ngens  # infinite order
        order = math.lcm(1, *(e // math.gcd(e, xi)
                              for e, xi in zip(b.torsion, x[b.free_rank:])))
        return [xi * (order // math.gcd(order, d)) for xi in x]

    return column


def homology_outcome(route, f, g):
    try:
        return render(route(f, g))
    except (ValueError, ShapeMismatch, UnsupportedDivisibleMap) as exc:
        return type(exc)


def mostly_finite_columns(c):
    """Columns into c whose free coordinates are zero three times in four,
    so that they often have finite order in a target with a free part."""
    cell = st.sampled_from((0, 1, -1, 2, -2, 3, -3))

    @st.composite
    def column(draw, d):
        finite = draw(st.integers(0, 3)) > 0
        return [0 if finite else draw(cell) for _ in range(c.free_rank)] + [
            fitted_entry(draw(cell), d, e) for e in c.torsion]

    return column


# "complex" builds f inside the cycles of g, "independent" draws both maps
# freely (mostly a nonzero composite), "mismatch" gives g another domain,
# and "z-middle" is a complex at the middle group Z with g's target both
# free and torsion, read off two integers
PAIR_MODES = ("complex", "complex", "independent", "independent", "mismatch",
              "z-middle")
MIXED_TARGETS = (SymGroup(1, (2,)), SymGroup(1, (2, 4)), SymGroup(2, (3, 3)),
                 SymGroup(1, (6,)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_homology_at_matches_reference(data):
    draw = data.draw
    a, b, c = draw(homology_groups(odd=True)), draw(homology_groups()), draw(homology_groups())
    f_shape, g_shape = draw(st.sampled_from(SHAPE_PAIRS))
    mode = draw(st.sampled_from(PAIR_MODES))
    g_columns = None
    if mode == "z-middle":
        a, b, c = free(draw(st.integers(1, 3))), Z, draw(st.sampled_from(MIXED_TARGETS))
        g_columns = mostly_finite_columns(c)
    g = None
    if g_shape != "none":
        g_domain = draw(homology_groups()) if mode == "mismatch" else b
        g = draw(drawn_maps(g_domain, c, g_shape, g_columns))
    f = None
    if f_shape != "none":
        complex_ = mode in ("complex", "z-middle") and g is not None
        f = draw(drawn_maps(a, b, f_shape, cycle_columns(g) if complex_ else None))
    want = homology_outcome(reference_homology_at, f, g)
    assert homology_outcome(homology_at, f, g) == want
    if f is None:
        assert homology_outcome(lambda _, m: kernel(m), f, g) == want
    if g is None:
        assert homology_outcome(lambda m, _: cokernel(m), f, g) == want


@settings(max_examples=50)
@given(finite_groups(), finite_groups(), st.integers(0, 2), st.integers(0, 2),
       st.randoms(use_true_random=False))
def test_image_rank2_brute_force(a, b, a_free, b_free, rng):
    # free parts on either side, as for H under O(p): the free K_0 shadow
    # into Z + (Z/2)^2g
    a, b = SymGroup(a_free, a.torsion), SymGroup(b_free, b.torsion)
    f = random_well_defined_map(rng, a, b)
    # reduce to B/2B coordinates: the free ones and the even factors
    coords = [i for i in range(b.ngens)
              if i < b.free_rank or b.torsion[i - b.free_rank] % 2 == 0]
    seen = set()
    for bits in itertools.product((0, 1), repeat=a.ngens):
        y = apply_map(f, bits)
        seen.add(tuple(y[i] % 2 for i in coords))
    assert 2 ** image_rank2(f) == len(seen)


def test_rank_nullity_free_case():
    rng = random.Random(7)
    for _ in range(25):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(c)) for _ in range(r))
        f = GroupMap(free(c), free(r), m)
        rk = rank_q(m, r, c)
        assert kernel(f).free_rank == c - rk
        assert cokernel(f).free_rank == r - rk


# ---------------------------------------------------------------------------
# exactness


def _chain(*maps):
    return check_exact(list(maps))


def test_exact_ses_frozen():
    # 0 -> Z --2--> Z -> Z/2 -> 0
    rep = _chain(
        zero_map(TRIVIAL, Z),
        GroupMap(Z, Z, ((2,),)),
        GroupMap(Z, cyclic(2), ((1,),)),
        zero_map(cyclic(2), TRIVIAL),
    )
    assert rep.ok and rep.first_failure is None
    assert all(h == TRIVIAL for h in rep.interior_homology)


def test_exactness_failure_nodes():
    # 0 -> Z --4--> Z -> Z/2 -> 0 leaves homology Z/2 at the middle group
    rep = _chain(
        zero_map(TRIVIAL, Z),
        GroupMap(Z, Z, ((4,),)),
        GroupMap(Z, cyclic(2), ((1,),)),
        zero_map(cyclic(2), TRIVIAL),
    )
    assert not rep.ok
    assert rep.first_failure == 2
    assert rep.interior_homology[1] == cyclic(2)

    # 0 -> Z --2--> Z -> Z/4 -> 0 is not even a complex at the middle group
    rep = _chain(
        zero_map(TRIVIAL, Z),
        GroupMap(Z, Z, ((2,),)),
        GroupMap(Z, cyclic(4), ((1,),)),
        zero_map(cyclic(4), TRIVIAL),
    )
    assert not rep.ok
    assert rep.first_failure == 2
    assert rep.interior_homology[1] is None

    # surjectivity failure shows up at the last interior node
    rep = _chain(
        zero_map(TRIVIAL, Z),
        GroupMap(Z, Z, ((2,),)),
        GroupMap(Z, cyclic(4), ((2,),)),
        zero_map(cyclic(4), TRIVIAL),
    )
    assert not rep.ok
    assert rep.first_failure == 3


def test_check_exact_rejects_incomposable():
    with pytest.raises(ShapeMismatch):
        check_exact([zero_map(Z, Z), zero_map(cyclic(2), Z)])


def test_homology_requires_zero_composite():
    f = GroupMap(Z, Z, ((1,),))
    with pytest.raises(ValueError):
        homology_at(f, f)


def test_check_exact_tests_each_composite_once(monkeypatch):
    # check_exact reads each node's homology past the test of its composite
    # that it has made; homology_at still makes that test for every caller
    calls = []
    core = wittkit.groups.composite_is_zero
    monkeypatch.setattr(wittkit.groups, "composite_is_zero",
                        lambda f, g: calls.append(None) or core(f, g))
    rep = check_exact([zero_map(TRIVIAL, Z), GroupMap(Z, Z, ((2,),)),
                       GroupMap(Z, cyclic(2), ((1,),)), zero_map(cyclic(2), TRIVIAL)])
    assert rep.ok and len(calls) == 3
    calls.clear()
    f = GroupMap(Z, Z, ((1,),))
    with pytest.raises(ValueError, match="composite is not zero"):
        homology_at(f, f)
    assert len(calls) == 1


def random_unimodular(n, rng):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
    if rng.random() < 0.5 and n:
        m[0] = [-x for x in m[0]]
    return tuple(map(tuple, m))


def test_constructed_ses_and_mutants():
    rng = random.Random(20260816)
    for trial in range(30):
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        diag = []
        d = 1
        for _ in range(k):
            d *= rng.choice([1, 1, 2, 3])
            diag.append(d)
        s = tuple(
            tuple(diag[i] if i == j and i < k else 0 for j in range(k))
            for i in range(n)
        )
        m = mat_mul(mat_mul(random_unimodular(n, rng), s, k), random_unimodular(k, rng), k)
        inj = GroupMap(free(k), free(n), m)
        coker, proj = cokernel_map(inj)
        good = [
            zero_map(TRIVIAL, free(k)),
            inj,
            proj,
            zero_map(coker, TRIVIAL),
        ]
        assert check_exact(good).ok, "trial %d" % trial

        # mutant: zero out a column; the kernel at node 1 becomes Z
        j = rng.randrange(k)
        zeroed = tuple(
            tuple(0 if jj == j else row[jj] for jj in range(k)) for row in m
        )
        bad1 = list(good)
        bad1[1] = GroupMap(free(k), free(n), zeroed)
        rep = check_exact(bad1)
        assert not rep.ok and rep.first_failure == 1

        # mutant: double the injection; homology (Z/2)^k appears at node 2
        bad2 = list(good)
        bad2[1] = GroupMap(free(k), free(n), tuple(tuple(2 * x for x in row) for row in m))
        rep = check_exact(bad2)
        assert not rep.ok and rep.first_failure == 2
        assert rep.interior_homology[1] == elementary_two(k)


# ---------------------------------------------------------------------------
# F2 helpers


def test_f2_rank_matches_rational_rank_on_01():
    rng = random.Random(3)
    for _ in range(40):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m = tuple(tuple(rng.randint(0, 1) for _ in range(c)) for _ in range(r))
        # over F2 the rank equals the number of pivots of exact elimination
        a = [[x % 2 for x in row] for row in m]
        rank = 0
        for col in range(c):
            piv = next((i for i in range(rank, r) if a[i][col]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            for i in range(r):
                if i != rank and a[i][col]:
                    a[i] = [(x + y) % 2 for x, y in zip(a[i], a[rank])]
            rank += 1
        assert f2_rank(m) == rank


def test_identity_is_the_per_entry_identity():
    # rows from slices, against the entry-by-entry definition
    for n in range(65):
        want = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        got = identity(n)
        assert got == want, n
        assert all(type(row) is tuple for row in got), n
        assert all(type(x) is int for row in got for x in row), n


def test_f2_rank_reduces_mod_2():
    assert f2_rank(((2, 4), (6, 8))) == 0
    assert f2_rank(((1, 3), (3, 1))) == 1
    assert f2_rank(((1, 0), (0, 1))) == 2
