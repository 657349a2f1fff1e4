"""Exact arithmetic for finitely generated abelian groups with divisible atoms.

Groups are kept in a canonical form (free rank, invariant-factor chain,
divisible 2-torsion rank) so that equality is structural. ``_chain`` is the
one route from a list of cyclic orders to that chain: ``direct_sum``,
``direct_sum_all`` and ``parse_group`` hand it every order at once, and it
runs one ``snf_diagonal`` of the diagonal presentation, none for fewer than
two orders. A ``GroupMap`` is an integer matrix on the canonical generators
of two finitely generated groups; it refuses a divisible summand on either
side, so divisible parts are tracked beside the maps. Kernels, cokernels
and homology come from Smith normal form, whose one working matrix carries
U to its right and V below it; all three are ``homology_at``,
with ``None`` for the missing map. Between elementary 2-groups it reads F2
ranks, a free middle group with nothing divided out and a finite target is
its own cycle group, and a middle group Z is read off two integers; none of
these costs an elimination. Otherwise it reads the column transform V
(through ``nullspace``) and then invariant factors alone; a zero outgoing
map and zero image columns cost no elimination. ``cokernel_map``'s
projection reads only the row transform U.

Matrix convention: a matrix is a tuple of row tuples of exact ints, and
``GroupMap`` refuses any other entry, as ``SymGroup`` refuses a rank or an
invariant factor that is not an int. An m-by-0 matrix is ``((),) * m`` and
a 0-by-n matrix is ``()``; functions that cannot infer a dimension from the
data take it explicitly; ``product_columns`` refuses a ragged operand for
``mat_mul`` and for the one F2 product, Sq2 after pi2, which
``spaces.sq2_integral`` sums by rows. Tuples are built from lists: a tuple
built from a generator is resized, never reusing a freed one, so CPython's
free lists fill. The constructors' checks and ``mat_mul`` (by columns) run
per entry in C builtins. ``from_counts`` builds
Z^a + (Z/2)^b + D(t), the shape of every table row and of ``elementary_two``,
with no per-factor check, which ``SymGroup(...)`` keeps, and ``built_map`` a map
valid by construction with no per-entry check, which ``GroupMap(...)`` keeps. A
map's relations are checked row by row over the codomain: a factor dividing the
domain's first invariant factor imposes nothing. ``is_elementary_two`` reads a
chain's last factor. The F2 echelon keys vectors on their lowest bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm
from operator import mod, mul

from .errors import (
    InvariantViolation,
    RenderParseError,
    ShapeMismatch,
    UnsupportedDivisibleMap,
)

Matrix = tuple

# ---------------------------------------------------------------------------
# matrix helpers


def identity(n: int) -> Matrix:
    return tuple([(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)])


def transpose(m, cols: int | None = None) -> Matrix:
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    return tuple([tuple([row[i] for row in m]) for i in range(nc)])


def product_columns(a, b, b_cols: int | None = None) -> int:
    """The column count of a times b, refusing a ragged operand or inner
    dimensions that disagree; pass b_cols when b has no rows."""
    nc = b_cols if b_cols is not None else (len(b[0]) if b else 0)
    if a and b and len(a[0]) != len(b):
        raise ShapeMismatch("inner dimensions disagree: %d vs %d" % (len(a[0]), len(b)))
    if len({*map(len, a)}) > 1 or {*map(len, b)} - {nc}:
        raise ShapeMismatch("ragged operand: the rows of a matrix differ in length")
    return nc


def mat_mul(a, b, b_cols: int | None = None) -> Matrix:
    """a (p x q) times b (q x r); pass b_cols when b has no rows."""
    nc = product_columns(a, b, b_cols)
    cols = list(zip(*b)) or [()] * nc
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def _swap_cols(a, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]


def _add_row(a, dst, src, mult):
    # row_dst += mult * row_src
    if mult:
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]


def _add_col(a, dst, src, mult):
    if mult:
        for row in a:
            if row[src]:
                row[dst] += mult * row[src]


def _smith(m, rows, cols, track_u, track_v):
    """The elimination behind ``snf``, as lists: (U or None, S, V or None).

    A tracked U rides to the right of the first nr rows of one working matrix
    and a tracked V below its first nc columns, so each operation runs once;
    pivots are read in the first nc columns alone, so S is the same either way.
    """
    nr = rows if rows is not None else len(m)
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    a = [list(map(int, row)) for row in m]
    if len(a) != nr or any(len(row) != nc for row in a):
        raise ShapeMismatch("matrix shape does not match declared %dx%d" % (nr, nc))
    if track_u:
        for row, e in zip(a, identity(nr)):
            row += e
    if track_v:
        a += map(list, identity(nc))

    t = 0
    while t < min(nr, nc):
        # first smallest |entry| of the trailing block in row-major order;
        # a unit cannot be beaten, so the search stops at the first one
        best, pi = 0, -1
        for i in range(t, nr):
            e = min(map(abs, filter(None, a[i][t:nc])), default=0)
            if e and (best == 0 or e < best):
                best, pi = e, i
                if e == 1:
                    break
        if pi < 0:
            break
        pj = list(map(abs, a[pi][:nc])).index(best, t)
        a[t], a[pi] = a[pi], a[t]
        _swap_cols(a, t, pj)
        while True:
            restart = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    _add_row(a, i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        # remainder beats the pivot; promote it and redo
                        a[t], a[i] = a[i], a[t]
                        restart = True
            if restart:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    _add_col(a, j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        _swap_cols(a, t, j)
                        restart = True
            if restart:
                continue
            # pivot must divide the whole trailing block for the chain; a
            # unit always does, otherwise the first row it fails is added
            p = a[t][t]
            if p == 1 or p == -1:
                break
            bad = next((i for i in range(t + 1, nr) if gcd(*a[i][t + 1:nc]) % p), None)
            if bad is None:
                break
            _add_row(a, t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    u = [row[nc:] for row in a[:nr]] if track_u else None
    s = [row[:nc] for row in a[:nr]]
    return u, s, (a[nr:] if track_v else None)


def snf(m, rows: int | None = None, cols: int | None = None):
    """Smith normal form with transforms: returns (U, S, V) with U*m*V = S.

    U and V are unimodular, S is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ... Zeros come last.

    The pivot at each step is the first entry of smallest nonzero absolute
    value of the trailing block in row-major order; the search stops at the
    first unit. Internal callers run the same elimination without the
    transforms they do not read: ``snf_diagonal`` (presentations, and
    ``_chain`` behind every direct sum and parsed group) tracks neither,
    ``nullspace`` tracks only V
    (``homology_at``, behind ``kernel`` and ``cokernel``, calls both of
    these), and ``cokernel_map`` tracks only U.
    """
    u, s, v = _smith(m, rows, cols, True, True)
    return tuple(map(tuple, u)), tuple(map(tuple, s)), tuple(map(tuple, v))


def snf_diagonal(m, rows: int | None = None, cols: int | None = None):
    nr = rows if rows is not None else len(m)
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    _, s, _ = _smith(m, nr, nc, False, False)
    return tuple([s[i][i] for i in range(min(nr, nc))])


def nullspace(m, rows: int | None = None, cols: int | None = None):
    """Basis of the integer nullspace {x : m.x = 0}, as a tuple of vectors.

    The basis spans the full (saturated) nullspace lattice.
    """
    nr = rows if rows is not None else len(m)
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    _, s, v = _smith(m, nr, nc, False, True)
    k = min(nr, nc)
    return tuple([tuple([v[i][j] for i in range(nc)])
                  for j in range(nc) if j >= k or s[j][j] == 0])


# ---------------------------------------------------------------------------
# F2 linear algebra (bitmask rows)


def _f2_echelon(vectors) -> list:
    """Echelon form over F2 of vectors mod 2: bitmasks, distinct lowest bits,
    one per vector independent of those before it."""
    pivots = {}
    for vec in vectors:
        bits = 0
        for j, x in enumerate(vec):
            if x & 1:
                bits |= 1 << j
        while bits:
            p = pivots.get(bits & -bits)
            if p is None:
                pivots[bits & -bits] = bits
                break
            bits ^= p
    return list(pivots.values())


def f2_rank(m) -> int:
    """Rank over F2; integer entries are reduced mod 2."""
    return len(_f2_echelon(m))


# ---------------------------------------------------------------------------
# canonical groups


@dataclass(frozen=True)
class SymGroup:
    """Canonical form: Z^free_rank + Z/d1 + ... + Z/dk + D(divisible_rank).

    The invariant factors form a divisibility chain with every d >= 2. The
    divisible atom D(t) is a formal two-divisible summand whose only tracked
    structure is its 2-torsion rank t (it models Jacobians and Pic^0).
    """

    free_rank: int = 0
    torsion: tuple = ()
    divisible_rank: int = 0

    def __post_init__(self):
        tor = tuple(self.torsion)
        object.__setattr__(self, "torsion", tor)
        if not all(map(isinstance, (self.free_rank, self.divisible_rank) + tor, repeat(int))):
            raise ValueError("SymGroup ranks and invariant factors must be ints")
        if self.free_rank < 0 or self.divisible_rank < 0:
            raise ValueError("negative rank in SymGroup")
        if tor and min(tor) < 2:
            d = next(d for d in tor if d < 2)
            raise ValueError("invariant factors must be >= 2, got %r" % (d,))
        if any(map(mod, tor[1:], tor)):
            a, b = next((a, b) for a, b in zip(tor, tor[1:]) if b % a)
            raise ValueError("invariant factors %d | %d fail divisibility" % (a, b))

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion and self.divisible_rank == 0

    def order(self):
        """Number of elements, or None when infinite."""
        if self.free_rank or self.divisible_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        return render(self)


TRIVIAL = SymGroup()
Z = SymGroup(free_rank=1)
Z2 = SymGroup(torsion=(2,))


def free(rank: int) -> SymGroup:
    return SymGroup(free_rank=rank)


def cyclic(n: int) -> SymGroup:
    """Z/n, with Z/1 = 0 and Z/0 = Z; a negative order is refused."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("cyclic order must be an int >= 0, got %r" % (n,))
    return SymGroup(torsion=(n,)) if n >= 2 else (TRIVIAL if n == 1 else Z)


def elementary_two(rank: int) -> SymGroup:
    return from_counts(0, rank)


def from_counts(free_rank: int, twos: int, div: int = 0) -> SymGroup:
    """Z^free_rank + (Z/2)^twos + D(div) from its counts. A chain of 2's is
    valid by construction, so no factor is checked; a negative count is refused."""
    if free_rank < 0 or twos < 0 or div < 0:
        raise ValueError("negative rank in SymGroup")
    g = object.__new__(SymGroup)
    fields = g.__dict__
    fields["free_rank"], fields["torsion"], fields["divisible_rank"] = free_rank, (2,) * twos, div
    return g


def divisible(two_torsion_rank: int) -> SymGroup:
    return SymGroup(divisible_rank=two_torsion_rank)


def relation_rows(g: SymGroup) -> Matrix:
    """Presentation relations on the canonical generators (free gens first)."""
    n = g.ngens
    return tuple([
        tuple([d if j == g.free_rank + i else 0 for j in range(n)])
        for i, d in enumerate(g.torsion)
    ])


def group_from_presentation(relations, generators: int) -> SymGroup:
    rel = tuple([tuple([int(x) for x in row]) for row in relations])
    diag = snf_diagonal(rel, len(rel), generators)
    torsion = tuple([d for d in diag if d >= 2])
    nonzero = sum(1 for d in diag if d)
    return SymGroup(generators - nonzero, torsion, 0)


def _chain(factors) -> tuple:
    """Invariant factors of the sum of Z/d, d >= 2: one elimination, none below two."""
    n = len(factors)
    if n < 2:
        return tuple(factors)
    rel = [[d if j == i else 0 for j in range(n)] for i, d in enumerate(factors)]
    return tuple([d for d in snf_diagonal(rel, n, n) if d >= 2])


def direct_sum(a: SymGroup, b: SymGroup) -> SymGroup:
    return direct_sum_all((a, b))


def direct_sum_all(groups) -> SymGroup:
    gs = tuple(groups)
    return SymGroup(sum(g.free_rank for g in gs), _chain([d for g in gs for d in g.torsion]),
                    sum(g.divisible_rank for g in gs))


def even_count(g: SymGroup) -> int:
    """Number of invariant factors of even order: all of them less the odd ones."""
    return len(g.torsion) - sum(map(mod, g.torsion, repeat(2))) if g.torsion else 0


def mod2_generators(g: SymGroup) -> tuple:
    """Canonical generators surviving in g/2g: the free and even-order ones."""
    return tuple([j for j in range(g.ngens)
                  if j < g.free_rank or g.torsion[j - g.free_rank] % 2 == 0])


def mod2(g: SymGroup) -> SymGroup:
    """g/2g. The divisible atom is two-divisible, so it contributes nothing."""
    return elementary_two(mod2_rank(g))


def two_torsion(g: SymGroup) -> SymGroup:
    """g[2]. D(t)[2] has rank t by definition of the atom."""
    return elementary_two(even_count(g) + g.divisible_rank)


def mod2_rank(g: SymGroup) -> int:
    return g.free_rank + even_count(g)


def is_elementary_two(g: SymGroup) -> bool:
    """Whether g is an F2-vector space: the chain's last factor is 2."""
    return not (g.free_rank or g.divisible_rank) and (not g.torsion or g.torsion[-1] == 2)


def exponent_two(g: SymGroup) -> SymGroup:
    """Return g, which must be an F2-vector space (Witt groups here are).

    A failure is a programming error, raised even under ``python -O``.
    """
    if not is_elementary_two(g):
        raise InvariantViolation("expected exponent two, got %s" % render(g))
    return g


# ---------------------------------------------------------------------------
# rendering grammar: `0`, `Z`, `Z^r`, `Z/n`, `D(t)` joined by ` + `


def render(g: SymGroup) -> str:
    parts = []
    if g.free_rank == 1:
        parts.append("Z")
    elif g.free_rank > 1:
        parts.append("Z^%d" % g.free_rank)
    parts.extend("Z/%d" % d for d in g.torsion)
    if g.divisible_rank:
        parts.append("D(%d)" % g.divisible_rank)
    return " + ".join(parts) if parts else "0"


_TOK_FREE = re.compile(r"\AZ(?:\^([1-9][0-9]*))?\Z")
_TOK_CYCLIC = re.compile(r"\AZ/([1-9][0-9]*)\Z")
_TOK_DIV = re.compile(r"\AD\(([1-9][0-9]*)\)\Z")


def parse_summands(text: str) -> tuple:
    """(free rank, cyclic orders, divisible rank) of a rendering, in any order."""
    s = text.strip()
    free_rank, factors, div = 0, [], 0
    if s == "0":
        return free_rank, factors, div
    for tok in s.split(" + "):
        m = _TOK_FREE.match(tok) or _TOK_CYCLIC.match(tok) or _TOK_DIV.match(tok)
        if not m:
            raise RenderParseError("bad group token %r in %r" % (tok[:32], text[:64]))
        try:
            n = int(m.group(1) or 1)
        except ValueError:  # more digits than the int-conversion limit
            raise RenderParseError("number too long in %r" % tok[:32]) from None
        if m.re is _TOK_FREE:
            free_rank += n
        elif m.re is _TOK_DIV:
            div += n
        elif n < 2:
            raise RenderParseError("cyclic order must be >= 2 in %r" % tok[:32])
        else:
            factors.append(n)
    return free_rank, factors, div


def parse_group(text: str) -> SymGroup:
    """Parse the rendering grammar; summands may come in any order."""
    free_rank, factors, div = parse_summands(text)
    return SymGroup(free_rank, _chain(factors), div)


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class GroupMap:
    """Homomorphism between the finitely generated parts of two SymGroups.

    ``matrix`` has shape (codomain.ngens x domain.ngens); column j is the
    image of the j-th canonical generator of the domain. Maps over F2 are the
    same thing with entries in {0, 1} and elementary 2-groups on both sides.

    Neither side may carry a divisible summand (``UnsupportedDivisibleMap``),
    so no operation on maps checks for one.
    """

    domain: SymGroup
    codomain: SymGroup
    matrix: Matrix

    def __post_init__(self):
        mat = tuple([tuple(row) for row in self.matrix])
        object.__setattr__(self, "matrix", mat)
        dom, cod = self.domain, self.codomain
        if not all(map(isinstance, chain.from_iterable(mat), repeat(int))):
            raise ValueError("GroupMap matrix entries must be ints")
        if len(mat) != cod.ngens or {*map(len, mat)} - {dom.ngens}:
            raise ShapeMismatch(
                "matrix must be %dx%d (codomain x domain generators)"
                % (cod.ngens, dom.ngens)
            )
        if dom.divisible_rank or cod.divisible_rank:
            raise UnsupportedDivisibleMap(
                "a GroupMap takes no divisible summand on either side")
        # the matrix must send domain relations into the codomain lattice
        fd = dom.free_rank
        if dom.torsion and not _in_lattice([row[fd:] for row in mat], cod, dom.torsion):
            d = next(d for j, d in enumerate(dom.torsion, fd)
                     if not _in_lattice([row[j:j + 1] for row in mat], cod, (d,)))
            raise ValueError(
                "matrix does not respect relations: generator of order %d "
                "has image of larger order" % d
            )


def built_map(domain: SymGroup, codomain: SymGroup, matrix: Matrix) -> GroupMap:
    """A map valid by construction: a tuple of codomain.ngens row tuples of domain.ngens
    ints that respects the domain's relations. Only a divisible side is checked."""
    if domain.divisible_rank or codomain.divisible_rank:
        return GroupMap(domain, codomain, matrix)  # which refuses it
    f = object.__new__(GroupMap)
    vars(f).update(domain=domain, codomain=codomain, matrix=matrix)
    return f


def _in_lattice(rows, g: SymGroup, orders=None) -> bool:
    """Whether each column of ``rows`` (coordinates in g), times its entry of
    the chain ``orders`` if given, lies in g's relation lattice: a free row
    must vanish, and a factor dividing orders[0] divides every order."""
    if any(map(any, rows[:g.free_rank])):
        return False
    for row, e in zip(rows[g.free_rank:], g.torsion):
        if orders is not None and orders[0] % e == 0:
            continue
        if any(map(mod, row if orders is None else map(mul, orders, row), repeat(e))):
            return False
    return True


def zero_map(domain: SymGroup, codomain: SymGroup) -> GroupMap:
    return built_map(domain, codomain, ((0,) * domain.ngens,) * codomain.ngens)


def kernel(f: GroupMap) -> SymGroup:
    return homology_at(None, f)


def cokernel_map(f: GroupMap):
    """Cokernel together with the canonical projection from the codomain,
    whose rows are rows of U from one elimination."""
    b = f.codomain
    n = b.ngens
    rel = transpose(f.matrix, f.domain.ngens) + relation_rows(b)
    u1, s1, _ = _smith(transpose(rel, n), n, len(rel), True, False)
    k = min(n, len(rel))
    free_idx = [i for i in range(n) if i >= k or s1[i][i] == 0]
    tor_idx = [i for i in range(k) if s1[i][i] >= 2]
    coker = SymGroup(len(free_idx), tuple([s1[i][i] for i in tor_idx]), 0)
    proj = GroupMap(b, coker, tuple([u1[i] for i in free_idx + tor_idx]))
    return coker, proj


def cokernel(f: GroupMap) -> SymGroup:
    return homology_at(f, None)


def mod2_matrix(f: GroupMap) -> Matrix:
    """f on mod-2 reductions, in the ``mod2_generators`` of both sides.

    An odd-order generator drops out: it maps to a class of odd order, whose
    even coordinates are 0 mod 2."""
    cols = mod2_generators(f.domain)
    return tuple([tuple([f.matrix[i][j] % 2 for j in cols])
                  for i in mod2_generators(f.codomain)])


def image_rank2(f: GroupMap) -> int:
    """F2-rank of the induced map on mod-2 reductions."""
    return f2_rank(mod2_matrix(f))


def composite_is_zero(f: GroupMap, g: GroupMap) -> bool:
    if f.codomain != g.domain:
        raise ShapeMismatch("maps are not composable")
    return _in_lattice(mat_mul(g.matrix, f.matrix, f.domain.ngens), g.codomain)


def homology_at(f: GroupMap | None, g: GroupMap | None) -> SymGroup:
    """ker(g)/im(f) at the middle group; ``None`` stands for the zero map.

    At least one map is given. ``kernel`` is ``homology_at(None, g)`` and
    ``cokernel`` is ``homology_at(f, None)``; when both maps are given their
    composite must be zero. No elimination runs when the middle group and
    g's target (if g is given) are elementary 2-groups: the answer is
    (Z/2)^(n - r_f - r_g) with F2 ranks, 0 for a missing map. Nor when f is
    missing or zero, the middle group is free and g's target finite: the
    cycles have finite index in Z^n, so they are Z^n. Nor when the middle
    group is Z: the cycles are mZ for the order m of g(1) (1 when g is
    missing) and the boundaries dZ for the gcd d of f's row (0 when f is
    missing), so the answer is 0 when m is infinite and Z/(d/m) otherwise.
    Otherwise zero image columns add no relation, and a zero g makes every
    element a cycle, so it costs no nullspace.
    """
    if f is not None and g is not None and not composite_is_zero(f, g):
        raise ValueError("homology undefined: composite is not zero")
    return _homology(f, g)


def _homology(f: GroupMap | None, g: GroupMap | None) -> SymGroup:
    """``homology_at`` past its test of the composite, which the caller has made."""
    b = f.codomain if f is not None else g.domain
    n = b.ngens
    c = g.codomain if g is not None else TRIVIAL
    if is_elementary_two(b) and is_elementary_two(c):
        return elementary_two(
            n - sum(f2_rank(m.matrix) for m in (f, g) if m is not None))
    if b == Z:
        col = () if g is None else tuple([row[0] for row in g.matrix])
        if any(col[:c.free_rank]):
            return TRIVIAL
        m = lcm(*(e // gcd(e, x) for e, x in zip(c.torsion, col[c.free_rank:])))
        return cyclic((0 if f is None else gcd(*f.matrix[0])) // m)
    images = () if f is None else tuple([
        col for col in transpose(f.matrix, f.domain.ngens) if any(col)])
    if not images and not b.torsion and c.free_rank == 0:
        return b  # a finite-index sublattice of Z^n is Z^n
    boundaries = images + relation_rows(b)
    if g is None or not any(map(any, g.matrix)):
        return group_from_presentation(boundaries, n) if images else b
    # cycles: {x : g(x) lies in the codomain relation lattice}, spanned in
    # domain coordinates; the lattice always contains b's own relations
    relc = relation_rows(c)
    stacked = tuple([g.matrix[i] + tuple([r[i] for r in relc]) for i in range(c.ngens)])
    cycles = tuple([vec[:n] for vec in nullspace(stacked, c.ngens, n + len(relc))])
    # (cycles + boundaries) / boundaries, presented on the cycles
    k = len(cycles)
    basis = nullspace(transpose(cycles + boundaries, n), n, k + len(boundaries))
    return group_from_presentation(tuple([vec[:k] for vec in basis]), k)


@dataclass(frozen=True)
class ExactnessReport:
    """Result of check_exact.

    Nodes are indexed by position in the chain of groups A_0 -> A_1 -> ...;
    interior nodes are 1..len(maps)-1. ``interior_homology`` holds the
    homology at each interior node, or None where the composite was nonzero.
    """

    ok: bool
    first_failure: int | None
    interior_homology: tuple


def check_exact(maps) -> ExactnessReport:
    maps = tuple(maps)
    for i in range(len(maps) - 1):
        if maps[i].codomain != maps[i + 1].domain:
            raise ShapeMismatch("maps %d and %d are not composable" % (i, i + 1))
    homs = tuple([_homology(f, g) if composite_is_zero(f, g) else None
                  for f, g in zip(maps, maps[1:])])
    first = next((i for i, h in enumerate(homs, 1) if h is None or not h.is_trivial), None)
    return ExactnessReport(first is None, first, homs)
