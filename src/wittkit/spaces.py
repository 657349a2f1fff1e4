"""Descriptors for points, smooth complex curves, and smooth complex surfaces.

A descriptor stores the small amount of data the group computations need:
its integral cohomology table and its Picard number rho with pi2, which the
constructors of the point and of curves fill in; genus and punctures for
curves; Picard data and the mod-2 operation matrices for surfaces. The length
of the table gives the dimension and so the kind of the space. Everything else
(Betti numbers, mod-2 cohomology, Picard groups, graded K-theory) is derived.

Matrix fields (sq2, pi2, s1) are F2 matrices over the canonical mod-2 bases:
H^2(Z)/2 is spanned by the free generators of H^2 followed by its 2-torsion
generators, and H^2(Z/2) extends that basis by the 2-torsion of H^3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from operator import mod

from .errors import DegreeOutOfRange, InconsistentDescriptor, RenderParseError
from .groups import (
    TRIVIAL,
    Z,
    Matrix,
    SymGroup,
    elementary_two,
    even_count,
    f2_rank,
    free,
    identity,
    mod2_rank,
    parse_group,
    product_columns,
    render,
)

INTEGRAL = "integral"
MOD2 = "mod2"

# largest 2g + n of a curve and largest free rank in a surface's h_int: the
# tables build up to that many invariant factors and karoubi_check square
# matrices of that side, so a space from a file must stay near the largest
# size the tables are meant for (g = 1000, with room for punctures)
MAX_CURVE_RANK = 2048
# most summands in an h_int string of a descriptor file; parse_group is cubic in them
MAX_GROUP_SUMMANDS = 256


@dataclass(frozen=True)
class SpaceDescriptor:
    """A space's data; its dimension and kind are read off ``h_int_table``."""
    KINDS = ("point", "curve", "surface")  # indexed by the dimension; not a field
    projective: bool = True
    genus: int = 0
    punctures: int = 0
    h_int_table: tuple = ()
    nu: int = 0
    rho: int = 0
    ch2_mod2_rank: int = 0
    sq2: Matrix = ()
    pi2: Matrix = ()
    s1: Matrix = ()

    @property
    def dim(self) -> int:
        if len(self.h_int_table) not in (1, 3, 5):  # the table lists H^0..H^(2 dim)
            raise InconsistentDescriptor("h_int_table must list 1, 3 or 5 groups")
        return len(self.h_int_table) // 2

    @property
    def kind(self) -> str:
        return self.KINDS[self.dim]

    def __str__(self):
        if self.kind == "point":
            return "point"
        if self.kind == "curve":
            if self.projective:
                return "curve(g=%d)" % self.genus
            return "affine_curve(g=%d,n=%d)" % (self.genus, self.punctures)
        return "surface(b2=%d,rho=%d)" % (self.h_int_table[2].free_rank, self.rho)


def make_point() -> SpaceDescriptor:
    return SpaceDescriptor(h_int_table=(Z,))


def _scalar(name: str, val, typ=int):
    """``val`` if its type is exactly ``typ``: a bool is not an int here."""
    if type(val) is not typ:
        raise InconsistentDescriptor(
            "%s must be %s" % (name, "a boolean" if typ is bool else "an integer"))
    return val


def make_curve(projective: bool, genus: int, punctures: int = 0) -> SpaceDescriptor:
    _scalar("projective", projective, bool)
    _scalar("genus", genus)
    _scalar("punctures", punctures)
    if genus < 0 or punctures < 0:
        raise InconsistentDescriptor("genus and punctures must be nonnegative")
    if projective and punctures:
        raise InconsistentDescriptor("projective curve cannot have punctures")
    if not projective and punctures == 0:
        raise InconsistentDescriptor("affine curve needs at least one puncture")
    if 2 * genus + punctures > MAX_CURVE_RANK:
        raise InconsistentDescriptor(
            "2 * genus + punctures must be at most %d" % MAX_CURVE_RANK)
    b1 = 2 * genus + (0 if projective else punctures - 1)
    rho = 1 if projective else 0  # the degree spans NS of a projective curve
    return SpaceDescriptor(projective=projective, genus=genus,
                           punctures=punctures, rho=rho, pi2=identity(rho),
                           h_int_table=(Z, free(b1), Z if projective else TRIVIAL))


def _as_f2(m, name: str, rows: int, cols: int) -> Matrix:
    if not (isinstance(m, (tuple, list)) and set(map(type, m)) <= {tuple, list}):
        raise InconsistentDescriptor("%s must be a sequence of rows" % name)
    mat = tuple([tuple(row) for row in m])
    if len(mat) != rows or any(len(row) != cols for row in mat):
        raise InconsistentDescriptor(
            "%s must be a %dx%d F2 matrix, got %dx%.64s"
            % (name, rows, cols, len(mat), [len(r) for r in mat] or "0")
        )
    if not set(map(type, chain.from_iterable(mat))) <= {int}:
        raise InconsistentDescriptor("%s entries must be integers" % name)
    return tuple([tuple([x & 1 for x in row]) for row in mat])


def make_surface(
    projective: bool,
    h_int,
    nu: int,
    rho: int,
    ch2_mod2_rank: int,
    sq2,
    pi2,
    s1=None,
) -> SpaceDescriptor:
    _scalar("projective", projective, bool)
    for name, val in (("nu", nu), ("rho", rho), ("ch2_mod2_rank", ch2_mod2_rank)):
        _scalar(name, val)
    table = tuple(h_int) if isinstance(h_int, (tuple, list)) else ()
    if len(table) != 5 or not all(isinstance(h, SymGroup) for h in table):
        raise InconsistentDescriptor("h_int must list the five groups H^0..H^4")
    if table[0] != Z:
        raise InconsistentDescriptor("h0: a connected surface has H^0 = Z")
    if table[1].torsion:
        raise InconsistentDescriptor("h1: H^1 of a smooth surface is torsion-free")
    if any(h.divisible_rank for h in table):
        raise InconsistentDescriptor("h_int entries must be finitely generated")
    if any((h.free_rank > 0) + len(h.torsion) > MAX_GROUP_SUMMANDS for h in table):
        raise InconsistentDescriptor(
            "h_int entries may have at most %d summands" % MAX_GROUP_SUMMANDS)
    if any(h.free_rank > MAX_CURVE_RANK for h in table):
        raise InconsistentDescriptor(
            "h_int entries may have free rank at most %d" % MAX_CURVE_RANK)

    b2 = table[2].free_rank
    t3 = even_count(table[3])
    if nu != even_count(table[2]):
        raise InconsistentDescriptor(
            "nu: expected the 2-torsion rank of H^2, which is %d" % even_count(table[2])
        )
    if not 0 <= rho <= b2:
        raise InconsistentDescriptor("rho: need 0 <= rho <= b2 = %d, got %d" % (b2, rho))
    if projective:
        # tors H^3 = tors H_1 = tors H^2 by duality and universal coefficients
        if table[3].torsion != table[2].torsion:
            raise InconsistentDescriptor(
                "projective-duality: torsion of H^3 must match H^2 (%s vs %s)"
                % (render(table[3]), render(table[2]))
            )
        b1, b3 = table[1].free_rank, table[3].free_rank
        if b3 != b1:  # rank H^3 = rank H_1 = rank H^1, by duality again
            raise InconsistentDescriptor(
                "projective-duality: rank H^3 must match H^1 (%d vs %d)" % (b3, b1))
        if b1 % 2:
            raise InconsistentDescriptor(
                "projective-b1: b1 = %d is odd, but Hodge symmetry makes it even" % b1)
        if table[4] != Z:
            raise InconsistentDescriptor("projective-h4: H^4 of a projective surface is Z")
        if ch2_mod2_rank != 1:
            raise InconsistentDescriptor("projective-ch2: CH^2/2 of a projective surface has rank 1")
    if ch2_mod2_rank != mod2_rank(table[4]):
        raise InconsistentDescriptor(
            "ch2-rank: CH^2/2 rank must equal rank H^4/2 = %d (degree map surjectivity)"
            % mod2_rank(table[4])
        )

    m2 = b2 + nu          # rank of H^2(Z)/2
    r2 = b2 + nu + t3     # rank of H^2(Z/2)
    r4 = mod2_rank(table[4])  # rank of H^4(Z/2); H^5 = 0
    pi2m = _as_f2(pi2, "pi2", r2, m2)
    if f2_rank(pi2m) != m2:
        raise InconsistentDescriptor("pi2-injective: pi2 must have full column rank %d" % m2)
    space = SpaceDescriptor(
        projective=projective,
        h_int_table=table,
        nu=nu,
        rho=rho,
        ch2_mod2_rank=ch2_mod2_rank,
        sq2=_as_f2(sq2, "sq2", r4, r2),
        pi2=pi2m,
    )
    if s1 is not None:
        s1 = _as_f2(s1, "s1", ch2_mod2_rank, rho + nu)
    if rho == b2:
        # Pic covers H^2(Z), so s1 is Sq2 on the reduction of H^2(Z)
        default = sq2_integral(space)
        if s1 not in (None, default):
            raise InconsistentDescriptor("s1: with rho = b2 it must equal Sq2 on H^2(Z)/2")
        s1 = default
    elif s1 is None:
        raise InconsistentDescriptor(
            "s1: no default available when rho < b2; supply the squaring matrix"
        )
    return replace(space, s1=s1)


def require_kind(space, kind: str):
    if not isinstance(space, SpaceDescriptor) or space.kind != kind:
        raise InconsistentDescriptor("expected a %s descriptor" % kind)


# ---------------------------------------------------------------------------
# derived invariants


def betti(space: SpaceDescriptor) -> tuple:
    return tuple([h.free_rank for h in space.h_int_table])


def singular_h(space: SpaceDescriptor, degree: int, coefficients: str) -> SymGroup:
    table = space.h_int_table
    if not 0 <= degree <= 2 * space.dim:
        raise DegreeOutOfRange(
            "degree %d out of range 0..%d" % (degree, 2 * space.dim)
        )
    if coefficients == INTEGRAL:
        return table[degree]
    if coefficients == MOD2:
        return elementary_two(mod2_betti(table, degree))
    raise ValueError("coefficients must be %r or %r" % (INTEGRAL, MOD2))


def mod2_betti(h_int: tuple, degree: int) -> int:
    """Rank of H^degree(Z/2) by universal coefficients, from an integral
    cohomology table H^0..; degrees outside the table count as 0."""
    if not 0 <= degree < len(h_int):
        return 0
    return mod2_rank(h_int[degree]) + sum(map(even_count, h_int[degree + 1:degree + 2]))


def cohomology(space: SpaceDescriptor, degree: int, coefficients: str) -> SymGroup:
    """``singular_h``, vanishing above the real dimension."""
    if degree > 2 * space.dim:
        return TRIVIAL
    return singular_h(space, degree, coefficients)


def etale_h(space: SpaceDescriptor, degree: int) -> SymGroup:
    """Mod-2 etale cohomology, identified with singular mod-2 cohomology."""
    return singular_h(space, degree, MOD2)


def picard(space: SpaceDescriptor) -> SymGroup:
    """Pic = Z^rho + tors H^2 + D(b1 - (n - 1)): the n - 1 loops around the n
    punctures of an affine curve lie outside the divisible Pic^0."""
    loops = max(space.punctures - 1, 0)
    return SymGroup(space.rho, cohomology(space, 2, INTEGRAL).torsion,
                    cohomology(space, 1, INTEGRAL).free_rank - loops)


def c1_rank(space: SpaceDescriptor) -> int:
    """Rank of c1: Pic/2 -> H^2(Z/2), which is rho + nu. Every constructor gives
    pi2 full column rank b2 + nu (``make_surface`` checks it), ``pic_columns`` picks
    rho + nu of them, and a curve or the point has pi2 = identity(rho) and nu = 0."""
    return space.rho + space.nu


def thom_space(curve: SpaceDescriptor) -> SpaceDescriptor:
    """The Thom space of an odd-degree line bundle L on a projective curve, an open
    surface with cells in dimensions 0, 2, 3 (b1 of them) and 4. Its Thom class u spans
    Pic/2, and Sq2 u = w2(L) u by Wu's formula, where w2(L) = deg L mod 2 is the top class."""
    one = identity(1)
    return SpaceDescriptor(projective=False, h_int_table=(Z, TRIVIAL) + curve.h_int_table,
                           rho=1, ch2_mod2_rank=1, sq2=one, pi2=one, s1=one)


def k0_alg(space: SpaceDescriptor) -> tuple:
    """Graded pieces (rank, c1, c2) of algebraic K_0, up to the dimension."""
    return (Z, picard(space), cohomology(space, 4, INTEGRAL))[: space.dim + 1]


def pic_columns(space: SpaceDescriptor) -> tuple:
    """Columns of pi2 spanning the image of Pic/2 inside H^2(Z)/2.

    Convention: the first rho free generators of H^2 followed by all nu
    torsion generators (the Neron-Severi lattice is primitively embedded).
    """
    b2 = cohomology(space, 2, INTEGRAL).free_rank
    return tuple(range(space.rho)) + tuple(range(b2, b2 + space.nu))


def sq2_integral(space: SpaceDescriptor) -> Matrix:
    """Sq2 restricted to the image of H^2(Z) inside H^2(Z/2), as an F2 matrix
    on the mod-2 reduction of H^2(Z); it has no rows below dimension two. Row i
    sums mod 2 the rows of pi2 that the odd entries of row i of sq2 pick."""
    sq2, pi2 = space.sq2, space.pi2
    zero = (0,) * product_columns(sq2, pi2)
    return tuple([tuple(map(mod, map(sum, zip(zero, *compress(pi2, map(mod, row, repeat(2))))),
                            repeat(2)))
                  for row in sq2])


def sq2z_on_pic(space: SpaceDescriptor) -> Matrix:
    """sq2 composed with pi2, restricted to the Picard columns."""
    cols = pic_columns(space)
    return tuple([tuple([row[j] for j in cols]) for row in sq2_integral(space)])


def pic_surjective(space: SpaceDescriptor) -> bool:
    """Whether Pic(X) covers H^2(X;Z): rho = b2, true below dimension two."""
    return space.rho == cohomology(space, 2, INTEGRAL).free_rank


# ---------------------------------------------------------------------------
# JSON descriptors


# each kind's file fields in the order its constructor takes them; s1 may be left out
_FIELDS = {
    "point": (),
    "curve": ("projective", "genus", "punctures"),
    "surface": ("projective", "h_int", "nu", "rho", "ch2_mod2_rank", "sq2", "pi2", "s1"),
}


def descriptor_to_json(space: SpaceDescriptor) -> str:
    doc = {"kind": space.kind}
    for key in _FIELDS[space.kind]:
        val = space.h_int_table if key == "h_int" else getattr(space, key)
        doc[key] = ([render(x) if isinstance(x, SymGroup) else list(x) for x in val]
                    if isinstance(val, tuple) else val)
    return json.dumps(doc, sort_keys=True)


def descriptor_from_json(source) -> SpaceDescriptor:
    if isinstance(source, str):
        try:
            data = json.loads(source)
        except (RecursionError, ValueError) as exc:
            # ValueError also covers integers past the int-conversion limit
            raise InconsistentDescriptor("descriptor is not valid JSON: %s" % exc)
    else:
        data = source
    if not isinstance(data, dict):
        raise InconsistentDescriptor("descriptor must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise InconsistentDescriptor("kind must be point, curve, or surface, got %.64r" % (kind,))
    fields = _FIELDS[kind]
    extra = set(data) - {"kind", *fields}
    if extra:  # the first three, their list cut short, and how many more
        raise InconsistentDescriptor("unknown descriptor keys: %.96s%s" % (
            sorted(extra)[:3], " and %d more" % (len(extra) - 3) if len(extra) > 3 else ""))
    missing = set(fields) - set(data) - {"s1"}
    if missing:
        raise InconsistentDescriptor("missing descriptor keys: %s" % sorted(missing))
    args = [data.get(key) for key in fields]
    if kind == "surface":
        raw = args[1]
        if (not isinstance(raw, list) or len(raw) != 5
                or not all(isinstance(s, str) for s in raw)):
            raise InconsistentDescriptor("h_int must list five group strings H^0..H^4")
        if any(s.count(" + ") + 1 > MAX_GROUP_SUMMANDS for s in raw):
            raise InconsistentDescriptor(
                "h_int entries may have at most %d summands" % MAX_GROUP_SUMMANDS)
        try:
            args[1] = tuple([parse_group(s) for s in raw])
        except RenderParseError as exc:
            raise InconsistentDescriptor("h_int entry unreadable: %s" % exc)
    # the constructor is looked up on each call, so a wrapper bound in its place runs
    return {"point": make_point, "curve": make_curve, "surface": make_surface}[kind](*args)
