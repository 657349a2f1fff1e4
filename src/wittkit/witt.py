"""Closed-form Grothendieck-Witt and Witt groups.

W of every space is one count of Z/2 summands; GW of the point and of curves
(all shifts, both twist classes, read from Pic/2) is one count of Z, Z/2 and
divisible summands. A reduced row is the count minus the point's count. Also
here: the Karoubi-sequence bookkeeping that ties the GW tables to K_0, and
Stiefel-Whitney arithmetic over structure-constant rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    InvariantViolation,
    NoSuchTwist,
    RenderParseError,
    RingMismatch,
    TruncationError,
    UnsupportedTwist,
)
from .groups import (
    Z,
    Z2,
    GroupMap,
    SymGroup,
    check_exact,
    cokernel_map,
    composite_is_zero,
    direct_sum,
    divisible,
    elementary_two,
    f2_rank,
    free,
    from_counts,
    image_rank2,
    mod2_rank,
    render,
)
from .spaces import (
    SpaceDescriptor,
    betti,
    c1_rank,
    etale_h,
    make_point,
    mod2_betti,
    picard,
    require_kind,
    thom_space,
)

TRIVIAL_TWIST = "trivial"
ODD_TWIST = "O(p)"


def normalize_twist(twist) -> str:
    if twist is None:
        return TRIVIAL_TWIST
    if twist in (TRIVIAL_TWIST, ODD_TWIST):
        return twist
    raise NoSuchTwist("unknown twist class %.64r; use %r or %r"
                      % (twist, TRIVIAL_TWIST, ODD_TWIST))


def check_twist(space: SpaceDescriptor, twist) -> str:
    """The normalized twist class, once it is known to exist on ``space``;
    twist classes are Pic/2, of rank rho + nu (0 on the point and affine curves)."""
    tw = normalize_twist(twist)
    if tw == ODD_TWIST:
        if space.dim == 2:
            raise UnsupportedTwist("twisted surface groups are out of contract")
        if space.rho + space.nu == 0:
            raise NoSuchTwist("%s admits only the trivial twist" % space)
    return tw


def minus_point(total: SymGroup, point: SymGroup, twist) -> SymGroup:
    """``total`` minus the point summand ``point``, by count, as every reduced row is:
    the space's Z, Z/2 and D summands minus the point's; a twisted group has no point
    summand, and a negative count raises even under ``python -O``."""
    if twist == ODD_TWIST:
        return total
    counts = (total.free_rank - point.free_rank, len(total.torsion) - len(point.torsion),
              total.divisible_rank - point.divisible_rank)
    if min(counts) < 0:
        raise InvariantViolation("%s is not a summand of %s" % (render(point), render(total)))
    return from_counts(*counts)


def thom_row(row_of, curve: SpaceDescriptor, point_row: tuple) -> tuple:
    """The row of ``curve`` under O(p), by the Thom isomorphism: shift i reads the
    untwisted ``row_of`` its Thom space at shift i + 1, minus ``point_row`` there."""
    row = row_of(thom_space(curve), TRIVIAL_TWIST)
    return tuple([minus_point(row[i], point_row[i], TRIVIAL_TWIST) for i in (1, 2, 3, 0)])


# ---------------------------------------------------------------------------
# point and curves


def _gw_row(space: SpaceDescriptor, tw: str) -> tuple:
    """GW^0..GW^3 of the point or a curve under the normalized twist ``tw``."""
    b1, deg = mod2_betti(space.h_int_table, 1), mod2_betti(space.h_int_table, 2)
    jac = picard(space).divisible_rank
    # GW^i as (free rank, number of Z/2, divisible rank); deg = h^2 is 1
    # exactly on a projective curve, and the point has b1 = deg = jac = 0
    if tw == ODD_TWIST:
        table = ((1, b1, 0), (1, 0, jac), (1, 0, 0), (1, 0, jac))
    else:
        table = ((1, b1 + deg, 0), (deg, 0, jac), (1, 0, 0), (deg, 1, jac))
    return tuple([from_counts(*counts) for counts in table])


_GW_POINT = _gw_row(make_point(), TRIVIAL_TWIST)


def gw_point(i: int) -> SymGroup:
    return _GW_POINT[i % 4]


def w_point(i: int) -> SymGroup:
    return _W_POINT[i % 4]


def gw_curve(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    require_kind(space, "curve")
    return _gw_row(space, check_twist(space, twist))[i % 4]


def w_curve(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    require_kind(space, "curve")
    return w(space, i, twist)


def gw_curve_reduced(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    return minus_point(gw_curve(space, i, twist), gw_point(i), twist)


# ---------------------------------------------------------------------------
# surfaces


def w0_graded_surface(space: SpaceDescriptor):
    """Graded pieces (rank, w1-bar, w2-bar) of W^0."""
    require_kind(space, "surface")
    h2 = etale_h(space, 2)
    return (Z2, etale_h(space, 1), elementary_two(mod2_rank(h2) - c1_rank(space)))


def w_surface(space: SpaceDescriptor, i: int) -> SymGroup:
    require_kind(space, "surface")
    return w(space, i)


# ---------------------------------------------------------------------------
# any space


def w(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    """W^i of any space, elementary_two of one count over its Picard and Chow
    data: 1 + h^1 + h^2 - rank c1, rank Pic/2 - rank s1 + h^3, ch2 - rank s1 and 0,
    where Pic/2 and c1 have rank rho + nu; under O(p), read off the Thom space."""
    return w_row(space, twist)[i % 4]


def w_row(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> tuple:
    """W^0..W^3 of the space, from rank c1 = rho + nu and one F2 rank, that of s1;
    a curve under O(p) reads the untwisted row of its Thom space through ``thom_row``."""
    return _w_row(space, check_twist(space, twist))


def _w_row(space: SpaceDescriptor, tw: str) -> tuple:
    """``w_row`` under the normalized twist ``tw``; h^p = rank H^p(Z/2); ranks only s1."""
    if tw == ODD_TWIST:
        return thom_row(_w_row, space, _W_POINT)
    h1, h2, h3 = [mod2_betti(space.h_int_table, p) for p in (1, 2, 3)]
    s1, c1 = f2_rank(space.s1), c1_rank(space)
    counts = (1 + h1 + h2 - c1, c1 - s1 + h3, space.ch2_mod2_rank - s1, 0)
    row = tuple([elementary_two(count) for count in counts])
    if space.dim == 2 and space.projective:
        # Betti-number forms of the same groups; a second route through the data
        b, rho, nu = betti(space), space.rho, space.nu
        forms = (1 + b[1] + b[2] - rho + 2 * nu, b[1] + rho + 2 * nu - s1,
                 space.ch2_mod2_rank - s1)
        bad = [i for i, (g, form) in enumerate(zip(row, forms)) if mod2_rank(g) != form]
        if bad:
            raise InvariantViolation(
                "W^%d of %s disagrees with its Betti-number form" % (bad[0], space))
    return row


_W_POINT = w_row(make_point())


def w_reduced(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> SymGroup:
    return minus_point(w(space, i, twist), w_point(i), twist)


@dataclass(frozen=True)
class WittTable:
    kind: str
    twist: str
    gw: tuple        # four groups, or four Nones where out of contract
    w: tuple
    gw_reduced: tuple
    w_reduced: tuple
    flags: dict


def witt_table(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> WittTable:
    tw = check_twist(space, twist)
    row = _w_row(space, tw)
    if space.dim == 2:  # GW of a surface is out of contract
        gw_row = gw_red = (None,) * 4
    else:
        gw_row = _gw_row(space, tw)
        gw_red = tuple([minus_point(g, p, tw) for g, p in zip(gw_row, _GW_POINT)])
    return WittTable(
        kind=space.kind,
        twist=tw,
        gw=gw_row,
        w=row,
        gw_reduced=gw_red,
        w_reduced=tuple([minus_point(g, p, tw) for g, p in zip(row, _W_POINT)]),
        flags={"karoubi_split": list(_split_flags(space, tw))}
        if space.dim == 1 else {},
    )


def witt_json_payload(table: WittTable) -> dict:
    return {
        "GW": [None if g is None else render(g) for g in table.gw],
        "W": [render(g) for g in table.w],
        "twist": table.twist,
        "flags": table.flags,
    }


# ---------------------------------------------------------------------------
# forgetful-hyperbolic composite


@dataclass(frozen=True)
class FHImage:
    """Image of the composite F.H inside the K_0 grading.

    ``coords`` labels the free coordinates of the ambient reduced or full
    K-group; ``columns`` generate the free part of the image there; ``jac``
    says whether the whole divisible summand is included. For surfaces the
    image is described by graded multipliers instead.
    """

    coords: tuple
    columns: tuple
    jac: bool
    gr_multipliers: tuple | None = None


def fh_image(space: SpaceDescriptor, i: int, twist=TRIVIAL_TWIST) -> FHImage:
    if space.dim == 2:
        check_twist(space, twist)
        mult = (2, 0, 2) if i % 2 == 0 else (0, 2, 0)
        return FHImage(coords=("rank", "c1", "c2"), columns=(), jac=False,
                       gr_multipliers=mult)
    require_kind(space, "curve")
    coords, _, _, fh_columns = _karoubi_case(space, check_twist(space, twist))
    # F.H covers the divisible Jacobian summand exactly at odd shifts
    return FHImage(coords=coords, columns=fh_columns[i % 2], jac=i % 2 == 1)


# ---------------------------------------------------------------------------
# Karoubi sequence bookkeeping
#
# For each shift i the sequence GW^{i-1} -> K_0 -> GW^i -> W^i -> 0 is modeled
# on the finitely generated shadow of K_0 with the forgetful images and
# hyperbolic maps stored as proof metadata; the divisible Jacobian part is read
# off the parity of the shift, since im F on GW^i covers it exactly at odd i,
# on every curve. The checks below then recompute everything the metadata
# implies: exactness, the W-cokernels, mod-2 rank identities, and whether GW^i
# splits as (image of K_0) + W^i.

# Per curve case: the free coordinates of the K_0 shadow; the columns of im F
# on GW^i per shift; the rows of each hyperbolic map K_0 -> GW^i shadow that
# the map touches (the remaining generators of the shadow are untouched and
# follow as zero rows); and the columns of F.H at even and at odd shifts.
_KAROUBI_CURVES = {
    "affine": ((), ((),) * 4, ((),) * 4, ((), ())),
    TRIVIAL_TWIST: (
        ("deg",),
        ((), ((1,),), (), ((2,),)),
        (((1,),), ((2,),), (), ((1,),)),
        ((), ((2,),)),
    ),
    # the rank generator spans the free part of GW^0
    ODD_TWIST: (
        ("rank", "deg"),
        (((2, 1),), ((0, 1),)) * 2,
        (((1, 0),), ((1, -2),)) * 2,
        (((2, 1),), ((0, 1),)),
    ),
}


def _karoubi_case(space: SpaceDescriptor, tw: str) -> tuple:
    return _KAROUBI_CURVES[tw if space.projective else "affine"]


@dataclass(frozen=True)
class KaroubiNode:
    shift: int
    s_piece: SymGroup      # K_0 modulo the incoming forgetful image
    gw_reduced: SymGroup
    w_reduced: SymGroup
    split: bool
    split_expected: bool
    failures: tuple


@dataclass(frozen=True)
class KaroubiReport:
    twist: str
    coords: tuple
    nodes: tuple
    passed: bool


def _split_flags(space: SpaceDescriptor, tw: str) -> tuple:
    # GW^i splits as (image of K_0) + W^i exactly when the row H^i touches is
    # primitive; the only nonsplit extension is untwisted projective GW^1
    return tuple([all(gcd(*row) == 1 for row in rows)
                  for rows in _karoubi_case(space, tw)[2]])


def _hyperbolic_map(k_fg: SymGroup, shadow: SymGroup, rows: tuple) -> GroupMap:
    """H: the rows it touches, then a zero row per untouched generator of ``shadow``."""
    return GroupMap(k_fg, shadow, rows + ((0,) * k_fg.ngens,) * (shadow.ngens - len(rows)))


def karoubi_check(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> KaroubiReport:
    require_kind(space, "curve")
    tw = check_twist(space, twist)
    gw_reds = [minus_point(g, p, tw) for g, p in zip(_gw_row(space, tw), _GW_POINT)]
    w_reds = [minus_point(g, p, tw) for g, p in zip(_w_row(space, tw), _W_POINT)]
    gw_fg = tuple([SymGroup(g.free_rank, g.torsion, 0) for g in gw_reds])
    coords, im_cols, touched, fh_cols = _karoubi_case(space, tw)
    k_fg = free(len(coords))
    jac_rank = picard(space).divisible_rank
    expected_split = _split_flags(space, tw)
    # im F on GW^i included into the K_0 shadow, and its cokernel: the
    # S-piece of shift i + 1 and the lattice that F.H at shift i must land in
    incls = tuple([GroupMap(free(len(cols)), k_fg, tuple(zip(*cols)) or ((),) * k_fg.ngens)
                   for cols in im_cols])
    cokers = tuple([cokernel_map(incl) for incl in incls])
    nodes = []
    for i, (gw_red, w_red) in enumerate(zip(gw_reds, w_reds)):
        failures = []
        incl, (s_fg, _) = incls[(i - 1) % 4], cokers[(i - 1) % 4]

        h_map = _hyperbolic_map(k_fg, gw_fg[i], touched[i])
        w_fg, w_proj = cokernel_map(h_map)

        report = check_exact([incl, h_map, w_proj])
        if not report.ok:
            failures.append("exact")
        w_expected_fg = SymGroup(w_red.free_rank, w_red.torsion, 0)
        if w_fg != w_expected_fg:
            failures.append("w-cokernel")

        s_div = jac_rank if i % 2 else 0  # im F on an even GW^{i-1} leaves the Jacobian
        if s_div != gw_red.divisible_rank or w_red.divisible_rank != 0:
            failures.append("divisible-rank")
        s_piece = direct_sum(s_fg, divisible(s_div))

        if mod2_rank(w_red) != mod2_rank(gw_red) - image_rank2(h_map):
            failures.append("rank2-identity")

        split = direct_sum(s_piece, w_red) == gw_red
        if split != expected_split[i]:
            failures.append("split-flag")

        # the columns fh_image gives; F.H covers the Jacobian at odd shifts
        if any(not composite_is_zero(GroupMap(Z, k_fg, tuple([(x,) for x in c])), cokers[i][1])
               for c in fh_cols[i % 2]):
            failures.append("fh-lattice")

        nodes.append(KaroubiNode(
            shift=i,
            s_piece=s_piece,
            gw_reduced=gw_red,
            w_reduced=w_red,
            split=split,
            split_expected=expected_split[i],
            failures=tuple(failures),
        ))
    return KaroubiReport(
        twist=tw,
        coords=coords,
        nodes=tuple(nodes),
        passed=all(not n.failures for n in nodes),
    )


# ---------------------------------------------------------------------------
# Stiefel-Whitney arithmetic
#
# A ring context is a finite graded F2 algebra given by structure constants.
# Elements are F2 coefficient vectors over the monomial basis; basis index 0
# is the unit. Products landing above max_degree either truncate to zero or
# raise, per the ring.


@dataclass(frozen=True)
class RingContext:
    name: str
    basis: tuple
    degrees: tuple
    products: dict      # (i, j) with i <= j -> tuple of result basis indices
    max_degree: int
    truncates_to_zero: bool
    minus_one: tuple    # the class of (-1); zero over the complex numbers

    def zero(self) -> tuple:
        return (0,) * len(self.basis)

    def unit(self) -> tuple:
        return (1,) + (0,) * (len(self.basis) - 1)


def ring_mul(ring: RingContext, x, y):
    out = [0] * len(ring.basis)
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            if ring.degrees[i] + ring.degrees[j] > ring.max_degree:
                if ring.truncates_to_zero:
                    continue
                raise TruncationError(
                    "product of degrees %d and %d overflows max degree %d in %s"
                    % (ring.degrees[i], ring.degrees[j], ring.max_degree, ring.name)
                )
            key = (i, j) if i <= j else (j, i)
            for k in ring.products.get(key, ()):
                out[k] ^= 1
    return tuple(out)


def ring_pow(ring: RingContext, x, m: int):
    acc = ring.unit()
    for _ in range(m):
        acc = ring_mul(ring, acc, x)
    return acc


def element_degree(ring: RingContext, x):
    """Degree of a homogeneous element, or None for zero."""
    degs = {ring.degrees[i] for i, xi in enumerate(x) if xi}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("element is not homogeneous: degrees %s" % sorted(degs))
    return degs.pop()


def ring_parse(ring: RingContext, text: str):
    """Parse '0', '1', or a '+'-joined sum of basis labels."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    out = list(ring.zero())
    for part in text.split("+"):
        label = part.strip()
        if label not in ring.basis:
            raise RenderParseError("unknown basis label %r in ring %s"
                                   % (label[:32], ring.name))
        out[ring.basis.index(label)] ^= 1
    return tuple(out)


def ring_render(ring: RingContext, x) -> str:
    labels = [ring.basis[i] for i, xi in enumerate(x) if xi]
    return " + ".join(labels) if labels else "0"


def _monomial_ring(name, gens, max_degree, truncates_to_zero, minus_one_label=None):
    """Free commutative monomial algebra over F2, truncated by degree."""
    labels = [lab for lab, _ in gens]

    def degree(expo):
        return sum([d * e for (_, d), e in zip(gens, expo)])

    monos = [()]  # exponent tuples over gens; each exponent runs to the degree left
    for _, d in gens:
        monos = [expo + (e,) for expo in monos
                 for e in range((max_degree - degree(expo)) // d + 1)]
    monos.sort(key=lambda expo: (degree(expo), expo))

    def label_of(expo):
        parts = []
        for t, e in enumerate(expo):
            if e == 1:
                parts.append(labels[t])
            elif e > 1:
                parts.append("%s^%d" % (labels[t], e))
        return "*".join(parts) if parts else "1"

    basis = tuple(label_of(e) for e in monos)
    degrees = tuple(map(degree, monos))
    index = {e: i for i, e in enumerate(monos)}
    products = {}
    for i, ei in enumerate(monos):
        for j in range(i, len(monos)):
            if degrees[i] + degrees[j] > max_degree:
                break  # and so for every later j: monos run in degree order
            products[(i, j)] = (index[tuple([a + b for a, b in zip(ei, monos[j])])],)
    minus_one = [0] * len(basis)
    if minus_one_label is not None:
        minus_one[basis.index(minus_one_label)] = 1
    return RingContext(name, basis, degrees, products, max_degree,
                       truncates_to_zero, tuple(minus_one))


def projective_space_ring(d: int) -> RingContext:
    """F2[h]/(h^{d+1}) with h in degree 2; (-1) vanishes over the complexes."""
    return _monomial_ring("P%d" % d, (("h", 2),), 2 * d, True)


def curve_symplectic_ring(g: int) -> RingContext:
    """Mod-2 cohomology of a genus-g curve: a_i b_i = pt, other products vanish."""
    basis = ("1",) + tuple("a%d" % k for k in range(1, g + 1)) \
        + tuple("b%d" % k for k in range(1, g + 1)) + ("pt",)
    degrees = (0,) + (1,) * (2 * g) + (2,)
    products = {}
    top = len(basis) - 1
    for i in range(len(basis)):
        products[(0, i)] = (i,)
    for k in range(1, g + 1):
        products[(k, g + k)] = (top,)
    return RingContext("C_g%d" % g, basis, degrees, products, 2, True,
                       (0,) * len(basis))


def generic_sw_ring(max_rank: int) -> RingContext:
    """Polynomial ring on (-1) and c_1..c_{max_rank}; overflow raises."""
    gens = (("e", 1),) + tuple(("c%d" % j, 2 * j) for j in range(1, max_rank + 1))
    return _monomial_ring("generic%d" % max_rank, gens, 2 * max_rank, False,
                          minus_one_label="e")


@dataclass(frozen=True)
class TruncatedClass:
    """Total Stiefel-Whitney class: coefficient of t^i is homogeneous of degree i."""

    ring: RingContext
    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(tuple(c) for c in self.coefficients)
        coeffs = coeffs + (self.ring.zero(),) * (self.ring.max_degree + 1 - len(coeffs))
        if len(coeffs) != self.ring.max_degree + 1:
            raise ValueError("coefficient list longer than the ring's top degree")
        object.__setattr__(self, "coefficients", coeffs)
        if coeffs[0] != self.ring.unit():
            raise ValueError("degree-0 coefficient must be 1")
        for d, c in enumerate(coeffs):
            deg = element_degree(self.ring, c)
            if deg is not None and deg != d:
                raise ValueError("t^%d coefficient has degree %d" % (d, deg))


def sw_whitney_product(a: TruncatedClass, b: TruncatedClass,
                       ring: RingContext | None = None) -> TruncatedClass:
    if ring is None:
        ring = a.ring
    if a.ring != ring or b.ring != ring:
        raise RingMismatch("classes live over different ring contexts")
    # by the Whitney product formula the total classes multiply as ring elements;
    # coefficient d is homogeneous of degree d, so the sums keep every entry
    x, y = [tuple(map(sum, zip(*c.coefficients))) for c in (a, b)]
    prod = ring_mul(ring, x, y)
    return TruncatedClass(ring, tuple(
        [tuple([v if deg == d else 0 for v, deg in zip(prod, ring.degrees)])
         for d in range(ring.max_degree + 1)]))


def sw_metabolic_total(lagrangian_chern, rank: int, ring: RingContext,
                       complex: bool) -> TruncatedClass:
    """Total class sum((1 + (-1) t)^{rank - j} c_j t^{2j}) of a metabolic bundle."""
    chern = [tuple(c) for c in lagrangian_chern]
    if not chern or chern[0] != ring.unit():
        raise ValueError("lagrangian Chern classes must start with c_0 = 1")
    if len(chern) - 1 > rank:
        raise ValueError("a rank-%d bundle has no c_%d" % (rank, len(chern) - 1))
    for j, c in enumerate(chern):
        deg = element_degree(ring, c)
        if deg is not None and deg != 2 * j:
            raise ValueError("c_%d must be homogeneous of degree %d" % (j, 2 * j))
    e = ring.zero() if complex else ring.minus_one
    out = [ring.zero() for _ in range(ring.max_degree + 1)]
    for j, cj in enumerate(chern):
        if not any(cj):
            continue
        n = rank - j  # a term past the top degree vanishes or overflows as at m = n
        for m in (*range(min(n, ring.max_degree + 1)), n):
            if m & ~n:  # comb(n, m) is even, by Lucas
                continue
            if m and not any(e):
                break
            term = ring_mul(ring, ring_pow(ring, e, m), cj)
            if any(term):
                out[2 * j + m] = tuple(x ^ y for x, y in zip(out[2 * j + m], term))
    return TruncatedClass(ring, tuple(out))
