"""Space models and the expected answers the benchmark checks against.

Nothing here imports wittkit. A model records the handful of numbers that
name a space (genus and punctures; Betti numbers, torsion and Picard data),
and the functions below derive every expected group from the paper's closed
forms: the curve tables, the surface formulas in Betti numbers, the stable
splitting of a curve for KO, and the comparison theorem (iso exactly when
Pic(X) covers H^2(X; Z)). Groups are plain tuples
``(free_rank, invariant_factors, divisible_rank)``, so a check never goes
through the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

ZERO = (0, (), 0)
Z = (1, (), 0)
Z2 = (0, (2,), 0)

# KO^d of a point, d = 0..7 (cohomological grading)
KO_POINT = (Z, ZERO, ZERO, ZERO, Z, ZERO, Z2, Z2)

# total degree of the KO stable page that carries KO^{2i-1}, i = 0..3: the
# KO window stops at row -10, so degrees 3, 5 and 7 are read one Bott period
# down
KO_ODD_READ = (-1, 1, -5, -3)


def free(r: int):
    return (r, (), 0)


def e2(k: int):
    """(Z/2)^k."""
    return (0, (2,) * k, 0)


def div(t: int):
    return (0, (), t)


def _factor(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> tuple:
    """Invariant-factor chain of the sum of cyclic groups Z/m, m in orders.

    Built from the prime-power multiset: per prime, the exponents sorted in
    decreasing order; the k-th largest factor multiplies the k-th largest
    power of every prime.
    """
    powers = {}
    for m in orders:
        for p, e in _factor(m).items():
            powers.setdefault(p, []).append(p ** e)
    if not powers:
        return ()
    depth = max(len(v) for v in powers.values())
    chain = [1] * depth
    for v in powers.values():
        for k, q in enumerate(sorted(v, reverse=True)):
            chain[k] *= q
    return tuple(sorted(chain))


def gsum(*groups):
    return (
        sum(g[0] for g in groups),
        invariant_factors([d for g in groups for d in g[1]]),
        sum(g[2] for g in groups),
    )


def render(g) -> str:
    """The README grammar: ``Z``, ``Z^r``, ``Z/n``, ``D(t)`` joined by `` + ``."""
    free_rank, torsion, d = g
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append("Z^%d" % free_rank)
    parts.extend("Z/%d" % n for n in torsion)
    if d:
        parts.append("D(%d)" % d)
    return " + ".join(parts) if parts else "0"


def two_rank(g) -> int:
    """Rank of the 2-torsion subgroup; D(t) contributes t."""
    return sum(1 for n in g[1] if n % 2 == 0) + g[2]


def mod2_dim(g) -> int:
    """Dimension of g/2g."""
    return g[0] + sum(1 for n in g[1] if n % 2 == 0)


def as_tuple(group):
    """A wittkit SymGroup (or None) as a plain tuple."""
    if group is None:
        return None
    return (group.free_rank, tuple(group.torsion), group.divisible_rank)


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class Space:
    """Parameters of one space.

    Surfaces carry their integral cohomology ``h`` (five group tuples),
    the Picard number, and the F2 ranks of s1 and of Sq2 on integral classes.
    """

    kind: str
    projective: bool = True
    genus: int = 0
    punctures: int = 0
    h: tuple = ()
    rho: int = 0
    s1_rank: int = 0
    sq2z_rank: int = 0
    family: str = ""

    @property
    def b1(self) -> int:
        if self.kind == "curve":
            if self.projective:
                return 2 * self.genus
            return 2 * self.genus + self.punctures - 1
        if self.kind == "surface":
            return self.h[1][0]
        return 0

    @property
    def b2(self) -> int:
        return self.h[2][0] if self.kind == "surface" else 0


def point() -> Space:
    return Space("point", family="point")


def curve(genus: int) -> Space:
    return Space("curve", True, genus, 0, family="curve")


def affine_curve(genus: int, punctures: int) -> Space:
    return Space("curve", False, genus, punctures, family="affine_curve")


def identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def blowup(n: int) -> Space:
    """P^2 blown up at n points: odd lattice <1> + n<-1>, rho = b2 = n + 1."""
    b2 = n + 1
    return Space("surface", h=(Z, ZERO, free(b2), ZERO, Z), rho=b2,
                 s1_rank=1, sq2z_rank=1, family="blowup")


def k3(rho: int) -> Space:
    """A K3 surface of Picard number rho: even lattice of rank 22."""
    return Space("surface", h=(Z, ZERO, free(22), ZERO, Z), rho=rho,
                 s1_rank=0, sq2z_rank=0, family="k3")


def ruled(genus: int) -> Space:
    """A ruled surface over a genus-g curve with an odd section class."""
    b1 = free(2 * genus)
    return Space("surface", h=(Z, b1, free(2), b1, Z), rho=2,
                 s1_rank=1, sq2z_rank=1, family="ruled")


def enriques() -> Space:
    return Space("surface", h=(Z, ZERO, (10, (2,), 0), Z2, Z), rho=10,
                 s1_rank=0, sq2z_rank=0, family="enriques")


def descriptor_doc(space: Space) -> dict:
    """The descriptor JSON object for a model (curves and generated surfaces)."""
    if space.kind == "point":
        return {"kind": "point"}
    if space.kind == "curve":
        return {"kind": "curve", "projective": space.projective,
                "genus": space.genus, "punctures": space.punctures}
    b2 = space.b2
    doc = {"kind": "surface", "projective": True,
           "h_int": [render(g) for g in space.h], "nu": 0, "rho": space.rho,
           "ch2_mod2_rank": 1, "pi2": identity(b2)}
    if space.family == "blowup":
        doc["sq2"] = [[1] * b2]
    elif space.family == "k3":
        doc["sq2"] = [[0] * b2]
        doc["s1"] = [[0] * space.rho]
    elif space.family == "ruled":
        doc["sq2"] = [[0, 1]]
    else:
        raise ValueError("no generated descriptor for family %r" % space.family)
    return doc


CATALOG_NAMES = ("blowup_p2", "enriques", "p1", "p2", "point",
                 "affine_curve", "curve", "k3", "ruled")


def catalog_model(name: str) -> Space:
    """Model of a catalog entry, from its name alone."""
    base, _, query = name.partition("?")
    params = dict(kv.split("=") for kv in query.split("&")) if query else {}
    params = {k: int(v) for k, v in params.items()}
    fixed = {"point": point, "p1": lambda: curve(0), "p2": lambda: blowup(0),
             "blowup_p2": lambda: blowup(1), "enriques": enriques}
    if base in fixed:
        return fixed[base]()
    if base == "curve":
        return curve(params["g"])
    if base == "affine_curve":
        return affine_curve(params["g"], params["n"])
    if base == "k3":
        return k3(params["rho"])
    if base == "ruled":
        return ruled(params["g"])
    raise KeyError(name)


# ---------------------------------------------------------------------------
# expected tables


@dataclass(frozen=True)
class Expected:
    """Every group the benchmark checks for one space and twist.

    Tuples of four are shifts 0..3 (KOK shift i means KO^{2i}/K); tuples of
    eight are KO degrees 0..7. None marks a slot the tool leaves empty.
    """

    gw: tuple
    w: tuple
    w_reduced: tuple
    ko: tuple
    ko_reduced: tuple
    k0: tuple
    kok: tuple
    kok_reduced: tuple
    verdict: str
    mismatch: tuple | None
    pic_surjective: bool
    k_pieces: dict          # AHSS for K: total degree -> nonzero pieces
    k1_two_torsion_free: bool


def _nonzero(groups) -> tuple:
    return tuple(g for g in groups if g != ZERO)


def _dim_mod2(space: Space, p: int) -> int:
    """dim H^p(X; Z/2) = b_p + t_p + t_{p+1} (universal coefficients)."""
    h = space.h
    above = two_rank(h[p + 1]) if p + 1 < len(h) else 0
    return mod2_dim(h[p]) + above


def expected(space: Space, twist: str = "trivial") -> Expected:
    odd = twist == "O(p)"
    if space.kind == "point":
        return Expected(
            gw=(Z, ZERO, Z, Z2), w=(Z2, ZERO, ZERO, ZERO),
            w_reduced=(ZERO,) * 4, ko=KO_POINT, ko_reduced=(ZERO,) * 8,
            k0=(Z, ZERO, ZERO), kok=(Z2, ZERO, ZERO, ZERO),
            kok_reduced=(ZERO,) * 4, verdict="curve-always-iso",
            mismatch=None, pic_surjective=True, k_pieces={0: (Z,), 1: ()},
            k1_two_torsion_free=True)
    if space.kind == "curve":
        return _expected_curve(space, odd)
    return _expected_surface(space)


def _expected_curve(c: Space, odd: bool) -> Expected:
    b1, g = c.b1, c.genus
    deg = Z if c.projective else ZERO
    jac = div(2 * g)
    if odd:
        w = (e2(b1), ZERO, ZERO, ZERO)
        gw = (gsum(Z, e2(b1)), gsum(Z, jac), Z, gsum(Z, jac))
        w_red = w
    else:
        top = e2(1) if c.projective else ZERO     # H^2(Z/2)
        w = (gsum(Z2, e2(b1)), top, ZERO, ZERO)
        gw = (gsum(Z, e2(b1), top), gsum(deg, jac), Z, gsum(Z2, deg, jac))
        w_red = (e2(b1),) + w[1:]
    # a curve is stably a wedge of b1 circles (and a 2-sphere when
    # projective), so reduced KO^d = b1 KO^{d-1}(pt) + KO^{d-2}(pt)
    if odd:
        ko = ko_red = (None,) * 8
    else:
        ko_red = tuple(
            gsum(*([KO_POINT[(d - 1) % 8]] * b1),
                 KO_POINT[(d - 2) % 8] if c.projective else ZERO)
            for d in range(8)
        )
        ko = tuple(gsum(KO_POINT[d], ko_red[d]) for d in range(8))
    # the comparison theorem: KO^{2i}/K of a curve is W^i, twist by twist
    kok_red = w_red
    return Expected(
        gw=gw, w=w, w_reduced=w_red, ko=ko, ko_reduced=ko_red,
        k0=(Z, deg, ZERO), kok=w, kok_reduced=kok_red,
        verdict="curve-always-iso", mismatch=None, pic_surjective=True,
        k_pieces={0: _nonzero((Z, deg)), 1: _nonzero((free(b1),))},
        k1_two_torsion_free=True)


def _expected_surface(s: Space) -> Expected:
    h = s.h
    nu, b2 = two_rank(h[2]), s.b2
    h1, h2, h3 = (_dim_mod2(s, p) for p in (1, 2, 3))
    pic = s.rho + nu                 # rank of Pic/2 inside H^2(Z/2)
    pi2 = b2 + nu                    # rank of H^2(Z)/2 inside H^2(Z/2)
    w = (e2(1 + h1 + h2 - pic), e2(pic - s.s1_rank + h3),
         e2(1 - s.s1_rank), ZERO)
    kok = (e2(1 + h1 + h2 - pi2), e2(pi2 - s.sq2z_rank + h3),
           e2(1 - s.sq2z_rank), ZERO)
    w_red = (e2(h1 + h2 - pic),) + w[1:]
    kok_red = (e2(h1 + h2 - pi2),) + kok[1:]
    onto = s.rho == b2
    mismatch = None if onto else (0, h1 + h2 - pic, h1 + h2 - pi2)
    return Expected(
        gw=(None,) * 4, w=w, w_reduced=w_red, ko=(None,) * 8,
        ko_reduced=(None,) * 8, k0=(Z, h[2], h[4]), kok=kok,
        kok_reduced=kok_red,
        verdict="surface-iso" if onto else "surface-mismatch",
        mismatch=mismatch, pic_surjective=onto,
        k_pieces={0: _nonzero((h[0], h[2], h[4])), 1: _nonzero((h[1], h[3]))},
        k1_two_torsion_free=two_rank(h[1]) == 0 and two_rank(h[3]) == 0)


def parse_rendered(text: str):
    """Read a rendered group back into a tuple (summands in any order)."""
    if text.strip() == "0":
        return ZERO
    free_rank, orders, d = 0, [], 0
    for tok in text.split(" + "):
        if tok == "Z":
            free_rank += 1
        elif tok.startswith("Z^"):
            free_rank += int(tok[2:])
        elif tok.startswith("Z/"):
            orders.append(int(tok[2:]))
        elif tok.startswith("D(") and tok.endswith(")"):
            d += int(tok[2:-1])
        else:
            raise ValueError("bad group token %r" % tok)
    return (free_rank, invariant_factors(orders), d)
