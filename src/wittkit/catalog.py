"""Named example spaces with per-field provenance notes.

Entries are addressed by a base name plus integer parameters in query form,
e.g. ``k3?rho=20`` or ``affine_curve?g=1&n=2``. ``lookup`` reads that
grammar for the catalog and for the rings of ``wittkit sw``: each key of the
base is given exactly once, in any order, as a canonical decimal integer
(``str(int(v)) == v``), or the name is refused as ``unknown-name``; a value
outside its key's range (g in 0..8, n >= 1, rho in 0..20) is refused as
``inconsistent-descriptor``. Every numeric field of a registered descriptor
carries a note saying which geometric fact pins it down. Godeaux-type and
bielliptic surfaces are deliberately absent: their fundamental groups are
classical but complete (Betti, torsion, Picard, Sq2) tuples would have to be
invented.

An entry is built and checked by ``make_surface``/``make_curve`` on its
first lookup, named with its keys in registry order (``affine_curve?n=2&g=1``
is ``affine_curve?g=1&n=2``), and kept for the life of the process exactly
when every one of its parameters has a finite greatest value: the plain
names, ``curve?g=``, ``k3?rho=`` and ``ruled?g=``, 44 in all.
``affine_curve?g=&n=`` has no greatest n and builds in microseconds, so it is
built on every lookup. Every lookup returns a fresh ``CatalogEntry`` with its
own ``notes`` dict, and a refused name is refused again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import InconsistentDescriptor, UnknownName
from .groups import TRIVIAL, Z, SymGroup, cyclic, free, identity
from .spaces import SpaceDescriptor, make_curve, make_point, make_surface

MAX_GENUS = 8
MAX_K3_RHO = 20


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    descriptor: SpaceDescriptor
    notes: dict


def _entry_point() -> tuple:
    return make_point(), {"kind": "a single rational point"}


def _entry_p1() -> tuple:
    return make_curve(True, 0), {
        "genus": "the projective line is the genus-0 curve",
        "punctures": "complete curve, none",
    }


def _entry_curve(g: int) -> tuple:
    return make_curve(True, g), {
        "genus": "parameter g, 0 <= g <= %d" % MAX_GENUS,
        "punctures": "complete curve, none",
    }


def _entry_affine_curve(g: int, n: int) -> tuple:
    return make_curve(False, g, n), {
        "genus": "parameter g of the completed curve",
        "punctures": "parameter n >= 1, points removed; the underlying "
                     "complex is a wedge of 2g+n-1 circles",
    }


def _entry_p2() -> tuple:
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, Z, TRIVIAL, Z),
        nu=0,
        rho=1,
        ch2_mod2_rank=1,
        sq2=((1,),),
        pi2=((1,),),
    ), {
        "h_int": "cohomology of the projective plane: Z in even degrees, "
                 "generated by powers of the hyperplane class",
        "nu": "H^2 = Z is torsion-free",
        "rho": "the hyperplane class spans the Neron-Severi group",
        "ch2_mod2_rank": "H^4(Z/2) = Z/2 on a connected surface",
        "sq2": "h.h = 1: the square of the degree-2 generator is the "
               "fundamental class",
        "pi2": "mod-2 reduction is an isomorphism on torsion-free H^2",
    }


def _entry_blowup_p2() -> tuple:
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, free(2), TRIVIAL, Z),
        nu=0,
        rho=2,
        ch2_mod2_rank=1,
        sq2=((1, 1),),
        pi2=identity(2),
    ), {
        "h_int": "one point blown up: H^2 = Z[H] + Z[E]",
        "nu": "torsion-free",
        "rho": "both basis divisors are ample combinations, rho = b2 = 2",
        "ch2_mod2_rank": "H^4(Z/2) = Z/2",
        "sq2": "intersection squares (1, -1): Sq2 is the coordinate sum, "
               "hence onto",
        "pi2": "reduction is an isomorphism",
    }


def _entry_enriques() -> tuple:
    # 12 mod-2 classes: ten from the free lattice, one from the 2-torsion of
    # H^2, one from the 2-torsion of H^3
    pi2 = identity(11) + ((0,) * 11,)
    sq2 = ((0,) * 11 + (1,),)
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, SymGroup(10, (2,), 0), cyclic(2), Z),
        nu=1,
        rho=10,
        ch2_mod2_rank=1,
        sq2=sq2,
        pi2=pi2,
    ), {
        "h_int": "b1 = 0, H^2 = Z^10 + Z/2 with the canonical class the "
                 "torsion, H^3 = Z/2 dual to pi_1 = Z/2",
        "nu": "the canonical class is the 2-torsion of H^2",
        "rho": "geometric genus zero: rho = b2 = 10",
        "ch2_mod2_rank": "H^4(Z/2) = Z/2",
        "sq2": "the Enriques lattice is even, so integral squares vanish; "
               "by Wu's formula only the class reducing the H^3 torsion "
               "pairs onto H^4",
        "pi2": "integral classes miss the one mod-2 class coming from "
               "the torsion of H^3",
    }


def _entry_k3(rho: int) -> tuple:
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, free(22), TRIVIAL, Z),
        nu=0,
        rho=rho,
        ch2_mod2_rank=1,
        sq2=((0,) * 22,),
        pi2=identity(22),
        s1=((0,) * rho,),
    ), {
        "h_int": "simply connected, H^2 = Z^22 torsion-free",
        "nu": "torsion-free H^2",
        "rho": "parameter, 0 <= rho <= %d: algebraic K3 surfaces realize "
               "1..%d; rho = 0 is the lattice of a non-algebraic K3, kept "
               "as the limit case of the formulas" % (MAX_K3_RHO, MAX_K3_RHO),
        "ch2_mod2_rank": "H^4(Z/2) = Z/2",
        "sq2": "the K3 lattice is even: x.x = 0 mod 2 for integral x",
        "pi2": "reduction is an isomorphism",
        "s1": "zero on algebraic classes inside an even lattice",
    }


def _entry_ruled(g: int) -> tuple:
    return make_surface(
        projective=True,
        h_int=(Z, free(2 * g), free(2), free(2 * g), Z),
        nu=0,
        rho=2,
        ch2_mod2_rank=1,
        sq2=((0, 1),),
        pi2=identity(2),
    ), {
        "h_int": "ruled over a genus-g curve; b1 = 2g is stated "
                 "explicitly rather than derived",
        "nu": "torsion-free",
        "rho": "section and fibre classes are algebraic, rho = b2 = 2",
        "ch2_mod2_rank": "H^4(Z/2) = Z/2",
        "sq2": "an odd ruling: the section class has odd self-"
               "intersection, pairing it with the fibre coordinate",
        "pi2": "reduction is an isomorphism",
    }


_G = ("g", 0, MAX_GENUS)

# base -> (builder, ((key, least, greatest), ...)), in the order
# catalog_list gives: the plain names, then the parametric ones, each sorted.
# The keys are the builder's arguments, in the order a canonical name lists them
_REGISTRY = {
    "blowup_p2": (_entry_blowup_p2, ()),
    "enriques": (_entry_enriques, ()),
    "p1": (_entry_p1, ()),
    "p2": (_entry_p2, ()),
    "point": (_entry_point, ()),
    "affine_curve": (_entry_affine_curve, (_G, ("n", 1, inf))),
    "curve": (_entry_curve, (_G,)),
    "k3": (_entry_k3, (("rho", 0, MAX_K3_RHO),)),
    "ruled": (_entry_ruled, (_G,)),
}

# (builder, values) -> its entry, for every entry whose parameters all have a
# finite greatest value; lookup refuses a value out of range before anything is
# built, so this holds at most 44 entries
_BUILT = {}


def catalog_list() -> tuple:
    """Base names; parametric entries are addressed as name?key=value."""
    return tuple(_REGISTRY)


def catalog_instances() -> tuple:
    """A deterministic concrete sweep used by batch evaluation."""
    return (
        "point",
        "p1",
        "curve?g=1",
        "curve?g=2",
        "curve?g=3",
        "affine_curve?g=0&n=2",
        "affine_curve?g=1&n=1",
        "affine_curve?g=2&n=3",
        "p2",
        "blowup_p2",
        "enriques",
        "k3?rho=0",
        "k3?rho=10",
        "k3?rho=20",
        "ruled?g=1",
        "ruled?g=2",
    )


def canonical_int(value: str) -> int | None:
    """The int ``value`` spells if ``str(int(value)) == value``, else None."""
    try:
        n = int(value)
    except ValueError:
        return None
    return n if str(n) == value else None


def lookup(registry: dict, name: str) -> tuple:
    """``(builder, params, values)`` for ``name`` in ``registry``, which maps a
    base to ``(builder, params)``, ``params`` a tuple of ``(key, least, greatest)``
    rows (``greatest`` may be ``inf``) and ``values`` the ints in that key order.
    ``unknown-name`` refuses an unknown base and a key that is missing, unknown,
    given twice or not canonical decimal; ``inconsistent-descriptor`` refuses a
    value outside its row's range."""
    base, sep, query = name.partition("?")
    row = registry.get(base)
    if row is None:
        raise UnknownName("unknown name %r; use %s" % (base[:32], ", ".join(sorted(registry))))
    builder, params = row
    if not (sep or params):
        return builder, params, ()
    pieces = query.split("&")  # without "?", one empty piece, which no base takes
    given = {}
    for piece in pieces:
        key, _, value = piece.partition("=")
        given[key] = value
    values = []
    for key, _, _ in params:
        values.append(canonical_int(given.pop(key, "")))
    # a key left in given is unknown, a piece beyond the keys repeats one, and
    # None is a missing key or a value that is not canonical decimal
    if given or len(pieces) != len(params) or None in values:
        keys = "&".join([key + "=<int>" for key, _, _ in params])
        raise UnknownName("%r takes %s" % (base, keys + ", each key once in canonical decimal"
                                           if keys else "no parameters"))
    for (key, least, greatest), n in zip(params, values):
        if not least <= n <= greatest:
            raise InconsistentDescriptor("%s must lie in %s..%s" % (key, least, greatest))
    return builder, params, tuple(values)


def catalog_get(name: str) -> CatalogEntry:
    builder, params, values = lookup(_REGISTRY, name)
    entry = _BUILT.get((builder, values))
    if entry is None:
        # the canonical name lists the keys in registry order; the entry is
        # kept when every key has a finite greatest value
        base, spelled, kept = name.partition("?")[0], [], True
        for (key, _, greatest), n in zip(params, values):
            spelled.append(f"{key}={n}")
            kept = kept and greatest < inf
        entry = CatalogEntry(base + "?" + "&".join(spelled) if spelled else base, *builder(*values))
        if not kept:
            return entry
        _BUILT[builder, values] = entry
    # the descriptor is frozen; the notes dict is the caller's own
    return CatalogEntry(entry.name, entry.descriptor, dict(entry.notes))
