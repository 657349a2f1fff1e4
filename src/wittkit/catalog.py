"""Named example spaces with per-field provenance notes.

Entries are addressed by a name plus optional integer parameters in query
form, e.g. ``k3?rho=20`` or ``affine_curve?g=1&n=2``. Every numeric field of
a registered descriptor carries a note saying which geometric fact pins it
down. Godeaux-type and bielliptic surfaces are deliberately absent: their
fundamental groups are classical but complete (Betti, torsion, Picard, Sq2)
tuples would have to be invented.

An entry whose parameters the registry bounds (the plain names, ``curve?g=``,
``k3?rho=`` and ``ruled?g=``, 44 in all) is built and checked by
``make_surface``/``make_curve`` on its first lookup and kept for the life of
the process; ``affine_curve?g=&n=`` ranges over thousands of names and builds
in microseconds, so it is built on every lookup. Every lookup returns a fresh
``CatalogEntry`` with its own ``notes`` dict, and a refused name is refused
again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _genus_in_range(g: int):
    if not 0 <= g <= MAX_GENUS:
        raise InconsistentDescriptor(
            "genus %d outside the registered range 0..%d" % (g, MAX_GENUS))


def _entry_point() -> CatalogEntry:
    return CatalogEntry(
        name="point",
        descriptor=make_point(),
        notes={"kind": "a single rational point"},
    )


def _entry_p1() -> CatalogEntry:
    return CatalogEntry(
        name="p1",
        descriptor=make_curve(True, 0),
        notes={
            "genus": "the projective line is the genus-0 curve",
            "punctures": "complete curve, none",
        },
    )


def _entry_curve(g: int) -> CatalogEntry:
    _genus_in_range(g)
    return CatalogEntry(
        name="curve?g=%d" % g,
        descriptor=make_curve(True, g),
        notes={
            "genus": "parameter g, 0 <= g <= %d" % MAX_GENUS,
            "punctures": "complete curve, none",
        },
    )


def _entry_affine_curve(g: int, n: int) -> CatalogEntry:
    _genus_in_range(g)
    if n < 1:
        raise InconsistentDescriptor("an affine curve needs n >= 1 punctures")
    return CatalogEntry(
        name="affine_curve?g=%d&n=%d" % (g, n),
        descriptor=make_curve(False, g, n),
        notes={
            "genus": "parameter g of the completed curve",
            "punctures": "parameter n >= 1, points removed; the underlying "
                         "complex is a wedge of 2g+n-1 circles",
        },
    )


def _entry_p2() -> CatalogEntry:
    return CatalogEntry(
        name="p2",
        descriptor=make_surface(
            projective=True,
            h_int=(Z, TRIVIAL, Z, TRIVIAL, Z),
            nu=0,
            rho=1,
            ch2_mod2_rank=1,
            sq2=((1,),),
            pi2=((1,),),
        ),
        notes={
            "h_int": "cohomology of the projective plane: Z in even degrees, "
                     "generated by powers of the hyperplane class",
            "nu": "H^2 = Z is torsion-free",
            "rho": "the hyperplane class spans the Neron-Severi group",
            "ch2_mod2_rank": "H^4(Z/2) = Z/2 on a connected surface",
            "sq2": "h.h = 1: the square of the degree-2 generator is the "
                   "fundamental class",
            "pi2": "mod-2 reduction is an isomorphism on torsion-free H^2",
        },
    )


def _entry_blowup_p2() -> CatalogEntry:
    return CatalogEntry(
        name="blowup_p2",
        descriptor=make_surface(
            projective=True,
            h_int=(Z, TRIVIAL, free(2), TRIVIAL, Z),
            nu=0,
            rho=2,
            ch2_mod2_rank=1,
            sq2=((1, 1),),
            pi2=identity(2),
        ),
        notes={
            "h_int": "one point blown up: H^2 = Z[H] + Z[E]",
            "nu": "torsion-free",
            "rho": "both basis divisors are ample combinations, rho = b2 = 2",
            "ch2_mod2_rank": "H^4(Z/2) = Z/2",
            "sq2": "intersection squares (1, -1): Sq2 is the coordinate sum, "
                   "hence onto",
            "pi2": "reduction is an isomorphism",
        },
    )


def _entry_enriques() -> CatalogEntry:
    # 12 mod-2 classes: ten from the free lattice, one from the 2-torsion of
    # H^2, one from the 2-torsion of H^3
    pi2 = identity(11) + ((0,) * 11,)
    sq2 = ((0,) * 11 + (1,),)
    return CatalogEntry(
        name="enriques",
        descriptor=make_surface(
            projective=True,
            h_int=(Z, TRIVIAL, SymGroup(10, (2,), 0), cyclic(2), Z),
            nu=1,
            rho=10,
            ch2_mod2_rank=1,
            sq2=sq2,
            pi2=pi2,
        ),
        notes={
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
        },
    )


def _entry_k3(rho: int) -> CatalogEntry:
    if not 0 <= rho <= MAX_K3_RHO:
        raise InconsistentDescriptor(
            "K3 Picard number must lie in 0..%d" % MAX_K3_RHO)
    return CatalogEntry(
        name="k3?rho=%d" % rho,
        descriptor=make_surface(
            projective=True,
            h_int=(Z, TRIVIAL, free(22), TRIVIAL, Z),
            nu=0,
            rho=rho,
            ch2_mod2_rank=1,
            sq2=((0,) * 22,),
            pi2=identity(22),
            s1=((0,) * rho,),
        ),
        notes={
            "h_int": "simply connected, H^2 = Z^22 torsion-free",
            "nu": "torsion-free H^2",
            "rho": "parameter, 0 <= rho <= %d: algebraic K3 surfaces realize "
                   "1..%d; rho = 0 is the lattice of a non-algebraic K3, kept "
                   "as the limit case of the formulas" % (MAX_K3_RHO, MAX_K3_RHO),
            "ch2_mod2_rank": "H^4(Z/2) = Z/2",
            "sq2": "the K3 lattice is even: x.x = 0 mod 2 for integral x",
            "pi2": "reduction is an isomorphism",
            "s1": "zero on algebraic classes inside an even lattice",
        },
    )


def _entry_ruled(g: int) -> CatalogEntry:
    _genus_in_range(g)
    return CatalogEntry(
        name="ruled?g=%d" % g,
        descriptor=make_surface(
            projective=True,
            h_int=(Z, free(2 * g), free(2), free(2 * g), Z),
            nu=0,
            rho=2,
            ch2_mod2_rank=1,
            sq2=((0, 1),),
            pi2=identity(2),
        ),
        notes={
            "h_int": "ruled over a genus-g curve; b1 = 2g is stated "
                     "explicitly rather than derived",
            "nu": "torsion-free",
            "rho": "section and fibre classes are algebraic, rho = b2 = 2",
            "ch2_mod2_rank": "H^4(Z/2) = Z/2",
            "sq2": "an odd ruling: the section class has odd self-"
                   "intersection, pairing it with the fibre coordinate",
            "pi2": "reduction is an isomorphism",
        },
    )


_PLAIN = {
    "point": _entry_point,
    "p1": _entry_p1,
    "p2": _entry_p2,
    "blowup_p2": _entry_blowup_p2,
    "enriques": _entry_enriques,
}

_PARAMETRIC = {
    "curve": (_entry_curve, ("g",)),
    "affine_curve": (_entry_affine_curve, ("g", "n")),
    "k3": (_entry_k3, ("rho",)),
    "ruled": (_entry_ruled, ("g",)),
}

# (builder, arguments) -> the entry it built; a builder refuses every argument
# outside the registered range before anything is stored, so this holds at
# most 44 entries
_BUILT = {}


def _built(builder, args: tuple) -> CatalogEntry:
    entry = _BUILT.get((builder, args))
    if entry is None:
        entry = _BUILT[(builder, args)] = builder(*args)
    # the descriptor is frozen; the notes dict is the caller's own
    return CatalogEntry(entry.name, entry.descriptor, dict(entry.notes))


def catalog_list() -> tuple:
    """Base names; parametric entries are addressed as name?key=value."""
    return tuple(sorted(_PLAIN)) + tuple(sorted(_PARAMETRIC))


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


def _parse_params(base: str, query: str, keys: tuple) -> dict:
    params = {}
    for piece in query.split("&"):
        key, sep, value = piece.partition("=")
        if not sep or key not in keys:
            raise UnknownName(
                "entry %r takes parameters %s" % (base, ", ".join(keys)))
        if key in params:
            raise UnknownName("parameter %r of %r is given twice" % (key, base))
        n = canonical_int(value)
        if n is None:
            raise UnknownName("parameter %r of %r must be an integer" % (key, base))
        params[key] = n
    missing = [k for k in keys if k not in params]
    if missing:
        raise UnknownName(
            "entry %r needs parameters %s" % (base, ", ".join(missing)))
    return params


def catalog_get(name: str) -> CatalogEntry:
    base, sep, query = name.partition("?")
    if base in _PLAIN:
        if sep:
            raise UnknownName("entry %r takes no parameters" % base)
        return _built(_PLAIN[base], ())
    if base in _PARAMETRIC:
        builder, keys = _PARAMETRIC[base]
        if not sep:
            raise UnknownName(
                "entry %r needs parameters %s" % (base, ", ".join(keys)))
        params = _parse_params(base, query, keys)
        if builder is _entry_affine_curve:
            return builder(**params)
        return _built(builder, tuple(params[k] for k in keys))
    raise UnknownName("no catalog entry named %r" % base)
