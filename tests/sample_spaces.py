"""Hand-built descriptors shared by several test modules, and reference copies.

``reference_cancel``, ``reference_cancel_point``, ``reference_on_pic_columns``
and ``reference_picard_image_matrix`` are ``groups.cancel``,
``witt.cancel_point``, ``spaces._on_pic_columns`` and
``spaces.picard_image_matrix`` as they stood when the package last held them,
copied verbatim (only renamed). No table calls them; the row tests use them as
oracles.
"""

from math import isqrt

from wittkit.errors import InvariantViolation
from wittkit.groups import TRIVIAL, Z, Matrix, SymGroup, cyclic, free, render
from wittkit.spaces import SpaceDescriptor, make_surface, pic_columns
from wittkit.witt import ODD_TWIST


def eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def p2_surface():
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, Z, TRIVIAL, Z),
        nu=0,
        rho=1,
        ch2_mod2_rank=1,
        sq2=((1,),),
        pi2=((1,),),
    )


def blowup_p2_surface():
    # one point blown up: H^2 = Z^2, Sq2 = sum of both squares
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, free(2), TRIVIAL, Z),
        nu=0,
        rho=2,
        ch2_mod2_rank=1,
        sq2=((1, 1),),
        pi2=eye(2),
    )


def enriques_surface():
    h2 = SymGroup(10, (2,), 0)
    pi2 = tuple(tuple(int(i == j) for j in range(11)) for i in range(12))
    sq2 = ((0,) * 11 + (1,),)
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, h2, cyclic(2), Z),
        nu=1,
        rho=10,
        ch2_mod2_rank=1,
        sq2=sq2,
        pi2=pi2,
    )


def k3_surface(rho):
    return make_surface(
        projective=True,
        h_int=(Z, TRIVIAL, free(22), TRIVIAL, Z),
        nu=0,
        rho=rho,
        ch2_mod2_rank=1,
        sq2=((0,) * 22,),
        pi2=eye(22),
        s1=((0,) * rho,),
    )


def ruled_surface(g):
    # ruled over a genus-g curve; Sq2 pairs the section with the fibre class
    return make_surface(
        projective=True,
        h_int=(Z, free(2 * g), free(2), free(2 * g), Z),
        nu=0,
        rho=2,
        ch2_mod2_rank=1,
        sq2=((0, 1),),
        pi2=eye(2),
    )


def abelian_like_surface():
    # b1 = 4 with vanishing Sq2: the page-3 differential out of (1,0) in the
    # KO sequence has nonzero source and target here
    return make_surface(
        projective=True,
        h_int=(Z, free(4), free(6), free(4), Z),
        nu=0,
        rho=1,
        ch2_mod2_rank=1,
        sq2=((0,) * 6,),
        pi2=eye(6),
        s1=((0,),),
    )


def reference_cancel(total: SymGroup, summand: SymGroup) -> SymGroup:
    """The complement of ``summand`` in ``total``.

    ``summand`` is built from free, prime-cyclic and divisible atoms; each
    cancels against one matching atom of ``total`` (Z/p against a primary
    factor of order exactly p, D(t) by rank). Anything else is a programming
    error, raised even under ``python -O``.
    """
    torsion = list(total.torsion)
    fits = (summand.free_rank <= total.free_rank
            and summand.divisible_rank <= total.divisible_rank)
    for p in summand.torsion:
        # the first factor whose p-part is exactly p: the factors before it
        # are prime to p, so dividing it by p keeps the divisibility chain
        hit = next((k for k, d in enumerate(torsion) if d % p == 0 and d % (p * p)),
                   None)
        if hit is None or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            fits = False
            break
        torsion[hit] //= p
        if torsion[hit] == 1:
            del torsion[hit]
    if not fits:
        raise InvariantViolation(
            "%s is not a summand of %s" % (render(summand), render(total)))
    return SymGroup(total.free_rank - summand.free_rank, tuple(torsion),
                    total.divisible_rank - summand.divisible_rank)


def reference_cancel_point(total: SymGroup, point_group: SymGroup, twist) -> SymGroup:
    """``total`` minus the point summand; a twisted group has none."""
    return total if twist == ODD_TWIST else reference_cancel(total, point_group)


def reference_on_pic_columns(space: SpaceDescriptor, m) -> Matrix:
    cols = pic_columns(space)
    return tuple([tuple([row[j] for j in cols]) for row in m])


def reference_picard_image_matrix(space: SpaceDescriptor) -> Matrix:
    """pi2 restricted to the Picard columns: Pic/2 -> H^2(Z/2)."""
    return reference_on_pic_columns(space, space.pi2)
