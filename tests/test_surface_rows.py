"""The surface Witt groups read off summand counts, against the direct-sum
assembly they replaced.

``reference_w0_graded_surface`` and ``reference_w_surface`` are
``w0_graded_surface`` and ``w_surface`` as they stood when W^0 and W^1 of a
surface were assembled with ``direct_sum``/``direct_sum_all``, copied
verbatim (only renamed), so they share no W code with the package.
``reference_resolved_group`` is the method ``EInfinityReport.resolved_group``
of that time, copied verbatim (only renamed) and called with the report as
``self``. The count routes must give the same render, or raise the same
exception, at every shift 0..7 and in every degree of every engine.

The surface tables must also leave no dead tuples behind: CPython keeps
freed tuples of up to 20 items on per-size free lists (2,000 each), and a
tuple built from a generator is allocated at a guessed size and resized, so
it never takes one back; the group kernel builds its tuples from lists.
"""

import gc
import tracemalloc

from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    reference_cancel_point,
    reference_picard_image_matrix,
    ruled_surface,
)

from wittkit.catalog import catalog_get, catalog_instances
from wittkit.compare import compare_w_kok
from wittkit.errors import InvariantViolation, WittkitError
from wittkit.groups import (
    TRIVIAL,
    Z2,
    SymGroup,
    direct_sum,
    direct_sum_all,
    elementary_two,
    exponent_two,
    f2_rank,
    mod2_rank,
    render,
)
from wittkit.spaces import (
    SpaceDescriptor,
    betti,
    etale_h,
    require_kind,
)
from wittkit.specseq import ahss_k, ahss_ko, pardon_stable
from wittkit.topko import ko_table
from wittkit.witt import (
    TRIVIAL_TWIST,
    w,
    w_point,
    w_reduced,
    w_surface,
    witt_table,
)


def reference_w0_graded_surface(space: SpaceDescriptor):
    """Graded pieces (rank, w1-bar, w2-bar) of W^0."""
    require_kind(space, "surface")
    h2 = etale_h(space, 2)
    pic_rank = f2_rank(reference_picard_image_matrix(space))
    return (Z2, etale_h(space, 1), elementary_two(mod2_rank(h2) - pic_rank))


def reference_w_surface(space: SpaceDescriptor, i: int) -> SymGroup:
    require_kind(space, "surface")
    s1_rank = f2_rank(space.s1)
    i %= 4
    if i == 0:
        g = direct_sum_all(reference_w0_graded_surface(space))
    elif i == 1:
        g = direct_sum(elementary_two(space.rho + space.nu - s1_rank),
                       etale_h(space, 3))
    elif i == 2:
        g = elementary_two(space.ch2_mod2_rank - s1_rank)
    else:
        g = TRIVIAL
    if space.projective:
        # Betti-number forms of the same groups; a second route through the data
        b = betti(space)
        ok = True
        if i == 0:
            ok = mod2_rank(g) - 1 == b[1] + b[2] - space.rho + 2 * space.nu
        elif i == 1:
            ok = mod2_rank(g) == b[1] + space.rho + 2 * space.nu - s1_rank
        elif i == 2:
            ok = mod2_rank(g) == space.ch2_mod2_rank - s1_rank
        if not ok:
            raise InvariantViolation(
                "W^%d of %s disagrees with its Betti-number form" % (i, space))
    return exponent_two(g)


def reference_resolved_group(self, degree: int):
    """The abutment in one degree, or None when it cannot be assembled."""
    resolved = self.extension_resolved.get(degree, True)
    if degree in self.unknown_degrees or not resolved:
        return None
    pieces = self.pieces(degree)
    return pieces[0] if len(pieces) == 1 else direct_sum_all(pieces)


def outcome(call):
    try:
        g = call()
    except WittkitError as exc:
        return type(exc)
    return g if g is None else render(g)


def assert_w_matches_reference(space):
    """w_surface, w, w_reduced, the witt_table row and resolved_group of every
    engine against the references, at shifts 0..7 and degrees -12..7."""
    for i in range(8):
        want = outcome(lambda: reference_w_surface(space, i))
        want_red = outcome(lambda: reference_cancel_point(reference_w_surface(space, i),
                                                w_point(i), TRIVIAL_TWIST))
        where = (str(space), i)
        assert outcome(lambda: w_surface(space, i)) == want, where
        assert outcome(lambda: w(space, i)) == want, where
        assert outcome(lambda: witt_table(space).w[i % 4]) == want, where
        assert outcome(lambda: w_reduced(space, i)) == want_red, where
    for engine in (pardon_stable, ahss_ko, ahss_k):
        rep = engine(space)
        for d in sorted(set(range(-12, 8)) | set(rep.degrees)):
            assert outcome(lambda: rep.resolved_group(d)) \
                == outcome(lambda: reference_resolved_group(rep, d)), \
                (str(space), engine.__name__, d)


def test_w_surface_matches_reference_on_catalog_and_sample_surfaces():
    spaces = [catalog_get(name).descriptor for name in catalog_instances()]
    spaces = [s for s in spaces if s.kind == "surface"]
    assert len(spaces) == 8
    spaces += [p2_surface(), blowup_p2_surface(), enriques_surface(),
               abelian_like_surface()]
    spaces += [k3_surface(rho) for rho in (0, 1, 10, 20)]
    spaces += [ruled_surface(g) for g in range(4)]
    for space in spaces:
        assert_w_matches_reference(space)


def test_surface_tables_park_no_dead_tuples():
    spaces = [catalog_get(name).descriptor for name in catalog_instances()]
    spaces = [s for s in spaces if s.kind == "surface"]
    spaces += [k3_surface(rho) for rho in range(0, 21, 3)]
    spaces += [ruled_surface(g) for g in range(0, 10, 3)]
    tables = (witt_table, ko_table, compare_w_kok, pardon_stable, ahss_ko, ahss_k)
    gc.collect()  # also empties the free lists
    tracemalloc.start()
    try:
        for _ in range(10):
            for space in spaces:
                for table in tables:
                    table(space)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every result is gone, so what stays allocated is free-list tuples: a
    # few per width from the largest matrix alive at once, and up to 2,000
    # of exactly 20 items, a width CPython 3.10/3.11 frees onto a list but
    # never allocates from (about 0.4 MB). Rows built from generators park
    # 1.9 MB here and grow with every pass.
    assert held < 1_000_000, held
