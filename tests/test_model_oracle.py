"""The benchmark's closed-form models as an oracle for the library.

``bench/models.py`` derives every expected group from the paper's closed
forms and imports nothing from wittkit. ``bench/workloads.LIBRARY_CHECKS``
compares a library result with those groups and returns the reason for a
difference, or None; it never raises. Here they judge every catalog instance
in both twists, seeded drawn surfaces (projective and open, with H^4 = Z, as
the models assume ch2_mod2_rank = 1), and curves, projective and affine, in
both twists up to the largest genus a descriptor takes. Both files are only
read: they are imported without writing bytecode next to them.

The drawn surfaces take the ranks of s1 and of Sq2 after pi2 from this
file's own F2 rank and product, not from the library, and each is loaded
from its JSON document. A draw whose pi2 is not injective must be refused
by the loader, and every other draw must load; both are counted.
"""

import json
import pathlib
import random
import sys

import pytest

from wittkit.catalog import catalog_get, catalog_instances
from wittkit.compare import compare_w_kok
from wittkit.errors import InconsistentDescriptor, NoSuchTwist, UnsupportedTwist
from wittkit.spaces import MAX_CURVE_RANK, descriptor_from_json, make_curve
from wittkit.specseq import ahss_k, ahss_ko, pardon_stable
from wittkit.topko import ko_table
from wittkit.witt import karoubi_check, witt_table

BENCH = str(pathlib.Path(__file__).resolve().parent.parent / "bench")


def _read_only_import():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import models
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return models, workloads


M, W = _read_only_import()
TWISTS = ("trivial", "O(p)")
TWISTED = {"witt_table": witt_table, "ko_table": ko_table,
           "compare_w_kok": compare_w_kok, "karoubi_check": karoubi_check}
UNTWISTED = {"pardon_stable": pardon_stable, "ahss_ko": ahss_ko, "ahss_k": ahss_k}
KAROUBI_MAX_GENUS = 8  # karoubi_check runs one elimination per node


def reasons(model, space, twist, karoubi=True):
    """Each library check that fails on ``space``, with its reason; [] when
    all pass. The engines take no twist and run in the trivial one only,
    and check_ahss_ko only when K^1 has no 2-torsion, where eta's
    identification holds."""
    ex = M.expected(model, twist)
    entries = dict(TWISTED)
    if model.kind != "curve" or not karoubi:
        del entries["karoubi_check"]
    if twist == "trivial":
        entries.update(UNTWISTED)
        if not ex.k1_two_torsion_free:
            del entries["ahss_ko"]
    out = [(name, W.LIBRARY_CHECKS[name](ex, twist, call(space, twist) if name in TWISTED
                                          else call(space)))
           for name, call in entries.items()]
    return [(name, why) for name, why in out if why is not None]


def twist_exists(model, twist):
    """O(p) is a class of Pic/2 only on a projective curve here: the point and
    affine curves have none, and twisted surface groups are out of contract."""
    return twist == "trivial" or (model.kind == "curve" and model.projective)


def judge(model, space, karoubi=True):
    """Check ``space`` in both twists; a twist that does not exist is refused."""
    for twist in TWISTS:
        if twist_exists(model, twist):
            assert reasons(model, space, twist, karoubi) == [], (model, twist)
        else:
            with pytest.raises((NoSuchTwist, UnsupportedTwist)):
                witt_table(space, twist)


def test_catalog_instances_match_the_models():
    for name in catalog_instances():
        model = M.catalog_model(name)
        judge(model, catalog_get(name).descriptor, karoubi=model.genus <= KAROUBI_MAX_GENUS)


CURVE_GENERA = (0, 1, 2, 3, 5, 8, 13, 100, MAX_CURVE_RANK // 2)
AFFINE_CURVES = ((0, 1), (0, 2), (1, 1), (2, 3), (5, 4), (8, 1),
                 (100, 7), (MAX_CURVE_RANK // 2 - 1, 2))


def test_curves_match_the_models():
    for g in CURVE_GENERA:
        judge(M.curve(g), make_curve(True, g), karoubi=g <= KAROUBI_MAX_GENUS)
    for g, n in AFFINE_CURVES:
        judge(M.affine_curve(g, n), make_curve(False, g, n), karoubi=g <= KAROUBI_MAX_GENUS)


# ---------------------------------------------------------------------------
# drawn surfaces

TORSION = ((), (2,), (2, 2), (3,), (4,), (2, 6))
DRAWS = 240


def f2_rank(rows):
    """Rank over F2 of 0/1 rows: a basis of bitmasks kept in decreasing order,
    whose leading bits differ, reduces each row in turn."""
    basis = []
    for row in rows:
        v = int("".join(map(str, row)) or "0", 2)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return len(basis)


def f2_product(a, b, inner):
    """a times b mod 2, for an a with ``inner`` columns."""
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(inner)) % 2 for j in range(cols)]
            for row in a]


def bits(rng, rows, cols):
    return [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]


def draw_surface(rng):
    """A surface document and its model; pi2 is drawn at random one time in
    four, so that it may fail to be injective, and otherwise holds an identity."""
    projective = rng.random() < 0.5
    b1 = rng.choice((0, 2, 4)) if projective else rng.randint(0, 5)
    b2 = rng.randint(1 if projective else 0, 10)
    t2 = rng.choice(TORSION)
    b3, t3 = (b1, t2) if projective else (rng.randint(0, 5), rng.choice(TORSION))
    h = (M.Z, M.free(b1), (b2, M.invariant_factors(t2), 0),
         (b3, M.invariant_factors(t3), 0), M.Z)
    nu, nt3 = M.two_rank(h[2]), M.two_rank(h[3])
    m2 = b2 + nu
    rho = rng.randint(0, b2)
    if rng.random() < 0.25:
        pi2 = bits(rng, m2 + nt3, m2)
    else:
        pi2 = [[int(i == j) for j in range(m2)] for i in range(m2)] + bits(rng, nt3, m2)
        rng.shuffle(pi2)
    sq2 = bits(rng, 1, m2 + nt3)
    sq2z = f2_product(sq2, pi2, m2 + nt3)
    # with rho = b2 the Picard classes are all of H^2(Z)/2, and s1 is Sq2 on them
    s1 = bits(rng, 1, rho + nu) if rho < b2 else sq2z
    doc = {"kind": "surface", "projective": projective,
           "h_int": [M.render(g) for g in h], "nu": nu, "rho": rho,
           "ch2_mod2_rank": 1, "sq2": sq2, "pi2": pi2, "s1": s1}
    model = M.Space("surface", projective, h=h, rho=rho, s1_rank=f2_rank(s1),
                    sq2z_rank=f2_rank(sq2z))
    return doc, model, f2_rank(pi2) == m2


def test_drawn_surfaces_match_the_models():
    rng = random.Random(20111018)
    loaded = refused = open_loaded = 0
    for _ in range(DRAWS):
        doc, model, injective = draw_surface(rng)
        try:
            space = descriptor_from_json(json.dumps(doc))
        except InconsistentDescriptor as exc:
            assert not injective and str(exc).startswith("pi2-injective"), (doc, exc)
            refused += 1
            continue
        assert injective, doc
        judge(model, space)
        loaded += 1
        open_loaded += not model.projective
    assert loaded + refused == DRAWS
    # the seed gives refusals and open surfaces, and mostly loadable draws
    assert refused >= 10 and open_loaded >= 60 and loaded >= 3 * DRAWS // 4, (loaded, refused)
