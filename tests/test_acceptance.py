"""Acceptance gate: ten checks, one test each, exact group equalities only.

Run ``python3 -m pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion. Every expected value here is a frozen literal or an
independently coded oracle; nothing is read back from the module under test.
"""

import contextlib
import io
import random

from wittkit.catalog import catalog_get, catalog_instances
from wittkit.cli import run as cli_run
from wittkit.compare import compare_w_kok, pic_surjective
from wittkit.groups import (
    TRIVIAL,
    Z,
    Z2,
    GroupMap,
    SymGroup,
    check_exact,
    cokernel_map,
    direct_sum,
    elementary_two,
    f2_rank,
    free,
    mat_mul,
    snf,
    zero_map,
)
from wittkit.spaces import INTEGRAL, MOD2, betti, make_curve, make_point, singular_h
from wittkit.specseq import ahss_k, ahss_k_page, ahss_ko, pardon_stable
from wittkit.topko import (
    ko_curve,
    ko_curve_reduced,
    ko_point,
    ko_table,
    kok,
    kok_reduced,
    mod2_ranks,
)
from wittkit.witt import (
    FHImage,
    TruncatedClass,
    curve_symplectic_ring,
    fh_image,
    generic_sw_ring,
    gw_curve,
    gw_curve_reduced,
    gw_point,
    karoubi_check,
    projective_space_ring,
    ring_parse,
    sw_metabolic_total,
    sw_whitney_product,
    w0_graded_surface,
    w_curve,
    w_point,
    w_reduced,
    w_surface,
    witt_table,
)

TWISTS = ("trivial", "O(p)")

CATALOG_CURVES = [n for n in catalog_instances()
                  if catalog_get(n).descriptor.kind in ("point", "curve")]
CATALOG_SURFACES = [n for n in catalog_instances()
                    if catalog_get(n).descriptor.kind == "surface"]


def _twists_for(space):
    return TWISTS if space.kind == "curve" and space.projective else TWISTS[:1]


def _profile(groups):
    """Order data of a finite direct sum: total free rank, sorted torsion."""
    frees = sum(g.free_rank for g in groups)
    torsion = sorted(t for g in groups for t in g.torsion)
    return frees, tuple(torsion)


# ---------------------------------------------------------------------------
# 1. point tables


def test_criterion_01_point_tables():
    assert tuple(gw_point(i) for i in range(4)) == (Z, TRIVIAL, Z, Z2)
    assert tuple(w_point(i) for i in range(4)) == (Z2, TRIVIAL, TRIVIAL, TRIVIAL)


# ---------------------------------------------------------------------------
# 2. the projective-curve theorem, genus 0..3


def test_criterion_02_curve_theorem_tables():
    for g in range(4):
        c = make_curve(True, g)
        jac = 2 * g  # 2-torsion rank of the Jacobian

        gw_plain = (SymGroup(1, (2,) * (jac + 1), 0), SymGroup(1, (), jac),
                    Z, SymGroup(1, (2,), jac))
        w_plain = (elementary_two(jac + 1), Z2, TRIVIAL, TRIVIAL)
        gw_plain_red = (elementary_two(jac + 1), SymGroup(1, (), jac),
                        TRIVIAL, SymGroup(1, (), jac))
        w_plain_red = (elementary_two(jac), Z2, TRIVIAL, TRIVIAL)
        gw_tw = (SymGroup(1, (2,) * jac, 0), SymGroup(1, (), jac),
                 Z, SymGroup(1, (), jac))
        w_tw = (elementary_two(jac), TRIVIAL, TRIVIAL, TRIVIAL)

        for i in range(4):
            # 16 GW and 16 W equalities per genus
            assert gw_curve(c, i) == gw_plain[i]
            assert gw_curve_reduced(c, i) == gw_plain_red[i]
            assert gw_curve(c, i, "O(p)") == gw_tw[i]
            assert gw_curve_reduced(c, i, "O(p)") == gw_tw[i]
            assert w_curve(c, i) == w_plain[i]
            assert w_reduced(c, i) == w_plain_red[i]
            assert w_curve(c, i, "O(p)") == w_tw[i]
            assert w_reduced(c, i, "O(p)") == w_tw[i]

    p1 = make_curve(True, 0)
    assert tuple(w_curve(p1, i) for i in range(4)) == (Z2, Z2, TRIVIAL, TRIVIAL)
    assert all(w_curve(p1, i, "O(p)") == TRIVIAL for i in range(4))


# ---------------------------------------------------------------------------
# 3. KO of curves and the KOK = Witt coincidence


def test_criterion_03_ko_curves_and_kok_matches_witt():
    for g in range(4):
        c = make_curve(True, g)
        expected = (
            SymGroup(1, (2,) * (2 * g + 1), 0),
            SymGroup(2 * g, (2,), 0),
            Z,
            TRIVIAL,
            Z,
            free(2 * g),
            SymGroup(1, (2,), 0),
            elementary_two(2 * g + 1),
        )
        for d in range(8):
            assert ko_curve(c, d) == expected[d]

    for name in CATALOG_CURVES:
        space = catalog_get(name).descriptor
        if space.kind == "point":
            for i in range(4):
                assert kok(space, 2 * i) == w_point(i)
            continue
        for twist in _twists_for(space):
            for i in range(4):
                assert kok(space, 2 * i, twist) == w_curve(space, i, twist), \
                    (name, twist, i)


# ---------------------------------------------------------------------------
# reduced groups: the library cancels the point summand from the totals;
# these hand-written tables are the independent route


def _ko_curve_reduced_oracle(space, d):
    if space.projective:
        g = space.genus
        table = (elementary_two(2 * g + 1), SymGroup(2 * g, (2,), 0), Z, TRIVIAL,
                 TRIVIAL, free(2 * g), Z, elementary_two(2 * g))
    else:
        k = 2 * space.genus + space.punctures - 1
        table = (elementary_two(k), free(k), TRIVIAL, TRIVIAL,
                 TRIVIAL, free(k), TRIVIAL, elementary_two(k))
    return table[d % 8]


def _kok_reduced_oracle(space, shift):
    """Untwisted KO^shift/K minus the point summand."""
    if shift % 8:
        return kok(space, shift)
    if space.kind == "point":
        return TRIVIAL
    h1 = singular_h(space, 1, MOD2)
    if space.kind == "curve":
        return h1
    image_defect = singular_h(space, 2, MOD2).ngens - f2_rank(space.pi2)
    return direct_sum(h1, elementary_two(image_defect))


def _w_surface_reduced_oracle(space, i):
    if i % 4 == 0:
        _, w1, w2 = w0_graded_surface(space)
        return direct_sum(w1, w2)
    return w_surface(space, i)


def test_reduced_groups_match_hand_written_oracles():
    curves = [make_curve(True, g) for g in range(5)]
    curves += [make_curve(False, g, n) for g in range(3) for n in (1, 2, 4)]
    for c in curves:
        oracle = tuple(_ko_curve_reduced_oracle(c, d) for d in range(8))
        assert tuple(ko_curve_reduced(c, d) for d in range(8)) == oracle, c
        assert ko_table(c).ko_reduced == oracle, c
        for twist in _twists_for(c):
            # criterion 2 pins gw_curve_reduced and w_reduced to their tables
            t = witt_table(c, twist)
            assert t.gw_reduced == tuple(gw_curve_reduced(c, i, twist) for i in range(4))
            assert t.w_reduced == tuple(w_reduced(c, i, twist) for i in range(4))
    surfaces = [catalog_get(n).descriptor for n in CATALOG_SURFACES]
    for space in [make_point()] + curves + surfaces:
        oracle = tuple(_kok_reduced_oracle(space, 2 * i) for i in range(4))
        assert tuple(kok_reduced(space, 2 * i) for i in range(4)) == oracle, space
        assert ko_table(space).kok_reduced == oracle, space
    for space in surfaces:
        oracle = tuple(_w_surface_reduced_oracle(space, i) for i in range(4))
        assert tuple(w_reduced(space, i) for i in range(4)) == oracle, space
        assert witt_table(space).w_reduced == oracle, space


# ---------------------------------------------------------------------------
# 4. the projective-surface formulas on the catalog surfaces


def test_criterion_04_surface_tables():
    # expected values spelled out from (b1, b2, nu, rho) by hand
    expected = {
        "p2": (Z2, TRIVIAL, TRIVIAL, TRIVIAL),
        "blowup_p2": (Z2, Z2, TRIVIAL, TRIVIAL),
        "enriques": (elementary_two(3), elementary_two(12), Z2, TRIVIAL),
        "k3?rho=0": (elementary_two(23), TRIVIAL, Z2, TRIVIAL),
        "k3?rho=10": (elementary_two(13), elementary_two(10), Z2, TRIVIAL),
        "k3?rho=20": (elementary_two(3), elementary_two(20), Z2, TRIVIAL),
    }
    for name, groups in expected.items():
        space = catalog_get(name).descriptor
        for i in range(4):
            assert w_surface(space, i) == groups[i], (name, i)


# ---------------------------------------------------------------------------
# 5. engines against closed forms


def test_criterion_05_engine_oracle_equivalence():
    ko_read = {0: 0, 1: 1, 2: 2, 3: -5, 4: -4, 5: -3, 6: -2, 7: -1}
    dim_of = {"point": 0, "curve": 1, "surface": 2}

    for name in CATALOG_SURFACES:
        space = catalog_get(name).descriptor
        rep = pardon_stable(space)
        for i in range(4):
            assert rep.resolved_group(i) == w_surface(space, i), (name, i)

    for name in CATALOG_CURVES:
        space = catalog_get(name).descriptor
        rep = ahss_ko(space)
        assert not rep.unknown_degrees
        closed = ko_point if space.kind == "point" else \
            (lambda d: ko_curve(space, d))
        for d in range(8):
            assert _profile(rep.pieces(ko_read[d])) == _profile([closed(d)]), \
                (name, d)

    for name in catalog_instances():
        space = catalog_get(name).descriptor
        dim = dim_of[space.kind]
        rep = ahss_k(space)
        assert not rep.unknown_degrees
        even = [singular_h(space, d, INTEGRAL) for d in (0, 2, 4) if d <= 2 * dim]
        odd = [singular_h(space, d, INTEGRAL) for d in (1, 3) if d <= 2 * dim]
        assert _profile(rep.pieces(0)) == _profile(even), name
        assert _profile(rep.pieces(1)) == _profile(odd), name

        # collapse: the stable page is the starting page, entry for entry
        start = ahss_k_page(space).entries
        stable = {(s, t): grp
                  for triples in rep.degrees.values()
                  for s, t, grp in triples}
        assert stable == start, name


# ---------------------------------------------------------------------------
# 6. the comparison theorem across the catalog


def test_criterion_06_comparison_and_cli_assert():
    for name in CATALOG_CURVES:
        space = catalog_get(name).descriptor
        for twist in _twists_for(space):
            report = compare_w_kok(space, twist)
            assert report.verdict == "curve-always-iso"
            assert all(row.iso for row in report.rows)

    for name in CATALOG_SURFACES:
        space = catalog_get(name).descriptor
        report = compare_w_kok(space)
        b2 = betti(space)[2]
        if pic_surjective(space):
            assert report.verdict == "surface-iso"
            assert all(row.iso for row in report.rows)
        else:
            assert report.verdict == "surface-mismatch"
            shift, w_rank, kok_rank = report.mismatch
            assert shift == 0
            assert w_rank - kok_rank == b2 - space.rho, name

    sink = io.StringIO()
    for name in catalog_instances():
        with contextlib.redirect_stdout(sink):
            code = cli_run(["compare", "--space", "catalog:" + name, "--assert"])
        assert code == (2 if name.startswith("k3") else 0), name
    with contextlib.redirect_stdout(sink):
        assert cli_run(["compare", "--all", "--assert"]) == 2


# ---------------------------------------------------------------------------
# 7. Karoubi bookkeeping on curves


def test_criterion_07_karoubi_and_fh_patterns():
    for g in range(4):
        c = make_curve(True, g)

        rep = karoubi_check(c)
        assert rep.passed
        assert [n.split for n in rep.nodes] == [True, False, True, True]
        assert [n.s_piece for n in rep.nodes] == [
            Z2, SymGroup(1, (), 2 * g), TRIVIAL, SymGroup(1, (), 2 * g)]

        rep = karoubi_check(c, "O(p)")
        assert rep.passed
        assert [n.split for n in rep.nodes] == [True, True, True, True]
        assert [n.s_piece for n in rep.nodes] == [
            Z, SymGroup(1, (), 2 * g), Z, SymGroup(1, (), 2 * g)]

        for i in (0, 2):
            assert fh_image(c, i) == FHImage(coords=("deg",), columns=(),
                                             jac=False)
            assert fh_image(c, i, "O(p)") == FHImage(
                coords=("rank", "deg"), columns=((2, 1),), jac=False)
        for i in (1, 3):
            assert fh_image(c, i) == FHImage(coords=("deg",), columns=((2,),),
                                             jac=True)
            assert fh_image(c, i, "O(p)") == FHImage(
                coords=("rank", "deg"), columns=((0, 1),), jac=True)


# ---------------------------------------------------------------------------
# 8. Stiefel-Whitney suite

_NVARS = 5
_ONE = (0,) * _NVARS


def _pmul(p, q):
    out = set()
    for t1, m1 in p:
        for t2, m2 in q:
            out ^= {(t1 + t2, tuple(a + b for a, b in zip(m1, m2)))}
    return out


def _oracle_metabolic(rank, complex_base):
    """sum_j (1 + e t)^{rank-j} c_j t^{2j} over F2, c_j the j-th variable."""
    base = {(0, _ONE)}
    if not complex_base:
        base = {(0, _ONE), (1, (1, 0, 0, 0, 0))}
    total = set()
    for j in range(rank + 1):
        power = {(0, _ONE)}
        for _ in range(rank - j):
            power = _pmul(power, base)
        cj = _ONE if j == 0 else tuple(int(v == j) for v in range(_NVARS))
        total ^= _pmul(power, {(2 * j, cj)})
    return total


def _oracle_vector(ring, total, t_degree):
    names = ("e", "c1", "c2", "c3", "c4")
    vec = [0] * len(ring.basis)
    for t, mono in total:
        if t != t_degree:
            continue
        parts = ["%s^%d" % (n, e) if e > 1 else n
                 for n, e in zip(names, mono) if e]
        vec[ring.basis.index("*".join(parts) if parts else "1")] ^= 1
    return tuple(vec)


def _random_class(ring, rng):
    by_degree = {}
    for idx, d in enumerate(ring.degrees):
        by_degree.setdefault(d, []).append(idx)
    coeffs = [ring.unit()]
    for d in range(1, ring.max_degree + 1):
        vec = [0] * len(ring.basis)
        for idx in by_degree.get(d, ()):
            vec[idx] = rng.randint(0, 1)
        coeffs.append(tuple(vec))
    return TruncatedClass(ring, tuple(coeffs))


def test_criterion_08_stiefel_whitney_suite():
    ring = generic_sw_ring(4)
    for rank in (1, 2, 3, 4):
        chern = [ring.unit()] + [ring_parse(ring, "c%d" % j)
                                 for j in range(1, rank + 1)]
        for complex_base in (False, True):
            total = sw_metabolic_total(chern, rank, ring, complex=complex_base)
            oracle = _oracle_metabolic(rank, complex_base)
            for d in range(ring.max_degree + 1):
                assert total.coefficients[d] == _oracle_vector(ring, oracle, d)

    rings = [projective_space_ring(1), projective_space_ring(2),
             curve_symplectic_ring(1), curve_symplectic_ring(2),
             generic_sw_ring(2), generic_sw_ring(4)]
    for ring in rings:
        degree_two = next((i for i, d in enumerate(ring.degrees) if d == 2), None)
        chern = [ring.unit()]
        if degree_two is not None:
            c1 = tuple(int(i == degree_two) for i in range(len(ring.basis)))
            chern.append(c1)
        total = sw_metabolic_total(chern, len(chern) - 1, ring, complex=True)
        for d, coeff in enumerate(total.coefficients):
            if d % 2:
                assert not any(coeff)
            else:
                expected = chern[d // 2] if d // 2 < len(chern) \
                    else ring.zero()
                assert coeff == tuple(expected)

    rng = random.Random(20260816)
    ring = curve_symplectic_ring(2)
    for _ in range(110):
        a, b, c = (_random_class(ring, rng) for _ in range(3))
        ab = sw_whitney_product(a, b)
        assert ab == sw_whitney_product(b, a)
        assert sw_whitney_product(ab, c) \
            == sw_whitney_product(a, sw_whitney_product(b, c))


# ---------------------------------------------------------------------------
# 9. mod-2 rank bookkeeping


def test_criterion_09_mod2_ranks_and_eta_obstruction():
    for name in catalog_instances():
        space = catalog_get(name).descriptor
        rep = mod2_ranks(space)
        if name == "enriques":
            assert rep.signal == "eta-obstructed"
            assert rep.k1_two_rank == 1
            assert rep.w is None and rep.kok is None
            assert rep.k0_order_log2 == 14  # the K-row is still emitted
            continue
        assert rep.signal is None and rep.k1_two_rank == 0
        if space.kind == "surface":
            witt_groups = [w_surface(space, i) for i in range(4)]
        elif space.kind == "curve":
            witt_groups = [w_curve(space, i) for i in range(4)]
        else:
            witt_groups = [w_point(i) for i in range(4)]
        n = [len(g.torsion) for g in witt_groups]  # all exponent two
        for i in range(4):
            assert rep.w[i] == n[i] + n[(i + 1) % 4], (name, i)
        if pic_surjective(space):
            assert rep.w == rep.kok, name


# ---------------------------------------------------------------------------
# 10. group engine properties


def _det(matrix):
    """Integer determinant by fraction-free elimination."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * (a[n - 1][n - 1] if n else 1)


def _random_unimodular(n, rng):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n + 2):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return tuple(map(tuple, m))


def test_criterion_10_group_engine_properties():
    rng = random.Random(424242)
    for trial in range(500):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
        u, s, v = snf(m, r, c)
        assert mat_mul(mat_mul(u, m, c), v, c) == s, trial
        assert abs(_det(u)) == 1 and abs(_det(v)) == 1, trial
        diag = [s[i][i] for i in range(min(r, c))]
        assert all(s[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        assert all(d >= 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0), trial

    mutants_rejected = 0
    for trial in range(10):
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        diag, d = [], 1
        for _ in range(k):
            d *= rng.choice([1, 2, 3])
            diag.append(d)
        s = tuple(tuple(diag[i] if i == j and i < k else 0 for j in range(k))
                  for i in range(n))
        m = mat_mul(mat_mul(_random_unimodular(n, rng), s, k),
                    _random_unimodular(k, rng), k)
        inj = GroupMap(free(k), free(n), m)
        coker, proj = cokernel_map(inj)
        good = [zero_map(TRIVIAL, free(k)), inj, proj, zero_map(coker, TRIVIAL)]
        assert check_exact(good).ok, trial

        mutant = list(good)
        if trial % 2:
            j = rng.randrange(k)  # kill a column: kernel appears at node 1
            mutant[1] = GroupMap(free(k), free(n), tuple(
                tuple(0 if jj == j else row[jj] for jj in range(k)) for row in m))
        else:
            # double the injection: homology (Z/2)^k appears at node 2
            mutant[1] = GroupMap(free(k), free(n), tuple(
                tuple(2 * x for x in row) for row in m))
        if not check_exact(mutant).ok:
            mutants_rejected += 1
    assert mutants_rejected == 10
