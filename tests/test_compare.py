"""Comparison verdicts: curves always match, surfaces match exactly when the
Picard map covers H^2."""

import copy
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import wittkit

from sample_spaces import (
    abelian_like_surface,
    blowup_p2_surface,
    enriques_surface,
    k3_surface,
    p2_surface,
    ruled_surface,
)
from wittkit.catalog import MAX_GENUS, MAX_K3_RHO, catalog_get, catalog_instances
from wittkit.compare import (
    CURVE_ALWAYS_ISO,
    SURFACE_ISO,
    SURFACE_MISMATCH,
    ComparisonReport,
    compare_w_kok,
    pic_surjective,
    report_from_json,
    report_to_json,
    s1_vs_sq2z,
)
from wittkit.errors import (
    InconsistentDescriptor,
    NoSuchTwist,
    UnsupportedTwist,
    WittkitError,
)
from wittkit.groups import (
    Z2,
    elementary_two,
    f2_rank,
    is_elementary_two,
    parse_group,
    parse_summands,
)
from wittkit.spaces import MAX_CURVE_RANK, betti, make_curve, make_point
from wittkit.witt import w_curve

ISO_SURFACES = [
    p2_surface(),
    blowup_p2_surface(),
    enriques_surface(),
    ruled_surface(0),
    ruled_surface(2),
]
MISMATCH_SURFACES = [k3_surface(0), k3_surface(10), k3_surface(20),
                     abelian_like_surface()]


def test_pic_surjective():
    assert pic_surjective(p2_surface())
    assert pic_surjective(enriques_surface())
    assert not pic_surjective(k3_surface(20))
    assert not pic_surjective(abelian_like_surface())
    assert pic_surjective(make_curve(True, 5))
    assert pic_surjective(make_curve(False, 2, 2))
    assert pic_surjective(make_point())


@pytest.mark.parametrize("g", range(4))
@pytest.mark.parametrize("twist", ["trivial", "O(p)"])
def test_curves_always_iso(g, twist):
    c = make_curve(True, g)
    report = compare_w_kok(c, twist)
    assert report.verdict == CURVE_ALWAYS_ISO
    assert report.pic_surjective
    assert report.mismatch is None
    assert all(r.iso for r in report.rows)
    for r in report.rows:
        assert r.w == w_curve(c, r.shift, twist)
        assert r.w == r.kok


def test_genus2_row_values():
    report = compare_w_kok(make_curve(True, 2))
    assert [r.w for r in report.rows] == [
        elementary_two(5), Z2, elementary_two(0), elementary_two(0)]


def test_affine_and_point():
    report = compare_w_kok(make_curve(False, 1, 2))
    assert report.verdict == CURVE_ALWAYS_ISO
    assert all(r.iso for r in report.rows)
    assert report.rows[0].w == elementary_two(4)

    report = compare_w_kok(make_point())
    assert report.verdict == CURVE_ALWAYS_ISO
    assert [r.w for r in report.rows] == [Z2, elementary_two(0),
                                          elementary_two(0), elementary_two(0)]


@pytest.mark.parametrize("space", ISO_SURFACES, ids=str)
def test_surfaces_with_onto_picard_are_iso(space):
    report = compare_w_kok(space)
    assert report.verdict == SURFACE_ISO
    assert report.pic_surjective
    assert report.mismatch is None
    assert all(r.iso for r in report.rows)


def test_every_known_picard_surjective_surface_is_iso():
    # the sufficiency check in compare_w_kok refuses none of them
    names = (["p2", "blowup_p2", "enriques"]
             + ["k3?rho=%d" % r for r in range(MAX_K3_RHO + 1)]
             + ["ruled?g=%d" % g for g in range(MAX_GENUS + 1)])
    spaces = [catalog_get(name).descriptor for name in names]
    spaces += [p2_surface(), blowup_p2_surface(), enriques_surface(),
               abelian_like_surface()]
    spaces += [k3_surface(r) for r in range(MAX_K3_RHO + 1)]
    spaces += [ruled_surface(g) for g in range(MAX_GENUS + 1)]
    onto = [space for space in spaces if pic_surjective(space)]
    assert len(onto) == 24
    for space in onto:
        report = compare_w_kok(space)
        assert (report.verdict, report.mismatch) == (SURFACE_ISO, None), space
        assert all(r.iso for r in report.rows)


def test_enriques_rows():
    report = compare_w_kok(enriques_surface())
    assert [r.w for r in report.rows] == [
        elementary_two(3), elementary_two(12), Z2, elementary_two(0)]
    assert [r.kok for r in report.rows] == [r.w for r in report.rows]


@pytest.mark.parametrize("rho", [0, 1, 10, 20])
def test_k3_mismatch_rank_gap(rho):
    space = k3_surface(rho)
    report = compare_w_kok(space)
    assert report.verdict == SURFACE_MISMATCH
    assert not report.pic_surjective
    shift, w_rank, kok_rank = report.mismatch
    assert shift == 0
    assert w_rank - kok_rank == 22 - rho
    assert not report.rows[0].iso


def test_k3_rho20_frozen_rows():
    report = compare_w_kok(k3_surface(20))
    # reduced shift-0 ranks: (Z/2)^2 on the Witt side, 0 on the KO side
    assert report.mismatch == (0, 2, 0)
    # the same rank-2 defect shows at shift 1; shifts 2 and 3 agree
    assert report.rows[1].w == elementary_two(20)
    assert report.rows[1].kok == elementary_two(22)
    assert report.rows[2].iso and report.rows[3].iso


def test_mismatch_gap_consistent_both_routes():
    for space in MISMATCH_SURFACES:
        report = compare_w_kok(space)
        _, w_rank, kok_rank = report.mismatch
        b2 = betti(space)[2]
        pic_rank = f2_rank(space.pi2) - (b2 - space.rho)
        assert w_rank - kok_rank == b2 - space.rho
        assert w_rank - kok_rank == f2_rank(space.pi2) - pic_rank


def test_twist_validation_propagates():
    with pytest.raises(UnsupportedTwist):
        compare_w_kok(p2_surface(), "O(p)")
    with pytest.raises(NoSuchTwist):
        compare_w_kok(make_curve(False, 1, 1), "O(p)")
    with pytest.raises(NoSuchTwist):
        compare_w_kok(make_point(), "O(p)")


def test_s1_vs_sq2z():
    assert s1_vs_sq2z(p2_surface())
    assert s1_vs_sq2z(blowup_p2_surface())
    assert s1_vs_sq2z(enriques_surface())
    for rho in (0, 10, 20):
        assert s1_vs_sq2z(k3_surface(rho))
    assert s1_vs_sq2z(ruled_surface(2))
    assert s1_vs_sq2z(abelian_like_surface())
    with pytest.raises(InconsistentDescriptor):
        s1_vs_sq2z(make_curve(True, 1))


def test_report_json_round_trip():
    spaces = [make_curve(True, 2), k3_surface(20), enriques_surface(), make_point()]
    spaces += [catalog_get(name).descriptor for name in catalog_instances()]
    for space in spaces:
        for twist in ("trivial", "O(p)"):
            try:
                report = compare_w_kok(space, twist)
            except (NoSuchTwist, UnsupportedTwist):
                continue
            blob = report_to_json(report)
            back = report_from_json(blob)
            assert back == report
            assert repr(back) == repr(report)
            assert report_to_json(back) == blob


def test_report_from_json_rejects_bad_input():
    good = json.loads(report_to_json(compare_w_kok(k3_surface(10))))

    def edited(change):
        doc = copy.deepcopy(good)
        change(doc)
        return json.dumps(doc)

    bad = [
        "not json",
        None,
        "[]",
        edited(lambda d: d.pop("verdict")),
        edited(lambda d: d["rows"][1].pop("KOK")),
        edited(lambda d: d["mismatch"].pop("w_rank")),
        edited(lambda d: d.update(rows={"shift": 0})),
        edited(lambda d: d.update(rows=[0, 1, 2, 3])),
        edited(lambda d: d.update(mismatch=[0, 2, 0])),
        edited(lambda d: d.update(pic_surjective="no")),
        edited(lambda d: d.update(kind=2)),
        edited(lambda d: d["rows"][0].update(shift="0")),
        edited(lambda d: d["rows"][0].update(iso=0)),
        edited(lambda d: d["rows"][0].update(W=2)),
        edited(lambda d: d["rows"][0].update(W="Z/")),
        edited(lambda d: d["mismatch"].update(kok_rank=True)),
    ]
    for blob in bad:
        with pytest.raises(WittkitError) as info:
            report_from_json(blob)
        assert info.value.signal == "render-parse"


def test_report_from_json_refuses_a_non_object():
    for blob in ("[]", "5", '"rows"', "null", "[{}]"):
        with pytest.raises(WittkitError) as info:
            report_from_json(blob)
        assert info.value.signal == "render-parse"
        assert str(info.value) == "report must be a JSON object"


def test_report_from_json_refuses_a_row_that_is_not_an_object():
    good = json.loads(report_to_json(compare_w_kok(k3_surface(10))))
    for row in (5, "x", [], None):
        blob = json.dumps(dict(good, rows=[row]))
        with pytest.raises(WittkitError) as info:
            report_from_json(blob)
        assert info.value.signal == "render-parse"
        assert str(info.value) == "report: a row must be a JSON object"


def test_report_from_json_rejects_deep_nesting_and_long_numbers():
    good = json.loads(report_to_json(compare_w_kok(k3_surface(10))))
    good["rows"][0]["W"] = "Z/" + "3" * 5000
    for blob in ("[" * 100000 + "]" * 100000, json.dumps(good)):
        with pytest.raises(WittkitError) as info:
            report_from_json(blob)
        assert info.value.signal == "render-parse"


def test_report_json_twisted_round_trip():
    report = compare_w_kok(make_curve(True, 3), "O(p)")
    blob = report_to_json(report)
    assert isinstance(report_from_json(blob), ComparisonReport)
    assert report_from_json(blob) == report
    assert '"twist": "O(p)"' in blob


COLUMN_TOKENS = st.lists(st.sampled_from(["Z/2", "Z/3", "Z/4", "Z", "Z^2", "D(1)"]),
                         max_size=12)


def _with_column(text):
    """A valid report with ``text`` as both columns of shift 0."""
    doc = json.loads(report_to_json(compare_w_kok(make_curve(True, 2))))
    doc["rows"][0].update(W=text, KOK=text, iso=True)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(tokens=COLUMN_TOKENS)
def test_report_columns_are_read_as_f2_counts(tokens):
    # accepted exactly when the column is an F2-vector space, and then read
    # as the group parse_group gives
    text = " + ".join(tokens) or "0"
    want = parse_group(text)
    try:
        back = report_from_json(_with_column(text))
    except WittkitError as exc:
        assert exc.signal == "render-parse"
        assert not is_elementary_two(want)
        return
    assert is_elementary_two(want)
    assert back.rows[0].w == back.rows[0].kok == want
    assert repr(back.rows[0].w) == repr(want)


@pytest.mark.parametrize("text", ["Z", "Z/4", "Z/2 + Z/3", "D(1)", "Z^2"])
def test_report_columns_that_are_not_sums_of_z2_are_refused(text):
    for key in ("W", "KOK"):
        doc = json.loads(_with_column("Z/2"))
        doc["rows"][0][key] = text
        with pytest.raises(WittkitError) as info:
            report_from_json(json.dumps(doc))
        assert info.value.signal == "render-parse"
        assert str(info.value) == "report: %s column %r is not a sum of Z/2" % (key, text)


def test_report_from_json_runs_no_elimination(eliminations):
    read = 0
    for name in catalog_instances():
        for twist in ("trivial", "O(p)"):
            try:
                report = compare_w_kok(catalog_get(name).descriptor, twist)
            except (NoSuchTwist, UnsupportedTwist):
                continue
            blob = report_to_json(report)
            eliminations.clear()
            assert report_from_json(blob) == report
            assert eliminations == [], (name, twist)
            read += 1
    assert read > len(catalog_instances())


def test_large_genus_reports_round_trip_in_linear_time():
    # g = 1024 is MAX_CURVE_RANK / 2: W^0 carries 2,049 summands
    start = time.perf_counter()
    for g in (200, 400, MAX_CURVE_RANK // 2):
        report = compare_w_kok(make_curve(True, g))
        back = report_from_json(report_to_json(report))
        assert back == report
        assert repr(back) == repr(report)
    assert len(back.rows[0].w.torsion) == 2049
    assert time.perf_counter() - start < 0.5


def _edited_report(change):
    doc = json.loads(report_to_json(compare_w_kok(k3_surface(10))))
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("change, message", [
    (lambda d: d["rows"].pop(), "report: 3 rows, not 4"),
    (lambda d: d["rows"].append(dict(d["rows"][3], shift=4)), "report: 5 rows, not 4"),
    (lambda d: d.update(rows=[]), "report: 0 rows, not 4"),
], ids=["three", "five", "none"])
def test_report_from_json_refuses_other_than_four_rows(change, message):
    with pytest.raises(WittkitError) as info:
        report_from_json(_edited_report(change))
    assert info.value.signal == "render-parse"
    assert str(info.value) == message


@pytest.mark.parametrize("change, message", [
    (lambda d: d["rows"][2].update(shift=3), "report: row 2 has shift 3"),
    (lambda d: d["rows"].reverse(), "report: row 0 has shift 3"),
], ids=["edited", "reversed"])
def test_report_from_json_refuses_a_row_out_of_place(change, message):
    with pytest.raises(WittkitError) as info:
        report_from_json(_edited_report(change))
    assert info.value.signal == "render-parse"
    assert str(info.value) == message


@pytest.mark.parametrize("at", [0, 3])
def test_report_from_json_refuses_an_iso_that_is_not_column_equality(at):
    # row 0 of K3 rho=10 differs (iso false), row 3 agrees (iso true)
    def flip(doc):
        doc["rows"][at]["iso"] = not doc["rows"][at]["iso"]

    with pytest.raises(WittkitError) as info:
        report_from_json(_edited_report(flip))
    assert info.value.signal == "render-parse"
    assert str(info.value) == "report: row %d's iso is not W == KOK" % at


@pytest.mark.parametrize("change", [
    {"verdict": SURFACE_ISO},
    {"mismatch": None},
    {"kind": "banana", "twist": "banana", "verdict": "banana"},
    {"kind": "torus"},
    {"twist": "O(q)"},
    {"kind": "curve"},
    {"twist": "O(p)"},
    {"mismatch": {"shift": 0, "w_rank": 11, "kok_rank": 0}},
    {"pic_surjective": True},
    {"pic_surjective": True, "mismatch": None, "verdict": SURFACE_ISO},
], ids=["verdict", "mismatch", "banana", "kind", "twist", "curve-kind", "odd-twist",
        "ranks", "pic-surjective", "pic-surjective-mismatch-verdict"])
def test_report_from_json_refuses_what_its_rows_do_not_give(change):
    # K3 rho=10 has a Picard defect: its rows give surface-mismatch with
    # mismatch (0, 12, 0) and pic_surjective false, under the trivial twist
    with pytest.raises(WittkitError) as info:
        report_from_json(_edited_report(lambda doc: doc.update(change)))
    assert info.value.signal == "render-parse"


def test_report_from_json_refuses_a_shift_0_without_the_point_summand():
    # the reduced groups at a differing shift 0 drop the point's Z/2, which a
    # column 0 cannot lack under the trivial twist
    doc = json.loads(report_to_json(compare_w_kok(make_curve(True, 1))))
    doc["rows"][0].update(W="0", iso=False)
    with pytest.raises(WittkitError) as info:
        report_from_json(json.dumps(doc))
    assert info.value.signal == "render-parse"
    assert str(info.value) == "report: shift 0 lacks the point's Z/2"


def test_report_from_json_takes_what_the_rows_give():
    # a consistent edit still reads: the columns of K3 rho=10 made equal make
    # its rows give surface-iso, no mismatch and a Picard map onto
    doc = json.loads(_edited_report(lambda d: None))
    for row in doc["rows"]:
        row.update(KOK=row["W"], iso=True)
    doc.update(verdict=SURFACE_ISO, mismatch=None, pic_surjective=True)
    back = report_from_json(json.dumps(doc))
    assert (back.verdict, back.mismatch, back.pic_surjective) == (SURFACE_ISO, None, True)


def test_refusals_quote_a_bounded_prefix_of_their_input():
    long = " + ".join(["Z/2"] * 200001)
    doc = json.loads(_with_column("Z/2"))
    doc["rows"][0]["W"] = long + " + Z/3"
    for call, start in ((lambda: parse_summands(long + " + Q"), "bad group token 'Q' in 'Z/2 + "),
                        (lambda: report_from_json(json.dumps(doc)), "report: W column 'Z/2 + ")):
        with pytest.raises(WittkitError) as info:
            call()
        assert info.value.signal == "render-parse"
        assert str(info.value).startswith(start) and len(str(info.value)) < 200
    # a short input is quoted whole, as before
    with pytest.raises(WittkitError) as info:
        parse_summands("Z/2 + Q")
    assert str(info.value) == "bad group token 'Q' in 'Z/2 + Q'"


def test_cross_checks_raise_under_python_O():
    # each former bare assert, forced to fail by patching one of its inputs,
    # must still raise when -O strips assert statements. ql_hermitian_verdict
    # and compare_w_kok read the W row from w_row, and in compare_w_kok a row
    # of Z/2's reaches its sufficiency check, on a non-projective surface
    # with rho = b2 as on p2;
    # the last two cases force a negative reduced count, in compare_w_kok's
    # shift-0 mismatch ranks and in witt_table's reduced row
    child = (
        "import sys\n"
        "import wittkit.compare as C, wittkit.specseq as S, wittkit.topko as T, wittkit.witt as W\n"
        "from wittkit.catalog import catalog_get\n"
        "from wittkit.errors import InvariantViolation\n"
        "from wittkit.groups import TRIVIAL, Z, Z2\n"
        "from wittkit.spaces import make_curve, make_point, make_surface\n"
        "def forced(module, name, value, call):\n"
        "    original = getattr(module, name)\n"
        "    setattr(module, name, value)\n"
        "    try:\n"
        "        call()\n"
        "        return 'passed'\n"
        "    except InvariantViolation as exc:\n"
        "        return exc.signal\n"
        "    finally:\n"
        "        setattr(module, name, original)\n"
        "p2 = catalog_get('p2').descriptor\n"
        "open_onto = make_surface(False, (Z, TRIVIAL, Z, TRIVIAL, TRIVIAL), 0, 1, 0, (), ((1,),))\n"
        "print(sys.flags.optimize, *[\n"
        "    forced(W, 'betti', lambda s: (1, 0, 9, 0, 1), lambda: W.w_surface(p2, 0)),\n"
        "    forced(S, 'KO_POINT', (TRIVIAL,) * 8, lambda: T.eta_iso_check(make_point())),\n"
        "    forced(T, 'w_row', lambda s: (Z,) * 4, lambda: T.ql_hermitian_verdict(make_point())),\n"
        "    forced(C, 'w_row', lambda s, tw: (Z2,) * 4, lambda: C.compare_w_kok(make_curve(True, 1))),\n"
        "    forced(C, 'pic_surjective', lambda s: False, lambda: C.compare_w_kok(p2)),\n"
        "    forced(C, 'kok_row', lambda s, tw: (Z2,) * 4, lambda: C.compare_w_kok(p2)),\n"
        "    forced(C, 'kok_row', lambda s, tw: (Z2,) * 4, lambda: C.compare_w_kok(open_onto)),\n"
        "    forced(C, 'kok_row', lambda s, tw: (Z,) * 4, lambda: C.compare_w_kok(p2)),\n"
        "    forced(W, '_W_POINT', (Z,) * 4, lambda: W.witt_table(make_point())),\n"
        "])\n"
    )
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1" + " invariant-violation" * 9 + "\n"
