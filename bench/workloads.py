"""The four seeded workloads.

A workload is a list of rounds. Every round has the same composition (entry
points x size classes, fixed below); the seed picks the concrete inputs
inside each size class and the order within the round. A run measures whole
rounds, so two seeds cost the same up to the jitter inside a class, while
the inputs themselves differ. ``build`` generates and loads every input of
every round: that is the set-up that ``setup_s`` times.

Every query carries its own check, computed from ``models`` (the paper's
closed forms) and run by the caller outside the timed call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
from dataclasses import dataclass, field

import models as M

T = M.as_tuple

# expected tables are built when a check first needs them, outside set-up
_expected = functools.lru_cache(maxsize=None)(M.expected)


@dataclass
class Query:
    entry: str                 # entry point, e.g. "witt_table" or "cli compute:w"
    space: str                 # space (or input) identity, for repeat_share
    call: object               # zero-argument callable: the timed query
    check: object              # result -> None when correct, else a reason
    malformed: bool = False    # expected to be rejected with exit code 1
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    rounds: list
    tail_pct: float            # highest percentile with >= 10 samples beyond
    trace_rounds: int          # rounds measured by a traced run


def _diff(what, got, want):
    return None if got == want else "%s: got %r, want %r" % (what, got, want)


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# library checks, shared by curve_genus and surface_lattice


def check_witt_table(ex, twist, t):
    return _first(
        _diff("gw", tuple(map(T, t.gw)), ex.gw),
        _diff("w", tuple(map(T, t.w)), ex.w),
        _diff("w_reduced", tuple(map(T, t.w_reduced)), ex.w_reduced))


def check_ko_table(ex, twist, t):
    return _first(
        _diff("ko", tuple(map(T, t.ko)), ex.ko),
        _diff("ko_reduced", tuple(map(T, t.ko_reduced)), ex.ko_reduced),
        _diff("k0", tuple(map(T, t.k0_graded)), ex.k0),
        _diff("kok", tuple(map(T, t.kok)), ex.kok),
        _diff("kok_reduced", tuple(map(T, t.kok_reduced)), ex.kok_reduced))


def check_compare(ex, twist, r):
    rows = tuple((row.shift, T(row.w), T(row.kok), row.iso) for row in r.rows)
    want = tuple((i, ex.w[i], ex.kok[i], ex.w[i] == ex.kok[i]) for i in range(4))
    return _first(
        _diff("rows", rows, want), _diff("verdict", r.verdict, ex.verdict),
        _diff("mismatch", r.mismatch, ex.mismatch),
        _diff("pic_surjective", r.pic_surjective, ex.pic_surjective),
        _diff("twist", r.twist, twist))


def check_karoubi(ex, twist, r):
    return _first(
        _diff("passed", r.passed, True),
        _diff("w_reduced", tuple(T(n.w_reduced) for n in r.nodes), ex.w_reduced))


def check_pardon(ex, twist, r):
    return _diff("columns", tuple(T(r.resolved_group(i)) for i in range(4)), ex.w)


def check_ahss_k(ex, twist, r):
    return _first(*(
        _diff("K degree %d" % d, tuple(map(T, r.pieces(d))), pieces)
        for d, pieces in ex.k_pieces.items()))


def _eta_ranks(pieces_of, unknown):
    """2-torsion rank of KO^{2i-1} from the stable page, None where unknown."""
    return tuple(
        None if M.KO_ODD_READ[i] in unknown
        else sum(M.two_rank(g) for g in pieces_of(M.KO_ODD_READ[i]))
        for i in range(4))


def _eta_want(ex, unknown):
    # eta identifies KO^{2i}/K with the 2-torsion of KO^{2i-1} when K^1 has
    # no 2-torsion
    return tuple(None if M.KO_ODD_READ[i] in unknown else M.mod2_dim(ex.kok[i])
                 for i in range(4))


def check_ahss_ko(ex, twist, r):
    got = _eta_ranks(lambda d: tuple(map(T, r.pieces(d))), r.unknown_degrees)
    return _diff("eta ranks", got, _eta_want(ex, r.unknown_degrees))


LIBRARY_CHECKS = {
    "witt_table": check_witt_table,
    "ko_table": check_ko_table,
    "compare_w_kok": check_compare,
    "karoubi_check": check_karoubi,
    "pardon_stable": check_pardon,
    "ahss_ko": check_ahss_ko,
    "ahss_k": check_ahss_k,
}


def _library_query(wk, entry, model, descriptor, space_id, props):
    name, _, twist = entry.partition(":")
    twist = twist or "trivial"
    # look the function up at call time, so a traced run sees its wrapper
    if name in ("witt_table", "ko_table", "compare_w_kok", "karoubi_check"):
        call = lambda: getattr(wk, name)(descriptor, twist)
    else:
        call = lambda: getattr(wk, name)(descriptor)
    check = lambda result: LIBRARY_CHECKS[name](_expected(model, twist), twist, result)
    return Query(entry, space_id, call, check, props=props)


class _Loader:
    """Loads each distinct generated descriptor once, from its JSON text."""

    def __init__(self, wk):
        self.wk = wk
        self.cache = {}

    def __call__(self, model):
        if model not in self.cache:
            doc = json.dumps(M.descriptor_doc(model), sort_keys=True)
            self.cache[model] = doc, self.wk.descriptor_from_json(doc)
        return self.cache[model]


class _Draws:
    """Draws without replacement per slot key; a used-up slot is reshuffled."""

    def __init__(self, rng):
        self.rng = rng
        self.left = {}

    def __call__(self, key, options):
        left = self.left.get(key)
        if not left:
            left = self.left[key] = list(options)
            self.rng.shuffle(left)
        return left.pop()


# ---------------------------------------------------------------------------
# curve_genus


CURVE_GENERA = (2, 5, 8, 11, 14, 17, 20, 23)
PROJECTIVE_ENTRIES = ("witt_table", "witt_table:O(p)", "ko_table",
                      "compare_w_kok", "karoubi_check")
AFFINE_ENTRIES = ("witt_table", "ko_table", "compare_w_kok", "karoubi_check")


def _affine_options(b1s):
    return [(h, b + 1 - 2 * h) for b in b1s for h in range(b // 2 + 1)]


def build_curve_genus(wk, rng, rounds):
    load, draw = _Loader(wk), _Draws(rng)
    out = []
    for r in range(rounds):
        qs = []
        for i, g in enumerate(CURVE_GENERA):
            # one projective query per class, its entry point rotating, so a
            # projective genus recurs only every 15 rounds
            entry = PROJECTIVE_ENTRIES[(r + i) % len(PROJECTIVE_ENTRIES)]
            genus = draw(("proj", entry, g), (g - 1, g, g + 1))
            qs.append(_curve_query(wk, load, entry, M.curve(genus)))
            for entry in AFFINE_ENTRIES:
                h, n = draw(("aff", entry, g), _affine_options((2 * g - 1, 2 * g, 2 * g + 1)))
                qs.append(_curve_query(wk, load, entry, M.affine_curve(h, n)))
        rng.shuffle(qs)
        out.append(qs)
    return Workload("curve_genus", out, tail_pct=98.0, trace_rounds=6)


def _curve_query(wk, load, entry, model):
    doc, desc = load(model)
    props = {"genus": model.genus, "curve_b1": model.b1}
    return _library_query(wk, entry, model, desc, doc, props)


# ---------------------------------------------------------------------------
# surface_lattice


BLOWUP_B2 = (2, 8, 14, 20, 26, 32, 38, 44)
RULED_GENERA = (1, 4, 7, 10, 13, 16, 19)
K3_PER_ROUND = 2
SURFACE_ENTRIES = ("pardon_stable", "ahss_ko", "ahss_k", "compare_w_kok",
                   "witt_table", "ko_table")


def build_surface_lattice(wk, rng, rounds):
    load, draw = _Loader(wk), _Draws(rng)
    out = []
    for _ in range(rounds):
        qs = []
        for entry in SURFACE_ENTRIES:
            models = [M.blowup(draw(("blowup", entry, b), (b - 1, b, b + 1)) - 1)
                      for b in BLOWUP_B2]
            models += [M.ruled(draw(("ruled", entry, g), (g - 1, g, g + 1)))
                       for g in RULED_GENERA]
            models += [M.k3(draw(("k3", entry, k), range(21)))
                       for k in range(K3_PER_ROUND)]
            for model in models:
                doc, desc = load(model)
                qs.append(_library_query(wk, entry, model, desc, doc, {"b2": model.b2}))
        rng.shuffle(qs)
        out.append(qs)
    return Workload("surface_lattice", out, tail_pct=99.0, trace_rounds=4)


# ---------------------------------------------------------------------------
# json_roundtrip


GROUP_SUMMANDS = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)
# many mid-sized groups, so the median falls inside one dense class
MID_GROUPS, MID_SUMMANDS = 24, (16, 20)
CYCLIC_ORDERS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 27)
# reports of curves of these genera, the twist alternating; the top genus
# comes with both twists, so the tail falls inside that class
REPORT_GENERA = (2, 6, 10, 14, 18, 22)
TOP_REPORT_GENUS = 26
# (family, size) classes of the descriptor round trips; the size (genus,
# b2 - 1 or rho) is drawn from size - 2 .. size + 2
DESCRIPTOR_CLASSES = tuple(
    [("curve", g) for g in (5, 15, 25, 35)]
    + [("affine_curve", g) for g in (5, 15, 25, 35)]
    + [("blowup", n) for n in (9, 19, 29, 39)]
    + [("k3", 5), ("k3", 15), ("ruled", 5), ("ruled", 15)])


def _group_text(rng, n):
    """n summands in random order: cyclic ones, sometimes Z^r and D(t)."""
    tokens = ["Z/%d" % rng.choice(CYCLIC_ORDERS) for _ in range(n)]
    if rng.random() < 0.5:
        tokens[0] = rng.choice(("Z", "Z^%d" % rng.randint(2, 4)))
    if rng.random() < 0.3:
        tokens[-1] = "D(%d)" % rng.randint(1, 6)
    rng.shuffle(tokens)
    return " + ".join(tokens)


def _group_query(wk, text):
    def call():
        g = wk.parse_group(text)
        return g, wk.render(g)

    def check(result):
        g, rendered = result
        want = M.parse_rendered(text)
        return _first(_diff("group", T(g), want),
                      _diff("render", rendered, M.render(want)))

    n = text.count(" + ") + 1
    return Query("parse_group+render", text, call, check, props={"summands": n})


def _report(wk, model, twist="trivial"):
    ex = _expected(model, twist)
    sym = lambda g: wk.SymGroup(*g)
    rows = tuple(wk.ShiftRow(i, sym(ex.w[i]), sym(ex.kok[i]), ex.w[i] == ex.kok[i])
                 for i in range(4))
    return wk.ComparisonReport(model.kind, twist, ex.pic_surjective, rows,
                               ex.verdict, ex.mismatch)


def _report_query(wk, report, space_id):
    def call():
        return wk.report_from_json(wk.report_to_json(report))

    n = sum(len(row.w.torsion) + len(row.kok.torsion) for row in report.rows)
    return Query("report_to_json+report_from_json", space_id, call,
                 lambda back: _diff("report", back, report), props={"summands": n})


def _descriptor_query(wk, doc, descriptor, model):
    def call():
        text = wk.descriptor_to_json(descriptor)
        return text, wk.descriptor_from_json(text)

    def check(result):
        text, back = result
        want = json.loads(doc)
        if "sq2" in want:
            # an omitted s1 defaults to sq2 . pi2, and pi2 is the identity here
            want.setdefault("s1", want["sq2"])
        return _first(_diff("json", json.loads(text), want),
                      _diff("descriptor", back, descriptor))

    return Query("descriptor_to_json+descriptor_from_json", doc, call, check,
                 props=_props(model))


def _descriptor_model(rng, draw, family, size):
    x = draw((family, size), range(size - 2, size + 3))
    if family == "curve":
        return M.curve(x)
    if family == "affine_curve":
        return M.affine_curve(x, rng.randint(1, 4))
    return {"blowup": M.blowup, "k3": M.k3, "ruled": M.ruled}[family](x)


def build_json_roundtrip(wk, rng, rounds):
    load, draw = _Loader(wk), _Draws(rng)
    out = []
    for r in range(rounds):
        sizes = GROUP_SUMMANDS + tuple(rng.randint(*MID_SUMMANDS) for _ in range(MID_GROUPS))
        qs = [_group_query(wk, _group_text(rng, n)) for n in sizes]
        reports = [(g, ("trivial", "O(p)")[(r + i) % 2]) for i, g in enumerate(REPORT_GENERA)]
        reports += [(TOP_REPORT_GENUS, "trivial"), (TOP_REPORT_GENUS, "O(p)")]
        for g, twist in reports:
            qs.append(_report_query(wk, _report(wk, M.curve(g), twist),
                                    "curve(g=%d),%s" % (g, twist)))
        rho = draw("k3 report", range(8, 13))
        qs.append(_report_query(wk, _report(wk, M.k3(rho)), "k3(rho=%d)" % rho))
        b = draw("blowup report", range(18, 23))
        qs.append(_report_query(wk, _report(wk, M.blowup(b)), "blowup(%d)" % b))
        for family, size in DESCRIPTOR_CLASSES:
            model = _descriptor_model(rng, draw, family, size)
            doc, desc = load(model)
            qs.append(_descriptor_query(wk, doc, desc, model))
        rng.shuffle(qs)
        out.append(qs)
    return Workload("json_roundtrip", out, tail_pct=97.5, trace_rounds=5)


# ---------------------------------------------------------------------------
# catalog_cli


CATALOG_INSTANCES = (
    "point", "p1", "curve?g=1", "curve?g=2", "curve?g=3", "affine_curve?g=0&n=2",
    "affine_curve?g=1&n=1", "affine_curve?g=2&n=3", "p2", "blowup_p2",
    "enriques", "k3?rho=0", "k3?rho=10", "k3?rho=20", "ruled?g=1", "ruled?g=2",
)
CLI_POOL = tuple(dict.fromkeys(
    CATALOG_INSTANCES
    + tuple("k3?rho=%d" % r for r in range(21))
    + tuple("curve?g=%d" % g for g in range(9))
    + tuple("ruled?g=%d" % g for g in range(9))))

# one round: 20 compute, 12 compare, 9 specseq, 4 sw, 3 catalog, 1 batch
# (--all) and 1 malformed descriptor file: 50 queries, 2% malformed
COMPUTE_THEORIES = ("witt",) * 4 + ("gw",) * 3 + ("w",) * 4 + ("ko",) * 3 \
    + ("kok",) * 3 + ("k",) * 3
SPECSEQ_ENGINES = ("pardon", "ko", "k") * 3
N_COMPARE, N_SW, N_CATALOG = 12, 4, 3


def run_cli(wk_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wk_cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _lines(text):
    return text.splitlines()


def _table_values(text):
    # rows are "%-8s%s": an eight-column label, then the value
    return [line[8:] for line in _lines(text)]


def _show(g):
    return None if g is None else M.render(g)


def _shown(groups, table=False):
    shown = [_show(g) for g in groups]
    return ["-" if s is None else s for s in shown] if table else shown


def _compute_payload(ex, theory, twist):
    if theory in ("witt", "gw", "w"):
        payload = {"GW": _shown(ex.gw), "W": _shown(ex.w), "twist": twist}
        if theory == "witt":
            return payload
        return payload["GW" if theory == "gw" else "W"]
    payload = {"KO": _shown(ex.ko), "K0_gr": _shown(ex.k0), "KOK": _shown(ex.kok)}
    return {"ko": payload, "kok": payload["KOK"], "k": payload["K0_gr"]}[theory]


def _check_compute_json(model, theory, twist, pick):
    def check(stdout):
        want = _compute_payload(_expected(model, twist), theory, twist)
        got = json.loads(stdout)
        if theory == "witt":
            got = {k: got[k] for k in ("GW", "W", "twist")}
        if pick is not None:
            return _diff("%s[%d]" % (theory, pick), got,
                         (want["KO"] if theory == "ko" else want)[pick])
        return _diff(theory, got, want)
    return check


def _cli_compute(rng, name, model, theory):
    twist = "trivial"
    argv = ["compute", "--space", "catalog:" + name, "--theory", theory]
    if model.kind == "curve" and model.projective and rng.random() < 0.3:
        twist = "O(p)"
        argv += ["--twist", twist]
    pick = None
    if theory in ("gw", "w", "kok") and rng.random() < 0.25:
        pick = rng.randrange(4)
        argv += ["--shift", str(pick)]
    elif theory == "ko" and rng.random() < 0.25:
        pick = rng.randrange(8)
        argv += ["--degree", str(pick)]
    table = theory in ("gw", "w", "kok", "k") and pick is None and rng.random() < 0.4
    if table:
        argv += ["--format", "table"]
        field = {"gw": "gw", "w": "w", "kok": "kok", "k": "k0"}[theory]
        check = lambda out: _diff("table", _table_values(out), _shown(
            getattr(_expected(model, twist), field), table=True))
    else:
        json_check = _check_compute_json(model, theory, twist, pick)
        check = lambda out: json_check(out.strip())
    return argv, 0, check, "cli compute:" + theory, name


def _compare_rows_table(text):
    rows, verdict, mismatch = [], None, None
    for line in _lines(text):
        if line.startswith("shift "):
            head, _, rest = line.partition("  W=")
            w, _, rest = rest.partition(" KOK=")
            kok, _, iso = rest.rpartition(" ")
            rows.append((int(head[6:]), w.strip(), kok.strip(), iso == "iso"))
        elif line.startswith("verdict: "):
            verdict = line[len("verdict: "):]
        elif line.startswith("mismatch: "):
            mismatch = line
    return rows, verdict, mismatch


def _compare_want(ex):
    return [(i, M.render(ex.w[i]), M.render(ex.kok[i]), ex.w[i] == ex.kok[i])
            for i in range(4)]


def _check_compare_doc(ex, doc):
    rows = [(r["shift"], r["W"], r["KOK"], r["iso"]) for r in doc["rows"]]
    m = doc["mismatch"]
    mismatch = None if m is None else (m["shift"], m["w_rank"], m["kok_rank"])
    return _first(_diff("rows", rows, _compare_want(ex)),
                  _diff("verdict", doc["verdict"], ex.verdict),
                  _diff("mismatch", mismatch, ex.mismatch))


def _cli_compare(rng, name, model):
    argv = ["compare", "--space", "catalog:" + name]
    strict = rng.random() < 0.5
    if strict:
        argv.append("--assert")
    # --assert fails exactly when Pic(X) misses part of H^2(X; Z)
    code = 2 if strict and model.kind == "surface" and model.rho < model.b2 else 0
    if rng.random() < 0.4:
        argv += ["--format", "table"]

        def check(out):
            ex = _expected(model)
            rows, verdict, mismatch = _compare_rows_table(out)
            want_m = None if ex.mismatch is None else \
                "mismatch: shift %d, ranks %d vs %d" % ex.mismatch
            return _first(_diff("rows", rows, _compare_want(ex)),
                          _diff("verdict", verdict, ex.verdict),
                          _diff("mismatch", mismatch, want_m))
    else:
        check = lambda out: _check_compare_doc(_expected(model), json.loads(out))
    return argv, code, check, "cli compare", name


def _cli_specseq(rng, name, model, engine):
    argv = ["specseq", "--space", "catalog:" + name, "--engine", engine]
    if engine == "pardon":
        if rng.random() < 0.4:
            argv += ["--format", "table"]
            check = lambda out: _diff("columns", _table_values(out),
                                      _shown(_expected(model).w, True))
        else:
            check = lambda out: _diff("columns", json.loads(out)["columns"],
                                      _shown(_expected(model).w))
    elif engine == "k":
        def check(out):
            degrees = json.loads(out)["degrees"]
            return _first(*(
                _diff("K degree %d" % d, degrees.get(str(d), []), _shown(pieces))
                for d, pieces in _expected(model).k_pieces.items()))
    else:
        def check(out):
            ex = _expected(model)
            doc = json.loads(out)
            if not ex.k1_two_torsion_free:
                return _diff("engine", doc["engine"], "ahss-ko")
            unknown = frozenset(doc["unknown"])
            pieces = lambda d: [M.parse_rendered(s) for s in doc["degrees"].get(str(d), [])]
            return _diff("eta ranks", _eta_ranks(pieces, unknown), _eta_want(ex, unknown))
    return argv, 0, check, "cli specseq:" + engine, name


def _cli_sw(rng):
    rank = rng.randint(1, 3)
    if rng.random() < 0.7:
        d = rng.randint(1, 4)
        ring, size, label = "projective?d=%d" % d, 2 * d + 1, "P%d" % d
        top = min(rank, d)
        power = lambda j: "h" if j == 1 else "h^%d" % j
    else:
        g = rng.randint(1, 4)
        ring, size, label = "curve?g=%d" % g, 3, "C_g%d" % g
        top = 1
        power = lambda j: "pt"
    chern = [rng.choice((power(j), "0")) for j in range(1, rng.randint(0, top) + 1)]
    argv = ["sw", "--ring", ring, "--rank", str(rank), "--complex"]
    if chern:
        argv += ["--chern", ";".join(chern)]
    # over the complex numbers (-1) = 0, so the total class of a metabolic
    # bundle is sum_j c_j t^{2j} of its Lagrangian
    total = ["0"] * size
    total[0] = "1"
    for j, c in enumerate(chern, start=1):
        total[2 * j] = c
    if rng.random() < 0.4:
        argv += ["--format", "table"]
        check = lambda out: _diff("total", _table_values(out), total)
    else:
        check = lambda out: _diff("sw", json.loads(out), {"ring": label, "total": total})
    return argv, 0, check, "cli sw", ring


def _descriptor_fields(model):
    if model.kind != "surface":
        return M.descriptor_doc(model)
    return {"kind": "surface", "projective": True, "rho": model.rho,
            "nu": M.two_rank(model.h[2]), "h_int": [M.render(g) for g in model.h]}


def _cli_catalog(rng, name, model):
    if rng.random() < 0.3:
        names = list(M.CATALOG_NAMES)
        if rng.random() < 0.5:
            argv = ["catalog", "--format", "table"]
            check = lambda out: _diff("names", _lines(out), names)
        else:
            argv = ["catalog"]
            check = lambda out: _diff("names", json.loads(out), names)
        return argv, 0, check, "cli catalog", "list"
    want = _descriptor_fields(model)
    pick = lambda doc: {k: doc[k] for k in want}
    argv = ["catalog", "--name", name]
    if rng.random() < 0.4:
        argv += ["--format", "table"]

        def check(out):
            lines = _lines(out)
            return _first(_diff("name", lines[0], name),
                          _diff("descriptor", pick(json.loads(lines[1])), want))
    else:
        def check(out):
            doc = json.loads(out)
            return _first(_diff("name", doc["name"], name),
                          _diff("descriptor", pick(doc["descriptor"]), want))
    return argv, 0, check, "cli catalog", name


# the --all slot cycles through these, so every run holds the same mix; each
# costs a little less than specseq --engine ko on a K3, which is meant to set
# the tail
BATCH = ("compare", "compute witt", "compute k", "compute ko")


def _cli_batch(rng, r):
    command, _, theory = BATCH[r % len(BATCH)].partition(" ")
    if command == "compute":
        argv = ["compute", "--all", "--theory", theory]

        def check(out):
            docs = [json.loads(line) for line in _lines(out)]
            return _first(
                _diff("spaces", [d["space"] for d in docs], list(CATALOG_INSTANCES)),
                *(_check_compute_json(M.catalog_model(d["space"]), theory, "trivial",
                                      None)(json.dumps(d["result"])) for d in docs))
        return argv, 0, check, "cli compute --all:" + theory, "all"
    strict = rng.random() < 0.5
    argv = ["compare", "--all"] + (["--assert"] if strict else [])

    def check(out):
        docs = [json.loads(line) for line in _lines(out)]
        return _first(_diff("spaces", [d["space"] for d in docs], list(CATALOG_INSTANCES)),
                      *(_check_compare_doc(_expected(M.catalog_model(d["space"])), d["report"])
                        for d in docs))
    # the sweep holds K3 surfaces with rho < 22, so --assert fails
    return argv, 2 if strict else 0, check, "cli compare --all", "all"


# Malformed descriptors from the loader holes: an integer h_int list, a null
# sq2 entry, and a projective surface whose H^2 has odd torsion without the
# dual torsion in H^3 (duality is checked on 2-torsion only). The contract
# for each is exit code 1 with an "error [signal]" line.
MALFORMED_KINDS = ("h_int-integers", "sq2-null", "odd-torsion-duality")


def _malformed_doc(rng, kind):
    b2 = rng.randint(1, 4)
    doc = M.descriptor_doc(M.blowup(b2 - 1))
    if kind == "h_int-integers":
        doc["h_int"] = [rng.randint(0, 9) for _ in range(5)]
    elif kind == "sq2-null":
        doc["sq2"] = [[None]]
    else:
        b2 -= 1
        torsion = "Z/%d" % rng.choice((3, 5, 7, 9, 15))
        free = M.render(M.free(b2))
        doc.update(rho=b2, sq2=[[1] * b2], pi2=M.identity(b2))
        doc["h_int"][2] = torsion if b2 == 0 else free + " + " + torsion
    return doc


def _cli_malformed(rng, workdir, serial):
    kind = rng.choice(MALFORMED_KINDS)
    path = os.path.join(workdir, "malformed_%d.json" % serial)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_malformed_doc(rng, kind), fh)
    argv = rng.choice((["compute", "--space", path, "--theory", "w"],
                       ["compare", "--space", path],
                       ["specseq", "--space", path, "--engine", "pardon"]))

    def check(stderr):
        return None if "error [" in stderr else "stderr has no 'error [signal]' line"
    return argv, check, "cli %s:malformed-%s" % (argv[0], kind)


def build_catalog_cli(wk, rng, rounds, workdir):
    import wittkit.cli as wk_cli

    for name in CLI_POOL:
        wk.catalog_get(name)
    models = {name: M.catalog_model(name) for name in CLI_POOL}
    draw = _Draws(rng)
    os.makedirs(workdir, exist_ok=True)
    out = []
    for r in range(rounds):
        specs = []
        for theory in COMPUTE_THEORIES:
            name = draw("compute", CLI_POOL)
            specs.append(_cli_compute(rng, name, models[name], theory))
        for _ in range(N_COMPARE):
            name = draw("compare", CLI_POOL)
            specs.append(_cli_compare(rng, name, models[name]))
        for engine in SPECSEQ_ENGINES:
            name = draw(("specseq", engine), CLI_POOL)
            specs.append(_cli_specseq(rng, name, models[name], engine))
        specs += [_cli_sw(rng) for _ in range(N_SW)]
        for _ in range(N_CATALOG):
            name = draw("catalog", CLI_POOL)
            specs.append(_cli_catalog(rng, name, models[name]))
        specs.append(_cli_batch(rng, r))
        qs = [_cli_query(wk_cli, *spec, props=_props(models.get(spec[4])))
              for spec in specs]
        argv, check, entry = _cli_malformed(rng, workdir, r)
        qs.append(_cli_query(wk_cli, argv, 1, check, entry, argv[2], malformed=True))
        rng.shuffle(qs)
        out.append(qs)
    return Workload("catalog_cli", out, tail_pct=99.5, trace_rounds=24)


def _props(model):
    if model is None or model.kind == "point":
        return {}
    if model.kind == "curve":
        return {"genus": model.genus}
    return {"b2": model.b2}


def _cli_query(wk_cli, argv, code, check, entry, space, props=None, malformed=False):
    def full_check(result):
        got_code, stdout, stderr = result
        if got_code != code:
            return "exit code %r, want %d" % (got_code, code)
        if malformed:
            return check(stderr)
        if stderr:
            return "unexpected stderr %r" % stderr[:200]
        return check(stdout)

    return Query(entry, space, lambda: run_cli(wk_cli, argv), full_check,
                 malformed=malformed, props=props or {})


# ---------------------------------------------------------------------------


WORKLOADS = ("catalog_cli", "curve_genus", "surface_lattice", "json_roundtrip")

# rounds generated per run; a run that outlasts them starts over at round 0
ROUNDS = {"catalog_cli": 160, "curve_genus": 48, "surface_lattice": 32,
          "json_roundtrip": 40}


def build(name, seed, wk, workdir):
    """Generate and load every input of a workload."""
    rng = random.Random("%s/%d" % (name, seed))
    rounds = ROUNDS[name]
    if name == "catalog_cli":
        return build_catalog_cli(wk, rng, rounds, workdir)
    builders = {"curve_genus": build_curve_genus,
                "surface_lattice": build_surface_lattice,
                "json_roundtrip": build_json_roundtrip}
    return builders[name](wk, rng, rounds)
