"""End-to-end checks of the command-line interface.

Everything runs in-process through ``run`` so exit codes and output are
captured exactly. Two subprocess tests run the ``[project.scripts]`` entry
point of ``pyproject.toml`` in a fresh interpreter, through the same small
wrapper that pip installs as the ``wittkit`` script, and check that it
gives the same exit code and stdout bytes as ``run``; four more do the same
for ``python -m wittkit.cli`` against ``main``, two of them on ``--help``.
Two more run every command on genus-1000 curve files, and two commands on a
surface file with long group strings, in a fresh interpreter under a
timeout.
"""

import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import wittkit
from wittkit import cli
from wittkit.catalog import catalog_get, catalog_instances
from wittkit.cli import main, run
from wittkit.compare import compare_w_kok, report_to_json
from wittkit.errors import InconsistentDescriptor, WittkitError
from wittkit.groups import Z2, cyclic, direct_sum, elementary_two, parse_group, render
from wittkit.spaces import (
    MAX_CURVE_RANK,
    MAX_GROUP_SUMMANDS,
    descriptor_from_json,
    descriptor_to_json,
    make_curve,
)
from wittkit.topko import ko_table
from wittkit.witt import w_surface, witt_table


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# compute


def test_point_gw_golden():
    code, out, err = go("compute", "--space", "catalog:point", "--theory", "gw")
    assert code == 0 and err == ""
    assert json.loads(out) == ["Z", "0", "Z", "Z/2"]


def test_p1_witt_golden():
    code, out, _ = go("compute", "--space", "catalog:p1", "--theory", "witt",
                      "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["W"] == ["Z/2", "Z/2", "0", "0"]
    assert payload["GW"] == ["Z + Z/2", "Z", "Z", "Z + Z/2"]
    assert payload["twist"] == "trivial"


def test_json_is_default_format():
    assert go("compute", "--space", "catalog:p1", "--theory", "witt") \
        == go("compute", "--space", "catalog:p1", "--theory", "witt",
              "--format", "json")


def test_w_theory_surface():
    code, out, _ = go("compute", "--space", "catalog:p2", "--theory", "w")
    assert code == 0
    assert json.loads(out) == ["Z/2", "0", "0", "0"]


def test_shift_and_degree_filters():
    code, out, _ = go("compute", "--space", "catalog:point", "--theory", "gw",
                      "--shift", "3")
    assert code == 0 and json.loads(out) == "Z/2"
    code, out, _ = go("compute", "--space", "catalog:curve?g=1",
                      "--theory", "ko", "--degree", "1")
    assert code == 0 and json.loads(out) == "Z^2 + Z/2"
    code, out, _ = go("compute", "--space", "catalog:k3?rho=20",
                      "--theory", "kok", "--shift", "1")
    assert code == 0 and json.loads(out) == render(elementary_two(22))


def test_k_theory_list():
    code, out, _ = go("compute", "--space", "catalog:enriques", "--theory", "k")
    assert code == 0
    assert json.loads(out) == ["Z", "Z^10 + Z/2", "Z"]


def test_table_format_w():
    code, out, _ = go("compute", "--space", "catalog:p1", "--theory", "w",
                      "--format", "table")
    assert code == 0
    assert out.splitlines() == ["W^0     Z/2", "W^1     Z/2", "W^2     0", "W^3     0"]


def test_table_even_labels_for_kok():
    _, out, _ = go("compute", "--space", "catalog:enriques", "--theory", "kok",
                   "--format", "table")
    labels = [line.split()[0] for line in out.splitlines()]
    assert labels == ["KOK^0", "KOK^2", "KOK^4", "KOK^6"]


def test_batch_compute_matches_single_runs():
    code, out, _ = go("compute", "--all", "--theory", "w")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(catalog_instances())
    for name, line in zip(catalog_instances(), lines):
        row = json.loads(line)
        assert row["space"] == name
        single = json.loads(go("compute", "--space", "catalog:" + name,
                               "--theory", "w")[1])
        assert row["result"] == single


def test_batch_table_has_name_headers():
    _, out, _ = go("compute", "--all", "--theory", "w", "--format", "table")
    assert out.splitlines()[0] == "[point]"
    assert "[k3?rho=20]" in out.splitlines()


@pytest.mark.parametrize("argv, out", [
    # compute prints a space's header before its table is computed
    (("compute", "--all", "--theory", "w", "--twist", "O(p)"), "[point]\n"),
    (("compute", "--all", "--theory", "kok", "--twist", "bad"), "[point]\n"),
    # compare prints it after the comparison, which the point refuses
    (("compare", "--all", "--twist", "O(p)"), ""),
    (("compare", "--all", "--twist", "bad"), ""),
])
def test_a_batch_table_failing_on_its_first_space_prints_what_it_did(argv, out):
    code, got, err = go(*argv, "--format", "table")
    assert (code, got) == (1, out)
    assert err.startswith("error [no-such-twist]"), err

def test_compare_single_json_matches_library_route():
    code, out, _ = go("compare", "--space", "catalog:enriques")
    assert code == 0
    space = catalog_get("enriques").descriptor
    assert out == report_to_json(compare_w_kok(space, None)) + "\n"


def test_compare_assert_flags_k3_mismatch():
    code, out, _ = go("compare", "--space", "catalog:k3?rho=20", "--assert")
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "surface-mismatch"
    assert report["mismatch"] == {"shift": 0, "w_rank": 2, "kok_rank": 0}


def test_compare_assert_passes_on_iso_spaces():
    assert go("compare", "--space", "catalog:curve?g=1", "--assert")[0] == 0
    assert go("compare", "--space", "catalog:curve?g=1", "--twist", "O(p)",
              "--assert")[0] == 0
    assert go("compare", "--space", "catalog:p2", "--assert")[0] == 0
    # without --assert the mismatch is reported but the run still succeeds
    assert go("compare", "--space", "catalog:k3?rho=0")[0] == 0


def test_compare_all_assert_hits_the_k3_entries():
    code, out, _ = go("compare", "--all", "--assert")
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(catalog_instances())
    verdicts = {row["space"]: row["report"]["verdict"] for row in lines}
    assert verdicts["k3?rho=20"] == "surface-mismatch"
    assert verdicts["p2"] == "surface-iso"
    assert verdicts["point"] == "curve-always-iso"


def test_compare_table_output():
    code, out, _ = go("compare", "--space", "catalog:k3?rho=20",
                      "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("shift 0")
    assert "MISMATCH" in lines[0]
    assert "verdict: surface-mismatch" in lines
    assert lines[-1] == "mismatch: shift 0, ranks 2 vs 0"


# ---------------------------------------------------------------------------
# specseq


def test_specseq_pardon_columns_match_w_surface():
    for name in ("p2", "enriques", "k3?rho=10"):
        space = catalog_get(name).descriptor
        code, out, _ = go("specseq", "--space", "catalog:" + name,
                          "--engine", "pardon")
        assert code == 0
        payload = json.loads(out)
        assert payload["engine"] == "pardon"
        assert payload["columns"] \
            == [render(w_surface(space, i)) for i in range(4)]


def test_specseq_ko_curve_resolves_fully():
    code, out, _ = go("specseq", "--space", "catalog:p1", "--engine", "ko")
    assert code == 0
    payload = json.loads(out)
    assert payload["unknown"] == []
    assert payload["degrees"]["0"] == ["Z", "Z/2"]
    assert payload["degrees"]["-8"] == ["Z", "Z/2"]
    assert payload["degrees"]["-1"] == ["Z/2"]


def test_specseq_ko_catalog_surfaces_resolve():
    # every registered surface kills the page-3 differential target
    for name in ("p2", "enriques", "ruled?g=2", "k3?rho=0"):
        _, out, _ = go("specseq", "--space", "catalog:" + name, "--engine", "ko")
        assert json.loads(out)["unknown"] == []


def test_specseq_ko_reports_tainted_degrees(tmp_path):
    from sample_spaces import abelian_like_surface

    path = tmp_path / "abelian.json"
    path.write_text(descriptor_to_json(abelian_like_surface()))
    _, out, _ = go("specseq", "--space", str(path), "--engine", "ko")
    assert json.loads(out)["unknown"] == [-7, -6, 1, 2]


def test_specseq_k_never_has_unknowns():
    for name in ("p1", "curve?g=2", "enriques", "k3?rho=0"):
        _, out, _ = go("specseq", "--space", "catalog:" + name, "--engine", "k")
        assert json.loads(out)["unknown"] == []


def test_surface_and_batch_commands_run_no_elimination(eliminations):
    # every surface group and every engine column is a count, and so is every
    # row the batch commands print; eliminations are counted at groups._smith
    surfaces = [name for name in catalog_instances()
                if catalog_get(name).descriptor.kind == "surface"]
    argvs = [("specseq", "--space", "catalog:" + name, "--engine", engine)
             for name in surfaces for engine in ("pardon", "ko", "k")]
    argvs += [("compute", "--all", "--theory", theory) for theory in ("witt", "w", "kok")]
    argvs += [("compare", "--all")]
    for argv in argvs:
        code, _, _ = go(*argv)
        assert (code, len(eliminations)) == (0, 0), argv
    # the counter sees an elimination where one runs
    direct_sum(Z2, cyclic(4))
    assert len(eliminations) == 1


# ---------------------------------------------------------------------------
# sw


def test_sw_projective_line_bundle():
    code, out, _ = go("sw", "--ring", "projective?d=2", "--rank", "1",
                      "--chern", "h", "--complex")
    assert code == 0
    assert json.loads(out) == {"ring": "P2", "total": ["1", "0", "h", "0", "0"]}


def test_sw_generic_rank_two():
    code, out, _ = go("sw", "--ring", "generic?rank=2", "--rank", "2",
                      "--chern", "c1")
    assert code == 0
    assert json.loads(out)["total"] == ["1", "0", "c1 + e^2", "e*c1", "0"]


def test_sw_table_format():
    _, out, _ = go("sw", "--ring", "projective?d=2", "--rank", "1",
                   "--chern", "h", "--complex", "--format", "table")
    assert out.splitlines()[0] == "t^0     1"
    assert out.splitlines()[2] == "t^2     h"


def test_sw_truncation_overflow_is_a_validation_error():
    code, out, err = go("sw", "--ring", "generic?rank=1", "--rank", "3",
                        "--chern", "c1")
    assert code == 1 and out == ""
    assert "truncation" in err


def test_sw_ring_grammar_errors():
    for text in ("projective?g=2", "foo?x=1", "generic", "generic?rank=two",
                 "projective?d=2&x=1", "curve?g=1_0", "projective?d=+2",
                 "projective?d=02", "curve?g=\u0661", "generic?rank= 2",
                 "curve?g=None",
                 # the catalog's malformed spellings, on a ring
                 "projective?d=2&d=2", "projective?d=-0", "projective?d=+1",
                 "projective?d=01", "projective?d=\u0661", "projective?d=",
                 "projective?d=None", "projective?x=1"):
        code, _, err = go("sw", "--ring", text, "--rank", "1")
        assert code == 1 and err.startswith("error: "), (text, err)
        assert "Traceback" not in err, text
    # parameters outside the admitted range are refused by name and range
    for text, bound in (("projective?d=-1", "d must lie in 0..512"),
                        ("projective?d=513", "d must lie in 0..512"),
                        ("curve?g=-1", "g must lie in 0..1024"),
                        ("curve?g=1025", "g must lie in 0..1024"),
                        ("generic?rank=0", "rank must lie in 1..10"),
                        ("generic?rank=-1", "rank must lie in 1..10"),
                        ("generic?rank=11", "rank must lie in 1..10")):
        code, out, err = go("sw", "--ring", text, "--rank", "1")
        assert (code, out) == (1, ""), text
        assert err.startswith("error") and bound in err, (text, err)
        assert "Traceback" not in err, text
    # a negative bundle rank is refused by its own range, on every ring
    for text, rank in (("projective?d=2", "-1"), ("generic?rank=3", "-1"),
                       ("curve?g=1", "-3")):
        code, out, err = go("sw", "--ring", text, "--rank", rank)
        assert (code, out, err) == (1, "", "error: --rank must be at least 0\n"), text
    code, out, _ = go("sw", "--ring", "projective?d=2", "--rank", "0")
    assert (code, json.loads(out)["total"]) == (0, ["1", "0", "0", "0", "0"]), out


def test_sw_largest_rings_are_fast():
    # the largest admitted ring of each kind; P^512 has 66,049 product entries
    for text in ("projective?d=512", "curve?g=1024", "generic?rank=10"):
        best = min(timed(go, "sw", "--ring", text, "--rank", "1") for _ in range(2))
        assert best < 2.0, (text, best)
        assert go("sw", "--ring", text, "--rank", "1")[0] == 0, text


def test_sw_rank_at_a_power_of_two_ends():
    # every binomial below the last is even at a power of two, so a walk over
    # all m up to the rank never stopped early; past the ring's top degree a
    # term vanishes or overflows, and the walk stops there
    done = run_child("-m", "wittkit.cli", "sw", "--ring", "projective?d=2",
                     "--rank", "65536", timeout=5)
    assert (done.returncode, done.stdout) == (
        0, '{"ring": "P2", "total": ["1", "0", "0", "0", "0"]}\n'), done.stderr
    done = run_child("-m", "wittkit.cli", "sw", "--ring", "generic?rank=2",
                     "--rank", "65536", timeout=5)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error [truncation]"), done.stderr


def test_sw_rejects_nonhomogeneous_chern():
    code, _, err = go("sw", "--ring", "curve?g=1", "--rank", "2",
                      "--chern", "a1 + b1")
    assert code == 1 and "degree 2" in err


# ---------------------------------------------------------------------------
# catalog


def test_catalog_listing():
    code, out, _ = go("catalog")
    assert code == 0
    names = json.loads(out)
    assert "p2" in names and "k3" in names and "curve" in names


def test_catalog_named_entry():
    code, out, _ = go("catalog", "--name", "k3?rho=20")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "k3?rho=20"
    entry = catalog_get("k3?rho=20")
    assert payload["descriptor"] == json.loads(descriptor_to_json(entry.descriptor))
    assert payload["notes"] == entry.notes


# ---------------------------------------------------------------------------
# sources, errors, determinism


def test_descriptor_file_source(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(descriptor_to_json(catalog_get("p2").descriptor))
    assert go("compute", "--space", str(path), "--theory", "w") \
        == go("compute", "--space", "catalog:p2", "--theory", "w")


def test_bad_space_sources_exit_one(tmp_path):
    assert go("compute", "--space", "catalog:godeaux", "--theory", "w")[0] == 1
    assert go("compute", "--space", str(tmp_path / "nope.json"),
              "--theory", "w")[0] == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert go("compute", "--space", str(broken), "--theory", "w")[0] == 1
    # the last of two values for one key no longer wins, and a value that
    # int() refuses is refused by name, not by a traceback
    for space in ("catalog:k3?rho=5&rho=20", "catalog:curve?g=None"):
        code, out, err = go("compute", "--space", space, "--theory", "w")
        assert (code, out) == (1, "") and err.startswith("error [unknown-name]")


def test_usage_errors_exit_one():
    bad = [
        ("nonsense",),
        ("compute", "--space", "catalog:p1"),
        ("compute", "--space", "catalog:p1", "--theory", "bogus"),
        ("compute", "--space", "catalog:p1", "--theory", "witt", "--shift", "0"),
        ("compute", "--space", "catalog:p1", "--theory", "w", "--degree", "0"),
        ("compute", "--space", "catalog:p1", "--theory", "w", "--shift", "4"),
        ("compute", "--space", "catalog:p1", "--theory", "ko", "--degree", "8"),
        ("compute", "--theory", "w"),
        ("compute", "--space", "catalog:p1", "--all", "--theory", "w"),
        ("specseq", "--space", "catalog:p1", "--engine", "bogus"),
    ]
    # an integer flag takes the canonical decimal spelling only
    for value in ("0_1", "+1", "01", "\u0661", " 3", "-0", "abc"):
        bad.append(("compute", "--space", "catalog:p1", "--theory", "w",
                    "--shift", value))
        bad.append(("compute", "--space", "catalog:p1", "--theory", "ko",
                    "--degree", value))
        bad.append(("sw", "--ring", "projective?d=2", "--rank", value))
    for argv in bad:
        code, _, err = go(*argv)
        assert code == 1, argv
        assert err.startswith("error"), argv
    # the refusal reads as argparse's own for a value it never took
    assert go("sw", "--ring", "projective?d=2", "--rank", "0_2")[2] \
        == "error: argument --rank: invalid int value: '0_2'\n"


def test_twist_errors_exit_one():
    code, _, err = go("compute", "--space", "catalog:p2", "--theory", "w",
                      "--twist", "O(p)")
    assert code == 1 and "unsupported-twist" in err
    code, _, err = go("compute", "--space", "catalog:p1", "--theory", "w",
                      "--twist", "weird")
    assert code == 1 and "no-such-twist" in err


def test_refusals_quote_a_bounded_prefix_of_their_input():
    many_keys = dict.fromkeys(("k%d" % i for i in range(100000)), 0)
    tall_sq2 = dict(json.loads(descriptor_to_json(catalog_get("p2").descriptor)),
                    sq2=[[1]] * 100000)
    for call, signal in (
            (lambda: descriptor_from_json(json.dumps({"kind": "x" * 10**6})),
             "inconsistent-descriptor"),
            (lambda: descriptor_from_json(json.dumps(dict(many_keys, kind="point"))),
             "inconsistent-descriptor"),
            (lambda: descriptor_from_json(json.dumps(tall_sq2)), "inconsistent-descriptor"),
            (lambda: catalog_get("y" * 10**6), "unknown-name"),
            (lambda: parse_group("Z/" + "0" * 4000), "render-parse")):
        with pytest.raises(WittkitError) as info:
            call()
        assert info.value.signal == signal and len(str(info.value)) < 200
    for argv, start in ((("sw", "--ring", "q" * 10**6 + "?d=1", "--rank", "1"), "error: "),
                        (("sw", "--ring", "projective?d=2", "--rank", "1", "--chern",
                          "c" * 10**6), "error [render-parse]: "),
                        (("compute", "--space", "catalog:p1", "--theory", "w", "--twist",
                          "t" * 10**6), "error [no-such-twist]: "),
                        (("compute", "--space", "s" * 10**5, "--theory", "w"),
                         "error [inconsistent-descriptor]: cannot read descriptor file: "),
                        (("compare", "--space", "/nonexistent/" + "n" * 10**5),
                         "error [inconsistent-descriptor]: cannot read descriptor file: "),
                        (("compute", "--space", "catalog:p1", "--theory", "v" * 10**5),
                         "error: argument --theory: invalid choice: "),
                        (("compute", "--space", "catalog:p1", "--theory", "w", "--shift",
                          "1" + "x" * 10**5), "error: argument --shift: invalid int value: "),
                        (("sw", "--ring", "projective?d=2", "--rank", "r" * 10**5),
                         "error: argument --rank: invalid int value: ")):
        code, out, err = go(*argv)
        assert (code, out) == (1, "") and err.startswith(start) and len(err) < 200, err[:200]
    # a short input is quoted whole, as before
    with pytest.raises(WittkitError) as info:
        descriptor_from_json('{"kind": "point", "zz": 1, "aa": 2}')
    assert str(info.value) == "unknown descriptor keys: ['aa', 'zz']"
    with pytest.raises(WittkitError) as info:
        descriptor_from_json('{"kind": "line"}')
    assert str(info.value) == "kind must be point, curve, or surface, got 'line'"
    with pytest.raises(WittkitError) as info:
        descriptor_from_json(json.dumps(dict(tall_sq2, sq2=[[1], [1, 0]])))
    assert str(info.value) == "sq2 must be a 1x1 F2 matrix, got 2x[1, 2]"
    assert go("compute", "--space", "/nonexistent/a.json", "--theory", "w")[2] \
        == "error [inconsistent-descriptor]: cannot read descriptor file: " \
        "[Errno 2] No such file or directory: '/nonexistent/a.json'\n"


def test_byte_determinism():
    probes = [
        ("compute", "--all", "--theory", "witt"),
        ("compare", "--all"),
        ("specseq", "--space", "catalog:enriques", "--engine", "ko"),
        ("catalog", "--name", "enriques"),
    ]
    for argv in probes:
        assert go(*argv) == go(*argv)


@pytest.mark.parametrize("argv", [("--help",), ("compute", "--help")])
def test_run_returns_0_after_printing_help(argv):
    # argparse's help action exits the interpreter; run() returns instead
    code, out, err = go(*argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: wittkit")


def test_run_reuses_one_parser(monkeypatch):
    # the parser is built once at import; run() must neither rebuild it nor
    # let one call (a batch, a usage error, a handler error) change the next
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: pytest.fail("run() rebuilt the parser"))
    probes = [
        ("compute", "--space", "catalog:p1", "--theory", "w", "--shift", "1"),
        ("compute", "--space", "catalog:p2"),
        ("compare", "--all", "--assert"),
        ("specseq", "--space", "catalog:enriques", "--engine", "pardon"),
        ("compute", "--all", "--theory", "kok", "--format", "table"),
        ("sw", "--ring", "curve?g=2", "--rank", "2", "--format", "table"),
        ("compare", "--space", "catalog:k3?rho=10"),
        ("catalog",),
        ("compute", "--space", "catalog:godeaux", "--theory", "w"),
        ("catalog", "--name", "p2", "--format", "table"),
        ("compute", "--space", "catalog:p1", "--theory", "ko"),
    ]
    first = {argv: go(*argv) for argv in probes}
    assert first[("compute", "--space", "catalog:p2")][0] == 1
    assert first[("compare", "--all", "--assert")][0] == 2
    for order in (probes[::-1], probes[1::2] + probes[::2], probes * 2):
        for argv in order:
            code, out, _ = go(*argv)
            assert (code, out) == first[argv][:2], argv


@pytest.mark.parametrize("kind", ["h_int-integers", "sq2-null", "odd-torsion-duality",
                                  "b3-differs-from-b1", "odd-b1"])
def test_malformed_descriptor_files_exit_one_with_signal(tmp_path, kind):
    doc = json.loads(descriptor_to_json(catalog_get("p2").descriptor))
    if kind == "h_int-integers":
        doc["h_int"] = [1, 2, 3, 4, 5]
    elif kind == "sq2-null":
        doc["sq2"] = [[None]]
    elif kind == "b3-differs-from-b1":
        doc["h_int"] = ["Z", "Z^2", "Z", "0", "Z"]
    elif kind == "odd-b1":
        doc["h_int"] = ["Z", "Z", "Z", "Z", "Z"]
    else:
        doc["h_int"][2] = "Z + Z/3"
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for argv in (("compute", "--space", str(path), "--theory", "w"),
                 ("compute", "--space", str(path), "--theory", "kok"),
                 ("compare", "--space", str(path)),
                 ("specseq", "--space", str(path), "--engine", "pardon")):
        code, out, err = go(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error [inconsistent-descriptor]: "), err


def test_unreadable_space_files_exit_one_with_signal(tmp_path):
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    for path in (tmp_path, tmp_path / "missing.json", not_utf8):
        for argv in (("compute", "--space", str(path), "--theory", "w"),
                     ("compare", "--space", str(path)),
                     ("specseq", "--space", str(path), "--engine", "pardon")):
            code, out, err = go(*argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("error [inconsistent-descriptor]: "), err
            assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["deep-nesting", "long-order"])
def test_unloadable_descriptor_files_exit_one_with_signal(tmp_path, kind):
    if kind == "deep-nesting":
        text = "[" * 100000 + "]" * 100000
    else:
        doc = json.loads(descriptor_to_json(catalog_get("p2").descriptor))
        doc["h_int"][2] = "Z + Z/" + "3" * 5000
        text = json.dumps(doc)
    path = tmp_path / "unloadable.json"
    path.write_text(text)
    for argv in (("compute", "--space", str(path), "--theory", "w"),
                 ("compare", "--space", str(path))):
        code, out, err = go(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error [inconsistent-descriptor]: "), err


def test_s1_contradicting_sq2_exits_one_with_signal(tmp_path):
    # with rho = b2 the squaring s1 is Sq2 on H^2(Z)/2, which is 1 on P^2
    doc = json.loads(descriptor_to_json(catalog_get("p2").descriptor))
    doc["s1"] = [[0]]
    path = tmp_path / "p2_s1_zero.json"
    path.write_text(json.dumps(doc))
    for argv in (("compute", "--space", str(path), "--theory", "w"),
                 ("compare", "--space", str(path), "--assert")):
        code, out, err = go(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error [inconsistent-descriptor]: "), err


@pytest.mark.parametrize("fields", [
    {"projective": True, "genus": 10 ** 12, "punctures": 0},
    {"projective": False, "genus": 1, "punctures": 10 ** 12},
], ids=["genus", "punctures"])
def test_oversized_curve_files_exit_one_with_signal(tmp_path, fields):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(kind="curve", **fields)))
    for argv in (("compute", "--space", str(path), "--theory", "w"),
                 ("compute", "--space", str(path), "--theory", "ko"),
                 ("compare", "--space", str(path))):
        code, out, err = go(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error [inconsistent-descriptor]: "), err


def surface_doc(h2: str) -> dict:
    """A surface descriptor whose H^2 string is ``h2``; nu = 0 does not match
    a torsion H^2, so a file that gets past parsing is refused for nu."""
    return dict(kind="surface", projective=False, h_int=["Z", "0", h2, "0", "0"],
                nu=0, rho=0, ch2_mod2_rank=0, sq2=[], pi2=[], s1=[])


def test_oversized_group_strings_exit_one_before_parsing(tmp_path, eliminations):
    # parse_group is cubic in the summands of a string, so the loader refuses
    # one with more than MAX_GROUP_SUMMANDS before it runs an elimination
    path = tmp_path / "long.json"
    path.write_text(json.dumps(surface_doc(" + ".join(["Z/2"] * (MAX_GROUP_SUMMANDS + 1)))))
    for argv in (("compute", "--space", str(path), "--theory", "w"),
                 ("compare", "--space", str(path))):
        code, out, err = go(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error [inconsistent-descriptor]: "), err
        assert "at most %d summands" % MAX_GROUP_SUMMANDS in err
    assert len(eliminations) == 0
    # a string of exactly MAX_GROUP_SUMMANDS summands is parsed
    at_bound = " + ".join(["Z/2"] * MAX_GROUP_SUMMANDS)
    with pytest.raises(InconsistentDescriptor, match="^nu: .* which is %d$" % MAX_GROUP_SUMMANDS):
        descriptor_from_json(json.dumps(surface_doc(at_bound)))
    assert len(eliminations) == 1


def test_oversized_free_ranks_exit_one_before_a_table(tmp_path):
    # H^1 = H^3 = Z^N needs no matrix, so only the free-rank bound keeps
    # compute --theory witt from printing (Z/2)^N or running out of memory
    for rank in (10 ** 6, 10 ** 7):
        path = tmp_path / ("z%d.json" % rank)
        h1 = "Z^%d" % rank
        path.write_text(json.dumps({"kind": "surface", "projective": True,
                                    "h_int": ["Z", h1, "Z", h1, "Z"], "nu": 0, "rho": 1,
                                    "ch2_mod2_rank": 1, "sq2": [[1]], "pi2": [[1]]}))
        for argv in (("compute", "--space", str(path), "--theory", "witt"),
                     ("compare", "--space", str(path))):
            start = time.perf_counter()
            code, out, err = go(*argv)
            assert time.perf_counter() - start < 0.5, argv
            assert (code, out) == (1, ""), argv
            assert err.startswith("error [inconsistent-descriptor]: "), err
            assert "free rank at most %d" % MAX_CURVE_RANK in err


# Curves at the MAX_CURVE_RANK edge: 2g + n = 2000 and 2048
EDGE_CURVES = (
    ("projective", {"projective": True, "genus": 1000, "punctures": 0}),
    ("affine", {"projective": False, "genus": 1000, "punctures": 48}),
)


def edge_curve_argvs(tmp_path):
    argvs = []
    for name, fields in EDGE_CURVES:
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(dict(kind="curve", **fields)))
        # an affine curve has no O(p) twist class
        twists = ((), ("--twist", "O(p)")) if fields["projective"] else ((),)
        for twist in twists:
            argvs += [["compute", "--space", str(path), "--theory", theory, *twist]
                      for theory in ("witt", "gw", "w", "ko", "kok", "k")]
            argvs.append(["compare", "--space", str(path), *twist])
    return argvs


def run_in_child(argvs, timeout):
    """[exit code, stdout, stderr] of ``run`` on each argv, all in one fresh
    interpreter that must finish within ``timeout`` seconds."""
    child = (
        "import contextlib, io, json, sys\n"
        "from wittkit.cli import run\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = run(argv)\n"
        "    print(json.dumps([code, out.getvalue(), err.getvalue()]))\n"
    )
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_genus_1000_curves_go_through_the_cli(tmp_path):
    # one fresh interpreter runs every command, so a table that is cubic in
    # the genus ends in a timeout instead of a hang
    argvs = edge_curve_argvs(tmp_path)
    results = [tuple(r) for r in run_in_child(argvs, timeout=60)]
    assert len(results) == len(argvs) == 21
    for argv, result in zip(argvs, results):
        assert result[0] == 0, (argv, result[2])
        assert result == go(*argv), argv
    w_row = json.loads(results[2][1])
    assert w_row == [render(elementary_two(2001)), "Z/2", "0", "0"]
    assert json.loads(results[6][1])["verdict"] == "curve-always-iso"


# A projective surface whose H^2 and H^3 carry 200 summands Z/3 each. Each
# group string must cost one elimination, not one per summand, for both
# commands to finish inside the timeout.
LONG_TORSION = " + ".join(["Z/3"] * 200)
LONG_SURFACE = {"kind": "surface", "projective": True,
                "h_int": ["Z", "0", "Z + " + LONG_TORSION, LONG_TORSION, "Z"],
                "nu": 0, "rho": 1, "ch2_mod2_rank": 1, "sq2": [[1]], "pi2": [[1]]}
LONG_SURFACE_OUT = {
    "w": '["Z/2", "0", "0", "0"]\n',
    "compare": '{"kind": "surface", "twist": "trivial", "pic_surjective": true, '
               '"rows": [{"shift": 0, "W": "Z/2", "KOK": "Z/2", "iso": true}, '
               '{"shift": 1, "W": "0", "KOK": "0", "iso": true}, '
               '{"shift": 2, "W": "0", "KOK": "0", "iso": true}, '
               '{"shift": 3, "W": "0", "KOK": "0", "iso": true}], '
               '"verdict": "surface-iso", "mismatch": null}\n',
}


def test_long_group_strings_go_through_the_cli(tmp_path):
    path = tmp_path / "long_torsion.json"
    path.write_text(json.dumps(LONG_SURFACE))
    argvs = [["compute", "--space", str(path), "--theory", "w"],
             ["compare", "--space", str(path)]]
    results = run_in_child(argvs, timeout=10)
    assert [r[:2] for r in results] == [[0, LONG_SURFACE_OUT["w"]],
                                        [0, LONG_SURFACE_OUT["compare"]]]


def timed(call, *args):
    start = time.perf_counter()
    call(*args)
    return time.perf_counter() - start


def test_genus_1000_curve_tables_are_fast():
    for space in (make_curve(True, 1000), make_curve(False, 1000, 48)):
        for table in (witt_table, ko_table, compare_w_kok):
            best = min(timed(table, space) for _ in range(3))
            assert best < 0.1, (table.__name__, str(space), best)


PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_script():
    """The ``wittkit`` entry of ``[project.scripts]``, e.g. ``"wittkit.cli:main"``."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "wittkit" in scripts, "%s declares no wittkit script" % PYPROJECT
    return scripts["wittkit"]


def run_child(*args, timeout=60):
    """Run ``python *args`` in a fresh interpreter, within ``timeout`` seconds.

    ``PYTHONPATH`` starts with the directory holding the ``wittkit`` package
    this suite imported, so the child runs the same code.
    """
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_script(tmp_path, *argv):
    """Run the declared console script, the wrapper pip writes for it."""
    module, _, attr = declared_script().partition(":")
    script = tmp_path / "wittkit"
    script.write_text("import sys\nfrom %s import %s\nsys.argv[0] = 'wittkit'\n"
                      "sys.exit(%s())\n" % (module, attr, attr))
    return run_child(str(script), *argv)


def test_console_script_is_installed(tmp_path):
    target = declared_script()
    assert target == "wittkit.cli:main", \
        "[project.scripts] declares wittkit = %r" % target
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr, None) is main, \
        "%s does not resolve to wittkit.cli.main" % target
    argv = ("compute", "--space", "catalog:point", "--theory", "gw")
    done = run_script(tmp_path, *argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["Z", "0", "Z", "Z/2"]
    assert (done.returncode, done.stdout) == go(*argv)[:2], done.stderr


def test_console_script_assert_exit_code(tmp_path):
    argv = ("compare", "--space", "catalog:k3?rho=20", "--assert")
    done = run_script(tmp_path, *argv)
    assert done.returncode == 2, done.stderr
    assert (done.returncode, done.stdout) == go(*argv)[:2], done.stderr


@pytest.mark.parametrize("argv, code", [
    (("compare", "--space", "catalog:k3?rho=20", "--assert"), 2),
    (("compute", "--space", "catalog:p1", "--theory", "w"), 0),
    (("--help",), 0),
    (("compute", "--help"), 0),
])
def test_python_dash_m_runs_the_command(monkeypatch, capsys, argv, code):
    # argparse wraps the help to the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    done = run_child("-m", "wittkit.cli", *argv)
    monkeypatch.setattr(sys, "argv", ["wittkit", *argv])
    with pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == code
    assert (done.returncode, done.stdout) == (code, capsys.readouterr().out), done.stderr
