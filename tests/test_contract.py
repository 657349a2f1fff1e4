"""Contract pins that cut across modules.

The error signal of each public entry point on every kind of space and
twist class, a guard that keeps bare ``assert`` statements (stripped by
``python -O``) out of the package, one that keeps each module's private
names to itself, one that keeps out imports a module never reads, one that
keeps the tables from branching on the kind label instead of the data it is
read off, one that keeps out of the package what only the tests reach, and
one that parses every file with the grammar of the oldest Python that
``pyproject.toml`` admits. The package loads each module on
the first use of one of its names: what a fresh import loads is checked in
a fresh interpreter, since the suite's own imports load every module first.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import wittkit
from wittkit.catalog import catalog_get
from wittkit.compare import compare_w_kok
from wittkit.errors import WittkitError
from wittkit.spaces import make_curve, make_point
from wittkit.topko import ko_curve, ko_table, kok, kok_reduced
from wittkit.witt import fh_image, gw_curve, karoubi_check, w_curve, witt_table

SPACES = (
    ("point", make_point()),
    ("curve", make_curve(True, 2)),
    ("affine", make_curve(False, 1, 2)),
    ("surface", catalog_get("enriques").descriptor),
)
TWISTS = ("trivial", "O(p)")

ENTRY_POINTS = {
    "witt_table": lambda s, t: witt_table(s, t),
    "ko_table": lambda s, t: ko_table(s, t),
    "compare_w_kok": lambda s, t: compare_w_kok(s, t),
    "kok": lambda s, t: kok(s, 0, t),
    "kok_reduced": lambda s, t: kok_reduced(s, 0, t),
    "fh_image": lambda s, t: fh_image(s, 0, t),
    "gw_curve": lambda s, t: gw_curve(s, 0, t),
    "w_curve": lambda s, t: w_curve(s, 0, t),
    "karoubi_check": lambda s, t: karoubi_check(s, t),
    "ko_curve": lambda s, t: ko_curve(s, 0),
    "witt_table-unknown-twist": lambda s, t: witt_table(s, "O(q)"),
}

OK = None
NST = "no-such-twist"
UT = "unsupported-twist"
ID = "inconsistent-descriptor"

# columns: (point, curve, affine curve, surface) x (trivial, O(p))
SIGNALS = {
    "witt_table":    (OK, NST, OK, OK, OK, NST, OK, UT),
    "ko_table":      (OK, NST, OK, OK, OK, NST, OK, UT),
    "compare_w_kok": (OK, NST, OK, OK, OK, NST, OK, UT),
    "kok":           (OK, NST, OK, OK, OK, NST, OK, UT),
    "kok_reduced":   (OK, NST, OK, OK, OK, NST, OK, UT),
    "fh_image":      (ID, ID, OK, OK, OK, NST, OK, UT),
    "gw_curve":      (ID, ID, OK, OK, OK, NST, ID, ID),
    "w_curve":       (ID, ID, OK, OK, OK, NST, ID, ID),
    "karoubi_check": (ID, ID, OK, OK, OK, NST, ID, ID),
    "ko_curve":      (ID, ID, OK, OK, OK, OK, ID, ID),
    "witt_table-unknown-twist": (NST,) * 8,
}


def _signal(call):
    try:
        call()
    except WittkitError as exc:
        return exc.signal
    return OK


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_error_signal_matrix(entry):
    fn = ENTRY_POINTS[entry]
    got = tuple(_signal(lambda: fn(space, tw)) for _, space in SPACES for tw in TWISTS)
    assert got == SIGNALS[entry]


def test_package_has_no_bare_asserts():
    # cross-checks raise InvariantViolation so that they survive python -O
    package = pathlib.Path(wittkit.__file__).resolve().parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_no_private_names():
    # modules reach one another through public names only
    package = pathlib.Path(wittkit.__file__).resolve().parent
    found = [
        "%s:%d %s" % (path.name, node.lineno, alias.name)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "wittkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_package_imports_only_names_it_reads():
    # an unused import is dead weight: every name a module binds by an import
    # (``from __future__`` aside) is loaded somewhere in that module
    package = pathlib.Path(wittkit.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [
            "%s:%d %s" % (path.name, node.lineno, bound)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.partition(".")[0]]
            if bound not in read
        ]
    assert found == []


def test_tables_compare_no_kind_label():
    # a table decides from dim, projective, rho and the twist; the kind is
    # read off the cohomology table in spaces alone
    package = pathlib.Path(wittkit.__file__).resolve().parent
    found = [
        "%s:%d" % (name, node.lineno)
        for name in ("witt.py", "topko.py", "compare.py", "specseq.py")
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                for side in [node.left, *node.comparators])
    ]
    assert found == []


# top-level definitions that nothing in src/, bench/ or __all__ reaches, kept
# on purpose
UNREACHED = {
    "k0_alg": "deleting it deletes its own test",
    "dump_page": "ROADMAP item 5(a) gives it a caller",
    "gw_curve_reduced": "the acceptance gate imports it",
    "ko_curve_reduced": "the acceptance gate imports it",
    "__getattr__": "the PEP 562 hook that loads a module on first use",
    "__dir__": "the PEP 562 hook that lists the lazily loaded names",
}


def _mentions(tree, strings=False):
    """Every name that ``tree`` mentions: names, attributes, import aliases
    and, with ``strings``, string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_reached_from_outside_the_tests():
    # a top-level function or class must be named by some other top-level
    # statement of the package, by a bench/ file (bench/spans.py wraps
    # functions by name, hence its strings) or by __all__; otherwise only the
    # tests reach it, and it belongs beside their reference copies
    package = pathlib.Path(wittkit.__file__).resolve().parent
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    defined, reached = {}, set(wittkit.__all__)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[own] = path.name
            reached.update(name for name in _mentions(stmt) if name != own)
    for path in sorted(bench.glob("*.py")):
        reached.update(_mentions(ast.parse(path.read_text(encoding="utf-8")), strings=True))
    unreached = {name: module for name, module in defined.items() if name not in reached}
    assert sorted(unreached) == sorted(UNREACHED), sorted(set(unreached) ^ set(UNREACHED))


MODULES = ("catalog", "compare", "errors", "groups", "spaces", "specseq", "topko", "witt")

# the public names, in the order the package has always listed them
ALL = [
    "BigradedPage", "CatalogEntry", "ComparisonReport", "DegreeOutOfRange",
    "EInfinityReport", "ExactnessReport", "FHImage", "GroupMap", "INTEGRAL",
    "InconsistentDescriptor", "KaroubiReport", "KoTable", "MOD2", "MalformedPage",
    "Mod2Ranks", "NoSuchTwist", "QlReport", "RenderParseError", "RingContext",
    "RingMismatch", "ShapeMismatch", "ShiftRow", "SpaceDescriptor", "SymGroup",
    "TruncatedClass", "TruncationError", "UnknownName", "UnsupportedDivisibleMap",
    "UnsupportedTwist", "WittTable", "WittkitError", "ahss_k", "ahss_ko", "betti",
    "catalog_get", "catalog_instances", "catalog_list", "check_exact", "cokernel",
    "compare_w_kok", "curve_symplectic_ring", "cyclic", "descriptor_from_json",
    "descriptor_to_json", "direct_sum", "direct_sum_all", "divisible",
    "elementary_two", "eta_iso_check", "etale_h", "fh_image", "free",
    "generic_sw_ring", "gw_curve", "gw_point", "k1_two_torsion", "k_top_graded",
    "karoubi_check", "kernel", "ko_curve", "ko_point", "ko_table", "kok",
    "make_curve", "make_point", "make_surface", "mod2", "mod2_rank", "mod2_ranks",
    "pardon_e2", "pardon_stable", "parse_group", "pic_surjective", "picard",
    "projective_space_ring", "ql_hermitian_verdict", "render", "report_from_json",
    "report_to_json", "run_to_stable", "s1_vs_sq2z", "singular_h", "snf",
    "sw_metabolic_total", "sw_whitney_product", "topko_json_payload", "turn_page",
    "two_torsion", "w0_graded_surface", "w_curve", "w_point", "w_surface",
    "witt_json_payload", "witt_table",
]


def _fresh(code):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    root = str(pathlib.Path(wittkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wittkit.'))))"


def test_import_loads_no_module():
    assert _fresh("import wittkit\n" + LOADED) == []


def test_a_name_loads_its_module_and_what_that_imports():
    assert _fresh("import wittkit\nwittkit.descriptor_from_json\n" + LOADED) == [
        "wittkit.errors", "wittkit.groups", "wittkit.spaces"]


def test_a_module_name_resolves_without_a_submodule_import():
    got = _fresh("import wittkit\n"
                 "print(json.dumps([wittkit.groups.__name__, wittkit.groups.render.__module__]))")
    assert got == ["wittkit.groups", "wittkit.groups"]


def test_public_names_are_pinned():
    assert wittkit.__all__ == ALL
    assert len(ALL) == 94


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wittkit import *", namespace)
    assert [name for name in ALL if namespace.get(name) is not getattr(wittkit, name)] == []


def test_dir_lists_every_public_and_module_name():
    listed = dir(wittkit)
    assert "__all__" in listed
    assert set(ALL) <= set(listed)
    assert set(MODULES) <= set(listed)


def test_each_name_is_its_modules_object():
    assert sorted(wittkit._EXPORTS) == list(MODULES)
    for module, names in wittkit._EXPORTS.items():
        owner = getattr(wittkit, module)
        for name in names:
            assert getattr(wittkit, name) is getattr(owner, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        wittkit.no_such_name
    assert not hasattr(wittkit, "no_such_name")
    assert not hasattr(wittkit, "cli_main")


def test_the_package_sees_a_rebound_function(monkeypatch):
    # bench/spans.py rebinds the functions of the loaded modules and switches
    # them on and off between queries; a name bound in the package on first
    # access would freeze whichever object was live then
    original = wittkit.witt.witt_table
    sentinel = object()
    monkeypatch.setattr(wittkit.witt, "witt_table", sentinel)
    assert wittkit.witt_table is sentinel
    assert "witt_table" not in vars(wittkit)
    monkeypatch.undo()
    assert wittkit.witt_table is original
    assert "witt_table" not in vars(wittkit)


def _python_floor() -> tuple:
    """(major, minor) of ``requires-python`` in pyproject.toml, read by pattern:
    ``tomllib`` is not in the standard library below Python 3.11."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found.group(1)), int(found.group(2))


def test_every_file_parses_at_the_python_floor():
    # the suite may run on a newer interpreter than the floor; parsing with the
    # floor's grammar refuses syntax it lacks, such as except* below 3.11
    floor = _python_floor()
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [path for part in ("src/wittkit", "tests", "bench")
             for path in sorted((root / part).glob("*.py"))]
    assert len(paths) > 30, paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
    if floor < (3, 11):
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)
