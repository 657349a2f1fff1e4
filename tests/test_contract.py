"""Contract pins that cut across modules.

The error signal of each public entry point on every kind of space and
twist class, a guard that keeps bare ``assert`` statements (stripped by
``python -O``) out of the package, one that keeps each module's private
names to itself, and one that keeps the tables from branching on the kind
label instead of the data it is read off.
"""

import ast
import pathlib

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
