"""Generated input for the loaders and for what they accept.

Two properties. Any JSON handed to ``descriptor_from_json``,
``report_from_json`` or ``wittkit compare --space`` either gives a result or
ends in a ``WittkitError`` (exit 1 and ``error [signal]`` on the command
line), never another exception. And a surface descriptor the loader accepts
is one every ``compute`` theory and ``compare`` can answer: they exit 0 or
2, never with an internal check such as ``invariant-violation``.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittkit.catalog import catalog_get
from wittkit.cli import run
from wittkit.compare import compare_w_kok, report_from_json, report_to_json
from wittkit.errors import WittkitError
from wittkit.groups import (
    cyclic,
    direct_sum_all,
    even_count,
    free,
    mod2_rank,
    parse_group,
    render,
)
from wittkit.spaces import descriptor_from_json, descriptor_to_json

SCALARS = (st.none() | st.booleans() | st.floats(allow_nan=False)
           | st.integers(-3, 40) | st.integers(-10 ** 400, 10 ** 400)
           | st.text(max_size=6) | st.sampled_from(["Z", "0", "Z/2", "Z^22", "Z + Z/2"]))
KEY = st.text(max_size=6)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEY, inner, max_size=4),
    max_leaves=8,
)
ONE_IN_FOUR = st.integers(0, 3).map(lambda n: n == 0)
INDEX = st.integers(0, 15)

VALID_DESCRIPTORS = tuple(
    json.loads(descriptor_to_json(catalog_get(name).descriptor))
    for name in ("point", "p1", "affine_curve?g=1&n=2", "p2", "enriques", "k3?rho=3")
)
VALID_REPORTS = tuple(
    json.loads(report_to_json(compare_w_kok(catalog_get(name).descriptor)))
    for name in ("p1", "enriques", "k3?rho=3")
)


@st.composite
def mutated(draw, valid_docs):
    """A valid document with a few keys dropped, replaced or added, or any JSON."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON)
    doc = dict(draw(st.sampled_from(valid_docs)))
    if "rows" in doc and draw(st.booleans()):
        rows = doc["rows"] = list(doc["rows"])
        at = draw(INDEX) % len(rows)
        rows[at] = draw(mutated((rows[at],)))
    for _ in range(draw(st.integers(1, 3))):
        names = sorted(doc)
        key = draw(KEY) if not names or draw(ONE_IN_FOUR) else names[draw(INDEX) % len(names)]
        if key in doc and draw(ONE_IN_FOUR):
            del doc[key]
        else:
            doc[key] = draw(JSON)
    return doc


def go(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def returns_or_raises_signal(call, *args):
    try:
        call(*args)
    except WittkitError as exc:
        assert exc.signal


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated(VALID_DESCRIPTORS), report=mutated(VALID_REPORTS))
def test_loaders_return_or_raise_a_signal(tmp_path_factory, doc, report):
    returns_or_raises_signal(descriptor_from_json, doc)
    returns_or_raises_signal(report_from_json, json.dumps(report))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    returns_or_raises_signal(descriptor_from_json, path.read_text(encoding="utf-8"))
    code, out, err = go("compare", "--space", str(path))
    assert code in (0, 1), (code, err)
    if code == 1:
        assert out == "" and err.startswith("error ["), err


def _group(free_rank, orders):
    return render(direct_sum_all([free(free_rank)] + [cyclic(n) for n in orders]))


def _bits(draw, rows, cols):
    return [[draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def surface_docs(draw):
    """Surface descriptors with b1 and b3 drawn apart and matrices of the right shapes."""
    projective = draw(st.booleans())
    orders = st.lists(st.sampled_from((2, 3, 4)), max_size=2)
    t2 = draw(orders)
    t3 = t2 if draw(st.booleans()) else draw(orders)
    b2 = draw(st.integers(0, 4))
    h_int = ["Z", _group(draw(st.integers(0, 3)), ()), _group(b2, t2),
             _group(draw(st.integers(0, 3)), t3),
             "Z" if projective or draw(st.booleans()) else "0"]
    h2, h3, h4 = (parse_group(h) for h in h_int[2:])
    nu = even_count(h2) + draw(st.sampled_from((0, 0, 0, 1)))
    rho = draw(st.integers(0, b2))
    ch2 = mod2_rank(h4)
    m2, r2 = b2 + nu, b2 + nu + even_count(h3)
    if draw(st.booleans()):
        pi2 = [[int(i == j) for j in range(m2)] for i in range(r2)]
    else:
        pi2 = _bits(draw, r2, m2)
    doc = {"kind": "surface", "projective": projective, "h_int": h_int, "nu": nu,
           "rho": rho, "ch2_mod2_rank": ch2, "sq2": _bits(draw, ch2, r2), "pi2": pi2}
    if rho < b2 or draw(st.booleans()):
        doc["s1"] = _bits(draw, ch2, rho + nu)
    return doc


THEORIES = ("witt", "gw", "w", "ko", "kok", "k")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=surface_docs())
def test_accepted_surfaces_are_computable(tmp_path_factory, doc):
    try:
        descriptor_from_json(doc)
    except WittkitError:
        return
    path = tmp_path_factory.getbasetemp() / "surface.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in ([("compute", "--space", str(path), "--theory", t) for t in THEORIES]
                 + [("compare", "--space", str(path), "--assert")]):
        code, _, err = go(*argv)
        assert code in (0, 2), (argv, doc, err)
