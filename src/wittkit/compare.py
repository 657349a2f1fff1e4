"""Shiftwise comparison of algebraic Witt groups with topological KO/K.

The comparison runs through the Picard map. With rho = b2, a Picard group
onto H^2(Z), every shift agrees on every space, so curves always agree; a
Picard rank defect shows at shift 0, where it is measured. Both directions
are checked. The maps are not modeled; "iso" means canonical-form equality
of the two independently computed groups. Both are F2-vector spaces (W is a
W(C) = Z/2-module, KO^{2i}/K has exponent two), so ``report_from_json`` reads
each column as a count of Z/2 and refuses any other column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantViolation, RenderParseError
from .groups import SymGroup, elementary_two, f2_rank, mod2_rank, parse_summands, render
from .spaces import (
    SpaceDescriptor,
    pic_surjective,
    require_kind,
    sq2_integral,
    sq2z_on_pic,
)
from .topko import KOK_POINT, kok_row
from .witt import ODD_TWIST, TRIVIAL_TWIST, check_twist, minus_point, w_point, w_row

CURVE_ALWAYS_ISO = "curve-always-iso"
SURFACE_ISO = "surface-iso"
SURFACE_MISMATCH = "surface-mismatch"
_MISMATCH_KEYS = ("shift", "w_rank", "kok_rank")


@dataclass(frozen=True)
class ShiftRow:
    shift: int
    w: SymGroup
    kok: SymGroup
    iso: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Per-shift Witt vs KO/K columns plus the theorem-level verdict.

    ``mismatch`` is None or (shift, w_rank, kok_rank) for the first differing
    shift; shift-0 ranks are taken on reduced groups so the shared point
    summand cannot hide a defect.
    """

    kind: str
    twist: str
    pic_surjective: bool
    rows: tuple
    verdict: str
    mismatch: tuple | None


def _verdict(rows, tw: str, dim: int) -> tuple:
    """(verdict, mismatch) that a report's rows give under twist ``tw`` in dimension ``dim``."""
    bad, mismatch = next((row for row in rows if not row.iso), None), None
    if bad is not None:
        w_grp, k_grp = bad.w, bad.kok
        if bad.shift == 0:  # the reduced groups, read off the rows
            w_grp, k_grp = minus_point(w_grp, w_point(0), tw), minus_point(k_grp, KOK_POINT[0], tw)
        mismatch = (bad.shift, mod2_rank(w_grp), mod2_rank(k_grp))
    if dim < 2:
        return CURVE_ALWAYS_ISO, mismatch
    return (SURFACE_ISO if mismatch is None else SURFACE_MISMATCH), mismatch


def compare_w_kok(space: SpaceDescriptor, twist=TRIVIAL_TWIST) -> ComparisonReport:
    tw = check_twist(space, twist)
    rows = tuple([ShiftRow(i, w_grp, k_grp, w_grp == k_grp) for i, (w_grp, k_grp)
                  in enumerate(zip(w_row(space, tw), kok_row(space, tw)))])
    verdict, mismatch = _verdict(rows, tw, space.dim)
    onto = pic_surjective(space)
    if not onto:
        # necessity direction: a Picard rank defect must surface at shift 0
        if not (mismatch is not None and mismatch[0] == 0):
            raise InvariantViolation("%s: Picard defect missed at shift 0" % space)
    elif mismatch is not None:
        # sufficiency direction: rho = b2 fixes s1 = Sq2∘pi2, and ch2 = rank H^4/2
        raise InvariantViolation("%s compares non-isomorphically" % space)
    return ComparisonReport(
        kind=space.kind,
        twist=tw,
        pic_surjective=onto,
        rows=rows,
        verdict=verdict,
        mismatch=mismatch,
    )


def _cols(m) -> int:
    return len(m[0]) if m else 0


def s1_vs_sq2z(space: SpaceDescriptor) -> bool:
    """Compatibility of the Chow-side squaring map with the integral Sq2.

    With a surjective Picard map the two operations are identified, so their
    kernel and cokernel ranks must agree. Otherwise only the commutation
    bound is checkable: the image of s1 cannot exceed the image of Sq2_Z
    restricted to the Picard classes.
    """
    require_kind(space, "surface")
    sq = sq2_integral(space)
    s1 = space.s1
    if pic_surjective(space):
        kernels = _cols(s1) - f2_rank(s1) == _cols(sq) - f2_rank(sq)
        cokernels = len(s1) - f2_rank(s1) == len(sq) - f2_rank(sq)
        return kernels and cokernels
    return f2_rank(s1) <= f2_rank(sq2z_on_pic(space))


# ---------------------------------------------------------------------------
# serialization


def report_payload(report: ComparisonReport) -> dict:
    """The JSON object of a report; each W and KOK column renders a sum of Z/2."""
    return {
        "kind": report.kind,
        "twist": report.twist,
        "pic_surjective": report.pic_surjective,
        "rows": [
            {"shift": r.shift, "W": render(r.w), "KOK": render(r.kok),
             "iso": r.iso}
            for r in report.rows
        ],
        "verdict": report.verdict,
        "mismatch": None if report.mismatch is None else dict(zip(_MISMATCH_KEYS, report.mismatch)),
    }


def report_to_json(report: ComparisonReport) -> str:
    return json.dumps(report_payload(report))


def _entry(data: dict, key: str, typ):
    # bool is an int to Python but not to JSON
    if key not in data:
        raise RenderParseError("report: missing key %r" % key)
    val = data[key]
    if not isinstance(val, typ) or (typ is int and isinstance(val, bool)):
        raise RenderParseError("report: %r has the wrong type" % key)
    return val


def _f2_column(data: dict, key: str) -> SymGroup:
    free_rank, factors, div = parse_summands(_entry(data, key, str))
    if free_rank or div or factors.count(2) != len(factors):
        raise RenderParseError("report: %s column %r is not a sum of Z/2" % (key, data[key][:64]))
    return elementary_two(len(factors))


def _row(data) -> ShiftRow:
    if not isinstance(data, dict):
        raise RenderParseError("report: a row must be a JSON object")
    return ShiftRow(_entry(data, "shift", int), _f2_column(data, "W"),
                    _f2_column(data, "KOK"), _entry(data, "iso", bool))


def report_from_json(source) -> ComparisonReport:
    """Read a report in linear time, each column as a count of Z/2 (no elimination).
    ``render-parse`` refuses any other column, a report without four rows, a row
    i whose shift is not i, a row whose iso is not W == KOK, an unknown kind or
    twist, and a verdict, mismatch or pic_surjective that the rows do not give."""
    try:
        data = json.loads(source)
    except (RecursionError, TypeError, ValueError) as exc:
        raise RenderParseError("report is not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise RenderParseError("report must be a JSON object")
    rows = tuple(map(_row, _entry(data, "rows", list)))
    if len(rows) != 4:
        raise RenderParseError("report: %d rows, not 4" % len(rows))
    for i, row in enumerate(rows):
        if row.shift != i:
            raise RenderParseError("report: row %d has shift %d" % (i, row.shift))
        if row.iso != (row.w == row.kok):
            raise RenderParseError("report: row %d's iso is not W == KOK" % i)
    m = _entry(data, "mismatch", (dict, type(None)))
    kind = _entry(data, "kind", str)
    report = ComparisonReport(
        kind=kind,
        twist=_entry(data, "twist", str),
        pic_surjective=_entry(data, "pic_surjective", bool),
        rows=rows,
        verdict=_entry(data, "verdict", str),
        mismatch=None if m is None else tuple(_entry(m, key, int) for key in _MISMATCH_KEYS),
    )
    if kind not in SpaceDescriptor.KINDS or report.twist not in (TRIVIAL_TWIST, ODD_TWIST):
        raise RenderParseError("report: a kind or twist that no report has")
    try:
        verdict, mismatch = _verdict(rows, report.twist, SpaceDescriptor.KINDS.index(kind))
    except InvariantViolation:  # a point summand missing from shift 0
        raise RenderParseError("report: shift 0 lacks the point's Z/2") from None
    if (report.verdict, report.mismatch, report.pic_surjective) != (verdict, mismatch, not mismatch):
        raise RenderParseError("report: verdict, mismatch or pic_surjective differs from the rows")
    return report
