"""Command-line front door.

Subcommands: compute (group tables), compare (Witt vs KO/K verdicts),
specseq (stable-page read-offs), sw (metabolic characteristic classes),
catalog (registry access). Output is byte-deterministic for fixed inputs;
exit codes: 0 success, 1 usage or validation error, 2 a failed
``compare --assert``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import canonical_int, catalog_get, catalog_instances, catalog_list, lookup
from .compare import SURFACE_MISMATCH, compare_w_kok, report_payload
from .errors import InconsistentDescriptor, WittkitError
from .groups import render
from .spaces import MAX_CURVE_RANK, descriptor_from_json, descriptor_to_json
from .specseq import ahss_k, ahss_ko, pardon_stable
from .topko import ko_table, topko_json_payload
from .witt import (
    curve_symplectic_ring,
    generic_sw_ring,
    projective_space_ring,
    ring_parse,
    ring_render,
    sw_metabolic_total,
    witt_json_payload,
    witt_table,
)


class _UsageError(Exception):
    pass


class _Exit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2
    # for failed assertions, so route everything through one exception; a
    # refused value is quoted whole in ``message``, so keep a bounded prefix
    def error(self, message):
        raise _UsageError(message[:160])

    # the help action prints the help and then calls exit(), which would
    # leave the interpreter; run() returns the status instead. Only error(),
    # replaced above, passes a message
    def exit(self, status=0, message=None):
        raise _Exit(status)


def _load_space(source: str):
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        return name, catalog_get(name).descriptor
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InconsistentDescriptor("cannot read descriptor file: %.100s" % exc) from exc
    return source, descriptor_from_json(text)


def _row(label, value) -> str:
    return "%-8s%s" % (label, value if value is not None else "-")


def _emit(args, payload, rows, key="result", ready=lambda space: space) -> list:
    """Print and return each space's payload, as JSON (under ``key`` in a batch) or as table
    ``rows``; a batch table's ``[name]`` header comes after ``ready`` and before ``payload``."""
    batch = getattr(args, "all", False)
    pairs = ([(name, catalog_get(name).descriptor) for name in catalog_instances()]
             if batch else [_load_space(args.space)])
    done = []
    for name, space in pairs:
        item = ready(space)
        if batch and args.format == "table":
            print("[%s]" % name)
        done.append(payload(item))
        if args.format == "table":
            for row in rows(done[-1]):
                print(row)
        else:
            print(json.dumps({"space": name, key: done[-1]} if batch else done[-1]))
    return done


# the payload row of each one-row theory; KOK and K0_gr sit in even degrees
_ROW_KEYS = {"gw": "GW", "w": "W", "kok": "KOK", "k": "K0_gr"}


def _table_rows(label: str, values) -> list:
    stride = 2 if label in ("KOK", "K0_gr") else 1
    return [_row("%s^%d" % (label, i * stride), v) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# compute


def _pick(values, index, limit, flag):
    if not 0 <= index < limit:
        raise _UsageError("%s must lie in 0..%d" % (flag, limit - 1))
    return values[index]


def _compute_payload(space, args):
    theory = args.theory
    if args.shift is not None and theory not in ("gw", "w", "kok"):
        raise _UsageError("--shift applies to gw, w, and kok only")
    if args.degree is not None and theory != "ko":
        raise _UsageError("--degree applies to ko only")
    if theory in ("witt", "gw", "w"):
        payload = witt_json_payload(witt_table(space, args.twist))
    else:
        payload = topko_json_payload(ko_table(space, args.twist))
    if theory in ("witt", "ko"):
        if args.degree is not None:
            return _pick(payload["KO"], args.degree, 8, "--degree")
        return payload
    row = payload[_ROW_KEYS[theory]]
    if args.shift is not None:
        return _pick(row, args.shift, 4, "--shift")
    return row


def _compute_rows(payload, theory) -> list:
    if isinstance(payload, str) or payload is None:
        return [payload if payload is not None else "-"]
    if isinstance(payload, list):
        return _table_rows(_ROW_KEYS[theory], payload)
    rows = []
    for key, values in payload.items():
        if isinstance(values, list):
            rows.extend(_table_rows(key, values))
        else:
            rows.append(_row(key, json.dumps(values)))
    return rows


def _cmd_compute(args) -> int:
    _emit(args, lambda space: _compute_payload(space, args),
          lambda payload: _compute_rows(payload, args.theory))
    return 0


# ---------------------------------------------------------------------------
# compare


def _compare_rows(payload) -> list:
    rows = ["shift %d  W=%-24s KOK=%-24s %s"
            % (row["shift"], row["W"], row["KOK"], "iso" if row["iso"] else "MISMATCH")
            for row in payload["rows"]]
    rows.append("verdict: %s" % payload["verdict"])
    if payload["mismatch"] is not None:
        rows.append("mismatch: shift %d, ranks %d vs %d" % tuple(payload["mismatch"].values()))
    return rows


def _cmd_compare(args) -> int:
    verdicts = {r["verdict"] for r in _emit(args, report_payload, _compare_rows, "report",
                                            lambda space: compare_w_kok(space, args.twist))}
    return 2 if args.assert_flag and SURFACE_MISMATCH in verdicts else 0


# ---------------------------------------------------------------------------
# specseq


def _specseq_payload(space, engine) -> dict:
    if engine == "pardon":
        rep = pardon_stable(space)
        return {"engine": "pardon",
                "columns": [render(g) if g is not None else None
                            for g in map(rep.resolved_group, range(4))]}
    rep = ahss_ko(space) if engine == "ko" else ahss_k(space)
    return {
        "engine": "ahss-%s" % engine,
        "degrees": {str(d): [render(g) for g in rep.pieces(d)] for d in sorted(rep.degrees)},
        "unknown": sorted(rep.unknown_degrees),
    }


def _specseq_rows(payload) -> list:
    if payload["engine"] == "pardon":
        return [_row("W^%d" % i, text) for i, text in enumerate(payload["columns"])]
    rows = [_row(key, " + ".join(pieces) or "0") for key, pieces in payload["degrees"].items()]
    if payload["unknown"]:
        rows.append(_row("unknown", payload["unknown"]))
    return rows


def _cmd_specseq(args) -> int:
    _emit(args, lambda space: _specseq_payload(space, args.engine), _specseq_rows)
    return 0


# ---------------------------------------------------------------------------
# sw


# base -> (builder, ((key, least, greatest),)), read by catalog.lookup: P^512
# and generic rank 10 build in about 0.1 s (d^2 and exponential growth); curve
# genus stops where curve descriptors do
_RINGS = {
    "projective": (projective_space_ring, (("d", 0, 512),)),
    "curve": (curve_symplectic_ring, (("g", 0, MAX_CURVE_RANK // 2),)),
    "generic": (generic_sw_ring, (("rank", 1, 10),)),
}


def _build_ring(text: str):
    try:
        builder, _, values = lookup(_RINGS, text)
    except WittkitError as exc:  # a ring is a usage fault: "error: ", no signal
        raise _UsageError(exc) from None
    return builder(*values)


def _cmd_sw(args) -> int:
    if args.rank < 0:
        raise _UsageError("--rank must be at least 0")
    ring = _build_ring(args.ring)
    chern = [ring.unit()]
    if args.chern:
        chern += [ring_parse(ring, label.strip())
                  for label in args.chern.split(";")]
    total = sw_metabolic_total(chern, args.rank, ring, complex=args.complex_base)
    rendered = [ring_render(ring, c) for c in total.coefficients]
    if args.format == "table":
        for d, text in enumerate(rendered):
            print(_row("t^%d" % d, text))
    else:
        print(json.dumps({"ring": ring.name, "total": rendered}))
    return 0


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog(args) -> int:
    if args.name is None:
        names = list(catalog_list())
        if args.format == "table":
            for name in names:
                print(name)
        else:
            print(json.dumps(names))
        return 0
    entry = catalog_get(args.name)
    descriptor = json.loads(descriptor_to_json(entry.descriptor))
    if args.format == "table":
        print(entry.name)
        print(json.dumps(descriptor))
        for key in sorted(entry.notes):
            print("%-16s%s" % (key, entry.notes[key]))
    else:
        print(json.dumps({"name": entry.name, "descriptor": descriptor,
                          "notes": entry.notes}))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _strict_int(value: str) -> int:
    n = canonical_int(value)  # int() also takes 0_1, +1, 01, " 3", non-ASCII digits
    if n is None:
        raise argparse.ArgumentTypeError("invalid int value: %r" % value)
    return n


def _add_format(parser):
    parser.add_argument("--format", choices=("json", "table"), default="json")


def _add_source(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--space",
                       help="descriptor JSON path or catalog:<name>")
    group.add_argument("--all", action="store_true",
                       help="batch over the whole catalog")


def _build_parser() -> _Parser:
    parser = _Parser(prog="wittkit")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="group tables for one space")
    _add_source(compute)
    compute.add_argument("--theory", required=True,
                         choices=("witt", "gw", "w", "ko", "kok", "k"))
    compute.add_argument("--twist", default=None)
    compute.add_argument("--shift", type=_strict_int, default=None)
    compute.add_argument("--degree", type=_strict_int, default=None)
    _add_format(compute)
    compute.set_defaults(handler=_cmd_compute)

    compare = sub.add_parser("compare", help="Witt vs KO/K verdict")
    _add_source(compare)
    compare.add_argument("--twist", default=None)
    compare.add_argument("--assert", action="store_true", dest="assert_flag")
    _add_format(compare)
    compare.set_defaults(handler=_cmd_compare)

    specseq = sub.add_parser("specseq", help="stable-page read-off")
    specseq.add_argument("--space", required=True)
    specseq.add_argument("--engine", required=True,
                         choices=("pardon", "ko", "k"))
    _add_format(specseq)
    specseq.set_defaults(handler=_cmd_specseq)

    sw = sub.add_parser("sw", help="metabolic total class expansion")
    sw.add_argument("--ring", required=True,
                    help="projective?d=, curve?g=, or generic?rank=")
    sw.add_argument("--rank", type=_strict_int, required=True)
    sw.add_argument("--chern", default="",
                    help="semicolon-joined classes c_1;c_2;... of the Lagrangian")
    sw.add_argument("--complex", action="store_true", dest="complex_base")
    _add_format(sw)
    sw.set_defaults(handler=_cmd_sw)

    catalog = sub.add_parser("catalog", help="registry access")
    catalog.add_argument("--name", default=None)
    _add_format(catalog)
    catalog.set_defaults(handler=_cmd_catalog)

    return parser


# built once per process: parse_args keeps no state between calls and the
# handlers only read the namespace it returns, so run() is reentrant
_PARSER = _build_parser()


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.handler(args)
    except _Exit as exc:
        return exc.args[0]
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except WittkitError as exc:
        print("error [%s]: %s" % (exc.signal, exc), file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
