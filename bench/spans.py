"""Per-layer spans, recorded from outside the package.

``Tracer.install`` replaces every public function of every loaded
``wittkit.*`` module, in every wittkit namespace that binds it (``witt``
imports ``snf`` by name, so ``wittkit.witt.snf`` is wrapped too), by a
wrapper that records a span: function, start, end, parent span and whether
it raised. Spans stay in memory for one query and are folded into
per-function totals between queries, outside the timed calls. A layer is the
module that defines the function.
"""

from __future__ import annotations

import sys
import time
import types

LAYERS = ("cli", "catalog", "compare", "witt", "topko", "specseq", "spaces",
          "groups")

# functions whose self time makes up groups.homology
HOMOLOGY = ("kernel", "cokernel", "cokernel_map", "homology_at", "check_exact")


def _wittkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wittkit" or name.startswith("wittkit."))]


def _snf_cells(args, kwargs):
    m = args[0] if args else kwargs["m"]
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    cols = args[2] if len(args) > 2 else kwargs.get("cols")
    nr = rows if rows is not None else len(m)
    nc = cols if cols is not None else (len(m[0]) if m else 0)
    return nr, nc


class Tracer:
    def __init__(self):
        self.names = []          # fid -> (layer, function)
        self.spans = []          # (fid, start_ns, end_ns, parent, raised)
        self.stack = []
        self.patches = []        # (module, attribute, original, wrapper)
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.errors = {}
        self.snf_cells = 0
        self.snf_max_dim = 0
        self.pages_turned = 0
        self.unknown_arrows = 0

    # -- wrapping ---------------------------------------------------------

    def install(self):
        modules = _wittkit_modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, layer, name)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self.patches.append((mod, name, obj, wrappers[obj]))
        self.enable()

    def enable(self):
        for mod, name, _, wrapper in self.patches:
            setattr(mod, name, wrapper)

    def disable(self):
        for mod, name, original, _ in self.patches:
            setattr(mod, name, original)

    def _wrap(self, fn, layer, name):
        fid = len(self.names)
        self.names.append((layer, name))
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        on_call = self._on_snf if (layer, name) == ("groups", "snf") else None
        on_result = self._on_report if (layer, name) == ("specseq", "run_to_stable") else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if on_call is not None:
                on_call(args, kwargs)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, raised)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _on_snf(self, args, kwargs):
        nr, nc = _snf_cells(args, kwargs)
        self.snf_cells += nr * nc
        self.snf_max_dim = max(self.snf_max_dim, nr, nc)

    def _on_report(self, report):
        self.pages_turned += report.pages_turned
        self.unknown_arrows += len(report.unknown_arrows)

    # -- folding ----------------------------------------------------------

    def fold(self):
        """Add the spans recorded since the last fold to the totals."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (fid, start, end, _, raised) in enumerate(spans):
            self.calls[fid] = self.calls.get(fid, 0) + 1
            self.total_ns[fid] = self.total_ns.get(fid, 0) + (end - start)
            self.self_ns[fid] = self.self_ns.get(fid, 0) + (end - start) - child_ns[idx]
            if raised:
                self.errors[fid] = self.errors.get(fid, 0) + 1
        spans.clear()

    # -- metrics ----------------------------------------------------------

    def _sum(self, table, pred):
        return sum(v for fid, v in table.items() if pred(*self.names[fid]))

    def _fn(self, table, layer, name, scale=1):
        return self._sum(table, lambda l, n: (l, n) == (layer, name)) * scale

    def metrics(self) -> dict:
        ms = 1e-6
        out = {}
        for layer in LAYERS:
            own = lambda l, n, layer=layer: l == layer
            out[layer + ".calls"] = self._sum(self.calls, own)
            out[layer + ".self_ms"] = self._sum(self.self_ns, own) * ms
            out[layer + ".errors"] = self._sum(self.errors, own)
        out["groups.snf.calls"] = self._fn(self.calls, "groups", "snf")
        out["groups.snf.self_ms"] = self._fn(self.self_ns, "groups", "snf", ms)
        out["groups.snf.cells"] = self.snf_cells
        out["groups.snf.max_dim"] = self.snf_max_dim
        out["groups.direct_sum.calls"] = self._fn(self.calls, "groups", "direct_sum")
        for name in ("direct_sum", "parse_group", "render"):
            out["groups.%s.self_ms" % name] = self._fn(self.self_ns, "groups", name, ms)
        # parse_group and report_from_json spend their time in children
        # (direct_sum, snf); their inclusive time shows what they cost
        out["groups.parse_group.total_ms"] = self._fn(self.total_ns, "groups", "parse_group", ms)
        out["compare.report_from_json.total_ms"] = self._fn(
            self.total_ns, "compare", "report_from_json", ms)
        out["groups.homology.self_ms"] = self._sum(
            self.self_ns, lambda l, n: l == "groups" and n in HOMOLOGY) * ms
        out["specseq.pages_turned"] = self.pages_turned
        out["specseq.unknown_arrows"] = self.unknown_arrows
        for layer, names in (
            ("specseq", ("pardon_stable", "ahss_ko", "ahss_k")),
            ("witt", ("witt_table", "karoubi_check")),
            ("topko", ("ko_table", "kok")),
            ("compare", ("compare_w_kok", "report_to_json", "report_from_json")),
            ("spaces", ("descriptor_from_json", "descriptor_to_json", "make_surface")),
            ("catalog", ("catalog_get",)),
            ("cli", ("run",)),
        ):
            for name in names:
                out["%s.%s.self_ms" % (layer, name)] = self._fn(self.self_ns, layer, name, ms)
        out["catalog.catalog_get.calls"] = self._fn(self.calls, "catalog", "catalog_get")
        return out
