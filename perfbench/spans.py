"""Span tracing for the traced benchmark run.

A :class:`Tracer` wraps the public entry points of each ``thetaq`` layer
from outside the package: every binding of a wrapped function in a
loaded ``thetaq`` module is replaced, so callers that imported the name
with ``from .x import f`` are traced too.  Each call records a span
``[name, start_ns, end_ns, parent_index, record_id]``; spans stay in
memory until :meth:`Tracer.write` saves them.  :meth:`Tracer.uninstall`
puts every original binding back.

The per-layer counts (multiply-accumulate totals, table cells, repeat
and hit ratios) are computed from call arguments and results, never
timed, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()

# (span name, defining module, attribute path).  A single-name path is a
# module-level function and is rebound in every thetaq module holding it;
# a dotted path is patched on the class or instance that owns it.
TARGETS = (
    ("series.mul", "thetaq.series", "HalfPowerSeries.__mul__"),
    ("series.add", "thetaq.series", "HalfPowerSeries.__add__"),
    ("series.compare", "thetaq.series", "HalfPowerSeries.compare"),
    ("series.dissect", "thetaq.series", "HalfPowerSeries.dissect"),
    ("theta.expand", "thetaq.theta", "theta_expand"),
    ("identity.product_expand", "thetaq.identity", "ThetaProduct.expand"),
    ("identity.verify", "thetaq.identity", "IdentityEntry.verify"),
    ("repcount.table", "thetaq.repcount", "count_table"),
    ("repcount.table_cache", "thetaq.repcount", "TABLE_CACHE.get"),
    ("repcount.enumerate", "thetaq.repcount", "count_enumerate"),
    ("repcount.series", "thetaq.repcount", "count_series"),
    ("repcount.scan", "thetaq.repcount", "nonrep_scan"),
    ("relations.verify", "thetaq.relations", "verify_relation"),
    ("relations.classical", "thetaq.relations", "classical_check"),
    ("cli.main", "thetaq.cli", "main"),
)

# per-layer metric prefix -> span names whose self time it sums
SELF_TIME_GROUPS = {
    "series.mul": ("series.mul",),
    "series.other": ("series.add", "series.compare", "series.dissect"),
    "theta.expand": ("theta.expand",),
    "identity.product_expand": ("identity.product_expand",),
    "identity.verify": ("identity.verify",),
    "repcount.table": ("repcount.table",),
    "repcount.enumerate": ("repcount.enumerate",),
    "repcount.series": ("repcount.series",),
    "repcount.scan": ("repcount.scan",),
    "relations.verify": ("relations.verify",),
    "relations.classical": ("relations.classical",),
    "cli.main": ("cli.main",),
}


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        end - start - covered_ns(start, end, children[i])
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


class Tracer:
    """Records spans around the thetaq layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.record = None  # id of the record being run; set by the caller
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.mul_shapes: list[tuple[int, int, int, int, int]] = []
        self.expand_keys: list[tuple] = []
        self.table_args: list[tuple] = []

    # ------------------------------------------------------------------
    # installing and removing wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {
            "series.mul": self._after_mul,
            "theta.expand": self._after_expand,
            "repcount.table": self._after_table,
        }
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, after.get(name))
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for mod in _thetaq_modules():
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        # instance patches (TABLE_CACHE.get) have no entry of their own
        previous = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, after):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.record]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # computed counts: arguments and results only, never clocks
    # ------------------------------------------------------------------

    def _after_mul(self, args, result) -> None:
        a, b = args[0].coeffs, args[1].coeffs
        self.mul_shapes.append(
            (a.size, b.size, int((a != 0).sum()), int((b != 0).sum()), result.coeffs.size)
        )

    def _after_expand(self, args, result) -> None:
        self.expand_keys.append((self.record, args[0], args[1]))

    def _after_table(self, args, result) -> None:
        spec, limit = args
        self.table_args.append((spec.terms, limit))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded."""
        from thetaq.repcount import figurate_values

        self_ns = self_times_ns(self.spans)
        by_name = defaultdict(int)
        calls = defaultdict(int)
        for span, ns in zip(self.spans, self_ns):
            by_name[span[0]] += ns
            calls[span[0]] += 1
        out: dict[str, float] = {}
        for group, names in SELF_TIME_GROUPS.items():
            out[f"{group}.self_s"] = sum(by_name[n] for n in names) / 1e9

        out["series.mul.calls"] = calls["series.mul"]
        out["series.mul.out_width_max"] = max((s[4] for s in self.mul_shapes), default=0)
        out["series.mul.dense_macs"] = sum(n1 * n2 for n1, n2, _, _, _ in self.mul_shapes)
        out["series.mul.sparse_macs"] = sum(
            min(z1 * n2, z2 * n1) for n1, n2, z1, z2, _ in self.mul_shapes
        )

        repeats = len(self.expand_keys) - len(set(self.expand_keys))
        out["theta.expand.calls"] = calls["theta.expand"]
        out["theta.expand.repeat_ratio"] = _ratio(repeats, len(self.expand_keys))

        out["identity.product_expand.calls"] = calls["identity.product_expand"]

        @functools.cache
        def values(kind, limit):
            return len({v for _, v in figurate_values(kind, limit)})

        out["repcount.table.builds"] = len(self.table_args)
        out["repcount.table.cells"] = sum(limit + 1 for _, limit in self.table_args)
        out["repcount.table.pair_cells"] = sum(
            values(k1, limit // a1) * values(k2, limit // a2)
            for ((a1, k1), (a2, k2), _), limit in self.table_args
        )
        cache_spans = [i for i, s in enumerate(self.spans) if s[0] == "repcount.table_cache"]
        building = {s[3] for s in self.spans if s[0] == "repcount.table"}
        out["repcount.table_cache.calls"] = len(cache_spans)
        out["repcount.table_cache.hit_ratio"] = _ratio(
            sum(i not in building for i in cache_spans), len(cache_spans)
        )
        out["repcount.enumerate.calls"] = calls["repcount.enumerate"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Save the spans as JSON: one [name, start, end, parent, record] each."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "record"],
                       "spans": self.spans}, fh)


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _thetaq_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "thetaq" or name.startswith("thetaq."))
    ]
