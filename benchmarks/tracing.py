"""Span tracing of the affschur modules, installed from outside the package.

``install`` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op id).  The modules import each
other's functions by name (``from .linalg import solve_many``), so the
wrapper is bound in every ``affschur`` module that holds the original
object, not only in the module that defines it; otherwise calls would
escape their span.  Two methods are patched on their classes:
``AlgebraElement.__init__`` becomes a span and ``StructureTable.product``
becomes a pair of counters (lookups and fills).

Spans are recorded only while ``Tracer.active`` is set, so input
generation and correctness checks in the benchmark stay out of the trace.
They stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Traced public functions, by affschur submodule; a span is named
# "<module>.<function>".
TRACED_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "weyl": ("transporter", "stabilizer"),
    "multiplication": ("multiply", "multiply_oracle"),
    "hecke": ("quotient_image", "laurent_lift", "hecke_embed"),
    "cellular": (
        "monomial_image",
        "laurent_to_corner",
        "corner_to_laurent",
        "decompose_left",
        "decompose_right",
        "tensor_to_ideal",
        "omega_candidates",
        "ideal_membership",
        "batch_ideal_membership",
    ),
    "linalg": ("solve_many", "rank"),
    "verify": ("verify_cell_chain",),
    "cli": ("run",),
}

INIT_SPAN = "core.AlgebraElement"
TABLE_LOOKUPS = "multiplication.table.lookups"
TABLE_FILLS = "multiplication.table.fills"


def _solve_many_attrs(args, kwargs, result) -> dict:
    cols, rows, entries, rhs_list = args
    attrs = {
        "rhs": len(rhs_list),
        "rows": len(rows),
        "cols": len(cols),
        "nnz": sum(1 for value in entries.values() if value),
    }
    for outcome in result:
        attrs[outcome.status] = attrs.get(outcome.status, 0) + 1
    return attrs


def _rank_attrs(args, kwargs, result) -> dict:
    return {"cols": len(args[0].cols)}


def _omega_candidates_attrs(args, kwargs, result) -> dict:
    return {"returned": len(result)}


def _batch_attrs(args, kwargs, result) -> dict:
    return {"rhs": len(args[0])}


# Per-call attributes computed after the span has ended, so their cost is
# not charged to the span.
SPAN_ATTRS = {
    "linalg.solve_many": _solve_many_attrs,
    "linalg.rank": _rank_attrs,
    "cellular.omega_candidates": _omega_candidates_attrs,
    "cellular.batch_ideal_membership": _batch_attrs,
}


class Tracer:
    """In-memory span store plus the current span and op id.

    ``clock`` gives span times; a worker that probes the CPU speed passes
    one that leaves out the probe's own time (see ``probe.Probe.clock``).
    """

    def __init__(self, record_callers: bool = False, clock=perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.op = -1
        self.current = -1
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, int] = defaultdict(int)
        # module names binding each traced original, filled by install()
        self.bindings: dict[str, list[str]] = {}
        self.originals: list = []
        # (span name, calling module) pairs, recorded only when asked for
        self.callers: set[tuple[str, str]] | None = (
            set() if record_callers else None
        )

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span_wrapper(self, name: str, fn):
        name_id = self.name_id(name)
        attrs_fn = SPAN_ATTRS.get(name)
        spans = self.spans
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.callers is not None:
                caller = sys._getframe(1).f_globals.get("__name__", "?")
                tracer.callers.add((name, caller))
            parent = tracer.current
            sid = len(spans)
            spans.append(None)
            tracer.current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                spans[sid] = (name_id, parent, tracer.op, start, end)
            if attrs_fn is not None:
                tracer.attrs[sid] = attrs_fn(args, kwargs, result)
            return result

        return wrapper

    def table_wrapper(self, fn):
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def product(table, a, b):
            if not tracer.active:
                return fn(table, a, b)
            before = len(table)
            result = fn(table, a, b)
            counters[TABLE_LOOKUPS] += 1
            if len(table) > before:
                counters[TABLE_FILLS] += 1
            return result

        return product


def _affschur_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "affschur" or name.startswith("affschur."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every affschur module binding it."""
    from affschur import core, multiplication

    homes = {
        name: importlib.import_module(f"affschur.{name}")
        for name in TRACED_FUNCTIONS
    }
    modules = _affschur_modules()
    for module_name, attrs in TRACED_FUNCTIONS.items():
        home = homes[module_name]
        for attr in attrs:
            original = getattr(home, attr)
            tracer.originals.append(original)
            name = f"{module_name}.{attr}"
            wrapper = tracer.span_wrapper(name, original)
            bound_in = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound_in.append(module.__name__)
            tracer.bindings[name] = bound_in
    core.AlgebraElement.__init__ = tracer.span_wrapper(
        INIT_SPAN, core.AlgebraElement.__init__
    )
    multiplication.StructureTable.product = tracer.table_wrapper(
        multiplication.StructureTable.product
    )


def escaped_bindings(tracer: Tracer) -> list[str]:
    """Module attributes still bound to an original traced function."""
    return [
        f"{module.__name__}.{key}"
        for module in _affschur_modules()
        for key, value in vars(module).items()
        if any(value is original for original in tracer.originals)
    ]


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, total time and self time, plus summed attributes.

    A span's self time is its duration minus the durations of its
    children; spans of one thread nest, so children never overlap.
    """
    spans = [span for span in tracer.spans if span is not None]
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    root_self = 0.0
    for sid, span in enumerate(tracer.spans):
        if span is None:
            continue
        name_id, _, _, start, end = span
        name = tracer.names[name_id]
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        self_s = (end - start) - child_time.get(sid, 0.0)
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
        root_self += self_s
        for key, value in tracer.attrs.get(sid, {}).items():
            entry[key] = entry.get(key, 0) + value
    out["_all"] = {"self_s": root_self, "spans": len(spans)}
    return out


def solves_under(tracer: Tracer, solver: str, ancestor: str) -> int:
    """Number of ``solver`` spans that run inside an ``ancestor`` span."""
    solver_id = {i for i, n in enumerate(tracer.names) if n == solver}
    ancestor_id = {i for i, n in enumerate(tracer.names) if n == ancestor}
    count = 0
    for span in tracer.spans:
        if span is None or span[0] not in solver_id:
            continue
        parent = span[1]
        while parent >= 0:
            up = tracer.spans[parent]
            if up[0] in ancestor_id:
                count += 1
                break
            parent = up[1]
    return count


def write_spans(tracer: Tracer, path) -> None:
    """Gzipped JSON lines, one per span: id, name, parent, op, start, end
    and the span's attributes."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for sid, span in enumerate(tracer.spans):
            if span is None:
                continue
            name_id, parent, op, start, end = span
            handle.write(
                json.dumps(
                    {
                        "id": sid,
                        "name": tracer.names[name_id],
                        "parent": parent,
                        "op": op,
                        "start": start,
                        "end": end,
                        **tracer.attrs.get(sid, {}),
                    },
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
