"""Outside-in tracer: timing wrappers around endocheck's public functions.

``Tracer.install`` replaces every public function of the traced layers with
a wrapper, in the defining module and under every other name the package
bound it to (``simulation.compute_statistics``, ``estimators.design_matrices``
and so on), so calls between modules are seen too. ``uninstall`` puts the
originals back. Spans stay in memory; ``dump`` writes them out at the end.

A span is ``(id, parent_id, name, op, start, end)``; ``op`` is the index of
the benchmark operation (one CLI call or one dataset) it belongs to. Self
time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("data", "simulation", "estimators", "linalg", "endogeneity", "cli")
QR_FUNCTIONS = ("linalg.solve_least_squares", "linalg.rank_report")
SERIALIZE_SPANS = ("cli.json.dumps", "simulation.write_result_json", "simulation.write_result_csv")
F64 = 8


def _shape2(a) -> tuple[int, int]:
    shape = np.shape(a)
    if len(shape) == 1:
        return shape[0], 1
    return shape[0], shape[1]


def qr_cost(args) -> tuple[int, int]:
    """Computed flops and bytes of one pivoted economic QR (plus the solve).

    For A (m, k): geqp3 2mk^2 - 2k^3/3, forming the economic Q (orgqr)
    2mk^2 - 2k^3/3, column norms 2mk; with a right-hand side B (m, c) add
    Q'B 2mkc and the triangular solve k^2 c. Bytes count each operand and
    result once: A, Q, R, B and the solution, 8 bytes per element. These are
    counts from the argument shapes, not measurements of memory traffic.
    """
    m, k = _shape2(args[0])
    flops = 4 * m * k * k - (4 * k ** 3) // 3 + 2 * m * k
    elems = 2 * m * k + k * k
    if len(args) > 1:
        _, c = _shape2(args[1])
        flops += 2 * m * k * c + k * k * c
        elems += m * c + k * c
    return flops, elems * F64


class _JsonProxy:
    """Stands in for the ``json`` module inside ``endocheck.cli`` so the
    report's ``json.dumps`` is timed without touching the real module."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and operation counts of one traced run.

    ``op`` is set by the caller to the index of the current operation.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``;
        called outside any traced function, the span is a root."""
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter
        cost = qr_cost if name in QR_FUNCTIONS else None
        rows = name == "data.load_csv"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cost is not None:
                flops, nbytes = cost(args)
                counts["linalg.qr.flops"] += flops
                counts["linalg.qr.bytes"] += nbytes
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, tracer.op, t0, t1))
            if rows:
                counts["data.load_csv.rows"] += result.n
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("endocheck")
        modules = {layer: importlib.import_module(f"endocheck.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])
        cli = modules["cli"]
        if getattr(cli, "json", None) is json:
            self._restore.append((cli, "json", json))
            cli.json = _JsonProxy(json, self.wrap("cli.json.dumps", json.dumps))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def functions(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                children[parent].append((t0, t1))
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, _, t0, t1 in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()))
        return dict(table)

    def coverage(self) -> float:
        """Share of root-span wall time spent inside leaf spans.

        A leaf is a non-root span that made no traced call. Time between
        traced calls (argument handling, loops, glue code inside a wrapped
        function) is uncovered, so work moved out of the wrapped public
        functions lowers coverage instead of reading as a saving.
        """
        has_children = {parent for _, parent, *_ in self.spans}
        root_s = leaf_s = 0.0
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent < 0:
                root_s += t1 - t0
            elif sid not in has_children:
                leaf_s += t1 - t0
        return leaf_s / root_s if root_s > 0 else 0.0

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
