"""Span tracer for the benchmark's traced run.

The tracer wraps public beatsched functions in place, in every beatsched
module namespace that holds them, so that calls from one module into
another pass through the wrapper without any source edit. Each wrapped
call records a span (id, parent id, instance, name, start, end) and
adds its duration to its parent's child time, which gives self time.
Counters that measure work (matrix cells, beats, routes) are read at
the same boundaries from the call's arguments and result.

The wrappers are built once; `install` and `uninstall` only swap module
attributes, so the benchmark can trace one instance execution at a time
and run its correctness checks untraced.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_derive(counters, args, kwargs, result):
    n = _arg(args, kwargs, 1, "pair").total_senders
    counters["model.sender_pairs_derived"] += n * (n - 1) // 2


def _count_matrix(counters, args, kwargs, result):
    counters["periods.build_matrix.cells"] += result.t1 * result.t2


def _count_continuation(counters, args, kwargs, result):
    counters["periods.continuation.cells"] += len(result) * len(result[0])


def _count_support(counters, args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    counters["matching.max_support_set.cells"] += len(matrix) * len(matrix[0])
    counters["matching.max_support_set.support"] += result[1]


def _count_schedule(counters, args, kwargs, result):
    counters["scheduler.beats_built"] += result.period


def _count_run(counters, args, kwargs, result):
    counters["simulator.run.beats"] += result.window_start - 1 + result.window_beats


def _count_routes(counters, args, kwargs, result):
    counters["optimizer.routes_from_graph.routes"] += len(result)


def _count_grid(counters, args, kwargs, result):
    evaluated = sum(1 for c in result.search_log if c.note == "evaluated")
    counters["optimizer.grid_points.evaluated"] += evaluated
    counters["optimizer.grid_points.skipped"] += len(result.search_log) - evaluated


# (module, function, counter) for every traced boundary. The span name is
# "<module>.<function>", which is also the layer-qualified metric prefix.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("model", "derive_relation", _count_derive),
    ("model", "is_concurrency_subset", None),
    ("model", "validate_path_rules", None),
    ("analysis", "interference_intensity", None),
    ("analysis", "concurrency_intensity", None),
    ("analysis", "connection_degrees", None),
    ("analysis", "analyze", None),
    ("periods", "intrinsic_period", None),
    ("periods", "is_reachable_period", None),
    ("periods", "build_matrix", _count_matrix),
    ("periods", "continuation", _count_continuation),
    ("matching", "max_support_set", _count_support),
    ("scheduler", "schedule_primary", _count_schedule),
    ("scheduler", "schedule_pair_equal", _count_schedule),
    ("scheduler", "schedule_pair_unequal", _count_schedule),
    ("scheduler", "audit_schedule", None),
    ("simulator", "run", _count_run),
    ("simulator", "measure_delay", None),
    ("optimizer", "routes_from_graph", _count_routes),
    ("optimizer", "materialize_pair", None),
    ("optimizer", "optimize", _count_grid),
)

COUNTERS = (
    "model.sender_pairs_derived",
    "periods.build_matrix.cells",
    "periods.continuation.cells",
    "matching.max_support_set.cells",
    "matching.max_support_set.support",
    "scheduler.beats_built",
    "simulator.run.beats",
    "optimizer.routes_from_graph.routes",
    "optimizer.grid_points.evaluated",
    "optimizer.grid_points.skipped",
)

CLI_TARGETS = TARGETS + (("cli", "parse_scenario", None),)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, targets=TARGETS) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.instance = -1
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        # one column per span field, kept compact so long passes fit in memory
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self.span_name = array("h")
        self.span_start = array("d")
        self.span_end = array("d")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "beatsched" or name.startswith("beatsched."))
        ]
        for module_name, func_name, count in targets:
            original = getattr(sys.modules[f"beatsched.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        """Point every beatsched reference to a target at its wrapper."""
        for module, attr, original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, wrapper in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn, count):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[index] += 1
                tracer.total_s[index] += duration
                tracer.self_s[index] += duration - frame[1]
                tracer.span_id.append(frame[0])
                tracer.span_parent.append(parent)
                tracer.span_instance.append(tracer.instance)
                tracer.span_name.append(index)
                tracer.span_start.append(start)
                tracer.span_end.append(end)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-name calls, self and inclusive seconds, plus the counters."""
        return {
            "functions": {
                name: {"calls": c, "self_s": s, "total_s": t}
                for name, c, s, t in zip(self.names, self.calls, self.self_s, self.total_s)
            },
            "counters": dict(self.counters),
        }

    def span_rows(self):
        for i in range(len(self.span_id)):
            yield (
                self.span_id[i],
                self.span_parent[i],
                self.span_instance[i],
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
            )


SPAN_FIELDS = ("id", "parent", "instance", "name", "start_s", "end_s")


def write_spans(path: Path, rows) -> int:
    """Write spans as gzip-compressed CSV; returns the number written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with gzip.open(path, "wt", newline="", compresslevel=3) as handle:
        writer = csv.writer(handle)
        writer.writerow(SPAN_FIELDS)
        for row in rows:
            writer.writerow(row)
            written += 1
    return written
