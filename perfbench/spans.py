"""Span tracing of fuzzyheat's layers from outside the program.

The tracer replaces module attributes that callers look up at call time
(``fuzzyheat.uq.solve_crisp``, ``fuzzyheat.fem2d.assemble``, ...) with
wrappers that record one span per call: name, thread id, parent span,
start and end.  Spans stay in memory until the run ends; ``layer_metrics``
then folds them into the per-layer metrics the benchmark reports.

A span opened on a thread with no open span of its own (a worker of
``uq``'s thread pool) takes as parent the innermost open span of the
thread that started tracing, which is blocked in the pool at that time.
Self time is a span's interval minus the union of its children's
intervals, so worker-thread vertex solves are subtracted from
``uq.propagate`` even though they ran on other threads.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _count_mesh(tracer, args, result):
    tracer.counts["mesh.nodes"] = result.n_nodes
    tracer.counts["mesh.triangles"] = len(result.elements)


def _count_system(tracer, args, result):
    nbytes = args[0].K.nbytes
    tracer.counts["fem2d.system_bytes"] = max(tracer.counts.get("fem2d.system_bytes", 0), nbytes)


# (module, attribute, span name, counter hook).  Each attribute is the
# name a caller looks up at call time, so wrapping it catches every call.
# A hook gets (tracer, args, result) and adds counts at the same boundary.
WRAPPED = (
    ("fuzzyheat.cli", "parse_config", "cli.parse_config", None),
    ("fuzzyheat.cli", "generate_structured_mesh", "mesh.generate", _count_mesh),
    ("fuzzyheat.cli", "propagate", "uq.propagate", None),
    ("fuzzyheat.cli", "sensitivity", "uq.sensitivity", None),
    ("fuzzyheat.uq", "solve_crisp", "uq.vertex_solve", None),
    ("fuzzyheat.fem2d", "assemble", "fem2d.assemble", None),
    ("fuzzyheat.fem2d", "dirichlet_nodes", "fem2d.dirichlet", None),
    ("fuzzyheat.fem2d", "apply_dirichlet", "fem2d.dirichlet", None),
    ("fuzzyheat.fem2d", "solve", "fem2d.solve", _count_system),
    ("fuzzyheat.fem1d", "assemble_1d", "fem1d.assemble", None),
    ("fuzzyheat.fem1d", "theta_step", "fem1d.step", None),
    ("fuzzyheat.cli", "write_nodes_csv", "cli.csv_write", None),
    ("fuzzyheat.cli", "write_temperature_csv", "cli.csv_write", None),
    ("fuzzyheat.cli", "write_envelope_csv", "cli.csv_write", None),
    ("fuzzyheat.cli", "write_sensitivity_csv", "cli.csv_write", None),
    ("fuzzyheat.fem1d", "write_timeseries", "cli.csv_write", None),
)


@dataclass
class Span:
    name: str
    thread: int
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    """Records spans of wrapped calls; create one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        span = Span(name, threading.get_ident(), parent, time.perf_counter())
        self.spans.append(span)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str, hook) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, TypeError, IndexError):
                    self.absent.append(f"{name}:counter")
            return result

        return traced

    def install(self, wrapped=WRAPPED) -> None:
        """Wrap every listed attribute; record the missing ones as absent."""
        for module_name, attr, name, hook in wrapped:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, name, hook))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)  # count only what lies beyond earlier intervals
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    return [
        (span.end - span.start) - _union_length(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, workers: int) -> dict[str, float]:
    """Fold one traced run's spans and counts into per-layer metrics."""
    spans = tracer.spans
    own = self_times(spans)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    propagate_wall = busy("uq.propagate")
    solve_busy = busy("uq.vertex_solve")
    return {
        "mesh.generate_s": busy("mesh.generate"),
        "mesh.nodes": tracer.counts.get("mesh.nodes", 0),
        "mesh.triangles": tracer.counts.get("mesh.triangles", 0),
        "fem2d.assemble_s": busy("fem2d.assemble"),
        "fem2d.assemble_calls": calls("fem2d.assemble"),
        "fem2d.dirichlet_s": busy("fem2d.dirichlet"),
        "fem2d.solve_s": busy("fem2d.solve"),
        "fem2d.solve_calls": calls("fem2d.solve"),
        "fem2d.system_bytes": tracer.counts.get("fem2d.system_bytes", 0),
        "uq.propagate_s": propagate_wall,
        "uq.self_s": sum(t for s, t in zip(spans, own) if s.name == "uq.propagate"),
        "uq.vertex_solves": calls("uq.vertex_solve"),
        "uq.parallel_eff": solve_busy / (propagate_wall * workers) if propagate_wall else 0.0,
        "uq.sensitivity_s": busy("uq.sensitivity"),
        "fem1d.assemble_s": busy("fem1d.assemble"),
        "fem1d.step_s": busy("fem1d.step"),
        "fem1d.steps": calls("fem1d.step"),
        "cli.parse_config_s": busy("cli.parse_config"),
        "cli.csv_write_s": busy("cli.csv_write"),
        "trace.absent": len(tracer.absent),
    }
