"""Outside-in call tracer for the decoybb84 package.

Nothing inside the package is instrumented. While an op runs under
``Tracer.op``, every public module-level function of every traced module is
replaced by a timing wrapper in every ``decoybb84`` namespace that holds a
reference to it, so calls made through ``from .x import f`` bindings are seen
as well as calls through module attributes. The originals are restored when
the op ends, so untraced ops run the unmodified code.

Each call becomes a span (name, start, end, parent span, op id). Spans are kept
in memory and written out with ``write_spans`` when the run ends. Per-function
call counts, total time and self time (span time minus the time of its child
spans) are accumulated for every call, and so is the time each function
spends in direct calls to each other one (``edge_s``), so a function called
from several places can be split by caller. The span log itself keeps the
first ``MAX_SPANS`` spans and counts the rest, because a traced grid search
makes millions of calls.
"""

from __future__ import annotations

import csv
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Mapping, Tuple

PACKAGE = "decoybb84"
MAX_SPANS = 200_000
OP_SPAN = "bench.op"

# hook(args, kwargs, result, counts) adds computed counts for one call.
Hook = Callable[[tuple, dict, object, Dict[str, float]], None]


class Tracer:
    def __init__(self, modules: Mapping[str, object], hooks: Mapping[str, Hook]) -> None:
        self.originals: Dict[str, Callable] = {}
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    self.originals[f"{layer}.{name}"] = fn
        unknown = set(hooks) - set(self.originals)
        if unknown:
            raise KeyError(f"hooks for functions that are not traced: {sorted(unknown)}")
        self.names: List[str] = [OP_SPAN, *self.originals]
        # name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {n: [0, 0.0, 0.0] for n in self.names}
        # (caller, callee) -> seconds the caller spent in direct calls to the callee
        self.edge_s: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[str, float] = {}
        self.spans_dropped = 0
        self._span_name = array("I")
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._next_id = 0
        self._op_id = -1
        # One frame per open span: [child_time_s, span_id, name].
        self._stack: List[list] = []
        name_ids = {n: i for i, n in enumerate(self.names)}
        self._wrappers = {
            id(fn): (fn, self._wrap(name, name_ids[name], fn, hooks.get(name)))
            for name, fn in self.originals.items()
        }

    def _open(self, name: str) -> Tuple[list, float]:
        frame = [0.0, self._next_id, name]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name: str, name_id: int, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[0]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[0] += duration
            edge = (parent[2], name)
            self.edge_s[edge] = self.edge_s.get(edge, 0.0) + duration
        if len(self._span_id) < MAX_SPANS or name == OP_SPAN:
            self._span_name.append(name_id)
            self._span_id.append(frame[1])
            self._span_parent.append(parent[1] if parent is not None else -1)
            self._span_op.append(self._op_id)
            self._span_start.append(start)
            self._span_end.append(end)
        else:
            self.spans_dropped += 1

    def _wrap(self, name: str, name_id: int, fn: Callable, hook) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, name_id, frame, start)
            if hook is not None:
                hook(args, kwargs, result, self.counts)
            return result

        return traced

    def _namespaces(self):
        prefix = PACKAGE + "."
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: patch, open the op's root span, restore on exit."""
        patched = []
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        self._op_id = op_id
        frame, start = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(OP_SPAN, 0, frame, start)
            for module, attr, value in patched:
                setattr(module, attr, value)

    @property
    def traced_wall_s(self) -> float:
        return self.stats[OP_SPAN][1]

    @property
    def spans_kept(self) -> int:
        return len(self._span_id)

    def write_spans(self, path) -> None:
        """One CSV row per kept span; times are seconds on the perf counter."""
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span_id", "name", "start_s", "end_s", "parent_id", "op_id"])
            for i in range(len(self._span_id)):
                out.writerow([
                    self._span_id[i],
                    self.names[self._span_name[i]],
                    repr(self._span_start[i]),
                    repr(self._span_end[i]),
                    self._span_parent[i],
                    self._span_op[i],
                ])
