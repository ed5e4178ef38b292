"""In-memory span tracer for the public functions of ``latentid``.

Every public function is wrapped at each ``latentid.*`` module attribute that
binds it (so calls between modules are seen too), and so is
``numpy.linalg.svd``.  Spans are recorded only while an op is open; each span
keeps its name, its parent and its start and end times.  When the op closes,
its spans are folded into per-name call counts, total times and per-module
self times, and the span list is cleared, so memory stays bounded by one op.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _decompose3_probe(counters, result):
    counters["recovery.decompose3.returned"] += 1
    counters["recovery.decompose3.attempts"] += result.retries_used + 1


def _tripartition_probe(counters, result):
    counters["latent_class.tripartition_search.returned"] += 1
    counters["latent_class.tripartition_search.exhaustive"] += int(result.exhaustive)


#: counters read off a traced function's return value
PROBES = {
    "recovery.decompose3": _decompose3_probe,
    "latent_class.tripartition_search": _tripartition_probe,
}


def span_name(fn) -> str:
    """``tensor_core.kruskal_rank`` for ``latentid.tensor_core.kruskal_rank``."""
    return f"{fn.__module__.removeprefix('latentid.')}.{fn.__name__}"


def module_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Installs span-recording wrappers; aggregates spans per op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.ops = 0
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()  # per module
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "latentid" or name.startswith("latentid.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("latentid.")
                    and not obj.__name__.startswith("_")
                ):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, span_name(obj))
                self._patch(mod, attr, wrappers[id(obj)])
        self._patch(np.linalg, "svd", self._wrap(np.linalg.svd, "numpy.linalg.svd"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1], 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(self.counters, result)
            return result

        return traced

    # -- recording ------------------------------------------------------------

    @contextmanager
    def op(self):
        """Open the root span of one op; spans are recorded only inside it."""
        self.spans.append(["op", -1, perf_counter(), 0.0])
        self.stack.append(0)
        try:
            yield
        finally:
            self.spans[0][3] = perf_counter()
            self.stack.clear()

    def fold(self) -> None:
        """Aggregate the spans of the op that just closed, then drop them."""
        spans = self.spans
        child_seconds = [0.0] * len(spans)
        for name, parent, start, end in spans[1:]:
            child_seconds[parent] += end - start
        for index, (name, _, start, end) in enumerate(spans[1:], start=1):
            duration = end - start
            self.calls[name] += 1
            self.seconds[name] += duration
            self.self_seconds[module_of(name)] += duration - child_seconds[index]
        spans.clear()
        self.ops += 1
