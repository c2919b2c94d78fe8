"""Spans around the public functions of each ``hybnet`` module, from outside.

Each wrapper replaces a module attribute where its callers look it up, or a
method on its class, and records one span (name, start, end, parent) per
call; a wrapped generator records one span per resume.  Spans are kept in
flat arrays and written out at the end.  A layer's time is the self time of
its spans: their duration net of the wrapped spans below them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.items: Counter = Counter()  # results counted by wrappers
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count: Optional[Callable[[object], Optional[str]]] = None):
        """Wrapper of a plain function; `count` maps a result to the name of
        a counter to increment (or None)."""
        name_id = self._id(name)
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                key = count(out)
                if key is not None:
                    items[key] += 1
            return out

        return wrapper

    def wrap_gen(self, name: str, fn, item_counter: str):
        """Wrapper of a generator function: one span per resume, one count
        per item yielded."""
        name_id = self._id(name)
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(name_id)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                items[item_counter] += 1
                yield item

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON header line with the span names and count, then the
        name, parent, start and end arrays in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.name),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(tracer: Tracer, roots: str) -> Dict[str, List[float]]:
    """Per span name: [self seconds, calls], over spans below a top-level
    span named `roots`."""
    n = len(tracer.name)
    child = [0.0] * n
    top = [0] * n
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    for i in range(n):
        p = tracer.parent[i]
        top[i] = i if p < 0 else top[p]
        if p >= 0:
            child[p] += dur[i]
    root_id = tracer.name_ids.get(roots, -1)
    out: Dict[str, List[float]] = {}
    for i in range(n):
        if tracer.name[top[i]] != root_id:
            continue
        acc = out.setdefault(tracer.names[tracer.name[i]], [0.0, 0])
        acc[0] += dur[i] - child[i]
        acc[1] += 1
    return out
