"""In-memory span recording around rweval's layer boundaries.

While a Tracer is installed, the module attributes named in a layer map are
replaced by wrappers that record one span per call: name, start, end, parent
span and op id.  Callers inside rweval look those names up at call time, so
the spans nest the way the calls do.  Spans stay in memory and are written
out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1  # ops run one at a time; jobs inside an op may be threaded
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.op,
                      threading.get_ident())
        with self._lock:  # jobs of one campaign record spans from pool threads
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    record.extra.update(on_result(result))
                return result

        return traced

    def install(self, layers) -> list[str]:
        """Wrap each (module, attribute, span name[, on_result]) in layers.
        Returns the targets that no longer exist, so the caller can say so."""
        missing = []
        for module_name, attr, name, *rest in layers:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, *rest))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(i, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op, "thread": span.thread,
                    **span.extra,
                }) + "\n")
