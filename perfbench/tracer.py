"""In-memory span recorder for timing geomimic's layers from outside.

Functions are wrapped where the calling module looks them up (for
example ``geomimic.training.graph_from_entities``, which is the name
``attach_frame`` resolves at call time), so the library itself is not
edited. Spans stay in memory and are written out once, at exit.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple


class Binding(NamedTuple):
    """One name to wrap: ``owner.attr`` is recorded as span ``name``.

    ``note`` turns (args, result) into a small dict stored on the span,
    so no large result object is kept alive.
    """

    owner: object
    attr: str
    name: str
    note: Callable[[tuple, object], dict] | None = None


class Recorder:
    """Spans of the form [name, start_ns, end_ns, parent, request, note].

    ``parent`` is the index of the enclosing recorded span (-1 at top
    level). ``request`` is whatever label the caller set before the
    operation, so spans of one operation share it. ``note`` is the
    binding's note dict, or {"error": <exception type>} when the call
    raised.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = ""
        self._stack: list[int] = []

    @contextmanager
    def wrapped(self, bindings: Iterable[Binding]):
        """Install wrappers for the duration of the block, then restore."""
        originals = []
        try:
            for b in bindings:
                original = getattr(b.owner, b.attr)
                originals.append((b.owner, b.attr, original))
                setattr(b.owner, b.attr, self._wrap(original, b.name, b.note))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if note is not None:
                span[5] = note(args, result)
            return result

        return recorded

    def mark(self) -> int:
        """Index of the next span; spans[mark():] are the ones recorded later."""
        return len(self.spans)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, note in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                            "note": note,
                        }
                    )
                    + "\n"
                )


class SpanStats:
    """Totals, counts and self times per span name over a span range."""

    def __init__(self, spans: list[list], start: int, stop: int) -> None:
        self.spans = spans
        self.indices = range(start, stop)
        child_ns = {}
        for i in self.indices:
            _, s, e, parent, _, _ = spans[i]
            if parent >= start:
                child_ns[parent] = child_ns.get(parent, 0) + (e - s)
        self.child_ns = child_ns

    def of(self, *names: str) -> list[int]:
        return [i for i in self.indices if self.spans[i][0] in names]

    def dur_ns(self, i: int) -> int:
        return self.spans[i][2] - self.spans[i][1]

    def self_ns(self, i: int) -> int:
        return self.dur_ns(i) - self.child_ns.get(i, 0)

    def total_ms(self, *names: str) -> float:
        return sum(self.dur_ns(i) for i in self.of(*names)) / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(self.self_ns(i) for i in self.of(*names)) / 1e6

    def count(self, *names: str) -> int:
        return len(self.of(*names))

    def mean_us(self, *names: str) -> float:
        return self.mean_us_at(self.of(*names))

    def mean_us_at(self, indices: list[int]) -> float:
        return sum(self.dur_ns(i) for i in indices) / 1e3 / len(indices) if indices else 0.0

    def note_sum(self, key: str, *names: str) -> float:
        return sum((self.spans[i][5] or {}).get(key, 0) for i in self.of(*names))

    def parent_name(self, i: int) -> str | None:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None
