"""In-memory span recorder used by the traced benchmark run.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call — name, start, end and the span that was open
when the call began — and, through an optional hook, counts the work
the call did.  Spans stay in memory until the run ends; :meth:`restore`
puts every original back.  The traced run is single-threaded and
in-process, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_MISSING = object()


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, owner: Any, attr: str, span: str,
             before: Callable[..., Any] | None = None,
             after: Callable[..., None] | None = None) -> None:
        """Record a span named ``span`` around every call of ``owner.attr``.

        ``before(args, kwargs)`` runs ahead of the call and its return
        value reaches ``after(tracer, state, args, kwargs, result)``,
        which runs once the call has returned.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(Span(span, time.perf_counter_ns(), 0, parent))
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index].end_ns = time.perf_counter_ns()
            if after is not None:
                after(tracer, state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover."""
        children: list[list[tuple[int, int]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start_ns, span.end_ns))
        return [
            span.duration_ns - covered_ns(kids)
            for span, kids in zip(self.spans, children)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [[s.name, s.start_ns, s.end_ns, s.parent]
                      for s in self.spans],
            "counts": self.counts,
        }))


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
