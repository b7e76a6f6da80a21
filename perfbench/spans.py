"""In-memory span tracing of the simulator's layer boundaries.

A :class:`Tracer` records one span per call into a layer's public function:
``{name, start, end, parent, run}``.  Spans stay in memory and are written
out once, when the benchmark ends.  The program itself is not edited: the
traced process swaps each timed function for a timing wrapper at the name
its caller resolves (a module global or a class attribute), and
:func:`patched` puts every original back on exit.  Untraced runs never see
a wrapper.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "patched", "self_times", "totals_by_name", "write_spans"]


@dataclass(frozen=True)
class Span:
    """One timed call: ``parent`` is the index of the enclosing span, or -1."""

    name: str
    start: float
    end: float
    parent: int
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Called after a wrapped function returns, with its positional arguments,
#: keyword arguments and result; adds to the tracer's counters.
CountHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Collects the nested spans and named counters of one traced run."""

    def __init__(self, run: int = 0) -> None:
        self.spans: List[Optional[Span]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.run = run
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the slot so children index after it
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[CountHook] = None
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``count`` sees each call's result."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def finished(self) -> List[Span]:
        """The spans of calls that have returned, in call order."""
        return [s for s in self.spans if s is not None]


def write_spans(path: Path, spans: Sequence[Span], meta: Dict[str, Any]) -> None:
    """Write spans, plus ``meta``, as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "spans": [asdict(s) for s in spans]}) + "\n")


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[Any, str, Callable[[Callable[..., Any]], Any]]]) -> Iterator[None]:
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore.

    ``owner`` is a module or a class.  An attribute a class only inherits
    is shadowed on that class and deleted again on exit, so the base class
    is never touched.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and overlapping children count
    once, so the result is never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, edge), min(end, s.end)
            if end > start:
                covered += end - start
                edge = end
        out.append(s.duration - covered)
    return out


def totals_by_name(spans: Sequence[Span], values: Optional[Sequence[float]] = None) -> Dict[str, float]:
    """Sum of ``values`` (default: durations) per span name."""
    if values is None:
        values = [s.duration for s in spans]
    out: Dict[str, float] = defaultdict(float)
    for s, v in zip(spans, values):
        out[s.name] += v
    return dict(out)
