"""Span-based attribution of simulated microseconds.

The simulator passes explicit timestamps instead of sleeping, so a span
here is two points on the simulated clock: where a layer's work started
and where it finished.  A :class:`Trace` is a tree of spans covering one
request (an OLTP page write, a redo commit, a page read); a span's
**exclusive** time is its duration minus its children's durations, so
exclusive times over a trace always telescope to exactly the root's
end-to-end latency — the property the per-layer breakdowns rely on.

The :class:`Tracer` keeps an ambient span stack (the simulation is
single-threaded), so deep layers open spans without new parameters:

    sp = registry.tracer.begin("csd.device_write", start_us, layer="csd")
    ...
    registry.tracer.end(sp, completion.done_us)

``begin`` with no active trace starts one; ending the root records every
span into the registry's histograms (``trace.<name>.self_us`` and
``trace.<root>.total_us``) and publishes the finished trace as
``tracer.last``.  Replica fan-out overlaps the leader's timeline, so
replication code wraps follower work in :meth:`Tracer.suppressed` — only
the critical path is attributed.  An operation that raises gives its
span to :meth:`Tracer.abandon` instead of ``end``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional


class Span:
    """One layer's contribution to one request."""

    __slots__ = ("name", "layer", "start_us", "end_us", "children", "parent")

    def __init__(self, name: str, layer: str, start_us: float,
                 parent: Optional["Span"] = None):
        self.name = name
        self.layer = layer
        self.start_us = float(start_us)
        self.end_us: Optional[float] = None
        self.children: List["Span"] = []
        self.parent = parent
        if parent is not None:
            parent.children.append(self)

    def end(self, end_us: float) -> None:
        if end_us < self.start_us:
            raise ValueError(
                f"span {self.name}: end {end_us} before start {self.start_us}"
            )
        self.end_us = float(end_us)

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def exclusive_us(self) -> float:
        """Time charged to this span itself (duration minus children)."""
        return self.duration_us - sum(c.duration_us for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, layer={self.layer!r}, "
                f"[{self.start_us:.1f}, {self.end_us}])")


class Trace:
    """A finished (or in-flight) span tree for one request."""

    def __init__(self, root: Span):
        self.root = root

    @property
    def total_us(self) -> float:
        return self.root.duration_us

    def spans(self) -> List[Span]:
        return list(self.root.walk())

    def breakdown(self) -> Dict[str, float]:
        """Exclusive microseconds per span name (summed over occurrences).

        Zero-time entries are kept: a span that appears with 0 µs is
        still informative (e.g. a cache hit).  The values sum to
        :attr:`total_us` exactly.
        """
        out: Dict[str, float] = {}
        for span in self.root.walk():
            out[span.name] = out.get(span.name, 0.0) + span.exclusive_us
        return out

    def layer_breakdown(self) -> Dict[str, float]:
        """Exclusive microseconds per layer; sums to :attr:`total_us`."""
        out: Dict[str, float] = {}
        for span in self.root.walk():
            out[span.layer] = out.get(span.layer, 0.0) + span.exclusive_us
        return out

    def render(self) -> str:
        """A printable tree with per-span attribution."""
        lines: List[str] = []

        def visit(span: Span, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{span.name:<34}{span.duration_us:>10.2f} us"
                f"  (self {span.exclusive_us:.2f} us, layer {span.layer})"
            )
            for child in span.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)


class Tracer:
    """Ambient span stack bound to one :class:`MetricsRegistry`."""

    def __init__(self, registry=None) -> None:
        self._registry = registry
        self._stack: List[Span] = []
        self._suppress = 0
        #: Most recently finished trace (for callers that fired a request
        #: and want its breakdown without threading a handle through).
        self.last: Optional[Trace] = None

    @property
    def active(self) -> bool:
        return bool(self._stack)

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, start_us: float,
              layer: str = "storage") -> Optional[Span]:
        """Open a span under the current one (or start a new trace)."""
        if self._suppress:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, start_us, parent)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span], end_us: float) -> None:
        """Close ``span``; finishing the root publishes the trace."""
        if span is None:
            return
        span.end(end_us)
        # Spans close LIFO in practice; tolerate out-of-order closes by
        # dropping everything above the closed span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        if span.parent is None:
            self._finish(Trace(span))

    def abandon(self, span: Optional[Span]) -> None:
        """Discard ``span`` (and anything opened under it) unfinished:
        the operation it covered raised.  Nothing is published, and the
        stack is left as it was before ``span`` began."""
        if span is None or span not in self._stack:
            return
        del self._stack[self._stack.index(span):]
        if span.parent is not None:
            span.parent.children.remove(span)

    @contextmanager
    def suppressed(self):
        """No spans are recorded inside this context (replica fan-out,
        background write-backs — work that overlaps the critical path)."""
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    def _finish(self, trace: Trace) -> None:
        self.last = trace
        if self._registry is None:
            return
        root = trace.root
        self._registry.histogram(
            f"trace.{root.name}.total_us", layer=root.layer
        ).record(root.duration_us)
        for span in root.walk():
            self._registry.histogram(
                f"trace.{span.name}.self_us", layer=span.layer
            ).record(span.exclusive_us)
