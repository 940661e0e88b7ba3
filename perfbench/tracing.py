"""Spans recorded around the benchmark's calls into each layer.

The program's own code is not touched: a span opens in the benchmark's
files around a call into a layer's public function, and, for the one
layer reached only from inside another call (the sqlite endpoint inside
``HybridPlan.execute``), :func:`wrapped` puts a span around the public
method for the duration of a traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from perfbench.speed import SpeedProbe


@dataclass
class Span:
    name: str
    parent: Optional[int]  # index into Tracer.spans, None for a root
    start: float
    end: float = 0.0
    ok: bool = True

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of one pipeline pass; spans nest by call order."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.ok = False
            raise
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self, probe: SpeedProbe) -> Dict[str, float]:
        """Per span name: total self time (a span's duration minus its
        children's, at the reference speed) of the spans that ended
        without an exception."""
        scaled = [probe.scaled(span.start, span.end) for span in self.spans]
        children = [0.0] * len(self.spans)
        for span, (wall, _reference) in zip(self.spans, scaled):
            if span.parent is not None:
                children[span.parent] += wall
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            wall, reference = scaled[index]
            if span.ok and wall > 0:
                totals[span.name] += (wall - children[index]) * reference / wall
        return dict(totals)

    def failures(self) -> Dict[str, int]:
        """Per span name: how many spans ended with an exception."""
        counts: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            if not span.ok:
                counts[span.name] += 1
        return dict(counts)


class NullTracer:
    """The untraced run's tracer: records nothing."""

    enabled = False

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()


@contextlib.contextmanager
def wrapped(owner: type, attribute: str, tracer: Tracer, name: str) -> Iterator[None]:
    """Record a ``name`` span around every call of ``owner.attribute``
    while the block runs; the original attribute is restored after."""
    original = owner.__dict__[attribute]

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(owner, attribute, traced)
    try:
        yield
    finally:
        setattr(owner, attribute, original)
