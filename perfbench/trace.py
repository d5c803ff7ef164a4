"""In-memory spans recorded around calls into the program's public API.

The benchmark never adds a span inside ``src/``: it wraps its own calls
to ``build_database``, ``compile_query``, ``optimize``,
``Executor.execute`` and ``explain_analyze`` in :meth:`SpanRecorder.span`,
and swaps each registered UDF's ``fn`` (and ``fn.batch``) for a timing
wrapper while a traced pass runs.

A UDF is called once per tuple on the row engine, so a span per call
would not fit in memory. Calls are rolled up instead: one span per
(enclosing span, UDF name), whose ``busy`` time is the sum of the call
durations and whose ``count`` is the number of bindings evaluated.

A span's self time is its busy time minus its children's busy time;
children never overlap because everything runs on one thread.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    #: Summed duration; ``end - start`` except for roll-ups.
    busy: float = 0.0
    count: int = 1


class SpanRecorder:
    """Spans of one process, kept in memory until :meth:`write`."""

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._rollups: dict[tuple[int | None, str], Span] = {}

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent.op
        start = self.clock()
        span = Span(
            id=len(self.spans), name=name, start=start, end=start,
            parent=parent.id if parent is not None else None, op=op,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()
            span.busy = span.end - span.start

    def rollup(self, name: str, start: float, end: float, count: int) -> None:
        """Add one call of ``count`` bindings to the roll-up span of
        ``name`` under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        key = (parent.id if parent is not None else None, name)
        span = self._rollups.get(key)
        if span is None:
            span = Span(
                id=len(self.spans), name=name, start=start, end=end,
                parent=key[0], op=parent.op if parent is not None else None,
                count=0,
            )
            self.spans.append(span)
            self._rollups[key] = span
        span.end = end
        span.busy += end - start
        span.count += count

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
            handle.write("\n")
        return path


class NullRecorder:
    """The untraced stand-in: spans cost one attribute lookup."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, op: str | None = None):
        return self._null


NULL_RECORDER = NullRecorder()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> busy time not covered by its children."""
    own = {span.id: span.busy for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.busy
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.id]
    return totals


#: The span name UDF calls are rolled up under.
UDF_SPAN = "catalog.udf"


def wrap_udfs(registry, recorder: SpanRecorder):
    """Swap every registered UDF's ``fn`` for a timing wrapper that rolls
    its calls up under the innermost open span. Returns a callable that
    restores the originals.

    The wrapper must keep ``fn.batch``: ``UserFunction.call_batch`` falls
    back to one call per binding when ``fn`` has no ``batch`` attribute,
    which would change how the batch engine dispatches UDFs.
    """
    originals = {}
    for udf_name in registry.names():
        udf = registry.get(udf_name)
        originals[udf_name] = udf.fn
        udf.fn = _timed(udf.fn, recorder)

    def restore() -> None:
        for udf_name, fn in originals.items():
            registry.get(udf_name).fn = fn

    return restore


def _timed(fn, recorder: SpanRecorder):
    clock = recorder.clock

    def timed(*args):
        start = clock()
        try:
            return fn(*args)
        finally:
            recorder.rollup(UDF_SPAN, start, clock(), 1)

    batch = getattr(fn, "batch", None)
    if batch is not None:
        def timed_batch(bindings):
            start = clock()
            try:
                return batch(bindings)
            finally:
                recorder.rollup(UDF_SPAN, start, clock(), len(bindings))

        timed.batch = timed_batch
    return timed
