"""Per-layer timing for the traced run, taken from outside the program.

Two sources feed one span tree per thread:

* the spans the program already emits (``service.generation``,
  ``scheduler.run``, ``scheduler.tick.*``), recorded by
  :class:`Recorder` acting as the sink of the ``Tracer`` the benchmark
  passes in;
* the benchmark's own spans around public methods of each layer,
  installed by :meth:`Recorder.wrap` for the traced run only and
  removed afterwards.

Every span knows its parent (the span open on the same thread when it
started), so a layer's self time is its duration minus its children's.
Spans are aggregated in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

__all__ = ["Recorder", "PROGRAM_SPANS"]

#: Spans the program emits that the benchmark records.
PROGRAM_SPANS = frozenset(
    {
        "service.generation",
        "scheduler.run",
        "scheduler.tick.settle",
        "scheduler.tick.scatter",
        "scheduler.tick.resume",
    }
)


class _Agg:
    __slots__ = ("count", "total", "child", "durations", "units")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.durations: list[float] = []
        self.units = 0


class _Frame:
    """An open span: its name and the time its children have covered."""

    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class Recorder:
    """A trace sink plus method wrappers that build a span tree.

    Pass ``Tracer(sink=recorder)`` to the program; the service runner
    tees its generation tracer into the same sink, so scheduler spans
    reach it from the runner thread too.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, _Agg] = {}
        #: ``(child name, parent name) -> count``: the observed tree shape.
        self.edges: dict[tuple[str, str], int] = {}
        self._patches: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Span tree
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self._stack().append(frame)
        return frame

    def _close(self, frame: _Frame, duration: float, units: int = 0) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        with self._lock:
            agg = self.spans.get(frame.name)
            if agg is None:
                agg = self.spans[frame.name] = _Agg()
            agg.count += 1
            agg.total += duration
            agg.child += frame.child
            agg.units += units
            agg.durations.append(duration)
            edge = (frame.name, parent.name if parent else "")
            self.edges[edge] = self.edges.get(edge, 0) + 1

    def add(self, name: str, duration: float) -> None:
        """A root span measured by the caller (client coroutines, whose
        interleaved awaits share one thread and so cannot nest)."""
        self._close(self._open(name), duration)

    def reset(self) -> None:
        """Drop the aggregates (after warm-up); open spans stay open."""
        with self._lock:
            self.spans.clear()
            self.edges.clear()

    # ------------------------------------------------------------------
    # TraceSink protocol: program-emitted spans
    # ------------------------------------------------------------------
    def write(self, record: dict[str, Any]) -> None:
        """Record a program span; every other record is ignored."""
        kind = record.get("kind")
        if kind not in ("span_start", "span_end") or "job_index" in record:
            return  # events, and per-job records replayed after a run
        name = record.get("span")
        if name not in PROGRAM_SPANS:
            return
        if kind == "span_start":
            self._open(name)
            return
        stack = self._stack()
        frame = stack[-1] if stack else None
        if frame is None or frame.name != name:
            raise RuntimeError(f"unmatched span_end for {name!r}")
        # Tick spans carry the requests they settled; runs and
        # generations carry their job count.
        units = record.get("requests", record.get("jobs", 0))
        self._close(frame, float(record["duration_s"]), int(units))

    def close(self) -> None:
        """Nothing to release; aggregates stay readable."""

    # ------------------------------------------------------------------
    # Method wrappers (traced run only)
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        method: str,
        name: str,
        units: Callable[[tuple[Any, ...], Any], int] | None = None,
        rename: Callable[[list[_Frame]], str | None] | None = None,
    ) -> None:
        """Time every call of ``owner.method`` as span ``name``.

        ``units(args, result)`` counts the work one call did (pairs,
        rows, judgments).  ``rename(stack)`` may pick another span name
        from the caller's open spans.
        """
        original = owner.__dict__[method]
        recorder = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            span_name = name
            if rename is not None:
                span_name = rename(recorder._stack()) or name
            frame = recorder._open(span_name)
            start = time.perf_counter()
            done = 0
            try:
                result = original(*args, **kwargs)
                done = units(args, result) if units is not None else 0
                return result
            finally:
                recorder._close(frame, time.perf_counter() - start, done)

        setattr(owner, method, timed)
        self._patches.append((owner, method, original))

    def unwrap(self) -> None:
        """Restore every wrapped method (in reverse order)."""
        while self._patches:
            owner, method, original = self._patches.pop()
            setattr(owner, method, original)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def total_s(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg.total if agg else 0.0

    def self_s(self, name: str) -> float:
        agg = self.spans.get(name)
        return agg.total - agg.child if agg else 0.0

    def count(self, name: str) -> int:
        agg = self.spans.get(name)
        return agg.count if agg else 0

    def units(self, name: str) -> int:
        agg = self.spans.get(name)
        return agg.units if agg else 0

    def durations(self, name: str) -> list[float]:
        agg = self.spans.get(name)
        return list(agg.durations) if agg else []
