"""Outside-in span tracing for the benchmark's traced run.

The tracer times calls into the program from the benchmark's own files: it
replaces public methods of the program's classes with wrappers that record
one span per call (name, start, end, parent span, request ids) and restores
the originals afterwards.  Nothing under ``src/`` knows it is being traced.

Spans live in memory until the run ends.  A span's *self time* is its
duration minus the part of that interval covered by its child spans; the
per-layer metrics are sums of self or inclusive times per span name.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call.  ``parent`` is the enclosing span's id (-1 at the root)."""

    span_id: int
    name: str
    parent: int
    start_ns: int
    end_ns: int
    #: Ids of the requests this call served (shared by every span of a
    #: request, on whichever thread it ran).
    requests: Tuple[int, ...] = ()
    #: Work counters measured at the call (elements, flop, bytes, ...).
    work: Optional[Dict[str, float]] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "requests": list(self.requests),
            "work": self.work or {},
        }


#: ``work(args, kwargs, result) -> dict`` computes a span's work counters.
WorkFn = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    """Records spans from wrapped methods while :attr:`enabled` is true.

    Parentage is tracked per thread, so a span's children always ran on the
    thread that opened it.  A wrapped method that delegates to another
    wrapped method of the same span name (a kernel forwarding to its numpy
    twin) records one span, not two.  Spans on other threads (a serving
    queue's dispatch) find their requests through the token arrays that
    :meth:`request` registered.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[type, str, object]] = []
        #: ``id(token array) -> request id``, and each request's token arrays.
        self._request_of: Dict[int, int] = {}
        self.request_tokens: Dict[int, Sequence[object]] = {}

    # -- per-thread context -------------------------------------------- #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int, tokens: Sequence[object]) -> Iterator[None]:
        """Tag spans of the block's thread, and calls carrying ``tokens``, with ``request_id``."""
        for array in tokens:
            self._request_of[id(array)] = request_id
        self.request_tokens[request_id] = tokens
        previous = getattr(self._local, "request", None)
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    def requests_in_batch(self, args: tuple) -> Tuple[int, ...]:
        """Request ids of the token arrays of a batch call ``(self, requests, ...)``."""
        return tuple(dict.fromkeys(
            self._request_of[id(tokens)] for tokens in args[1] if id(tokens) in self._request_of
        ))

    # -- instrumentation ----------------------------------------------- #
    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        work: Optional[WorkFn] = None,
        batch: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper (undone by :meth:`restore`).

        With ``batch`` the call's second argument is a list of token arrays,
        and the span carries the requests they were registered under.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                return original(*args, **kwargs)
            span = Span(
                span_id=next(tracer._ids),
                name=name,
                parent=-1 if parent is None else parent.span_id,
                start_ns=0,
                end_ns=0,
                requests=(
                    tracer.requests_in_batch(args) if batch
                    else parent.requests if parent is not None
                    else tracer._thread_requests()
                ),
            )
            stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _thread_requests(self) -> Tuple[int, ...]:
        request = getattr(self._local, "request", None)
        return () if request is None else (request,)

    def restore(self) -> None:
        """Put every wrapped method back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self) -> Iterator["Tracer"]:
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times_ns(spans: Sequence[Span]) -> Dict[int, int]:
    """``span_id -> self time``: duration minus the union of its children."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    return {
        span.span_id: span.duration_ns
        - _covered_ns(span.start_ns, span.end_ns, children.get(span.span_id, ()))
        for span in spans
    }


@dataclass
class SpanTotals:
    """Per span name: call count, inclusive and self nanoseconds, work sums."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    work: Optional[Dict[str, float]] = None

    def add_work(self, work: Optional[Dict[str, float]]) -> None:
        if not work:
            return
        if self.work is None:
            self.work = {}
        for key, value in work.items():
            self.work[key] = self.work.get(key, 0.0) + float(value)

    def work_sum(self, key: str) -> float:
        return 0.0 if self.work is None else self.work.get(key, 0.0)


def totals_by_name(spans: Sequence[Span]) -> Dict[str, SpanTotals]:
    selfs = self_times_ns(spans)
    totals: Dict[str, SpanTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, SpanTotals())
        entry.calls += 1
        entry.inclusive_ns += span.duration_ns
        entry.self_ns += selfs[span.span_id]
        entry.add_work(span.work)
    return totals
