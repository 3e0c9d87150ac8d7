"""Spans taken from outside the program.

Everything here wraps objects *the benchmark constructs*: bound-method
wrappers set on instances (never on classes), and a :class:`TimedBackend`
handed to the session through its public ``backend=`` parameter.  Nothing
under ``src/`` is edited, so a span boundary is always a call into a layer.

A span is ``[id, parent, name, start, end, thread, flush, value]``.  Spans
nest through a per-thread stack; a span that starts on a thread with an
empty stack (a ``session.run`` on an engine worker thread) is parented to
the flush currently executing on the dispatcher, which is how spans of one
flush share an identifier across threads.  Spans stay in per-thread lists
until the run ends; nothing is written while measuring.

Self time of a span is its duration minus the part of its interval covered
by the union of its children (children on two worker threads may overlap).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Span field indices (spans are plain lists: they are written twice and
# read once, and a list is the cheapest mutable record).
ID, PARENT, NAME, START, END, THREAD, FLUSH, VALUE = range(8)

KERNEL_OPS = ("linear_requant", "spmm", "edge_spmm", "gat_scores",
              "edge_softmax")


class Recorder:
    """In-memory span sink; a disabled recorder makes every wrapper a
    plain call-through."""

    def __init__(self) -> None:
        self.enabled = False
        self._ids = itertools.count(1)
        self._flushes = itertools.count(1)
        self._local = threading.local()
        self._lists: List[List[list]] = []
        self._lists_lock = threading.Lock()
        #: (span id, flush id) of the flush executing on the dispatcher.
        self.current_flush: Tuple[int, int] = (0, 0)

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.spans = []
            with self._lists_lock:
                self._lists.append(state.spans)
        return state

    def begin(self, name: str, flush: bool = False) -> list:
        state = self._state()
        if state.stack:
            parent, flush_id = state.stack[-1][ID], state.stack[-1][FLUSH]
        else:
            parent, flush_id = self.current_flush
        span = [next(self._ids), parent, name, 0.0, 0.0,
                threading.get_ident(), flush_id, 0.0]
        if flush:
            span[FLUSH] = next(self._flushes)
            self.current_flush = (span[ID], span[FLUSH])
        state.stack.append(span)
        state.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list, value: object = 0) -> None:
        span[END] = time.perf_counter()
        span[VALUE] = value
        self._state().stack.pop()
        if span[ID] == self.current_flush[0]:
            self.current_flush = (0, 0)

    def spans(self) -> List[list]:
        """Every finished span, ordered by start time."""
        with self._lists_lock:
            merged = [span for spans in self._lists for span in spans
                      if span[END] > 0.0]
        merged.sort(key=lambda span: span[START])
        return merged


def wrap(recorder: Recorder, target: object, attribute: str, name: str,
         value: Optional[Callable[[tuple, object], object]] = None,
         flush: bool = False) -> None:
    """Shadow ``target.attribute`` with a span-recording wrapper.

    Sets an *instance* attribute, so only this object is affected.
    ``value(args, result)`` attaches a count to the span (rows probed,
    seeds run, entries evicted ...); a call that raises records 0.
    """
    original = getattr(target, attribute)

    def traced(*args, **kwargs):
        if not recorder.enabled:
            return original(*args, **kwargs)
        span = recorder.begin(name, flush=flush)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            recorder.end(span)
            raise
        recorder.end(span, 0 if value is None else value(args, result))
        return result

    setattr(target, attribute, traced)


class TimedBackend:
    """A kernel backend that records one span per hot-path call.

    Wraps the resolved backend and is passed to the session through
    ``backend=``; the session only ever calls the methods below and reads
    ``name``.  ``edge_spmm`` spans carry ``(multiply-accumulates, bytes)``
    of the call, both *computed from the operand shapes*: ``E * H * D``
    MACs, and the bytes one pass must touch — coefficients, gathered source
    rows and the output as the 8-byte integers/floats the contract computes
    in, plus the two index arrays.
    """

    def __init__(self, inner, recorder: Recorder) -> None:
        self.inner = inner
        self.name = inner.name
        self.recorder = recorder

    def weight_matrix(self, weight):
        return self.inner.weight_matrix(weight)

    def _timed(self, op: str, value: object, args, kwargs):
        call = getattr(self.inner, op)
        if not self.recorder.enabled:
            return call(*args, **kwargs)
        span = self.recorder.begin(f"kernels.{op}")
        try:
            return call(*args, **kwargs)
        finally:
            self.recorder.end(span, value)

    def linear_requant(self, *args, **kwargs):
        return self._timed("linear_requant", 0, args, kwargs)

    def spmm(self, *args, **kwargs):
        return self._timed("spmm", 0, args, kwargs)

    def gat_scores(self, *args, **kwargs):
        return self._timed("gat_scores", 0, args, kwargs)

    def edge_softmax(self, *args, **kwargs):
        return self._timed("edge_softmax", 0, args, kwargs)

    def edge_spmm(self, q_edge, s_edge, qx, sx, zx, src, dst, num_dst):
        coefficients = int(np.size(q_edge))
        row = int(np.prod(qx.shape[1:]))
        edges = int(np.shape(src)[0])
        moved = 8 * (coefficients + edges * row + num_dst * row + 2 * edges)
        return self._timed("edge_spmm", (coefficients * qx.shape[-1], moved),
                           (q_edge, s_edge, qx, sx, zx, src, dst, num_dst), {})


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> self time (duration minus the union of its children,
    clipped to the span's own interval)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    bounds = {span[ID]: (span[START], span[END]) for span in spans}
    for span in spans:
        parent = bounds.get(span[PARENT])
        if parent is not None:
            start, end = max(span[START], parent[0]), min(span[END], parent[1])
            if end > start:
                children[span[PARENT]].append((start, end))
    return {span[ID]: (span[END] - span[START]) - covered(children[span[ID]])
            for span in spans}


def write_chrome_trace(spans: Sequence[list], path) -> None:
    """Dump spans as Chrome-trace JSON (opens in any trace viewer)."""
    if not spans:
        events = []
    else:
        origin = spans[0][START]
        events = [{"name": span[NAME], "ph": "X", "pid": 1,
                   "tid": span[THREAD],
                   "ts": (span[START] - origin) * 1e6,
                   "dur": (span[END] - span[START]) * 1e6,
                   "args": {"id": span[ID], "parent": span[PARENT],
                            "flush": span[FLUSH], "value": span[VALUE]}}
                  for span in spans]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
