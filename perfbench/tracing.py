"""Spans, call wrapping and the arithmetic the benchmark reports.

Everything here is independent of the program under test: a
:class:`Recorder` keeps spans in memory, :func:`traced` wraps one
callable so each call records a span, :class:`Patches` swaps every
reference to a callable for a wrapper (and undoes it), and the
reducers turn spans and request outcomes into the reported numbers.
The unit tests in ``perfbench/tests`` cover the reducers.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time

import numpy as np
from scipy.special import betainc

OK, REJECTED, FAILED = "ok", "rejected", "failed"
MIN_BEYOND = 10
# The highest percentile with MIN_BEYOND requests beyond it on every
# workload: adverse_stream times 30 requests a pass.
TAIL_PERCENTILE = 66


class Span:
    """One timed call of one layer."""

    __slots__ = ("id", "name", "start", "end", "parent", "request", "extra")

    def __init__(self, id, name, start, end=None, parent=None, request=None, extra=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.extra = {} if extra is None else extra

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            **self.extra,
        }


class Recorder:
    """Keeps the spans of one traced pass in memory.

    ``request`` is set by the workload driver before each frame or
    batch; every span opened meanwhile carries it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = None
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), None, parent, self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for span in self.spans:
                f.write(json.dumps(span.to_dict()) + "\n")


def traced(recorder: Recorder, layer: str, fn, after=None):
    """Wrap ``fn`` so every call records a ``layer`` span.

    A call made while a span of the same layer is innermost (one entry
    point of a layer calling another) runs unrecorded, so a layer's
    call count is the number of times it was entered from outside.
    ``after(span, args, kwargs, result)`` runs after the span closes
    and records extras on ``span.extra``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = recorder.current
        if current is not None and current.name == layer:
            return fn(*args, **kwargs)
        span = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def timed(durations: list, fn, gauge):
    """Wrap ``fn`` so every call appends its wall time to ``durations``,
    then takes one ``gauge`` sample."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)
            gauge.sample()

    return wrapper


class Patches:
    """Replaces callables with wrappers; :meth:`undo` restores them.

    A function is replaced in every loaded module of the ``repro``
    package that holds it, so call sites that imported it by name see
    the wrapper too.  A method is replaced on its class.
    """

    PACKAGE = "repro"

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name, original, value):
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def function(self, fn, wrapper) -> int:
        """Replace module-level ``fn``; returns how many references moved."""
        prefix = self.PACKAGE + "."
        moved = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == self.PACKAGE or module_name.startswith(prefix)):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, name, fn, wrapper)
                    moved += 1
        if moved == 0:
            raise LookupError(f"{fn.__qualname__} is not referenced by any {self.PACKAGE} module")
        return moved

    def method(self, cls: type, name: str, make_wrapper) -> None:
        """Replace ``cls.name`` with ``make_wrapper(original)``."""
        original = cls.__dict__[name]
        self._set(cls, name, original, make_wrapper(original))

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# ----------------------------------------------------------------------
# Reducers.
# ----------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, edge), min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        result[span.id] = span.duration - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Layer name -> {"calls", "self_s"} over all spans of the pass."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
    return totals


def attributed_seconds(spans: list[Span]) -> float:
    """Wall time inside any span: the sum of the top-level durations."""
    return sum(span.duration for span in spans if span.parent is None)


def _ranked(samples: list[float], q: float) -> tuple[list[float], int]:
    """``samples`` sorted, and the nearest rank of their ``q``-th percentile.

    Refused (``ValueError``) unless at least ``MIN_BEYOND`` samples lie
    beyond the rank, so a tail figure always rests on a tail.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(samples), rank


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``."""
    ranked, rank = _ranked(samples, q)
    return ranked[rank - 1]


def median(samples: list[float]) -> float:
    """Harrell-Davis estimate of the median of ``samples``.

    A weighted mean of every order statistic, with the weights of a
    Beta((n+1)/2, (n+1)/2) distribution over the ranks.  When one
    sample near the middle moves, as one request's time does on a
    shared host, the estimate moves by that sample's weight, not by
    the whole gap to its neighbour.  Every sample has some weight, so
    one infinite sample (a failed request) makes it infinite.  Refused
    like :func:`percentile`.
    """
    ranked, _ = _ranked(samples, 50)
    if math.isinf(ranked[-1]):
        return math.inf
    n = len(ranked)
    shape = (n + 1) / 2
    weights = np.diff(betainc(shape, shape, np.arange(n + 1) / n))
    return float(np.dot(weights, ranked))


def tail_mean(samples: list[float], q: float) -> float:
    """Mean of the samples beyond the nearest-rank ``q``-th percentile.

    Every sample of the tail counts, so the figure does not hinge on
    the one sample at the rank.
    """
    ranked, rank = _ranked(samples, q)
    return math.fsum(ranked[rank:]) / (len(ranked) - rank)


def scaled_median(times: list[float], references: list[float], nominal_s: float) -> float:
    """Median of ``times``, each divided by the host slowness that the
    reference timed right after it shows (``reference / nominal_s``)."""
    if len(times) != len(references) or not times:
        raise ValueError("one reference per time, and at least one time")
    return statistics.median(t * nominal_s / r for t, r in zip(times, references))


def request_summary(passes: list[tuple], nominal_s: float) -> dict:
    """Pass time, goodput, acceptance, median and tail latency of a
    closed loop, at a nominal host speed.

    ``passes`` holds ``(latencies, outcomes, wall_s, reference)`` for
    each pass: every pass sends the same requests in the same order,
    and ``reference`` holds the gauge's timing after each request.  A
    request's latency is its fastest over the passes, and a pass's time
    is the sum of those plus the fastest time any pass spent between
    requests: a slowdown of the shared host that lasts a few seconds
    hits one pass and is left out, while the program's own work is in
    every pass.  The reference timings are reduced the same way, slot
    by slot; ``host_slowness`` is their sum over ``nominal_s`` per
    request, and every reported time is divided by it.

    The median (:func:`median`) and the tail (the mean of the requests
    beyond ``TAIL_PERCENTILE``) cover the requests that returned a
    result or failed; a failure in any pass counts as missing any
    latency limit, so it enters as infinity and makes both infinite.  A request the program rejected with its
    documented error is a correct outcome without a result: it lowers
    the accept ratio and stays out of the latency distribution.
    """
    if not passes:
        raise ValueError("no passes")
    outcomes = passes[0][1]
    for latencies, pass_outcomes, wall_s, reference in passes:
        if not len(latencies) == len(pass_outcomes) == len(reference) == len(outcomes):
            raise ValueError("every pass needs one outcome and one reference per latency")
        if [o == REJECTED for o in pass_outcomes] != [o == REJECTED for o in outcomes]:
            raise ValueError("the passes rejected different requests")
        if wall_s <= 0:
            raise ValueError("wall time must be positive")
    fastest = [min(row) for row in zip(*(p[0] for p in passes))]
    between = min(p[2] - sum(p[0]) for p in passes)
    slowness = sum(min(row) for row in zip(*(p[3] for p in passes))) / (
        len(outcomes) * nominal_s
    )
    failed = {
        index
        for _, pass_outcomes, _, _ in passes
        for index, outcome in enumerate(pass_outcomes)
        if outcome == FAILED
    }
    timed = [
        math.inf if index in failed else latency / slowness
        for index, (latency, outcome) in enumerate(zip(fastest, outcomes))
        if outcome != REJECTED
    ]
    accepted = sum(o == OK and i not in failed for i, o in enumerate(outcomes))
    pass_s = (sum(fastest) + between) / slowness
    return {
        "host_slowness": slowness,
        "accept_ratio": accepted / len(outcomes),
        "pass_s": pass_s,
        "goodput_per_s": accepted / pass_s,
        "p50_s": median(timed),
        "tail_s": tail_mean(timed, TAIL_PERCENTILE),
    }
