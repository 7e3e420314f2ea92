"""In-memory span tracing around the public entry point of each layer.

The benchmark attributes engine-call wall time to layers without
touching the program: :func:`instrument` replaces each layer's entry
point *where its caller looks it up* (a class attribute, or the name a
module imported) with a timing wrapper, and puts the original back on
exit.

Two wrapper kinds keep the cost proportional to what is worth keeping:

- a **span** records ``(name, start, end, parent)`` — used for calls that
  happen a few times per frame (engine call, frame, solve, durability);
- a **leaf** only counts calls and adds its duration to the enclosing
  span — used for per-vehicle calls (``as_vehicle``, index upserts),
  which run thousands of times per frame and would otherwise swamp the
  trace.  Leaves nest inside spans, never the other way round.

A span's *self time* is its duration minus the part of its interval
that child spans and leaves cover (:func:`self_seconds`).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` indexes :attr:`Tracer.spans`."""

    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    #: total duration of the leaf calls made directly inside this span
    leaf_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans, per-name call counts and leaf totals, kept in memory."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    leaf_seconds: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: summed ``len(result)`` of leaves registered with ``sized=True``
    leaf_items: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _open: List[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        self.calls[name] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._open.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {index} closed out of order")

    def leaf(self, name: str, seconds: float, items: int = 0) -> None:
        self.calls[name] += 1
        self.leaf_seconds[name] += seconds
        self.leaf_items[name] += items
        if self._open:
            self.spans[self._open[-1]].leaf_seconds += seconds

    def named(self, name: str) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus what its children cover.

    Child spans are clipped to the parent's interval and their union is
    taken, so overlapping or overhanging children are not counted twice;
    leaf time is added on top (leaves run inside the span but outside
    every child span, because a leaf never encloses a span).
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        span.seconds - _union_length(children[i]) - span.leaf_seconds
        for i, span in enumerate(spans)
    ]


def self_breakdown(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per span name plus leaf seconds per leaf name.

    The values partition the root spans' wall time: every instant inside
    a root is counted exactly once, in the innermost span or leaf open.
    """
    out: Dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, self_seconds(tracer.spans)):
        out[span.name] += own
    for name, seconds in tracer.leaf_seconds.items():
        out[name] += seconds
    return dict(out)


# ----------------------------------------------------------------------
# wrapping the program's entry points
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn: Callable, sized: bool) -> Callable:
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        tracer.leaf(name, clock() - start, len(result) if sized else 0)
        return result

    return wrapper


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap: ``module[.Class].attribute``."""

    name: str  # span / leaf name reported in the metrics
    module: str
    attribute: str  # "Class.method" or a module-level name
    kind: str = "span"  # "span" | "leaf"
    sized: bool = False  # leaves: also sum len(result)


#: Entry points as bound in their callers.  ``dispatch.py`` imports
#: ``solve``, ``solve_sharded`` and ``synthetic_vehicle_utilities`` by
#: name, so those are patched in :mod:`repro.core.dispatch`; methods are
#: looked up on their class by every caller.  ``plan_insertion`` is not
#: wrapped: it runs per (rider, vehicle) pair, partly inside shard worker
#: processes, and the program's own ``INSERTION_STATS.plans`` counter
#: already counts every call, workers included.
PROBES: Tuple[Probe, ...] = (
    Probe("service.process", "repro.service.stream", "StreamingEngine.process"),
    Probe("dispatch.frame", "repro.core.dispatch", "Dispatcher.dispatch_frame"),
    Probe("dispatch.as_vehicle", "repro.core.dispatch", "FleetVehicle.as_vehicle",
          kind="leaf"),
    Probe("dispatch.utility_matrix", "repro.core.dispatch",
          "synthetic_vehicle_utilities"),
    Probe("solver.solve", "repro.core.dispatch", "solve"),
    Probe("solver.solve_sharded", "repro.core.dispatch", "solve_sharded"),
    Probe("shards.run", "repro.core.shards", "ProcessShardExecutor.run"),
    Probe("shards.run", "repro.core.shards", "SerialShardExecutor.run"),
    Probe("candidates.prune", "repro.core.candidates", "CandidateIndex.prune",
          kind="leaf", sized=True),
    Probe("candidates.update", "repro.core.candidates", "CandidateIndex.update",
          kind="leaf"),
    Probe("durability.commit", "repro.core.durability",
          "DurabilityLog.commit_frame"),
    Probe("durability.snapshot", "repro.core.durability",
          "DurabilityLog.write_snapshot"),
    Probe("recovery.load", "repro.core.durability", "DurabilityLog.load"),
)


def _resolve(probe: Probe):
    """``(owner, attribute, original)`` or ``None`` if the name is gone."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, attribute = probe.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attribute) if isinstance(owner, type) else (
        getattr(owner, attribute, None)
    )
    if original is None or not callable(original):
        return None
    return owner, attribute, original


@contextmanager
def instrument(
    tracer: Tracer, probes: Sequence[Probe] = PROBES
) -> Iterator[List[Probe]]:
    """Wrap every probe for the duration of the block.

    Yields the probes whose entry point no longer exists (a refactor
    renamed or removed it); their metrics are then reported as absent
    instead of failing the run.
    """
    patched = []
    missing: List[Probe] = []
    try:
        for probe in probes:
            resolved = _resolve(probe)
            if resolved is None:
                missing.append(probe)
                continue
            owner, attribute, original = resolved
            if probe.kind == "leaf":
                wrapper = _leaf_wrapper(tracer, probe.name, original, probe.sized)
            else:
                wrapper = _span_wrapper(tracer, probe.name, original)
            setattr(owner, attribute, wrapper)
            patched.append((owner, attribute, original))
        yield missing
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
