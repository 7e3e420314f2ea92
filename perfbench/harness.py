"""Streaming city replay: one seeded arrival stream through the service.

Load model: one process, one client, closed loop.  Each arrival is handed
to ``StreamingEngine.process`` only after the previous call returned.
The engine's clock is simulated and no workload sets a wall-clock budget
(``frame_budget``, ``shard_timeout``), so pacing cannot change the work a
micro-batch does: an open loop would only add idle time, and
``capacity_rps`` is the highest live arrival rate the dispatcher
sustains without a growing backlog.

``--trace 0`` replays the stream ``Workload.passes`` times untraced,
times extra cold set-ups and warm ``Dispatcher.restore`` calls at pauses
spread through the stream, and reports the end-to-end metrics.  ``--trace 1`` replays once untraced and once with
every layer's entry point wrapped (:mod:`perfbench.tracing`) and reports
the per-layer metrics.  Every pass ends with the correctness gate
(:mod:`perfbench.gate`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import multiprocessing
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.durability import DurabilityConfig, DurabilityLog
from repro.service import Arrival

from perfbench import gate, tracing
from perfbench.workloads import (
    DELTA_T,
    WORKLOADS,
    Inputs,
    Setup,
    Workload,
    make_inputs,
    setup,
)

ROOT = Path(__file__).resolve().parent.parent
#: pauses per run, spread evenly through its passes; each times
#: ``RESTORES_PER_PAUSE`` restores, and every ``PAUSES // SPARE_SETUPS``-th
#: one an extra set-up, so ``setup_s`` is a median of
#: ``passes + SPARE_SETUPS`` samples.  The restored state's size varies
#: with the seed from pause to pause, so more pauses steady the median
#: of ``recovery_s`` more than more restores per pause do.
PAUSES = 10
RESTORES_PER_PAUSE = 2
SPARE_SETUPS = 2
#: warm restores timed at the end of a traced run for ``recovery.load_ms``
TRACED_RESTORES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "capacity_rps": "req/s",
    "decision_p50_ms": "ms",
    "decision_p90_ms": "ms",
    "service_rate": "fraction",
    "utility_per_request": "eq1_units",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "service.self_ms": "ms",
    "service.count_trigger_share": "fraction",
    "dispatch.frame_ms": "ms",
    "dispatch.self_ms": "ms",
    "dispatch.as_vehicle_calls": "count",
    "dispatch.as_vehicle_ms": "ms",
    "dispatch.touched": "count",
    "dispatch.as_vehicle_per_touched": "ratio",
    "dispatch.utility_matrix_ms": "ms",
    "dispatch.carried_share": "fraction",
    "solver.ms": "ms",
    "insertion.plans_per_request": "count",
    "insertion.accept_ratio": "fraction",
    "candidates.prune_ms": "ms",
    "candidates.mean_set": "count",
    "candidates.update_calls": "count",
    "candidates.update_ms": "ms",
    "candidates.prune_ratio": "fraction",
    "oracle.queries": "count",
    "oracle.searches": "count",
    "oracle.hit_rate": "fraction",
    "setup.oracle_s": "s",
    "setup.network_s": "s",
    "setup.index_s": "s",
    "setup.plan_s": "s",
    "setup.dispatcher_s": "s",
    "durability.commit_ms": "ms",
    "durability.snapshot_ms": "ms",
    "durability.bytes_per_frame": "bytes",
    "recovery.load_ms": "ms",
    "shards.ms": "ms",
    "shards.reconciled_share": "fraction",
    "shards.retries": "count",
    "shards.fallbacks": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "fraction",
}

#: program counters read around the replay: name -> (module, object, field)
PROGRAM_COUNTERS = {
    "insertion.plans": ("repro.perf", "INSERTION_STATS", "plans"),
    "candidates.considered": ("repro.perf", "CANDIDATE_STATS", "pairs_considered"),
    "candidates.pruned": ("repro.perf", "CANDIDATE_STATS", "pairs_pruned"),
    "shards.boundary": ("repro.perf", "SHARD_STATS", "boundary_riders"),
    "shards.reconciled": ("repro.perf", "SHARD_STATS", "reconciled_riders"),
}
ORACLE_COUNTERS = ("query_count", "dijkstra_count", "bidirectional_count",
                   "ch_query_count")


# ----------------------------------------------------------------------
# counters: every read is defensive, a missing field is None ("absent")
# ----------------------------------------------------------------------
def program_counters(oracles) -> Dict[str, Optional[float]]:
    """Program counters now; oracle counters are summed over ``oracles``."""
    values: Dict[str, Optional[float]] = {}
    for name, (module, holder, attribute) in PROGRAM_COUNTERS.items():
        try:
            obj = getattr(importlib.import_module(module), holder)
            values[name] = float(getattr(obj, attribute))
        except (ImportError, AttributeError, TypeError, ValueError):
            values[name] = None
    for key in ORACLE_COUNTERS:
        values[f"oracle.{key}"] = 0.0
    for oracle in oracles:
        try:
            stats = oracle.stats()
        except (AttributeError, TypeError):
            stats = {}
        for key in ORACLE_COUNTERS:
            value = stats.get(key)
            name = f"oracle.{key}"
            values[name] = (
                values[name] + value
                if isinstance(value, (int, float)) and values[name] is not None
                else None
            )
    return values


def _delta(before: Dict, after: Dict, key: str) -> Optional[float]:
    if before.get(key) is None or after.get(key) is None:
        return None
    return after[key] - before[key]


def _sum(*values: Optional[float]) -> Optional[float]:
    return None if any(v is None for v in values) else sum(values)


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                children = [int(c) for c in fh.read().split()]
        except (OSError, ValueError):
            continue
        for child in children:
            found.append(child)
            found.extend(_descendants(child))
    return found


def workers_peak_kb(exclude: Sequence[int] = ()) -> int:
    """Peak resident memory of this process's live children (shard workers)."""
    return sum(_hwm_kb(pid) for pid in _descendants(os.getpid())
               if pid not in exclude)


def own_peak_kb() -> int:
    kb = _hwm_kb(os.getpid())
    if kb:
        return kb
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir() if entry.is_file())


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: median time of :func:`kernel_seconds` on the 2-core reference host
KERNEL_REF_SECONDS = 0.0052


def kernel_seconds() -> float:
    """Time a fixed slice of pure-Python work (dict build and scan).

    The garbage collector is paused meanwhile.  Otherwise collections
    inside the kernel promote its 20,000 live tuples into the oldest
    generation, and that pending count triggers full collections of the
    program's heap (up to 0.25 s each on ``rush_hour``) at moments set by
    the wall clock, which then land in random engine calls.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i, i & 7)] = i * 0.5
        total = 0.0
        for value in table.values():
            total += value
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _kernel_server(conn) -> None:
    """Helper process: time the kernel whenever asked, until told to stop."""
    while conn.recv() is None:
        conn.send(kernel_seconds())


class KernelHelpers:
    """Processes that time the kernel alongside this one.

    ``city_sharded`` keeps both cores busy with its shard workers, and
    when neighbours load the host, two busy cores slow down more than
    one: in one ten-seed set its median decision time rose 1.9× while
    the kernel of the main process alone slowed 1.3×.  So a workload
    with shard workers times the kernel on as many processes at once,
    and scales engine calls by their mean.  Set-up and restore run in
    the main process alone and are scaled by its own kernel time: in
    six seeds the mean narrowed the decision-time spread from 0.14 to
    0.08 but widened the restore-time spread from 0.11 to 0.16.
    """

    def __init__(self, count: int) -> None:
        context = multiprocessing.get_context("fork")
        self.helpers = []
        for _ in range(count):
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_kernel_server, args=(theirs,), daemon=True)
            process.start()
            theirs.close()
            self.helpers.append((process, ours))

    @property
    def pids(self) -> List[int]:
        return [process.pid for process, _ in self.helpers]

    def kernel_seconds(self) -> Tuple[float, float]:
        """Kernel time of this process and the mean over it and the helpers.

        All of them run the kernel at once.
        """
        for _, conn in self.helpers:
            conn.send(None)
        own = kernel_seconds()
        return own, statistics.fmean(
            [own] + [conn.recv() for _, conn in self.helpers])

    def close(self) -> None:
        for process, conn in self.helpers:
            try:
                conn.send("stop")
            except OSError:
                pass
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join()
            conn.close()
        self.helpers = []


class HostSpeed:
    """How fast the host runs this process, sampled through a pass.

    On a shared host the interpreter's speed drifts by ±20 % over
    minutes, far more than a run can average out, so raw wall times of
    runs made minutes apart are not comparable.  A fixed calibration
    kernel, timed every half second of the replay and at every pause,
    slows down with the host and not with the program; scaling the
    run's times by ``factor`` expresses them in reference-host seconds.
    """

    INTERVAL = 0.5

    def __init__(self, helpers: Optional[KernelHelpers] = None) -> None:
        self.samples: List[float] = []  # mean over all kernel processes
        self.own_samples: List[float] = []  # this process alone
        self._last = float("-inf")
        self._helpers = helpers

    def sample(self) -> None:
        if self._helpers:
            own, mean = self._helpers.kernel_seconds()
        else:
            own = mean = kernel_seconds()
        self.own_samples.append(own)
        self.samples.append(mean)
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.sample()

    @property
    def factor(self) -> float:
        """Reference seconds per measured second (> 1 on a faster host)."""
        return KERNEL_REF_SECONDS / statistics.median(self.samples)

    @property
    def own_factor(self) -> float:
        """:attr:`factor` for work done in this process alone."""
        return KERNEL_REF_SECONDS / statistics.median(self.own_samples)


#: metric units whose values are times or rates, scaled by the host speed
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("req/s",)
#: metrics of work done in the main process alone (set-up, restore)
OWN_PROCESS_PREFIXES = ("setup", "recovery")


def normalized(
    metrics: Dict[str, Optional[float]], units: Dict[str, str],
    speed: HostSpeed,
) -> Dict[str, Optional[float]]:
    """Times × the host factor and rates ÷ it; everything else as is."""
    out = dict(metrics)
    for name, value in metrics.items():
        if value is None:
            continue
        factor = (speed.own_factor if name.startswith(OWN_PROCESS_PREFIXES)
                  else speed.factor)
        if units[name] in TIME_UNITS:
            out[name] = value * factor
        elif units[name] in RATE_UNITS:
            out[name] = value / factor
    return out


# ----------------------------------------------------------------------
# one replay of the stream
# ----------------------------------------------------------------------
@dataclass
class Replay:
    setup: Setup
    admitted: Set[int]
    engine_seconds: float
    decisions: List[float]  # engine calls that dispatched >= 1 batch
    before: Dict[str, Optional[float]]
    after: Dict[str, Optional[float]]
    error: Optional[str]
    committed: int  # riders committed or delivered once carry-over ran dry
    utility: float  # Dispatcher.total_utility
    speed: HostSpeed = field(default_factory=HostSpeed)
    checkpoint_bytes: List[int] = field(default_factory=list)

    @property
    def dispatcher(self) -> Dispatcher:
        return self.setup.dispatcher

    @property
    def capacity_rps(self) -> float:
        """Reference-host requests per second (see :class:`HostSpeed`)."""
        return len(self.admitted) / (self.engine_seconds * self.speed.factor)


def replay(
    s: Setup,
    arrivals: List[Arrival],
    drain_until: float,
    speed: HostSpeed,
    checkpoint_dir: Optional[Path] = None,
    pause_at: Sequence[float] = (),
    on_pause: Optional[Callable[[], None]] = None,
) -> Replay:
    """Feed the stream closed-loop, then run carry-over dry.

    Only the ``process`` calls are timed.  The drain fires one empty
    window per call until every carried rider is served or expired; its
    calls count toward ``capacity_rps`` but are not decision samples.
    With ``checkpoint_dir`` the directory is measured after every call
    that committed a frame.  ``on_pause`` runs once per entry of
    ``pause_at``, after the first arrival at or past that simulated time
    (any left over run before the drain).  ``speed`` is sampled every
    half second.  All three happen outside the timed calls.
    """
    engine = s.engine
    clock = time.perf_counter
    decisions: List[float] = []
    sizes: List[int] = []
    engine_seconds = 0.0
    error = None
    pending_pauses = sorted(pause_at) if on_pause is not None else []
    # the grouping plan queries an oracle of its own (over the split network)
    oracles = [s.dispatcher.oracle] + ([s.plan.oracle] if s.plan else [])
    before = program_counters(oracles)

    speed.sample()

    def call(items, **kwargs) -> float:
        nonlocal engine_seconds
        start = clock()
        try:
            fired = engine.process(items, **kwargs)
        finally:
            elapsed = clock() - start
            engine_seconds += elapsed
        if fired and checkpoint_dir is not None:
            sizes.append(dir_bytes(checkpoint_dir))
        speed.tick()
        return elapsed if fired else -1.0

    try:
        for arrival in arrivals:
            elapsed = call((arrival,))
            if elapsed >= 0:
                decisions.append(elapsed)
            while pending_pauses and arrival.time >= pending_pauses[0]:
                pending_pauses.pop(0)
                on_pause()
        for _ in pending_pauses:
            on_pause()
        while engine.dispatcher.clock + DELTA_T <= drain_until + 1e-9:
            call((), until=engine.dispatcher.clock + DELTA_T)
        call((), drain=True)
    except Exception:  # a raising batch fails its riders; report, not crash
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    counts = s.dispatcher.ledger_counts()
    return Replay(
        setup=s,
        admitted=set(engine.spans),
        engine_seconds=engine_seconds,
        decisions=decisions,
        before=before,
        after=program_counters(oracles),
        error=error,
        committed=counts["committed"] + counts["delivered"],
        utility=s.dispatcher.total_utility,
        speed=speed,
        checkpoint_bytes=sizes,
    )


def check(run: Replay, report: gate.GateReport) -> None:
    gate.check_run(run.dispatcher, run.admitted, report)
    if run.error is not None:
        resolved = {
            rid for rid, status in run.dispatcher.ledger.items()
            if status is not RiderStatus.PENDING
        }
        report.fail("dispatch raised: " + run.error.strip().splitlines()[-1],
                    run.admitted - resolved)


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
@contextlib.contextmanager
def frozen_heap():
    """Keep the live run's objects out of the garbage collector's scans.

    Restores and spare set-ups are timed inside the process that holds
    the live run; a full collection triggered by their allocations
    would scan that heap too, and it grows with the run (a stall of up
    to 0.25 s on ``rush_hour`` and 0.47 s on ``city_durable``).  A
    standby or a cold process holds none of it, so the heap is frozen
    while they are timed; their own objects are collected as usual.
    No collection is forced first: that would change when the live
    run's own collections fall.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Standby:
    """What a warm standby keeps loaded to take over from a crashed run.

    The road network, its distance oracle, the grouping plan and the
    social graph are shared with the live dispatcher (read-only city
    data).  The candidate index is the standby's own, built once on the
    same oracle and untimed: restore re-seats it on the restored fleet,
    which must not disturb the live run's index.
    """

    def __init__(self, workload: Workload, s: Setup) -> None:
        live = s.dispatcher
        self.kwargs = dict(
            network=live.network, oracle=live.oracle, plan=s.plan,
            social=live.social,
        )
        if workload.candidate_mode != "full":
            self.kwargs["candidate_index"] = build_candidate_index(
                live.network, oracle=live.oracle, mode=workload.candidate_mode
            )


def live_state(
    workload: Workload, s: Setup, checkpoint_dir: Path, state_dir: Path
) -> Path:
    """The directory holding the live state, to restore from (untimed).

    ``city_durable`` returns the directory its run writes every frame;
    the other workloads run without durability, so their live state is
    checkpointed into ``state_dir`` first.
    """
    if workload.durable:
        return checkpoint_dir
    shutil.rmtree(state_dir, ignore_errors=True)
    log = DurabilityLog(DurabilityConfig(directory=state_dir))
    log.write_snapshot(s.dispatcher)
    log.close()
    return state_dir


def restore_sample(
    s: Setup,
    standby: Standby,
    source: Path,
    recovery_dir: Path,
    report: gate.GateReport,
) -> float:
    """Time one warm ``Dispatcher.restore`` of the live state, then compare.

    ``source`` (see :func:`live_state`) is copied first, untimed, since
    restore writes a fresh snapshot into the directory it reads.  What
    is timed is the read path — load the snapshot and WAL, rebuild and
    verify the dispatcher, write a fresh snapshot — not the city
    preprocessing, which ``setup_s`` already measures.  The restored
    clock, ledger and fleet must equal the live ones.
    """
    live = s.dispatcher
    shutil.rmtree(recovery_dir, ignore_errors=True)
    shutil.copytree(source, recovery_dir)
    start = time.perf_counter()
    try:
        restored = Dispatcher.restore(str(recovery_dir), **standby.kwargs)
    except Exception:  # a state that cannot be restored is a failure
        report.fail("restore raised: " + traceback.format_exc(), ())
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    gate.check_restored(live, restored, report)
    restored.close()
    return elapsed


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _percentile_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e3


def end_to_end_metrics(
    runs: List[Replay],
    setup_samples: List[float],
    recovery_samples: List[float],
    peak_kb: int,
) -> Dict[str, float]:
    """Wall-clock values, pooled over the passes (days)."""
    admitted = sum(len(r.admitted) for r in runs)
    decisions = [t for r in runs for t in r.decisions]
    return {
        "setup_s": statistics.median(setup_samples),
        "capacity_rps": admitted / sum(r.engine_seconds for r in runs),  # raw
        "decision_p50_ms": _percentile_ms(decisions, 50),
        "decision_p90_ms": _percentile_ms(decisions, 90),
        "service_rate": sum(r.committed for r in runs) / admitted,
        "utility_per_request": sum(r.utility for r in runs) / admitted,
        "recovery_s": statistics.median(recovery_samples),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def layer_metrics(
    traced: Replay,
    untraced: Replay,
    tracer: tracing.Tracer,
    recovery_tracer: tracing.Tracer,
    missing: List[tracing.Probe],
) -> Dict[str, Optional[float]]:
    d = traced.dispatcher
    frames = len(d.reports)
    spans = tracer.spans
    own = tracing.self_seconds(spans)
    # a name is absent only when every probe reporting under it is gone
    absent = {p.name for p in missing} - {
        p.name for p in tracing.PROBES if p not in missing
    }

    def total(name: str) -> Optional[float]:
        if name in absent:
            return None
        return sum(spans[i].seconds for i in tracer.named(name))

    def self_total(name: str) -> Optional[float]:
        if name in absent:
            return None
        return sum(own[i] for i in tracer.named(name))

    def leaf(name: str) -> Optional[float]:
        return None if name in absent else tracer.leaf_seconds.get(name, 0.0)

    def calls(name: str) -> Optional[float]:
        return None if name in absent else float(tracer.calls.get(name, 0))

    def per_frame_ms(seconds: Optional[float]) -> Optional[float]:
        return None if seconds is None else seconds * 1e3 / frames

    def per_frame(value: Optional[float]) -> Optional[float]:
        return None if value is None else value / frames

    before, after = traced.before, traced.after
    touched = sum(
        len(getattr(r.assignment.schedules, "touched", ()) or ())
        for r in d.reports if r.assignment is not None
    )
    offered = sum(r.num_requests + r.num_carried for r in d.reports)
    served = sum(r.num_served for r in d.reports)
    plans = _delta(before, after, "insertion.plans")
    queries = _delta(before, after, "oracle.query_count")
    searches = _sum(*(_delta(before, after, f"oracle.{k}")
                      for k in ORACLE_COUNTERS[1:]))
    batches = traced.setup.engine.batches
    unattributed = _sum(self_total("service.process"),
                        self_total("dispatch.frame"))
    load = [s.seconds for s in recovery_tracer.spans if s.name == "recovery.load"]
    steps = traced.setup.steps
    return {
        "service.self_ms": per_frame_ms(self_total("service.process")),
        "service.count_trigger_share": _ratio(
            sum(1 for b in batches if b.trigger == "count"), len(batches)),
        "dispatch.frame_ms": per_frame_ms(total("dispatch.frame")),
        "dispatch.self_ms": per_frame_ms(self_total("dispatch.frame")),
        "dispatch.as_vehicle_calls": per_frame(calls("dispatch.as_vehicle")),
        "dispatch.as_vehicle_ms": per_frame_ms(leaf("dispatch.as_vehicle")),
        "dispatch.touched": touched / frames,
        "dispatch.as_vehicle_per_touched": _ratio(
            calls("dispatch.as_vehicle"), touched),
        "dispatch.utility_matrix_ms": per_frame_ms(
            total("dispatch.utility_matrix")),
        "dispatch.carried_share": _ratio(
            sum(r.num_carried for r in d.reports), offered),
        "solver.ms": per_frame_ms(
            _sum(total("solver.solve"), total("solver.solve_sharded"))),
        "insertion.plans_per_request": _ratio(plans, len(traced.admitted)),
        "insertion.accept_ratio": _ratio(served, plans),
        "candidates.prune_ms": per_frame_ms(leaf("candidates.prune")),
        "candidates.mean_set": _ratio(
            None if "candidates.prune" in absent
            else float(tracer.leaf_items.get("candidates.prune", 0)),
            calls("candidates.prune")),
        "candidates.update_calls": per_frame(calls("candidates.update")),
        "candidates.update_ms": per_frame_ms(leaf("candidates.update")),
        "candidates.prune_ratio": _ratio(
            _delta(before, after, "candidates.pruned"),
            _delta(before, after, "candidates.considered")),
        "oracle.queries": per_frame(queries),
        "oracle.searches": per_frame(searches),
        "oracle.hit_rate": (
            None if queries is None or searches is None
            else (max(0.0, 1.0 - searches / queries) if queries else 0.0)
        ),
        "setup.oracle_s": steps["oracle"],
        "setup.network_s": steps["network"],
        "setup.index_s": steps["index"],
        "setup.plan_s": steps["plan"],
        "setup.dispatcher_s": steps["dispatcher"],
        "durability.commit_ms": per_frame_ms(total("durability.commit")),
        "durability.snapshot_ms": per_frame_ms(total("durability.snapshot")),
        "durability.bytes_per_frame": (
            float(np.mean(traced.checkpoint_bytes))
            if traced.checkpoint_bytes else 0.0
        ),
        "recovery.load_ms": (
            None if "recovery.load" in absent or not load
            else statistics.median(load) * 1e3
        ),
        "shards.ms": per_frame_ms(total("shards.run")),
        "shards.reconciled_share": _ratio(
            _delta(before, after, "shards.reconciled"),
            _delta(before, after, "shards.boundary")),
        "shards.retries": sum(r.shard_retries for r in d.reports) / frames,
        "shards.fallbacks": sum(r.shard_fallbacks for r in d.reports) / frames,
        "trace.overhead": traced.capacity_rps / untraced.capacity_rps,
        "trace.unattributed_share": _ratio(
            unattributed, total("service.process")),
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def line_count(path: Path) -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted(path.rglob("*.py"))
    )


def provenance(args, workload: Workload, inputs: Inputs) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stream_minutes": inputs.minutes,
        "arrivals": sum(len(day) for day in inputs.days),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": git_commit(ROOT),
        "src_lines": line_count(ROOT / "src"),
        "check_lines": line_count(ROOT / "src" / "repro" / "check"),
    }


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def _close(run: Replay, helpers: KernelHelpers) -> int:
    """Close the dispatcher; returns its shard workers' peak memory (KB)."""
    workers = workers_peak_kb(exclude=helpers.pids)
    run.dispatcher.close()
    return workers


def _release(run: Replay) -> None:
    """Drop a finished pass's program state, keeping only its numbers."""
    run.setup.dispatcher = run.setup.engine = None
    gc.collect()


def pause_times(workload: Workload, minutes: int) -> List[float]:
    """Evenly spread simulated times, at one phase of the demand cycle.

    The state a restore reads (plans, carried riders, pinned utility
    rows) swells during a demand spike, so pauses are rounded to whole
    cycles of the demand profile: every run restores comparable states.
    """
    count = math.ceil(PAUSES / workload.passes)
    cycle = len(workload.demand_profile or (1,)) * DELTA_T
    return [
        cycle * round(minutes * (k + 1) / (count + 1) / cycle)
        for k in range(count)
    ]


def run_end_to_end(workload, seed, inputs, workdir, info, report, helpers):
    """One pass per day of the workload; samples set-up and restore at pauses."""
    checkpoint_dir = workdir / "checkpoint"
    state_dir = workdir / "state"
    recovery_dir = workdir / "recovery"
    spare_dir = workdir / "spare"
    setup_samples: List[float] = []
    recovery_samples: List[float] = []

    def fresh() -> Setup:
        s = setup(workload, seed, inputs, checkpoint_dir)
        setup_samples.append(s.seconds)
        return s

    speed = HostSpeed(helpers)
    s = fresh()
    runs: List[Replay] = []
    digests = []
    workers_kb = 0
    for index, arrivals in enumerate(inputs.days):
        if index:
            s = fresh()
        report.pass_index = index

        standby = Standby(workload, s)

        def sample(s=s, standby=standby) -> None:
            speed.sample()
            pause = len(recovery_samples) // RESTORES_PER_PAUSE
            source = live_state(workload, s, checkpoint_dir, state_dir)
            with frozen_heap():
                for _ in range(RESTORES_PER_PAUSE):
                    recovery_samples.append(restore_sample(
                        s, standby, source, recovery_dir, report))
                if pause % (PAUSES // SPARE_SETUPS) == 0:
                    spare = setup(workload, seed, inputs, spare_dir)
                    setup_samples.append(spare.seconds)
                    spare.dispatcher.close()
                    del spare

        # restores and extra set-ups are timed at pauses spread through
        # the stream: the host's speed drifts over seconds, and
        # back-to-back samples would all see one phase.  Mid-stream states
        # also all carry committed plans, where a drained end state may
        # not, so every restore does the same work.
        run = replay(
            s, arrivals, inputs.drain_until, speed,
            pause_at=pause_times(workload, inputs.minutes), on_pause=sample,
        )
        workers_kb = max(workers_kb, _close(run, helpers))
        check(run, report)
        # the end state must round-trip too (checked, not timed)
        restore_sample(
            s, standby, live_state(workload, s, checkpoint_dir, state_dir),
            recovery_dir, report)
        digests.append(gate.result_digest(run.dispatcher))
        runs.append(run)
        if index < workload.passes - 1:
            _release(run)
    info.update(
        digest="-".join(digests),
        passes=len(runs),
        decision_samples=sum(len(r.decisions) for r in runs),
        setup_samples=len(setup_samples),
        recovery_samples=len(recovery_samples),
        host_speed_samples=len(speed.samples),
    )
    metrics = end_to_end_metrics(
        runs, setup_samples, recovery_samples, own_peak_kb() + workers_kb
    )
    return metrics, sum(len(r.admitted) for r in runs), speed


def run_traced(workload, seed, inputs, workdir, info, report, helpers):
    """Day 0 once untraced, then once with every probe installed."""
    checkpoint_dir = workdir / "checkpoint"
    recovery_dir = workdir / "recovery"
    arrivals = inputs.days[0]
    untraced = replay(
        setup(workload, seed, inputs, checkpoint_dir), arrivals,
        inputs.drain_until, HostSpeed(helpers),
    )
    _close(untraced, helpers)
    check(untraced, report)
    untraced_digest = gate.result_digest(untraced.dispatcher)
    _release(untraced)

    s = setup(workload, seed, inputs, checkpoint_dir)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer) as missing:
        traced = replay(
            s, arrivals, inputs.drain_until, HostSpeed(helpers),
            checkpoint_dir if workload.durable else None,
        )
    _close(traced, helpers)
    report.pass_index = 1
    check(traced, report)
    digest = gate.result_digest(traced.dispatcher)
    if digest != untraced_digest:
        report.fail(
            f"traced digest {digest} != untraced digest {untraced_digest}", ()
        )
    standby = Standby(workload, s)
    source = live_state(workload, s, checkpoint_dir, workdir / "state")
    recovery_tracer = tracing.Tracer()
    with tracing.instrument(recovery_tracer), frozen_heap():
        for _ in range(TRACED_RESTORES):
            restore_sample(s, standby, source, recovery_dir, report)
    frames = len(traced.dispatcher.reports)
    breakdown = tracing.self_breakdown(tracer)
    info.update(
        digest=digest,
        frames=frames,
        decision_samples=len(traced.decisions),
        absent_probes=sorted({p.name for p in missing}),
        # where the engine-call time went: self time per layer, per frame,
        # in reference-host milliseconds like the metrics
        self_ms_per_frame={
            name: round(seconds * 1e3 / frames * traced.speed.factor, 3)
            for name, seconds in sorted(
                breakdown.items(), key=lambda item: -item[1])
        },
    )
    metrics = layer_metrics(traced, untraced, tracer, recovery_tracer, missing)
    attempted = len(untraced.admitted) + len(traced.admitted)
    return metrics, attempted, traced.speed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    return execute(workload, args)


def execute(workload: Workload, args) -> int:
    workdir = ROOT / "perfbench" / ".work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # forked before the program's state exists, so the helpers stay small
    helpers = KernelHelpers((workload.shard_workers or 1) - 1)
    try:
        inputs = make_inputs(workload, args.seed, args.seconds)
        info = provenance(args, workload, inputs)
        runner = run_traced if args.trace else run_end_to_end
        report = gate.GateReport()
        measured, attempted, speed = runner(
            workload, args.seed, inputs, workdir, info, report, helpers
        )
    finally:
        helpers.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only once no other run is using it
        except OSError:
            pass
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = normalized(measured, units, speed)
    info["host_speed_factor"] = speed.factor
    info["host_speed_factor_own"] = speed.own_factor
    info["measured"] = measured  # wall-clock values before normalizing
    if not args.trace and info["decision_samples"] < 100:
        print(f"warning: only {info['decision_samples']} decision samples; "
              f"p90 needs >= 100")
    info["absent_metrics"] = sorted(k for k, v in metrics.items() if v is None)
    info["gate_problems"] = report.problems[:20]
    print(json.dumps({"provenance": info}))
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {units[name]}")
    failed = len(report.failed_ids)
    if report.problems and not failed:
        failed = attempted  # a run-level mismatch taints every operation
    result = {
        "correct": report.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if report.ok else 1
