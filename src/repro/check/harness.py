"""One differential harness for the rolling-horizon dispatcher.

Every guarantee the dispatcher is trusted through is a differential
between two ways of running the *same* scenario — pruned ≡ full scan,
tiered ≡ untiered oracle, sharded ≡ global solve, stream ≡ batch,
restored ≡ uninterrupted — or, with no second run, the invariants of one
run.  This module states all of them with three parts:

- a :class:`Scenario`, drawn once per seed from one
  :class:`ScenarioConfig`: road network, fleet, solver method, utility
  weights, frame length, retry budget and every frame's riders, plus a
  dispatch layer (the seed's *mode*: sharded, pruned, tiered or
  watchdog) applied to every variant, and the optional disruption
  schedule and kill point;
- a :class:`Variant`: dispatcher layers plus a driver — ``batch``
  (``dispatch_frame`` per frame), ``stream`` (timed arrivals through a
  :class:`~repro.service.StreamingEngine` with the interval trigger
  pinned to the frame length), ``crash`` (a durable run killed at the
  seeded point, restored from its checkpoint directory and resumed) or
  ``count`` (the same arrivals under a small count trigger; its frames
  do not line up with the reference's, so it is audited, not compared);
- one comparator.  Every frame a variant dispatches live goes through
  the independent validator, the cross-frame invariants
  (:func:`_check_frame_invariants`) and the ledger audit
  (:func:`_check_ledger`); at every frame boundary each candidate must
  equal the reference in its logical frame summary, served riders,
  schedules stop by stop, carry-over queue, rider ledger, clock and
  fleet digest.

The ``python -m repro.check`` dispatcher modes are the entries of
:data:`PAIRS`: a reference variant, candidate variants and a strictness
rule.  One run loop (:func:`run_pair`), one seed report
(:class:`PairSeedReport`) and one replay printer
(:func:`format_report`) serve them all, and every seed is
deterministic, so any failure replays with ``--replay SEED``.
"""

from __future__ import annotations

import copy
import math
import os
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core import shards as _shards
from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher, RiderStatus
from repro.core.disruptions import (
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.durability import (
    CRASH_POINTS,
    DurabilityConfig,
    SimulatedCrash,
    frame_summary,
    logical_summary,
)
from repro.core.requests import Rider
from repro.core.scoring import SolverState
from repro.core.vehicles import Vehicle
from repro.obs import trace as _trace
from repro.perf import CANDIDATE_STATS
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.service import Arrival, StreamingEngine
from repro.check.fuzz import (
    _EPS,
    _WEIGHT_PROFILES,
    FuzzConfig,
    FuzzFailure,
    FuzzRunReport,
    _network_for,
    _plan_for,
)
from repro.check.validator import validate_assignment, validate_fleet_state

#: Solver methods a scenario draws from (GBS falls back to ``eg`` on
#: chaos seeds: its grouping plan is precomputed per network, and chaos
#: mutates the network mid-run).
METHODS: Tuple[str, ...] = ("eg", "ba", "cf", "gbs+eg")
#: Methods whose sharded frames must equal the global solve while no
#: frame has had a boundary conflict (BA's rng rider order is a global
#: draw and cannot decompose across shards).
STRICT_METHODS: Tuple[str, ...] = ("eg", "cf", "gbs+eg")
CANDIDATE_MODES: Tuple[str, ...] = ("spatial", "spatiotemporal")
MAX_CAPACITY = 3
SHARD_COUNT = 4
#: a pooled executor's per-frame deadline and retry budget
SHARD_TIMEOUT = 30.0
SHARD_RETRIES = 2
#: deliberately generous, so the configured method always wins tier 0
#: and committed schedules stay deterministic in the seed
WATCHDOG_BUDGET = 30.0
#: pickup slack in frames; tight seeds leave few reachable vehicles per
#: rider, the regime where conflict-free sharded frames occur
PICKUP_SLACK = (0.5, 3.5)
TIGHT_PICKUP_SLACK = (0.05, 0.45)
#: per-boundary probabilities of a breakdown, a cancellation/no-show, a
#: travel-time perturbation and a road closure on chaos seeds
CHAOS_PROBABILITIES = (0.25, 0.45, 0.35, 0.2)
CHECKPOINT_CADENCES = (1, 2, 3)
MAX_BATCH_RANGE = (2, 4)

#: Kill kinds beyond the named durability crash points.
BETWEEN_FRAMES = "between_frames"
WORKER_KILL = "worker_kill"
#: All kill kinds a scenario without a worker pool can draw.
KILL_KINDS: Tuple[str, ...] = CRASH_POINTS + (BETWEEN_FRAMES,)
#: Pooled sharded scenarios additionally draw mid-shard worker SIGKILLs.
SHARDED_KILL_KINDS: Tuple[str, ...] = KILL_KINDS + (WORKER_KILL,)


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of the seeded scenarios one pair draws."""

    grid: int = 6                       # grid_city rows = cols
    frames: Tuple[int, int] = (4, 6)    # frames per scenario
    riders: Tuple[int, int] = (2, 5)    # new riders per frame
    vehicles: Tuple[int, int] = (1, 3)
    #: dispatch layer applied to every variant, drawn per seed by weight
    #: (``sharded``, ``pruned``, ``tiered``, ``watchdog``); the remaining
    #: probability runs ``plain``
    modes: Tuple[Tuple[str, float], ...] = ()
    p_chaos: float = 0.0    # fraction of seeds with a disruption schedule
    p_tight: float = 0.0    # fraction of seeds with tight pickup deadlines
    shard_workers: int = 2  # worker processes of a pooled sharded variant


@dataclass
class Scenario:
    """Everything one seed fixes before any dispatcher runs."""

    seed: int
    network: RoadNetwork
    oracle: DistanceOracle
    method: str
    alpha: float
    beta: float
    frame_length: float
    max_retries: int
    fleet: List[Tuple[int, int, int]]   # (vehicle id, location, capacity)
    frames: List[List[Rider]]
    mode: str               # dispatch layer applied to every variant
    chaos: bool             # disruptions injected between frames
    candidate_mode: str     # index mode of pruned variants
    max_batch: int          # count trigger of count-driver variants
    checkpoint_every: int   # snapshot cadence of crash-driver variants
    kill: str               # kill kind of crash-driver variants ...
    kill_frame: int         # ... and the frame it strikes


def draw_scenario(seed: int, config: Optional[ScenarioConfig] = None) -> Scenario:
    """The seed's scenario: a pure function of ``seed`` and ``config``.

    Every variable is drawn unconditionally, in a fixed order, so the
    rng stream stays aligned whatever the config switches on.  Frame
    lengths sit on a quarter-minute lattice, so clocks accumulate
    bit-identically in the batch loop and the streaming engine's trigger
    arithmetic (the contract is exact equality, and the harness must not
    manufacture 1-ulp divergence the engine never produces).
    """
    config = config or ScenarioConfig()
    rng = np.random.default_rng(seed)
    network, oracle = _network_for(
        FuzzConfig(grid_rows=config.grid, grid_cols=config.grid), seed
    )
    roll = float(rng.random())
    mode = "plain"
    for name, weight in config.modes:
        if roll < weight:
            mode = name
            break
        roll -= weight
    chaos = bool(rng.random() < config.p_chaos)
    method = METHODS[int(rng.integers(len(METHODS)))]
    if chaos and method.startswith("gbs"):
        method = "eg"
    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    num_frames = int(rng.integers(config.frames[0], config.frames[1] + 1))
    num_vehicles = int(rng.integers(config.vehicles[0], config.vehicles[1] + 1))
    if chaos:
        # a breakdown can only apply with a vehicle to spare
        num_vehicles = max(num_vehicles, 2)
    frame_length = float(rng.integers(12, 33)) / 4.0
    max_retries = int(rng.integers(1, 5))
    tight = bool(rng.random() < config.p_tight)
    candidate_mode = CANDIDATE_MODES[int(rng.integers(len(CANDIDATE_MODES)))]
    max_batch = int(rng.integers(MAX_BATCH_RANGE[0], MAX_BATCH_RANGE[1] + 1))
    checkpoint_every = CHECKPOINT_CADENCES[
        int(rng.integers(len(CHECKPOINT_CADENCES)))
    ]
    # worker kills need a real process pool; serial shard executors draw
    # only the coordinator-side kill kinds
    pooled = mode == "sharded" and config.shard_workers >= 2
    kinds = SHARDED_KILL_KINDS if pooled else KILL_KINDS
    kill = kinds[int(rng.integers(len(kinds)))]
    # kill where a prefix of frames is committed and a suffix remains
    kill_frame = int(rng.integers(1, num_frames - 1)) if num_frames > 2 else 1
    if kill in ("post_snapshot_temp", "post_snapshot"):
        # these points exist only inside a snapshot write, which the
        # cadence may skip at the nominal kill frame: snap to the nearest
        # frame whose commit writes one
        boundaries = [
            f for f in range(num_frames) if (f + 1) % checkpoint_every == 0
        ]
        kill_frame = min(boundaries, key=lambda f: abs(f - kill_frame))
    fleet = [
        (
            j,
            int(rng.integers(network.num_nodes)),
            int(rng.integers(1, MAX_CAPACITY + 1)),
        )
        for j in range(num_vehicles)
    ]
    # every frame's riders, revealed at the frame start: deadlines live on
    # the absolute dispatcher clock, the pickup slack spans one to several
    # frames so riders are regularly carried over, and the drop-off detour
    # factor keeps shared rides feasible
    slack = TIGHT_PICKUP_SLACK if tight else PICKUP_SLACK
    frames: List[List[Rider]] = []
    rider_id = 0
    for frame in range(num_frames):
        riders = []
        for _ in range(int(rng.integers(config.riders[0], config.riders[1] + 1))):
            source = int(rng.integers(network.num_nodes))
            destination = int(rng.integers(network.num_nodes))
            while destination == source:
                destination = int(rng.integers(network.num_nodes))
            pickup = (frame + float(rng.uniform(*slack))) * frame_length
            riders.append(
                Rider(
                    rider_id=rider_id,
                    source=source,
                    destination=destination,
                    pickup_deadline=pickup,
                    dropoff_deadline=pickup + float(rng.uniform(1.2, 2.5))
                    * oracle.cost(source, destination),
                )
            )
            rider_id += 1
        frames.append(riders)
    return Scenario(
        seed=seed, network=network, oracle=oracle, method=method,
        alpha=alpha, beta=beta, frame_length=frame_length,
        max_retries=max_retries, fleet=fleet, frames=frames, mode=mode,
        chaos=chaos, candidate_mode=candidate_mode, max_batch=max_batch,
        checkpoint_every=checkpoint_every, kill=kill, kill_frame=kill_frame,
    )


# ----------------------------------------------------------------------
# variants and the pair table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Variant:
    """Dispatcher layers plus the driver that feeds it the scenario."""

    name: str
    driver: str = "batch"   # batch | stream | crash | count
    shards: str = ""        # "" unsharded | "serial" 1 worker | "pool"
    tiered: bool = False    # tier-1 (CH + ALT) distance oracle
    pruned: bool = False    # audited candidate index (scenario's mode)
    watchdog: bool = False  # frame budget through the anytime solver

    def layered(self, mode: str) -> "Variant":
        """This variant with the scenario's dispatch layer on top."""
        if mode == "sharded":
            # frame budgets do not compose with sharded solves
            return replace(self, shards=self.shards or "pool", watchdog=False)
        if mode in ("tiered", "pruned", "watchdog"):
            return replace(self, **{mode: True})
        return self


@dataclass(frozen=True)
class Pair:
    """One named differential: a reference, candidates, a strictness rule.

    Every candidate is compared with the reference at every frame
    boundary, except ``relaxed``: that candidate is held to the shard
    strictness rule — compared exactly only while the method is in
    :data:`STRICT_METHODS` and no frame so far had a boundary conflict
    (divergence legitimately cascades through carried state after one),
    and never allowed to out-serve the reference summed over a whole
    run.
    """

    label: str
    reference: Variant
    candidates: Tuple[Variant, ...] = ()
    config: ScenarioConfig = ScenarioConfig()
    relaxed: str = ""


_BATCH = Variant("batch")
_TIERED = Variant("tiered", tiered=True)
#: a frame budget the solver never hits must not change a frame
_WATCHDOG = Variant("watchdog", watchdog=True)
_CHAOS = ScenarioConfig(vehicles=(2, 4), p_chaos=1.0)

#: The dispatcher modes of ``python -m repro.check``, by name.
PAIRS: Dict[str, Pair] = {
    "dispatch": Pair("dispatcher scenarios", _BATCH, (_WATCHDOG,)),
    "chaos": Pair("chaos scenarios", _BATCH, (_WATCHDOG,), config=_CHAOS),
    "dispatch-tiered": Pair("tiered-oracle differentials", _BATCH, (_TIERED,)),
    "chaos-tiered": Pair(
        "tiered chaos differentials",
        _BATCH,
        (_TIERED,),
        replace(_CHAOS, modes=(("watchdog", 0.5),)),
    ),
    "prune": Pair(
        "prune differentials",
        Variant("full"),
        (Variant("pruned", pruned=True),),
        ScenarioConfig(grid=8, frames=(3, 5), riders=(3, 8), vehicles=(3, 10)),
    ),
    "dispatch-shards": Pair(
        "shard differentials",
        Variant("serial", shards="serial"),
        (Variant("pool", shards="pool"), Variant("global")),
        ScenarioConfig(
            grid=8, frames=(3, 5), riders=(3, 8), vehicles=(4, 10),
            p_tight=0.5, shard_workers=4,
        ),
        relaxed="global",
    ),
    "crash": Pair(
        "crash-recovery trials",
        _BATCH,
        (Variant("restored", driver="crash"),),
        ScenarioConfig(
            modes=(("sharded", 0.25), ("pruned", 0.25), ("tiered", 0.2))
        ),
    ),
    "crash-chaos": Pair(
        "crash-recovery chaos trials",
        _BATCH,
        (Variant("restored", driver="crash"),),
        ScenarioConfig(
            vehicles=(2, 4),
            modes=(("sharded", 0.25), ("pruned", 0.25), ("tiered", 0.2)),
            p_chaos=1.0,
        ),
    ),
    "stream": Pair(
        "stream differentials",
        _BATCH,
        (Variant("stream", driver="stream"), Variant("count", driver="count")),
        ScenarioConfig(
            riders=(0, 5), modes=(("sharded", 0.2), ("tiered", 0.2)),
            p_chaos=0.25,
        ),
    ),
}


@dataclass
class PairSeedReport:
    """Everything one seed of one pair produced."""

    seed: int
    pair: str = ""
    method: str = ""
    mode: str = "plain"
    chaos: bool = False
    kill: str = ""          # "<kind>@frame <n>" when a variant crashes
    variants: List[str] = field(default_factory=list)   # lanes that ran
    num_frames: int = 0
    num_vehicles: int = 0
    num_riders: int = 0
    frame_length: float = 0.0
    max_retries: int = 1
    total_requests: int = 0
    total_served: int = 0
    ledger: Dict[str, int] = field(default_factory=dict)
    #: pair-specific tallies (carried riders, applied disruptions,
    #: pruned pairs, strict/conflict frames, restored/resumed frames, ...)
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def scenario(self) -> str:
        return f"{self.pair}/{self.mode}"


def format_report(report: PairSeedReport) -> List[str]:
    """The replay printout of one seed (``--replay SEED --<mode>``)."""
    kill = f" kill={report.kill}" if report.kill else ""
    counts = "".join(f" {k}={v}" for k, v in sorted(report.counts.items()))
    lines = [
        f"seed {report.seed}: pair={report.pair} method={report.method} "
        f"mode={report.mode} chaos={'on' if report.chaos else 'off'} "
        f"frames={report.num_frames} vehicles={report.num_vehicles} "
        f"frame_length={report.frame_length:.2f} "
        f"max_retries={report.max_retries}{kill}",
        f"  variants={','.join(report.variants)} "
        f"riders={report.num_riders} requests={report.total_requests} "
        f"served={report.total_served}{counts}",
        f"  ledger={report.ledger}",
    ]
    lines.extend(f"  FAIL {failure}" for failure in report.failures)
    return lines


# ----------------------------------------------------------------------
# per-frame checks
# ----------------------------------------------------------------------
Fail = Callable[[str, str], None]


def _check_frame_invariants(
    dispatcher: Dispatcher,
    frame_report,
    pending_before: int,
    max_retries: int,
    fail: Fail,
) -> None:
    """Independent validation + cross-frame invariants for one frame.

    The frame's assignment goes through the independent validator, then
    the dispatcher's cross-frame invariants are asserted: ready times
    strictly ahead of the clock, onboard riders within capacity and each
    backed by a committed drop-off, a carry-over queue of live-deadline
    riders with unspent retry budgets, and conserved per-frame rider
    accounting (served + expired + carried forward = offered).
    """
    validation = validate_assignment(
        frame_report.assignment.instance,
        frame_report.assignment,
        audit_event_fields=True,
    )
    for violation in validation.violations:
        fail("validate", str(violation))

    clock = dispatcher.clock
    for vid, fv in dispatcher.fleet.items():
        if fv.ready_time is not None and fv.ready_time <= clock:
            fail(
                "invariant",
                f"vehicle {vid} ready_time {fv.ready_time:.6f} not ahead "
                f"of clock {clock:.6f}",
            )
        if len(fv.onboard) > fv.capacity:
            fail(
                "invariant",
                f"vehicle {vid} carries {len(fv.onboard)} riders "
                f"(capacity {fv.capacity})",
            )
        drops = {
            s.rider.rider_id
            for s in fv.committed_stops
            if s.kind.value == "dropoff"
        }
        for r in fv.onboard:
            if r.rider_id not in drops:
                fail(
                    "invariant",
                    f"onboard rider {r.rider_id} on vehicle {vid} has no "
                    f"committed drop-off",
                )
    for entry in dispatcher._carryover:
        if entry.rider.pickup_deadline <= clock:
            fail(
                "invariant",
                f"dead rider {entry.rider.rider_id} in the carry-over "
                f"queue (deadline {entry.rider.pickup_deadline:.6f} <= "
                f"clock {clock:.6f})",
            )
        if entry.attempts >= max_retries:
            fail(
                "invariant",
                f"rider {entry.rider.rider_id} carried with spent retry "
                f"budget ({entry.attempts})",
            )

    offered = frame_report.num_requests + frame_report.num_carried
    carried = len(dispatcher.pending_requests)
    accounted = frame_report.num_served + frame_report.num_expired + carried
    if offered != accounted:
        fail(
            "invariant",
            f"rider accounting leaks: offered {offered} != served "
            f"{frame_report.num_served} + expired "
            f"{frame_report.num_expired} + carried {carried}",
        )
    if frame_report.num_carried != pending_before:
        fail(
            "invariant",
            f"num_carried {frame_report.num_carried} != queue size before "
            f"the frame {pending_before}",
        )


def _check_ledger(dispatcher: Dispatcher, issued: Set[int], fail: Fail) -> None:
    """The conservation invariant: the ledger accounts for every rider.

    Ledger keys are exactly the rider ids ever issued, ``PENDING`` is
    exactly the carry-over queue, and ``COMMITTED`` is exactly the riders
    in some vehicle's onboard tuple or committed chain — so pending +
    committed + delivered + expired + cancelled = issued, with no rider
    counted twice or lost.
    """
    ledger = dispatcher.ledger
    if set(ledger) != issued:
        fail(
            "ledger",
            f"ledger keys diverge from issued ids "
            f"(extra={sorted(set(ledger) - issued)[:5]}, "
            f"missing={sorted(issued - set(ledger))[:5]})",
        )
    queue = {e.rider.rider_id for e in dispatcher._carryover}
    pending = dispatcher.riders_with_status(RiderStatus.PENDING)
    if pending != queue:
        fail(
            "ledger",
            f"PENDING {sorted(pending)} != carry-over queue {sorted(queue)}",
        )
    planned: Set[int] = set()
    for fv in dispatcher.fleet.values():
        planned.update(r.rider_id for r in fv.onboard)
        planned.update(s.rider.rider_id for s in fv.committed_stops)
    committed = dispatcher.riders_with_status(RiderStatus.COMMITTED)
    if committed != planned:
        fail(
            "ledger",
            f"COMMITTED {sorted(committed)} != fleet plans {sorted(planned)}",
        )


def _tiered_cost_sweep(
    network: RoadNetwork,
    tiered: DistanceOracle,
    untiered: DistanceOracle,
    rng: np.random.Generator,
    count: int,
    fail: Fail,
) -> None:
    """Direct bitwise differential on sampled node pairs.

    Tier-1 bit-identity is a hard contract (the CH unpacks and re-sums
    original edges from the source), so tiered and untiered oracles must
    return ``==`` floats — not approx — for every pair; only matching
    infinities may differ as objects.
    """
    nodes = sorted(network.nodes())
    for _ in range(count):
        u = int(nodes[int(rng.integers(len(nodes)))])
        v = int(nodes[int(rng.integers(len(nodes)))])
        a = tiered.cost(u, v)
        b = untiered.cost(u, v)
        if a != b and not (math.isinf(a) and math.isinf(b)):
            fail(
                "cost",
                f"cost({u}, {v}) diverges bitwise: tiered={a!r} "
                f"untiered={b!r}",
            )
            return


def _chaos_events(
    dispatcher: Dispatcher, network: RoadNetwork, rng: np.random.Generator
) -> List:
    """Seeded disruption schedule for one frame boundary.

    Every gate variable is drawn unconditionally so the rng stream stays
    aligned regardless of which events fire; the targets are drawn from
    sorted views of the dispatcher's state, so the whole schedule is
    deterministic in the seed.
    """
    gates = [rng.random() < p for p in CHAOS_PROBABILITIES]
    edges = [(u, v) for u, v, _cost in network.edges()]
    events: List = []
    if gates[0] and len(dispatcher.fleet) > 1:
        vids = sorted(dispatcher.fleet)
        events.append(
            VehicleBreakdown(vehicle_id=int(vids[int(rng.integers(len(vids)))]))
        )
    if gates[1]:
        candidates = sorted(
            {e.rider.rider_id for e in dispatcher._carryover}
            | {
                rid
                for fv in dispatcher.fleet.values()
                for rid in fv.committed_rider_ids()
            }
        )
        if candidates:
            rid = int(candidates[int(rng.integers(len(candidates)))])
            cls = RiderNoShow if rng.random() < 0.3 else RiderCancellation
            events.append(cls(rider_id=rid))
    if gates[2] and edges:
        count = int(rng.integers(1, min(3, len(edges)) + 1))
        factors = tuple(
            (u, v, float(rng.uniform(0.5, 3.0)))
            for u, v in (
                edges[int(rng.integers(len(edges)))] for _ in range(count)
            )
        )
        events.append(TravelTimePerturbation(factors=factors))
    if gates[3] and edges:
        u, v = edges[int(rng.integers(len(edges)))]
        events.append(RoadClosure(edges=((u, v),)))
    return events


def _frame_has_boundary_conflict(
    dispatcher: Dispatcher, requests: List[Rider]
) -> bool:
    """Would this frame's batch see any out-of-shard vehicle?

    Evaluated against the sharded dispatcher's *pre-frame* state with
    the engine's own coarse reachability test, so it is exactly the
    predicate under which per-shard solves compose to the global solve.
    """
    plan = dispatcher._shard_plan
    assert plan is not None, "conflict predicate needs a sharded dispatcher"
    batch = list(requests) + dispatcher.pending_requests
    instance = dispatcher._build_instance(batch)
    state = SolverState(instance)
    for rider in batch:
        home = plan.shard_of(rider.source)
        for vehicle in state.reachable_vehicles(rider, instance.vehicles):
            if plan.shard_of(vehicle.location) != home:
                return True
    return False


def _state(dispatcher: Dispatcher) -> Dict[str, object]:
    """The cross-frame state two equivalent runs must share exactly."""
    return {
        "queue": [(e.rider.rider_id, e.attempts) for e in dispatcher._carryover],
        "ledger": {
            rid: status.value for rid, status in dispatcher.ledger.items()
        },
        "clock": dispatcher.clock,
        "fleet": {
            vid: (
                fv.location,
                fv.ready_time,
                sorted(r.rider_id for r in fv.onboard),
                [
                    (s.rider.rider_id, s.kind.value, s.location)
                    for s in fv.committed_stops
                ],
                fv.total_cost,
                fv.riders_served,
            )
            for vid, fv in dispatcher.fleet.items()
        },
    }


def _frame_view(report) -> Dict[str, object]:
    """A live frame's served riders and schedules, stop by stop."""
    return {
        "served": sorted(report.assignment.served_rider_ids()),
        "schedules": {
            vid: [
                (s.rider.rider_id, s.kind.value, s.location, arrive)
                for s, arrive in zip(seq.stops, seq.arrive)
            ]
            for vid, seq in sorted(report.assignment.schedules.items())
        },
    }


def _diff(a, b) -> str:
    if isinstance(a, dict) and isinstance(b, dict):
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return str({k: (a.get(k), b.get(k)) for k in keys[:5]})
    return f"{a} != {b}"


def _arrivals_for(requests: List[Rider], frame: int, length: float) -> List[Arrival]:
    """Timed arrivals for one frame's riders, in batch list order.

    Timestamps are strictly increasing inside the open window and stay
    clear of the closing boundary, so the buffered order the engine
    dispatches matches the list order the batch dispatcher saw.
    """
    count = len(requests)
    return [
        Arrival(rider=rider, time=frame * length + (i + 0.5) / count * length)
        for i, rider in enumerate(requests)
    ]


# ----------------------------------------------------------------------
# lanes and drivers
# ----------------------------------------------------------------------
class _Lane:
    """One variant's live dispatcher within a trial."""

    def __init__(self, trial: "_Trial", variant: Variant) -> None:
        sc = trial.sc
        self.trial = trial
        self.name = variant.name
        self.variant = variant.layered(sc.mode)
        # chaos mutates the road network, so each lane gets a private
        # copy; otherwise lanes share the cached network and oracle
        self.network = sc.network.copy() if sc.chaos else sc.network
        if self.variant.tiered:
            self.oracle = DistanceOracle(self.network, tier=1)
        elif sc.chaos:
            self.oracle = DistanceOracle(self.network)
        else:
            self.oracle = sc.oracle
        kwargs: dict = {}
        if variant.driver == "crash":
            self.tmpdir = trial.stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-crash-")
            )
            kwargs["durability"] = DurabilityConfig(
                self.tmpdir, checkpoint_every=sc.checkpoint_every, fsync=False
            )
        self.d = self.build(**kwargs)
        self.pending = 0
        self.committed: Set[int] = set()

    def build(self, **kwargs) -> Dispatcher:
        sc, v = self.trial.sc, self.variant
        if v.shards:
            workers = 1 if v.shards == "serial" else self.trial.config.shard_workers
            kwargs.update(shard_workers=workers, shard_count=SHARD_COUNT)
            if workers >= 2:
                kwargs.update(
                    shard_timeout=SHARD_TIMEOUT, shard_retries=SHARD_RETRIES
                )
        if v.pruned:
            kwargs.update(
                candidate_mode=sc.candidate_mode,
                candidate_index=build_candidate_index(
                    self.network, oracle=self.oracle, mode=sc.candidate_mode,
                    audit=True,
                ),
            )
        if v.watchdog:
            kwargs["frame_budget"] = WATCHDOG_BUDGET
        dispatcher = Dispatcher(
            self.network,
            [Vehicle(vehicle_id=j, location=loc, capacity=cap)
             for j, loc, cap in sc.fleet],
            method=sc.method,
            frame_length=sc.frame_length,
            plan=self.trial.plan,
            alpha=sc.alpha,
            beta=sc.beta,
            oracle=self.oracle,
            seed=sc.seed,
            max_retries=sc.max_retries,
            **kwargs,
        )
        return self.trial.stack.enter_context(dispatcher)

    def mark(self) -> None:
        """Record the pre-frame state the next frame is audited against."""
        self.pending = len(self.d.pending_requests)
        self.committed = self.d.riders_with_status(RiderStatus.COMMITTED)

    def dispatch(self, riders: List[Rider]):
        self.mark()
        return self.d.dispatch_frame(list(riders))


def _batch(trial: "_Trial", lane: _Lane):
    for riders in trial.sc.frames:
        yield lane.dispatch(riders), True


def _stream(trial: "_Trial", lane: _Lane):
    """Interval trigger pinned to the frame length: one frame per window."""
    length = trial.sc.frame_length
    engine = StreamingEngine(lane.d, delta_t=length)
    for f, riders in enumerate(trial.sc.frames):
        lane.mark()
        fired = engine.process(
            _arrivals_for(riders, f, length), until=(f + 1) * length
        )
        if len(fired) != 1 or fired[0].trigger != "interval":
            trial.fail(
                "trigger",
                f"{lane.name}: frame {f}: pinned interval trigger fired "
                f"{[(b.trigger, b.solved_at) for b in fired]} instead of "
                f"one interval frame",
            )
            return
        if fired[0].report.num_requests != len(riders):
            trial.fail(
                "trigger",
                f"{lane.name}: frame {f}: engine admitted "
                f"{fired[0].report.num_requests} new riders, batch saw "
                f"{len(riders)}",
            )
        yield fired[0].report, True


def _crash(trial: "_Trial", lane: _Lane):
    """Kill the durable run at the seeded point, restore, resume.

    A :class:`SimulatedCrash` fires from the named crash point inside
    the kill frame's ``commit_frame``; ``between_frames`` models a plain
    process exit after the kill frame; ``worker_kill`` SIGKILLs a shard
    worker mid-solve and then crashes the coordinator after its WAL
    append.  Frames the checkpoint restores are compared by summary and
    state only; the resumed ones are live again.
    """
    sc = trial.sc
    durable = lane.d
    point = "post_wal" if sc.kill == WORKER_KILL else sc.kill

    def crash_hook(name: str) -> None:
        # the frame cursor advances before commit_frame runs, so frame k
        # commits with _frame_index == k + 1
        if name == point and durable._frame_index == sc.kill_frame + 1:
            raise SimulatedCrash(name)

    if sc.kill != BETWEEN_FRAMES:
        durable._durability.crash_hook = crash_hook
    marker = os.path.join(lane.tmpdir, "fault.marker")

    def inject(task: _shards.ShardTask) -> None:
        task.fault_path = marker

    crashed = False
    for f in range(sc.kill_frame + 1):
        if f == sc.kill_frame and sc.kill == WORKER_KILL:
            # one-shot: the dead worker consumes the marker, so the
            # executor's rebuilt pool solves the retry cleanly
            open(marker, "w").close()
            _shards._FAULT_INJECTOR = inject
        try:
            report = lane.dispatch(sc.frames[f])
        except SimulatedCrash:
            crashed = True
            break
        finally:
            _shards._FAULT_INJECTOR = None
        yield report, True
    # a real crash loses the process; here only the worker pool is reaped
    durable.close()
    if not crashed and sc.kill != BETWEEN_FRAMES:
        trial.fail(
            "kill",
            f"{lane.name}: seeded {sc.kill} kill at frame {sc.kill_frame} "
            f"never fired",
        )
        return

    kwargs: dict = {"plan": trial.plan} if trial.plan is not None else {}
    if lane.variant.tiered:
        kwargs["oracle"] = DistanceOracle(lane.network, tier=1)
    try:
        restored = Dispatcher.restore(lane.tmpdir, **kwargs)
    except Exception as exc:  # noqa: BLE001 — any restore failure is a bug
        trial.fail("restore", f"{lane.name}: {type(exc).__name__}: {exc}")
        return
    lane.d = trial.stack.enter_context(restored)
    cursor = restored._frame_index
    trial.report.counts["restored"] = cursor
    # every kill but pre_wal strikes after the kill frame's WAL append
    committed = sc.kill_frame + (sc.kill != "pre_wal")
    if cursor != committed:
        trial.fail(
            "restore",
            f"{lane.name}: restored cursor {cursor} after a {sc.kill} kill "
            f"at frame {sc.kill_frame}; {committed} frame(s) were committed",
        )
        return
    if crashed and cursor > sc.kill_frame:
        yield restored.reports[sc.kill_frame], False
    for f in range(cursor, len(sc.frames)):
        trial.report.counts["resumed"] = f - cursor + 1
        yield lane.dispatch(sc.frames[f]), True


_DRIVERS = {"batch": _batch, "stream": _stream, "crash": _crash}


def _count(trial: "_Trial", lane: _Lane) -> None:
    """The whole arrival stream under a small count trigger.

    Frames fire at arrival-driven, variable-length horizons, so every
    fired micro-batch is audited in the engine's boundary hook, and the
    engine's span accounting must close: delivered + expired + cancelled
    + open = admitted.
    """
    sc = trial.sc
    length = sc.frame_length
    arrivals = [
        a
        for f, riders in enumerate(sc.frames)
        for a in _arrivals_for(riders, f, length)
    ]

    def hook(engine: StreamingEngine, fired) -> None:
        trial.audit(lane, fired.report, f"batch {fired.index}", set(engine.spans))
        lane.mark()

    lane.mark()
    engine = StreamingEngine(
        lane.d, delta_t=length, max_batch=sc.max_batch, boundary_hook=hook
    )
    engine.process(arrivals, until=len(sc.frames) * length, drain=True)
    trial.report.counts[f"{lane.name}_batches"] = len(engine.batches)
    s = engine.summary()
    if s["admitted"] != len(arrivals):
        trial.fail(
            "spans",
            f"{lane.name}: engine admitted {s['admitted']} of "
            f"{len(arrivals)} arrivals",
        )
    if s["delivered"] + s["expired"] + s["cancelled"] + s["open"] != s["admitted"]:
        trial.fail(
            "spans",
            f"{lane.name}: span accounting leaks: delivered "
            f"{s['delivered']} + expired {s['expired']} + cancelled "
            f"{s['cancelled']} + open {s['open']} != admitted "
            f"{s['admitted']}",
        )
    for span in engine.spans.values():
        if span.delivery is not None and span.committed is None:
            trial.fail(
                "spans",
                f"{lane.name}: rider {span.rider_id} delivered without a "
                f"recorded commitment",
            )


# ----------------------------------------------------------------------
# one trial: lanes in lockstep, one comparator
# ----------------------------------------------------------------------
Boundary = Tuple[_Lane, Optional[object], bool]   # lane, frame report, live


class _Trial:
    def __init__(
        self,
        name: str,
        sc: Scenario,
        config: ScenarioConfig,
        stack: ExitStack,
    ) -> None:
        self.pair = PAIRS[name]
        self.sc = sc
        self.config = config
        self.stack = stack
        self.plan = _plan_for(sc.network) if sc.method.startswith("gbs") else None
        self.sweep_rng = np.random.default_rng(sc.seed ^ 0x7EED)
        self.report = PairSeedReport(
            seed=sc.seed, pair=name, method=sc.method, mode=sc.mode,
            chaos=sc.chaos, num_frames=len(sc.frames),
            num_vehicles=len(sc.fleet),
            num_riders=sum(len(riders) for riders in sc.frames),
            frame_length=sc.frame_length, max_retries=sc.max_retries,
        )
        self.counts = self.report.counts

    def fail(self, stage: str, detail: str) -> None:
        self.report.failures.append(
            FuzzFailure(
                seed=self.sc.seed, stage=stage, method=self.sc.method,
                detail=detail,
            )
        )

    def scoped(self, where: str) -> Fail:
        """:meth:`fail` with every detail prefixed by ``where``."""
        return lambda stage, detail: self.fail(stage, f"{where}: {detail}")

    def audit(self, lane: _Lane, report, where: str, issued: Set[int]) -> None:
        """Every check one live frame of one lane must pass."""
        fail = self.scoped(f"{lane.name}: {where}")
        _check_frame_invariants(
            lane.d, report, lane.pending, self.sc.max_retries, fail
        )
        # within a frame a committed rider may only be delivered
        for rid in sorted(lane.committed):
            status = lane.d.ledger[rid]
            if status not in (RiderStatus.COMMITTED, RiderStatus.DELIVERED):
                fail(
                    "invariant",
                    f"committed rider {rid} became {status.value} without "
                    f"a disruption",
                )
        if lane.variant.watchdog and not report.solver_tier:
            fail("invariant", "no solver tier recorded under a frame budget")
        # merge and reconciliation may only add service on top of the
        # carried-in plans
        if lane.variant.shards and report.utility < -_EPS:
            fail(
                "invariant",
                f"frame utility {report.utility:.9f} fell below the "
                f"carried-in baseline",
            )
        _check_ledger(lane.d, issued, fail)

    def compare(self, where: str, ref: Boundary, cand: Boundary) -> None:
        """The comparator: one boundary must be identical across lanes."""
        views = []
        for lane, report, live in (ref, cand):
            view: Dict[str, object] = {}
            if report is not None:
                view["summary"] = logical_summary(frame_summary(report))
            if live:
                view.update(_frame_view(report))
            view.update(_state(lane.d))
            views.append(view)
        for key, want in views[0].items():
            got = views[1].get(key, want)
            if got != want:
                self.fail(
                    "diverge",
                    f"{where}: {key} diverge ({ref[0].name} vs "
                    f"{cand[0].name}): {_diff(want, got)}",
                )
                return

    def sweep(self, where: str, lanes: List[_Lane], count: int) -> None:
        """Bitwise cost sweep of every tiered-vs-untiered lane pair.

        The sweep draws from a private rng, so it cannot disturb the
        scenario or disruption streams.
        """
        ref = lanes[0]
        for lane in lanes[1:]:
            if lane.variant.tiered == ref.variant.tiered:
                continue
            tiered, untiered = (lane, ref) if lane.variant.tiered else (ref, lane)
            _tiered_cost_sweep(
                tiered.network, tiered.d.oracle, untiered.d.oracle,
                self.sweep_rng, count, self.scoped(where),
            )
            if tiered.d.oracle.effective_tier != 1:
                self.fail(
                    "cost",
                    f"{where}: tier-1 oracle silently degraded to tier "
                    f"{tiered.d.oracle.effective_tier} (sweep not testing "
                    f"the CH)",
                )

    def disrupt(
        self,
        frame: int,
        lanes: List[_Lane],
        rng: np.random.Generator,
        issued: Set[int],
    ) -> None:
        """Inject the boundary's seeded disruptions into every lane.

        Events are drawn from the reference's state and replayed into
        each lane; no committed rider may leave ``COMMITTED`` except
        through an outcome naming it, the ledger must still conserve
        every rider, and the repaired fleet must pass the independent
        :func:`validate_fleet_state` audit and round-trip through
        :class:`Vehicle`'s own carried-state validation.
        """
        events = _chaos_events(lanes[0].d, lanes[0].network, rng)
        if not events:
            return
        where = f"frame {frame} post-inject"
        self.counts["events"] = self.counts.get("events", 0) + len(events)
        applied = []
        for lane in lanes:
            fail = self.scoped(f"{lane.name}: {where}")
            before = lane.d.riders_with_status(RiderStatus.COMMITTED)
            try:
                outcomes = lane.d.inject(copy.deepcopy(events))
            except Exception as exc:  # noqa: BLE001 — any inject failure is a bug
                fail("disrupt", f"{type(exc).__name__}: {exc}")
                return
            applied.append([o.applied for o in outcomes])
            allowed: Set[int] = set()
            for outcome in outcomes:
                allowed.update(outcome.affected_rider_ids)
            for rid in sorted(before):
                status = lane.d.ledger[rid]
                if status is not RiderStatus.COMMITTED and rid not in allowed:
                    fail(
                        "disrupt",
                        f"committed rider {rid} became {status.value} "
                        f"outside any disruption outcome",
                    )
            _check_ledger(lane.d, issued, fail)
            state = validate_fleet_state(
                lane.d.fleet.values(), lane.d.clock, oracle=lane.d.oracle
            )
            for violation in state.violations:
                fail("disrupt", str(violation))
            for fv in lane.d.fleet.values():
                try:
                    fv.as_vehicle()
                except ValueError as exc:
                    fail("disrupt", f"vehicle {fv.vehicle_id}: {exc}")
        self.counts["applied"] = self.counts.get("applied", 0) + sum(applied[0])
        for lane, outcome in zip(lanes[1:], applied[1:]):
            if outcome != applied[0]:
                self.fail(
                    "diverge",
                    f"{where}: disruption outcomes diverge ({lanes[0].name} "
                    f"vs {lane.name}): {applied[0]} != {outcome}",
                )
            self.compare(where, (lanes[0], None, False), (lane, None, False))
        self.sweep(where, lanes, 40)

    def run(self) -> None:
        sc, pair, counts = self.sc, self.pair, self.counts
        stats_before = CANDIDATE_STATS.snapshot()
        lanes = [_Lane(self, pair.reference)] + [
            _Lane(self, v) for v in pair.candidates if v.driver != "count"
        ]
        ref = lanes[0]
        self.report.variants = [lane.name for lane in lanes]
        if any(lane.variant.driver == "crash" for lane in lanes):
            self.report.kill = f"{sc.kill}@frame {sc.kill_frame}"
        strict = bool(pair.relaxed) and sc.method in STRICT_METHODS
        if pair.relaxed:
            counts.update(strict_frames=0, conflict_frames=0)
        counts["carried"] = 0
        steps = [_DRIVERS[lane.variant.driver](self, lane) for lane in lanes]
        chaos_rng = np.random.default_rng((sc.seed << 1) ^ 0x57EA)
        issued: Set[int] = set()
        completed = True
        for f, riders in enumerate(sc.frames):
            issued.update(r.rider_id for r in riders)
            if pair.relaxed:
                if _frame_has_boundary_conflict(ref.d, riders):
                    counts["conflict_frames"] += 1
                    strict = False
                elif strict:
                    counts["strict_frames"] += 1
            boundary: List[Boundary] = []
            for lane, step in zip(lanes, steps):
                try:
                    report, live = next(step)
                except StopIteration:
                    completed = False  # the driver recorded why
                    break
                except Exception as exc:  # noqa: BLE001 — any raise is a bug
                    self.fail(
                        "dispatch",
                        f"{lane.name}: frame {f}: {type(exc).__name__}: {exc}",
                    )
                    completed = False
                    break
                if live:
                    self.audit(lane, report, f"frame {f}", issued)
                else:
                    _check_ledger(
                        lane.d, issued, self.scoped(f"{lane.name}: frame {f}")
                    )
                boundary.append((lane, report, live))
            if not completed:
                break
            counts["carried"] += boundary[0][1].num_carried
            for cand in boundary[1:]:
                if cand[0].name != pair.relaxed or strict:
                    self.compare(f"frame {f}", boundary[0], cand)
            self.sweep(f"frame {f}", lanes, 40)
            if self.report.failures:
                break
            if sc.chaos and f < len(sc.frames) - 1:
                self.disrupt(f, lanes, chaos_rng, issued)
                if self.report.failures:
                    break

        self.report.total_requests = ref.d.total_requests
        self.report.total_served = ref.d.total_served
        self.report.ledger = ref.d.ledger_counts()
        for lane in lanes:
            if lane.name == pair.relaxed:
                counts["relaxed_served"] = lane.d.total_served
        if not self.report.failures:
            self.finish(lanes, strict)
        if any(lane.variant.pruned for lane in lanes):
            stats = CANDIDATE_STATS.snapshot().delta(stats_before)
            counts.update(pairs=stats.pairs_considered, pruned=stats.pairs_pruned)
            if stats.pruned_in_error:
                self.fail(
                    "audit",
                    f"{stats.pruned_in_error} pruned pair(s) survive the "
                    f"exact reachability re-check (unsound lower bound)",
                )

    def finish(self, lanes: List[_Lane], strict: bool) -> None:
        """Whole-run checks after the last frame boundary."""
        ref = lanes[0]
        want = [logical_summary(frame_summary(r)) for r in ref.d.reports]
        for lane in lanes:
            # (a breakdown strands served riders back into the queue, so
            # chaos runs may legitimately serve a rider twice)
            if (
                not self.sc.chaos
                and lane.d.total_served > lane.d.total_requests
            ):
                self.fail(
                    "invariant",
                    f"{lane.name}: served {lane.d.total_served} riders out "
                    f"of {lane.d.total_requests} submitted",
                )
            if lane is ref or (lane.name == self.pair.relaxed and not strict):
                continue
            # restored runs re-materialize early frames from the
            # checkpoint: the whole report list must match, not just the
            # frames seen live
            got = [logical_summary(frame_summary(r)) for r in lane.d.reports]
            if got != want:
                self.fail(
                    "diverge",
                    f"final: {lane.name} frame reports diverge from "
                    f"{ref.name}: {_diff(dict(enumerate(want)), dict(enumerate(got)))}",
                )
        self.sweep("post-run sweep", lanes, 200)
        for variant in self.pair.candidates:
            if variant.driver == "count":
                self.counts[f"{variant.name}_batches"] = 0
                if self.sc.chaos:
                    # disruptions need frame boundaries shared with the
                    # reference; the lockstep lanes replayed them
                    continue
                lane = _Lane(self, variant)
                self.report.variants.append(lane.name)
                try:
                    _count(self, lane)
                except Exception as exc:  # noqa: BLE001 — any raise is a bug
                    self.fail(
                        "dispatch", f"{lane.name}: {type(exc).__name__}: {exc}"
                    )


def fuzz_pair_seed(
    pair: str, seed: int, config: Optional[ScenarioConfig] = None
) -> PairSeedReport:
    """Run one seed of the named pair (a key of :data:`PAIRS`)."""
    config = config or PAIRS[pair].config
    with _trace.span("fuzz.seed", kind=pair, seed=seed) as seed_span:
        with ExitStack() as stack:
            trial = _Trial(pair, draw_scenario(seed, config), config, stack)
            trial.run()
        report = trial.report
        seed_span.annotate(ok=report.ok, failures=len(report.failures))
    return report


def run_pair(
    pair: str,
    seeds: Iterable[int],
    config: Optional[ScenarioConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[PairSeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz one pair over a seed sequence, optionally on a time budget.

    ``stop_after`` is a wall-clock budget in seconds measured from the
    first trial; the current trial always completes.  A pair with a
    ``relaxed`` candidate must not lose service systematically: the
    reference's riders served, summed over every seed, must be at least
    the relaxed candidate's, or a ``service`` failure is reported under
    the synthetic seed ``-1``.
    """
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_pair_seed(pair, seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    if PAIRS[pair].relaxed:
        served = sum(r.total_served for r in run.reports)
        relaxed = sum(r.counts.get("relaxed_served", 0) for r in run.reports)
        if served < relaxed:
            aggregate = PairSeedReport(seed=-1, pair=pair)
            aggregate.failures.append(
                FuzzFailure(
                    seed=-1, stage="service", method="aggregate",
                    detail=(
                        f"{PAIRS[pair].reference.name} runs served {served} "
                        f"riders across {run.seeds_run} seed(s) < "
                        f"{PAIRS[pair].relaxed} {relaxed} — boundary "
                        f"reconciliation is losing service"
                    ),
                )
            )
            run.reports.append(aggregate)
    return run
