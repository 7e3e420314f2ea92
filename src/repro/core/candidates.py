"""Spatio-temporal candidate retrieval for rider-vehicle matching.

Every solver's retrieval step used to touch all ``m x n`` rider-vehicle
pairs before the per-pair reachability test could discard anything.  This
module replaces that all-pairs scan with an incremental index over vehicle
positions, pruned by two *sound* lower bounds (a lower bound on the true
travel cost can never cut a feasible pair):

- **spatial** — vehicles are bucketed by the area of their current
  location (:class:`~repro.roadnet.areas.AreaIndex`, the Algorithm-4 key
  vertices).  With ``c`` the bucket's centre, the triangle inequality in
  the current metric gives ``cost(l, s) >= cost(c, s) - cost(c, l)`` for a
  vehicle at ``l`` and a pickup at ``s`` (both distances *from* ``c``, so
  the bound also holds on directed networks).  Whole buckets are skipped
  when even their closest-looking member cannot beat the pickup deadline.
- **temporal** — an ALT landmark bound
  (:class:`~repro.roadnet.landmarks.LandmarkIndex`,
  ``max_L |d(L, s) - d(L, l)| <= cost(l, s)``) refines the survivors.
  Landmarks need symmetric distances, so this filter only engages on
  undirected networks.

A pruned pair is exactly a pair the exact reachability test
(:meth:`repro.core.scoring.SolverState.reachable_vehicles`) would also
discard: the exact test keeps a vehicle iff ``t0 + cost(l, s) <= rt^- +
eps`` for its first event or some later stop, ``t0 = max(t-bar,
ready_time)``; the later-stop fallback is subsumed because ``arrive[k] >=
t0 + cost(l, stop_k)`` and the triangle inequality give ``arrive[k] +
cost(stop_k, s) >= t0 + cost(l, s)``.  Pruning on ``t0 + LB > rt^- + eps``
with ``LB <= cost(l, s)`` therefore removes only vehicles the full scan
removes — pruned and full retrieval return *identical* candidate sets (and
hence frame-for-frame identical assignments; the ``--prune`` fuzzer
asserts this).  ``audit=True`` re-checks every pruned pair with an exact
cost query and counts contradictions in
:data:`repro.perf.CANDIDATE_STATS` (``pruned_in_error``) — always zero.

The index is maintained *incrementally*: the dispatcher inserts the fleet
once, moves each vehicle to its new bucket as the clock rolls it forward,
and only rebuilds distances after a disruption invalidates the oracle
(:meth:`CandidateIndex.resync`, keyed off the oracle's ``epoch``).  There
is no per-frame rebuild.

:class:`VehicleBuckets` applies the same bucketing to the GBS fast
vehicle filter (Section 6.2): per trip group, whole areas of vehicles are
skipped before the per-vehicle centre-distance predicate runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import trace as _trace
from repro.perf import CANDIDATE_STATS
from repro.core.requests import Rider
from repro.core.vehicles import Vehicle
from repro.roadnet.areas import AreaIndex, build_areas
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.landmarks import LandmarkIndex
from repro.roadnet.oracle import DistanceOracle
from repro.roadnet.shortest_path import INF

_EPS = 1e-9
_NEG_INF = float("-inf")

#: Retrieval modes: ``"full"`` scans every pair (the index passes
#: everything through), ``"spatial"`` applies the area-bucket bound,
#: ``"spatiotemporal"`` adds the landmark lower bound on the survivors.
CANDIDATE_MODES = ("full", "spatial", "spatiotemporal")

#: Entry layout: (location, ready, distance-from-centre, centre).
_Entry = Tuple[int, float, float, Optional[int]]


class _Bucket:
    """One area's tracked vehicles plus cached pruning aggregates.

    ``max_dist`` is the maximum *finite* centre-to-member distance and
    ``min_ready`` the earliest member ready time: together they bound the
    best any member could do, enabling whole-bucket skips.  Members whose
    centre cannot reach them (``num_inf``) disable the bucket-level skip
    (their spatial bound is vacuous) but are still tested individually.
    Aggregates go stale on removal of an extremum and are recomputed
    lazily (``dirty``).
    """

    __slots__ = ("entries", "max_dist", "min_ready", "num_inf", "dirty")

    def __init__(self) -> None:
        self.entries: Dict[int, _Entry] = {}
        self.max_dist = 0.0
        self.min_ready = INF
        self.num_inf = 0
        self.dirty = False

    def add(self, vid: int, entry: _Entry) -> None:
        self.entries[vid] = entry
        _loc, ready, d, _center = entry
        if d == INF:
            self.num_inf += 1
        elif d > self.max_dist:
            self.max_dist = d
        if ready < self.min_ready:
            self.min_ready = ready

    def discard(self, vid: int) -> None:
        entry = self.entries.pop(vid, None)
        if entry is None:
            return
        if entry[2] == INF:
            self.num_inf -= 1
        elif entry[2] >= self.max_dist:
            self.dirty = True
        if entry[1] <= self.min_ready:
            self.dirty = True

    def refresh(self) -> None:
        self.max_dist = 0.0
        self.min_ready = INF
        self.num_inf = 0
        for _loc, ready, d, _center in self.entries.values():
            if d == INF:
                self.num_inf += 1
            elif d > self.max_dist:
                self.max_dist = d
            if ready < self.min_ready:
                self.min_ready = ready
        self.dirty = False


class CandidateIndex:
    """Incremental spatio-temporal index over vehicle positions.

    Parameters
    ----------
    network:
        The road network vehicles move on.
    areas:
        Area partition of the network (the bucket structure).
    oracle:
        Distance oracle *shared with the dispatcher/solvers*; centre rows
        are read through it, and its ``epoch`` detects metric changes
        (disruptions) that make the stored distances stale.
    landmarks:
        Optional landmark tables for the temporal bound (undirected
        networks only; built by :func:`build_candidate_index`).
    mode:
        One of :data:`CANDIDATE_MODES`.  ``"full"`` turns :meth:`prune`
        into a pass-through (counters still tick), which keeps the
        differential harnesses symmetric.
    audit:
        Re-check every pruned pair with an exact cost query and count
        contradictions in ``CANDIDATE_STATS.pruned_in_error``.  Debug /
        fuzzing hook — it pays one exact query per pruned pair and must
        stay off on hot paths.
    """

    def __init__(
        self,
        network: RoadNetwork,
        areas: AreaIndex,
        oracle: DistanceOracle,
        landmarks: Optional[LandmarkIndex] = None,
        mode: str = "spatiotemporal",
        audit: bool = False,
        num_landmarks: int = 8,
    ) -> None:
        if mode not in CANDIDATE_MODES:
            raise ValueError(
                f"unknown candidate mode {mode!r}; expected {CANDIDATE_MODES}"
            )
        self.network = network
        self.areas = areas
        self.oracle = oracle
        self.mode = mode
        self.audit = audit
        self._landmarks = landmarks
        self._num_landmarks = num_landmarks
        self._entries: Dict[int, _Entry] = {}
        self._buckets: Dict[Optional[int], _Bucket] = {}
        # retrieval must preserve the caller's fleet order (greedy heaps
        # tie-break on push order): vehicles keep their insertion rank
        self._order: Dict[int, int] = {}
        self._next_order = 0
        self._epoch = oracle.epoch

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vehicle_id: int) -> bool:
        return vehicle_id in self._entries

    def tracked_ids(self):
        """View of the tracked vehicle ids (for fast-path validation)."""
        return self._entries.keys()

    def insert(
        self, vehicle_id: int, location: int, ready_time: Optional[float] = None
    ) -> None:
        """Insert or move one vehicle (upsert; no-op when unchanged)."""
        ready = _NEG_INF if ready_time is None else float(ready_time)
        old = self._entries.get(vehicle_id)
        if old is not None:
            if old[0] == location and old[1] == ready:
                return
            self._buckets[old[3]].discard(vehicle_id)
        center = self._center_of(location)
        entry: _Entry = (
            location, ready, self._center_distance(center, location), center,
        )
        self._entries[vehicle_id] = entry
        if vehicle_id not in self._order:
            self._order[vehicle_id] = self._next_order
            self._next_order += 1
        bucket = self._buckets.get(center)
        if bucket is None:
            bucket = self._buckets[center] = _Bucket()
        bucket.add(vehicle_id, entry)

    #: Per-frame maintenance and insertion are the same upsert.
    update = insert

    def remove(self, vehicle_id: int) -> None:
        """Drop one vehicle (breakdowns); unknown ids are ignored."""
        entry = self._entries.pop(vehicle_id, None)
        if entry is None:
            return
        self._buckets[entry[3]].discard(vehicle_id)
        self._order.pop(vehicle_id, None)

    def resync(
        self, fleet: Iterable[Tuple[int, int, Optional[float]]]
    ) -> None:
        """Reconcile with ``(vehicle_id, location, ready_time)`` triples.

        Call after disruptions: vehicles missing from ``fleet`` are
        dropped (breakdowns) and every survivor is re-upserted.  When the
        oracle's ``epoch`` moved (travel-time perturbations, closures)
        all stored centre distances are re-derived from the fresh rows
        and the landmark tables are rebuilt — lower bounds computed in
        the old metric are not sound in the new one (a perturbation may
        *shorten* edges).  Vehicles keep their retrieval order.
        """
        triples = list(fleet)
        if self.oracle.epoch != self._epoch:
            self._epoch = self.oracle.epoch
            if self._landmarks is not None:
                # prefer the oracle's epoch-fresh shared ALT index (tier 1);
                # otherwise rebuild our own against the mutated network
                shared = getattr(self.oracle, "shared_landmarks", lambda: None)()
                self._landmarks = (
                    shared
                    if shared is not None
                    else LandmarkIndex(
                        self.network, num_landmarks=self._num_landmarks
                    )
                )
            # stale distances: drop every entry (orders survive) and let
            # the upserts below re-derive from the current metric
            self._entries.clear()
            self._buckets.clear()
        keep = {vid for vid, _loc, _ready in triples}
        for vid in [v for v in self._entries if v not in keep]:
            self.remove(vid)
        for vid, location, ready_time in triples:
            self.insert(vid, location, ready_time)

    def _center_of(self, location: int) -> Optional[int]:
        try:
            return self.areas.center_of(location)
        except KeyError:
            return None  # off-area node: tracked, never spatially pruned

    def _center_distance(self, center: Optional[int], location: int) -> float:
        if center is None:
            return INF
        return self.oracle.costs_from(center).get(location, INF)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def prune(
        self,
        rider: Rider,
        vehicles: Sequence[Vehicle],
        start_time: float,
        vehicles_by_id: Optional[Dict[int, Vehicle]] = None,
        assume_tracked: bool = False,
    ) -> List[Vehicle]:
        """Vehicles that could still make the rider's pickup deadline.

        A sound superset-preserving filter: the result contains every
        vehicle :meth:`SolverState.reachable_vehicles` would keep, in the
        caller's order.  With ``assume_tracked=True`` (caller verified
        ``vehicles`` is exactly the tracked fleet and supplied the id
        map) retrieval walks the buckets and skips whole areas; otherwise
        each vehicle is bounded individually in input order.
        """
        if self.oracle.epoch != self._epoch:
            raise RuntimeError(
                "CandidateIndex is stale: the oracle's epoch changed "
                "(network mutated); resync() with the current fleet first"
            )
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += len(vehicles)
        if self.mode == "full" or not self._entries:
            return list(vehicles)
        deadline = rider.pickup_deadline + _EPS
        if assume_tracked and vehicles_by_id is not None:
            return self._prune_tracked(
                rider.source, deadline, start_time, vehicles_by_id
            )
        return self._prune_subset(rider.source, deadline, start_time, vehicles)

    def _prune_tracked(
        self,
        source: int,
        deadline: float,
        start_time: float,
        vehicles_by_id: Dict[int, Vehicle],
    ) -> List[Vehicle]:
        stats = CANDIDATE_STATS
        temporal = (
            self._landmarks if self.mode == "spatiotemporal" else None
        )
        audit = self.audit
        order = self._order
        keep: List[Tuple[int, int]] = []
        for center, bucket in self._buckets.items():
            entries = bucket.entries
            if not entries:
                continue
            row = None
            d_cs = INF
            if center is not None:
                if bucket.dirty:
                    bucket.refresh()
                row = self.oracle.costs_from(center)
                d_cs = row.get(source, INF)
                if bucket.num_inf == 0:
                    bucket_t0 = (
                        start_time
                        if bucket.min_ready < start_time
                        else bucket.min_ready
                    )
                    # d_cs == inf with every member reachable from the
                    # centre means none of them can reach the source
                    if bucket_t0 + (d_cs - bucket.max_dist) > deadline:
                        stats.pairs_pruned_spatial += len(entries)
                        if audit:
                            for loc, ready, _d, _c in entries.values():
                                self._audit_prune(
                                    loc, ready, source, deadline, start_time
                                )
                        continue
            for vid, (loc, ready, d_cl, _c) in entries.items():
                t0 = ready if ready > start_time else start_time
                if row is not None and d_cl != INF:
                    if d_cs == INF or t0 + d_cs - d_cl > deadline:
                        stats.pairs_pruned_spatial += 1
                        if audit:
                            self._audit_prune(
                                loc, ready, source, deadline, start_time
                            )
                        continue
                if temporal is not None:
                    if t0 + temporal.heuristic(loc, source) > deadline:
                        stats.pairs_pruned_temporal += 1
                        if audit:
                            self._audit_prune(
                                loc, ready, source, deadline, start_time
                            )
                        continue
                keep.append((order[vid], vid))
        keep.sort()
        return [vehicles_by_id[vid] for _rank, vid in keep]

    def _prune_subset(
        self,
        source: int,
        deadline: float,
        start_time: float,
        vehicles: Sequence[Vehicle],
    ) -> List[Vehicle]:
        stats = CANDIDATE_STATS
        temporal = (
            self._landmarks if self.mode == "spatiotemporal" else None
        )
        audit = self.audit
        entries = self._entries
        source_rows: Dict[int, float] = {}
        keep: List[Vehicle] = []
        for vehicle in vehicles:
            loc = vehicle.location
            entry = entries.get(vehicle.vehicle_id)
            if entry is not None and entry[0] == loc:
                d_cl, center = entry[2], entry[3]
            else:
                # untracked (or moved since tracking): bound it fresh
                center = self._center_of(loc)
                d_cl = self._center_distance(center, loc)
            ready = vehicle.ready_time
            t0 = (
                start_time
                if ready is None or ready < start_time
                else ready
            )
            if center is not None and d_cl != INF:
                d_cs = source_rows.get(center)
                if d_cs is None:
                    d_cs = self.oracle.costs_from(center).get(source, INF)
                    source_rows[center] = d_cs
                if d_cs == INF or t0 + d_cs - d_cl > deadline:
                    stats.pairs_pruned_spatial += 1
                    if audit:
                        self._audit_prune(
                            loc, _NEG_INF if ready is None else ready,
                            source, deadline, start_time,
                        )
                    continue
            if temporal is not None:
                if t0 + temporal.heuristic(loc, source) > deadline:
                    stats.pairs_pruned_temporal += 1
                    if audit:
                        self._audit_prune(
                            loc, _NEG_INF if ready is None else ready,
                            source, deadline, start_time,
                        )
                    continue
            keep.append(vehicle)
        return keep

    def _audit_prune(
        self,
        location: int,
        ready: float,
        source: int,
        deadline: float,
        start_time: float,
    ) -> None:
        """Exact-cost contradiction check for one pruned pair."""
        t0 = ready if ready > start_time else start_time
        if t0 + self.oracle.cost(location, source) <= deadline:
            CANDIDATE_STATS.pruned_in_error += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CandidateIndex(mode={self.mode!r}, vehicles={len(self)}, "
            f"areas={self.areas.num_areas}, "
            f"landmarks={len(self._landmarks.landmarks) if self._landmarks else 0})"
        )


def build_candidate_index(
    network: RoadNetwork,
    oracle: Optional[DistanceOracle] = None,
    mode: str = "spatiotemporal",
    k: int = 8,
    num_landmarks: int = 8,
    cover: Optional[Iterable[int]] = None,
    search_budget: Optional[int] = None,
    audit: bool = False,
) -> CandidateIndex:
    """Build a :class:`CandidateIndex` (areas + centre rows + landmarks).

    Offline road-network preprocessing: the area centres are pinned hot
    in the oracle so retrieval never pays a Dijkstra at solve time.  On
    directed networks the landmark bound is unsound and is skipped — the
    index silently degrades to the (directed-safe) spatial bound.
    """
    if mode not in CANDIDATE_MODES:
        raise ValueError(
            f"unknown candidate mode {mode!r}; expected {CANDIDATE_MODES}"
        )
    if oracle is None:
        oracle = DistanceOracle(network)
    with _trace.span(
        "candidates.build", nodes=len(network), mode=mode, k=k
    ) as span:
        # the cover's shortest-ness checks read the given oracle: a fresh
        # one would build a second all-pairs table of the same network
        areas = build_areas(
            network, k, cover=cover, search_budget=search_budget,
            cost=oracle.fast_cost_fn(),
        )
        oracle.warm(areas.centers)
        landmarks = None
        if (
            mode == "spatiotemporal"
            and len(network)
            and getattr(network, "undirected", False)
        ):
            # a tier-1 oracle already maintains an ALT index for its
            # lower_bound() — share it instead of building a second one
            shared = getattr(oracle, "shared_landmarks", lambda: None)()
            landmarks = (
                shared
                if shared is not None
                else LandmarkIndex(network, num_landmarks=num_landmarks)
            )
        span.annotate(
            areas=areas.num_areas,
            landmarks=len(landmarks.landmarks) if landmarks else 0,
        )
        return CandidateIndex(
            network,
            areas,
            oracle,
            landmarks=landmarks,
            mode=mode,
            audit=audit,
            num_landmarks=num_landmarks,
        )


# ----------------------------------------------------------------------
# GBS fast vehicle filter (Section 6.2) over the same bucket idea
# ----------------------------------------------------------------------
class VehicleBuckets:
    """Area-bucketed view of one vehicle list for the GBS group filter.

    Built once per :func:`repro.core.grouping.run_grouping` call and
    queried once per short-trip group: a whole bucket is skipped when the
    triangle inequality proves even its closest member fails the group's
    centre-distance predicate; survivors are tested with *exactly* the
    full-scan predicate, so the filtered list equals the full scan's
    output (order included).  Bucket skips rely on symmetric distances
    and are disabled on directed networks (the per-member predicate then
    runs unchanged).
    """

    def __init__(
        self,
        areas: AreaIndex,
        oracle: DistanceOracle,
        vehicles: Sequence[Vehicle],
    ) -> None:
        self.oracle = oracle
        self.vehicles = vehicles
        self._undirected = bool(getattr(areas.network, "undirected", False))
        self._total = len(vehicles)
        buckets: Dict[Optional[int], List[Tuple[int, Vehicle]]] = {}
        max_dist: Dict[Optional[int], float] = {}
        has_inf: Dict[Optional[int], bool] = {}
        for pos, vehicle in enumerate(vehicles):
            try:
                center: Optional[int] = areas.center_of(vehicle.location)
                d = areas.distance_to_center(vehicle.location)
            except KeyError:
                center, d = None, INF
            buckets.setdefault(center, []).append((pos, vehicle))
            if d == INF:
                has_inf[center] = True
            else:
                if d > max_dist.get(center, 0.0):
                    max_dist[center] = d
                has_inf.setdefault(center, False)
        self._buckets = buckets
        self._max_dist = max_dist
        self._has_inf = has_inf

    def filter(
        self,
        from_center: Dict[int, float],
        bound: float,
        slack: float,
    ) -> List[Vehicle]:
        """Vehicles passing ``d(u_x, l) - bound < slack + eps``.

        ``from_center`` is the group centre's distance row; the result is
        identical to applying the predicate to every vehicle in order.
        """
        stats = CANDIDATE_STATS
        stats.retrievals += 1
        stats.pairs_considered += self._total
        keep: List[Tuple[int, Vehicle]] = []
        for center, members in self._buckets.items():
            if center is not None and self._undirected and not self._has_inf[center]:
                d_xc = from_center.get(center, INF)
                # min over members of the lower bound d(u_x, c) - d(c, l)
                if (d_xc - self._max_dist.get(center, 0.0)) - bound >= slack + _EPS:
                    stats.pairs_pruned_spatial += len(members)
                    continue
            for pos, vehicle in members:
                if from_center.get(vehicle.location, INF) - bound < slack + _EPS:
                    keep.append((pos, vehicle))
                else:
                    stats.pairs_pruned_spatial += 1
        keep.sort()
        return [vehicle for _pos, vehicle in keep]
