"""The correctness gate, run after the timed window.

An operation is one admitted request.  It fails when the dispatch of its
batch raised, when it ends the run with no ledger state, or when the
independent validator flags the schedule that carries it.  Expired
riders are a quality outcome (``service_rate``), not failures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.check.validator import validate_assignment, validate_fleet_state
from repro.core.assignment import Assignment
from repro.core.dispatch import Dispatcher, RiderStatus


@dataclass
class GateReport:
    #: (pass index, rider id): passes replay different days, whose rider
    #: ids overlap
    failed_ids: Set[Tuple[int, int]] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    frames_validated: int = 0
    pass_index: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed_ids and not self.problems

    def fail(self, problem: str, rider_ids: Iterable[int]) -> None:
        self.problems.append(problem)
        self.failed_ids.update((self.pass_index, rid) for rid in rider_ids)


def result_digest(dispatcher: Dispatcher) -> str:
    """Per-frame served counts and utility, hashed; equal runs, equal digest."""
    rows = [
        [r.frame_index, r.num_requests, r.num_served, r.num_expired,
         repr(r.utility)]
        for r in dispatcher.reports
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _active(assignment: Assignment) -> Assignment:
    """The schedules that can carry anyone (idle pristine ones cannot).

    ``LazySchedules.iter_active`` skips vehicles that were never touched
    and carry nothing — their schedules are empty, so validating them is
    vacuous, and materialising thousands of them per frame would make the
    gate cost O(fleet × frames).
    """
    schedules = assignment.schedules
    if hasattr(schedules, "iter_active"):
        schedules = dict(schedules.iter_active())
    return Assignment(instance=assignment.instance, schedules=dict(schedules))


def _riders_on(assignment: Assignment, vehicle_id) -> Set[int]:
    seq = assignment.schedules.get(vehicle_id)
    return {r.rider_id for r in seq.assigned_riders()} if seq else set()


def check_frames(dispatcher: Dispatcher, report: GateReport) -> None:
    """Validate every frame's committed assignment."""
    for frame in dispatcher.reports:
        if frame.assignment is None:
            continue
        assignment = _active(frame.assignment)
        result = validate_assignment(assignment.instance, assignment)
        report.frames_validated += 1
        for violation in result.violations:
            if violation.rider_id is not None:
                ids = {violation.rider_id}
            elif violation.vehicle_id is not None:
                ids = _riders_on(assignment, violation.vehicle_id)
            else:
                ids = {r.rider_id for r in assignment.instance.riders}
            report.fail(f"frame {frame.frame_index}: {violation}", ids)


def check_fleet(dispatcher: Dispatcher, report: GateReport) -> None:
    result = validate_fleet_state(
        dispatcher.fleet.values(), dispatcher.clock, oracle=dispatcher.oracle
    )
    for violation in result.violations:
        ids: Set[int] = set()
        fv = dispatcher.fleet.get(violation.vehicle_id)
        if fv is not None:
            ids = fv.committed_rider_ids()
        if violation.rider_id is not None:
            ids.add(violation.rider_id)
        report.fail(f"fleet: {violation}", ids)


def check_ledger(
    dispatcher: Dispatcher, admitted: Set[int], report: GateReport
) -> None:
    """Admitted = committed + expired + pending + cancelled, rider by rider."""
    ledger = dispatcher.ledger
    missing = admitted - set(ledger)
    if missing:
        report.fail(f"{len(missing)} admitted riders have no ledger state",
                    missing)
    extra = set(ledger) - admitted
    if extra:
        report.fail(f"{len(extra)} ledger entries were never admitted", ())
    counts: Dict[RiderStatus, int] = {status: 0 for status in RiderStatus}
    for rid in admitted & set(ledger):
        counts[ledger[rid]] += 1
    committed = counts[RiderStatus.COMMITTED] + counts[RiderStatus.DELIVERED]
    total = (committed + counts[RiderStatus.EXPIRED]
             + counts[RiderStatus.PENDING] + counts[RiderStatus.CANCELLED])
    if total != len(admitted) - len(missing):
        report.fail("ledger conservation broken", ())
    served = sum(r.num_served for r in dispatcher.reports)
    if served != committed:
        report.fail(
            f"frames report {served} riders served, ledger holds "
            f"{committed} committed or delivered", ()
        )
    requests = sum(r.num_requests for r in dispatcher.reports)
    if requests != len(admitted):
        report.fail(
            f"frames report {requests} new requests, {len(admitted)} were "
            f"admitted", ()
        )


def fleet_state(dispatcher: Dispatcher) -> Dict[int, tuple]:
    """Everything a vehicle carries across frames, in comparable form."""
    return {
        vid: (
            fv.location,
            fv.capacity,
            fv.ready_time,
            tuple(r.rider_id for r in fv.onboard),
            fv.committed_stops,
            fv.total_cost,
            fv.riders_served,
        )
        for vid, fv in dispatcher.fleet.items()
    }


def check_restored(
    live: Dispatcher, restored: Dispatcher, report: GateReport
) -> None:
    """The restored dispatcher must equal the live one it was saved from."""
    if restored.clock != live.clock:
        report.fail(f"restored clock {restored.clock} != {live.clock}", ())
    if restored.ledger != live.ledger:
        diff = {
            rid for rid in set(live.ledger) | set(restored.ledger)
            if live.ledger.get(rid) != restored.ledger.get(rid)
        }
        report.fail(f"restored ledger differs on {len(diff)} riders", diff)
    live_fleet = fleet_state(live)
    restored_fleet = fleet_state(restored)
    if restored_fleet != live_fleet:
        diff = [
            vid for vid in live_fleet
            if live_fleet[vid] != restored_fleet.get(vid)
        ]
        ids: Set[int] = set()
        for vid in diff:
            ids |= live.fleet[vid].committed_rider_ids()
        report.fail(f"restored fleet differs on {len(diff)} vehicles", ids)


def check_run(
    dispatcher: Dispatcher, admitted: Set[int], report: GateReport
) -> None:
    check_frames(dispatcher, report)
    check_fleet(dispatcher, report)
    check_ledger(dispatcher, admitted, report)
