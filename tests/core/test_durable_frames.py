"""Durable frames cost O(touched) and write the reference bytes.

A durable dispatcher reuses work across frames in three places: the
snapshot writer keeps each vehicle's encoded entry and the network
fingerprint, ``FleetVehicle.as_vehicle`` keeps each vehicle's view, and
the roll upserts only the vehicles that moved into the candidate index.
Every reuse must be invisible: the bytes on disk equal the reference
encoding ``json.dumps(snapshot_dispatcher(d))`` after every commit,
disruption and restore, views change exactly when their fields do, and
the index stays in sync with the fleet.
"""

import json
import math

import pytest

from repro.core.candidates import CandidateIndex
from repro.core.dispatch import Dispatcher, FleetVehicle
from repro.core.disruptions import (
    OutcomeStatus,
    RiderCancellation,
    RiderNoShow,
    RoadClosure,
    TravelTimePerturbation,
    VehicleBreakdown,
)
from repro.core.durability import (
    DurabilityConfig,
    DurabilityLog,
    network_fingerprint,
    snapshot_dispatcher,
)
from repro.core.schedule import Stop, StopKind
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from tests.core.test_durability import NODES, frame_requests, make_fleet


# function-scoped: disruptions mutate the network in place
@pytest.fixture
def city():
    return grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)


def durable(city, directory, num_vehicles=5, frame_length=20.0):
    return Dispatcher(
        city, make_fleet()[:num_vehicles], method="eg",
        frame_length=frame_length, seed=9, candidate_mode="spatiotemporal",
        durability=DurabilityConfig(directory, fsync=False),
    )


def reference_bytes(dispatcher) -> str:
    return json.dumps(snapshot_dispatcher(dispatcher)) + "\n"


def assert_on_disk(dispatcher, directory, fresh_dir):
    """The snapshot equals the reference encoding, from any log."""
    text = (directory / "snapshot.json").read_text()
    assert text == reference_bytes(dispatcher)
    network = json.loads((directory / "network.json").read_text())
    assert network["fingerprint"] == network_fingerprint(dispatcher.network)
    # a fresh log (no reused entries, no cached fingerprint) agrees
    fresh = DurabilityLog(DurabilityConfig(fresh_dir, fsync=False))
    fresh.write_snapshot(dispatcher)
    fresh.close()
    assert (fresh_dir / "snapshot.json").read_text() == text


class TestSnapshotBytes:
    def test_every_write_matches_the_reference(self, city, tmp_path):
        directory, fresh_dir = tmp_path / "run", tmp_path / "fresh"
        # a small fleet on short frames: riders stay committed across
        # boundaries and some are carried over
        d = durable(city, directory, num_vehicles=2, frame_length=5.0)
        assert_on_disk(d, directory, fresh_dir)  # the base snapshot
        outcomes = []

        def inject(event):
            network_before = (directory / "network.json").read_text()
            epoch = d.oracle.epoch
            (outcome,) = d.inject([event])
            outcomes.append(outcome)
            assert_on_disk(d, directory, fresh_dir)
            if d.oracle.epoch != epoch:
                # the metric changed: network.json was rewritten with it
                assert (directory / "network.json").read_text() != (
                    network_before
                )

        def awaiting_pickup():
            return min(
                rid for fv in d.fleet.values()
                for rid in fv.pending_pickup_ids()
            )

        with d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
                assert_on_disk(d, directory, fresh_dir)
            inject(RiderCancellation(awaiting_pickup()))
            inject(RiderNoShow(awaiting_pickup()))
            busy = next(
                vid for vid, fv in d.fleet.items()
                if fv.onboard or fv.committed_stops
            )
            inject(VehicleBreakdown(busy))
            inject(TravelTimePerturbation(((0, 1, 1.5), (6, 7, 2.0))))
            inject(RoadClosure(((14, 15),)))
            for f in range(2, 4):
                d.dispatch_frame(frame_requests(f, f * 10))
                assert_on_disk(d, directory, fresh_dir)
            carried = sum(r.num_carried for r in d.reports)

        assert [o.status for o in outcomes] == [OutcomeStatus.APPLIED] * 5
        assert carried > 0  # riders rode the carry-over queue

        restored = Dispatcher.restore(str(directory))
        with restored:
            assert_on_disk(restored, directory, fresh_dir)
            restored.dispatch_frame(frame_requests(4, 40))
            assert_on_disk(restored, directory, fresh_dir)

    def test_only_changed_vehicles_are_re_encoded(
        self, city, tmp_path, monkeypatch
    ):
        import repro.core.durability as durability

        encoded = []
        original = durability.vehicle_to_dict

        def counting(fv):
            encoded.append(fv.vehicle_id)
            return original(fv)

        monkeypatch.setattr(durability, "vehicle_to_dict", counting)
        with durable(city, tmp_path) as d:
            assert sorted(encoded) == sorted(d.fleet)  # base snapshot
            encoded.clear()
            d._durability.write_snapshot(d)
            assert encoded == []  # nothing changed since
            d.fleet[3].riders_served += 1
            d._durability.write_snapshot(d)
            assert encoded == [3]
            assert (tmp_path / "snapshot.json").read_text() == (
                reference_bytes(d)
            )

    def test_numeric_type_change_is_re_encoded(self, city, tmp_path):
        fleet = make_fleet()
        fleet[0] = Vehicle(vehicle_id=0, location=0, capacity=2, ready_time=5)
        with Dispatcher(
            city, fleet, durability=DurabilityConfig(tmp_path, fsync=False)
        ) as d:
            d.fleet[0].ready_time = 5.0  # equal, but encodes as 5.0 not 5
            d._durability.write_snapshot(d)
            assert (tmp_path / "snapshot.json").read_text() == (
                reference_bytes(d)
            )

    def test_fingerprint_follows_the_oracle_epoch(self, city, tmp_path):
        with durable(city, tmp_path) as d:
            city.adjacency[0][1] *= 3.0  # mutate, then invalidate
            city.reverse_adjacency[1][0] = city.adjacency[0][1]
            d.oracle.invalidate()
            d._durability.write_snapshot(d)
            network = json.loads((tmp_path / "network.json").read_text())
            assert network["fingerprint"] == network_fingerprint(city)
            assert (tmp_path / "snapshot.json").read_text() == (
                reference_bytes(d)
            )


class TestVehicleViews:
    def test_unchanged_vehicle_keeps_its_view(self):
        fv = FleetVehicle(vehicle_id=1, location=4, capacity=2)
        assert fv.as_vehicle() is fv.as_vehicle()

    def test_in_place_change_builds_a_validated_view(self):
        fv = FleetVehicle(vehicle_id=1, location=4, capacity=2)
        first = fv.as_vehicle()
        fv.location = 5
        moved = fv.as_vehicle()
        assert moved is not first and moved.location == 5
        fv.ready_time = 12.5
        assert fv.as_vehicle().ready_time == 12.5
        rider = frame_requests(0, 0)[0]
        dropoff = Stop(
            location=rider.destination, kind=StopKind.DROPOFF, rider=rider
        )
        fv.onboard, fv.committed_stops = (rider,), (dropoff,)
        assert fv.as_vehicle().committed_stops == (dropoff,)
        fv.committed_stops = ()  # the onboard rider lost its drop-off
        with pytest.raises(ValueError, match="no committed drop-off"):
            fv.as_vehicle()
        fv.onboard = (rider, rider, rider)  # over capacity
        with pytest.raises(ValueError, match="exceed capacity"):
            fv.as_vehicle()

    def test_idle_vehicles_share_views_across_frames(self, city):
        fleet = make_fleet() + [
            Vehicle(vehicle_id=10 + i, location=(5 * i) % NODES, capacity=2)
            for i in range(20)
        ]
        with Dispatcher(city, fleet, method="eg", frame_length=20.0) as d:
            first = d.dispatch_frame(frame_requests(0, 0))
            second = d.dispatch_frame(frame_requests(1, 10))
        views = {v.vehicle_id: v for v in first.assignment.instance.vehicles}
        shared = [
            v.vehicle_id for v in second.assignment.instance.vehicles
            if v is views[v.vehicle_id]
        ]
        # every vehicle the first frame left untouched is reused
        untouched = set(d.fleet) - set(first.assignment.schedules.touched)
        assert untouched and untouched <= set(shared)


class TestIndexUpserts:
    def test_upserts_equal_the_vehicles_the_roll_moved(
        self, city, monkeypatch
    ):
        calls = []
        original = CandidateIndex.update

        def counting(self, vehicle_id, location, ready_time=None):
            calls.append(vehicle_id)
            return original(self, vehicle_id, location, ready_time)

        monkeypatch.setattr(CandidateIndex, "update", counting)
        # vehicle 9 finishes an earlier leg during the first frame while
        # no rider reaches it: an idle roll retires its ready time
        fleet = make_fleet() + [
            Vehicle(vehicle_id=9, location=35, capacity=2, ready_time=15.0)
        ]
        with Dispatcher(
            city, fleet, method="eg", frame_length=20.0, seed=9,
            candidate_mode="spatiotemporal",
        ) as d:
            total_moved = 0
            for f in range(5):
                before = {
                    vid: (fv.location, fv.ready_time)
                    for vid, fv in d.fleet.items()
                }
                calls.clear()
                d.dispatch_frame(frame_requests(f, f * 10) if f else [])
                moved = sorted(
                    vid for vid, fv in d.fleet.items()
                    if (fv.location, fv.ready_time) != before[vid]
                )
                assert sorted(calls) == moved
                total_moved += len(moved)
                # the skipped upserts were no-ops: the index is in sync
                for vid, fv in d.fleet.items():
                    location, ready = d.candidates._entries[vid][:2]
                    assert location == fv.location
                    assert ready == (
                        -math.inf if fv.ready_time is None
                        else fv.ready_time
                    )
            assert total_moved > 0
            assert d.fleet[9].ready_time is None
