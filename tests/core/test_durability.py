"""Checkpoint/WAL round trips through ``Dispatcher.restore``.

Covers the snapshot round trip in every dispatch mode (plain,
candidate-index, tiered-oracle), WAL tail replay across checkpoint
cadences, torn-tail tolerance, version and network-fingerprint guards,
the atomic-rename crash point, and the dispatcher context manager.
The post-restore frames must be byte-identical (as canonical JSON) to
an uninterrupted run's — durability must never perturb dispatch.
"""

import json
import shutil

import pytest

from repro.core.dispatch import Dispatcher
from repro.core.disruptions import OutcomeStatus, TravelTimePerturbation
from repro.core.durability import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DurabilityConfig,
    SimulatedCrash,
    frame_summary,
)
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.check.validator import validate_fleet_state
from tests.conftest import make_rider

NODES = 36  # 6x6 grid
FRAMES = 4


@pytest.fixture(scope="module")
def city():
    return grid_city(6, 6, seed=4, removal_fraction=0.0, arterial_every=None)


def make_fleet():
    return [
        Vehicle(vehicle_id=i, location=(7 * i) % NODES, capacity=2)
        for i in range(5)
    ]


def frame_requests(frame, id_base):
    import random

    rng = random.Random(100 + frame)
    start = frame * 20.0
    riders = []
    for i in range(6):
        src = rng.randrange(NODES)
        dst = rng.randrange(NODES)
        if dst == src:
            dst = (dst + 1) % NODES
        riders.append(
            make_rider(id_base + i, source=src, destination=dst,
                       pickup_deadline=start + rng.uniform(5.0, 25.0),
                       dropoff_deadline=start + rng.uniform(40.0, 80.0))
        )
    return riders


MODES = {
    "plain": {},
    "candidate": {"candidate_mode": "spatiotemporal"},
    "tiered": {},  # tier-1 oracle wired in make_dispatcher/restore
}


def make_dispatcher(city, mode, **kwargs):
    if mode == "tiered":
        kwargs.setdefault("oracle", DistanceOracle(city, tier=1))
    return Dispatcher(
        city, make_fleet(), method="eg", frame_length=20.0, seed=9,
        **MODES[mode], **kwargs,
    )


def canonical(report) -> str:
    return json.dumps(frame_summary(report), sort_keys=True)


def baseline_summaries(city, mode):
    with make_dispatcher(city, mode) as dispatcher:
        return [
            canonical(dispatcher.dispatch_frame(frame_requests(f, f * 10)))
            for f in range(FRAMES)
        ]


def restore_kwargs(city, mode):
    return {"oracle": DistanceOracle(city, tier=1)} if mode == "tiered" else {}


class TestRoundTrip:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_restore_resumes_byte_identical(self, city, tmp_path, mode):
        baseline = baseline_summaries(city, mode)

        with make_dispatcher(city, mode, durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))

        restored = Dispatcher.restore(
            str(tmp_path), **restore_kwargs(city, mode)
        )
        with restored:
            assert restored._frame_index == 2
            # re-materialized pre-crash frames carry the same summaries
            assert [canonical(r) for r in restored.reports] == baseline[:2]
            resumed = [
                canonical(restored.dispatch_frame(frame_requests(f, f * 10)))
                for f in range(2, FRAMES)
            ]
        assert resumed == baseline[2:]

    def test_restored_state_passes_the_validator(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        # restore(verify=True) already audits; this asserts it explicitly
        with Dispatcher.restore(str(tmp_path)) as restored:
            validate_fleet_state(
                restored.fleet.values(), restored.clock,
                oracle=restored.oracle,
            ).raise_if_invalid()

    def test_restore_preserves_ledger_and_carryover(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
            ledger = dict(d.ledger)
            carryover = [e.rider.rider_id for e in d._carryover]
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert dict(restored.ledger) == ledger
            assert [e.rider.rider_id for e in restored._carryover] == carryover


class TestWalReplay:
    def test_tail_replayed_over_stale_snapshot(self, city, tmp_path):
        baseline = baseline_summaries(city, "plain")
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        # cadence 3: both frames live only in the WAL, behind the base
        # snapshot written at construction
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["frames_committed"] == 0
        wal_lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        assert len(wal_lines) == 2

        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2
            assert [canonical(r) for r in restored.reports] == baseline[:2]
            # replaying writes a fresh snapshot and truncates the WAL
            snapshot = json.loads((tmp_path / "snapshot.json").read_text())
            assert snapshot["frames_committed"] == 2
            assert (tmp_path / "wal.jsonl").read_text() == ""

    def test_torn_final_wal_line_is_dropped(self, city, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"record": {"frame_index": 2, "riders"')  # torn write
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2  # only the whole records

    def test_corrupt_crc_stops_the_replay(self, city, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_every=3)
        with make_dispatcher(city, "plain", durability=config) as d:
            for f in range(2):
                d.dispatch_frame(frame_requests(f, f * 10))
        lines = (tmp_path / "wal.jsonl").read_text().splitlines()
        payload = json.loads(lines[1])
        payload["crc"] ^= 1
        lines[1] = json.dumps(payload)
        (tmp_path / "wal.jsonl").write_text("\n".join(lines) + "\n")
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 1  # record 2 no longer trusted


class TestGuards:
    def test_empty_directory_has_nothing_to_restore(self, tmp_path):
        with pytest.raises(CheckpointError, match="no snapshot"):
            Dispatcher.restore(str(tmp_path))

    def test_version_mismatch_is_rejected(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        snapshot["format_version"] = CHECKPOINT_VERSION + 1
        (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
        with pytest.raises(CheckpointError, match="version"):
            Dispatcher.restore(str(tmp_path))

    def test_network_fingerprint_mismatch_is_rejected(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        other = grid_city(6, 6, seed=5, removal_fraction=0.0,
                          arterial_every=None)
        with pytest.raises(CheckpointError, match="fingerprint"):
            Dispatcher.restore(str(tmp_path), network=other)

    def test_oracle_over_another_network_is_rejected(self, city):
        with pytest.raises(ValueError, match="network"):
            Dispatcher(city, make_fleet(), oracle=DistanceOracle(city.copy()))

    def test_restore_pairs_a_passed_oracle_with_its_network(
        self, city, tmp_path
    ):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        oracle = DistanceOracle(city)
        with Dispatcher.restore(str(tmp_path), oracle=oracle) as restored:
            assert restored.network is city
            assert restored.oracle is oracle
        other = grid_city(6, 6, seed=5, removal_fraction=0.0,
                          arterial_every=None)
        # the oracle's network is fingerprint-checked like a passed one
        with pytest.raises(CheckpointError, match="fingerprint"):
            Dispatcher.restore(str(tmp_path), oracle=DistanceOracle(other))


class TestDisruptedRestore:
    """Restores across a metric change dispatch like the live run."""

    def test_sharded_restore_after_perturbation(self, tmp_path):
        network = grid_city(6, 6, seed=4, removal_fraction=0.0,
                            arterial_every=None)
        live = Dispatcher(
            network, make_fleet(), method="eg", frame_length=20.0, seed=9,
            shard_workers=1, shard_count=4,
            durability=DurabilityConfig(tmp_path / "run", fsync=False),
        )
        with live:
            live.dispatch_frame(frame_requests(0, 0))
            # slow every edge out of the low-numbered half of the grid:
            # shortest paths, and with them the area partition, move
            factors = tuple(
                (u, v, 4.0)
                for u in range(NODES // 2)
                for v in sorted(network.adjacency[u])
                if u < v
            )
            (outcome,) = live.inject([TravelTimePerturbation(factors)])
            assert outcome.status is OutcomeStatus.APPLIED
            shutil.copytree(tmp_path / "run", tmp_path / "copy")
            with Dispatcher.restore(str(tmp_path / "copy")) as restored:
                assert [
                    live._shard_plan.shard_of(n) for n in range(NODES)
                ] == [restored._shard_plan.shard_of(n) for n in range(NODES)]
                for f in range(1, FRAMES):
                    riders = frame_requests(f, f * 10)
                    assert canonical(live.dispatch_frame(riders)) == (
                        canonical(restored.dispatch_frame(riders))
                    )


class TestCrashPoints:
    def test_crash_mid_atomic_rename_keeps_the_old_snapshot(
        self, city, tmp_path
    ):
        baseline = baseline_summaries(city, "plain")
        d = make_dispatcher(city, "plain", durability=str(tmp_path))
        try:
            def crash_hook(point):
                if point == "post_snapshot_temp" and d._frame_index == 2:
                    raise SimulatedCrash(point)

            d._durability.crash_hook = crash_hook
            d.dispatch_frame(frame_requests(0, 0))
            with pytest.raises(SimulatedCrash):
                d.dispatch_frame(frame_requests(1, 10))
        finally:
            d.close()
        # the kill left a temp file behind; the real snapshot is stale
        # but whole, and frame 1 is already in the WAL
        assert (tmp_path / "snapshot.json.tmp").exists()
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 2
            assert [canonical(r) for r in restored.reports] == baseline[:2]

    def test_crash_before_wal_append_loses_only_that_frame(
        self, city, tmp_path
    ):
        baseline = baseline_summaries(city, "plain")
        d = make_dispatcher(city, "plain", durability=str(tmp_path))
        try:
            def crash_hook(point):
                if point == "pre_wal" and d._frame_index == 2:
                    raise SimulatedCrash(point)

            d._durability.crash_hook = crash_hook
            d.dispatch_frame(frame_requests(0, 0))
            with pytest.raises(SimulatedCrash):
                d.dispatch_frame(frame_requests(1, 10))
        finally:
            d.close()
        with Dispatcher.restore(str(tmp_path)) as restored:
            assert restored._frame_index == 1  # frame 1 must be re-offered
            resumed = [
                canonical(restored.dispatch_frame(frame_requests(f, f * 10)))
                for f in range(1, FRAMES)
            ]
        assert resumed == baseline[1:]


class TestLifecycle:
    def test_dispatcher_context_manager_closes(self, city, tmp_path):
        with make_dispatcher(city, "plain", durability=str(tmp_path)) as d:
            d.dispatch_frame(frame_requests(0, 0))
        assert d._durability._wal_file is None  # closed on __exit__

    def test_durability_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(str(tmp_path), checkpoint_every=0)
