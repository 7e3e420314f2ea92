"""The differential harness: every named pair, planted bugs, CLI rules."""

import dataclasses
import math

import pytest

from repro.check.__main__ import main
from repro.check.harness import PAIRS, ScenarioConfig, fuzz_pair_seed, run_pair
from repro.perf import VALIDATION_STATS


class TestPairs:
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_two_seeds_clean_and_deterministic(self, pair):
        run = run_pair(pair, range(2))
        assert run.seeds_run == 2
        assert run.ok, [str(f) for f in run.failures]
        again = [fuzz_pair_seed(pair, seed) for seed in range(2)]
        assert [dataclasses.asdict(r) for r in run.reports] == [
            dataclasses.asdict(r) for r in again
        ]

    def test_every_config_field_is_varied_by_some_pair(self):
        default = ScenarioConfig()
        for f in dataclasses.fields(ScenarioConfig):
            values = {getattr(p.config, f.name) for p in PAIRS.values()}
            assert values - {getattr(default, f.name)}, f.name

    @pytest.mark.parametrize("flags", [["--prune"], ["--dispatch", "--tiered"]])
    def test_differentials_validate_every_live_frame(self, flags, capsys):
        VALIDATION_STATS.reset()
        assert main(flags + ["--seeds", "3", "--skip-self-test"]) == 0
        assert VALIDATION_STATS.schedules > 0
        assert "0 schedules" not in capsys.readouterr().out


class TestPlantedBugs:
    """Each differential must catch the bug class it exists for."""

    @staticmethod
    def _fails(pair, seeds):
        return not run_pair(pair, seeds).ok

    def test_prune_dropping_a_reachable_vehicle(self, monkeypatch):
        from repro.core.candidates import CandidateIndex

        original = CandidateIndex.prune

        def lossy(self, rider, vehicles, start_time, *args, **kwargs):
            kept = original(self, rider, vehicles, start_time, *args, **kwargs)
            if self.mode == "full":
                return kept
            for i, v in enumerate(kept):
                t0 = max(start_time, v.ready_time or start_time)
                cost = self.oracle.cost(v.location, rider.source)
                if t0 + cost <= rider.pickup_deadline:
                    return kept[:i] + kept[i + 1:]
            return kept

        monkeypatch.setattr(CandidateIndex, "prune", lossy)
        assert self._fails("prune", range(4))

    def test_tiered_costs_off_by_one_ulp(self, monkeypatch):
        from repro.roadnet.oracle import DistanceOracle

        original = DistanceOracle.cost

        def skewed(self, u, v):
            cost = original(self, u, v)
            if self.tier == 1 and 0 < cost < math.inf:
                return math.nextafter(cost, math.inf)
            return cost

        monkeypatch.setattr(DistanceOracle, "cost", skewed)
        run = run_pair("dispatch-tiered", range(2))
        assert "cost" in {f.stage for f in run.failures}

    def test_shards_executor_losing_a_result(self, monkeypatch):
        from repro.core import shards

        original = shards.SerialShardExecutor.run

        def lossy(self, tasks, context):
            results = original(self, tasks, context)
            for i in reversed(range(len(results))):
                if results[i].schedules:
                    results[i] = dataclasses.replace(results[i], schedules={})
                    break
            return results

        monkeypatch.setattr(shards.SerialShardExecutor, "run", lossy)
        assert self._fails("dispatch-shards", range(4))

    def test_crash_restore_skipping_the_last_wal_record(self, monkeypatch):
        from repro.core.durability import DurabilityLog

        original = DurabilityLog.load

        def forgetful(self):
            snapshot, records = original(self)
            return snapshot, records[:-1]

        monkeypatch.setattr(DurabilityLog, "load", forgetful)
        run = run_pair("crash", range(8))
        assert "restore" in {f.stage for f in run.failures}


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--prune", "--crash"],
            ["--dispatch", "--stream"],
            ["--prune", "--tiered"],
            ["--stream", "--tiered"],
            ["--crash", "--tiered"],
            ["--tiered"],
            ["--dispatch", "--shard-workers", "2"],
            ["--prune", "--shard-workers", "2"],
            ["--chaos", "--replay", "1", "--minimize"],
            ["--dispatch", "--replay", "1", "--minimize"],
        ],
    )
    def test_conflicting_flags_exit_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seeds", "1", "--skip-self-test"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--dispatch"], ["--chaos"], ["--dispatch", "--tiered"],
         ["--chaos", "--tiered"], ["--prune"], ["--dispatch-shards"],
         ["--crash"], ["--stream"], ["--crash-chaos"]],
    )
    def test_replay_prints_the_scenario(self, flags, capsys):
        assert main(flags + ["--replay", "4"]) == 0
        out = capsys.readouterr().out
        for key in ("seed 4:", "mode=", "frames=", "ledger="):
            assert key in out
