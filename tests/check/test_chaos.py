"""The chaos pair: disruptions over batch and watchdog dispatch."""

import dataclasses

from repro.check.harness import PAIRS, fuzz_pair_seed, run_pair


class TestChaosSeeds:
    def test_seed_batch_passes(self):
        run = run_pair("chaos", range(20))
        assert run.seeds_run == 20
        assert run.ok, [str(f) for f in run.failures[:5]]

    def test_deterministic_in_the_seed(self):
        first = fuzz_pair_seed("chaos", 11)
        second = fuzz_pair_seed("chaos", 11)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_disruptions_actually_fire(self):
        """Across a seed batch the schedule must exercise real events —
        a chaos fuzzer that never disrupts anything proves nothing."""
        reports = [fuzz_pair_seed("chaos", seed) for seed in range(25)]
        assert sum(r.counts.get("applied", 0) for r in reports) >= 10

    def test_report_shape(self):
        report = fuzz_pair_seed("chaos", 0)
        assert report.pair == "chaos"
        assert report.chaos
        assert report.method in ("eg", "ba", "cf")
        assert report.num_vehicles >= 2
        assert report.num_riders > 0
        # the final ledger accounts for every rider ever issued
        assert sum(report.ledger.values()) == report.num_riders

    def test_run_aggregation(self):
        run = run_pair("chaos", range(5))
        assert run.failing_seeds == []
        assert run.as_dict()["seeds_run"] == 5

    def test_stop_after_budget(self):
        run = run_pair("chaos", range(10_000), stop_after=0.0)
        assert run.seeds_run <= 1  # the in-flight trial may complete

    def test_watchdog_sometimes_on(self):
        # every chaos seed runs a watchdog lane next to the plain one;
        # the tiered chaos pair draws the watchdog per seed instead
        reports = [fuzz_pair_seed("chaos", seed) for seed in range(20)]
        assert all(r.variants == ["batch", "watchdog"] for r in reports)
        assert PAIRS["chaos"].candidates[0].watchdog
        modes = {fuzz_pair_seed("chaos-tiered", seed).mode for seed in range(20)}
        assert modes == {"watchdog", "plain"}


class TestChaosCli:
    def test_chaos_mode_exit_zero(self, capsys):
        from repro.check.__main__ import main

        code = main(["--chaos", "--seeds", "5", "--skip-self-test"])
        assert code == 0
        assert "chaos scenarios" in capsys.readouterr().out

    def test_chaos_replay(self, capsys):
        from repro.check.__main__ import main

        code = main(["--replay", "3", "--chaos"])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed 3" in out
        assert "ledger=" in out
