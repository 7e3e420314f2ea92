"""The crash pair (`--crash`): killed, restored, resumed ≡ uninterrupted."""

from dataclasses import replace

import pytest

from repro.check.__main__ import main
from repro.check.harness import (
    KILL_KINDS,
    PAIRS,
    SHARDED_KILL_KINDS,
    fuzz_pair_seed,
    run_pair,
)


class TestSeeds:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_recovers_equivalently(self, seed):
        report = fuzz_pair_seed("crash", seed)
        assert report.ok, [str(f) for f in report.failures]
        # the kill always leaves work to resume or frames to replay
        assert report.counts["restored"] + report.counts.get("resumed", 0) > 0
        assert report.pair == "crash"
        assert report.kill
        assert report.num_riders > 0

    def test_worker_kill_seed_absorbs_the_fault(self):
        # force the sharded mode so a worker-kill seed is reachable,
        # then scan for one: the run must still recover equivalently
        config = replace(PAIRS["crash"].config, modes=(("sharded", 1.0),))
        for seed in range(40):
            report = fuzz_pair_seed("crash", seed, config)
            assert report.ok, [str(f) for f in report.failures]
            if report.kill.startswith("worker_kill"):
                return
        pytest.fail("no seed in 0..39 drew a worker_kill")

    def test_kill_kind_catalogues(self):
        assert "between_frames" in KILL_KINDS
        assert "worker_kill" not in KILL_KINDS
        assert "worker_kill" in SHARDED_KILL_KINDS
        assert set(KILL_KINDS) < set(SHARDED_KILL_KINDS)


class TestCrashChaos:
    """``--crash-chaos``: restores across disruptions, every seed chaotic."""

    # seed 3 restores a sharded run, seed 7 a tiered one, across metric
    # changes: they diverged while a live sharded run kept its
    # pre-disruption partition (a restored one partitions the new
    # network) and while restore paired the caller's oracle with a
    # freshly loaded copy of the network
    @pytest.mark.parametrize("seed", [3, 7])
    def test_seed_recovers_across_disruptions(self, seed):
        report = fuzz_pair_seed("crash-chaos", seed)
        assert report.ok, [str(f) for f in report.failures]
        assert report.chaos and report.kill
        assert report.counts["applied"] > 0

    def test_cli_mode(self, capsys):
        assert main(["--crash-chaos", "--seeds", "2", "--skip-self-test"]) == 0
        assert "2 crash-recovery chaos trials" in capsys.readouterr().out


class TestRun:
    def test_aggregates_reports(self):
        run = run_pair("crash", range(3))
        assert run.seeds_run == 3
        assert run.ok
        assert run.failing_seeds == []


class TestCli:
    def test_crash_mode_exit_zero(self, capsys):
        assert main(["--crash", "--seeds", "3", "--skip-self-test"]) == 0
        assert "3 crash-recovery trials" in capsys.readouterr().out

    def test_crash_replay(self, capsys):
        assert main(["--crash", "--replay", "1", "--skip-self-test"]) == 0
        out = capsys.readouterr().out
        assert "seed 1:" in out
        assert "kill=" in out
