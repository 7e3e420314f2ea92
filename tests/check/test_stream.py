"""The stream pair (`--stream`): streaming engine ≡ batch dispatch."""

from dataclasses import replace

import pytest

from repro.check.__main__ import main
from repro.check.harness import PAIRS, fuzz_pair_seed, run_pair
from repro.service import StreamingEngine

_CONFIG = PAIRS["stream"].config


def _forced(**changes):
    return replace(_CONFIG, **{"modes": (), "p_chaos": 0.0, **changes})


class TestSeeds:
    @pytest.mark.parametrize("seed", range(6))
    def test_seed_is_equivalent(self, seed):
        report = fuzz_pair_seed("stream", seed)
        assert report.ok, [str(f) for f in report.failures]
        assert report.pair == "stream"
        assert report.mode in ("plain", "sharded", "tiered")
        assert report.num_riders > 0

    def test_chaos_seeds_replay_disruptions(self):
        events = 0
        for seed in range(6):
            report = fuzz_pair_seed("stream", seed, _forced(p_chaos=1.0))
            assert report.ok, [str(f) for f in report.failures]
            assert report.chaos
            # the count-trigger lane needs boundaries shared with the
            # reference to replay disruptions, so chaos seeds skip it
            assert report.counts["count_batches"] == 0
            events += report.counts.get("events", 0)
        assert events > 0

    def test_tiered_seed_is_equivalent(self):
        config = _forced(modes=(("tiered", 1.0),))
        report = fuzz_pair_seed("stream", 3, config)
        assert report.ok, [str(f) for f in report.failures]
        assert report.mode == "tiered"

    def test_sharded_seed_is_equivalent(self):
        config = _forced(modes=(("sharded", 1.0),))
        report = fuzz_pair_seed("stream", 2, config)
        assert report.ok, [str(f) for f in report.failures]
        assert report.mode == "sharded"

    def test_count_trigger_leg_runs_on_non_chaos_seeds(self):
        report = fuzz_pair_seed("stream", 1, _forced())
        assert report.ok, [str(f) for f in report.failures]
        assert report.counts["count_batches"] > 0
        assert report.variants == ["batch", "stream", "count"]


class TestDetection:
    def test_dropped_arrival_is_caught(self, monkeypatch):
        # an engine that silently loses the first arrival it ever sees
        # must be flagged by the differential — the stream dispatcher's
        # admissions and ledger no longer match the batch run
        class LossyEngine(StreamingEngine):
            dropped = False

            def process(self, arrivals, until=None, drain=False):
                arrivals = list(arrivals)
                if arrivals and not LossyEngine.dropped:
                    LossyEngine.dropped = True
                    arrivals = arrivals[1:]
                return super().process(arrivals, until=until, drain=drain)

        monkeypatch.setattr("repro.check.harness.StreamingEngine", LossyEngine)
        report = fuzz_pair_seed("stream", 0, _forced(riders=(2, 5)))
        assert not report.ok
        assert {f.stage for f in report.failures} & {"trigger", "diverge"}


class TestRun:
    def test_aggregates_reports(self):
        run = run_pair("stream", range(3))
        assert run.seeds_run == 3
        assert run.ok
        assert run.failing_seeds == []


class TestCli:
    def test_stream_mode_exit_zero(self, capsys):
        assert main(["--stream", "--seeds", "3", "--skip-self-test"]) == 0
        assert "3 stream differentials" in capsys.readouterr().out

    def test_stream_replay(self, capsys):
        assert main(["--stream", "--replay", "1", "--skip-self-test"]) == 0
        out = capsys.readouterr().out
        assert "seed 1:" in out
        assert "mode=" in out
        assert "count_batches=" in out
