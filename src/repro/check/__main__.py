"""``python -m repro.check`` — the correctness backstop, as a command.

Modes
-----
- default: fuzz ``--seeds N`` seeded instances (or keep fuzzing under a
  wall-clock ``--budget``), validating every method's output, the
  dominance sandwich and the insertion-engine differential; the three
  corruption classes are self-tested on every run so a silently-dead
  validator cannot report a clean bill of health.
- one dispatcher mode flag (``--dispatch``, ``--chaos``, ``--prune``,
  ``--dispatch-shards``, ``--crash``, ``--crash-chaos``, ``--stream``;
  ``--tiered`` turns ``--dispatch``/``--chaos`` into their tiered-oracle
  differentials):
  run that named pair of :data:`repro.check.harness.PAIRS` — a
  reference variant, candidate variants and a strictness rule — over
  seeded multi-frame scenarios, validating every live frame and
  comparing every candidate with the reference frame for frame.
  ``--shard-workers N`` sets the worker count of the pooled sharded
  variants (and routes ``--chaos`` through sharded dispatch).  Flags a
  mode would ignore are rejected with exit status 2.
- ``--replay SEED``: re-run one seed verbosely (what CI prints for a
  failing artifact); combine with a mode flag to replay that pair.
- ``--replay SEED --minimize``: shrink a failing single-instance seed to
  a minimal rider/vehicle subset and print the repro as JSON.

Exit status is 0 only when every check passed.  Failing seeds are written
as a JSON artifact (``--out``) for CI to upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.core.solver import solve
from repro.perf import VALIDATION_STATS
from repro.check.corruptions import CORRUPTIONS
from repro.check.fuzz import (
    FuzzRunReport,
    fuzz_seed,
    minimize_seed,
    random_instance,
    run_fuzz,
)
from repro.check.harness import PAIRS, format_report, fuzz_pair_seed, run_pair
from repro.check.validator import validate_assignment
from repro.obs import start_trace, stop_trace


#: The dispatcher mode flags; each names a pair of
#: :data:`repro.check.harness.PAIRS` (``--tiered`` appends ``-tiered``).
_MODE_FLAGS = {
    "--dispatch": "fuzz multi-frame dispatcher scenarios instead of "
                  "single instances",
    "--chaos": "fuzz dispatcher scenarios with mid-horizon disruptions "
               "(breakdowns, cancellations, perturbations, closures)",
    "--prune": "pruned candidate retrieval must match the full "
               "all-pairs scan frame-for-frame",
    "--dispatch-shards": "serial and process-pool sharded dispatch must "
                         "match frame-for-frame, and match unsharded "
                         "dispatch on conflict-free frames",
    "--crash": "durable runs killed at seeded WAL/snapshot/worker "
               "boundaries, restored and resumed, must match an "
               "uninterrupted run frame-for-frame",
    "--crash-chaos": "--crash with disruptions injected between frames: "
                     "restores across perturbations, closures and "
                     "breakdowns must match an uninterrupted run "
                     "frame-for-frame",
    "--stream": "a streaming engine with the interval trigger pinned to "
                "the frame length must match batch dispatch "
                "frame-for-frame; count-trigger runs must hold every "
                "frame and ledger invariant",
}


def _parse_budget(text: str) -> float:
    """'90', '90s' or '2m' -> seconds."""
    text = text.strip().lower()
    if text.endswith("m"):
        return float(text[:-1]) * 60.0
    if text.endswith("s"):
        return float(text[:-1])
    return float(text)


def _self_test(verbose: bool) -> List[str]:
    """Plant each corruption class and confirm the validator catches it.

    Returns a list of problem descriptions (empty when the oracle is
    alive and precise).
    """
    problems: List[str] = []
    # find a seed whose instance is rich enough to plant every corruption
    instance = assignment = None
    for candidate in range(16):
        instance, _ = random_instance(candidate)
        assignment = solve(instance, method="eg")
        if assignment.num_served and all(
            inject(instance, assignment) is not None
            for inject in CORRUPTIONS.values()
        ):
            break
    else:
        return ["no seed in 0..15 yields a plantable self-test instance"]
    for name, inject in CORRUPTIONS.items():
        case = inject(instance, assignment)
        if case is None:
            problems.append(f"corruption {name!r} could not be planted")
            continue
        report = validate_assignment(
            instance, case.assignment, claimed_utility=case.claimed_utility
        )
        if case.expected_kind in report.kinds():
            if verbose:
                print(
                    f"  self-test {name!r}: caught "
                    f"({case.expected_kind.value})"
                )
        else:
            problems.append(
                f"corruption {name!r} NOT caught: expected "
                f"{case.expected_kind.value}, report kinds = "
                f"{sorted(k.value for k in report.kinds())}"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Validate URR solvers on seeded fuzz instances.",
    )
    parser.add_argument(
        "--seeds", type=int, default=25,
        help="number of consecutive seeds to fuzz (default 25)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0,
        help="first seed (default 0)",
    )
    parser.add_argument(
        "--budget", type=str, default=None,
        help="wall-clock budget, e.g. '60s' or '5m'; keeps drawing seeds "
             "past --seeds until the budget is spent",
    )
    modes = parser.add_mutually_exclusive_group()
    for flag, text in _MODE_FLAGS.items():
        modes.add_argument(flag, action="store_true", help=text)
    parser.add_argument(
        "--tiered", action="store_true",
        help="with --dispatch or --chaos: a tier-1 (CH + ALT) "
             "DistanceOracle must match the untiered run frame-for-frame "
             "and bit-for-bit on every sampled cost",
    )
    parser.add_argument(
        "--shard-workers", type=int, default=None, metavar="N",
        help="worker-process count of the pooled sharded variants (with "
             "--dispatch-shards, --crash, --crash-chaos or --stream); with "
             "--chaos, "
             "routes chaos scenarios through sharded dispatch",
    )
    parser.add_argument(
        "--replay", type=int, default=None, metavar="SEED",
        help="re-run one seed verbosely instead of fuzzing",
    )
    parser.add_argument(
        "--minimize", action="store_true",
        help="with --replay: shrink the failure to a minimal repro",
    )
    parser.add_argument(
        "--skip-self-test", action="store_true",
        help="skip the planted-corruption self-test",
    )
    parser.add_argument(
        "--out", type=str, default="check-failures.json",
        help="where to write the failing-seed artifact (JSON)",
    )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record a JSONL trace of the run (inspect with "
             "'python -m repro.obs summary PATH')",
    )
    parser.add_argument(
        "--trace-detail", action="store_true",
        help="with --trace: also record fine-grained per-insertion events",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    mode = next(
        (f[2:] for f in _MODE_FLAGS if getattr(args, f[2:].replace("-", "_"))),
        None,
    )
    if args.tiered and mode not in ("dispatch", "chaos"):
        parser.error("--tiered only applies to --dispatch or --chaos")
    if args.shard_workers is not None and mode not in (
        "chaos", "dispatch-shards", "crash", "crash-chaos", "stream"
    ):
        parser.error(
            "--shard-workers only applies to --chaos, --dispatch-shards, "
            "--crash, --crash-chaos or --stream"
        )
    if args.minimize and (mode is not None or args.replay is None):
        parser.error("--minimize only applies to a single-instance --replay")
    args.pair = mode and mode + ("-tiered" if args.tiered else "")
    verbose = args.verbose

    if args.trace:
        start_trace(
            args.trace,
            meta={"tool": "repro.check", "argv": list(argv or sys.argv[1:])},
            detail=args.trace_detail,
        )
    try:
        return _run(args, verbose)
    finally:
        if args.trace:
            stop_trace()
            print(f"trace written to {args.trace}")


def _run(args: argparse.Namespace, verbose: bool) -> int:
    config = None
    if args.pair is not None and args.shard_workers is not None:
        config = replace(
            PAIRS[args.pair].config, shard_workers=args.shard_workers
        )
        if args.chaos:
            config = replace(config, modes=(("sharded", 1.0),))

    # ------------------------------------------------------------------
    if args.replay is not None and args.pair is not None:
        preport = fuzz_pair_seed(args.pair, args.replay, config)
        print("\n".join(format_report(preport)))
        return 0 if preport.ok else 1

    if args.replay is not None:
        report = fuzz_seed(args.replay)
        print(
            f"seed {report.seed}: scenario={report.scenario} "
            f"riders={report.num_riders} vehicles={report.num_vehicles} "
            f"alpha={report.alpha:g} beta={report.beta:g}"
        )
        for method, utility in sorted(report.utilities.items()):
            print(f"  {method:8s} utility={utility:.6f}")
        print(f"  bound    utility<={report.bound:.6f}")
        for failure in report.failures:
            print(f"  FAIL {failure}")
        if args.minimize:
            repro = minimize_seed(args.replay)
            if repro is None:
                print("  seed does not fail; nothing to minimize")
            else:
                print(
                    f"  minimized to {repro.instance.num_riders} riders / "
                    f"{repro.instance.num_vehicles} vehicles "
                    f"(from {repro.original_riders}/{repro.original_vehicles}):"
                )
                print(json.dumps(repro.as_dict(), indent=2))
        return 0 if report.ok else 1

    # ------------------------------------------------------------------
    # the self-test plants corruptions into single-instance assignments;
    # it exercises the same validator the dispatcher mode leans on
    problems = [] if args.skip_self_test else _self_test(verbose)
    for problem in problems:
        print(f"SELF-TEST FAILURE: {problem}")

    budget = _parse_budget(args.budget) if args.budget else None
    if budget is not None:
        # with a budget, draw seeds until time runs out
        def seed_stream():
            seed = args.seed_start
            while True:
                yield seed
                seed += 1
        seeds = seed_stream()
    else:
        seeds = range(args.seed_start, args.seed_start + args.seeds)

    start = time.perf_counter()

    def progress(seed_report):
        if verbose or not seed_report.ok:
            status = "ok" if seed_report.ok else "FAIL"
            print(
                f"seed {seed_report.seed}: {status} "
                f"({seed_report.scenario}, {seed_report.num_riders}r/"
                f"{seed_report.num_vehicles}v, "
                f"{len(seed_report.failures)} failure(s))"
            )

    if args.pair is not None:
        run: FuzzRunReport = run_pair(
            args.pair, seeds, config, stop_after=budget, on_seed=progress
        )
        what = PAIRS[args.pair].label
    else:
        run = run_fuzz(seeds, stop_after=budget, on_seed=progress)
        what = "seeds"
    elapsed = time.perf_counter() - start

    print(
        f"fuzzed {run.seeds_run} {what} in {elapsed:.1f}s: "
        f"{len(run.failing_seeds)} failing, "
        f"{VALIDATION_STATS.schedules} schedules / "
        f"{VALIDATION_STATS.stops} stops re-validated"
    )
    ok = run.ok and not problems
    if not run.ok:
        artifact = run.as_dict()
        artifact["self_test_problems"] = problems
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2)
        print(f"failing seeds {run.failing_seeds} written to {args.out}")
        for failure in run.failures[:10]:
            print(f"  {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
