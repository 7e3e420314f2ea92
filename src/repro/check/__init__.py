"""repro.check — independent solution validation + differential fuzzing.

The solvers' hot paths are incremental and analytic (PR 1's zero-copy
insertion engine); this package is their deliberately-slow, deliberately-
redundant counterweight:

- :func:`validate_assignment` / :func:`validate_schedule` re-derive every
  constraint (capacity, pickup/drop-off deadlines, stop order) and every
  Eq. 1–5 utility from first principles with fresh oracle calls, sharing
  no code with ``repro.core.schedule`` or ``repro.core.utility``;
- :mod:`repro.check.fuzz` generates seeded randomized instances, runs all
  solver methods, validates each result, sandwiches heuristics between
  OPT and the analytic upper bound, and pins the fast insertion engine
  against its reference implementation;
- :mod:`repro.check.harness` is the one differential harness for the
  rolling-horizon dispatcher.  A :class:`Scenario` is drawn once per
  seed (network, fleet, method, weights, frames of riders, optional
  disruption schedule and kill point); a :class:`Variant` is a set of
  dispatcher layers (sharded, tiered, candidate pruning, watchdog) plus
  a batch, stream, count-trigger or crash-and-restore driver; one
  comparator validates every live frame, audits the cross-frame and
  ledger invariants, and compares every candidate with the reference
  frame for frame.  The named pairs in :data:`PAIRS` (dispatch, chaos,
  tiered, prune, shards, crash, stream) are the dispatcher modes of the
  command line;
- :mod:`repro.check.corruptions` plants known bug classes to prove the
  validator still catches them;
- ``python -m repro.check`` drives it all from the command line (see
  ``--help``; CI runs it nightly).

Opt-in debug hooks: ``SolverState(instance, validate=True)`` validates
every committed schedule, ``Dispatcher(..., validate_frames=True)``
validates every dispatched frame.
"""

from repro.check.corruptions import CORRUPTIONS, CorruptedCase
from repro.check.fuzz import (
    FuzzConfig,
    FuzzFailure,
    FuzzRunReport,
    MinimizedRepro,
    SeedReport,
    differential_check,
    fuzz_seed,
    minimize_seed,
    random_instance,
    run_fuzz,
)
from repro.check.harness import (
    PAIRS,
    Pair,
    PairSeedReport,
    Scenario,
    ScenarioConfig,
    Variant,
    draw_scenario,
    fuzz_pair_seed,
    run_pair,
)
from repro.check.validator import (
    ValidationError,
    ValidationReport,
    Violation,
    ViolationKind,
    validate_assignment,
    validate_fleet_state,
    validate_schedule,
)

__all__ = [
    "CORRUPTIONS",
    "CorruptedCase",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzRunReport",
    "MinimizedRepro",
    "PAIRS",
    "Pair",
    "PairSeedReport",
    "Scenario",
    "ScenarioConfig",
    "SeedReport",
    "ValidationError",
    "ValidationReport",
    "Variant",
    "Violation",
    "ViolationKind",
    "differential_check",
    "draw_scenario",
    "fuzz_pair_seed",
    "fuzz_seed",
    "minimize_seed",
    "random_instance",
    "run_fuzz",
    "run_pair",
    "validate_assignment",
    "validate_fleet_state",
    "validate_schedule",
]
