"""Seeded differential-fuzz harness for the URR solvers.

One seed drives one end-to-end trial:

1. **generate** — a randomized small instance from one of the canned
   :mod:`repro.workload.scenarios` regimes on a perturbed grid city
   (riders, vehicles, deadlines, ``alpha``/``beta`` and pairwise
   similarities all seed-derived);
2. **solve** — every method in :data:`repro.core.solver.METHODS` (OPT only
   while the rider count keeps enumeration tractable);
3. **validate** — each result through the independent
   :func:`repro.check.validate_assignment` oracle;
4. **cross-check** — dominance sandwich ``heuristic <= OPT <=
   utility_upper_bound`` (and every method below the bound even when OPT
   is skipped);
5. **differential** — the zero-copy insertion engine against
   :func:`repro.core.insertion.arrange_single_rider_reference`,
   rider-by-rider, on the empty and the solved schedules.

The rolling-horizon dispatcher has its own differential harness
(:mod:`repro.check.harness`), which reuses this module's network cache,
weight profiles and failure/run-report types.

Everything is deterministic in the seed, so any failure is replayable
(``python -m repro.check --replay SEED``) and shrinkable
(:func:`minimize_seed` greedily drops riders/vehicles while the failure
persists) into a minimal repro.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.core.bounds import utility_upper_bound
from repro.core.grouping import GroupingPlan, prepare_grouping
from repro.core.insertion import (
    arrange_single_rider,
    arrange_single_rider_reference,
)
from repro.core.instance import URRInstance
from repro.core.solver import METHODS, solve
from repro.roadnet.generators import grid_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.oracle import DistanceOracle
from repro.workload.instances import InstanceConfig, build_instance
from repro.workload.scenarios import SCENARIOS
from repro.check.validator import ValidationReport, validate_assignment

_EPS = 1e-6

#: (alpha, beta) profiles the fuzzer cycles through — the corner cases of
#: Eq. 1 (each term alone) plus the paper's balanced default.
_WEIGHT_PROFILES: Tuple[Tuple[float, float], ...] = (
    (0.33, 0.33),
    (1.0, 0.0),
    (0.0, 1.0),
    (0.0, 0.0),
    (0.5, 0.25),
)


@dataclass
class FuzzConfig:
    """Shape of the randomized instances and of the checks."""

    grid_rows: int = 5
    grid_cols: int = 5
    num_networks: int = 4          # distinct cached road networks
    min_riders: int = 3
    max_riders: int = 8
    min_vehicles: int = 1
    max_vehicles: int = 3
    max_capacity: int = 3
    opt_max_riders: int = 6        # OPT is exponential; keep it tractable
    methods: Tuple[str, ...] = METHODS
    differential: bool = True
    audit_event_fields: bool = True
    similarity_pairs: int = 8      # random Eq. 3 overrides per instance


@dataclass(frozen=True)
class FuzzFailure:
    """One check that failed for one seed."""

    seed: int
    stage: str       # "validate" | "cross_check" | "differential"
    method: str
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "stage": self.stage,
            "method": self.method,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"seed {self.seed} [{self.stage}/{self.method}] {self.detail}"


@dataclass
class SeedReport:
    """Everything one fuzz trial produced."""

    seed: int
    scenario: str
    num_riders: int
    num_vehicles: int
    alpha: float
    beta: float
    utilities: Dict[str, float] = field(default_factory=dict)
    bound: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# instance generation (deterministic in the seed)
# ----------------------------------------------------------------------
_NETWORK_CACHE: Dict[Tuple[int, int, int], Tuple[RoadNetwork, DistanceOracle]] = {}
_PLAN_CACHE: Dict[int, GroupingPlan] = {}


def _network_for(config: FuzzConfig, seed: int) -> Tuple[RoadNetwork, DistanceOracle]:
    net_seed = seed % max(config.num_networks, 1)
    key = (config.grid_rows, config.grid_cols, net_seed)
    cached = _NETWORK_CACHE.get(key)
    if cached is None:
        network = grid_city(
            config.grid_rows,
            config.grid_cols,
            seed=net_seed,
            removal_fraction=0.0,
            arterial_every=None,
        )
        cached = (network, DistanceOracle(network))
        _NETWORK_CACHE[key] = cached
    return cached


def _plan_for(network: RoadNetwork) -> GroupingPlan:
    key = id(network)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = prepare_grouping(network, k=8)
        _PLAN_CACHE[key] = plan
    return plan


def random_instance(
    seed: int, config: Optional[FuzzConfig] = None
) -> Tuple[URRInstance, str]:
    """The seed's randomized instance and the scenario name that shaped it."""
    config = config or FuzzConfig()
    rng = np.random.default_rng(seed)
    network, oracle = _network_for(config, seed)
    scenario_names = sorted(SCENARIOS)
    scenario = scenario_names[int(rng.integers(len(scenario_names)))]
    simulator = SCENARIOS[scenario](network, seed=seed, oracle=oracle)

    alpha, beta = _WEIGHT_PROFILES[int(rng.integers(len(_WEIGHT_PROFILES)))]
    lo = float(rng.uniform(4.0, 10.0))
    instance_config = InstanceConfig(
        num_riders=int(rng.integers(config.min_riders, config.max_riders + 1)),
        num_vehicles=int(rng.integers(config.min_vehicles, config.max_vehicles + 1)),
        pickup_deadline_range=(lo, lo + float(rng.uniform(2.0, 10.0))),
        capacity=int(rng.integers(1, config.max_capacity + 1)),
        alpha=alpha,
        beta=beta,
        flexible_factor=float(rng.uniform(1.2, 2.5)),
        seed=seed,
    )
    instance = build_instance(
        network, instance_config, oracle=oracle, simulator=simulator
    )
    # random Eq. 3 similarities so the rider-related term is exercised even
    # without a social network attached
    ids = [r.rider_id for r in instance.riders]
    for _ in range(min(config.similarity_pairs, len(ids) * (len(ids) - 1) // 2)):
        a, b = rng.choice(ids, size=2, replace=False)
        a, b = int(min(a, b)), int(max(a, b))
        instance.similarity_overrides[(a, b)] = float(rng.uniform(0.0, 1.0))
    return instance, scenario


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
def _validate_stage(
    seed: int,
    method: str,
    instance: URRInstance,
    assignment: Assignment,
    config: FuzzConfig,
    failures: List[FuzzFailure],
) -> ValidationReport:
    report = validate_assignment(
        instance, assignment, audit_event_fields=config.audit_event_fields
    )
    for violation in report.violations:
        failures.append(
            FuzzFailure(seed=seed, stage="validate", method=method,
                        detail=str(violation))
        )
    return report


def differential_check(
    instance: URRInstance,
    sequences: Iterable,
    seed: int = -1,
) -> List[FuzzFailure]:
    """Pin the fast insertion engine against the reference, rider by rider.

    For every (schedule, rider-not-already-in-it) combination both engines
    must agree on feasibility and on the minimum incremental cost, and the
    fast path's materialised sequence must itself be valid.
    """
    failures: List[FuzzFailure] = []
    for seq in sequences:
        present = seq.rider_ids()
        for rider in instance.riders:
            if rider.rider_id in present:
                continue
            fast = arrange_single_rider(seq, rider)
            reference = arrange_single_rider_reference(seq, rider)
            if (fast is None) != (reference is None):
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"feasibility disagrees for rider "
                            f"{rider.rider_id} on {seq!r}: fast={fast!r}, "
                            f"reference={reference!r}"
                        ),
                    )
                )
                continue
            if fast is None or reference is None:
                continue
            if abs(fast.delta_cost - reference.delta_cost) > _EPS:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"delta cost disagrees for rider {rider.rider_id} "
                            f"on {seq!r}: fast={fast.delta_cost!r}, "
                            f"reference={reference.delta_cost!r}"
                        ),
                    )
                )
                continue
            errors = fast.sequence.validity_errors()
            if errors:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="differential", method="engine",
                        detail=(
                            f"fast-path sequence invalid for rider "
                            f"{rider.rider_id}: {errors[:2]}"
                        ),
                    )
                )
    return failures


def fuzz_seed(seed: int, config: Optional[FuzzConfig] = None) -> SeedReport:
    """Run the full generate/solve/validate/cross-check/differential trial."""
    config = config or FuzzConfig()
    instance, scenario = random_instance(seed, config)
    report = SeedReport(
        seed=seed,
        scenario=scenario,
        num_riders=instance.num_riders,
        num_vehicles=instance.num_vehicles,
        alpha=instance.alpha,
        beta=instance.beta,
    )
    failures = report.failures

    bound = utility_upper_bound(instance)
    report.bound = bound.total
    plan = _plan_for(instance.network)

    assignments: Dict[str, Assignment] = {}
    for method in config.methods:
        if method == "opt" and instance.num_riders > config.opt_max_riders:
            continue
        assignment = solve(
            instance, method=method, plan=plan,
            opt_max_riders=config.opt_max_riders,
        )
        assignments[method] = assignment
        _validate_stage(seed, method, instance, assignment, config, failures)
        report.utilities[method] = assignment.total_utility()

    # dominance sandwich: heuristic <= OPT <= upper bound
    for method, utility in report.utilities.items():
        if utility > bound.total + _EPS:
            failures.append(
                FuzzFailure(
                    seed=seed, stage="cross_check", method=method,
                    detail=(
                        f"utility {utility:.9f} exceeds the analytic upper "
                        f"bound {bound.total:.9f}"
                    ),
                )
            )
    opt_utility = report.utilities.get("opt")
    if opt_utility is not None:
        for method, utility in report.utilities.items():
            if method != "opt" and utility > opt_utility + _EPS:
                failures.append(
                    FuzzFailure(
                        seed=seed, stage="cross_check", method=method,
                        detail=(
                            f"heuristic utility {utility:.9f} exceeds OPT "
                            f"{opt_utility:.9f}"
                        ),
                    )
                )

    if config.differential:
        sequences = [instance.empty_sequence(v) for v in instance.vehicles]
        for method in ("eg", "ba"):
            if method in assignments:
                sequences.extend(assignments[method].schedules.values())
        failures.extend(differential_check(instance, sequences, seed=seed))
    return report


@dataclass
class FuzzRunReport:
    """Aggregate of many fuzz trials."""

    reports: List[SeedReport] = field(default_factory=list)

    @property
    def seeds_run(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> List[FuzzFailure]:
        return [f for r in self.reports for f in r.failures]

    @property
    def failing_seeds(self) -> List[int]:
        return sorted({r.seed for r in self.reports if not r.ok})

    @property
    def ok(self) -> bool:
        return not any(not r.ok for r in self.reports)

    def as_dict(self) -> Dict[str, object]:
        return {
            "seeds_run": self.seeds_run,
            "failing_seeds": self.failing_seeds,
            "failures": [f.as_dict() for f in self.failures],
        }


def run_fuzz(
    seeds: Iterable[int],
    config: Optional[FuzzConfig] = None,
    stop_after: Optional[float] = None,
    on_seed: Optional[Callable[[SeedReport], None]] = None,
) -> FuzzRunReport:
    """Fuzz a sequence of seeds, optionally stopping on a time budget.

    ``stop_after`` is a wall-clock budget in seconds measured from the
    first trial; the current trial always completes.
    """
    import time

    config = config or FuzzConfig()
    run = FuzzRunReport()
    start = time.perf_counter()
    for seed in seeds:
        if stop_after is not None and time.perf_counter() - start >= stop_after:
            break
        report = fuzz_seed(seed, config)
        run.reports.append(report)
        if on_seed is not None:
            on_seed(report)
    return run


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
FailurePredicate = Callable[[URRInstance], Optional[str]]


def _default_predicate(config: FuzzConfig) -> FailurePredicate:
    """First failure detail on a (sub-)instance, or ``None`` when clean."""

    def predicate(instance: URRInstance) -> Optional[str]:
        plan = _plan_for(instance.network)
        bound = utility_upper_bound(instance)
        utilities: Dict[str, float] = {}
        for method in config.methods:
            if method == "opt" and instance.num_riders > config.opt_max_riders:
                continue
            if method == "opt" and not instance.riders:
                continue
            assignment = solve(
                instance, method=method, plan=plan,
                opt_max_riders=config.opt_max_riders,
            )
            report = validate_assignment(
                instance, assignment,
                audit_event_fields=config.audit_event_fields,
            )
            if not report.ok:
                return f"{method}: {report.violations[0]}"
            utilities[method] = assignment.total_utility()
        for method, utility in utilities.items():
            if utility > bound.total + _EPS:
                return f"{method}: utility {utility:.9f} > bound {bound.total:.9f}"
        opt_utility = utilities.get("opt")
        if opt_utility is not None:
            for method, utility in utilities.items():
                if method != "opt" and utility > opt_utility + _EPS:
                    return f"{method}: utility {utility:.9f} > OPT {opt_utility:.9f}"
        if config.differential:
            sequences = [instance.empty_sequence(v) for v in instance.vehicles]
            diff = differential_check(instance, sequences)
            if diff:
                return diff[0].detail
        return None

    return predicate


def _subset_instance(
    instance: URRInstance, riders: List, vehicles: List
) -> URRInstance:
    return URRInstance(
        network=instance.network,
        riders=list(riders),
        vehicles=list(vehicles),
        alpha=instance.alpha,
        beta=instance.beta,
        vehicle_utilities=instance.vehicle_utilities,
        social=instance.social,
        similarity_overrides=instance.similarity_overrides,
        start_time=instance.start_time,
        seed=instance.seed,
        oracle=instance.oracle,
    )


@dataclass
class MinimizedRepro:
    """Result of shrinking a failing seed."""

    seed: int
    detail: str
    instance: URRInstance
    original_riders: int
    original_vehicles: int

    def as_dict(self) -> Dict[str, object]:
        inst = self.instance
        return {
            "seed": self.seed,
            "detail": self.detail,
            "original": {
                "riders": self.original_riders,
                "vehicles": self.original_vehicles,
            },
            "minimized": {
                "alpha": inst.alpha,
                "beta": inst.beta,
                "start_time": inst.start_time,
                "riders": [
                    {
                        "rider_id": r.rider_id,
                        "source": r.source,
                        "destination": r.destination,
                        "pickup_deadline": r.pickup_deadline,
                        "dropoff_deadline": r.dropoff_deadline,
                    }
                    for r in inst.riders
                ],
                "vehicles": [
                    {
                        "vehicle_id": v.vehicle_id,
                        "location": v.location,
                        "capacity": v.capacity,
                    }
                    for v in inst.vehicles
                ],
            },
        }


def minimize_seed(
    seed: int,
    config: Optional[FuzzConfig] = None,
    predicate: Optional[FailurePredicate] = None,
) -> Optional[MinimizedRepro]:
    """Shrink a failing seed to a minimal failing sub-instance.

    Greedy delta-debugging: repeatedly drop one rider (then one vehicle)
    and keep the reduction whenever the failure predicate still fires.
    Returns ``None`` when the seed does not fail to begin with.  A custom
    ``predicate`` (instance -> failure detail or ``None``) lets callers
    shrink against a specific bug rather than the full check battery.
    """
    config = config or FuzzConfig()
    predicate = predicate or _default_predicate(config)
    instance, _ = random_instance(seed, config)
    detail = predicate(instance)
    if detail is None:
        return None
    original_riders = instance.num_riders
    original_vehicles = instance.num_vehicles

    riders = list(instance.riders)
    vehicles = list(instance.vehicles)
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(riders) - 1, -1, -1):
            if len(riders) <= 1 and len(vehicles) <= 1:
                break
            candidate_riders = riders[:i] + riders[i + 1:]
            candidate = _subset_instance(instance, candidate_riders, vehicles)
            new_detail = predicate(candidate)
            if new_detail is not None:
                riders = candidate_riders
                detail = new_detail
                shrunk = True
        for i in range(len(vehicles) - 1, -1, -1):
            if len(vehicles) <= 1:
                break
            candidate_vehicles = vehicles[:i] + vehicles[i + 1:]
            candidate = _subset_instance(instance, riders, candidate_vehicles)
            new_detail = predicate(candidate)
            if new_detail is not None:
                vehicles = candidate_vehicles
                detail = new_detail
                shrunk = True

    return MinimizedRepro(
        seed=seed,
        detail=detail,
        instance=_subset_instance(instance, riders, vehicles),
        original_riders=original_riders,
        original_vehicles=original_vehicles,
    )
