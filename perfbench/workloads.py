"""The benchmark's workloads: their inputs and their timed set-up.

Inputs (fleet, arrival stream, rider profiles) are drawn from the seed
over a fixed city *before* any dispatcher exists, and are never timed.  Set-up
is the cold start of one dispatcher — network, oracle with its APSP
build, candidate index or grouping plan, and ``Dispatcher(...)``
including the base snapshot — and is timed step by step.

Scale.  The city workloads keep the vehicle density of a 10,000-vehicle
fleet on a 48×48 grid (≈4.3 vehicles per node) and the demand per
vehicle of its design, on a quarter of the area: 24×24 nodes, 2,500
vehicles, a quarter of the demand.  At full size one frame takes
≈0.6 s and an APSP build ≈12 s on a 2-core host, which does not fit the
≥100 decisions and repeated cold set-ups every run needs within the
benchmark's time budget.  Candidate sets, and so the solve per rider,
keep their full-size shape; fleet-proportional work shrinks 4×.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.candidates import build_candidate_index
from repro.core.dispatch import Dispatcher
from repro.core.durability import DurabilityConfig
from repro.core.grouping import prepare_grouping
from repro.core.vehicles import Vehicle
from repro.roadnet.generators import grid_city
from repro.roadnet.oracle import DistanceOracle
from repro.service import Arrival, StreamingEngine, simulator_arrivals
from repro.social.generators import generate_geo_social
from repro.workload.taxi import TaxiTripSimulator

#: simulated minutes per engine window (the interval trigger's Δt)
DELTA_T = 1.0
FLEXIBLE_FACTOR = 2.0
#: the city — road network, trip popularity, social graph — is the same
#: in every run; ``--seed`` draws the day: fleet placement, arrivals and
#: rider profiles.  A city per seed would make quality metrics vary with
#: the hotspot layout more than with the program.
CITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # grid_city side, in nodes
    vehicles: int
    trips_per_minute: float
    patience: float  # pickup deadline after arrival, sim minutes
    method: str
    utility_matrix: str
    candidate_mode: str
    durable: bool = False
    shard_workers: Optional[int] = None
    shard_count: int = 8
    max_batch: Optional[int] = None
    demand_profile: Optional[Tuple[float, ...]] = None
    social_users: int = 0
    #: passes per run, each replaying its own day's stream on a freshly
    #: set-up dispatcher
    passes: int = 1
    #: simulated minutes of arrivals per second of ``--seconds``: the
    #: stream is sized so that on the 2-core reference host all passes
    #: together take about ``--seconds`` and hold >= 100 decisions
    pace: float = 10.0

    def stream_minutes(self, seconds: float) -> int:
        return max(1, int(math.ceil(seconds * self.pace)))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="city_durable",
            grid=24,
            vehicles=2500,
            trips_per_minute=10.0,
            patience=2.0,
            method="eg",
            utility_matrix="default",
            candidate_mode="spatiotemporal",
            durable=True,
            pace=7.0,
        ),
        Workload(
            name="city_sharded",
            grid=24,
            vehicles=2500,
            trips_per_minute=15.0,
            patience=5.0,
            method="eg",
            utility_matrix="default",
            candidate_mode="spatiotemporal",
            shard_workers=2,
            shard_count=8,
            pace=11.0,
        ),
        Workload(
            name="rush_hour",
            grid=24,
            vehicles=300,
            trips_per_minute=30.0,
            patience=10.0,
            method="gbs+eg",
            utility_matrix="synthetic",
            candidate_mode="full",
            max_batch=32,
            demand_profile=(1, 1, 1, 1, 5, 5, 1, 1, 1, 1),
            social_users=1000,
            # two days: each frame keeps its synthetic utility matrix, so
            # one stream twice as long would double peak memory, and the
            # spike load (hence quality and the latency tail) varies by day
            passes=2,
            pace=3.5,
        ),
    )
}


# ----------------------------------------------------------------------
# inputs (untimed)
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    fleet: List[Vehicle]
    #: one arrival stream ("day") per pass
    days: List[List[Arrival]]
    social: Optional[object]  # repro.social.graph.SocialNetwork
    minutes: int
    #: a clock by which every carried rider has been served or expired
    drain_until: float


def build_network(workload: Workload):
    return grid_city(
        workload.grid, workload.grid, seed=CITY_SEED,
        removal_fraction=0.0, arterial_every=None,
    )


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Seeded fleet, one arrival stream per pass, and social users."""
    network = build_network(workload)
    rng = np.random.default_rng(seed)
    nodes = sorted(network.nodes())
    locations = rng.choice(nodes, size=workload.vehicles)
    fleet = [
        Vehicle(vehicle_id=j, location=int(loc), capacity=3)
        for j, loc in enumerate(locations)
    ]
    minutes = workload.stream_minutes(seconds)
    social = None
    if workload.social_users:
        social = generate_geo_social(
            network, workload.social_users, seed=CITY_SEED
        ).social
    oracle = DistanceOracle(network)  # the generator's own
    days = []
    for day in range(workload.passes):
        simulator = TaxiTripSimulator(
            network,
            oracle=oracle,
            seed=CITY_SEED,  # draws the node popularity
            trips_per_minute=workload.trips_per_minute,
            demand_profile=workload.demand_profile,
        )
        simulator.rng = np.random.default_rng([CITY_SEED, seed, day])
        arrivals = list(
            simulator_arrivals(
                simulator,
                num_frames=minutes,
                frame_length=DELTA_T,
                patience=workload.patience,
                flexible_factor=FLEXIBLE_FACTOR,
            )
        )
        if social is not None:
            users = rng.integers(workload.social_users, size=len(arrivals))
            arrivals = [
                Arrival(
                    rider=dataclasses.replace(a.rider, social_id=int(user)),
                    time=a.time,
                )
                for a, user in zip(arrivals, users)
            ]
        days.append(arrivals)
    return Inputs(
        fleet=fleet,
        days=days,
        social=social,
        minutes=minutes,
        drain_until=minutes + workload.patience + 2 * DELTA_T,
    )


# ----------------------------------------------------------------------
# set-up (timed)
# ----------------------------------------------------------------------
@dataclass
class Setup:
    dispatcher: Dispatcher
    engine: StreamingEngine
    plan: Optional[object]  # GroupingPlan
    steps: Dict[str, float]  # setup.* step -> seconds

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())


def setup(
    workload: Workload,
    seed: int,
    inputs: Inputs,
    checkpoint_dir: Optional[Path],
) -> Setup:
    """Cold-start one dispatcher and its engine, timing every step.

    ``checkpoint_dir`` is emptied first (untimed) so each set-up writes
    its base snapshot into a fresh directory.
    """
    if workload.durable:
        if checkpoint_dir is None:
            raise ValueError(f"{workload.name} needs a checkpoint directory")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    clock = time.perf_counter
    steps = {"network": 0.0, "oracle": 0.0, "index": 0.0, "plan": 0.0,
             "dispatcher": 0.0}

    start = clock()
    network = build_network(workload)
    steps["network"] = clock() - start

    start = clock()
    oracle = DistanceOracle(network)
    oracle.cost(0, 1)  # the first query builds the flat APSP table
    steps["oracle"] = clock() - start

    index = None
    if workload.candidate_mode != "full":
        start = clock()
        index = build_candidate_index(
            network, oracle=oracle, mode=workload.candidate_mode
        )
        steps["index"] = clock() - start

    plan = None
    if workload.method.startswith("gbs"):
        # solve() rebuilds the plan (and its oracle) every frame when none
        # is given; its docstring prescribes building it once up front
        start = clock()
        plan = prepare_grouping(network)
        steps["plan"] = clock() - start

    start = clock()
    dispatcher = Dispatcher(
        network,
        inputs.fleet,
        method=workload.method,
        frame_length=DELTA_T,
        plan=plan,
        social=inputs.social,
        oracle=oracle,
        seed=seed,
        candidate_mode=workload.candidate_mode,
        candidate_index=index,
        utility_matrix=workload.utility_matrix,
        shard_workers=workload.shard_workers,
        shard_count=workload.shard_count,
        durability=(
            DurabilityConfig(directory=checkpoint_dir)
            if workload.durable
            else None
        ),
    )
    steps["dispatcher"] = clock() - start
    engine = StreamingEngine(
        dispatcher, delta_t=DELTA_T, max_batch=workload.max_batch
    )
    return Setup(dispatcher=dispatcher, engine=engine, plan=plan, steps=steps)
