"""Closed-form insertion into empty schedules.

An empty schedule (no stops, nobody onboard) admits exactly one Algorithm 1
plan — pickup at 0, drop-off at 1 — and Eq. 1 of a lone rider riding
straight through.  :func:`plan_empty_insertion`,
:meth:`UtilityModel.lone_rider_utility` and the :class:`SolverState` paths
built on them must agree with the general engine (``plan_insertion`` /
``arrange_single_rider`` + ``schedule_utility`` on the materialised
sequence) bit for bit, counters included; these tests pin that, plus the
O(touched + carried) frame bookkeeping the closed form enables.
"""

import random
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.core.dispatch import Dispatcher
from repro.core.insertion import (
    _EPS,
    arrange_single_rider,
    plan_empty_insertion,
    plan_insertion,
)
from repro.core.instance import LazySchedules, URRInstance
from repro.core.requests import Rider
from repro.core.schedule import Stop, TransferSequence
from repro.core.scoring import SolverState
from repro.core.solver import solve
from repro.core.utility_ext import (
    ExtendedUtilityModel,
    UtilityComponent,
    empty_distance_component,
)
from repro.core.vehicles import Vehicle
from repro.obs import start_trace, stop_trace
from repro.perf import INSERTION_STATS
from repro.roadnet.generators import grid_city
from repro.social.graph import SocialNetwork

NET = grid_city(5, 5, seed=11, removal_fraction=0.0, arterial_every=None)
NODES = sorted(NET.nodes())
SOCIAL = SocialNetwork.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
CLOCK = 10.0
NET_COST = URRInstance(network=NET, riders=[], vehicles=[]).cost

#: offsets around the exact-feasibility boundary of a deadline
OFFSETS = [-5.0, -2 * _EPS, -_EPS, -_EPS / 2, 0.0, _EPS / 2, _EPS, 2 * _EPS, 5.0]
#: (alpha, beta) corners: gamma = 0, beta = 0, alpha = 0, all three
WEIGHTS = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.0, 0.0), (0.5, 0.0),
           (0.0, 0.5), (1 / 3, 1 / 3)]


def bits(x):
    return struct.pack("<d", x)


def counters():
    return INSERTION_STATS.plans, INSERTION_STATS.pairs_evaluated


def make_instance(location, capacity, ready_time, rider, alpha, beta,
                  social, mu_v=None):
    vehicle = Vehicle(vehicle_id=7, location=location, capacity=capacity,
                      ready_time=ready_time)
    matrix = {} if mu_v is None else {(rider.rider_id, 7): mu_v}
    return URRInstance(
        network=NET, riders=[rider], vehicles=[vehicle], alpha=alpha,
        beta=beta, vehicle_utilities=matrix,
        social=SOCIAL if social else None, start_time=CLOCK,
    )


@st.composite
def cases(draw):
    source, destination = draw(
        st.lists(st.sampled_from(NODES), min_size=2, max_size=2, unique=True)
    )
    location = draw(st.sampled_from(NODES))
    ready = draw(st.sampled_from([None, CLOCK - 3.0, CLOCK + 4.5]))
    start = CLOCK if ready is None else max(CLOCK, ready)
    to_s = NET_COST(location, source)
    direct = NET_COST(source, destination)
    pickup = start + to_s + draw(st.sampled_from(OFFSETS))
    dropoff = start + to_s + direct + draw(st.sampled_from(OFFSETS))
    if not pickup < dropoff:
        dropoff = pickup + draw(st.sampled_from([_EPS, 1.0]))
    rider = Rider(rider_id=3, source=source, destination=destination,
                  pickup_deadline=pickup, dropoff_deadline=dropoff,
                  social_id=draw(st.sampled_from([None, 1])))
    return dict(
        location=location, ready_time=ready, rider=rider,
        capacity=draw(st.sampled_from([1, 3])),
        weights=draw(st.sampled_from(WEIGHTS)),
        social=draw(st.booleans()),
        mu_v=draw(st.sampled_from([None, 0.0, 0.37, 1.0])),
    )


# ----------------------------------------------------------------------
# insertion engine
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    origin=st.sampled_from(NODES),
    ends=st.lists(st.sampled_from(NODES), min_size=2, max_size=2, unique=True),
    start=st.sampled_from([0.0, 2.5, 17.25]),
    capacity=st.sampled_from([0, 1, 3]),
    pickup_offset=st.sampled_from(OFFSETS),
    dropoff_offset=st.sampled_from(OFFSETS + [40.0]),
)
def test_plan_matches_plan_insertion(origin, ends, start, capacity,
                                     pickup_offset, dropoff_offset):
    seq = TransferSequence(origin=origin, start_time=start,
                           capacity=capacity, cost=NET_COST)
    source, destination = ends
    pickup = start + NET_COST(origin, source) + pickup_offset
    dropoff = max(
        pickup + _EPS,
        start + NET_COST(origin, source) + NET_COST(source, destination)
        + dropoff_offset,
    )
    rider = Rider(rider_id=1, source=source, destination=destination,
                  pickup_deadline=pickup, dropoff_deadline=dropoff)
    before = counters()
    general = plan_insertion(seq, rider)
    mid = counters()
    closed = plan_empty_insertion(origin, start, capacity, NET_COST, rider)
    after = counters()
    assert (mid[0] - before[0], mid[1] - before[1]) == (
        after[0] - mid[0], after[1] - mid[1]
    )
    assert (general is None) == (closed is None)
    if general is not None:
        assert (closed.pickup_position, closed.dropoff_position) == (0, 1)
        assert (general.pickup_position, general.dropoff_position) == (0, 1)
        for field in ("delta_cost", "pickup_delta", "dropoff_delta"):
            assert bits(getattr(closed, field)) == bits(getattr(general, field))


def test_unreachable_dropoff_follows_the_general_path():
    inf = float("inf")
    rider = Rider(rider_id=1, source=1, destination=2,
                  pickup_deadline=100.0, dropoff_deadline=inf)

    def cost(u, v):
        return inf if (u, v) == (1, 2) else 1.0

    seq = TransferSequence(origin=0, start_time=0.0, capacity=2, cost=cost)
    before = counters()
    assert plan_insertion(seq, rider) is None
    mid = counters()
    assert plan_empty_insertion(0, 0.0, 2, cost, rider) is None
    after = counters()
    assert (after[0] - mid[0], after[1] - mid[1]) == (
        mid[0] - before[0], mid[1] - before[1]
    ) == (1, 1)


# ----------------------------------------------------------------------
# solver state
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), materialise=st.booleans(), with_utility=st.booleans())
def test_evaluate_matches_general_path(case, materialise, with_utility):
    alpha, beta = case["weights"]
    instance = make_instance(
        case["location"], case["capacity"], case["ready_time"],
        case["rider"], alpha, beta, case["social"], case["mu_v"],
    )
    rider, vehicle = case["rider"], instance.vehicles[0]
    model = instance.utility_model()

    base = instance.initial_sequence(vehicle)
    before = counters()
    general = arrange_single_rider(base, rider)
    general_counts = counters()
    expected_utility = None
    if general is not None and with_utility:
        expected_utility = model.schedule_utility(
            vehicle, general.sequence
        ) - model.schedule_utility(vehicle, base)

    state = SolverState(instance)
    if materialise:
        state.schedules[vehicle.vehicle_id]  # a materialised empty schedule
    mid = counters()
    evaluation = state.evaluate(rider, vehicle, with_utility=with_utility)
    after = counters()
    assert (after[0] - mid[0], after[1] - mid[1]) == (
        general_counts[0] - before[0], general_counts[1] - before[1]
    )
    assert (evaluation is None) == (general is None)
    plan = state.plan(rider, vehicle)
    assert (plan is None) == (general is None)
    if general is None:
        return
    assert bits(plan.delta_cost) == bits(general.delta_cost)
    ins = evaluation.insertion
    assert (ins.pickup_position, ins.dropoff_position) == (
        general.pickup_position, general.dropoff_position
    )
    assert bits(evaluation.delta_cost) == bits(general.delta_cost)
    if with_utility:
        assert bits(evaluation.delta_utility) == bits(expected_utility)
    else:
        assert evaluation.delta_utility == 0.0
    # nothing was materialised for the probe; the commit builds exactly
    # the general path's sequence
    assert (state.schedules.peek(vehicle.vehicle_id) is not None) == materialise
    state.commit(evaluation)
    committed = state.schedules[vehicle.vehicle_id]
    expected = general.sequence
    assert committed.stops == expected.stops
    for field in ("arrive", "latest", "flexible", "load_before", "leg_costs"):
        assert getattr(committed, field) == getattr(expected, field)
    assert committed.start_time == expected.start_time
    assert committed.committed == expected.committed


def test_extended_model_keeps_the_general_path():
    rider = Rider(rider_id=3, source=0, destination=24,
                  pickup_deadline=CLOCK + 40.0, dropoff_deadline=CLOCK + 90.0)
    instance = make_instance(12, 2, None, rider, 0.3, 0.2, False)
    vehicle = instance.vehicles[0]
    model = ExtendedUtilityModel(
        alpha=0.3, beta=0.2, vehicle_utility=instance.vehicle_utility,
        similarity=instance.similarity, cost=instance.cost,
        components=[UtilityComponent(
            name="empty_distance", weight=0.2,
            fn=empty_distance_component(instance.cost),
        )],
    )
    assert not model.has_lone_rider_form
    assert instance.utility_model().has_lone_rider_form
    state = SolverState(instance, model=model)
    evaluation = state.evaluate(rider, vehicle)
    general = arrange_single_rider(instance.initial_sequence(vehicle), rider)
    expected = model.schedule_utility(vehicle, general.sequence)
    assert evaluation.delta_utility == expected
    # the closed form would have dropped the component's share
    lone = model.lone_rider_utility(
        rider, vehicle, general.sequence.leg_costs[1]
    )
    assert evaluation.delta_utility != lone


# ----------------------------------------------------------------------
# frame bookkeeping
# ----------------------------------------------------------------------
def test_idle_fleet_frame_materialises_touched_and_carried_only():
    city = grid_city(8, 8, seed=3, removal_fraction=0.0, arterial_every=None)
    nodes = sorted(city.nodes())
    rng = random.Random(5)
    fleet = [
        Vehicle(vehicle_id=i, location=rng.choice(nodes), capacity=3)
        for i in range(2500)
    ]
    # a few vehicles enter mid-trip: a rider onboard, its drop-off committed
    for vid in (7, 1200, 2499):
        source, destination = rng.sample(nodes, 2)
        rider = Rider(rider_id=9000 + vid, source=source,
                      destination=destination, pickup_deadline=0.0,
                      dropoff_deadline=500.0)
        fleet[vid] = Vehicle(vehicle_id=vid, location=source, capacity=3,
                             onboard=(rider,),
                             committed_stops=(Stop.dropoff(rider),))
    dispatcher = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                            seed=2, utility_matrix="default")
    riders = []
    for i in range(8):
        source, destination = rng.sample(nodes, 2)
        riders.append(Rider(rider_id=i, source=source,
                            destination=destination, pickup_deadline=6.0,
                            dropoff_deadline=40.0))
    report = dispatcher.dispatch_frame(riders)
    schedules = report.assignment.schedules
    assert isinstance(schedules, LazySchedules)
    materialised = {
        vid for vid in schedules if schedules.peek(vid) is not None
    }
    carried = set(report.assignment.instance.carried_vehicle_ids)
    assert carried == {7, 1200, 2499}
    assert report.num_served > 0
    assert materialised == schedules.touched | carried
    assert len(materialised) < 20


def test_iter_active_order_and_contents():
    rider = Rider(rider_id=1, source=0, destination=5,
                  pickup_deadline=50.0, dropoff_deadline=90.0)
    carried = Vehicle(vehicle_id=4, location=3, capacity=2,
                      onboard=(rider,), committed_stops=(Stop.dropoff(rider),))
    vehicles = [Vehicle(vehicle_id=i, location=i, capacity=2) for i in (9, 2)]
    vehicles += [carried, Vehicle(vehicle_id=1, location=1, capacity=2)]
    # a pending ready time alone leaves the schedule empty
    vehicles.append(Vehicle(vehicle_id=6, location=6, capacity=2,
                            ready_time=12.0))
    instance = URRInstance(network=NET, riders=[], vehicles=vehicles)
    assert instance.carried_vehicle_ids == [4]
    lazy = LazySchedules(instance)
    lazy[2]  # materialised but untouched and empty: skipped
    lazy[1] = lazy[1]
    lazy[9] = lazy[9]
    assert [vid for vid, _ in lazy.iter_active()] == [9, 4, 1]
    lazy[77] = instance.initial_sequence(vehicles[0])  # foreign id
    assert [vid for vid, _ in lazy.iter_active()] == [9, 4, 1, 77]
    # ascending ids: fleet order without a position map
    ordered = URRInstance(network=NET, riders=[],
                          vehicles=sorted(vehicles[:4], key=lambda v: v.vehicle_id))
    assert ordered._vehicle_position is None
    lazy = LazySchedules(ordered)
    lazy[9] = lazy[9]
    lazy[1] = lazy[1]
    assert [vid for vid, _ in lazy.iter_active()] == [1, 4, 9]


def test_solve_skips_served_count_when_tracing_is_off(monkeypatch, tmp_path):
    rng = random.Random(4)
    vehicles = [Vehicle(vehicle_id=i, location=rng.choice(NODES), capacity=2)
                for i in range(4)]
    riders = [Rider(rider_id=i, source=s, destination=d,
                    pickup_deadline=30.0, dropoff_deadline=80.0)
              for i, (s, d) in enumerate(rng.sample(NODES, 2) for _ in range(6))]
    instance = URRInstance(network=NET, riders=riders, vehicles=vehicles)
    calls = []
    original = Assignment.served_rider_ids

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Assignment, "served_rider_ids", counting)
    solve(instance, method="eg")
    assert calls == []
    start_trace(str(tmp_path / "trace.jsonl"))
    try:
        solve(instance, method="eg")
    finally:
        stop_trace()
    assert calls  # the traced run still annotates the served count


def test_pinned_rows_match_the_fleet_scan():
    city = grid_city(5, 5, seed=1, removal_fraction=0.0, arterial_every=None)
    fleet = [Vehicle(vehicle_id=v, location=v % 25, capacity=2)
             for v in (30, 4, 17, 8, 22)]
    dispatcher = Dispatcher(city, fleet, method="eg", frame_length=10.0,
                            seed=3)
    values = {(rid, vid): 0.1 * rid + 0.01 * vid
              for rid in (1, 2) for vid in (22, 30, 8, 99)}
    values[(5, 4)] = 0.5
    # sparse matrix (9 pairs < 3 riders x 5 vehicles): scanned
    rows = dispatcher._new_pinned_rows(values, [1, 2, 3])
    for rid in (1, 2, 3):
        expected = {vid: values[(rid, vid)] for vid in dispatcher.fleet
                    if (rid, vid) in values}
        assert list(rows[rid].items()) == list(expected.items())
    # dense for one rider (9 pairs >= 1 x 5): probed per fleet vehicle
    dense = dispatcher._new_pinned_rows(values, [1])
    assert list(dense[1].items()) == list(rows[1].items())
