"""Property-based tests on the probe engine's cost ledgers (hypothesis).

Whatever the preset, the scripted probe costs, the shard outages, and the
budget that stops the session, the machine bill must stay physical: no
shard is billed more slot-seconds than it had (capacity × session
wall-clock), no cancellation is billed negative time, and the per-shard
itemisation sums to the session total.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configspace import ConfigSpace, FloatParameter
from repro.core import (
    AsyncExecutor,
    EnvironmentPool,
    EnvironmentShard,
    FailureInjector,
    OutageWindow,
    ParallelExecutor,
    SerialExecutor,
    TuningBudget,
    TuningSession,
)
from repro.core.strategy import SearchStrategy
from repro.mlsim import Measurement, TrainingConfig


class StubEnv:
    def describe(self):
        return {"workload": "stub"}


class ScriptedCosts(SearchStrategy):
    """Probes cost the scripted seconds in turn (scaled by the shard)."""

    name = "scripted-costs"

    def __init__(self, costs):
        self.costs = list(costs)
        self.cursor = 0

    def reset(self):
        self.cursor = 0

    def propose(self, history, space, rng):
        return {"x": 0.5}

    def measure(self, env, config):
        cost = self.costs[self.cursor % len(self.costs)]
        self.cursor += 1
        return Measurement(
            config=TrainingConfig(),
            ok=True,
            fidelity="stub",
            objective=-cost,
            probe_cost_s=cost,
        )


SHARDS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=2),  # capacity
        st.sampled_from([0.5, 1.0, 2.0]),  # cost multiplier
    ),
    min_size=1,
    max_size=3,
)
OUTAGES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # shard index
        st.floats(min_value=0.0, max_value=80.0),  # start
        st.floats(min_value=0.5, max_value=60.0),  # length
    ),
    max_size=4,
)
BUDGETS = st.one_of(
    st.integers(min_value=1, max_value=12).map(lambda n: TuningBudget(max_trials=n)),
    st.floats(min_value=1.0, max_value=150.0).map(
        lambda c: TuningBudget(max_cost_s=c)
    ),
    st.floats(min_value=1.0, max_value=80.0).map(
        lambda w: TuningBudget(max_wall_clock_s=w)
    ),
)
PRESETS = ["serial", "sync", "async", "pooled-serial", "pooled-sync", "pooled-async"]


def build_executor(preset, workers, shards, outages):
    if preset == "serial":
        return SerialExecutor()
    if preset == "sync":
        return ParallelExecutor(workers)
    if preset == "async":
        return AsyncExecutor(workers)
    names = [f"s{i}" for i in range(len(shards))]
    windows = [
        OutageWindow(names[index], start, start + length)
        for index, start, length in outages
        if index < len(names)
    ]
    pool = EnvironmentPool(
        [
            EnvironmentShard(name, StubEnv(), capacity=capacity, cost_multiplier=m)
            for name, (capacity, m) in zip(names, shards)
        ],
        injector=FailureInjector(outages=windows) if windows else None,
    )
    if preset == "pooled-serial":
        return SerialExecutor(pool=pool)
    if preset == "pooled-sync":
        return ParallelExecutor(pool=pool)
    return AsyncExecutor(pool=pool)


@pytest.mark.parametrize("preset", PRESETS)
@given(
    costs=st.lists(st.floats(min_value=0.5, max_value=40.0), min_size=1, max_size=6),
    workers=st.integers(min_value=2, max_value=4),
    shards=SHARDS,
    outages=OUTAGES,
    budget=BUDGETS,
)
@settings(max_examples=100, deadline=None)
def test_cost_ledgers_stay_physical(preset, costs, workers, shards, outages, budget):
    executor = build_executor(preset, workers, shards, outages)
    space = ConfigSpace([FloatParameter("x", 0.0, 1.0)])
    env = None if executor.pool is not None else StubEnv()
    history = TuningSession(ScriptedCosts(costs), executor=executor).run(
        env, space, budget, seed=0
    ).history

    if executor.pool is None:
        capacity = {None: executor.workers}
    else:
        capacity = {shard.name: shard.capacity for shard in executor.pool.shards}
    wall = history.total_wall_clock_s
    by_shard = history.cost_by_shard()
    for shard, cost in by_shard.items():
        assert cost <= capacity[shard] * wall * (1 + 1e-9) + 1e-9, (shard, cost, wall)
    assert history.cancelled_cost_s >= 0.0
    assert sum(by_shard.values()) == pytest.approx(history.total_cost_s)
