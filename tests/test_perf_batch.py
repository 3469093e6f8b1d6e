"""Property tests for the closed-form performance model.

The columnar engine is the only perf model in ``src/``; its contract is
*bit-equality* with the frozen per-config model in
``benchmarks/_reference.py`` — not approximate agreement.  Hypothesis
drives arbitrary configuration batches (feasible and infeasible, every
architecture and sync mode, input-pipeline and compression knobs engaged)
through both and requires the full :class:`~repro.mlsim.PerfEstimate` to
compare equal with ``==``, never ``approx``.  The probe stream and a tuner
session on top of the engine are pinned to values recorded when probes
still ran through the per-config model.
"""

import hashlib

import numpy as np
import pytest
from _reference import scalar_estimate, scalar_true_objective
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, PlacementError, homogeneous, place
from repro.cluster.node import CATALOGUE
from repro.configspace import ml_config_space, to_training_config
from repro.core import MLConfigTuner, TuningBudget, TuningSession
from repro.harness.chaos import result_fingerprint
from repro.mlsim import (
    CompositeDrift,
    InfeasibleConfigError,
    PerfColumns,
    StepDrift,
    StragglerOnset,
    TrainingConfig,
    TrainingEnvironment,
    estimate,
    estimate_batch,
)
from repro.workloads import get_workload

WORKLOAD = get_workload("resnet50-imagenet")

HOMOGENEOUS = homogeneous(8)
HETEROGENEOUS = ClusterSpec(
    pools=tuple((CATALOGUE[name], 4) for name in list(CATALOGUE)[:2])
)

config_strategy = st.builds(
    TrainingConfig,
    architecture=st.sampled_from(("ps", "allreduce")),
    num_workers=st.integers(min_value=1, max_value=18),
    num_ps=st.integers(min_value=1, max_value=6),
    colocate_ps=st.booleans(),
    sync_mode=st.sampled_from(("bsp", "asp", "ssp")),
    staleness_bound=st.integers(min_value=0, max_value=12),
    batch_per_worker=st.integers(min_value=1, max_value=512),
    intra_op_threads=st.integers(min_value=0, max_value=24),
    gradient_precision=st.sampled_from(("fp32", "fp16")),
    compression_ratio=st.sampled_from((1.0, 0.5, 0.1, 0.01)),
    io_threads=st.integers(min_value=0, max_value=4),
    prefetch_batches=st.integers(min_value=0, max_value=3),
)


def scalar_reference(config, workload, cluster, factors):
    """The frozen scalar model's answer and worker speeds (None if infeasible)."""
    canonical = config.canonical()
    try:
        placement = place(
            cluster.total_nodes,
            canonical.num_ps if canonical.uses_ps else 0,
            canonical.num_workers,
            canonical.colocate_ps if canonical.uses_ps else False,
        )
        speeds = (
            [1.0] * canonical.num_workers
            if factors is None
            else [float(factors[n]) for n in placement.worker_nodes]
        )
        return scalar_estimate(config, workload, cluster, speed_factors=speeds), speeds
    except (InfeasibleConfigError, PlacementError):
        return None, None


class TestEstimateBatchParity:
    @given(
        configs=st.lists(config_strategy, min_size=1, max_size=24),
        hetero=st.booleans(),
        randomize_speeds=st.booleans(),
        factor_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scalar(
        self, configs, hetero, randomize_speeds, factor_seed
    ):
        cluster = HETEROGENEOUS if hetero else HOMOGENEOUS
        factors = (
            np.random.default_rng(factor_seed).uniform(0.25, 1.5, cluster.total_nodes)
            if randomize_speeds
            else None
        )
        batch = estimate_batch(
            configs, WORKLOAD, cluster, node_speed_factors=factors
        )
        assert len(batch) == len(configs)
        for i, config in enumerate(configs):
            reference, speeds = scalar_reference(config, WORKLOAD, cluster, factors)
            if reference is None:
                assert not batch.ok[i]
                assert np.isnan(batch.throughput[i])
                assert batch.bottleneck[i] is None
                with pytest.raises(InfeasibleConfigError):
                    batch.row(i)
                with pytest.raises(InfeasibleConfigError):
                    estimate(config, WORKLOAD, cluster)
            else:
                assert batch.ok[i]
                assert batch.row(i) == reference  # full-dataclass bit equality
                assert estimate(config, WORKLOAD, cluster, speed_factors=speeds) == reference

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValueError, match="speed factors"):
            estimate_batch(
                [TrainingConfig()], WORKLOAD, HOMOGENEOUS, node_speed_factors=[1.0]
            )
        with pytest.raises(ValueError, match="need 4 speed factors, got 1"):
            estimate(TrainingConfig(), WORKLOAD, HOMOGENEOUS, speed_factors=[1.0])

    def test_from_knob_columns_defaults_match_config_defaults(self):
        # A space that only searches two knobs: everything else must fall
        # back to the TrainingConfig defaults, exactly as from_dict does.
        columns = {
            "num_workers": np.array([1, 2, 5], dtype=np.int64),
            "sync_mode": np.array(["bsp", "asp", "ssp"], dtype=object),
        }
        from_columns = PerfColumns.from_knob_columns(columns, 3)
        configs = [
            TrainingConfig.from_dict({"num_workers": w, "sync_mode": s})
            for w, s in zip([1, 2, 5], ["bsp", "asp", "ssp"])
        ]
        from_configs = PerfColumns.from_configs(configs)
        for field in (
            "num_workers", "num_ps", "colocate_ps", "staleness_bound",
            "batch_per_worker", "intra_op_threads", "io_threads",
            "prefetch_batches", "uses_ps", "grad_factor", "global_batch",
            "compression_ratio",
        ):
            assert np.array_equal(
                getattr(from_columns, field), getattr(from_configs, field)
            ), field
        assert list(from_columns.sync_mode) == list(from_configs.sync_mode)


DRIFT = CompositeDrift(
    (
        StragglerOnset(at_s=100.0, fraction=0.3, slowdown=3.0),
        StepDrift(at_s=300.0, intensity=1.8),
    )
)


class TestTrueObjectiveBatchParity:
    @given(
        configs=st.lists(config_strategy, min_size=1, max_size=16),
        objective=st.sampled_from(("throughput", "tta")),
        drifted=st.booleans(),
        at_s=st.sampled_from((None, 0.0, 150.0, 500.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_loop_at_fixed_clock(
        self, configs, objective, drifted, at_s
    ):
        env = TrainingEnvironment(
            WORKLOAD,
            HOMOGENEOUS,
            seed=11,
            objective_name=objective,
            drift=DRIFT if drifted else None,
        )
        env.set_clock(250.0)
        values = env.true_objective_batch(configs, at_s=at_s)
        for i, config in enumerate(configs):
            scalar = scalar_true_objective(env, config, at_s=at_s)
            single = env.true_objective(config, at_s=at_s)
            if scalar is None:
                assert np.isnan(values[i])
                assert single is None
            else:
                assert values[i] == scalar  # bitwise, not approx
                assert single == scalar and type(single) is float


# Configs every probe path must reject, one per infeasibility check.
INFEASIBLE = (
    TrainingConfig(num_workers=12),  # 12 workers + 2 dedicated PS on 8 nodes
    TrainingConfig(architecture="allreduce", num_workers=9),
    TrainingConfig(batch_per_worker=2048),  # activations exceed node memory
    TrainingConfig(batch_per_worker=2),  # below the model's minimum batch
    TrainingConfig(io_threads=64),  # input pipeline takes every core
)


def measure_stream():
    """A mixed probe stream over three environments, as one list.

    Throughput and TTA objectives with transient failures and alternating
    ``charge_startup``, every infeasibility kind, and a drifted
    heterogeneous cluster read at two clocks; each environment's counters
    close its segment.
    """
    rng = np.random.default_rng(5)
    space = ml_config_space(8)
    sampled = [to_training_config(space.sample(rng)) for _ in range(16)]
    configs = sampled[:8] + list(INFEASIBLE) + sampled[8:]
    stream = []
    for seed, objective in ((21, "throughput"), (22, "tta")):
        env = TrainingEnvironment(
            WORKLOAD,
            HOMOGENEOUS,
            seed=seed,
            objective_name=objective,
            noise_cv=0.05,
            transient_failure_rate=0.2,
        )
        for i, config in enumerate(configs):
            stream.append(env.measure(config, charge_startup=i % 3 != 0))
        stream.append((env.trials_run, env.total_probe_cost_s))
    drifted = TrainingEnvironment(
        WORKLOAD,
        HETEROGENEOUS,
        seed=4,
        objective_name="tta",
        transient_failure_rate=0.1,
        drift=DRIFT,
    )
    for clock in (50.0, 400.0):
        drifted.set_clock(clock)
        stream.extend(drifted.measure(config) for config in configs)
    stream.append((drifted.trials_run, drifted.total_probe_cost_s))
    return stream


def session_fingerprint():
    """A 30-trial default-tuner session on analytic probes."""
    env = TrainingEnvironment(
        WORKLOAD, HOMOGENEOUS, seed=0, transient_failure_rate=0.1
    )
    result = TuningSession(MLConfigTuner()).run(
        env, ml_config_space(8), TuningBudget(max_trials=30), seed=2
    )
    return result_fingerprint(result)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestMeasurePinned:
    """``measure`` on the batch engine replays the per-config model's stream.

    The digests were recorded when every analytic probe still ran through
    the scalar model (the one now frozen in ``benchmarks/_reference.py``);
    ``repr`` round-trips floats exactly, so equal digests mean equal bits.
    """

    STREAM_SHA256 = "7073db835e21464a820348da749bec368906f8c74fd798fea71414dfeb93bef1"
    SESSION_SHA256 = "73e687d5e6c25d1dd1383404f2a0fcfdd0a30f96c1862efc0bea810bcc9a61c7"

    def test_measure_stream_matches_recording(self):
        stream = measure_stream()
        assert len(stream) == 4 * 22 - 1
        # The drifted segment at clock 50 draws no transient failure on
        # the infeasible slots, so each check's own message comes back.
        assert [m.error for m in stream[52:57]] == [
            "dedicated placement needs 14 nodes, cluster has 8",
            "dedicated placement needs 9 nodes, cluster has 8",
            "worker memory: need 194.9 GB (replica 0.3 + activations 194.6), "
            "node has 64.0 GB",
            "batch_per_worker 2 below model minimum 4",
            "io_threads 64 leaves no compute cores on a 16-core node",
        ]
        assert stream[21] == (21, 1618.6003950263885)
        assert stream[43] == (21, 3740.6726970609634)
        assert stream[-1] == (42, 19453.364818595237)
        assert digest(repr(stream)) == self.STREAM_SHA256

    def test_session_fingerprint_matches_recording(self):
        assert digest(session_fingerprint()) == self.SESSION_SHA256
