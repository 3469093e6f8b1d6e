"""F5 — tuning quality vs cluster size (8 → 64 nodes).

The timed kernel is noise-free objective evaluation over a random sample —
the primitive behind optimum estimation at every cluster size.
"""

import numpy as np

from conftest import emit
from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.harness.experiments import exp_f5_scalability
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


def bench_f5_scalability(benchmark):
    table = emit(exp_f5_scalability(node_counts=(8, 16, 32, 64), budget_trials=30, seed=0))
    assert "64" in table

    env = TrainingEnvironment(get_workload("resnet50-imagenet"), homogeneous(64), seed=0)
    space = ml_config_space(64)
    rng = np.random.default_rng(0)
    configs = space.sample_batch(rng, 100)

    def kernel():
        return env.true_objective_batch([to_training_config(c) for c in configs])

    values = benchmark(kernel)
    assert not np.isnan(values).all()
