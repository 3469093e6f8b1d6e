"""The benchmark reference arms reproduce the baseline paths they froze.

``benchmarks/_reference.py`` holds the slower paths the product replaced,
as denominators for the P3/P5 speedup gates.  The constants below are the
outputs those paths produced when they were still product flags
(``BayesianProposer(reuse_surrogate=False)``,
``BayesianProposer(vectorized_candidates=False)``,
``GaussianProcess(analytic_gradients=False)``); each arm must keep
reproducing them, or the gates would divide by different work.
Coordinates are compared rounded to 10 decimals.
"""

import numpy as np
import pytest
from _reference import FiniteDifferenceGP, RebuildProposer, ScalarCandidateProposer

from repro.configspace import ConfigSpace, FloatParameter, ml_config_space
from repro.core import TrialHistory
from repro.core.parallel import propose_batch
from repro.mlsim import Measurement, TrainingConfig

REBUILD_SERIAL_TAIL = [
    (0.6727370819, 0.3923464456),
    (0.7154605263, 0.3018384891),
    (0.7154605263, 0.2018384891),
    (0.4097119854, 0.45638901),
    (0.5888932568, 0.3492260462),
    (0.2236292766, 0.6037749259),
    (0.0059648168, 0.2089556019),
    (0.4873731512, 0.935778667),
    (0.0150058344, 0.3317405704),
    (0.9389016619, 0.8823984298),
]

REBUILD_BATCH_ROUNDS = [
    [
        (0.8158535541, 0.0),
        (0.6883801094, 0.2273584719),
        (1.0, 0.0),
        (0.9295115137, 0.1996450134),
    ],
    [
        (0.6883801094, 0.3273584719),
        (0.7435907585, 0.2681760208),
        (0.5883801094, 0.2273584719),
        (0.5986382881, 0.0981818922),
    ],
]

_PS = dict(architecture="ps", colocate_ps=False, gradient_precision="fp16", sync_mode="ssp")
SCALAR_PROPOSALS = [
    dict(_PS, batch_per_worker=2, intra_op_threads=0, num_ps=7, num_workers=1, staleness_bound=11),
    dict(_PS, batch_per_worker=1, intra_op_threads=2, num_ps=1, num_workers=1, staleness_bound=15),
    dict(_PS, batch_per_worker=2, intra_op_threads=5, num_ps=7, num_workers=1, staleness_bound=15),
    {
        "architecture": "allreduce",
        "batch_per_worker": 462,
        "colocate_ps": True,
        "gradient_precision": "fp16",
        "intra_op_threads": 5,
        "num_ps": 1,
        "num_workers": 8,
        "staleness_bound": 16,
        "sync_mode": "ssp",
    },
]

FD_LOG_PARAMS = [4.21732001, 0.45428835, 1.64944802, -12.0]
FD_LML = 14.32563956


def toy_space():
    return ConfigSpace([FloatParameter("x", 0.0, 1.0), FloatParameter("y", 0.0, 1.0)])


def record(history, config, objective, cost):
    history.record(
        config,
        Measurement(
            config=TrainingConfig(),
            ok=True,
            fidelity="analytic",
            objective=objective,
            probe_cost_s=cost,
        ),
    )


def record_toy(history, config):
    objective = -((config["x"] - 0.7) ** 2) - (config["y"] - 0.3) ** 2
    record(history, config, objective, cost=10.0 + 50.0 * config["x"])


def rounded(config):
    return (round(config["x"], 10), round(config["y"], 10))


def rebuild_proposer(seed):
    return RebuildProposer(
        toy_space(), acquisition="eipc", n_initial=8, n_candidates=64, seed=seed
    )


def test_rebuild_arm_replays_serial_proposals():
    proposer = rebuild_proposer(seed=11)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    proposals = []
    while len(history) < 30:
        config = proposer.propose(history, rng)
        proposals.append(rounded(config))
        record_toy(history, config)
    assert proposals[20:] == REBUILD_SERIAL_TAIL


def test_rebuild_arm_replays_constant_liar_rounds():
    proposer = rebuild_proposer(seed=0)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    while len(history) < 8:
        record_toy(history, proposer.propose(history, rng))
    rounds = []
    for _ in range(2):
        batch = propose_batch(proposer, history, rng, 4)
        rounds.append([rounded(config) for config in batch])
        for config in batch:
            record_toy(history, config)
    assert rounds == REBUILD_BATCH_ROUNDS


def test_rebuild_arm_keeps_rebuilding_after_retuning():
    proposer = rebuild_proposer(seed=0)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    while len(history) < 10:
        record_toy(history, proposer.propose(history, rng))
    proposer.apply_retuning(before_index=4)
    proposer.propose(history, rng)
    cached = proposer._objective_cache.gp
    # Same history: the product path would reuse the cached GP as is.
    proposer.propose(history, rng)
    assert proposer._objective_cache.gp is not cached


def test_scalar_candidate_arm_replays_proposals():
    space = ml_config_space(8)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    for _ in range(12):
        record(history, space.sample(rng), float(rng.random() * 10), cost=60.0)
    proposer = ScalarCandidateProposer(space, acquisition="eipc", n_initial=4, seed=0)
    rng = np.random.default_rng(9)
    proposals = []
    for i in range(4):
        config = proposer.propose(history, rng)
        proposals.append(config)
        record(history, config, float(i), cost=30.0 + 10.0 * i)
    assert proposals == SCALAR_PROPOSALS



def test_scalar_candidate_arm_does_the_scalar_work(monkeypatch):
    """The P5 denominator: per-config sampling and a per-dict hill-climb."""
    space = ml_config_space(8)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    for _ in range(12):
        record(history, space.sample(rng), float(rng.random() * 10), cost=60.0)
    calls = dict.fromkeys(("sample", "neighbors", "neighbors_batch", "sample_batch_encoded"), 0)
    for name in calls:
        method = getattr(ConfigSpace, name)

        def spy(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(ConfigSpace, name, spy)
    proposer = ScalarCandidateProposer(space, n_initial=4, n_candidates=64, seed=0)
    proposer.propose(history, np.random.default_rng(9))
    assert calls["sample"] == 64
    # The incumbent's neighbourhood plus at least one hill-climb step.
    assert calls["neighbors"] >= 2
    assert calls["neighbors_batch"] == calls["sample_batch_encoded"] == 0

def test_finite_difference_gp_replays_fit():
    rng = np.random.default_rng(1)
    x = rng.random((18, 2))
    y = np.sin(5 * x[:, 0]) + x[:, 1] ** 2
    gp = FiniteDifferenceGP(restarts=2).fit(x, y)
    assert gp._log_params() == pytest.approx(FD_LOG_PARAMS, abs=1e-7)
    assert gp.log_marginal_likelihood() == pytest.approx(FD_LML, abs=1e-7)


def test_p8_batched_post_drift_search_keeps_its_optimum():
    """P8 scores its optimum search in batches; the bar it grades must not move.

    The value is the one the per-config search produced (the committed
    ``BENCH_P8.json`` records it rounded to -776948.9).
    """
    import bench_p8_drift

    bench_p8_drift._post_optimum = None
    assert bench_p8_drift.post_drift_optimum() == -776948.9101186779
