"""Tests for the process-parallel harness layers (PR 5).

Covers the fork-based cell runner, ``compare_strategies(n_jobs=)``
serial-equivalence, and the disk tier of the experiment memoiser.
"""

import os

import numpy as np
import pytest

from repro.baselines import RandomSearch, SimulatedAnnealing
from repro.cluster import homogeneous
from repro.core import TuningBudget
from repro.harness import compare_strategies, fork_available, resolve_n_jobs, run_cells
from repro.workloads import get_workload

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestRunCells:
    def test_serial_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(5)], n_jobs=1) == [
            0, 3, 6, 9, 12,
        ]

    @needs_fork
    def test_parallel_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(9)], n_jobs=3) == [
            i * 3 for i in range(9)
        ]

    @needs_fork
    def test_closures_need_no_pickling(self):
        # Lambdas over local state cannot be pickled; the fork runner must
        # still execute them.
        local = {"offset": 10}
        cells = [lambda i=i: local["offset"] + i for i in range(4)]
        assert run_cells(cells, n_jobs=2) == [10, 11, 12, 13]

    @needs_fork
    def test_cell_exception_propagates(self):
        def boom():
            raise RuntimeError("cell failed")

        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells([boom, boom], n_jobs=2)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None, cells=2) == min(os.cpu_count() or 1, 2)
        assert resolve_n_jobs(8, cells=3) == 3
        assert resolve_n_jobs(1, cells=10) == 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0, cells=2)

    def test_empty(self):
        assert run_cells([], n_jobs=4) == []


class TestCompareStrategiesNJobs:
    @needs_fork
    def test_parallel_comparison_equals_serial(self):
        strategies = {
            "random": lambda seed: RandomSearch(),
            "annealing": lambda seed: SimulatedAnnealing(seed=seed),
        }
        workload = get_workload("resnet50-imagenet")
        cluster = homogeneous(8)
        budget = TuningBudget(max_trials=5)
        serial = compare_strategies(
            strategies, workload, cluster, budget, repeats=2, seed=3, n_jobs=1
        )
        parallel = compare_strategies(
            strategies, workload, cluster, budget, repeats=2, seed=3, n_jobs=4
        )
        assert serial.optimum_value == parallel.optimum_value
        for name in strategies:
            a, b = serial.outcomes[name], parallel.outcomes[name]
            assert a.normalized_best == b.normalized_best
            assert a.mean_curve == b.mean_curve
            assert a.mean_total_cost_s == b.mean_total_cost_s
            assert a.trials_to_5pct == b.trials_to_5pct


class TestDiskMemoiser:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        import repro.harness.experiments as experiments

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        experiments._memo.clear()
        yield
        experiments._memo.clear()

    def test_round_trip_without_recompute(self):
        import repro.harness.experiments as experiments

        value = experiments._memoised(
            ("cell", 1, 2.5), lambda: [[1, None, "x", 2.5]]
        )
        experiments._memo.clear()  # simulate a fresh process
        calls = []
        reloaded = experiments._memoised(
            ("cell", 1, 2.5), lambda: calls.append(1) or [["fresh"]]
        )
        assert calls == []
        assert reloaded == value

    def test_distinct_keys_do_not_collide(self):
        import repro.harness.experiments as experiments

        experiments._memoised(("k", 1), lambda: "one")
        experiments._memo.clear()
        assert experiments._memoised(("k", 2), lambda: "two") == "two"

    def test_numpy_scalars_serialisable(self):
        import repro.harness.experiments as experiments

        value = experiments._memoised(
            ("np-cell",), lambda: [[np.float64(1.5), np.int64(3)]]
        )
        experiments._memo.clear()
        assert experiments._memoised(("np-cell",), lambda: None) == [[1.5, 3]]
        assert value[0][0] == 1.5

    def test_unserialisable_values_stay_memory_only(self, tmp_path):
        import repro.harness.experiments as experiments

        value = experiments._memoised(("obj-cell",), lambda: {("tuple", "key"): 1})
        assert value == {("tuple", "key"): 1}
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        # memory tier still serves it
        assert experiments._memoised(("obj-cell",), lambda: None) == value

    def test_clear_experiment_cache_wipes_disk(self, tmp_path):
        import repro.harness.experiments as experiments

        experiments._memoised(("wipe-cell",), lambda: [1, 2, 3])
        assert [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        experiments.clear_experiment_cache()
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        calls = []
        experiments._memoised(("wipe-cell",), lambda: calls.append(1) or [9])
        assert calls == [1]

    def test_experiment_table_round_trips_through_disk(self):
        import repro.harness.experiments as experiments

        kwargs = dict(node_counts=(8,), budget_trials=3, seed=0)
        cold = experiments.exp_f5_scalability(**kwargs)
        experiments._memo.clear()
        warm = experiments.exp_f5_scalability(**kwargs)
        assert [list(map(str, r)) for r in warm.rows] == [
            list(map(str, r)) for r in cold.rows
        ]


class TestVectorizedCandidateFlag:
    """The vectorised candidate pipeline and its scalar reference arm."""

    def test_scalar_fallback_deterministic_and_valid(self):
        from _reference import ScalarCandidateProposer

        from repro.configspace import ml_config_space
        from repro.core.bo import BayesianProposer
        from repro.core.trial import TrialHistory
        from repro.mlsim import Measurement, TrainingConfig

        space = ml_config_space(8)

        def history():
            rng = np.random.default_rng(0)
            h = TrialHistory()
            for _ in range(12):
                c = space.sample(rng)
                h.record(
                    c,
                    Measurement(
                        config=TrainingConfig(),
                        ok=True,
                        fidelity="analytic",
                        objective=float(rng.random() * 10),
                        probe_cost_s=60.0,
                    ),
                )
            return h

        for proposer_cls in (ScalarCandidateProposer, BayesianProposer):
            h = history()
            proposer = proposer_cls(space, n_initial=4, seed=0)
            rng = np.random.default_rng(9)
            first = proposer.propose(h, rng)
            assert space.is_valid(first)
            # same arm + same seed: bit-reproducible
            again = proposer_cls(space, n_initial=4, seed=0).propose(
                history(), np.random.default_rng(9)
            )
            assert first == again
