"""Frozen baseline arms: the slower paths the product replaced.

Each hot loop in ``src/`` has one production path.  The paths it replaced
live on here, unchanged in behaviour, as the denominators of the speedup
benchmarks and as test oracles:

- :class:`RebuildProposer` — BO proposals without surrogate reuse: every
  call rebuilds the objective GP (no factor extension) and hyperfits the
  cost GP, and every hyperfit is the full multi-start.  The ``rebuild``
  arm of ``bench_p3_surrogate.py``.
- :class:`ScalarCandidateProposer` — BO proposals whose candidates come
  from a per-config loop: ``n_candidates`` :meth:`ConfigSpace.sample`
  calls plus one ``encode_batch``, and a hill-climb over
  :meth:`ConfigSpace.neighbors` dicts re-encoded per step.  The ``scalar``
  arm of ``bench_p5_throughput.py``.
- :class:`FiniteDifferenceGP` — an exact GP whose hyperfit lets L-BFGS-B
  difference the marginal likelihood numerically.  The ``fd`` arm of
  ``bench_p3_surrogate.py``'s ``hyperfit`` axis.
- :func:`scalar_estimate` — the per-config closed-form performance model
  (compute, push/pull and ring terms solved one config at a time) that
  :func:`~repro.mlsim.perf.estimate_columns` evaluates column-wise, and
  :func:`scalar_true_objective`, the noise-free objective on top of it.
  The ``==`` oracle of ``tests/test_perf_batch.py``'s properties.
- :func:`scalar_optimum` — the per-config optimum search that
  :func:`~repro.harness.optimum.estimate_optimum` batches, bit-identical
  to it.  Scores each config with :func:`scalar_true_objective`.  The
  ``scalar`` arm of ``bench_p9_sweep.py``.

Each arm reproduces what the product classes produced when these paths
were still selectable by flag; ``tests/test_reference_arms.py`` pins the
recorded outputs (the scalar model arms are pinned by
``tests/test_perf_batch.py``).  Import with ``benchmarks/`` on ``sys.path``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.cluster import ClusterSpec, PlacementError, place
from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.bo import BayesianProposer, _SurrogateCache
from repro.core.gp import _LOG_NOISE_BOUNDS, GaussianProcess
from repro.mlsim import TrainingConfig, TrainingEnvironment
from repro.mlsim.perf import (
    BSP_OVERLAP,
    ITERATION_OVERHEAD_S,
    STARTUP_OVERHEAD_S,
    InfeasibleConfigError,
    PerfEstimate,
    _straggler_tail_factor,
    check_feasible,
)
from repro.mlsim.pipeline import effective_iteration_time, iteration_input_time
from repro.workloads import Workload


class _RebuildCache(_SurrogateCache):
    """A surrogate cache that never extends and always runs the multi-start."""

    def update(self, x, y, factory, optimize, noise_scale=None):
        self.gp = None
        self._multi_start_n = None
        return super().update(x, y, factory, optimize, noise_scale=noise_scale)


class RebuildProposer(BayesianProposer):
    """:class:`BayesianProposer` with no surrogate reuse between calls.

    The objective GP is rebuilt from scratch on every proposal (refitting
    hyperparameters on the usual real-trial cadence) and the ``"eipc"``
    cost GP is hyperfit on every proposal.  A conservative baseline: its
    hyperfits still use analytic gradients.
    """

    def __init__(self, space: ConfigSpace, **kwargs) -> None:
        super().__init__(space, **kwargs)
        self._objective_cache = _RebuildCache()
        self._cost_cache = _RebuildCache()

    def apply_retuning(self, before_index: int, discount: Optional[float] = None) -> None:
        super().apply_retuning(before_index, discount=discount)
        self._objective_cache = _RebuildCache()
        self._cost_cache = _RebuildCache()

    def _fit_cost_model(self, history, refit_due):
        return super()._fit_cost_model(history, True)


class _ScalarNeighbors:
    """A config space whose ``neighbors_batch`` is the scalar per-config loop."""

    def __init__(self, space: ConfigSpace) -> None:
        self._space = space

    def __getattr__(self, name):
        return getattr(self._space, name)

    def neighbors_batch(self, config, rng, base_row=None):
        moves = self._space.neighbors(config, rng)
        return self._space.encode_batch(moves), moves


class ScalarCandidateProposer(BayesianProposer):
    """:class:`BayesianProposer` with per-config candidate generation.

    Draws candidates one :meth:`ConfigSpace.sample` call at a time (the
    historical RNG stream) and encodes them in one ``encode_batch``; the
    hill-climb re-encodes each step's :meth:`ConfigSpace.neighbors` dicts.
    Surrogates, scoring and the refit schedule are the product's.
    """

    def __init__(self, space: ConfigSpace, **kwargs) -> None:
        super().__init__(_ScalarNeighbors(space), **kwargs)

    def _candidate_matrix(self, history, rng):
        candidates: List[ConfigDict] = [
            self.space.sample(rng) for _ in range(self.n_candidates)
        ]
        best = history.best()
        if best is not None:
            candidates.extend(self.space.neighbors(best.config, rng))
            candidates.append(dict(best.config))
        return self.space.encode_batch(candidates), candidates.__getitem__


class FiniteDifferenceGP(GaussianProcess):
    """Exact GP whose multi-start hyperfit uses finite-difference gradients.

    Same starts, bounds, optimiser settings and best-of reduction as
    :class:`GaussianProcess`; L-BFGS-B gets only the marginal-likelihood
    value and differences it itself.
    """

    def _optimize_hyperparameters(self) -> None:
        bounds = self.kernel.param_bounds()
        if self.fit_noise:
            bounds = bounds + [_LOG_NOISE_BOUNDS]
        rng = np.random.default_rng(self.seed)
        starts = [self._log_params()]
        for _ in range(self.restarts):
            starts.append(np.array([lo + (hi - lo) * rng.random() for lo, hi in bounds]))
        best_val = np.inf
        best_params = starts[0]
        for start in starts:
            result = optimize.minimize(
                self._neg_log_marginal,
                start,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 200},
            )
            if result.fun < best_val:
                best_val = float(result.fun)
                best_params = result.x
        self._apply_log_params(best_params)


def worker_compute_times(
    config: TrainingConfig,
    workload: Workload,
    cluster: ClusterSpec,
    speed_factors: Sequence[float],
) -> List[float]:
    """Per-worker mean compute time for one local minibatch.

    ``speed_factors`` has one entry per *worker*, in placement order,
    already including persistent-straggler slowdowns.
    """
    flops = workload.model.flops_per_sample * config.batch_per_worker
    node_specs = cluster.node_specs()
    placement = place(
        cluster.total_nodes,
        config.num_ps if config.uses_ps else 0,
        config.num_workers,
        config.colocate_ps if config.uses_ps else False,
    )
    times = []
    for rank, node_id in enumerate(placement.worker_nodes):
        spec = node_specs[node_id]
        base_rate = spec.gflops * 1e9 * speed_factors[rank]
        # Cores dedicated to the input pipeline are unavailable for math.
        available = spec.cores - config.io_threads
        if available < 1:
            raise InfeasibleConfigError(
                f"io_threads {config.io_threads} starves compute on node {node_id}"
            )
        threads = config.intra_op_threads
        if threads == 0 or threads >= available:
            threads = available
        if threads >= spec.cores:
            rate = base_rate
        else:
            fraction = threads / spec.cores
            rate = base_rate * fraction * (1.0 + 0.1 * (1.0 - fraction))
        train_time = flops / rate + ITERATION_OVERHEAD_S
        input_time = iteration_input_time(
            spec, workload.dataset, config.io_threads, config.batch_per_worker
        )
        times.append(
            effective_iteration_time(train_time, input_time, config.prefetch_batches)
        )
    return times


def scalar_estimate(
    config: TrainingConfig,
    workload: Workload,
    cluster: ClusterSpec,
    speed_factors: Sequence[float] | None = None,
) -> PerfEstimate:
    """The per-config closed-form model that ``estimate_columns`` replaced.

    ``speed_factors`` has one entry per worker, in placement order
    (default all ones).  Raises :class:`InfeasibleConfigError` for
    unrunnable configurations.
    """
    config = config.canonical()
    check_feasible(config, workload, cluster)
    if speed_factors is None:
        speed_factors = [1.0] * config.num_workers
    if len(speed_factors) != config.num_workers:
        raise ValueError(
            f"need {config.num_workers} speed factors, got {len(speed_factors)}"
        )

    model = workload.model
    grad_bytes = model.param_bytes * config.gradient_bytes_factor
    comp_times = worker_compute_times(config, workload, cluster, speed_factors)
    mean_comp = sum(comp_times) / len(comp_times)
    tail = _straggler_tail_factor(config.num_workers, cluster.jitter_cv)
    max_comp = max(comp_times) * tail

    if config.uses_ps:
        return _estimate_ps(config, workload, cluster, grad_bytes, comp_times, mean_comp, max_comp)
    return _estimate_allreduce(config, cluster, grad_bytes, max_comp)


def _nic_rates(config: TrainingConfig, cluster: ClusterSpec) -> tuple:
    """(worker NIC, PS NIC) bytes/sec, accounting for colocation sharing."""
    node_specs = cluster.node_specs()
    placement = place(
        cluster.total_nodes,
        config.num_ps if config.uses_ps else 0,
        config.num_workers,
        config.colocate_ps if config.uses_ps else False,
    )
    worker_nic = min(node_specs[n].nic_bytes_per_sec for n in placement.worker_nodes)
    if config.uses_ps and placement.ps_nodes:
        ps_nic = min(node_specs[n].nic_bytes_per_sec for n in placement.ps_nodes)
        if config.colocate_ps:
            # PS and worker traffic share the node NIC.  With full-duplex
            # links, a worker's push and the colocated server's gradient
            # ingress use opposite directions, but pulls and parameter
            # egress collide: halve effective capacity.
            worker_nic *= 0.5
            ps_nic *= 0.5
    else:
        ps_nic = float("inf")
    return worker_nic, ps_nic


def _estimate_ps(
    config: TrainingConfig,
    workload: Workload,
    cluster: ClusterSpec,
    grad_bytes: float,
    comp_times: Sequence[float],
    mean_comp: float,
    max_comp: float,
) -> PerfEstimate:
    worker_nic, ps_nic = _nic_rates(config, cluster)
    latency = cluster.latency_s
    shard_bytes = grad_bytes / config.num_ps

    # --- Synchronous (BSP) path -----------------------------------------
    # Push: all workers send simultaneously; each PS ingress carries
    # num_workers shards.  Worker egress carries the whole gradient.
    push_ps_limited = config.num_workers * shard_bytes / ps_nic
    push_worker_limited = grad_bytes / worker_nic
    push_time = max(push_ps_limited, push_worker_limited) + latency
    # Pull is symmetric (parameter egress from servers).
    pull_time = push_time
    comm_sync = (push_time + pull_time) * (1.0 - BSP_OVERLAP)
    barrier = latency * max(1.0, math.log2(max(2, config.num_workers)))
    bsp_iter = max_comp + comm_sync + barrier
    bsp_throughput = config.global_batch / bsp_iter

    if config.sync_mode == "bsp":
        bottleneck = "compute" if max_comp >= comm_sync else (
            "ps-nic" if push_ps_limited >= push_worker_limited else "worker-nic"
        )
        return PerfEstimate(
            iteration_time_s=bsp_iter,
            throughput=bsp_throughput,
            mean_staleness=0.0,
            compute_time_s=max_comp,
            comm_time_s=comm_sync + barrier,
            bottleneck=bottleneck,
        )

    # --- Asynchronous (ASP) path ------------------------------------------
    # Aggregate update rate is the min of three capacities (updates/sec):
    solo_comm = 2.0 * (shard_bytes * config.num_ps / worker_nic + latency)
    compute_rate = sum(1.0 / (t + solo_comm * (1.0 - BSP_OVERLAP)) for t in comp_times)
    worker_nic_rate = sum(1.0 / (2.0 * grad_bytes / worker_nic) for _ in comp_times)
    ps_nic_rate = ps_nic * config.num_ps / grad_bytes  # one direction each way
    asp_rate = min(compute_rate, worker_nic_rate, ps_nic_rate)
    asp_throughput = asp_rate * config.batch_per_worker
    asp_staleness = max(0.0, config.num_workers - 1.0)

    if config.sync_mode == "asp":
        if asp_rate == compute_rate:
            bottleneck = "compute"
        elif asp_rate == ps_nic_rate:
            bottleneck = "ps-nic"
        else:
            bottleneck = "worker-nic"
        return PerfEstimate(
            iteration_time_s=config.num_workers / asp_rate,
            throughput=asp_throughput,
            mean_staleness=asp_staleness,
            compute_time_s=mean_comp,
            comm_time_s=solo_comm,
            bottleneck=bottleneck,
        )

    # --- SSP: interpolate between BSP (bound 0) and ASP (bound → ∞) -------
    bound = config.staleness_bound
    blend = bound / (bound + 2.0)  # 0 → BSP, large → ASP
    ssp_throughput = bsp_throughput + (asp_throughput - bsp_throughput) * blend
    ssp_staleness = min(asp_staleness, float(bound)) * blend if bound > 0 else 0.0
    return PerfEstimate(
        iteration_time_s=config.global_batch / ssp_throughput,
        throughput=ssp_throughput,
        mean_staleness=ssp_staleness,
        compute_time_s=mean_comp,
        comm_time_s=comm_sync,
        bottleneck="mixed",
    )


def _estimate_allreduce(
    config: TrainingConfig,
    cluster: ClusterSpec,
    grad_bytes: float,
    max_comp: float,
) -> PerfEstimate:
    n = config.num_workers
    node_specs = cluster.node_specs()
    placement = place(cluster.total_nodes, 0, n, False)
    ring_nic = min(node_specs[i].nic_bytes_per_sec for i in placement.worker_nodes)
    latency = cluster.latency_s
    if n == 1:
        comm = 0.0
    else:
        steps = 2 * (n - 1)
        comm = steps * (grad_bytes / n / ring_nic + latency)
    comm_effective = comm * (1.0 - BSP_OVERLAP)
    iter_time = max_comp + comm_effective
    return PerfEstimate(
        iteration_time_s=iter_time,
        throughput=config.global_batch / iter_time,
        mean_staleness=0.0,
        compute_time_s=max_comp,
        comm_time_s=comm_effective,
        bottleneck="compute" if max_comp >= comm_effective else "ring",
    )


def scalar_true_objective(
    env: TrainingEnvironment, config: TrainingConfig, at_s: Optional[float] = None
) -> Optional[float]:
    """``env.true_objective`` solved through :func:`scalar_estimate`.

    Gathers the workers' speed factors from the environment's per-node
    factors at ``at_s`` through the config's placement, applies the drift
    intensity, and takes time-to-accuracy from the workload's
    :meth:`~repro.workloads.models.ConvergenceProfile.iterations_to_target`.
    None for infeasible configs.
    """
    config = config.canonical()
    try:
        placement = place(
            env.cluster.total_nodes,
            config.num_ps if config.uses_ps else 0,
            config.num_workers,
            config.colocate_ps if config.uses_ps else False,
        )
    except PlacementError:
        return None
    factors = env._node_speed_factors(at_s).tolist()
    speeds = [factors[n] for n in placement.worker_nodes]
    try:
        perf = scalar_estimate(config, env.workload, env.cluster, speeds)
    except InfeasibleConfigError:
        return None
    throughput = perf.throughput
    if env.drift is not None:
        state = env._drift_state(at_s)
        if state.intensity != 1.0:
            throughput = throughput / state.intensity
    if env.objective_name == "throughput":
        return throughput
    if throughput <= 0:
        return -float("inf")
    iters = env.workload.model.convergence.iterations_to_target(
        config.global_batch, perf.mean_staleness, config.compression_ratio
    )
    return -(STARTUP_OVERHEAD_S + iters * config.global_batch / throughput)


def scalar_optimum(
    env: TrainingEnvironment,
    space: ConfigSpace,
    samples: int = 3000,
    grid_resolution: int = 3,
    refinement_rounds: int = 30,
    seed: int = 0,
) -> Tuple[ConfigDict, float]:
    """The per-config search behind ``estimate_optimum`` (not memoised).

    Scores the coarse grid, then ``samples`` random configs, then
    single-knob refinement rounds, one :func:`scalar_true_objective` call
    per config.
    """
    rng = np.random.default_rng(seed)
    best_config: Optional[ConfigDict] = None
    best_value = -np.inf

    def consider(config: ConfigDict) -> None:
        nonlocal best_config, best_value
        value = scalar_true_objective(env, to_training_config(config))
        if value is not None and value > best_value:
            best_config, best_value = dict(config), value

    for config in space.grid(grid_resolution):
        consider(config)
    for config in space.sample_batch(rng, samples):
        consider(config)
    if best_config is None:
        raise RuntimeError("no feasible configuration found while estimating optimum")

    for _ in range(refinement_rounds):
        improved = False
        for neighbor in space.neighbors(best_config, rng):
            value = scalar_true_objective(env, to_training_config(neighbor))
            if value is not None and value > best_value:
                best_config, best_value = dict(neighbor), value
                improved = True
        if not improved:
            break
    return best_config, best_value
