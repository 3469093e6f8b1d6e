"""P5 — vectorized proposal pipeline + process-parallel harness throughput.

Three axes:

- ``throughput`` — steady-state BO proposal latency (and candidates/sec at
  the tuner's default 512-candidate set) with the vectorized encoded
  end-to-end candidate pipeline vs the scalar per-config baseline
  (``ScalarCandidateProposer`` in ``benchmarks/_reference.py``), at
  history sizes n in {16, 64, 256}.  Both arms share
  every surrogate-level optimisation, so the speedup isolates the
  candidate pipeline itself and is hardware-independent (both sides run on
  the same machine in the same process).
- ``harness`` — one P1-style strategy-comparison sweep
  (``compare_strategies``) with its (strategy × repeat) cells fanned
  across ``n_jobs`` worker processes vs serial.  Cell results are
  identical; the speedup is bounded by ``config.host_cpus``.
- ``cache`` — the disk-memoised experiment tier: one experiment cell
  computed cold (and persisted) vs re-loaded warm from the JSON cache by
  a fresh in-memory state, the cross-process repeat-run case.

Run as a script to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_p5_throughput.py --output BENCH_P5.json
    PYTHONPATH=src python benchmarks/bench_p5_throughput.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON; CI gates on
``throughput/n=64/speedup`` (same-machine ratio, hardware-independent) and
on a live ``harness/p1-sweep/speedup`` floor.  GP hyperfit timing lives in
P3 (``bench_p3_surrogate.py``): the multi-start restarts run in-process.
"""

import argparse
import json
import os
import statistics
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p5_throughput.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np
from _reference import ScalarCandidateProposer

from repro.configspace import ml_config_space
from repro.core import TrialHistory, TuningBudget
from repro.core.bo import BayesianProposer
from repro.mlsim import Measurement, TrainingConfig

SCHEMA = "bench_p5_throughput/v1"
N_CANDIDATES = 512


def _history(space, n, seed=0):
    """A deterministic all-success history of ``n`` probes."""
    rng = np.random.default_rng(seed)
    history = TrialHistory()
    for _ in range(n):
        config = space.sample(rng)
        history.record(
            config,
            Measurement(
                config=TrainingConfig(),
                ok=True,
                fidelity="analytic",
                objective=float(rng.random() * 100.0),
                probe_cost_s=float(30.0 + rng.random() * 90.0),
            ),
        )
    return history


def time_propose(space, n, vectorized, repeats, seed=0):
    """Median steady-state proposal latency (ms) against a static history.

    ``refit_every`` is parked far out so the cells time the candidate
    pipeline + scoring, not hyperparameter refits.
    """
    history = _history(space, n, seed=seed)
    proposer_cls = BayesianProposer if vectorized else ScalarCandidateProposer
    proposer = proposer_cls(
        space,
        acquisition="eipc",
        n_candidates=N_CANDIDATES,
        refit_every=10**9,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    proposer.propose(history, rng)  # warm-up: first model fit
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        proposer.propose(history, rng)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def time_harness(quick, seed=0):
    """One P1-style comparison sweep: serial vs cell-parallel wall-clock."""
    from repro.baselines import (
        CoordinateDescent,
        RandomSearch,
        SimulatedAnnealing,
    )
    from repro.cluster import homogeneous
    from repro.core import MLConfigTuner
    from repro.harness import compare_strategies
    from repro.workloads import get_workload

    strategies = {
        "mlconfig-bo": lambda s: MLConfigTuner(seed=s),
        "random": lambda s: RandomSearch(),
        "annealing": lambda s: SimulatedAnnealing(seed=s),
        "coordinate": lambda s: CoordinateDescent(seed=s),
    }
    if quick:
        strategies = dict(list(strategies.items())[:2])
    repeats = 2 if quick else 3
    # Keep the BO cells past their initial design so every cell does real
    # surrogate work — near-empty cells would time pool overhead, not the
    # harness.
    trials = 12 if quick else 16
    workload = get_workload("resnet50-imagenet")
    cluster = homogeneous(16)
    budget = TuningBudget(max_trials=trials)

    def sweep(n_jobs):
        start = time.perf_counter()
        comparison = compare_strategies(
            strategies,
            workload,
            cluster,
            budget,
            repeats=repeats,
            seed=seed,
            n_jobs=n_jobs,
        )
        return time.perf_counter() - start, comparison

    sweep(1)  # warm the optimum cache so both timed arms share it
    serial_s, serial = sweep(1)
    parallel_s, parallel = sweep(4)
    for name in serial.outcomes:
        if serial.outcomes[name].normalized_best != parallel.outcomes[name].normalized_best:
            raise AssertionError(f"n_jobs=4 diverged from serial on {name!r}")
    return {
        "cells": len(strategies) * repeats,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
    }


def time_cache(quick, seed=0):
    """Disk-memoised experiment tier: cold compute vs warm cross-run load."""
    import tempfile

    import repro.harness.experiments as experiments

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="bench-p5-cache-")
    try:
        kwargs = dict(
            node_counts=(8,), budget_trials=4 if quick else 8, seed=seed
        )
        start = time.perf_counter()
        cold = experiments.exp_f5_scalability(**kwargs)
        cold_s = time.perf_counter() - start
        # A fresh process would start with an empty memory tier; simulate
        # that and let the disk tier answer.
        experiments._memo.clear()
        start = time.perf_counter()
        warm = experiments.exp_f5_scalability(**kwargs)
        warm_s = time.perf_counter() - start
        if [list(map(str, row)) for row in warm.rows] != [
            list(map(str, row)) for row in cold.rows
        ]:
            raise AssertionError("disk-cached cell diverged from fresh compute")
        experiments.clear_experiment_cache()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
    }


def run_suite(quick=False, seed=0):
    """Measure every axis and return the BENCH_P5 payload."""
    nodes = 16
    space = ml_config_space(nodes)
    history_sizes = (16, 64) if quick else (16, 64, 256)
    propose_repeats = 9 if quick else 31

    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "nodes": nodes,
            "dims": space.dims,
            "acquisition": "eipc",
            "n_candidates": N_CANDIDATES,
            "propose_repeats": propose_repeats,
            "host_cpus": os.cpu_count(),
        },
        "throughput": {},
        "harness": {},
        "cache": {},
    }

    for n in history_sizes:
        cell = {
            "scalar_ms": time_propose(space, n, False, propose_repeats, seed),
            "vectorized_ms": time_propose(space, n, True, propose_repeats, seed),
        }
        cell["speedup"] = cell["scalar_ms"] / cell["vectorized_ms"]
        cell["scalar_cps"] = N_CANDIDATES / cell["scalar_ms"] * 1e3
        cell["vectorized_cps"] = N_CANDIDATES / cell["vectorized_ms"] * 1e3
        results["throughput"][f"n={n}"] = cell
        print(
            f"throughput n={n:>3}: scalar {cell['scalar_ms']:7.1f} ms  "
            f"vectorized {cell['vectorized_ms']:6.1f} ms  "
            f"speedup {cell['speedup']:5.2f}x  "
            f"({cell['vectorized_cps']:,.0f} cand/s)"
        )

    results["harness"]["p1-sweep"] = time_harness(quick, seed)
    cell = results["harness"]["p1-sweep"]
    print(
        f"harness: {cell['cells']} cells  serial {cell['serial_s']:.1f} s  "
        f"n_jobs=4 {cell['parallel_s']:.1f} s  speedup {cell['speedup']:.2f}x"
    )

    results["cache"]["f5-cell"] = time_cache(quick, seed)
    cell = results["cache"]["f5-cell"]
    print(
        f"cache: cold {cell['cold_s']:.2f} s  warm {cell['warm_s']:.4f} s  "
        f"speedup {cell['speedup']:.0f}x"
    )
    return results


def bench_p5_throughput(benchmark):
    """pytest-benchmark entry: one vectorized proposal at n=64."""
    space = ml_config_space(16)
    history = _history(space, 64)
    proposer = BayesianProposer(
        space, acquisition="eipc", n_candidates=N_CANDIDATES, refit_every=10**9
    )
    rng = np.random.default_rng(1)
    proposer.propose(history, rng)  # warm the surrogate cache

    config = benchmark(lambda: proposer.propose(history, rng))
    assert space.is_valid(config)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller axes and fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the results JSON here (default: print only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick, seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
