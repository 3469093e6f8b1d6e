"""P12 — matched quality of the default tuner across seeds.

A speedup that changes search trajectories (for example, fewer
hyperparameter restarts per surrogate refit) is only a win if the tuner
still finds configurations as good as before.  This benchmark runs the
default BO tuner (``mlconfig-bo``, the eipc :class:`MLConfigTuner`)
through :func:`~repro.harness.run_sweep` on two workloads at 16 nodes and
two trial budgets, and reports the per-cell seed spread of the
normalised best objective (best found / estimated noise-free optimum):
median, quartiles and extremes.

Every session is a deterministic function of its seed, so two checkouts
compared over the same seeds differ only by what the code changed.  The
sweep's session memoiser is pointed at a throwaway directory, so every
run is a cold measurement of *this* checkout and never a read of a
cache that another checkout filled.

Full mode runs 20 seeds × {40, 100} trials × 2 workloads; ``--quick``
runs 5 seeds at 100 trials only (the CI gate)::

    PYTHONPATH=src python benchmarks/bench_p12_quality.py --output /tmp/p12.json
    PYTHONPATH=src python benchmarks/bench_p12_quality.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on the quick
medians (``quality/<workload>:trials=100/median``).
"""

import argparse
import json
import os
import sys
import tempfile
import time

# One BLAS thread, set before numpy loads: the GP matrices are small, so a
# thread pool only adds contention (with a second process on a 2-core
# machine, sessions ran ~10x slower), and a session's floating-point
# results then do not depend on the runner's core count.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p12_quality.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

from repro.harness import SweepCell, run_sweep

SCHEMA = "bench_p12_quality/v1"
WORKLOADS = ("resnet50-imagenet", "vgg16-imagenet")
NODES = 16
STRATEGY = "mlconfig-bo"
FULL_TRIALS = (40, 100)
QUICK_TRIALS = (100,)
FULL_SEEDS = 20
QUICK_SEEDS = 5


def _cell_name(workload, trials):
    return f"{workload}:trials={trials}"


def _cold_sweep(cells, seeds):
    """``run_sweep`` against an empty session cache; returns (report, seconds)."""
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            start = time.perf_counter()
            report = run_sweep(cells, seeds=seeds)
            elapsed_s = time.perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    return report, elapsed_s


def run_suite(quick=False, first_seed=0, seeds=None):
    """Run the sweep and return the BENCH_P12 payload."""
    count = seeds if seeds is not None else (QUICK_SEEDS if quick else FULL_SEEDS)
    seed_list = list(range(first_seed, first_seed + count))
    budgets = QUICK_TRIALS if quick else FULL_TRIALS
    cells = [
        SweepCell(
            name=_cell_name(workload, trials),
            workload=workload,
            nodes=NODES,
            strategy=STRATEGY,
            max_trials=trials,
        )
        for workload in WORKLOADS
        for trials in budgets
    ]
    report, elapsed_s = _cold_sweep(cells, seed_list)
    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "workloads": list(WORKLOADS),
            "nodes": NODES,
            "strategy": STRATEGY,
            "trials": list(budgets),
            "seeds": seed_list,
            "elapsed_s": round(elapsed_s, 1),
        },
        "quality": {},
        # Per-seed values, in seed order: a dict of lists, so the report
        # renderer does not treat it as a table section.
        "values": {},
    }
    for name, cell in report["cells"].items():
        stats = cell["stats"]
        results["quality"][name] = {
            key: round(stats[key], 4)
            for key in ("median", "q1", "q3", "iqr", "min", "max", "mean")
        }
        results["values"][name] = [round(v, 4) for v in cell["values"]]
        print(
            f"{name}: median {stats['median']:.3f} "
            f"IQR [{stats['q1']:.3f}, {stats['q3']:.3f}] "
            f"range [{stats['min']:.3f}, {stats['max']:.3f}] "
            f"over {len(seed_list)} seeds"
        )
    print(f"{report['n_sessions']} sessions in {elapsed_s:.1f} s")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_SEEDS} seeds at {QUICK_TRIALS[0]} trials only",
    )
    parser.add_argument(
        "--first-seed", type=int, default=0,
        help="first seed of the contiguous seed range (default 0)",
    )
    parser.add_argument(
        "--seeds", type=int, default=None,
        help=f"number of seeds (default {FULL_SEEDS}, or {QUICK_SEEDS} with --quick)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the results JSON here (default: print only)",
    )
    args = parser.parse_args(argv)
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be >= 1")

    results = run_suite(quick=args.quick, first_seed=args.first_seed, seeds=args.seeds)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
