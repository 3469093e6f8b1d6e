"""Whole-session tuning benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload bo-analytic --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload service-ckpt --seed 0 --seconds 40 --trace 1
    python3 perfbench/run.py --report .perfbench-out/spans-service-ckpt-seed0.json

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` runs the same work twice at the same seed, untraced and then traced,
checks that both give bit-identical results, prints the per-layer
metrics, and writes the spans to ``.perfbench-out/``.  ``--report`` prints
a spans file's per-layer self-time table and its per-trial timeline.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment (CPU count, BLAS threads, library versions) and
the per-session detail behind the metrics.  The exit code is 0 only when
every correctness check passed.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: BLAS threads per process: one closed loop on a small machine; the GP
#: matrices (at most a few hundred rows) gain nothing from more.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
#: Set-up is repeated this many times per run; setup_s uses the median.
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", metavar="SPANS_JSON")
    args = parser.parse_args(argv)
    if args.report is None and args.workload is None:
        parser.error("--workload is required (or --report)")
    return args


def _import_program():
    """Import the program from this checkout's ``src`` — never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}\n")
        sys.exit(2)


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _percentile_ms(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) * 1000.0


def _end_to_end(run, grader, setup_s: float) -> dict:
    outcomes = run.outcomes
    return {
        "trials_per_s": run.trials / run.live_wall_s,
        "decide_ms_p50": _percentile_ms(run.decisions_s, 50),
        "decide_ms_p90": _percentile_ms(run.decisions_s, 90),
        "best_norm": statistics.median(grader.best_norm(o) or 0.0 for o in outcomes),
        "setup_s": setup_s,
    }


E2E_UNITS = {
    "trials_per_s": "1/s",
    "decide_ms_p50": "ms",
    "decide_ms_p90": "ms",
    "best_norm": "ratio",
    "setup_s": "s",
}


def _failures(run, grader) -> dict:
    """Failed checks by session label ("run" for whole-run checks)."""
    failures = {}
    for outcome in run.outcomes:
        found = grader.check(outcome)
        if found:
            failures[outcome.label] = found
    live = {o.label: o.fingerprint for o in run.outcomes}
    for resumed in run.resumed:
        if resumed.fingerprint != live.get(resumed.label):
            failures.setdefault(resumed.label, []).append(
                "cold resume differs from the live session"
            )
    if run.failures:
        failures.setdefault("run", []).extend(run.failures)
    return failures


def _execute(args) -> int:
    from perfbench.workloads import WORKLOADS, Grader

    import_s = time.perf_counter() - _PROCESS_START
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    workdir = os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        construct_s = []
        for repeat in range(SETUP_REPEATS):
            directory = os.path.join(workdir, f"untraced{repeat}")
            start = time.perf_counter()
            built = workload.construct(inputs, directory)
            construct_s.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(construct_s)

        start = time.perf_counter()
        run = workload.execute(built)
        untraced_wall = time.perf_counter() - start
        grader = Grader(built["space"], workload.nodes)
        failures = _failures(run, grader)

        if args.trace:
            metrics, units = _traced(
                args, workload, inputs, workdir, run, untraced_wall, failures
            )
        else:
            metrics = _end_to_end(run, grader, setup_s)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run is still using it

    attempted = len(inputs.get("seeds", inputs.get("tenants", [])))
    failed = min(attempted, len(failures))
    print(json.dumps({"environment": _environment()}))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "inputs": inputs,
        "decisions": len(run.decisions_s),
        "sessions": [
            {"label": o.label, "workload": o.workload, "trials": len(o.result.history),
             "wall_s": o.wall_s, "best_norm": grader.best_norm(o),
             "probe_cost_h": o.result.history.total_cost_s / 3600.0,
             "sim_wall_h": o.result.history.total_wall_clock_s / 3600.0}
            for o in run.outcomes
        ],
        "resume_s": run.resume_s,
        "setup_construct_s": construct_s,
        "import_s": import_s,
        "failures": failures,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not failures else 1


def _traced(args, workload, inputs, workdir, untraced, untraced_wall, failures):
    """Trace the same work again and check the spans perturbed nothing."""
    from perfbench.layers import PER_LAYER_UNITS, build_probes, per_layer_metrics
    from perfbench.tracer import Tracer, root_time

    built = workload.construct(inputs, os.path.join(workdir, "traced"))
    tracer = Tracer()
    with tracer.installed(build_probes()):
        start = time.perf_counter()
        traced = workload.execute(built)
        traced_wall = time.perf_counter() - start

    def results(run) -> set:
        return {(o.label, o.fingerprint) for o in run.outcomes + run.resumed}

    for label in sorted({label for label, _ in results(untraced) ^ results(traced)}):
        failures.setdefault(label, []).append("traced result differs from untraced")
    if traced.failures:
        failures.setdefault("run", []).extend(traced.failures)

    spans = tracer.spans
    covered = root_time(spans)
    if covered > traced_wall * (1 + 1e-9):
        failures.setdefault("run", []).append(
            f"spans cover {covered!r} s of a {traced_wall!r} s traced run")
    metrics = per_layer_metrics(
        spans,
        traced_wall_s=traced_wall,
        untraced_wall_s=untraced_wall,
        trials_recorded=traced.trials,
        wal_bytes=traced.wal_bytes(),
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({
            "workload": workload.name,
            "seed": args.seed,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "spans": [span.to_dict() for span in spans],
        }, handle)
    print(json.dumps({"spans_file": os.path.relpath(path, ROOT), "spans": len(spans)}))
    return metrics, PER_LAYER_UNITS


def main(argv=None) -> int:
    # Before numpy is first imported, which fixes the BLAS thread count.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    args = _parse(argv)
    _import_program()
    if args.report is not None:
        from perfbench.report import report

        return report(args.report)
    return _execute(args)


if __name__ == "__main__":
    sys.exit(main())
