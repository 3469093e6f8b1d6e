"""P8 — drift recovery: change-point detection + re-tuning vs oblivious BO.

At ``DRIFT_AT_S`` of simulated wall-clock the environment shifts under the
tuner: 40% of the nodes become 5x stragglers and ambient interference
inflates workload intensity.  Under the ``tta`` (time-to-accuracy)
objective this *moves* the optimal configuration — the post-drift
optimum switches architecture and sync mode, it doesn't just sit lower.
Two arms tune the same workload at the same seed:

- *oblivious* — the stock :class:`~repro.core.MLConfigTuner`; its
  surrogate keeps averaging pre- and post-drift observations and its
  early-termination incumbent keeps gating probes against a throughput
  the cluster no longer delivers;
- *adaptive* — the same tuner plus a
  :class:`~repro.core.detect.ChangePointDetector` (Page–Hinkley over
  normalised surrogate residuals) driving a
  :class:`~repro.core.detect.RetuningPolicy` that noise-discounts
  pre-drift history in the surrogate, drops the stale incumbent,
  re-probes the incumbent configuration, and queues fresh exploration
  points.

The two arms are bit-identical until the first alarm (the detector only
observes), so the comparison isolates the detect-and-re-tune loop.

*Recovery time* is how long after the drift each arm takes until its
**recommendation** — the config a deployment would copy, per
:meth:`~repro.core.trial.TrialHistory.recommendation` — clears
``RECOVERY_FRACTION`` of the post-drift optimum on the *true* post-drift
objective (optimum found by direct search over the noise-free surface at
a post-drift clock).  Scoring recommendations is what keeps the
comparison honest: the oblivious arm stumbles across decent post-drift
configs too, but its recommendation stays pinned to the stale pre-drift
record because post-drift measurements are worse on an absolute scale.
Both arms run to the same simulated ``HORIZON_S``; an arm that never
recovers is charged the full post-drift horizon.  ``recovery_speedup``
— the ratio CI gates at >= 2.0 — is oblivious recovery time over
adaptive recovery time.

Everything is simulated time, so the numbers are deterministic per seed —
independent of runner hardware.  Run as a script to (re)generate the
committed baseline::

    PYTHONPATH=src python benchmarks/bench_p8_drift.py --output BENCH_P8.json
    PYTHONPATH=src python benchmarks/bench_p8_drift.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on regressions.
"""

import argparse
import json
import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p8_drift.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np

from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core import MLConfigTuner, TuningBudget, TuningSession
from repro.core.detect import ChangePointDetector, RetuningPolicy
from repro.mlsim import CompositeDrift, StepDrift, StragglerOnset, TrainingEnvironment
from repro.workloads import get_workload

SCHEMA = "bench_p8_drift/v1"
WORKLOAD = "resnet50-imagenet"
OBJECTIVE = "tta"  # time-to-accuracy: straggler onset *moves* its argmax
NODES = 16
HORIZON_S = 10800.0  # same simulated wall-clock for both arms
DRIFT_AT_S = 1800.0
STRAGGLER_FRACTION = 0.4
STRAGGLER_SLOWDOWN = 5.0
INTENSITY = 2.0
RECOVERY_FRACTION = 0.625  # recovered = recommendation within 1.6x of optimal tta
POST_DRIFT_CLOCK_S = DRIFT_AT_S + 1.0  # both drift terms are steps

DETECTOR_KNOBS = dict(delta=0.3, threshold=8.0, warmup=10, cooldown=8, clip=4.0)
POLICY_KNOBS = dict(mode="discount", discount=0.25, refresh_initial=2)


def make_drift():
    return CompositeDrift(
        (
            StragglerOnset(
                at_s=DRIFT_AT_S,
                fraction=STRAGGLER_FRACTION,
                slowdown=STRAGGLER_SLOWDOWN,
            ),
            StepDrift(at_s=DRIFT_AT_S, intensity=INTENSITY),
        )
    )


def make_env(seed):
    return TrainingEnvironment(
        get_workload(WORKLOAD),
        homogeneous(NODES),
        seed=seed,
        objective_name=OBJECTIVE,
        drift=make_drift(),
    )


def recovery_bar(optimum):
    """The objective value that counts as recovered.

    ``tta`` objectives are negative (higher is better), so "within 90% of
    the optimum" means at most ``1/RECOVERY_FRACTION`` times the optimal
    magnitude; positive objectives use the plain fraction.
    """
    if optimum >= 0:
        return RECOVERY_FRACTION * optimum
    return optimum / RECOVERY_FRACTION


_post_optimum = None


def post_drift_optimum():
    """Noise-free post-drift optimum by direct search (drift-aware).

    :func:`~repro.harness.estimate_optimum` memoises by environment
    identity without the drift clock, so the benchmark runs its own
    search: a broad random sweep plus neighbourhood hill-climbing over
    ``true_objective_batch`` evaluated at a post-drift clock, one batch
    per sweep and per hill-climbing round.  The drift schedule is
    seed-independent, so one search serves every arm.
    """
    global _post_optimum
    if _post_optimum is not None:
        return _post_optimum
    env = make_env(seed=0)
    space = ml_config_space(NODES)
    rng = np.random.default_rng(1234)

    def values(configs):
        scores = env.true_objective_batch(
            [to_training_config(config) for config in configs],
            at_s=POST_DRIFT_CLOCK_S,
        )
        return np.where(np.isnan(scores), -np.inf, scores)

    samples = [space.sample(rng) for _ in range(1500)]
    scores = values(samples)
    top = int(np.argmax(scores))  # the first maximum, like a strict > scan
    best_config, best = samples[top], float(scores[top])
    for _ in range(40):
        moves = space.neighbors(best_config, rng)
        if not moves:
            break
        scores = values(moves)
        if scores.max() <= best:
            break
        top = int(np.argmax(scores))
        best_config, best = moves[top], float(scores[top])
    _post_optimum = best
    return best


def recovery_time_s(history, bar):
    """Wall-clock seconds after the drift until the tuner's
    *recommendation* — the config a deployment would copy, per
    :meth:`~repro.core.trial.TrialHistory.recommendation` — clears
    ``bar`` on the post-drift true objective.

    Scoring the recommendation rather than any probed config is what
    makes the comparison honest: a drift-oblivious tuner may stumble
    across good post-drift configs, but its recommendation stays pinned
    to the stale pre-drift record (post-drift measurements are worse on
    an absolute scale, so they never outrank it).  A detector-equipped
    tuner re-bases its recommendation on post-change measurements via
    the recorded :class:`~repro.core.detect.DriftEvent`.

    Never-recovered sessions are charged the full post-drift horizon —
    identical for both arms because both run to ``HORIZON_S``.
    """
    env = make_env(seed=0)
    cutoffs = sorted(
        int(getattr(event, "trial_index")) + 1
        for event in history.events
        if getattr(event, "trial_index", None) is not None
    )
    trials = list(history)
    best = None  # current recommendation (best measured since last cutoff)
    pending = list(cutoffs)
    for trial in trials:
        while pending and trial.index >= pending[0]:
            cutoff = pending.pop(0)
            best = None
            for prior in trials:
                if prior.index >= cutoff and prior.index <= trial.index and prior.ok:
                    if best is None or prior.objective > best.objective:
                        best = prior
        if trial.ok and (best is None or trial.objective > best.objective):
            best = trial
        if trial.cumulative_wall_clock_s <= DRIFT_AT_S or best is None:
            continue
        obj = env.true_objective(
            to_training_config(best.config), at_s=POST_DRIFT_CLOCK_S
        )
        if obj is not None and obj >= bar:
            return trial.cumulative_wall_clock_s - DRIFT_AT_S
    return HORIZON_S - DRIFT_AT_S


def run_arm(seed, adaptive):
    """One serial tuning session under drift; returns (history, events)."""
    env = make_env(seed=seed)
    space = ml_config_space(NODES)
    strategy = MLConfigTuner(seed=seed)
    detector = None
    if adaptive:
        detector = ChangePointDetector(
            policy=RetuningPolicy(**POLICY_KNOBS), **DETECTOR_KNOBS
        )
    session = TuningSession(strategy, detector=detector)
    budget = TuningBudget(max_trials=None, max_wall_clock_s=HORIZON_S)
    session.run(env, space, budget, seed=seed)
    events = [] if detector is None else detector.events
    return session.history, events


def run_pair(seed):
    """Oblivious vs adaptive arm at one seed; returns the result cell."""
    bar = recovery_bar(post_drift_optimum())
    oblivious_history, _ = run_arm(seed, adaptive=False)
    adaptive_history, events = run_arm(seed, adaptive=True)
    oblivious_s = recovery_time_s(oblivious_history, bar)
    adaptive_s = recovery_time_s(adaptive_history, bar)
    return {
        "oblivious_recovery_s": oblivious_s,
        "adaptive_recovery_s": adaptive_s,
        "recovery_speedup": oblivious_s / max(adaptive_s, 1e-9),
        "detections": len(events),
        "first_detection_wall_s": (
            events[0].wall_clock_s if events else None
        ),
        "oblivious_trials": len(oblivious_history),
        "adaptive_trials": len(adaptive_history),
    }


def run_suite(quick=False):
    """Measure each seed pair and return the BENCH_P8 payload.

    Quick cells are byte-identical to the full run's same-seed cells
    (simulated time is deterministic), which is what lets CI gate a quick
    run against the committed full baseline.
    """
    seeds = (0,) if quick else (0, 1, 2)
    optimum = post_drift_optimum()
    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "workload": WORKLOAD,
            "objective": OBJECTIVE,
            "nodes": NODES,
            "horizon_s": HORIZON_S,
            "drift_at_s": DRIFT_AT_S,
            "straggler_fraction": STRAGGLER_FRACTION,
            "straggler_slowdown": STRAGGLER_SLOWDOWN,
            "intensity": INTENSITY,
            "recovery_bar": round(recovery_bar(optimum), 1),
            "post_drift_optimum": round(optimum, 1),
        },
        "drift": {},
    }
    speedups = []
    for seed in seeds:
        cell = run_pair(seed)
        results["drift"][f"seed={seed}"] = cell
        speedups.append(cell["recovery_speedup"])
        print(
            f"seed={seed}: oblivious {cell['oblivious_recovery_s'] / 60:.1f} min  "
            f"adaptive {cell['adaptive_recovery_s'] / 60:.1f} min  "
            f"speedup x{cell['recovery_speedup']:.2f}  "
            f"({cell['detections']} detection(s))"
        )
    results["drift"]["recovery"] = {
        "speedup_mean": float(np.mean(speedups)),
        "speedup_min": float(np.min(speedups)),
    }
    print(
        f"aggregate over {len(seeds)} seed(s): speedup x{np.mean(speedups):.2f} "
        f"(min x{np.min(speedups):.2f})"
    )
    return results


def bench_p8_drift(benchmark):
    """pytest-benchmark entry: time one Page–Hinkley detector update."""
    from repro.core.detect import _PageHinkley

    detector = _PageHinkley(delta=0.3, threshold=8.0)
    values = np.random.default_rng(0).normal(size=256)

    def feed():
        detector.reset()
        for value in values:
            detector.update(float(value))
        return detector

    assert benchmark(feed) is detector


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="seed-0 pair only (CI smoke; cell identical to the full run's)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the results JSON here (default: print only)",
    )
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
