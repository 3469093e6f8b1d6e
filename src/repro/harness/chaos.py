"""Chaos harness: kill tuning sessions mid-run and prove resume is exact.

The checkpoint subsystem (:mod:`repro.core.checkpoint`) promises that a
session killed at *any* trial index and resumed from its checkpoint
produces a final :class:`~repro.core.strategy.TuningResult` bit-identical
to the uninterrupted same-seed run.  This module turns that promise into
a sweepable experiment:

- :class:`KillSwitch` — a session callback that raises :class:`ChaosKill`
  the moment a chosen trial index records (after the checkpoint recorder
  has persisted it — the recorder runs first — so the kill models a crash
  *between* durable writes, the worst surviving case);
- :func:`run_with_kill` / :func:`resume_session` — one crash-and-resume
  cycle against factory-built strategies/executors/environments (factories,
  because a resumed run must rebuild every component from scratch exactly
  as a restarted process would);
- :func:`kill_resume_sweep` — the full matrix: for each kill index, crash
  a fresh session, resume it (through any further kill points — chained
  crashes model a process that keeps dying), and compare fingerprints
  against the baseline run — and the crashed checkpoint's inspected
  history against the baseline's trials;
- :func:`tear_wal` — torn-write injection: chop bytes off the end of the
  write-ahead log to simulate a crash mid-``write(2)``;
- :func:`result_fingerprint` — the canonical JSON identity of a result
  (trials, objectives, cost/wall/shard ledgers, cancelled charges, best
  config, environment description), so "bit-identical" is a string
  equality, not a tolerance.
"""

from __future__ import annotations

import json
import os
from typing import Callable, List, Optional, Sequence

from repro.configspace import ConfigSpace
from repro.core.checkpoint import Checkpoint, CheckpointConfig
from repro.core.session import SessionCallback, TuningSession
from repro.core.strategy import TuningBudget, TuningResult


class ChaosKill(Exception):
    """The simulated crash a :class:`KillSwitch` raises."""


class KillSwitch(SessionCallback):
    """Raise :class:`ChaosKill` right after trial ``kill_at`` records.

    Fires once and disarms, so the same callback list can be reused for
    the resumed run (which replays past the kill point without dying) —
    exactly how a real process's crash condition behaves: the input that
    crashed version N was already persisted, and the restart sails past
    it.
    """

    def __init__(self, kill_at: int) -> None:
        if kill_at < 0:
            raise ValueError("kill_at must be >= 0")
        self.kill_at = kill_at
        self.fired = False

    def on_trial_end(self, trial) -> None:
        if not self.fired and trial.index >= self.kill_at:
            self.fired = True
            raise ChaosKill(f"chaos kill at trial {trial.index}")


def result_fingerprint(result: TuningResult) -> str:
    """Canonical JSON identity of a result — equal strings ⇔ bit-identical.

    Covers every axis the acceptance property names: the full trial
    sequence (configs, measurements, per-trial cost/wall stamps, shard
    placement, launch order), the cost/wall/shard ledgers including
    cancelled charges, the recorded event stream, the best configuration,
    and the environment description (which bakes in the probe counters —
    a resume that desynchronised the noise stream cannot fake these).
    Floats round-trip through ``repr`` via the ``json`` module, so equal
    strings really do mean equal bits.
    """
    best = result.best_trial
    return json.dumps(
        {
            "strategy": result.strategy,
            "history": result.history.to_payload(),
            "events": [repr(event) for event in result.history.events],
            "best_config": None if best is None else dict(best.config),
            "best_objective": result.best_objective,
            "environment": result.environment,
        },
        sort_keys=True,
        default=str,
    )


def run_baseline(
    strategy_factory: Callable[[], object],
    executor_factory: Callable[[], object],
    env_factory: Callable[[], object],
    space: ConfigSpace,
    budget: TuningBudget,
    seed: int = 0,
    callbacks: Sequence[SessionCallback] = (),
) -> TuningResult:
    """The uninterrupted run every chaos cycle is compared against."""
    session = TuningSession(
        strategy_factory(), executor=executor_factory(), callbacks=list(callbacks)
    )
    return session.run(env_factory(), space, budget, seed=seed)


def run_with_kill(
    strategy_factory: Callable[[], object],
    executor_factory: Callable[[], object],
    env_factory: Callable[[], object],
    space: ConfigSpace,
    budget: TuningBudget,
    checkpoint: CheckpointConfig,
    kill_at: int,
    seed: int = 0,
    callbacks: Sequence[SessionCallback] = (),
) -> bool:
    """Start a checkpointed session and crash it at trial ``kill_at``.

    Returns True when the kill fired; False means the session completed
    before reaching the kill index (its checkpoint then holds a finished
    session, which a resume replays to the same result — still a valid
    chaos outcome).
    """
    switch = KillSwitch(kill_at)
    session = TuningSession(
        strategy_factory(),
        executor=executor_factory(),
        callbacks=list(callbacks) + [switch],
    )
    try:
        session.run(env_factory(), space, budget, seed=seed, checkpoint=checkpoint)
    except ChaosKill:
        return True
    return False


def resume_session(
    strategy_factory: Callable[[], object],
    executor_factory: Callable[[], object],
    env_factory: Callable[[], object],
    space: ConfigSpace,
    checkpoint: CheckpointConfig,
    callbacks: Sequence[SessionCallback] = (),
) -> TuningResult:
    """Resume a crashed session from its checkpoint, fresh components only.

    Everything is rebuilt through the factories — a restarted process has
    no surviving strategy instance, executor free-list, or environment;
    all of that state must come back through replay alone.
    """
    session = TuningSession(
        strategy_factory(), executor=executor_factory(), callbacks=list(callbacks)
    )
    return session.resume(checkpoint, env_factory(), space)


def kill_resume_cycle(
    strategy_factory: Callable[[], object],
    executor_factory: Callable[[], object],
    env_factory: Callable[[], object],
    space: ConfigSpace,
    budget: TuningBudget,
    checkpoint: CheckpointConfig,
    kill_points: Sequence[int],
    seed: int = 0,
) -> TuningResult:
    """Crash at the first kill point, then resume through the rest.

    ``kill_points`` beyond the first crash the *resumed* runs (a process
    that keeps dying); each subsequent resume picks up the same
    checkpoint.  Returns the final, completed result.
    """
    kill_points = list(kill_points)
    if not kill_points:
        raise ValueError("need at least one kill point")
    run_with_kill(
        strategy_factory,
        executor_factory,
        env_factory,
        space,
        budget,
        checkpoint,
        kill_points[0],
        seed=seed,
    )
    for kill_at in kill_points[1:]:
        switch = KillSwitch(kill_at)
        session = TuningSession(
            strategy_factory(), executor=executor_factory(), callbacks=[switch]
        )
        try:
            return session.resume(checkpoint, env_factory(), space)
        except ChaosKill:
            continue
    return resume_session(
        strategy_factory, executor_factory, env_factory, space, checkpoint
    )


def kill_resume_sweep(
    strategy_factory: Callable[[], object],
    executor_factory: Callable[[], object],
    env_factory: Callable[[], object],
    space: ConfigSpace,
    budget: TuningBudget,
    checkpoint_dir: str,
    kill_points: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> List[dict]:
    """The chaos matrix: kill at each index, resume, compare to baseline.

    ``kill_points=None`` sweeps *every* trial index of the baseline run.
    Returns one record per kill point:
    ``{"kill_at", "killed", "saved", "prefix", "identical", "trials"}`` —
    ``saved`` counts the trials :meth:`Checkpoint.load` reads back from
    the crashed checkpoint, ``prefix`` is whether they equal the
    baseline's first ``saved`` trials, and ``identical`` is the
    fingerprint equality of the resumed run against the uninterrupted
    baseline.
    """
    baseline = run_baseline(
        strategy_factory, executor_factory, env_factory, space, budget, seed=seed
    )
    expected = result_fingerprint(baseline)
    expected_trials = [json.dumps(trial.to_payload()) for trial in baseline.history]
    if kill_points is None:
        kill_points = range(len(baseline.history))
    records = []
    for kill_at in kill_points:
        checkpoint = CheckpointConfig(
            os.path.join(checkpoint_dir, f"chaos-{seed}-{kill_at}.ckpt")
        )
        killed = run_with_kill(
            strategy_factory,
            executor_factory,
            env_factory,
            space,
            budget,
            checkpoint,
            kill_at,
            seed=seed,
        )
        saved = [
            json.dumps(trial.to_payload())
            for trial in Checkpoint.load(checkpoint.path).history
        ]
        resumed = resume_session(
            strategy_factory, executor_factory, env_factory, space, checkpoint
        )
        records.append(
            {
                "kill_at": int(kill_at),
                "killed": bool(killed),
                "saved": len(saved),
                "prefix": saved == expected_trials[: len(saved)],
                "identical": result_fingerprint(resumed) == expected,
                "trials": len(resumed.history),
            }
        )
    return records


def tear_wal(wal_path: str, drop_bytes: int) -> None:
    """Simulate a torn write: chop ``drop_bytes`` off the end of the WAL.

    A crash mid-``write(2)`` leaves a partial final line; recovery must
    quarantine it and resume from the last durable record.
    """
    if drop_bytes < 0:
        raise ValueError("drop_bytes must be >= 0")
    size = os.path.getsize(wal_path)
    with open(wal_path, "r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))
