"""Tuning sessions: the propose→probe loop with pluggable trial execution.

A :class:`TuningSession` owns the budget, history, and RNG of one tuning
run and delegates *how probes execute* to an :class:`Executor` — one
event-driven engine in which each worker slot moves free → in flight →
recorded.  Three presets fix its constructor arguments:

- :class:`SerialExecutor` — one worker: exactly the seed's serial loop
  (histories are trial-for-trial identical at the same seed);
- :class:`AsyncExecutor` — K workers with no round barrier: each freed
  worker pulls a fresh proposal, conditioned on the configurations still
  in flight (:meth:`SearchStrategy.propose_async`), so heterogeneous probe
  durations never idle K-1 workers behind a straggler;
- :class:`ParallelExecutor` — K workers behind a synchronous round
  barrier, the cluster setting the paper targets: each round is one
  :meth:`SearchStrategy.propose_batch` call (the BO tuner uses
  constant-liar fantasisation, see :mod:`repro.core.parallel`), billed
  machine cost for every member but wall-clock only for the slowest.

Any preset can fan the session across an
:class:`~repro.core.fleet.EnvironmentPool` of named environment shards:
worker slots become shard slots placed by the pool's
:class:`~repro.core.fleet.ShardScheduler`, every trial records its shard
(itemised by :meth:`~repro.core.trial.TrialHistory.cost_by_shard`), and
launches hand strategies the target shard's descriptor.  ``pool=None``
keeps single-environment semantics bit-identical to the pre-fleet code.

Sessions also emit lifecycle events to :class:`SessionCallback` observers;
:class:`ProgressLogger` (per-round progress lines) and
:class:`JsonlTrialLog` (a JSONL sink for offline analysis) ship here.

Example
-------
>>> from repro.core import MLConfigTuner, TuningBudget
>>> from repro.core.session import AsyncExecutor, TuningSession
>>> session = TuningSession(MLConfigTuner(), executor=AsyncExecutor(4))
>>> # result = session.run(env, space, TuningBudget(max_trials=40))
"""

from __future__ import annotations

import json
import math
import os
import sys
from heapq import heappop, heappush
from typing import IO, List, NamedTuple, Optional, Sequence, TextIO, Union

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.checkpoint import (
    CheckpointConfig,
    CheckpointError,
    CheckpointJournal,
    JournalledStrategy,
    executor_fingerprint,
    session_meta,
    space_fingerprint,
)
from repro.core.fleet import EnvironmentPool, EnvironmentShard
from repro.core.strategy import SearchStrategy, TuningBudget, TuningResult
from repro.core.trial import Trial, TrialHistory
from repro.mlsim import Measurement, TrainingEnvironment

#: Attempts a preempted probe gets (original launch + relaunches) before
#: the engine abandons it as a failed trial.
MAX_PROBE_ATTEMPTS = 3


def _set_env_clock(env, t: float) -> None:
    """Stamp an environment's virtual clock, if it has one.

    Drift schedules are evaluated at ``TrainingEnvironment.clock_s``; the
    stamp is a plain attribute write, inert without a drift schedule, so
    stamping unconditionally preserves bit-identical static trajectories.
    """
    set_clock = getattr(env, "set_clock", None)
    if set_clock is not None:
        set_clock(t)


def _shard_name(shard: Optional[EnvironmentShard]) -> Optional[str]:
    return None if shard is None else shard.name


class SessionCallback:
    """Observer of session lifecycle events.  Every hook is an optional no-op.

    Hooks fire in a fixed order: ``on_session_start``, then per round
    ``on_trial_start`` for every launched probe, ``on_trial_end`` for every
    recorded trial, ``on_round_end`` once, and finally ``on_session_end``.

    A round is one event step of the :class:`Executor`: one completion
    under the serial and asynchronous presets, one barrier round under
    :class:`ParallelExecutor`.  Without a barrier ``on_trial_start`` fires
    at *launch* (its ``index`` is the launch ordinal) while
    ``on_trial_end`` fires at *completion* (the recorded
    :attr:`Trial.index` is the completion ordinal), so a cheap probe
    launched late can end before an expensive probe launched early, and a
    probe still in flight when the session stops gets a start event with
    no matching end (it was cancelled at the budget boundary).  Pair a
    start event with its end event through :attr:`Trial.launch_index`,
    never by ``Trial.index``.
    """

    def on_session_start(
        self,
        strategy: SearchStrategy,
        env: TrainingEnvironment,
        space: ConfigSpace,
        budget: TuningBudget,
    ) -> None:
        """The session is about to run its first round."""

    def on_trial_start(self, index: int, config: ConfigDict) -> None:
        """A probe of ``config`` is being launched as trial ``index``."""

    def on_trial_end(self, trial: Trial) -> None:
        """A probe finished and was recorded in the history."""

    def on_round_end(
        self, round_index: int, trials: Sequence[Trial], history: TrialHistory
    ) -> None:
        """A round (all its probes) completed."""

    def on_session_end(self, result: TuningResult) -> None:
        """The session finished (budget exhausted or strategy done)."""


class _Events:
    """Fans one lifecycle event out to every registered callback."""

    def __init__(self, callbacks: Sequence[SessionCallback]) -> None:
        self._callbacks = list(callbacks)

    def session_start(self, strategy, env, space, budget) -> None:
        for callback in self._callbacks:
            callback.on_session_start(strategy, env, space, budget)

    def trial_start(self, index: int, config: ConfigDict) -> None:
        for callback in self._callbacks:
            callback.on_trial_start(index, config)

    def trial_end(self, trial: Trial) -> None:
        for callback in self._callbacks:
            callback.on_trial_end(trial)

    def round_end(self, round_index, trials, history) -> None:
        for callback in self._callbacks:
            callback.on_round_end(round_index, trials, history)

    def session_end(self, result: TuningResult) -> None:
        for callback in self._callbacks:
            callback.on_session_end(result)


class ProgressLogger(SessionCallback):
    """Log one line per round: trials, best objective, machine cost, wall-clock."""

    def __init__(self, stream: Optional[TextIO] = None, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.stream = stream
        self.every = every
        self._name = "session"

    def on_session_start(self, strategy, env, space, budget) -> None:
        self._name = strategy.name

    def on_round_end(self, round_index, trials, history) -> None:
        if (round_index + 1) % self.every:
            return
        best = history.best_objective()
        best_text = f"{best:.2f}" if best is not None else "-"
        print(
            f"[{self._name}] round {round_index + 1}: trials={len(history)} "
            f"best={best_text} cost={history.total_cost_s:.0f}s "
            f"wall={history.total_wall_clock_s:.0f}s",
            file=self.stream or sys.stderr,
        )


class JsonlTrialLog(SessionCallback):
    """Write the session as JSON lines: session markers plus one trial per line.

    The file is truncated at session start, so one sink instance logs one
    session at a time (reuse across sequential sessions overwrites).

    ``durable=True`` additionally ``os.fsync``'s the file after every
    record, so a process crash cannot silently lose the buffered tail of
    the log — the offline record then always ends at a trial the session
    actually completed.
    """

    def __init__(self, path: str, durable: bool = False) -> None:
        self.path = path
        self.durable = durable
        self._handle: Optional[IO[str]] = None

    def _write(self, payload: dict) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w")
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    def on_session_start(self, strategy, env, space, budget) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._write(
            {
                "event": "session_start",
                "strategy": strategy.name,
                "environment": env.describe(),
                "budget_trials": budget.max_trials,
                "budget_cost_s": budget.max_cost_s,
                "budget_wall_clock_s": budget.max_wall_clock_s,
            }
        )

    def on_trial_end(self, trial: Trial) -> None:
        if self._handle is None:
            # Same guard as on_session_end: a trial event with no session
            # open would lazily reopen the file in "w" mode and truncate a
            # previously completed session's log.
            return
        self._write(
            {
                "event": "trial",
                "index": trial.index,
                "launch": trial.launch_index,
                "round": trial.round_index,
                "shard": trial.shard,
                "config": trial.config,
                "ok": trial.ok,
                "objective": None if trial.objective is None else float(trial.objective),
                "probe_cost_s": float(trial.measurement.probe_cost_s),
                "cumulative_cost_s": float(trial.cumulative_cost_s),
                "cumulative_wall_clock_s": float(trial.cumulative_wall_clock_s),
            }
        )

    def on_session_end(self, result: TuningResult) -> None:
        if self._handle is None:
            # No session is open: the callback was attached to a session
            # that aborted before on_session_start, or session_end fired
            # twice.  Writing would lazily reopen the file in "w" mode and
            # truncate the log to a lone session_end record.
            return
        best = result.best_objective
        payload = {
            "event": "session_end",
            "num_trials": result.num_trials,
            "best_objective": None if best is None else float(best),
            "total_cost_s": float(result.total_cost_s),
            "total_wall_clock_s": float(result.history.total_wall_clock_s),
        }
        if result.history.cancelled_cost_s > 0:
            payload["cancelled_cost_s"] = float(result.history.cancelled_cost_s)
        cost_by_shard = result.history.cost_by_shard()
        if any(shard is not None for shard in cost_by_shard):
            # Fleet sessions: itemise the machine bill per shard so the log
            # alone reconstructs where the probe seconds went.  Non-pool
            # cost (the None key) is labelled "unsharded".
            payload["cost_by_shard"] = {
                (shard if shard is not None else "unsharded"): float(cost)
                for shard, cost in sorted(
                    cost_by_shard.items(), key=lambda item: item[0] or ""
                )
            }
        self._write(payload)
        self._handle.close()
        self._handle = None


class _Flight(NamedTuple):
    """One launched probe; the in-flight heap pops flights by completion."""

    completion_s: float
    launch: int
    config: ConfigDict
    measurement: Measurement
    start_s: float  # the final attempt's start (after any preemption)
    shard: Optional[EnvironmentShard]
    holds_slot: bool  # False once a re-placed probe is abandoned
    preempted: tuple  # (start, preemption) of each attempt cut short


class Executor:
    """The probe engine: an event-driven free-list of worker slots.

    Each slot moves free → in flight → recorded.  A :meth:`run_round` call
    is one *event step*: every free slot the budget and the strategy allow
    is filled, then the earliest in-flight probe completes, is recorded
    and observed, and its slot rejoins the free list at that completion
    time.  Machine cost accrues for every probe second; the session
    wall-clock advances to each completion in order, so its final value
    is the makespan of the greedy schedule.  The three public names are
    presets of this one engine:

    - :class:`SerialExecutor` — ``workers=1``: the seed's serial loop;
    - :class:`AsyncExecutor` — K workers, no round barrier;
    - :class:`ParallelExecutor` — K workers behind a synchronous round
      barrier (:attr:`barrier`).

    Two behaviours follow from the slot count, not from options: with one
    worker nothing else can be in flight, so launches use the plain
    :meth:`~repro.core.strategy.SearchStrategy.propose` and an outage
    preemption re-places the probe through the scheduler; with K workers
    launches go through ``propose_async`` (conditioned on the in-flight
    configurations) and a preempted probe retries on its own shard.

    With ``pool=`` probes dispatch through an
    :class:`~repro.core.fleet.EnvironmentPool` instead of the environment
    passed to :meth:`run_round` (which may then be ``None``): slots are
    the pool's *shard* slots, the scheduler picks the shard of each
    launch, and the recorded trial carries the shard name.  ``workers``
    then defaults to the pool's total capacity and may not exceed it.

    Launch gating near the budget: no probe launches beyond
    ``max_trials``, once committed machine cost (recorded plus in flight)
    reaches ``max_cost_s``, or with a start time at or past
    ``max_wall_clock_s``.  When the *strategy* finishes, in-flight probes
    drain to completion; only *budget* exhaustion cancels them
    (:meth:`cancel_pending`).
    """

    #: Round-synchronous policy (the :class:`ParallelExecutor` preset):
    #: each step launches a whole round through ``propose_batch`` and
    #: bills its wall-clock at the slowest member.
    barrier: bool = False

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: Optional[EnvironmentPool] = None,
    ) -> None:
        if pool is not None:
            if workers is None:
                workers = pool.total_capacity
            elif workers > pool.total_capacity:
                raise ValueError(
                    f"workers ({workers}) exceed the pool's total "
                    f"capacity ({pool.total_capacity})"
                )
        elif workers is None:
            raise ValueError("workers is required without a pool")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.pool = pool
        self.reset()

    def reset(self, seed: int = 0) -> None:
        """Clear per-session state (called at the start of every run).

        A reused instance leaks no in-flight probes or slot timelines, and
        an attached pool re-derives its per-shard RNG streams from the
        session seed and rewinds occupancy and environment counters.
        """
        # Free slots as (freed-up time, shard) pairs — shard is None
        # without a pool — the in-flight heap, and the launch counter the
        # budget gate checks.
        if self.pool is None:
            self._slots: List[tuple] = [(0.0, None)] * self.workers
        else:
            self.pool.reset(seed)
            self._slots = [
                (0.0, shard)
                for shard in self.pool.shards
                for _ in range(shard.capacity)
            ]
        self._in_flight: List[_Flight] = []
        self._launched = 0

    def has_pending(self) -> bool:
        """True while launched-but-unrecorded probes are in flight.

        The session keeps calling :meth:`run_round` to drain them after
        the strategy finishes (their measurements exist and their machine
        time was spent); only budget exhaustion cancels them outright.
        """
        return bool(self._in_flight)

    def cancel_pending(self, history: TrialHistory) -> None:
        """Cancel the in-flight probes when a budget stops the session.

        The stop instant is the session clock at which the budget fired.
        Each probe is billed through :meth:`_cancel` and its slot is freed,
        so a drained engine reports no pending work.
        """
        stop_s = history.total_wall_clock_s
        for flight in self._in_flight:
            self._cancel(
                history,
                flight.shard,
                flight.start_s,
                stop_s,
                max(0.0, flight.measurement.probe_cost_s),
                flight.preempted,
            )
            if flight.holds_slot:
                self._give_back(stop_s, flight.shard)
        self._in_flight = []

    @staticmethod
    def _cancel(history, shard, start_s, stop_s, duration_s, preempted=()) -> None:
        """Bill one cancelled probe exactly the slot time it burned.

        Its final attempt is billed the wall-clock from its launch to the
        stop, clamped at zero (a probe relaunched after the stop burned
        nothing more) and at its own duration.  Earlier attempts were
        billed when their preemption was simulated; whatever part of
        them lies past the stop never ran and is refunded.  A cancelled
        probe produced no trial, but its elapsed seconds were still spent
        on the cluster (:meth:`TrialHistory.charge_cancelled`).
        """
        name = _shard_name(shard)
        history.charge_cancelled(
            min(max(0.0, stop_s - start_s), duration_s), shard=name
        )
        unburned = sum(
            max(0.0, end_s - max(stop_s, begin_s)) for begin_s, end_s in preempted
        )
        if unburned > 0:
            history.refund_cancelled(unburned, shard=name)

    # -- slots ---------------------------------------------------------------

    def _next_free_slot(self) -> Optional[int]:
        """Index of the slot to fill next, or None when nothing may launch.

        The scheduler picks the shard when a pool is attached, then that
        shard's earliest-freed slot: placement policy decides *where*, the
        free list decides *when*.
        """
        if len(self._in_flight) >= self.workers:
            return None
        shard = None
        if self.pool is not None:
            shard = self.pool.scheduler.select(self.pool)
            if shard is None:
                return None
        candidates = [i for i, slot in enumerate(self._slots) if slot[1] is shard]
        return min(candidates, key=lambda i: self._slots[i][0], default=None)

    def _take(self, index: int) -> tuple:
        """Occupy a free slot — the commit point of a launch."""
        shard = self._slots[index][1]
        if shard is not None:
            self.pool.acquire(shard.name)
        return self._slots.pop(index)

    def _give_back(self, free_s: float, shard: Optional[EnvironmentShard]) -> None:
        """Return a slot to the free list, freed up at ``free_s``."""
        self._slots.append((free_s, shard))
        if shard is not None:
            self.pool.release(shard.name)

    def _recovery_after(self, t: float) -> Optional[float]:
        """The earliest shard recovery later than ``t`` (None: nothing down)."""
        up = None if self.pool is None else self.pool.next_up_s()
        return up if up is not None and up > t else None

    def _wait_for_recovery(self, history: TrialHistory) -> bool:
        """With the fleet down, wait out its earliest recovery.

        Dead wall-clock, no machine cost.  False when nothing recovers
        later than now (no pool, or no shard down).
        """
        now = history.total_wall_clock_s
        up = self._recovery_after(now)
        if up is None:
            return False
        history.advance_wall_clock(up - now)
        self.pool.set_clock(history.total_wall_clock_s)
        return True

    # -- probes --------------------------------------------------------------

    def _measure(self, strategy, env, shard, config, t: float) -> Measurement:
        """One probe attempt at virtual time ``t``.

        Runs on ``shard`` (or the session environment without a pool)
        after stamping its clock.  An open failure-rate spike from the
        pool's injector applies as a transient ``extra_failure_rate`` for
        just this probe.
        """
        if shard is None:
            _set_env_clock(env, t)
            return strategy.measure(env, config)
        _set_env_clock(shard.env, t)
        injector = self.pool.injector
        boost = 0.0 if injector is None else injector.failure_boost(shard.name, t)
        if boost > 0 and hasattr(shard.env, "extra_failure_rate"):
            shard.env.extra_failure_rate = boost
            try:
                return shard.measure(strategy, config)
            finally:
                shard.env.extra_failure_rate = 0.0
        return shard.measure(strategy, config)

    def _probe(self, strategy, env, shard, config, start_s, launch, history):
        """Run one launched probe to completion, across outage preemptions.

        The probe owns the slot it launched on: the returned flight holds
        it, and a raising probe gives it back.  Each attempt an outage
        cuts short bills its burned wall-clock
        (:meth:`TrialHistory.charge_cancelled`).  With one worker the
        probe is then re-placed through the scheduler at the preemption
        instant (on any healthy shard, or after the fleet's earliest
        recovery); with more it retries on its own shard once that
        recovers.  After :data:`MAX_PROBE_ATTEMPTS` attempts, or with no
        shard left to run on, it is abandoned as a failed zero-cost
        measurement.
        """
        injector = None if shard is None else self.pool.injector
        t = float(start_s)
        completion_s = None
        holds_slot = True
        preempted = []
        try:
            for _ in range(MAX_PROBE_ATTEMPTS):
                if not holds_slot:
                    self._take(index)
                    holds_slot = True
                measurement = self._measure(strategy, env, shard, config, t)
                end_s = t + max(0.0, measurement.probe_cost_s)
                preempt_s = (
                    None
                    if injector is None
                    else injector.preemption_at(shard.name, t, end_s)
                )
                if preempt_s is None:
                    completion_s = end_s
                    break
                history.charge_cancelled(max(0.0, preempt_s - t), shard=shard.name)
                preempted.append((t, preempt_s))
                if self.workers > 1:
                    t = injector.up_after(shard.name, preempt_s)
                    continue
                self._give_back(preempt_s, shard)
                holds_slot = False
                t = preempt_s
                self.pool.set_clock(t)
                index = self._next_free_slot()
                up = None if index is not None else self._recovery_after(t)
                if up is not None:
                    t = up
                    self.pool.set_clock(t)
                    index = self._next_free_slot()
                if index is None:
                    break
                shard = self._slots[index][1]
        except BaseException:
            if holds_slot:
                self._give_back(t, shard)
            raise
        if completion_s is None:
            completion_s = t
            measurement = Measurement(
                config=measurement.config,
                ok=False,
                fidelity=measurement.fidelity,
                error="probe preempted by repeated shard outages",
                # Every preempted attempt was billed via charge_cancelled.
                probe_cost_s=0.0,
            )
        return _Flight(
            completion_s, launch, config, measurement, t, shard, holds_slot,
            tuple(preempted),
        )

    # -- event steps ---------------------------------------------------------

    def _may_launch(self, start_s, strategy, history, space, budget) -> bool:
        if strategy.finished(history, space):
            return False
        if budget.max_trials is not None and self._launched >= budget.max_trials:
            return False
        if budget.max_wall_clock_s is not None and start_s >= budget.max_wall_clock_s:
            return False
        if budget.max_cost_s is not None:
            committed = history.total_cost_s + sum(
                flight.measurement.probe_cost_s for flight in self._in_flight
            )
            if committed >= budget.max_cost_s:
                return False
        return True

    def _fill(self, strategy, env, space, history, rng, budget, events) -> None:
        """Launch into every free slot the budget and the strategy allow."""
        while True:
            index = self._next_free_slot()
            if index is None:
                return
            free_s, shard = self._slots[index]
            # A slot can sit idle past its free-time while launches are
            # gated — a stopping rule may un-finish when a draining probe
            # records a success (e.g. FailureStreakRule).  It relaunches
            # at the current session clock, never in the past, keeping
            # completion stamps monotone.
            start_s = max(free_s, history.total_wall_clock_s)
            if not self._may_launch(start_s, strategy, history, space, budget):
                return
            if self.workers == 1:
                config = strategy.propose(history, space, rng)
            else:
                launched = sorted(self._in_flight, key=lambda flight: flight.launch)
                config = strategy.propose_async(
                    history,
                    [flight.config for flight in launched],
                    space,
                    rng,
                    shard=None if shard is None else shard.descriptor,
                )
            if config is None:
                # The strategy declines to launch until in-flight results
                # land (e.g. a rung boundary); the slot stays free.
                return
            events.trial_start(self._launched, config)
            self._take(index)
            heappush(
                self._in_flight,
                self._probe(
                    strategy, env, shard, config, start_s, self._launched, history
                ),
            )
            self._launched += 1

    def run_round(
        self,
        strategy: SearchStrategy,
        env: TrainingEnvironment,
        space: ConfigSpace,
        history: TrialHistory,
        rng: np.random.Generator,
        budget: TuningBudget,
        events: _Events,
    ) -> List[Trial]:
        """Run one event step (a whole round under the barrier policy).

        Returns the recorded trials; an empty list means the engine has
        nothing more to do (budget gate, strategy decline, saturation).
        """
        if self.pool is not None:
            self.pool.set_clock(history.total_wall_clock_s)
        if self.barrier:
            return self._barrier_round(
                strategy, env, space, history, rng, budget, events
            )
        self._fill(strategy, env, space, history, rng, budget, events)
        while not self._in_flight:
            # Nothing launched and nothing in flight: if the fleet is down,
            # wait out its earliest recovery and refill; otherwise the
            # session is genuinely done.
            if not self._slots or not self._wait_for_recovery(history):
                return []
            self._fill(strategy, env, space, history, rng, budget, events)
        flight = heappop(self._in_flight)
        if flight.holds_slot:
            self._give_back(flight.completion_s, flight.shard)
        # Flights complete in order, so the session clock only advances;
        # each trial's stamp is its physical completion time — with one
        # worker, exactly the session clock the record advances to.
        trial = history.record(
            flight.config,
            flight.measurement,
            wall_clock_s=max(0.0, flight.completion_s - history.total_wall_clock_s),
            completed_at_wall_s=None if self.workers == 1 else flight.completion_s,
            launch_index=flight.launch,
            shard=_shard_name(flight.shard),
        )
        strategy.observe(trial)
        events.trial_end(trial)
        return [trial]

    def _barrier_round(self, strategy, env, space, history, rng, budget, events):
        """One synchronous round of up to ``workers`` probes.

        Slots are assigned up front — every member launches at the round
        start — *before* the one ``propose_batch`` call, so cost-aware
        strategies condition each member on the shard it will occupy.
        Members are then measured, recorded, and observed one by one in
        launch order, so gates like the BO tuner's early termination see
        round-mates' results (on a real cluster the short probes driving
        the gate finish long before the barrier).  Only the wall-clock
        treats the round as concurrent: the session total advances by the
        running round maximum, while each trial is stamped with its own
        completion time, round start plus its own duration.
        """
        if self.pool is not None and self.pool.free_capacity() == 0:
            self._wait_for_recovery(history)
        k = self.workers
        if self.pool is not None:
            # Downed shards and a shrunken service lease narrow the round
            # (a zero-width lease skips it) instead of tripping the
            # saturation error below.
            k = min(k, self.pool.free_capacity())
        if budget.max_trials is not None:
            k = min(k, budget.max_trials - len(history))
        if k < 1:
            return []
        round_index = history.num_rounds
        start_s = history.total_wall_clock_s
        injector = None if self.pool is None else self.pool.injector
        held: List[Optional[EnvironmentShard]] = []
        trials: List[Trial] = []
        try:
            for _ in range(k):
                index = self._next_free_slot()
                if index is None:
                    raise RuntimeError(
                        "pool saturated mid-assignment: scheduler returned "
                        "no shard for a round within the pool's total capacity"
                    )
                held.append(self._take(index)[1])
            descriptors = (
                None if self.pool is None else [shard.descriptor for shard in held]
            )
            batch = strategy.propose_batch(history, space, rng, k, shards=descriptors)
            # A short batch (grid exhaustion, rung boundary) hands its
            # unused slots back rather than holding them across the round.
            while len(held) > len(batch):
                self._give_back(start_s, held.pop())
            for offset, config in enumerate(batch):
                events.trial_start(len(history) + offset, config)
            round_wall_s = 0.0
            for config in batch:
                flight = self._probe(
                    strategy, env, held.pop(0), config, start_s, len(history), history
                )
                if flight.holds_slot:
                    self._give_back(flight.completion_s, flight.shard)
                duration = (
                    flight.measurement.probe_cost_s
                    if injector is None
                    else max(0.0, flight.completion_s - start_s)
                )
                new_wall_s = max(round_wall_s, duration)
                trial = history.record(
                    config,
                    flight.measurement,
                    wall_clock_s=new_wall_s - round_wall_s,
                    round_index=round_index,
                    completed_at_wall_s=start_s + duration,
                    shard=_shard_name(flight.shard),
                )
                round_wall_s = new_wall_s
                strategy.observe(trial)
                events.trial_end(trial)
                trials.append(trial)
                # A cost-bounded budget stops mid-round: the unprobed
                # members are cancelled, capping overshoot at one recorded
                # probe as in serial.  Each held its slot from the round
                # start until the cancellation went out — the round's
                # latest completion so far — so, in round-relative time,
                # it is billed from 0 to the running maximum (it was never
                # measured, so its own duration is no cap).  A wall-clock
                # cap deliberately does NOT cancel mid-round: members
                # record in batch order, not completion order, so the
                # running total would drop probes that physically finished
                # before the cap; it stops the session at the round
                # boundary instead.
                if (
                    budget.max_cost_s is not None
                    and history.total_cost_s >= budget.max_cost_s
                ):
                    for shard in held:
                        self._cancel(history, shard, 0.0, round_wall_s, math.inf)
                    break
        finally:
            for shard in held:
                self._give_back(start_s, shard)
        return trials


class SerialExecutor(Executor):
    """Preset: one worker — the seed's serial loop.

    Histories are trial-for-trial identical to the pre-session loop at
    the same seed.  With a pool, each probe goes to the shard the
    scheduler picks; a homogeneous pool over one shared environment
    reproduces the single-environment trial sequence bit-identically,
    whatever the shard rotation.
    """

    def __init__(self, pool: Optional[EnvironmentPool] = None) -> None:
        super().__init__(1, pool)


class ParallelExecutor(Executor):
    """Preset: K-way round-synchronous probing (the :attr:`barrier` policy).

    Each round asks the strategy for up to ``workers`` configurations
    through ``propose_batch`` (the BO tuner uses constant-liar
    fantasisation, see :mod:`repro.core.parallel`) and records all of
    them under one round index.  Machine cost accrues for every probe;
    wall-clock accrues once per round, at the slowest member.  The round
    is truncated near the trial budget so a session never overshoots
    ``max_trials``.  With a pool, ``workers`` defaults to the pool's
    total capacity.
    """

    barrier = True


class AsyncExecutor(Executor):
    """Preset: K barrier-free workers.

    Each freed worker pulls a fresh proposal the moment its probe
    completes, so heterogeneous probe durations no longer idle K-1
    workers behind a round's straggler.  Trials record in *completion*
    order: :attr:`Trial.index` is the completion ordinal, ``on_trial_start``
    carries the launch ordinal, and ``num_rounds`` equals the number of
    completions.  With a pool the workers *are* the pool's shard slots.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: Optional[EnvironmentPool] = None,
    ) -> None:
        if pool is not None and workers is not None:
            # Which shards would lose slots?  Reject the ambiguous count
            # rather than silently ignoring the requested concurrency.
            raise ValueError(
                "workers is determined by the pool's total capacity; "
                "size the pool's shard capacities instead"
            )
        super().__init__(workers, pool)


EXECUTOR_MODES = ("sync", "async")


def executor_for(
    workers: int,
    mode: str = "sync",
    pool: Optional[EnvironmentPool] = None,
) -> Executor:
    """The executor for a worker count, execution mode, and optional pool.

    ``workers=1`` deliberately maps to :class:`SerialExecutor` in *both*
    modes: with one worker there is no barrier to remove, and the serial
    path goes through :meth:`propose` and is guaranteed seed-identical to
    the pre-session loop, while the multi-worker paths route through
    ``propose_batch`` / ``propose_async``.  With K > 1, ``"sync"`` builds
    the round-barrier :class:`ParallelExecutor` and ``"async"`` the
    barrier-free :class:`AsyncExecutor`.

    With ``pool=``, concurrency comes from the pool's slots rather than
    ``workers``: ``workers=1`` (or a one-slot pool) probes the fleet
    serially through the pool's scheduler, any other value fans out over
    the pool's total capacity in the chosen mode.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor mode {mode!r}: valid modes are "
            + ", ".join(repr(m) for m in EXECUTOR_MODES)
        )
    if workers == 1 or (pool is not None and pool.total_capacity == 1):
        return SerialExecutor(pool=pool)
    preset = AsyncExecutor if mode == "async" else ParallelExecutor
    return preset(pool=pool) if pool is not None else preset(workers)


class TuningSession:
    """Owns the budget/history/RNG loop; delegates probing to an executor.

    ``SearchStrategy.run`` is a thin shim over this class; construct a
    session directly to choose the executor or attach callbacks::

        TuningSession(tuner, executor=ParallelExecutor(4),
                      callbacks=[ProgressLogger()]).run(env, space, budget)

    A session is also a *schedulable unit*: :meth:`start` initialises the
    loop, each :meth:`step` runs exactly one executor round (returning
    ``False`` once the session has nothing more to do), and
    :meth:`finish` cancels stranded in-flight probes and produces the
    :class:`~repro.core.strategy.TuningResult`.  :meth:`run` is exactly
    ``start``; drain ``step``; ``finish`` — trial-for-trial identical to
    the historical single-call loop — while a multi-tenant scheduler
    (:class:`~repro.core.service.TuningService`) interleaves many
    sessions by calling their ``step`` methods in its own order, pausing
    each tenant between rounds at no extra cost.  All loop state (RNG,
    history, executor free-list) lives on the session, so the
    interleaving order cannot perturb any single session's stream.
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        executor: Optional[Executor] = None,
        callbacks: Sequence[SessionCallback] = (),
        detector: Optional[SessionCallback] = None,
    ) -> None:
        self.strategy = strategy
        self.executor = executor if executor is not None else SerialExecutor()
        self.callbacks = list(callbacks)
        # Convenience slot for a ChangePointDetector (repro.core.detect) —
        # just another callback, but surfaced as a named parameter so the
        # common "tune under drift" setup reads as intent.
        self.detector = detector
        if detector is not None:
            self.callbacks.append(detector)
        self._env: Optional[TrainingEnvironment] = None
        self._env_like = None
        self._space: Optional[ConfigSpace] = None
        self._budget: Optional[TuningBudget] = None
        self._rng: Optional[np.random.Generator] = None
        self._history: Optional[TrialHistory] = None
        self._events: Optional[_Events] = None
        self._stalled = False
        self._result: Optional[TuningResult] = None
        # The strategy the loop actually drives: the raw strategy, or a
        # JournalledStrategy proxy when a checkpoint is attached.
        self._loop_strategy: SearchStrategy = strategy
        self._journal: Optional[CheckpointJournal] = None

    @property
    def history(self) -> Optional[TrialHistory]:
        """The live trial history (``None`` before :meth:`start`)."""
        return self._history

    @property
    def done(self) -> bool:
        """True once :meth:`step` has nothing left to run."""
        return self._result is not None or self._stalled

    def start(
        self,
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
        budget: TuningBudget,
        seed: int = 0,
        checkpoint: Union[CheckpointConfig, CheckpointJournal, str, None] = None,
    ) -> "TuningSession":
        """Initialise the loop state; the first :meth:`step` may then run.

        ``env`` may be ``None`` when the executor carries an
        :class:`~repro.core.fleet.EnvironmentPool` — probes then dispatch
        through the pool's shards and the pool's own description stands in
        for the environment in callbacks and the result.  When both are
        given the pool wins for dispatch.

        ``checkpoint`` (a :class:`~repro.core.checkpoint.CheckpointConfig`
        or a bare path) makes the session durable: every probe and every
        recorded trial is logged to a write-ahead log before the loop acts
        on it, and a small snapshot of the running ledgers refreshes after
        every trial, so a crashed process can pick the session back up
        with :meth:`resume` (which reads only the log).
        Starting fresh at a path *overwrites* any previous checkpoint
        there (use :meth:`restore`/:meth:`resume` to continue one).
        An already-loaded :class:`CheckpointJournal` continues its replay
        instead — that is the path :meth:`restore` takes internally.
        """
        pool = self.executor.pool
        if env is None and pool is None:
            raise ValueError(
                "env may only be None when the executor probes an EnvironmentPool"
            )
        journal: Optional[CheckpointJournal] = None
        if checkpoint is not None:
            if isinstance(checkpoint, CheckpointJournal):
                journal = checkpoint
            else:
                config = (
                    checkpoint
                    if isinstance(checkpoint, CheckpointConfig)
                    else CheckpointConfig(checkpoint)
                )
                journal = CheckpointJournal.create(
                    config,
                    session_meta(self.strategy, seed, budget, space, self.executor),
                )
        self._env = env
        self._env_like = env if pool is None else pool
        self._space = space
        self._budget = budget
        self._rng = np.random.default_rng(seed)
        self._history = TrialHistory()
        self._journal = journal
        self._loop_strategy = (
            self.strategy
            if journal is None
            else JournalledStrategy(self.strategy, journal)
        )
        # The recorder runs FIRST in the callback chain: its position is
        # deterministic (identical in the original run and every replay),
        # and a later callback raising can never lose a trial's record.
        callbacks = list(self.callbacks)
        if journal is not None:
            callbacks.insert(0, journal.recorder(self))
        self._events = _Events(callbacks)
        self._stalled = False
        self._result = None
        self.strategy.reset()
        self.executor.reset(seed)
        self._events.session_start(self.strategy, self._env_like, space, budget)
        return self

    def step(self) -> bool:
        """Run one executor round; ``False`` when the session is done.

        A ``False`` return latches: the budget is exhausted, the strategy
        finished with nothing in flight, or the executor produced no
        trials (saturation/decline) — in every case the session has
        nothing more to do and :meth:`finish` should be called.
        """
        if self._history is None:
            raise RuntimeError("step() before start()")
        if self.done:
            return False
        if self._budget.exhausted(self._history):
            self._stalled = True
            return False
        # A finished strategy launches nothing new, but probes already
        # in flight drain to completion — their machine time is spent
        # and their measurements exist.  Budget exhaustion, by
        # contrast, cancels pending probes (the check above).
        if self._loop_strategy.finished(self._history, self._space) and not (
            self.executor.has_pending()
        ):
            self._stalled = True
            return False
        try:
            trials = self.executor.run_round(
                self._loop_strategy,
                self._env,
                self._space,
                self._history,
                self._rng,
                self._budget,
                self._events,
            )
            if trials:
                self._events.round_end(
                    self._history.num_rounds - 1, trials, self._history
                )
        except BaseException:
            # A crashed round abandons the session: release the WAL handle
            # now, not at garbage collection.  Every durable record is
            # already on disk, so the checkpoint stays resumable.
            if self._journal is not None:
                self._journal.close()
            raise
        if not trials:
            self._stalled = True
            return False
        return True

    def finish(self) -> TuningResult:
        """Cancel stranded in-flight probes and seal the result.

        Idempotent: the first call produces the result (and fires
        ``on_session_end``); later calls return the same object.
        """
        if self._history is None:
            raise RuntimeError("finish() before start()")
        if self._result is not None:
            return self._result
        if self.executor.has_pending():
            # Budget exhaustion is the only exit that strands in-flight
            # probes; bill the machine time they burned before the cut.
            self.executor.cancel_pending(self._history)
        result = TuningResult(
            strategy=self.strategy.name,
            history=self._history,
            best_trial=self._history.best(),
            environment=self._env_like.describe(),
        )
        self._result = result
        self._events.session_end(result)
        return result

    def run(
        self,
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
        budget: TuningBudget,
        seed: int = 0,
        checkpoint: Union[CheckpointConfig, str, None] = None,
    ) -> TuningResult:
        """Execute the tuning session to completion and return its result."""
        self.start(env, space, budget, seed, checkpoint=checkpoint)
        while self.step():
            pass
        return self.finish()

    def restore(
        self,
        checkpoint: Union[CheckpointConfig, CheckpointJournal, str],
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
    ) -> "TuningSession":
        """Restart this session from a checkpoint written by a prior run.

        The budget and seed come from the checkpoint's metadata; the
        strategy, space, and executor must match the originals (their
        fingerprints are validated — replay re-executes the original
        scheduling decisions, so a different executor shape or search
        space cannot reproduce the same stream).  Restoration is
        *replay*: the loop restarts from trial zero with every durable
        probe's recorded measurement substituted for the probe itself, so
        no machine time is re-spent, all derived state (RNG streams,
        surrogate caches, incumbents, executor free-lists) is rebuilt
        bit-identically, and the continuation keeps appending to the same
        write-ahead log.  After :meth:`restore`, drive the session with
        :meth:`step`/:meth:`finish` as usual (or call :meth:`resume` to
        do all three).  Only the write-ahead log is read; an already
        loaded :class:`CheckpointJournal` is used as it is.
        """
        if isinstance(checkpoint, CheckpointJournal):
            journal = checkpoint
        else:
            journal = CheckpointJournal.load(
                checkpoint
                if isinstance(checkpoint, CheckpointConfig)
                else CheckpointConfig(checkpoint)
            )
        config, meta = journal.config, journal.meta
        if meta.get("strategy") != self.strategy.name:
            raise CheckpointError(
                f"checkpoint {config.path!r} was written by strategy "
                f"{meta.get('strategy')!r}, not {self.strategy.name!r}"
            )
        if meta.get("space") != space_fingerprint(space):
            raise CheckpointError(
                f"checkpoint {config.path!r} was written against a different "
                f"search space ({meta.get('space')!r} vs "
                f"{space_fingerprint(space)!r})"
            )
        if meta.get("executor") != executor_fingerprint(self.executor):
            raise CheckpointError(
                f"checkpoint {config.path!r} was written under a different "
                f"executor ({meta.get('executor')!r} vs "
                f"{executor_fingerprint(self.executor)!r}); resume with the "
                f"same executor kind, worker count, and fleet shape"
            )
        budget_payload = meta.get("budget", {})
        budget = TuningBudget(
            max_trials=budget_payload.get("max_trials"),
            max_cost_s=budget_payload.get("max_cost_s"),
            max_wall_clock_s=budget_payload.get("max_wall_clock_s"),
        )
        seed = int(meta.get("seed", 0))
        return self.start(env, space, budget, seed, checkpoint=journal)

    def resume(
        self,
        checkpoint: Union[CheckpointConfig, CheckpointJournal, str],
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
    ) -> TuningResult:
        """Resume from a checkpoint and run the session to completion.

        The result is bit-identical to what the uninterrupted run would
        have produced: the durable write-ahead prefix replays for free,
        the remainder probes live.  Resuming a checkpoint whose session
        already completed simply replays to the same final result.
        """
        self.restore(checkpoint, env, space)
        while self.step():
            pass
        return self.finish()
