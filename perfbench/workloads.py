"""The benchmark workloads: whole tuning sessions on the public API.

``BENCHMARK.json`` lists ``bo-analytic`` and ``service-ckpt``; ``bo-event``
runs and traces the same way but is not listed, because its throughput
depends too much on the seed (see ``perfbench/README.md``).

Every workload is a closed loop: one process runs one session loop, and
the next probe launches only after the decision before it returns.  A
workload is split into

- ``inputs(seed, seconds)``: the generated inputs (session seeds and
  workloads), a pure function of the seed and run length;
- ``construct(inputs, workdir)``: everything built before the first probe
  (environments, space, tuners, pools, service) — the timed set-up;
- ``execute(built)``: the measured work, returning a :class:`Pass`.

Grading (the optimum estimate, the correctness checks) happens outside
``execute``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import homogeneous
from repro.configspace import ConfigSpace, ml_config_space, to_training_config
from repro.core.checkpoint import CheckpointConfig
from repro.core.fleet import EnvironmentPool, EnvironmentShard, RoundRobinScheduler
from repro.core.service import TenantSpec, TuningService, training_shard_templates
from repro.core.session import AsyncExecutor, TuningSession
from repro.core.strategy import TuningBudget, TuningResult
from repro.core.transfer import HistoryRepository
from repro.core.tuner import MLConfigTuner
from repro.harness.chaos import result_fingerprint
from repro.harness.optimum import estimate_optimum
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

SHARD_COST_MULTIPLIERS = (1.0, 1.25, 0.8, 1.5)


class TimedTuner(MLConfigTuner):
    """The default tuner, logging the wall time of every decision.

    One decision is one ``propose``/``propose_batch``/``propose_async``
    call; its duration is appended to ``decisions``.  Nothing else
    changes, so results are bit-identical to :class:`MLConfigTuner`.
    """

    def __init__(self, decisions: List[float], **kwargs) -> None:
        super().__init__(**kwargs)
        self.decisions = decisions

    def propose(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().propose(*args, **kwargs)
        finally:
            self.decisions.append(time.perf_counter() - start)

    def propose_batch(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().propose_batch(*args, **kwargs)
        finally:
            self.decisions.append(time.perf_counter() - start)

    def propose_async(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return super().propose_async(*args, **kwargs)
        finally:
            self.decisions.append(time.perf_counter() - start)


@dataclass
class Outcome:
    """One finished session (or service tenant) of a pass."""

    label: str
    workload: str
    budget: int
    result: TuningResult
    wall_s: Optional[float] = None

    @property
    def fingerprint(self) -> str:
        return result_fingerprint(self.result)


@dataclass
class Pass:
    """What one execution of a workload's measured work produced.

    ``resumed`` holds the cold-resumed sessions (labelled like the live
    sessions they resume) and ``resume_s`` their resume wall times.
    """

    outcomes: List[Outcome]
    decisions_s: List[float]
    live_wall_s: float
    resumed: List[Outcome]
    resume_s: List[float]
    checkpoint_dir: str
    failures: List[str] = field(default_factory=list)

    @property
    def trials(self) -> int:
        return sum(len(outcome.result.history) for outcome in self.outcomes)

    def wal_bytes(self) -> float:
        total = 0
        for directory, _, names in os.walk(self.checkpoint_dir):
            for name in names:
                if name.endswith(".wal"):
                    total += os.path.getsize(os.path.join(directory, name))
        return float(total)


def _seeds(seed: int, salt: int, count: int) -> List[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def _timed(call):
    start = time.perf_counter()
    value = call()
    return value, time.perf_counter() - start


# -- single-session workloads -------------------------------------------------


class SessionWorkload:
    """Back-to-back serial sessions of the default tuner, then a cold resume.

    Each session probes one :class:`TrainingEnvironment` through the
    serial executor and checkpoints every trial; afterwards the first
    ``resumes`` sessions are resumed from their checkpoints in fresh
    objects, as a restarted process would.
    """

    workload_name = "resnet50-imagenet"

    def __init__(
        self,
        name: str,
        why: str,
        fidelity: str,
        nodes: int,
        trials: int,
        session_s: float,
        resumes: int,
    ) -> None:
        self.name = name
        self.why = why
        self.fidelity = fidelity
        self.nodes = nodes
        self.trials = trials
        self.session_s = session_s
        self.resumes = resumes

    def inputs(self, seed: int, seconds: float) -> dict:
        """One live session per ``session_s`` of the run, at least one.

        ``session_s`` is a session's nominal wall time plus its share of
        the cold resumes."""
        count = max(1, int(seconds // self.session_s))
        return {"seeds": _seeds(seed, len(self.name), count)}

    def _env(self, seed: int) -> TrainingEnvironment:
        return TrainingEnvironment(
            get_workload(self.workload_name),
            homogeneous(self.nodes),
            seed=seed,
            fidelity=self.fidelity,
        )

    def construct(self, inputs: dict, workdir: str) -> dict:
        space = ml_config_space(self.nodes)
        decisions: List[float] = []
        sessions = []
        resumes = []
        for index, seed in enumerate(inputs["seeds"]):
            label = f"session{index}"
            checkpoint = CheckpointConfig(os.path.join(workdir, f"{label}.ckpt"))
            session = TuningSession(TimedTuner(decisions, seed=seed))
            sessions.append((label, seed, self._env(seed), session, checkpoint))
            if index < self.resumes:
                fresh = TuningSession(TimedTuner([], seed=seed))
                resumes.append((label, self._env(seed), fresh, checkpoint))
        return {
            "space": space,
            "decisions": decisions,
            "sessions": sessions,
            "resumes": resumes,
            "workdir": workdir,
        }

    def execute(self, built: dict) -> Pass:
        space = built["space"]
        budget = TuningBudget(max_trials=self.trials)
        outcomes = []
        live_start = time.perf_counter()
        for label, seed, env, session, checkpoint in built["sessions"]:
            result, wall = _timed(
                lambda: session.run(env, space, budget, seed=seed, checkpoint=checkpoint)
            )
            outcomes.append(
                Outcome(label, self.workload_name, self.trials, result, wall_s=wall)
            )
        live_wall = time.perf_counter() - live_start
        resumed, resume_s = [], []
        for label, env, session, checkpoint in built["resumes"]:
            result, wall = _timed(lambda: session.resume(checkpoint, env, space))
            resumed.append(Outcome(label, self.workload_name, self.trials, result))
            resume_s.append(wall)
        return Pass(
            outcomes=outcomes,
            decisions_s=list(built["decisions"]),
            live_wall_s=live_wall,
            resumed=resumed,
            resume_s=resume_s,
            checkpoint_dir=built["workdir"],
        )


# -- the multi-tenant service workload ---------------------------------------


class ServiceWorkload:
    """Checkpointing :class:`TuningService` drains of six async tenants each.

    In one drain, tenants alternate two workloads at distinct seeds and
    share a 4-shard mixed-speed fleet (one slot per shard).  Four start at
    once; the other two queue and warm-start from the repository the first
    finishers recorded into.  Each tenant guarantees one slot and may grow
    to two, so tenants late in the drain probe two configurations at once
    and propose through constant-liar fantasies.  Afterwards the first two
    tenants to finish are resumed cold from their checkpoints.  Each drain
    has its own service, repository and checkpoint directory.
    """

    workloads = ("resnet50-imagenet", "vgg16-imagenet")
    nodes = 16
    tenants = 6
    trials = 50
    resumes = 2

    def __init__(self, name: str, why: str, drain_s: float) -> None:
        self.name = name
        self.why = why
        self.drain_s = drain_s

    def inputs(self, seed: int, seconds: float) -> dict:
        """One drain per ``drain_s`` of the run, at least one."""
        drains = max(1, int(seconds // self.drain_s))
        seeds = _seeds(seed, len(self.name), drains * self.tenants)
        return {
            "tenants": [
                (
                    f"drain{index // self.tenants}.tenant{index % self.tenants}",
                    self.workloads[index % 2],
                    tenant_seed,
                )
                for index, tenant_seed in enumerate(seeds)
            ]
        }

    def construct(self, inputs: dict, workdir: str) -> dict:
        space = ml_config_space(self.nodes)
        decisions: List[float] = []
        templates = training_shard_templates(
            nodes=self.nodes, cost_multipliers=SHARD_COST_MULTIPLIERS
        )
        services = []
        specs = {}
        tenants = inputs["tenants"]
        for first in range(0, len(tenants), self.tenants):
            directory = os.path.join(workdir, f"drain{first // self.tenants}")
            service = TuningService(
                templates,
                space,
                repository=HistoryRepository(os.path.join(directory, "repository.jsonl")),
                checkpoint_dir=directory,
            )
            for name, workload, seed in tenants[first : first + self.tenants]:
                spec = TenantSpec(
                    name=name,
                    strategy_factory=lambda seed=seed: TimedTuner(decisions, seed=seed),
                    budget=TuningBudget(max_trials=self.trials),
                    seed=seed,
                    slots=1,
                    max_slots=2,
                    workload=get_workload(workload),
                )
                service.submit(spec)
                specs[name] = spec
            services.append(service)
        return {
            "space": space,
            "decisions": decisions,
            "services": services,
            "templates": templates,
            "specs": specs,
            "workdir": workdir,
        }

    def execute(self, built: dict) -> Pass:
        run = Pass(
            outcomes=[],
            decisions_s=[],
            live_wall_s=0.0,
            resumed=[],
            resume_s=[],
            checkpoint_dir=built["workdir"],
        )
        for service in built["services"]:
            self._drain(service, built, run)
        run.decisions_s = list(built["decisions"])
        return run

    def _drain(self, service: TuningService, built: dict, run: Pass) -> None:
        outcome, live_wall = _timed(service.run)
        run.live_wall_s += live_wall
        for handle in outcome.tenants:
            if handle.result is None:
                run.failures.append(
                    f"{handle.spec.name}: {handle.state} ({handle.error!r})"
                )
                continue
            run.outcomes.append(
                Outcome(
                    handle.spec.name,
                    handle.spec.workload.name,
                    self.trials,
                    handle.result,
                )
            )
        warm = sum(1 for handle in outcome.tenants if handle.warm)
        if warm != self.tenants - 4:
            run.failures.append(
                f"{warm} tenants warm-started, expected {self.tenants - 4}"
            )
        ledger = sum(service.cost_by_shard().values())
        if not math.isclose(ledger, service.total_cost_s(), rel_tol=1e-9):
            run.failures.append(
                f"service cost ledger {ledger!r} != total {service.total_cost_s()!r}"
            )

        # Leases only grow once fewer tenants than slots are active, i.e.
        # after the third tenant finishes; the first two finishers ran at
        # one slot throughout, so a fresh one-slot pool replays them.  Warm
        # tenants are skipped: their prior came from the live repository.
        finishers = sorted(
            (h for h in outcome.tenants if h.finished_at is not None),
            key=lambda h: (h.finished_at, h.order),
        )
        for handle in finishers[: self.resumes]:
            if handle.warm:
                continue
            session, checkpoint = self._cold_session(built, handle)
            result, wall = _timed(lambda: session.resume(checkpoint, None, built["space"]))
            run.resumed.append(
                Outcome(handle.spec.name, handle.spec.workload.name, self.trials, result)
            )
            run.resume_s.append(wall)

    @staticmethod
    def _cold_session(built: dict, handle) -> tuple:
        """A restarted process's view of one tenant: fresh pool and tuner."""
        spec = built["specs"][handle.spec.name]
        pool = EnvironmentPool(
            [
                EnvironmentShard(
                    template.name,
                    template.env_factory(spec, index),
                    capacity=template.capacity,
                    cost_multiplier=template.cost_multiplier,
                )
                for index, template in enumerate(built["templates"])
            ],
            scheduler=RoundRobinScheduler(),
        )
        pool.set_lease(1)
        session = TuningSession(
            TimedTuner([], seed=spec.seed), executor=AsyncExecutor(pool=pool)
        )
        return session, CheckpointConfig(handle.checkpoint_path)


WORKLOADS = {
    workload.name: workload
    for workload in (
        SessionWorkload(
            "bo-analytic",
            "reference 100-trial BO sessions with analytic probes: GP hyperfit "
            "dominates, so core.gp and core.bo changes show here",
            fidelity="analytic",
            nodes=16,
            trials=100,
            session_s=15.0,
            resumes=1,
        ),
        SessionWorkload(
            "bo-event",
            "40-trial BO sessions with discrete-event probes on 8 nodes: the "
            "probe engine is the largest layer, so mlsim/sim changes show here",
            fidelity="event",
            nodes=8,
            trials=40,
            session_s=9.0,
            resumes=2,
        ),
        ServiceWorkload(
            "service-ckpt",
            "service drains of 6 async tenants on a 4-shard fleet with checkpoints "
            "and warm starts: the only run of service, fleet, transfer and liar paths",
            drain_s=20.0,
        ),
    )
}


# -- grading -------------------------------------------------------------------


class Grader:
    """Quality normalisation and correctness checks, outside every timer.

    The optimum of each workload is estimated once, on a reference
    environment (seed 0) of the ``nodes``-node cluster the sessions tuned;
    a recommendation is graded by its noise-free objective on that same
    environment.
    """

    def __init__(self, space: ConfigSpace, nodes: int) -> None:
        self.space = space
        self.nodes = nodes
        self._reference: Dict[str, tuple] = {}

    def _optimum(self, workload: str) -> tuple:
        if workload not in self._reference:
            env = TrainingEnvironment(
                get_workload(workload), homogeneous(self.nodes), seed=0
            )
            self._reference[workload] = (env, estimate_optimum(env, self.space)[1])
        return self._reference[workload]

    def best_norm(self, outcome: Outcome) -> Optional[float]:
        trial = outcome.result.history.recommendation()
        if trial is None or not self.space.is_valid(trial.config):
            return None
        env, optimum = self._optimum(outcome.workload)
        value = env.true_objective(to_training_config(trial.config))
        return None if value is None else value / optimum

    def check(self, outcome: Outcome) -> List[str]:
        """Failed checks of one session: budget, ledger, feasibility."""
        failures = []
        history = outcome.result.history
        if len(history) != outcome.budget:
            failures.append(f"recorded {len(history)} trials, budget {outcome.budget}")
        ledger = sum(history.cost_by_shard().values())
        if not math.isclose(ledger, history.total_cost_s, rel_tol=1e-9):
            failures.append(f"cost_by_shard sums to {ledger!r}, total {history.total_cost_s!r}")
        if self.best_norm(outcome) is None:
            failures.append("recommended config is missing or infeasible")
        return failures
