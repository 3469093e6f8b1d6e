"""Which public methods the traced run wraps, and the per-layer metrics.

Span names are ``<layer>`` or ``<layer>.<operation>``; a later in-program
telemetry layer should reuse them.  Every span below wraps a public method
(or a public table entry) of the ``repro`` package from the outside.

Per-layer metrics are computed from the recorded spans: ``.calls`` is the
number of spans, ``.s`` / ``.self_s`` the summed self time (duration minus
the spans nested inside), and the remaining counters come from the calls'
arguments and results.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List, Sequence

import numpy as np

from perfbench.tracer import Probe, Span, self_times


def _fit_name(args: tuple, kwargs: dict) -> str:
    """``fit(x, y, optimize_hypers=True, ...)`` splits into two layers."""
    optimize = kwargs.get("optimize_hypers", args[3] if len(args) > 3 else True)
    return "gp.hyperfit" if optimize else "gp.refactor"


def _rows(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"rows": float(np.atleast_2d(args[1]).shape[0])}


def _result_rows(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"rows": float(result[0].shape[0])}


def _fallbacks_before(args: tuple, kwargs: dict) -> int:
    return int(args[0].extend_fallbacks)


def _fallbacks(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"fallbacks": float(int(args[0].extend_fallbacks) - before)}


def _probe_failed(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"failed": 0.0 if result.ok else 1.0}


def _one_append(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"appends": 1.0}


def _trial_append(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    # ``on_trial`` appends a record for live trials only (returns True).
    return {"appends": 1.0 if result else 0.0}


def _snapshot_bytes(args: tuple, kwargs: dict, result, before) -> Dict[str, float]:
    return {"bytes": float(os.path.getsize(args[0].config.path))}


def build_probes() -> List[Probe]:
    """The wrapping plan: one :class:`Probe` per traced public method."""
    from repro.configspace import ConfigSpace
    from repro.core import acquisition, service
    from repro.core.bo import BayesianProposer
    from repro.core.checkpoint import CheckpointJournal
    from repro.core.fleet import (
        CheapestEligibleScheduler,
        LeastLoadedScheduler,
        RoundRobinScheduler,
    )
    from repro.core.gp import GaussianProcess, PriorMeanGP, SparseGaussianProcess
    from repro.core.session import TuningSession
    from repro.core.transfer import HistoryRepository, TransferPrior
    from repro.core.tuner import MLConfigTuner
    from repro.mlsim import TrainingEnvironment

    sessions: Dict[int, int] = {}

    def session_trial(args: tuple) -> str:
        session = args[0]
        ordinal = sessions.setdefault(id(session), len(sessions))
        history = session.history
        return f"s{ordinal}:{0 if history is None else len(history)}"

    probes: List[Probe] = []
    for gp_class in (GaussianProcess, SparseGaussianProcess):
        probes += [
            Probe(gp_class, "fit", _fit_name),
            Probe(gp_class, "extend", "gp.extend", _fallbacks, _fallbacks_before),
            Probe(gp_class, "predict", "gp.predict", _rows),
            Probe(gp_class, "predict_mean", "gp.predict", _rows),
        ]
    probes += [Probe(PriorMeanGP, method, "gp.prior") for method in
               ("fit", "extend", "predict", "predict_mean")]
    probes += [
        Probe(BayesianProposer, "propose", "bo.propose"),
        Probe(MLConfigTuner, "propose", "tuner.propose"),
        Probe(MLConfigTuner, "propose_batch", "parallel.liar"),
        Probe(MLConfigTuner, "propose_async", "parallel.liar"),
        Probe(ConfigSpace, "sample_batch_encoded", "configspace.candidates", _result_rows),
        Probe(ConfigSpace, "neighbors_batch", "configspace.candidates", _result_rows),
        Probe(TrainingEnvironment, "measure", "mlsim.probe", _probe_failed),
        Probe(CheckpointJournal, "create", "checkpoint.wal", _one_append),
        Probe(CheckpointJournal, "record_probe", "checkpoint.wal", _one_append),
        Probe(CheckpointJournal, "on_trial", "checkpoint.wal", _trial_append),
        Probe(CheckpointJournal, "write_snapshot", "checkpoint.snapshot", _snapshot_bytes),
        Probe(CheckpointJournal, "load", "checkpoint.replay"),
        Probe(CheckpointJournal, "replay_measurement", "checkpoint.replay"),
        Probe(HistoryRepository, "add_session", "transfer.repository"),
        Probe(HistoryRepository, "nearest", "transfer.repository"),
        Probe(TransferPrior, "__call__", "transfer.prior"),
        # The service calls build_prior through its own module namespace.
        Probe(service, "build_prior", "transfer.prior"),
        Probe(service.TuningService, "submit", "service"),
        Probe(service.TuningService, "run", "service"),
    ]
    probes += [Probe(TuningSession, method, "session", trial=session_trial)
               for method in ("start", "step", "finish", "restore")]
    probes += [Probe(scheduler, "select", "fleet.select") for scheduler in
               (RoundRobinScheduler, LeastLoadedScheduler, CheapestEligibleScheduler)]
    # Proposers look their acquisition up in this table when they are
    # built, so it must be wrapped before any proposer exists.
    probes += [Probe(acquisition.ACQUISITIONS, key, "acquisition")
               for key in sorted(acquisition.ACQUISITIONS)]
    return probes


#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "gp.hyperfit.calls": "count",
    "gp.hyperfit.s": "s",
    "gp.hyperfit.share": "ratio",
    "gp.refactor.calls": "count",
    "gp.refactor.s": "s",
    "gp.extend.calls": "count",
    "gp.extend.s": "s",
    "gp.extend.fallbacks": "count",
    "gp.predict.calls": "count",
    "gp.predict.rows": "count",
    "gp.predict.s": "s",
    "bo.propose.calls": "count",
    "bo.propose.self_s": "s",
    "configspace.candidates.rows": "count",
    "configspace.candidates.s": "s",
    "acquisition.s": "s",
    "mlsim.probe.calls": "count",
    "mlsim.probe.s": "s",
    "mlsim.probe.failed": "count",
    "mlsim.probe.useful_ratio": "ratio",
    "checkpoint.wal.appends": "count",
    "checkpoint.wal.s": "s",
    "checkpoint.snapshot.writes": "count",
    "checkpoint.snapshot.s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.replay.s": "s",
    "session.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "self_s", "raised", <counts>...}}``."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        row = table[span.name]
        row["calls"] += 1
        row["self_s"] += own
        row["raised"] += 1.0 if span.failed else 0.0
        for key, value in span.counts.items():
            row[key] += value
    return {name: dict(row) for name, row in table.items()}


def per_layer_metrics(
    spans: Sequence[Span],
    traced_wall_s: float,
    untraced_wall_s: float,
    trials_recorded: int,
    wal_bytes: float,
) -> Dict[str, float]:
    """Every metric in :data:`PER_LAYER_UNITS` from one traced pass.

    ``traced_wall_s`` / ``untraced_wall_s`` time the same work with and
    without the spans; ``trials_recorded`` counts trials the traced live
    sessions recorded (for the probe's useful ratio); ``wal_bytes`` is the
    size of the write-ahead logs the traced pass left on disk.
    """
    table = layer_table(spans)

    def get(name: str, key: str) -> float:
        return float(table.get(name, {}).get(key, 0.0))

    probe_calls = get("mlsim.probe", "calls")
    return {
        "gp.hyperfit.calls": get("gp.hyperfit", "calls"),
        "gp.hyperfit.s": get("gp.hyperfit", "self_s"),
        "gp.hyperfit.share": get("gp.hyperfit", "self_s") / traced_wall_s,
        "gp.refactor.calls": get("gp.refactor", "calls"),
        "gp.refactor.s": get("gp.refactor", "self_s"),
        "gp.extend.calls": get("gp.extend", "calls"),
        "gp.extend.s": get("gp.extend", "self_s"),
        "gp.extend.fallbacks": get("gp.extend", "fallbacks"),
        "gp.predict.calls": get("gp.predict", "calls"),
        "gp.predict.rows": get("gp.predict", "rows"),
        "gp.predict.s": get("gp.predict", "self_s"),
        "bo.propose.calls": get("bo.propose", "calls"),
        "bo.propose.self_s": get("bo.propose", "self_s"),
        "configspace.candidates.rows": get("configspace.candidates", "rows"),
        "configspace.candidates.s": get("configspace.candidates", "self_s"),
        "acquisition.s": get("acquisition", "self_s"),
        "mlsim.probe.calls": probe_calls,
        "mlsim.probe.s": get("mlsim.probe", "self_s"),
        "mlsim.probe.failed": get("mlsim.probe", "failed") + get("mlsim.probe", "raised"),
        "mlsim.probe.useful_ratio": trials_recorded / probe_calls if probe_calls else 0.0,
        "checkpoint.wal.appends": get("checkpoint.wal", "appends"),
        "checkpoint.wal.s": get("checkpoint.wal", "self_s"),
        "checkpoint.snapshot.writes": get("checkpoint.snapshot", "calls"),
        "checkpoint.snapshot.s": get("checkpoint.snapshot", "self_s"),
        "checkpoint.bytes": get("checkpoint.snapshot", "bytes") + wal_bytes,
        "checkpoint.replay.s": get("checkpoint.replay", "self_s"),
        "session.self_s": get("session", "self_s"),
        "trace.overhead": traced_wall_s / untraced_wall_s - 1.0,
    }
