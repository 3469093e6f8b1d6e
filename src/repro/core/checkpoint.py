"""Crash-consistent checkpoint/resume for tuning sessions.

Everything the tuner accumulates over a session — trial history, RNG
streams, surrogate caches, budget ledgers, executor free-lists — lives in
memory, so a process crash at trial 180 of a 200-trial session used to
throw the whole session away.  This module makes sessions durable with
two artifacts per checkpoint path:

- **an append-only write-ahead log** (``<path>.wal``, JSON lines), the
  only durable record of the session: one ``header`` record (format
  version and session metadata — strategy, seed, budget, space/executor
  fingerprints), one ``probe`` record per executor-level
  :meth:`SearchStrategy.measure` call — the measurement that came back,
  at *pre-shard-scaling* values, plus the environment's probe counters
  after the call — and one ``trial`` record per recorded trial holding
  the full :meth:`~repro.core.trial.Trial.to_payload`.  Each record is
  flushed and ``fsync``'d before the session acts on the result, so the
  log is always consistent up to its last complete line;
- **an atomic snapshot** (``<path>``, one small JSON document rewritten
  via ``mkstemp`` + ``os.replace`` like
  :class:`~repro.core.transfer.HistoryRepository`) at session start,
  after every live trial and at session end.  Its size does not grow
  with the trial count: status, the WAL position (trial and probe
  counts), the history's running ledgers and events
  (:meth:`~repro.core.trial.TrialHistory.ledger_payload`), environment
  probe counters, and the strategy's
  :meth:`~SearchStrategy.snapshot_state` audit payload.
  :meth:`Checkpoint.load` joins it with the WAL's trial records for
  inspection; resume never reads it.

Resume is **replay**, not state surgery: the loop restarts from trial
zero with the same seed and re-executes every deterministic proposal,
substituting each recorded measurement for the probe it describes (no
machine time is re-spent) and restoring the environment's noise counters
as it goes.  All derived state — RNG streams, GP surrogate caches and
their hyper-refit cadence, incumbents, executor free-lists, scheduler
cursors, cancellation billing — is thereby reconstructed *bit-identical*
by construction, which is exactly the property snapshot-restoring a GP's
Cholesky factors cannot promise (``extend`` matches a refit only to
~1e-8).  Every replayed trial is checked against its WAL record.  Once
the log is exhausted the session falls through to live probing and
keeps appending, so kill → resume → kill → resume chains work, and any
durable WAL prefix yields a continuation bit-identical to the
uninterrupted run.

Torn writes: a crash can leave a partial final WAL line.  On load, the
log is parsed up to its last durable record; everything after the first
torn or corrupt line is moved to a ``<path>.wal.quarantine`` sidecar
(with one warning naming the file) and the log is truncated there.  The
lost suffix costs nothing but the re-probe of its measurements — the
continuation is still bit-identical.  A missing or corrupt snapshot does
not affect resume at all; a missing WAL, an unreadable header record or
a version mismatch fails with a named :class:`CheckpointError`, never a
raw decoder traceback.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import IO, List, Optional

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.strategy import SearchStrategy, TuningBudget
from repro.core.trial import (
    Trial,
    TrialHistory,
    measurement_from_payload,
    measurement_to_payload,
)

#: Bump on any incompatible change to the snapshot or WAL record layout.
CHECKPOINT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint that cannot be written, read, or resumed from."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Where a session checkpoints.

    ``path`` is the snapshot file; the write-ahead log lives beside it at
    ``path + ".wal"``.  ``fsync=False`` trades the per-record
    ``os.fsync`` for OS-buffered durability (a crash of the machine, not
    just the process, may then lose the tail).
    """

    path: str
    fsync: bool = True

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("checkpoint path must be non-empty")

    @property
    def wal_path(self) -> str:
        return self.path + ".wal"

    @property
    def quarantine_path(self) -> str:
        return self.wal_path + ".quarantine"


def space_fingerprint(space: ConfigSpace) -> dict:
    """The space signature a resume must match.

    Covers encoded dims, names, and each parameter's type/range row —
    two spaces over the same names but different bounds (say,
    ``ml_config_space(8)`` vs ``ml_config_space(16)``) must not pass.
    """
    return {
        "dims": int(space.dims),
        "names": list(space.names()),
        "params": space.describe(),
    }


def executor_fingerprint(executor) -> dict:
    """The executor signature a resume must match.

    Replay re-executes the original scheduling decisions, so the executor
    class, worker count, and fleet shape must all be identical — a
    4-worker WAL replayed on 2 workers would interleave differently.
    """
    pool = getattr(executor, "pool", None)
    return {
        "kind": type(executor).__name__,
        "workers": int(executor.workers),
        "pool": None if pool is None else pool.fingerprint(),
    }


def _budget_payload(budget: TuningBudget) -> dict:
    return {
        "max_trials": budget.max_trials,
        "max_cost_s": budget.max_cost_s,
        "max_wall_clock_s": budget.max_wall_clock_s,
    }


def session_meta(
    strategy: SearchStrategy,
    seed: int,
    budget: TuningBudget,
    space: ConfigSpace,
    executor,
) -> dict:
    """The metadata block a resume validates against (and restores from)."""
    return {
        "strategy": strategy.name,
        "seed": int(seed),
        "budget": _budget_payload(budget),
        "space": space_fingerprint(space),
        "executor": executor_fingerprint(executor),
    }


def _env_counter_payload(env) -> dict:
    """The probe counters that key an environment's noise streams."""
    trials_run = getattr(env, "trials_run", None)
    cost = getattr(env, "total_probe_cost_s", None)
    return {
        "trials_run": None if trials_run is None else int(trials_run),
        "total_probe_cost_s": None if cost is None else float(cost),
    }


def _restore_env_counters(env, payload: dict) -> None:
    """Stamp recorded probe counters onto a (freshly built) environment.

    :class:`~repro.mlsim.TrainingEnvironment` keys every probe's noise
    and failure draw on ``trials_run`` (via per-trial RNG forks), so
    restoring the counter re-aligns the noise stream exactly; the first
    live probe after replay draws the same randomness it would have drawn
    in the uninterrupted run.
    """
    if payload.get("trials_run") is not None and hasattr(env, "trials_run"):
        env.trials_run = int(payload["trials_run"])
    if payload.get("total_probe_cost_s") is not None and hasattr(
        env, "total_probe_cost_s"
    ):
        env.total_probe_cost_s = float(payload["total_probe_cost_s"])


def _read_wal_records(wal_path: str):
    """Parse the WAL up to its last durable record.

    Returns ``(records, durable_offset, torn_tail)``: everything from the
    first unparseable line (or a final line with no newline — a record is
    written newline-included in one buffered write, so a missing newline
    means the write was cut short) onward is the torn tail.
    """
    try:
        with open(wal_path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"no write-ahead log at {wal_path!r} ({exc.strerror}): nothing "
            f"to resume from"
        ) from None
    records: List[dict] = []
    offset = 0
    torn = b""
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            torn = data[offset:]
            break
        line = data[offset:newline]
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError("not a WAL record object")
        except (ValueError, UnicodeDecodeError):
            torn = data[offset:]
            break
        records.append(record)
        offset = newline + 1
    return records, offset, torn


def _header_meta(wal_path: str, records: List[dict]) -> dict:
    """Session metadata from the WAL's header record, version-checked."""
    header = records[0] if records else {}
    is_header = header.get("type") == "header"
    if is_header and header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint WAL {wal_path!r} has version "
            f"{header.get('version')!r}; this build supports version "
            f"{CHECKPOINT_VERSION}"
        )
    if not is_header or not isinstance(header.get("meta"), dict):
        raise CheckpointError(
            f"checkpoint WAL {wal_path!r}: the header record is missing or "
            f"unreadable"
        )
    return dict(header["meta"])


def _field(document: dict, key: str, kind):
    """``document[key]``, which must be an instance of ``kind``."""
    value = document[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key!r} is a {type(value).__name__}")
    return value


def _atomic_write_text(path: str, text: str, fsync: bool = True) -> None:
    """Write one encoded JSON document atomically (mkstemp + os.replace).

    Callers encode with ``json.dumps``, not ``json.dump``: the latter
    streams through the pure-Python encoder, the former runs the C one
    and produces the same text several times faster.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".checkpoint-tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


@dataclass
class Checkpoint:
    """A loaded checkpoint, for inspection (``repro`` never mutates it).

    ``meta`` comes from the WAL header.  ``history`` is the trial history
    as of the last snapshot refresh: the snapshot's ledgers joined with
    the first ``trials`` WAL trial records.  ``wal_probes`` /
    ``wal_trials`` count the durable WAL records, which may run ahead of
    the snapshot (a crash between a trial's WAL append and the snapshot
    refresh, or a resume killed while still replaying).
    """

    version: int
    meta: dict
    status: str
    history: TrialHistory
    strategy_state: Optional[dict]
    env_counters: dict
    wal_probes: int
    wal_trials: int

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Load ``path`` and its WAL; any malformed part is a CheckpointError."""
        wal_path = CheckpointConfig(path).wal_path
        records, _, _ = _read_wal_records(wal_path)
        meta = _header_meta(wal_path, records)
        trials = [r.get("trial") for r in records if r["type"] == "trial"]
        try:
            with open(path) as handle:
                snapshot = json.load(handle)
            version = _field(snapshot, "version", int)
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path!r} has version {version!r}; this build "
                    f"supports version {CHECKPOINT_VERSION}"
                )
            count = _field(snapshot, "trials", int)
            if not 0 <= count <= len(trials):
                raise ValueError(
                    f"the snapshot counts {count} trials but the write-ahead "
                    f"log holds {len(trials)}"
                )
            history = TrialHistory.from_payload(
                {**_field(snapshot, "ledgers", dict), "trials": trials[:count]}
            )
            return cls(
                version=version,
                meta=meta,
                status=_field(snapshot, "status", str),
                history=history,
                strategy_state=_field(snapshot, "strategy_state", (dict, type(None))),
                env_counters=_field(snapshot, "env_counters", dict),
                wal_probes=sum(1 for r in records if r["type"] == "probe"),
                wal_trials=len(trials),
            )
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint {path!r}: {exc!r}"
            ) from None


class CheckpointJournal:
    """The live read/write surface of one checkpoint (snapshot + WAL).

    Created by :meth:`create` for a fresh session (truncates any previous
    checkpoint at the path) or :meth:`load` for a resume (replays the
    durable WAL prefix, quarantining a torn tail).  The session wires it
    in through :class:`JournalledStrategy` (probe records) and the
    journal's :meth:`recorder` callback (trial records + snapshot
    refreshes).
    """

    def __init__(
        self,
        config: CheckpointConfig,
        meta: dict,
        probes: Optional[List[dict]] = None,
        trials: Optional[List[str]] = None,
        append_offset: Optional[int] = None,
    ) -> None:
        self.config = config
        self.meta = meta
        self._probes = list(probes or [])
        # JSON encodings of the WAL's trial payloads (the replay region).
        self._trials = list(trials or [])
        self._cursor = 0
        self._probe_count = len(self._probes)
        self._handle: Optional[IO[bytes]] = None
        self._append_offset = append_offset

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, config: CheckpointConfig, meta: dict) -> "CheckpointJournal":
        """Start a fresh checkpoint: a WAL holding only its header record.

        Any existing checkpoint at the path is overwritten — starting a
        new session at the same path means the old session's state is no
        longer wanted (resume via :meth:`load` instead to keep it).
        """
        journal = cls(config, meta)
        directory = os.path.dirname(os.path.abspath(config.wal_path))
        os.makedirs(directory, exist_ok=True)
        journal._handle = open(config.wal_path, "wb")
        journal._append(
            {"type": "header", "version": CHECKPOINT_VERSION, "meta": meta}
        )
        return journal

    @classmethod
    def load(cls, config: CheckpointConfig) -> "CheckpointJournal":
        """Open an existing checkpoint for resume, reading only its WAL.

        Reads the durable WAL prefix (quarantining and truncating any
        torn/corrupt tail), takes session metadata from the WAL header,
        and positions the journal to replay every durable probe record
        before appending live ones.
        """
        wal_path = config.wal_path
        records, durable_offset, torn = _read_wal_records(wal_path)
        if torn:
            with open(config.quarantine_path, "ab") as sidecar:
                sidecar.write(torn)
                if not torn.endswith(b"\n"):
                    sidecar.write(b"\n")
            with open(wal_path, "r+b") as handle:
                handle.truncate(durable_offset)
            warnings.warn(
                f"{wal_path}: quarantined {len(torn)} bytes of torn/corrupt "
                f"tail to {config.quarantine_path}; resuming from the last "
                f"durable record",
                stacklevel=2,
            )
        meta = _header_meta(wal_path, records)
        probes = [r for r in records if r["type"] == "probe"]
        trials = [json.dumps(r.get("trial")) for r in records if r["type"] == "trial"]
        return cls(config, meta, probes, trials, append_offset=durable_offset)

    # -- replay ------------------------------------------------------------

    def next_probe_record(self) -> Optional[dict]:
        """The next probe record to replay, or None once live."""
        if self._cursor >= len(self._probes):
            return None
        record = self._probes[self._cursor]
        self._cursor += 1
        return record

    def replay_measurement(self, record: dict, env, config: ConfigDict):
        """The recorded measurement for one replayed probe.

        Verifies the replayed proposal matches what the record was
        written for (a mismatch means the session was resumed with a
        different seed, space, strategy, or environment — fail with a
        named error rather than silently corrupting the continuation)
        and restores the environment's probe counters to their
        post-probe values, so the first live probe after replay draws
        the exact noise the uninterrupted run would have drawn.
        """
        recorded = record.get("config", {})
        if dict(config) != recorded:
            raise CheckpointError(
                f"resume diverged at probe #{record.get('k', '?')}: the "
                f"session proposed {dict(config)!r} but the write-ahead log "
                f"recorded {recorded!r}; was the session resumed with a "
                f"different seed, space, strategy, or environment?"
            )
        _restore_env_counters(env, record.get("env", {}))
        return measurement_from_payload(record["measurement"])

    # -- recording ---------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._handle is None:
            # Lazily reopened on the first live append after a resume —
            # truncated to the durable offset computed at load (the torn
            # tail, if any, was already quarantined there).
            handle = open(self.config.wal_path, "r+b")
            if self._append_offset is not None:
                handle.truncate(self._append_offset)
            handle.seek(0, os.SEEK_END)
            self._handle = handle
        self._handle.write((json.dumps(record) + "\n").encode("utf-8"))
        self._handle.flush()
        if self.config.fsync:
            os.fsync(self._handle.fileno())

    def record_probe(self, config: ConfigDict, measurement, env) -> None:
        """Append one live probe's WAL record (durable before use)."""
        self._append(
            {
                "type": "probe",
                "k": self._probe_count,
                "config": dict(config),
                "measurement": measurement_to_payload(measurement),
                "env": _env_counter_payload(env),
            }
        )
        self._probe_count += 1

    def on_trial(self, trial: Trial) -> bool:
        """Record (or, in the replay region, verify) one recorded trial.

        Returns True for a live trial, whose full payload is appended to
        the WAL — the recorder refreshes the snapshot on live trials
        only (a replayed trial is already in the log).  A replayed trial
        whose payload differs from its WAL record in any field means the
        replay diverged; fail loudly.  Payloads compare by their JSON
        encodings, so a NaN field equals itself.
        """
        payload = trial.to_payload()
        if trial.index < len(self._trials):
            replayed, recorded = json.dumps(payload), self._trials[trial.index]
            if replayed != recorded:
                raise CheckpointError(
                    f"resume diverged at trial {trial.index}: replay produced "
                    f"{replayed} but the write-ahead log recorded {recorded}"
                )
            return False
        self._append({"type": "trial", "trial": payload})
        return True

    def write_snapshot(
        self,
        history: TrialHistory,
        strategy: SearchStrategy,
        env_counters: dict,
        status: str = "running",
    ) -> None:
        """Atomically rewrite the snapshot document (its size is O(1))."""
        # An unserialisable audit payload must never take the checkpoint
        # down with it — the snapshot is forensics, the WAL is the restore
        # path.  The document is encoded once; only when that fails is it
        # encoded again with the state replaced by an error marker (a
        # failure elsewhere in the document raises from that second try).
        bad_state = {"error": "snapshot_state() returned non-JSON state"}
        try:
            state = strategy.snapshot_state()
        except (TypeError, ValueError):
            state = bad_state
        document = {
            "version": CHECKPOINT_VERSION,
            "status": status,
            "trials": len(history),
            "probes": self._probe_count,
            "ledgers": history.ledger_payload(),
            "env_counters": env_counters,
            "strategy_state": state,
        }
        try:
            text = json.dumps(document)
        except (TypeError, ValueError):
            document["strategy_state"] = bad_state
            text = json.dumps(document)
        _atomic_write_text(self.config.path, text, fsync=self.config.fsync)

    def recorder(self, session) -> "_CheckpointRecorder":
        """The session callback that writes trial records and snapshots."""
        return _CheckpointRecorder(self, session)

    def close(self) -> None:
        """Close the WAL handle; a later append reopens it at the end."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            # The durable offset was applied at the first live append; a
            # reopen must append after the records written since.
            self._append_offset = None


def _session_env_counters(session) -> dict:
    """Probe counters for every environment the session touches (audit)."""
    pool = session.executor.pool
    if pool is not None:
        return pool.env_counters()
    env = getattr(session, "_env", None)
    if env is None:
        return {}
    return {"env": _env_counter_payload(env)}


class _CheckpointRecorder:
    """Session callback half of the journal (duck-typed, no base class).

    Runs *first* in the callback chain so a later callback raising (or a
    chaos kill) can never lose a recorded trial's WAL record.
    """

    def __init__(self, journal: CheckpointJournal, session) -> None:
        self._journal = journal
        self._session = session

    def on_session_start(self, strategy, env, space, budget) -> None:
        self._journal.write_snapshot(
            self._session.history,
            self._session.strategy,
            _session_env_counters(self._session),
            status="running",
        )

    def on_trial_start(self, index: int, config) -> None:
        pass

    def on_trial_end(self, trial: Trial) -> None:
        if self._journal.on_trial(trial):
            self._journal.write_snapshot(
                self._session.history,
                self._session.strategy,
                _session_env_counters(self._session),
                status="running",
            )

    def on_round_end(self, round_index, trials, history) -> None:
        pass

    def on_session_end(self, result) -> None:
        self._journal.write_snapshot(
            result.history,
            self._session.strategy,
            _session_env_counters(self._session),
            status="complete",
        )
        self._journal.close()


class JournalledStrategy(SearchStrategy):
    """Strategy proxy threading every probe through the journal.

    Delegates all proposal/observation hooks to the wrapped strategy;
    only :meth:`measure` is intercepted — during replay it pops the next
    durable probe record instead of probing (restoring environment
    counters as it goes), and once the log is exhausted it probes live
    and appends the record before the executor acts on the result.
    The session uses this proxy for its loop only; callbacks and the
    result still see the inner strategy.
    """

    def __init__(self, inner: SearchStrategy, journal: CheckpointJournal) -> None:
        self.inner = inner
        self._journal = journal
        self.name = inner.name

    def propose(self, history, space, rng) -> ConfigDict:
        return self.inner.propose(history, space, rng)

    def propose_batch(self, history, space, rng, k, shards=None):
        return self.inner.propose_batch(history, space, rng, k, shards=shards)

    def propose_async(self, history, pending, space, rng, shard=None):
        return self.inner.propose_async(history, pending, space, rng, shard=shard)

    def observe(self, trial) -> None:
        self.inner.observe(trial)

    def finished(self, history, space) -> bool:
        return self.inner.finished(history, space)

    def reset(self) -> None:
        self.inner.reset()

    def snapshot_state(self) -> Optional[dict]:
        return self.inner.snapshot_state()

    def measure(self, env, config: ConfigDict):
        record = self._journal.next_probe_record()
        if record is not None:
            return self._journal.replay_measurement(record, env, config)
        measurement = self.inner.measure(env, config)
        self._journal.record_probe(config, measurement, env)
        return measurement
