"""Tests for the checkpoint/resume subsystem's serialization and recovery.

Covers torn writes end to end: payload round-trips at the bit level,
WAL torn-tail quarantine, corrupt/truncated/empty/deleted snapshots (which
resume never reads), malformed snapshots and WAL records, version
mismatches, divergence detection, the durable trial log, and the
repository quarantine — every failure produces a clean named error or
recovers to the last durable record, never a raw ``json.JSONDecodeError``
or ``KeyError``.
"""

import json
import os
import warnings

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    EnvironmentPool,
    EnvironmentShard,
    MLConfigTuner,
    TuningBudget,
)
from repro.core.checkpoint import CheckpointJournal, executor_fingerprint
from repro.core.session import (
    AsyncExecutor,
    JsonlTrialLog,
    ParallelExecutor,
    SerialExecutor,
    TuningSession,
)
from repro.core.transfer import HistoryRepository
from repro.core.trial import (
    RestoredEvent,
    Trial,
    TrialHistory,
    measurement_from_payload,
    measurement_to_payload,
)
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

NODES = 8


def space():
    return ml_config_space(NODES)


def make_env(seed=0):
    return TrainingEnvironment(
        get_workload("resnet50-imagenet"), homogeneous(NODES), seed=seed
    )


def rewrite_wal_header(ckpt, **changes):
    """Edit the WAL's header record in place (``meta`` keys merge)."""
    with open(ckpt.wal_path) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    header["meta"].update(changes.pop("meta", {}))
    header.update(changes)
    lines[0] = json.dumps(header)
    with open(ckpt.wal_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def cli_tune(path, *extra):
    from repro.cli import main as cli_main

    return cli_main(
        ["tune", "--workload", "resnet50-imagenet", "--nodes", str(NODES),
         "--trials", "5", "--strategy", "random", "--seed", "1",
         "--checkpoint", path, *extra]
    )


def run_checkpointed(tmp_path, trials=8, seed=1, name="s.ckpt"):
    ckpt = CheckpointConfig(str(tmp_path / name))
    result = TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=trials), seed=seed,
        checkpoint=ckpt,
    )
    return ckpt, result


# -- payload round-trips -----------------------------------------------------


def test_measurement_payload_roundtrip_is_bit_exact():
    env = make_env()
    rng = np.random.default_rng(0)
    from repro.configspace import to_training_config

    for _ in range(5):
        config = space().sample(rng)
        m = env.measure(to_training_config(config))
        m2 = measurement_from_payload(
            json.loads(json.dumps(measurement_to_payload(m)))
        )
        assert measurement_to_payload(m2) == measurement_to_payload(m)
        assert m2.objective == m.objective
        assert m2.tta_s == m.tta_s  # inf round-trips


def test_history_payload_roundtrip_is_bit_exact():
    result = TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=6), seed=3
    )
    history = result.history
    history.record_event(RestoredEvent("marker", {"trial_index": 2}))
    payload = json.loads(json.dumps(history.to_payload()))
    restored = TrialHistory.from_payload(payload)
    assert restored.to_payload() == history.to_payload()
    assert restored.total_cost_s == history.total_cost_s
    assert restored.total_wall_clock_s == history.total_wall_clock_s
    assert restored.cost_by_shard() == history.cost_by_shard()
    assert restored.events[-1].trial_index == 2


def test_restored_event_preserves_fields_and_raises_on_missing():
    event = RestoredEvent("DriftEvent", {"trial_index": 7})
    assert event.trial_index == 7
    with pytest.raises(AttributeError):
        event.nonexistent


# -- torn-write recovery -----------------------------------------------------


def test_torn_final_wal_record_recovers_to_last_durable(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    wal = ckpt.wal_path
    size = os.path.getsize(wal)
    with open(wal, "r+b") as handle:
        handle.truncate(size - 7)  # mid-record
    with pytest.warns(UserWarning, match="quarantined"):
        result = TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    # The torn tail re-probes live; the continuation is still identical.
    assert result.history.to_payload() == baseline.history.to_payload()
    assert os.path.exists(ckpt.quarantine_path)


def test_corrupt_wal_middle_quarantines_suffix(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    with open(ckpt.wal_path) as handle:
        lines = handle.read().splitlines()
    lines[3] = '{"type": %% garbage'
    with open(ckpt.wal_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="quarantined"):
        result = TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    assert result.history.to_payload() == baseline.history.to_payload()


def without_warnings(call):
    """``call()``, failing on any warning it emits (a killed session's
    unclosed WAL handle may be collected meanwhile; that one is not)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", ResourceWarning)
        return call()


def resume_without_warnings(ckpt):
    return without_warnings(
        lambda: TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    )


def test_truncated_snapshot_falls_back_to_wal_header(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    with open(ckpt.path, "w") as handle:
        handle.write('{"version": 2, "trials"')  # torn snapshot write
    # Resume reads only the WAL: a torn snapshot costs nothing, not even
    # a warning.
    result = resume_without_warnings(ckpt)
    assert result.history.to_payload() == baseline.history.to_payload()


def test_empty_snapshot_falls_back_to_wal_header(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    open(ckpt.path, "w").close()
    result = resume_without_warnings(ckpt)
    assert result.history.to_payload() == baseline.history.to_payload()


def test_deleted_snapshot_resumes_identically_without_warning(tmp_path):
    from repro.core.session import SerialExecutor
    from repro.harness.chaos import (
        result_fingerprint,
        resume_session,
        run_baseline,
        run_with_kill,
    )

    budget = TuningBudget(max_trials=8)
    args = (lambda: MLConfigTuner(n_initial=4), SerialExecutor, make_env, space())
    baseline = run_baseline(*args, budget, seed=3)
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    assert run_with_kill(*args, budget, ckpt, kill_at=4, seed=3)
    os.unlink(ckpt.path)
    resumed = without_warnings(lambda: resume_session(*args, ckpt))
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_missing_wal_is_a_named_error(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "nothing.ckpt"))
    with pytest.raises(CheckpointError, match="nothing to resume"):
        TuningSession(RandomSearch()).resume(ckpt, make_env(), space())


def test_both_snapshot_and_header_unreadable_is_a_named_error(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    with open(ckpt.wal_path, "w") as handle:
        handle.write("not json at all\n")
    with pytest.warns(UserWarning, match="quarantined"):
        with pytest.raises(CheckpointError, match="unreadable"):
            TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    # A parseable first record that is not a header is no better.
    with open(ckpt.wal_path, "w") as handle:
        handle.write('{"type": "probe", "k": 0}\n')
    with pytest.raises(CheckpointError, match="unreadable"):
        TuningSession(RandomSearch()).resume(ckpt, make_env(), space())


def test_version_mismatch_is_a_named_error(tmp_path):
    """A newer build's checkpoint and a v1 (snapshot-history) checkpoint
    both fail with the named error: on restore, inspection and the CLI."""
    for version in (CHECKPOINT_VERSION + 1, 1):
        path = str(tmp_path / f"v{version}.ckpt")
        assert cli_tune(path) == 0
        ckpt = CheckpointConfig(path)
        rewrite_wal_header(ckpt, version=version)
        with pytest.raises(CheckpointError, match="version"):
            TuningSession(RandomSearch()).restore(ckpt, make_env(), space())
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(ckpt.path)
        assert cli_tune(path, "--resume") == 2
        # The snapshot carries the version too; inspection checks it.
        rewrite_wal_header(ckpt, version=CHECKPOINT_VERSION)
        with open(ckpt.path) as handle:
            snapshot = json.load(handle)
        snapshot["version"] = version
        with open(ckpt.path, "w") as handle:
            json.dump(snapshot, handle)
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(ckpt.path)


def test_wal_header_version_mismatch_is_a_named_error(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    os.unlink(ckpt.path)
    for version in (CHECKPOINT_VERSION + 1, 1):
        rewrite_wal_header(ckpt, version=version)
        with pytest.raises(CheckpointError, match="version"):
            CheckpointJournal.load(ckpt)


def _drop(key):
    return lambda document: document.pop(key)


def _set(key, value):
    return lambda document: document.__setitem__(key, value)


def _ledgers(key, value):
    return lambda document: document["ledgers"].__setitem__(key, value)


def _trial_field(key, value):
    return lambda document: document["trial"].__setitem__(key, value)


#: (name, "snapshot" | "wal", edit): each edit leaves a parseable but
#: malformed checkpoint.  WAL edits apply to the third trial record.
MALFORMED = [
    ("snapshot-no-ledgers", "snapshot", _drop("ledgers")),
    ("snapshot-no-trials", "snapshot", _drop("trials")),
    ("snapshot-no-status", "snapshot", _drop("status")),
    ("snapshot-no-env-counters", "snapshot", _drop("env_counters")),
    ("snapshot-no-strategy-state", "snapshot", _drop("strategy_state")),
    ("snapshot-trials-not-int", "snapshot", _set("trials", "5")),
    ("snapshot-ledgers-not-object", "snapshot", _set("ledgers", [1, 2])),
    ("snapshot-status-not-str", "snapshot", _set("status", 3)),
    ("snapshot-env-counters-not-object", "snapshot", _set("env_counters", [])),
    ("snapshot-strategy-state-not-object", "snapshot", _set("strategy_state", 7)),
    ("snapshot-ledger-missing", "snapshot",
     lambda document: document["ledgers"].pop("total_cost_s")),
    ("snapshot-ledger-not-number", "snapshot", _ledgers("total_cost_s", "x")),
    ("snapshot-shard-ledger-not-pairs", "snapshot", _ledgers("cost_by_shard", [1])),
    ("snapshot-event-not-object", "snapshot", _ledgers("events", [3])),
    ("snapshot-ahead-of-wal", "snapshot", _set("trials", 99)),
    ("snapshot-negative-trials", "snapshot", _set("trials", -1)),
    ("wal-trial-no-payload", "wal", _drop("trial")),
    ("wal-trial-payload-not-object", "wal", _set("trial", "x")),
    ("wal-trial-no-measurement", "wal",
     lambda document: document["trial"].pop("measurement")),
    ("wal-trial-index-not-int", "wal", _trial_field("index", "two")),
    ("wal-trial-measurement-not-object", "wal", _trial_field("measurement", 4)),
]


@pytest.mark.parametrize(
    "where,edit", [case[1:] for case in MALFORMED], ids=[c[0] for c in MALFORMED]
)
def test_malformed_checkpoint_is_a_named_error(tmp_path, where, edit):
    path = str(tmp_path / "s.ckpt")
    assert cli_tune(path) == 0
    ckpt = CheckpointConfig(path)
    if where == "snapshot":
        with open(path) as handle:
            snapshot = json.load(handle)
        edit(snapshot)
        with open(path, "w") as handle:
            json.dump(snapshot, handle)
    else:
        with open(ckpt.wal_path) as handle:
            lines = handle.read().splitlines()
        rows = [i for i, line in enumerate(lines) if '"type": "trial"' in line]
        record = json.loads(lines[rows[2]])
        edit(record)
        lines[rows[2]] = json.dumps(record)
        with open(ckpt.wal_path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        Checkpoint.load(path)
    # Resume reads only the WAL: a bad trial record is a divergence (exit
    # 2), while a bad snapshot does not stop the resume.
    assert cli_tune(path, "--resume") == (2 if where == "wal" else 0)


# -- fingerprint/divergence validation ---------------------------------------


def test_resume_with_wrong_strategy_is_rejected(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="strategy"):
        TuningSession(MLConfigTuner()).restore(ckpt, make_env(), space())


def test_resume_with_wrong_space_is_rejected(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="search space"):
        TuningSession(RandomSearch()).restore(
            ckpt, make_env(), ml_config_space(NODES * 2)
        )


def test_resume_with_wrong_executor_is_rejected(tmp_path):
    from repro.core.session import AsyncExecutor

    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="executor"):
        TuningSession(RandomSearch(), executor=AsyncExecutor(4)).restore(
            ckpt, make_env(), space()
        )


def _fingerprint_pool():
    return EnvironmentPool(
        [
            EnvironmentShard("a", make_env()),
            EnvironmentShard("b", make_env(), capacity=3, cost_multiplier=1.5),
        ]
    )


_POOL_FINGERPRINT = [
    ["a", 1, 1.0],
    ["b", 3, 1.5],
    ["scheduler", "RoundRobinScheduler", 0.0],
]


@pytest.mark.parametrize(
    "factory,expected",
    [
        (lambda: SerialExecutor(), ("SerialExecutor", 1, None)),
        (
            lambda: SerialExecutor(pool=_fingerprint_pool()),
            ("SerialExecutor", 1, _POOL_FINGERPRINT),
        ),
        (lambda: ParallelExecutor(4), ("ParallelExecutor", 4, None)),
        (
            lambda: ParallelExecutor(pool=_fingerprint_pool()),
            ("ParallelExecutor", 4, _POOL_FINGERPRINT),
        ),
        (lambda: AsyncExecutor(4), ("AsyncExecutor", 4, None)),
        (
            lambda: AsyncExecutor(pool=_fingerprint_pool()),
            ("AsyncExecutor", 4, _POOL_FINGERPRINT),
        ),
    ],
    ids=["serial", "serial-pool", "sync", "sync-pool", "async", "async-pool"],
)
def test_executor_fingerprint_is_pinned_per_preset(factory, expected):
    """On-disk checkpoints validate against these exact dicts: a change to
    any of them orphans every checkpoint written before it."""
    kind, workers, pool = expected
    fingerprint = executor_fingerprint(factory())
    assert fingerprint == {"kind": kind, "workers": workers, "pool": pool}
    assert json.loads(json.dumps(fingerprint)) == fingerprint


def test_resume_with_different_seed_diverges_loudly(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path, seed=1)
    rewrite_wal_header(ckpt, meta={"seed": 2})  # simulate operator error
    session = TuningSession(RandomSearch())
    with pytest.raises(CheckpointError, match="diverged"):
        session.restore(ckpt, make_env(), space())
        while session.step():
            pass


# -- inspection surface ------------------------------------------------------


def test_checkpoint_load_reports_progress(tmp_path):
    ckpt, result = run_checkpointed(tmp_path, trials=8)
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.version == CHECKPOINT_VERSION
    assert loaded.status == "complete"
    assert len(loaded.history) == 8
    assert loaded.wal_trials == 8
    assert loaded.wal_probes >= 8
    assert loaded.meta["seed"] == 1
    assert loaded.meta["budget"]["max_trials"] == 8
    assert loaded.history.to_payload() == result.history.to_payload()


def test_snapshot_cadence_bounds_snapshot_staleness(tmp_path):
    """The snapshot tracks every live trial: a kill right after trial 5
    leaves a six-trial history in the running checkpoint."""
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))

    class Kill(Exception):
        pass

    from repro.core.session import SessionCallback

    class Killer(SessionCallback):
        def on_trial_end(self, trial):
            if trial.index == 5:
                raise Kill()

    session = TuningSession(RandomSearch(), callbacks=[Killer()])
    with pytest.raises(Kill):
        session.run(
            make_env(), space(), TuningBudget(max_trials=8), seed=1,
            checkpoint=ckpt,
        )
    loaded = Checkpoint.load(ckpt.path)
    assert len(loaded.history) == 6
    assert loaded.wal_trials == 6
    assert loaded.status == "running"
    assert loaded.history.to_payload() == session.history.to_payload()


def test_snapshot_size_does_not_grow_with_trials(tmp_path):
    sizes = {}
    for trials in (5, 40):
        ckpt = CheckpointConfig(str(tmp_path / f"{trials}.ckpt"))
        TuningSession(MLConfigTuner(n_initial=4)).run(
            make_env(), space(), TuningBudget(max_trials=trials), seed=2,
            checkpoint=ckpt,
        )
        assert len(Checkpoint.load(ckpt.path).history) == trials
        sizes[trials] = os.path.getsize(ckpt.path)
    # Equal up to the printed width of the ledger and hyper floats.
    assert abs(sizes[40] - sizes[5]) <= 48, sizes


def test_strategy_snapshot_state_is_recorded_for_bo(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    TuningSession(MLConfigTuner(n_initial=4)).run(
        make_env(), space(), TuningBudget(max_trials=6), seed=2, checkpoint=ckpt
    )
    loaded = Checkpoint.load(ckpt.path)
    state = loaded.strategy_state
    assert state is not None
    assert state["incumbent"] is not None
    assert state["surrogate"]["n"] >= 4


# -- durable trial log -------------------------------------------------------


def test_durable_trial_log_matches_buffered(tmp_path):
    buffered, durable = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    TuningSession(RandomSearch(), callbacks=[JsonlTrialLog(buffered)]).run(
        make_env(), space(), TuningBudget(max_trials=5), seed=4
    )
    TuningSession(
        RandomSearch(), callbacks=[JsonlTrialLog(durable, durable=True)]
    ).run(make_env(), space(), TuningBudget(max_trials=5), seed=4)
    with open(buffered) as a, open(durable) as b:
        assert a.read() == b.read()


# -- repository quarantine ---------------------------------------------------


def _write_repo_with_corruption(path):
    repo = HistoryRepository(str(path))
    repo.add_session("w1", [({"a": 1}, 1.0), ({"a": 2}, 2.0)])
    repo.add_session("w2", [({"a": 3}, 3.0), ({"a": 4}, 4.0)])
    with open(path, "a") as handle:
        handle.write("{torn json line\n")
        handle.write('["not", "an", "object"]\n')


def test_repository_quarantines_corrupt_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    _write_repo_with_corruption(path)
    with pytest.warns(UserWarning, match=r"history\.jsonl:3"):
        repo = HistoryRepository(str(path))
    assert len(repo) == 2
    assert repo.quarantined_lines == 2
    assert sorted(repo.workloads()) == ["w1", "w2"]
    with open(str(path) + ".quarantine") as handle:
        assert len(handle.read().splitlines()) == 2


def test_repository_strict_mode_still_fails_loudly(tmp_path):
    path = tmp_path / "history.jsonl"
    _write_repo_with_corruption(path)
    with pytest.raises(ValueError, match="corrupt repository line"):
        HistoryRepository(str(path), strict=True)


def test_repository_quarantine_keeps_writes_working(tmp_path):
    path = tmp_path / "history.jsonl"
    _write_repo_with_corruption(path)
    with pytest.warns(UserWarning):
        repo = HistoryRepository(str(path))
    repo.add_session("w3", [({"a": 5}, 5.0), ({"a": 6}, 6.0)])
    clean = HistoryRepository(str(path))  # no warning: file was rewritten
    assert len(clean) == 3


# -- config validation -------------------------------------------------------


def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig("")
    ckpt = CheckpointConfig("x.ckpt")
    assert ckpt.wal_path == "x.ckpt.wal"
    assert ckpt.quarantine_path == "x.ckpt.wal.quarantine"


def test_snapshot_bytes_are_the_c_encoder_output(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    TuningSession(MLConfigTuner(n_initial=4)).run(
        make_env(), space(), TuningBudget(max_trials=6), seed=2, checkpoint=ckpt
    )
    with open(ckpt.path, "rb") as handle:
        raw = handle.read()
    assert raw == json.dumps(json.loads(raw)).encode("utf-8")


def test_unserialisable_strategy_state_is_replaced_by_a_marker(tmp_path):
    class Opaque(RandomSearch):
        def snapshot_state(self):
            return {"handle": object()}

    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    TuningSession(Opaque()).run(
        make_env(), space(), TuningBudget(max_trials=3), seed=2, checkpoint=ckpt
    )
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.strategy_state == {
        "error": "snapshot_state() returned non-JSON state"
    }
    assert len(loaded.history) == 3
