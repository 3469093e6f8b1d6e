"""Deterministic non-stationarity: drift schedules over virtual time.

A frozen :class:`TrainingEnvironment` models one tuning session against a
static cluster.  Production clusters drift — co-tenant interference comes
and goes, stragglers appear mid-session, spot capacity gets preempted —
and a tuner that converges once and stops exploring serves a stale
configuration the moment the optimum moves.  This module makes drift a
first-class *simulation axis* while preserving the repo's core invariant:
everything is a pure function of virtual time and the construction seed,
so same-seed replays stay bit-identical.

A :class:`DriftSchedule` maps a virtual timestamp to a :class:`DriftState`:

- ``speed_scale(s)`` — per-node multipliers on the cluster's persistent
  speed factors (< 1.0 slows a node down: interference, thermal
  throttling, a straggler).  Schedules that slow every node uniformly
  return a scalar; :class:`StragglerOnset` returns a per-node vector.
- ``intensity`` — a workload-intensity multiplier (> 1.0 = the probe jobs
  themselves got heavier: larger co-scheduled batch jobs, datacenter-wide
  I/O contention).  Divides measured throughput.
- ``failure_rate_boost`` — additive transient-failure probability on top
  of the environment's base ``transient_failure_rate`` (spot reclamation
  waves, flaky ToR switch).

Schedules compose: :class:`CompositeDrift` multiplies speed scales and
intensities and sums failure boosts.  All schedules are frozen dataclasses
— hashable, so caches (e.g. the optimum memoiser) can key on them.

The environment owns a virtual clock (``TrainingEnvironment.clock_s``,
stamped by the executors with the session's wall-clock before each probe);
a schedule never holds mutable state.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "DriftState",
    "DriftSchedule",
    "StepDrift",
    "RampDrift",
    "PeriodicDrift",
    "StragglerOnset",
    "CompositeDrift",
    "parse_drift_spec",
]


@dataclass(frozen=True)
class DriftState:
    """The environment's drift condition at one virtual timestamp.

    ``speed_scale`` is either a scalar (uniform slowdown) or a tuple of
    per-node multipliers; ``intensity`` divides throughput;
    ``failure_rate_boost`` adds to the transient-failure probability.
    The identity state is ``(1.0, 1.0, 0.0)``.
    """

    speed_scale: Union[float, Tuple[float, ...]] = 1.0
    intensity: float = 1.0
    failure_rate_boost: float = 0.0

    @property
    def is_identity(self) -> bool:
        return (
            self.speed_scale == 1.0
            and self.intensity == 1.0
            and self.failure_rate_boost == 0.0
        )

    def node_scale(self, node: int) -> float:
        """The speed multiplier for one node index."""
        if isinstance(self.speed_scale, tuple):
            return self.speed_scale[node % len(self.speed_scale)]
        return self.speed_scale

    def mean_scale(self) -> float:
        """Mean per-node speed multiplier (mean-field summary)."""
        if isinstance(self.speed_scale, tuple):
            return float(np.mean(self.speed_scale)) if self.speed_scale else 1.0
        return self.speed_scale


def _require_finite(schedule: "DriftSchedule") -> None:
    """Reject NaN and infinite numeric fields (NaN passes every ordering check)."""
    for item in fields(schedule):
        value = getattr(schedule, item.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{item.name} must be finite, got {value!r}")


class DriftSchedule:
    """Base class: a pure function of virtual time.

    Subclasses implement :meth:`state_at`; they must be deterministic
    (same ``(t, num_nodes)`` → same :class:`DriftState`, always) and
    should be frozen dataclasses so environments and caches can hash them.
    """

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Summary dict for experiment logs."""
        return {"kind": type(self).__name__}


@dataclass(frozen=True)
class StepDrift(DriftSchedule):
    """An abrupt, persistent regime change at ``at_s``.

    Before ``at_s`` the state is the identity; from ``at_s`` on every node
    runs at ``speed_scale``, the workload intensity is ``intensity`` and
    transient failures get ``failure_rate_boost`` added — the canonical
    "a big co-tenant landed on the cluster" event.
    """

    at_s: float
    speed_scale: float = 1.0
    intensity: float = 1.0
    failure_rate_boost: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if self.speed_scale <= 0:
            raise ValueError("speed_scale must be positive")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if not 0.0 <= self.failure_rate_boost < 1.0:
            raise ValueError("failure_rate_boost must be in [0, 1)")

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        if t < self.at_s:
            return DriftState()
        return DriftState(
            speed_scale=self.speed_scale,
            intensity=self.intensity,
            failure_rate_boost=self.failure_rate_boost,
        )

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "step",
            "at_s": self.at_s,
            "speed_scale": self.speed_scale,
            "intensity": self.intensity,
            "failure_rate_boost": self.failure_rate_boost,
        }


@dataclass(frozen=True)
class RampDrift(DriftSchedule):
    """A linear slide from the identity to ``speed_scale`` over a window.

    Interference that builds gradually (a co-tenant ramping its job up):
    identity before ``start_s``, linear interpolation of the uniform speed
    scale across ``[start_s, end_s]``, then held at ``speed_scale``.
    """

    start_s: float
    end_s: float
    speed_scale: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("need 0 <= start_s < end_s")
        if self.speed_scale <= 0:
            raise ValueError("speed_scale must be positive")

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        if t <= self.start_s:
            return DriftState()
        if t >= self.end_s:
            return DriftState(speed_scale=self.speed_scale)
        frac = (t - self.start_s) / (self.end_s - self.start_s)
        return DriftState(speed_scale=1.0 + frac * (self.speed_scale - 1.0))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "ramp",
            "start_s": self.start_s,
            "end_s": self.end_s,
            "speed_scale": self.speed_scale,
        }


@dataclass(frozen=True)
class PeriodicDrift(DriftSchedule):
    """Diurnal-style sinusoidal interference on the uniform speed scale.

    ``scale(t) = 1 - amplitude * (1 + sin(2π (t - phase_s)/period_s)) / 2``
    oscillates between 1.0 (off-peak) and ``1 - amplitude`` (peak
    contention) with period ``period_s`` — the shape of shared-cluster
    business-hours load.
    """

    period_s: float
    amplitude: float = 0.3
    phase_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        wave = math.sin(2.0 * math.pi * (t - self.phase_s) / self.period_s)
        return DriftState(speed_scale=1.0 - self.amplitude * (1.0 + wave) / 2.0)

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "periodic",
            "period_s": self.period_s,
            "amplitude": self.amplitude,
            "phase_s": self.phase_s,
        }


@dataclass(frozen=True)
class StragglerOnset(DriftSchedule):
    """A deterministic subset of nodes becomes ``slowdown``x slower at ``at_s``.

    The straggler set is drawn once from ``seed`` (never from the clock),
    so the same schedule object always afflicts the same nodes — this is
    the drift that *moves the optimum's location*, not just its height:
    placements and sync modes that tolerated homogeneous nodes suddenly
    pay a straggler tax, so the post-drift argmax differs from the
    pre-drift one.
    """

    at_s: float
    fraction: float = 0.25
    slowdown: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if self.slowdown <= 1.0:
            raise ValueError("slowdown must be > 1")

    def straggler_nodes(self, num_nodes: int) -> Tuple[int, ...]:
        """The afflicted node indices (at least one, deterministic)."""
        count = max(1, int(round(self.fraction * num_nodes)))
        rng = np.random.default_rng([int(self.seed), 0x5712A66])
        return tuple(sorted(rng.choice(num_nodes, size=min(count, num_nodes), replace=False).tolist()))

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        if t < self.at_s:
            return DriftState()
        scale = [1.0] * num_nodes
        for node in self.straggler_nodes(num_nodes):
            scale[node] = 1.0 / self.slowdown
        return DriftState(speed_scale=tuple(scale))

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "stragglers",
            "at_s": self.at_s,
            "fraction": self.fraction,
            "slowdown": self.slowdown,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CompositeDrift(DriftSchedule):
    """Several schedules at once: scales multiply, failure boosts add.

    Per-node vectors broadcast against scalars; two vectors multiply
    elementwise.  The summed failure boost is clipped below 1 so the
    combined failure probability stays a probability.
    """

    schedules: Tuple[DriftSchedule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedules", tuple(self.schedules))
        if not self.schedules:
            raise ValueError("CompositeDrift needs at least one schedule")

    def state_at(self, t: float, num_nodes: int) -> DriftState:
        scale: Union[float, List[float]] = 1.0
        intensity = 1.0
        boost = 0.0
        for schedule in self.schedules:
            state = schedule.state_at(t, num_nodes)
            part = state.speed_scale
            if isinstance(part, tuple):
                if isinstance(scale, float):
                    scale = [scale * p for p in part]
                else:
                    scale = [a * p for a, p in zip(scale, part)]
            elif part != 1.0:
                if isinstance(scale, float):
                    scale = scale * part
                else:
                    scale = [a * part for a in scale]
            intensity *= state.intensity
            boost += state.failure_rate_boost
        return DriftState(
            speed_scale=tuple(scale) if isinstance(scale, list) else scale,
            intensity=intensity,
            failure_rate_boost=min(boost, 0.999),
        )

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "composite",
            "schedules": [s.describe() for s in self.schedules],
        }


_SPEC_KINDS = {
    "step": (StepDrift, {"at": "at_s", "speed": "speed_scale", "intensity": "intensity", "failure": "failure_rate_boost"}),
    "ramp": (RampDrift, {"start": "start_s", "end": "end_s", "speed": "speed_scale"}),
    "periodic": (PeriodicDrift, {"period": "period_s", "amplitude": "amplitude", "phase": "phase_s"}),
    "stragglers": (StragglerOnset, {"at": "at_s", "fraction": "fraction", "slowdown": "slowdown", "seed": "seed"}),
}


def parse_drift_spec(text: str) -> Optional[DriftSchedule]:
    """Parse a CLI ``--drift`` string into a schedule.

    Grammar: semicolon-separated entries, each ``KIND:key=value,...`` —
    e.g. ``"stragglers:at=3600,fraction=0.25,slowdown=2.5;step:at=3600,
    intensity=1.2"`` composes a straggler onset with an intensity step,
    both firing one virtual hour in.  Returns ``None`` for an empty spec,
    a single schedule for one entry, a :class:`CompositeDrift` otherwise.
    Every error is a ``ValueError`` that names the offending entry.
    """
    schedules: List[DriftSchedule] = []
    for raw_entry in text.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        kind, sep, body = entry.partition(":")
        kind = kind.strip().lower()
        if kind not in _SPEC_KINDS:
            raise ValueError(
                f"unknown drift kind {kind!r}; valid kinds: {sorted(_SPEC_KINDS)}"
            )
        cls, keymap = _SPEC_KINDS[kind]
        kwargs: Dict[str, object] = {}
        if sep:
            for pair in body.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, eq, value = pair.partition("=")
                key = key.strip().lower()
                if not eq or key not in keymap:
                    raise ValueError(
                        f"bad drift entry {entry!r}: expected "
                        f"{kind}:{{{','.join(sorted(keymap))}}}=VALUE,..."
                    )
                field_name = keymap[key]
                try:
                    kwargs[field_name] = (
                        int(value) if field_name == "seed" else float(value)
                    )
                except ValueError:
                    raise ValueError(
                        f"bad drift entry {entry!r}: {key}={value.strip()!r} "
                        f"is not a number"
                    ) from None
        required = {item.name for item in fields(cls) if item.default is MISSING}
        missing = [
            key
            for key, field_name in keymap.items()
            if field_name in required and field_name not in kwargs
        ]
        if missing:
            raise ValueError(
                f"bad drift entry {entry!r}: missing required key(s) "
                f"{', '.join(missing)}"
            )
        try:
            schedules.append(cls(**kwargs))
        except ValueError as exc:
            raise ValueError(f"bad drift entry {entry!r}: {exc}") from None
    if not schedules:
        return None
    if len(schedules) == 1:
        return schedules[0]
    return CompositeDrift(tuple(schedules))
