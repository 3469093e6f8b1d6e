"""Outside tracer: spans recorded around a program's public methods.

The tracer never edits the program.  It replaces chosen class (or module,
or dict) attributes with thin wrappers for the length of a ``with
tracer.installed(plan):`` block and puts every original back on exit, so
code run outside the block is the unwrapped program.

Each wrapped call records one :class:`Span`: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it began
(its parent), the trial it belongs to, and optional counts computed from
the call's arguments and result.  Spans stay in memory until the caller
writes them out.  A span's *self* time is its duration minus the time of
its direct children; on one thread, children are disjoint and nested in
the parent, so self times of all spans add up to the total time of the
root spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    trial: Optional[str] = None
    failed: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trial": self.trial,
            "failed": self.failed,
            "counts": self.counts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(**payload)


#: A span name, or a function of the call's ``(args, kwargs)`` giving it.
SpanName = Union[str, Callable[[tuple, dict], str]]


@dataclass
class Probe:
    """One attribute to wrap: ``owner.attr`` (or ``owner[attr]`` for a dict).

    ``before(args, kwargs)`` runs ahead of the call; its value is handed to
    ``counts(args, kwargs, result, before)``, which returns the counts to
    store on the span.  ``trial(args)`` returns a trial id that nested
    spans inherit for the duration of the call.
    """

    owner: Any
    attr: str
    name: SpanName
    counts: Optional[Callable[[tuple, dict, Any, Any], Dict[str, float]]] = None
    before: Optional[Callable[[tuple, dict], Any]] = None
    trial: Optional[Callable[[tuple], Optional[str]]] = None


def _read(owner: Any, attr: str) -> Any:
    """The raw stored value, bypassing descriptors (classmethod stays one)."""
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _write(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Records spans from wrapped calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._trial: Optional[str] = None
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------------

    def _call(self, probe: Probe, function: Callable, args: tuple, kwargs: dict):
        name = probe.name if isinstance(probe.name, str) else probe.name(args, kwargs)
        before = probe.before(args, kwargs) if probe.before is not None else None
        saved_trial = self._trial
        if probe.trial is not None:
            self._trial = probe.trial(args)
        span = Span(
            name=name,
            start=0.0,
            parent=self._stack[-1] if self._stack else None,
            trial=self._trial,
        )
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = self.clock()
        try:
            result = function(*args, **kwargs)
        except BaseException:
            span.end = self.clock()
            span.failed = True
            raise
        else:
            span.end = self.clock()
            if probe.counts is not None:
                span.counts = probe.counts(args, kwargs, result, before)
            return result
        finally:
            self._stack.pop()
            self._trial = saved_trial

    def _wrapper(self, probe: Probe, original: Any) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrapper(probe, original.__func__))

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return self._call(probe, original, args, kwargs)

        return wrapped

    # -- installing ---------------------------------------------------------

    @contextmanager
    def installed(self, probes: Sequence[Probe]) -> Iterator["Tracer"]:
        """Wrap every probe's attribute for the block; restore all on exit."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for probe in probes:
                original = _read(probe.owner, probe.attr)
                self._patches.append((probe.owner, probe.attr, original))
                _write(probe.owner, probe.attr, self._wrapper(probe, original))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                _write(owner, attr, original)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


def root_time(spans: Sequence[Span]) -> float:
    """Total time covered by spans that have no parent."""
    return sum(span.duration for span in spans if span.parent is None)
