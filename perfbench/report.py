"""Report mode: read a traced run's spans file and print two views.

1. The per-layer self-time table: for every span name, its calls, summed
   self time, share of the traced wall time, and counters.  The rows plus
   the time no span covered add up to the traced wall time.
2. The per-trial timeline: one line per trial id (``s<session>:<trial>``)
   in the order trials started, with its start offset, its duration and a
   bar splitting its self time into decide (``d``), probe (``p``),
   checkpoint (``c``) and session-loop (``.``) phases.

Run as ``python3 perfbench/run.py --report <spans.json>``.
"""

from __future__ import annotations

import json
from collections import OrderedDict, defaultdict
from typing import Dict, List

from perfbench.layers import layer_table
from perfbench.tracer import Span, root_time, self_times

#: Timeline phase of each layer (the span name's first component).
PHASES = {
    "tuner": "d",
    "parallel": "d",
    "bo": "d",
    "gp": "d",
    "configspace": "d",
    "acquisition": "d",
    "transfer": "d",
    "mlsim": "p",
    "checkpoint": "c",
}
BAR_WIDTH = 40


def layer_lines(spans: List[Span], traced_wall_s: float) -> List[str]:
    table = layer_table(spans)
    lines = [f"{'layer':24s} {'calls':>8s} {'self s':>10s} {'share':>7s}  counters"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        extra = {
            key: value
            for key, value in row.items()
            if key not in ("calls", "self_s") and value
        }
        counters = " ".join(f"{key}={value:g}" for key, value in sorted(extra.items()))
        lines.append(
            f"{name:24s} {int(row['calls']):8d} {row['self_s']:10.4f} "
            f"{row['self_s'] / traced_wall_s:7.2%}  {counters}"
        )
    remainder = traced_wall_s - root_time(spans)
    lines.append(
        f"{'(outside every span)':24s} {'':8s} {remainder:10.4f} "
        f"{remainder / traced_wall_s:7.2%}"
    )
    lines.append(f"{'traced wall':24s} {'':8s} {traced_wall_s:10.4f} {1:7.2%}")
    return lines


def timeline_lines(spans: List[Span]) -> List[str]:
    if not spans:
        return []
    origin = min(span.start for span in spans)
    trials: "OrderedDict[str, Dict]" = OrderedDict()
    for span, own in sorted(zip(spans, self_times(spans)), key=lambda pair: pair[0].start):
        if span.trial is None:
            continue
        entry = trials.setdefault(
            span.trial, {"start": span.start, "end": span.end, "phases": defaultdict(float)}
        )
        entry["end"] = max(entry["end"], span.end)
        entry["phases"][PHASES.get(span.name.split(".")[0], ".")] += own
    longest = max(sum(e["phases"].values()) for e in trials.values()) or 1.0
    lines = [f"{'trial':12s} {'start s':>9s} {'busy ms':>9s}  phases (d=decide p=probe "
             f"c=checkpoint .=loop; bar scaled to the busiest trial)"]
    for trial, entry in trials.items():
        busy = sum(entry["phases"].values())
        bar = "".join(
            phase * int(round(BAR_WIDTH * entry["phases"].get(phase, 0.0) / longest))
            for phase in "dpc."
        )
        lines.append(
            f"{trial:12s} {entry['start'] - origin:9.3f} {busy * 1000:9.2f}  {bar}"
        )
    return lines


def report(path: str) -> int:
    with open(path) as handle:
        data = json.load(handle)
    spans = [Span.from_dict(payload) for payload in data["spans"]]
    traced, untraced = data["traced_wall_s"], data["untraced_wall_s"]
    print(
        f"workload {data['workload']} seed {data['seed']}: traced {traced:.3f} s, "
        f"untraced {untraced:.3f} s, overhead {traced / untraced - 1:+.2%}, "
        f"{len(spans)} spans"
    )
    print()
    for line in layer_lines(spans, traced):
        print(line)
    print()
    for line in timeline_lines(spans):
        print(line)
    return 0
