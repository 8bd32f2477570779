"""Per-layer self time from the span files ``launch.py --trace`` writes.

A layer's self time is the part of its spans' wall time that no child
span covers.  Children of one request can run on several threads at
once (the engine prepares a batch's files on its queue workers), so the
time is split by sweeping the timeline: each instant goes to the spans
that are active and have no active child, shared equally when several
are.  Under the interpreter lock those threads share one core, so an
equal share is what each of them gets.  The shares of a group of spans
sum to the wall time the group covers, never to more.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

NAME, START, END, ID, PARENT, REQUEST, VALUE = range(7)


@dataclass
class Attribution:
    """Self time and counts of one group of spans."""

    self_seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    values: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    covered: float = 0.0

    def add(self, other: "Attribution") -> None:
        for name, seconds in other.self_seconds.items():
            self.self_seconds[name] += seconds
        for name, calls in other.calls.items():
            self.calls[name] += calls
        for name, value in other.values.items():
            self.values[name] += value
        self.covered += other.covered


def attribute(spans: list[list]) -> Attribution:
    """Sweep ``spans`` (one request, or one whole process) and split the
    wall time they cover among the innermost active spans."""
    out = Attribution()
    by_id = {span[ID]: span for span in spans}
    events = [(span[START], 0, span[ID]) for span in spans]
    # Ends sort after starts at the same instant, children (larger ids)
    # before their parents.
    events += [(span[END], 1, -span[ID]) for span in spans]
    events.sort()
    active: set[int] = set()
    leaves: set[int] = set()
    active_children: dict[int, int] = defaultdict(int)
    last = None
    for time, is_end, key in events:
        if leaves and time > last:
            share = (time - last) / len(leaves)
            out.covered += time - last
            for leaf in leaves:
                out.self_seconds[by_id[leaf][NAME]] += share
        last = time
        span_id = -key if is_end else key
        parent = by_id[span_id][PARENT]
        parent_active = parent in active
        if not is_end:
            active.add(span_id)
            leaves.add(span_id)
            if parent_active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            if parent_active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    for span in spans:
        out.calls[span[NAME]] += 1
        out.values[span[NAME]] += span[VALUE]
    return out


def load(path: str) -> dict:
    return json.loads(open(path).read())


@dataclass
class RequestTrace:
    """The spans of one ``/analyze`` request, split by layer."""

    paths: list[str]
    root_seconds: float
    attribution: Attribution

    @property
    def error(self) -> float:
        """How far the layers' self times miss the root span's wall time,
        as a share of it: time spent outside the root by spans of this
        request."""
        return abs(self.attribution.covered - self.root_seconds) / self.root_seconds


def requests_in_window(trace: dict, start: float, end: float) -> tuple[list[RequestTrace], float]:
    """Every request whose root span starts in ``[start, end)``, plus the
    wall time of spans in that window that belong to no request (work
    the propagation lost track of)."""
    grouped: dict[int, list[list]] = defaultdict(list)
    orphans = []
    for span in trace["spans"]:
        if span[REQUEST] is not None:
            grouped[span[REQUEST]].append(span)
        elif start <= span[START] < end and not span[NAME].startswith("cli."):
            orphans.append(span)
    out = []
    for request, spans in grouped.items():
        root = min(spans, key=lambda span: span[ID])
        if not start <= root[START] < end:
            continue
        out.append(
            RequestTrace(
                paths=trace["requests"][str(request)],
                root_seconds=root[END] - root[START],
                attribution=attribute(spans),
            )
        )
    return out, attribute(orphans).covered if orphans else 0.0
