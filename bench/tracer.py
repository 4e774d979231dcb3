"""Outside-in tracing: spans around the public calls the benchmark makes.

Nothing in the library is instrumented.  The benchmark routes each public
call through ``call`` and each field it builds through ``Tracer.field``;
with no tracer both are plain pass-throughs, so the untraced run executes
the same code as a run without this module.

A span is (name, start, end, parent, points, pass, tag).  Field spans are
children of the operator call that evaluated the field, and carry the
number of points evaluated; the tag tells calls of one name apart (the
dimension of a quadrature call, the scenario of a CLI run).  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

FIELD_SPAN = "fields.eval"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.pass_index = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, 0, self.pass_index, tag]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add to a per-pass counter taken from call results (iterations, sizes)."""
        self.counters[(self.pass_index, key)] += amount

    def field(self, fld):
        """The same field with its callable wrapped to record a span and count points.

        ``dataclasses.replace`` keeps every other attribute, so the library
        sees identical metadata; the wrapper returns the callable's result
        untouched.
        """
        func = fld.func

        def counted(first, *rest):
            with self.span(FIELD_SPAN) as rec:
                out = func(first, *rest)
            rec[4] = len(first)
            return out

        return dataclasses.replace(fld, func=counted)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "points", "pass", "tag")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, rec)) for rec in self.spans]}, fh)


def call(tr: Tracer | None, name: str, fn, *args, tag: str = "", **kwargs):
    """fn(*args, **kwargs), inside a span named ``name`` when tracing."""
    if tr is None:
        return fn(*args, **kwargs)
    with tr.span(name, tag):
        return fn(*args, **kwargs)


def field(tr: Tracer | None, fld):
    return fld if tr is None else tr.field(fld)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    return [rec[2] - rec[1] - _covered(children.get(i, ())) for i, rec in enumerate(spans)]


def points_under(spans) -> list[int]:
    """Field points evaluated within each span, its descendants included."""
    points = [0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children come after their parent
        points[i] += spans[i][4]
        if spans[i][3] >= 0:
            points[spans[i][3]] += points[i]
    return points


def pass_totals(tr: Tracer, passes) -> list[dict]:
    """Per traced pass: inclusive and self time, calls and points per span name.

    Keys are ``<name>|incl``, ``<name>|self``, ``<name>|calls`` and
    ``<name>|points``, plus the counters; an operator span's points are
    those its call evaluated.
    """
    selfs = self_times(tr.spans)
    points = points_under(tr.spans)
    out = {p: defaultdict(float) for p in passes}
    for i, rec in enumerate(tr.spans):
        if rec[5] not in out:
            continue
        acc = out[rec[5]]
        acc[rec[0] + "|incl"] += rec[2] - rec[1]
        acc[rec[0] + "|self"] += selfs[i]
        acc[rec[0] + "|calls"] += 1
        acc[rec[0] + "|points"] += points[i]
    for (p, key), value in tr.counters.items():
        if p in out:
            out[p][key] += value
    return [out[p] for p in passes]


def call_durations(tr: Tracer, name: str, passes, tag: str | None = None) -> list[float]:
    """Durations of every span called ``name`` (and tagged ``tag``) in the given passes."""
    keep = set(passes)
    return [rec[2] - rec[1] for rec in tr.spans
            if rec[0] == name and rec[5] in keep and (tag is None or rec[6] == tag)]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
