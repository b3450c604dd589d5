"""Spans around wheelerlang's layers, recorded from outside the package.

`Tracer.install` replaces the functions `wheelerlang.recognize` calls, under
the names that module binds, with wrappers that record a span per call.
Spans nest under the `recognize` span the runner opens, and a layer's
self time is its duration minus the time its child spans cover. Nothing
under `src/` is edited; `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# name bound in wheelerlang.recognize -> span name
TRACED = {
    "trim": "automata.trim",
    "minimize": "minimize.minimize",
    "compute_rank_table": "intervals.rank_table",
    "width_estimate": "intervals.width_estimate",
    "build_pruned_square": "square.build",
    "is_acyclic": "square.peel",
    "extract_witness": "square.witness",
    "pair_codes": "bigsquare.pair_codes",
    "count_pair_transitions": "bigsquare.count_transitions",
    "_kahn_residue_codes": "bigsquare.peel",
    "_witness_from_residue": "bigsquare.witness",
}


def _result_counts(span: str, out) -> dict[str, int]:
    """Counters read off a traced call's return value."""
    if span == "intervals.rank_table":
        return {"fixpoint_depth": out.fixpoint_depth}
    if span == "bigsquare.peel":
        return {"residue_pairs": len(out)}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    instance: int | None = None
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; spans of one instance share `instance`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._instance: int | None = None
        self._saved: dict[str, object] = {}
        self.module = None

    @contextmanager
    def span(self, name: str, instance: int | None = None):
        """Record one span; a span opened inside it becomes its child."""
        if instance is not None:
            self._instance = instance
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent, instance=self._instance)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span) as record:
                out = fn(*args, **kwargs)
            record.counts.update(_result_counts(span, out))
            return out

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED that wheelerlang.recognize still binds."""
        # the package attribute `wheelerlang.recognize` is the function
        self.module = importlib.import_module("wheelerlang.recognize")
        for name, span in TRACED.items():
            fn = getattr(self.module, name, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved[name] = fn
            setattr(self.module, name, self.wrap(span, fn))

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(self.module, name, fn)
        self._saved.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, summed counters."""
        duration: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: dict[str, int] = {}
        for s in self.spans:
            d = s.end - s.start
            duration[s.name] = duration.get(s.name, 0.0) + d
            self_time[s.name] = self_time.get(s.name, 0.0) + d
            if s.parent is not None:
                parent = self.spans[s.parent].name
                self_time[parent] = self_time.get(parent, 0.0) - d
            for key, value in s.counts.items():
                counts[key] = counts.get(key, 0) + value
        return duration, self_time, counts
