"""One workload in one interpreter: generate, time, check, report as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's `src` and a
pinned PYTHONHASHSEED. Modes:

- measure: untraced passes over the corpus until --seconds are used, with
  the set-up probes (fresh interpreters importing wheelerlang) spread
  between them;
- trace: alternating untraced and traced passes (at least one of each);
- witness: one untraced pass, for comparing witnesses across hash seeds.

A pass runs every instance in sequence. An instance is timed from
`parse_automaton` (or `parse_regex` + `compile_regex`) until `recognize`
has returned its Report, witness included. Answer checks, garbage
collection and input generation happen between timed regions. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from spans import Tracer
from workloads import WORKLOADS, Instance, instances

import wheelerlang
from wheelerlang.bench import loglog_slope
from wheelerlang import (
    Witness,
    compile_regex,
    compute_rank_table,
    decode_witness,
    minimize,
    parse_automaton,
    parse_regex,
    trim,
    verify_witness,
)

SETUP_SPAWNS = 15
# CLOCK_MONOTONIC is shared by all processes on Linux, so the child's
# reading after the import ends the span started before spawning it
READY = (
    "import time, wheelerlang\n"
    "print(time.monotonic(), wheelerlang.__file__)\n"
)


def setup_probe() -> float:
    """Seconds from spawning an interpreter until it has imported wheelerlang."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", READY], stdout=subprocess.PIPE, text=True, timeout=60, check=True
    )
    ready, path = out.stdout.split(maxsplit=1)
    if path.strip() != wheelerlang.__file__:
        raise RuntimeError(f"the set-up probe imported wheelerlang from {path.strip()}")
    return float(ready) - t0


def run_instance(inst: Instance, tracer: Tracer | None = None, index: int = 0):
    """(automaton, report, seconds to verdict) for one instance."""
    span = tracer.span if tracer is not None else lambda name, instance: nullcontext()
    t0 = time.perf_counter()
    if inst.kind == "dfa":
        with span("automata.parse", index):
            a = parse_automaton(inst.text)
    else:
        with span("regex.parse", index):
            ast = parse_regex(inst.text)
        with span("regex.compile", index):
            a = compile_regex(ast)
    with span("recognize", index):
        report = wheelerlang.recognize(a, input_mode=inst.kind)
    return a, report, time.perf_counter() - t0


def check(inst: Instance, a, report) -> str | None:
    """Why the report is wrong, or None when verdict and witness hold."""
    if report.wheeler != inst.wheeler:
        return f"verdict {'wheeler' if report.wheeler else 'non-wheeler'}, reference says otherwise"
    w = report.witness
    if report.wheeler:
        return None if w is None else "wheeler verdict carries a witness"
    if w is None:
        return "non-wheeler verdict without a witness"
    a_min, _ = minimize(trim(a)[0])
    if not verify_witness(a_min, compute_rank_table(a_min), w):
        return "witness fails verify_witness"
    if inst.ov is not None:
        ov, layout, n3 = inst.ov
        # a {0,1}-rewritten instance keeps the original state ids below n3
        core = tuple((u, v) for u, v in w.cycle if u < n3 and v < n3)
        try:
            r, s = decode_witness(layout, Witness(core, ""))
        except ValueError as exc:
            return f"witness does not decode: {exc}"
        if any(x * y for x, y in zip(ov.a_vectors[r - 1], ov.b_vectors[s - 1])):
            return f"witness decodes to non-orthogonal pair ({r}, {s})"
    return None


class Corpus:
    """Per-instance results accumulated over passes."""

    def __init__(self, items: list[Instance]) -> None:
        self.items = items
        self.times: list[list[float]] = [[] for _ in items]
        self.traced_times: list[list[float]] = [[] for _ in items]
        self.reports: list = [None] * len(items)
        self.checked: list[tuple | None] = [None] * len(items)
        self.failures: list[dict] = []
        self.attempted = 0

    def run_pass(self, number: int, tracer: Tracer | None = None) -> float:
        """Run every instance once; returns the summed time to verdict."""
        total = 0.0
        for i, inst in enumerate(self.items):
            gc.collect()
            self.attempted += 1
            try:
                a, report, dt = run_instance(inst, tracer, i)
            except Exception as exc:  # any crash is a failed instance, not a stop
                self.failures.append({"instance": inst.name, "pass": number, "reason": repr(exc)})
                continue
            total += dt
            (self.times if tracer is None else self.traced_times)[i].append(dt)
            self.reports[i] = report
            witness = None if report.witness is None else (report.witness.cycle, report.witness.labels)
            key = (report.wheeler, witness)
            if self.checked[i] is None or self.checked[i][0] != key:
                self.checked[i] = (key, check(inst, a, report))
            if self.checked[i][1] is not None:
                self.failures.append({"instance": inst.name, "pass": number, "reason": self.checked[i][1]})
        return total

    def records(self) -> list[dict]:
        out = []
        for inst, times, traced, r in zip(self.items, self.times, self.traced_times, self.reports):
            rec = {"name": inst.name, "times": times, "traced_times": traced}
            if r is not None:
                rec.update(
                    n_min=r.n_min,
                    m_min=r.m_min,
                    width=r.width_estimate,
                    pairs=r.square_states,
                    pair_transitions=r.square_transitions,
                    wheeler=r.wheeler,
                    witness=None
                    if r.witness is None
                    else [[list(p) for p in r.witness.cycle], r.witness.labels],
                )
            out.append(rec)
        return out


def wall_vs_mp_slope(corpus: Corpus) -> float:
    """Log-log slope of per-instance best time against m_min * width."""
    points = [
        (r.m_min * r.width_estimate, min(times))
        for r, times in zip(corpus.reports, corpus.times)
        if r is not None and times and r.m_min > 0
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return loglog_slope(points)


def layer_totals(tracer: Tracer, corpus: Corpus) -> dict:
    """Per-layer sums over one traced pass."""
    duration, self_time, counts = tracer.totals()
    array_m2 = 0
    untimed = 0.0
    array_instances = {s.instance for s in tracer.spans if s.name == "bigsquare.peel"}
    for s in tracer.spans:
        r = corpus.reports[s.instance]
        if s.name == "recognize" and r is not None:
            untimed += (s.end - s.start) - r.timings_ms["total"] / 1000.0
            if s.instance in array_instances:
                array_m2 += r.square_transitions
    return {
        "duration": duration,
        "self": self_time,
        "counts": counts,
        "array_pair_transitions": array_m2,
        "untimed": untimed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "witness"), required=True)
    args = parser.parse_args()

    items = instances(args.workload, args.seed)
    # interleave the size classes, so that each class is timed across the
    # whole pass, not in one block: a quantile then sees the same mix of
    # machine speed as wall_s does
    random.Random(f"order/{args.seed}").shuffle(items)
    corpus = Corpus(items)
    # warm the allocator and numpy's first-call paths on an untimed instance;
    # an instance that crashes here fails again, counted, in the first pass
    try:
        run_instance(corpus.items[0])
    except Exception:
        pass

    walls: list[float] = []
    traced_walls: list[float] = []
    traces: list[dict] = []
    absent: list[str] = []
    setup: list[float] = []
    # stop before the next pass (or pair of passes) would pass --seconds of
    # measured time; checks between instances do not count
    if args.mode == "trace":
        while True:
            walls.append(corpus.run_pass(len(walls) + len(traced_walls)))
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls.append(corpus.run_pass(len(walls) + len(traced_walls), tracer))
            finally:
                tracer.uninstall()
            traces.append(layer_totals(tracer, corpus))
            absent = tracer.absent
            if sum(walls) + sum(traced_walls) + walls[-1] + traced_walls[-1] > args.seconds:
                break
    else:
        if args.mode == "measure":
            setup_probe()  # the first spawn warms the OS caches and is not counted
        while True:
            walls.append(corpus.run_pass(len(walls)))
            done = args.mode == "witness" or sum(walls) + statistics.median(walls) > args.seconds
            if args.mode == "measure":
                # spread the probes over the run, so that their median sees
                # the same phases of host speed as the passes do
                share = 1.0 if done else min(1.0, sum(walls) / args.seconds)
                while len(setup) < SETUP_SPAWNS * share:
                    setup.append(setup_probe())
            if done:
                break

    result = {
        "instances": corpus.records(),
        "walls": walls,
        "traced_walls": traced_walls,
        "setup": setup,
        "traces": traces,
        "absent": absent,
        "slope": wall_vs_mp_slope(corpus) if args.mode == "trace" else None,
        "attempted": corpus.attempted,
        "failures": corpus.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wheelerlang": wheelerlang.__file__,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
