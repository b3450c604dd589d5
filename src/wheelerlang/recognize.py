"""End-to-end pipeline: trim, minimize, rank, square, acyclicity, witness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .automata import Automaton, trim
from .bigsquare import _kahn_residue_codes, _witness_from_residue, count_pair_transitions, pair_codes
from .intervals import compute_rank_table, width_estimate
from .minimize import minimize

# The set-based oracles are not called here, but stay bound: perfbench's
# tracer looks up every square stage by its name in this module.
from .square import Witness, build_pruned_square, extract_witness, is_acyclic  # noqa: F401


@dataclass(frozen=True)
class Report:
    """Everything the pipeline learned about one input."""

    wheeler: bool
    n: int
    m: int
    n_min: int
    m_min: int
    width_estimate: int
    square_states: int
    square_transitions: int
    witness: Witness | None
    timings_ms: dict[str, float] = field(compare=False)
    input_mode: str = "dfa"

    def to_json_dict(self) -> dict:
        """Stable JSON field layout; timings are informational only."""
        return {
            "wheeler": self.wheeler,
            "n": self.n,
            "m": self.m,
            "n_min": self.n_min,
            "m_min": self.m_min,
            "width_estimate": self.width_estimate,
            "square_states": self.square_states,
            "square_transitions": self.square_transitions,
            "witness": None
            if self.witness is None
            else {
                "cycle": [list(p) for p in self.witness.cycle],
                "labels": self.witness.labels,
            },
            "timings_ms": dict(self.timings_ms),
            "input_mode": self.input_mode,
        }


def recognize(a: Automaton, input_mode: str = "dfa") -> Report:
    """Decide whether L(a) is Wheeler; non-Wheeler inputs get a witness cycle.

    Every input runs the same array engine (see `bigsquare`).  Timings are
    per stage in milliseconds; `total` is the measured wall time of the
    whole call, width estimate included.
    """
    if not a.deterministic:
        raise ValueError("recognizer requires a deterministic automaton")

    began = time.perf_counter()
    timings = dict.fromkeys(("trim", "minimize", "rank_table", "square", "acyclicity", "witness"), 0.0)

    def clock(name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[name] = (time.perf_counter() - t0) * 1000.0
        return out

    trimmed, _ = clock("trim", trim, a)
    a_min, _ = clock("minimize", minimize, trimmed)
    witness = None
    if a_min.n == 0:
        # empty language: nothing to sort, trivially Wheeler
        width, n2, m2 = 1, 0, 0
    else:
        table = clock("rank_table", compute_rank_table, a_min)
        square = clock("square", pair_codes, a_min, table)
        residue = clock("acyclicity", _kahn_residue_codes, square)
        if len(residue):
            witness = clock("witness", _witness_from_residue, a_min, square, residue)
        width, n2, m2 = width_estimate(table), 2 * square.pairs, count_pair_transitions(square)
    timings["total"] = (time.perf_counter() - began) * 1000.0
    return Report(
        wheeler=witness is None,
        n=a.n,
        m=a.m,
        n_min=a_min.n,
        m_min=a_min.m,
        width_estimate=width,
        square_states=n2,
        square_transitions=m2,
        witness=witness,
        timings_ms=timings,
        input_mode=input_mode,
    )
