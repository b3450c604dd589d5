"""Pruned square automaton: build, acyclicity test, witness cycles.

The pruned square keeps exactly the ordered state pairs (u, v) with
u != v whose open co-lex intervals intersect, and the synchronized
transitions between such pairs.  The language is Wheeler exactly when
this graph is acyclic; a cycle, with its labels, is the certificate of
non-Wheelerness.

The hash-set builders and the set-based peeling and witness walk here
are independent test oracles: `recognize` runs the array engine in
`bigsquare`.  `Witness` and `verify_witness` are shared by both.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Automaton
from .intervals import RankTable, intervals_intersect

Pair = tuple[int, int]


@dataclass(frozen=True)
class PrunedSquare:
    """Pair states and synchronized pair transitions; symmetric by construction."""

    pair_states: frozenset[Pair]
    pair_transitions: frozenset[tuple[Pair, str, Pair]]

    @property
    def n2(self) -> int:
        return len(self.pair_states)

    @property
    def m2(self) -> int:
        return len(self.pair_transitions)


@dataclass(frozen=True)
class Witness:
    """A pair-state cycle and the string labeling it."""

    cycle: tuple[Pair, ...]
    labels: str


def _colex_state_order(t: RankTable) -> list[int]:
    # non-singleton states sorted by infimum rank; singleton intervals are
    # empty and can never contribute a pair, and dropping them keeps the
    # intersecting runs contiguous (left endpoints nondecreasing)
    return sorted(
        (u for u in range(t.n) if not t.singleton(u)),
        key=lambda u: (t.inf_rank[u], u),
    )


def build_pruned_square(a_min: Automaton, t: RankTable) -> PrunedSquare:
    """Output-sensitive construction via two-pointer scans in infimum order."""
    order = _colex_state_order(t)
    pairs: set[Pair] = set()
    i, j = 0, 1
    while i < len(order):
        if j < len(order) and intervals_intersect(t, order[i], order[j]):
            pairs.add((order[i], order[j]))
            pairs.add((order[j], order[i]))
            j += 1
        else:
            i += 1
            j = i + 1

    transitions: set[tuple[Pair, str, Pair]] = set()
    for c in a_min.alphabet.symbols:
        la = [u for u in order if a_min.step(u, c) is not None]
        i, j = 0, 1
        while i < len(la):
            if j >= len(la) or (la[i], la[j]) not in pairs:
                i += 1
                j = i + 1
                continue
            tu, tv = a_min.step(la[i], c), a_min.step(la[j], c)
            if (tu, tv) in pairs:
                transitions.add(((la[i], la[j]), c, (tu, tv)))
                transitions.add(((la[j], la[i]), c, (tv, tu)))
            j += 1
    return PrunedSquare(frozenset(pairs), frozenset(transitions))


def build_full_square(a_min: Automaton, t: RankTable) -> PrunedSquare:
    """Oracle path: materialize all state pairs, then filter.  O(n^2) work."""
    pairs: set[Pair] = set()
    for u in range(a_min.n):
        for v in range(a_min.n):
            if u != v and intervals_intersect(t, u, v):
                pairs.add((u, v))
    transitions: set[tuple[Pair, str, Pair]] = set()
    for u, v in pairs:
        for c, tu in a_min.out_edges[u]:
            tv = a_min.step(v, c)
            if tv is not None and (tu, tv) in pairs:
                transitions.add(((u, v), c, (tu, tv)))
    return PrunedSquare(frozenset(pairs), frozenset(transitions))


def _kahn_residue(sq: PrunedSquare) -> set[Pair]:
    """Pair states left after iteratively peeling in-degree-0 vertices."""
    indeg: dict[Pair, int] = {p: 0 for p in sq.pair_states}
    out: dict[Pair, list[Pair]] = {p: [] for p in sq.pair_states}
    for src, _, dst in sq.pair_transitions:
        indeg[dst] += 1
        out[src].append(dst)
    queue = deque(p for p, d in indeg.items() if d == 0)
    removed = 0
    while queue:
        p = queue.popleft()
        removed += 1
        for q in out[p]:
            indeg[q] -= 1
            if indeg[q] == 0:
                queue.append(q)
    return {p for p, d in indeg.items() if d > 0}


def is_acyclic(sq: PrunedSquare) -> bool:
    """Kahn peeling: acyclic iff every pair state gets removed."""
    return not _kahn_residue(sq)


def extract_witness(sq: PrunedSquare) -> Witness | None:
    """A cycle from the subgraph surviving Kahn peeling, or None if acyclic.

    Walks backwards along predecessors inside the residue until a pair
    state repeats, then trims the walk to the cycle.
    """
    residue = _kahn_residue(sq)
    if not residue:
        return None
    pred: dict[Pair, list[tuple[Pair, str]]] = {p: [] for p in residue}
    for src, c, dst in sq.pair_transitions:
        if src in residue and dst in residue:
            pred[dst].append((src, c))
    for lst in pred.values():
        lst.sort()

    start = min(residue)
    path = [start]
    labels: list[str] = []  # labels[i] is on the edge path[i+1] -> path[i]
    index = {start: 0}
    while True:
        q, c = pred[path[-1]][0]
        labels.append(c)
        if q in index:
            # walk closed at path[s]: forward cycle path[-1] -> ... -> path[s]
            # -> path[-1], with the just-collected label closing it
            s = index[q]
            cycle = tuple(reversed(path[s:]))
            cycle_labels = "".join(reversed(labels[s:-1])) + labels[-1]
            return Witness(cycle, cycle_labels)
        index[q] = len(path)
        path.append(q)


def verify_witness(a_min: Automaton, t: RankTable, w: Witness) -> bool:
    """Check every certificate condition directly against the automaton and table."""
    k = len(w.cycle)
    if k == 0 or len(w.labels) != k:
        return False
    for i in range(k):
        u, v = w.cycle[i]
        if not (0 <= u < a_min.n and 0 <= v < a_min.n):
            return False
        if u == v or not intervals_intersect(t, u, v):
            return False
        nu, nv = w.cycle[(i + 1) % k]
        c = w.labels[i]
        if a_min.step(u, c) != nu or a_min.step(v, c) != nv:
            return False
    return True
