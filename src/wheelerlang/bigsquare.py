"""Array-backed pruned square: pair index, linear-time peeling, witness.

The pruned square is symmetric under (u, v) <-> (v, u), so only unordered
pairs are stored.  Non-singleton states are sorted by infimum rank (ties
by id); position i then intersects exactly the positions
i < j < run_end[i], where run_end[i] is the first position whose infimum
is not below i's supremum.  Pair (i, j) gets the index
starts[i] + j - i - 1, with starts the exclusive prefix sum of the run
lengths.  A pair's successor on symbol c is found by arithmetic: take
the positions of delta(u, c) and delta(v, c), order them as (lo, hi) and
check hi < run_end[lo].  No code u*n + v is ever formed, so nothing
overflows at any automaton size.

Each unordered edge {u, v} -c-> {x, y} stands for exactly two ordered
edges of the full square, so n2 and m2 are twice the unordered counts.
The unordered quotient has a cycle iff the square does.  A square cycle
projects to a closed walk of the quotient.  Conversely, lifting a
quotient cycle from (u, v) ends after one round at (u, v) or at
(v, u); in the second case a second round, which repeats the labels
from the flipped pair, closes the cycle.  Lifted witnesses are at most
twice the quotient cycle's length.

Peeling is Kahn's algorithm by frontiers: in-degrees by `bincount`, then
each round touches only the successors of the pairs it removes, so every
pair transition is visited once whatever the number of rounds.

The witness walks backwards through the residue R, from its smallest
pair to the smallest residue predecessor (smallest symbol on ties),
until a pair repeats.  Predecessors are found lazily, never tabulated.
Setup lists, per symbol c and position x, the positions whose c-successor
is x, ascending (one argsort over sigma * k entries, k the non-singleton
states), and a residue mask of one byte per pair.  The predecessors of
pair (i, j) on c are the pairs (s, t) with s in in_c(i) and t in in_c(j)
or the other way round, s < t < run_end[s].  For each s, the admissible
t form one range of the sorted in-list, found by bisection, and its
first residue member is s's smallest.  A step on (i, j) therefore costs
sum_c (|in_c(i)| + |in_c(j)|) * log n plus the real in-edges it scans,
and a walk scans at most m2 of those in all; it never allocates
anything of size sigma * |R|.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .automata import Automaton
from .intervals import RankTable
from .square import Witness


@dataclass(frozen=True)
class UnorderedSquare:
    """Unordered intersecting pairs and their successor table.

    `order[i]` is the state at position i and `run_end[i]` bounds i's
    run.  `succ[c, p]` is the index of pair p's successor on the c-th
    alphabet symbol, or -1.
    """

    order: np.ndarray
    run_end: np.ndarray
    succ: np.ndarray

    @property
    def pairs(self) -> int:
        return self.succ.shape[1]


def pair_codes(a_min: Automaton, t: RankTable) -> UnorderedSquare:
    """Index every unordered intersecting pair and tabulate its successors."""
    sigma = len(a_min.alphabet)
    inf = np.asarray(t.inf_rank, dtype=np.int64)
    sup = np.asarray(t.sup_rank, dtype=np.int64)
    ns = np.flatnonzero(inf < sup)
    order = ns[np.lexsort((ns, inf[ns]))].astype(np.int32)
    k = len(order)
    run_end = np.searchsorted(inf[order], sup[order], side="left")
    counts = run_end - np.arange(k) - 1
    h = int(counts.sum())
    index = np.int32 if h < 2**31 else np.int64
    starts = (np.cumsum(counts) - counts).astype(index)
    run_end = run_end.astype(np.int32)

    # position of each state's c-successor, -1 where the successor is a
    # singleton or missing (the extra last slot answers delta's -1)
    position = np.full(t.n + 1, -1, dtype=np.int32)
    position[order] = np.arange(k, dtype=np.int32)
    step = position[a_min.delta[:, order]]

    first = np.repeat(np.arange(k, dtype=np.int32), counts)
    second = (np.arange(h, dtype=index) - starts[first] + first + 1).astype(np.int32)
    succ = np.empty((sigma, h), dtype=index)
    for c in range(sigma):
        x = step[c, first]
        y = step[c, second]
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        safe = np.maximum(lo, 0)
        ok = (lo >= 0) & (hi > lo) & (hi < run_end[safe])
        succ[c] = np.where(ok, starts[safe] + (hi - safe - 1), -1)
    return UnorderedSquare(order, run_end, succ)


def count_pair_transitions(sq: UnorderedSquare) -> int:
    """m2 of the ordered square: twice the unordered successor entries."""
    return 2 * int(np.count_nonzero(sq.succ >= 0))


def _kahn_residue_codes(sq: UnorderedSquare) -> np.ndarray:
    """Sorted indices of the pairs that frontier Kahn peeling cannot remove."""
    succ = sq.succ
    indeg = np.bincount(succ[succ >= 0], minlength=sq.pairs)
    frontier = np.flatnonzero(indeg == 0)
    while len(frontier):
        hit = succ[:, frontier].ravel()
        hit = np.sort(hit[hit >= 0])
        # one sort both merges duplicate hits and dedupes the next frontier
        first = np.flatnonzero(np.diff(hit, prepend=-1))
        targets = hit[first]
        indeg[targets] -= np.diff(first, append=len(hit))
        frontier = targets[indeg[targets] == 0]
    return np.flatnonzero(indeg)


def _witness_from_residue(a_min: Automaton, sq: UnorderedSquare, residue: np.ndarray) -> Witness:
    """Deterministic cycle through the residue, lifted to ordered pairs.

    Walks backwards from the smallest residue pair, always to its
    smallest residue predecessor (smallest symbol on ties), until the
    walk closes a cycle.  Predecessors are enumerated lazily from the
    automaton's in-edges (see the module docstring).
    """
    symbols = a_min.alphabet.symbols
    sigma = len(symbols)
    k = len(sq.order)
    position = np.full(a_min.n + 1, -1, dtype=np.int32)
    position[sq.order] = np.arange(k, dtype=np.int32)
    step = position[a_min.delta[:, sq.order]]
    # the positions whose c-successor is position x, ascending, are
    # sources[head[c*k + x] : head[c*k + x + 1]]
    sym, src = np.nonzero(step >= 0)
    key = sym * k + step[sym, src]
    sources = src[np.argsort(key, kind="stable")].tolist()
    head = [0] + np.bincount(key, minlength=sigma * k).cumsum().tolist()
    ends = np.cumsum(sq.run_end - np.arange(k) - 1)
    # pair (lo, hi) has index offset[lo] + hi
    offset = (ends - sq.run_end).tolist()
    run_end = sq.run_end.tolist()
    in_residue = bytearray(sq.pairs)
    np.frombuffer(in_residue, dtype=np.uint8)[residue] = 1

    def first_edge(x0: int, x1: int, y0: int, y1: int) -> tuple[int, int] | None:
        # smallest residue pair (s, t) with s < t < run_end[s], s from
        # sources[x0:x1] and t from sources[y0:y1]
        for a in range(x0, x1):
            s = sources[a]
            lo = bisect_right(sources, s, y0, y1)
            for b in range(lo, bisect_left(sources, run_end[s], lo, y1)):
                if in_residue[offset[s] + sources[b]]:
                    return s, sources[b]
        return None

    def predecessor(i: int, j: int) -> tuple[tuple[int, int], int]:
        best = None
        for c in range(sigma):
            x0, x1 = head[c * k + i], head[c * k + i + 1]
            y0, y1 = head[c * k + j], head[c * k + j + 1]
            if x0 == x1 or y0 == y1:
                continue
            for found in (first_edge(x0, x1, y0, y1), first_edge(y0, y1, x0, x1)):
                if found is not None and (best is None or found < best[0]):
                    best = (found, c)
        return best

    first = int(residue[0])
    i = int(np.searchsorted(ends, first, side="right"))
    p = (i, first - offset[i])
    pred = {}
    while p not in pred:
        pred[p] = predecessor(*p)
        p = pred[p][0]
    # p is on the cycle; going round it backwards collects the labels
    back = []
    q = p
    while not back or q != p:
        q, c = pred[q]
        back.append(c)
    word = back[::-1] * 2

    # lift from p's (lower, higher) orientation; a round that ends
    # flipped takes a second round
    start = (int(sq.order[p[0]]), int(sq.order[p[1]]))
    cycle = [start]
    delta = a_min.delta
    for c in word:
        u, v = cycle[-1]
        nxt = (int(delta[c, u]), int(delta[c, v]))
        if nxt == start:
            break
        cycle.append(nxt)
    return Witness(tuple(cycle), "".join(symbols[c] for c in word[: len(cycle)]))
