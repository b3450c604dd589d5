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
"""

from __future__ import annotations

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
    walk closes a cycle.
    """
    symbols = a_min.alphabet.symbols
    sigma = len(symbols)
    # rank[p] is p's position in the residue, -1 outside it or for succ's -1
    rank = np.full(sq.pairs + 1, -1, dtype=sq.succ.dtype)
    rank[residue] = np.arange(len(residue), dtype=sq.succ.dtype)
    dst = rank[sq.succ[:, residue]]
    sym, col = np.nonzero(dst >= 0)
    # key = residue position of the predecessor, then symbol
    best = np.full(len(residue), np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(best, dst[sym, col], col.astype(np.int64) * sigma + sym)

    seen = set()
    p = 0
    while p not in seen:
        seen.add(p)
        p = int(best[p]) // sigma
    # p is on the cycle; going round it backwards collects the labels
    back = []
    q = p
    while not back or q != p:
        q, c = divmod(int(best[q]), sigma)
        back.append(c)
    word = back[::-1] * 2

    # invert the pair index of p, then lift from its (lower, higher)
    # orientation; a round that ends flipped takes a second round
    pair = int(residue[p])
    ends = np.cumsum(sq.run_end - np.arange(len(sq.order)) - 1)
    i = int(np.searchsorted(ends, pair, side="right"))
    start = (int(sq.order[i]), int(sq.order[pair - int(ends[i]) + int(sq.run_end[i])]))
    cycle = [start]
    delta = a_min.delta
    for c in word:
        u, v = cycle[-1]
        nxt = (int(delta[c, u]), int(delta[c, v]))
        if nxt == start:
            break
        cycle.append(nxt)
    return Witness(tuple(cycle), "".join(symbols[c] for c in word[: len(cycle)]))
