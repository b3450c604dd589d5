"""DFA minimization as a whole-array Moore refinement over `Automaton.delta`.

Classes start as final / non-final.  Each round dense-ranks, per state,
the key (own class, class of its c-successor for every symbol c) with
`np.unique`, folding in one symbol at a time, so a round is O(sigma * n)
array work plus sigma sorts of n keys.  Classes only ever split, so the
first round that leaves the class count unchanged reaches the fixpoint.
The rounds number at most one more than the distinguishing depth (the
largest length of a shortest word telling two states apart) and at most
n; a deep chain such as b^k(aa)* takes about k rounds.
"""

from __future__ import annotations

import numpy as np

from .automata import Automaton, trim


def minimize(a: Automaton) -> tuple[Automaton, tuple[int | None, ...]]:
    """Unique minimum DFA for L(a) and the old-state -> class map.

    The input is trimmed first; the output keeps the partial transitions
    of the trimmed DFA and adds no sink.  Output blocks are numbered by
    their minimum original state id.
    """
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    trimmed, report = trim(a)
    n = trimmed.n
    if n == 0:
        return trimmed, tuple([None] * a.n)

    delta = trimmed.delta
    # a trimmed nonempty DFA has a final state, so these codes are dense
    cls = np.ones(n, dtype=np.int64)
    cls[list(trimmed.finals)] = 0
    old, count = 0, int(cls.max()) + 1
    while count > old:
        key = cls
        for row in delta:
            # a missing transition reads as one extra class, 0 (a trimmed
            # state never has an empty future, so none is equivalent to a
            # sink); every code stays below the radix n + 2
            succ = np.where(row >= 0, cls[row] + 1, 0)
            _, key = np.unique(key * (n + 2) + succ, return_inverse=True)
        cls, old, count = key, count, int(key.max()) + 1

    # number the blocks by their least state, whose delta column gives the edges
    _, first = np.unique(cls, return_index=True)
    reps = np.sort(first)
    block = np.searchsorted(reps, first)[cls].tolist()
    sym, i = np.nonzero(delta[:, reps] >= 0)
    edges = zip(sym.tolist(), i.tolist(), delta[sym, reps[i]].tolist())
    minimal = Automaton(
        count,
        frozenset((b, trimmed.alphabet.symbols[c], block[v]) for c, b, v in edges),
        block[trimmed.source],
        frozenset(block[q] for q in trimmed.finals),
        trimmed.alphabet,
    )
    return minimal, tuple(None if q is None else block[q] for q in report.state_map)
