"""Reference verdicts computed without `wheelerlang.recognize`.

The slow path the recognizer is checked against: minimize, the rank
fixpoint over all incoming edges (`prune=False`), the full O(n^2) square
(`build_full_square`) and an iterative depth-first cycle search written
here, so that neither the pruned square builders nor either engine's
peeling is involved.
"""

from __future__ import annotations

from wheelerlang import Automaton, build_full_square, compute_rank_table, minimize


def has_cycle(nodes, edges) -> bool:
    """Iterative three-colour DFS over a directed graph given as (src, label, dst)."""
    succ: dict = {v: [] for v in nodes}
    for src, _, dst in edges:
        succ[src].append(dst)
    colour = dict.fromkeys(nodes, 0)  # 0 unseen, 1 on stack, 2 done
    for root in nodes:
        if colour[root]:
            continue
        colour[root] = 1
        stack = [(root, iter(succ[root]))]
        while stack:
            v, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                colour[v] = 2
                stack.pop()
            elif colour[nxt] == 1:
                return True
            elif colour[nxt] == 0:
                colour[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


def reference_wheeler(a: Automaton) -> bool:
    """Whether L(a) is Wheeler, by the oracle path."""
    a_min, _ = minimize(a)
    if a_min.n == 0:
        return True
    table = compute_rank_table(a_min, prune=False)
    square = build_full_square(a_min, table)
    return not has_cycle(square.pair_states, square.pair_transitions)
