"""Shared test helpers: random inputs and independent oracles."""

from __future__ import annotations

import itertools
import random
from collections import deque

import numpy as np
from hypothesis import strategies as st

from wheelerlang import (
    Alphabet,
    Automaton,
    RankTable,
    Witness,
    minimize,
    random_dfa,
    trim,
)
from wheelerlang.bigsquare import UnorderedSquare
from wheelerlang.regex import (
    Concat,
    Epsilon,
    Literal,
    Optional,
    Plus,
    RegexAst,
    Star,
    Union,
)

SIGMA_POOL = ("a", "b", "c")


def random_automaton(rng: random.Random, n_max: int = 12, sigma_max: int = 3) -> Automaton:
    n = rng.randint(1, n_max)
    k = rng.randint(1, sigma_max)
    sigma = Alphabet(SIGMA_POOL[:k])
    m = rng.randint(n - 1, n * k)
    return random_dfa(n, m, sigma, rng.randrange(2**62))


@st.composite
def dfas(draw, n_max: int = 12) -> Automaton:
    """Hypothesis strategy: `random_dfa` inputs shaped like random_automaton's."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, len(SIGMA_POOL)))
    m = draw(st.integers(n - 1, n * k))
    return random_dfa(n, m, Alphabet(SIGMA_POOL[:k]), draw(st.integers(0, 2**62)))


def random_minimal(rng: random.Random, n_max: int = 12, sigma_max: int = 3) -> Automaton:
    """A nonempty minimum DFA drawn via the random generator."""
    while True:
        a_min, _ = minimize(random_automaton(rng, n_max, sigma_max))
        if a_min.n:
            return a_min


def all_strings(symbols, max_len: int):
    for length in range(max_len + 1):
        for tup in itertools.product(symbols, repeat=length):
            yield "".join(tup)


def dfs_has_cycle(vertices, edges) -> bool:
    """Back-edge detection by iterative three-color DFS; independent of Kahn."""
    out: dict = {v: [] for v in vertices}
    for src, dst in edges:
        out[src].append(dst)
    color = {v: 0 for v in vertices}  # 0 white, 1 on stack, 2 done
    for root in vertices:
        if color[root]:
            continue
        stack = [(root, iter(out[root]))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == 1:
                    return True
                if color[w] == 0:
                    color[w] = 1
                    stack.append((w, iter(out[w])))
                    advanced = True
                    break
            if not advanced:
                color[v] = 2
                stack.pop()
    return False


def brute_lang(ast: RegexAst, max_len: int) -> set[str]:
    """All strings of length <= max_len matched by the AST, by set algebra."""
    if isinstance(ast, Epsilon):
        return {""}
    if isinstance(ast, Literal):
        return {ast.symbol} if max_len >= 1 else set()
    if isinstance(ast, Union):
        out: set[str] = set()
        for p in ast.parts:
            out |= brute_lang(p, max_len)
        return out
    if isinstance(ast, Concat):
        acc = {""}
        for p in ast.parts:
            part = brute_lang(p, max_len)
            acc = {x + y for x in acc for y in part if len(x) + len(y) <= max_len}
        return acc
    if isinstance(ast, Star):
        base = brute_lang(ast.inner, max_len)
        acc = {""}
        while True:
            grown = acc | {x + y for x in acc for y in base if len(x) + len(y) <= max_len}
            if grown == acc:
                return acc
            acc = grown
    if isinstance(ast, Plus):
        return brute_lang(Concat((ast.inner, Star(ast.inner))), max_len)
    if isinstance(ast, Optional):
        return {""} | brute_lang(ast.inner, max_len)
    raise TypeError(ast)


def random_pattern(rng: random.Random, depth: int = 3, symbols: str = "ab") -> str:
    """Random well-formed pattern text over the given literal symbols."""

    def build(d: int) -> str:
        if d == 0 or rng.random() < 0.35:
            return rng.choice(symbols)
        kind = rng.randrange(6)
        if kind == 0:
            branches = [build(d - 1) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.2:
                branches.append("")  # empty alternative: epsilon branch
            return "(" + "|".join(branches) + ")"
        if kind == 1:
            return "".join(build(d - 1) for _ in range(rng.randint(2, 3)))
        inner = "(" + build(d - 1) + ")"
        return inner + {2: "*", 3: "+", 4: "?", 5: "*"}[kind]

    return build(depth)


def out_edges(a: Automaton) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Per state: outgoing (symbol, target) pairs sorted by symbol order."""
    out: list[list[tuple[str, int]]] = [[] for _ in range(a.n)]
    for u, c, v in a.transitions:
        out[u].append((c, v))
    for lst in out:
        lst.sort(key=lambda e: (a.alphabet.pos(e[0]), e[1]))
    return tuple(tuple(lst) for lst in out)


def in_edges(a: Automaton) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Per state: incoming (symbol, origin) pairs sorted by symbol order."""
    inc: list[list[tuple[str, int]]] = [[] for _ in range(a.n)]
    for u, c, v in a.transitions:
        inc[v].append((c, u))
    for lst in inc:
        lst.sort(key=lambda e: (a.alphabet.pos(e[0]), e[1]))
    return tuple(tuple(lst) for lst in inc)


def _prune(a: Automaton, keep_max: bool) -> Automaton:
    if not a.deterministic:
        raise ValueError("pruning requires a deterministic automaton")
    kept: set[tuple[int, str, int]] = set()
    for u, incoming in enumerate(in_edges(a)):
        if not incoming or u == a.source:
            kept.update((v, c, u) for c, v in incoming)
            continue
        positions = [a.alphabet.pos(c) for c, _ in incoming]
        target = max(positions) if keep_max else min(positions)
        kept.update((v, c, u) for c, v in incoming if a.alphabet.pos(c) == target)
    return Automaton(a.n, frozenset(kept), a.source, a.finals, a.alphabet)


def prune_min_edges(a: Automaton) -> Automaton:
    """Keep, per non-source state, only incoming edges with its minimum label.

    The language is not preserved; this is an infimum-computation artifact.
    `reference_rank_table` prunes with it; `compute_rank_table` uses a
    label mask over `delta` instead.
    """
    return _prune(a, keep_max=False)


def prune_max_edges(a: Automaton) -> Automaton:
    """Symmetric to prune_min_edges: keep only maximum-label incoming edges."""
    return _prune(a, keep_max=True)


def reference_rank_table(a_min: Automaton, prune: bool = True) -> RankTable:
    """Oracle for `compute_rank_table`: the same fixpoint, one Python sort of
    tuple keys per round and the chosen predecessors rewritten every round.

    `prune` selects the label-pruned candidate edge sets; disabling it
    feeds all incoming edges to the fixpoint and must give the same table
    (kept as a test hook).
    """
    n = a_min.n
    if n == 0:
        return RankTable(0, (), (), 0, (), ())
    _, report = trim(a_min)
    if report.kept != n:
        raise ValueError("rank table requires a trimmed automaton")

    inf_in = in_edges(prune_min_edges(a_min) if prune else a_min)
    sup_in = in_edges(prune_max_edges(a_min) if prune else a_min)
    pos = a_min.alphabet.pos
    source = a_min.source

    # element ids: state u's infimum is u, its supremum is n + u
    rank = [1] * (2 * n)
    chosen: list[tuple[int, str] | None] = [None] * (2 * n)
    cap = 8 * n + 8
    depth = 0
    while True:
        depth += 1
        if depth > cap:
            raise RuntimeError("rank fixpoint failed to stabilize within the safety cap")
        keys: list[tuple[int, ...]] = [()] * (2 * n)
        for u in range(n):
            best = None  # (symbol pos, previous rank, origin)
            for c, v in inf_in[u]:
                cand = (pos(c), rank[v], v)
                if best is None or cand < best:
                    best = cand
                    chosen[u] = (v, c)
            if u == source or best is None:
                # the empty string is a candidate at the source and wins the min
                keys[u] = ()
                chosen[u] = None
            else:
                keys[u] = best[:2]
        for u in range(n):
            best = None
            for c, v in sup_in[u]:
                cand = (pos(c), rank[n + v], -v)
                if best is None or cand > best:
                    best = cand
                    chosen[n + u] = (v, c)
            if best is None:
                # no incoming edges: the supremum is the empty string too
                keys[n + u] = ()
                chosen[n + u] = None
            else:
                keys[n + u] = best[:2]

        by_key = sorted(range(2 * n), key=lambda e: keys[e])
        new_rank = [0] * (2 * n)
        r = 0
        prev_key = None
        prev_old = None
        for e in by_key:
            if keys[e] != prev_key:
                r += 1
                prev_key = keys[e]
                assert prev_old is None or rank[e] >= prev_old, "rank order regressed"
            else:
                assert rank[e] == prev_old, "rank partition coarsened"
            prev_old = rank[e]
            new_rank[e] = r
        if new_rank == rank:
            break
        rank = new_rank

    return RankTable(
        n,
        tuple(rank[:n]),
        tuple(rank[n:]),
        depth,
        tuple(chosen[:n]),
        tuple(chosen[n:]),
    )


def reference_width(t: RankTable) -> int:
    """Oracle for `width_estimate`: the endpoint sweep as a Python loop."""
    size = 2 * t.n + 2
    diff = [0] * size
    for u in range(t.n):
        lo, hi = t.inf_rank[u], t.sup_rank[u]
        if lo < hi:
            diff[lo] += 1
            diff[hi] -= 1
    best = 0
    running = 0
    for g in range(size):
        running += diff[g]
        best = max(best, running)
    return max(1, best)


def reference_minimize(a: Automaton) -> tuple[Automaton, tuple[int | None, ...]]:
    """Oracle for `minimize`: Hopcroft partition refinement over frozensets.

    The input is trimmed first.  Refinement runs on the completion with an
    implicit sink class (partial transitions point there); the sink is
    dropped again on output, so edge counts stay those of the partial DFA.
    Output blocks are numbered by their minimum original state id.
    """
    if not a.deterministic:
        raise ValueError("minimize requires a deterministic automaton")
    trimmed, report = trim(a)
    n = trimmed.n
    if n == 0:
        return trimmed, tuple([None] * a.n)

    sink = n
    symbols = trimmed.alphabet.symbols
    edges = out_edges(trimmed)
    # completed inverse transition table over states 0..n (n = sink)
    preimage: dict[tuple[str, int], set[int]] = {}
    for u in range(n):
        row = dict(edges[u])
        for c in symbols:
            v = row.get(c, sink)
            preimage.setdefault((c, v), set()).add(u)
    for c in symbols:
        preimage.setdefault((c, sink), set()).add(sink)

    finals = frozenset(trimmed.finals)
    non_finals = frozenset(set(range(n + 1)) - finals)
    partition = {finals, non_finals} - {frozenset()}
    block_of = {}
    for block in partition:
        for q in block:
            block_of[q] = block
    worklist = {min(finals, non_finals, key=len)} if len(partition) == 2 else set(partition)

    while worklist:
        splitter = worklist.pop()
        for c in symbols:
            affected: dict[frozenset[int], set[int]] = {}
            for t in splitter:
                for q in preimage.get((c, t), ()):
                    affected.setdefault(block_of[q], set()).add(q)
            for old, inside in affected.items():
                if len(inside) == len(old):
                    continue
                part1 = frozenset(inside)
                part2 = old - part1
                partition.remove(old)
                partition.add(part1)
                partition.add(part2)
                for q in part1:
                    block_of[q] = part1
                for q in part2:
                    block_of[q] = part2
                if old in worklist:
                    worklist.remove(old)
                    worklist.add(part1)
                    worklist.add(part2)
                else:
                    worklist.add(min(part1, part2, key=len))

    sink_block = block_of[sink]
    assert sink_block == {sink}, "trimmed input cannot have sink-equivalent states"
    live_blocks = sorted((b for b in partition if b is not sink_block), key=min)
    block_id = {b: i for i, b in enumerate(live_blocks)}

    new_trans = set()
    for i, block in enumerate(live_blocks):
        rep = min(block)
        for c, v in edges[rep]:
            new_trans.add((i, c, block_id[block_of[v]]))
    minimal = Automaton(
        len(live_blocks),
        frozenset(new_trans),
        block_id[block_of[trimmed.source]],
        frozenset(block_id[block_of[q]] for q in trimmed.finals),
        trimmed.alphabet,
    )
    state_map = tuple(
        block_id[block_of[report.state_map[q]]] if report.state_map[q] is not None else None
        for q in range(a.n)
    )
    return minimal, state_map


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Exact language equality via synchronized product reachability.

    The pair graph includes the implicit dead state (None) on each side, so
    partial automata and the 0-state automaton compare correctly.
    """
    if set(a.alphabet.symbols) != set(b.alphabet.symbols):
        raise ValueError("alphabet mismatch")
    if not (a.deterministic and b.deterministic):
        raise ValueError("equivalence check requires deterministic automata")

    def is_final(auto: Automaton, q: int | None) -> bool:
        return q is not None and q in auto.finals

    start = (a.source, b.source)
    seen = {start}
    queue = deque([start])
    while queue:
        u, v = queue.popleft()
        if is_final(a, u) != is_final(b, v):
            return False
        for c in a.alphabet.symbols:
            nu = a.step(u, c) if u is not None else None
            nv = b.step(v, c) if v is not None else None
            if nu is None and nv is None:
                continue
            if (nu, nv) not in seen:
                seen.add((nu, nv))
                queue.append((nu, nv))
    return True


def reference_witness(a_min: Automaton, sq: UnorderedSquare, residue: np.ndarray) -> Witness:
    """Oracle for `bigsquare._witness_from_residue`: the table walk.

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
