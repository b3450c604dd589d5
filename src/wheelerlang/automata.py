"""Automaton data model, text interchange format, trimming, reversal, random generation.

States are dense integers 0..n-1.  Automata are partial: a missing
(state, symbol) transition means the walk dies; no sink state is ever
materialized.  The alphabet's declared symbol order is the character
order used by every co-lexicographic computation downstream.

The transitions are stored as a frozenset of (u, c, v) tuples, but a
deterministic automaton's working form is `Automaton.delta`: a
sigma x n int32 table whose entry [pos(c), u] is u's c-successor, or -1
where the transition is undefined.  Trimming, minimization, the rank
table, the pair codes and the witness lift all read that one table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class FormatError(ValueError):
    """Raised for malformed automaton documents; names the offending line."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of single printable characters; order = character order."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        seen = set()
        for c in self.symbols:
            if len(c) != 1 or not c.isprintable() or c.isspace():
                raise ValueError(f"bad alphabet symbol {c!r}")
            if c in seen:
                raise ValueError(f"duplicate alphabet symbol {c!r}")
            seen.add(c)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.symbols)}

    def pos(self, c: str) -> int:
        """Rank of a symbol in the declared order."""
        try:
            return self._index[c]
        except KeyError:
            raise ValueError(f"symbol {c!r} not in alphabet") from None

    def __contains__(self, c: str) -> bool:
        return c in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)


@dataclass(frozen=True)
class Automaton:
    """Labeled transition structure with a source and final states.

    The `deterministic` flag is always computed from the transition set,
    never supplied by callers. `source` is None exactly when n == 0.
    """

    n: int
    transitions: frozenset[tuple[int, str, int]]
    source: int | None
    finals: frozenset[int]
    alphabet: Alphabet
    deterministic: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.n < 0:
            raise ValueError("negative state count")
        if self.n == 0:
            if self.source is not None:
                raise ValueError("0-state automaton cannot have a source")
        elif self.source is None or not 0 <= self.source < self.n:
            raise ValueError(f"source {self.source} out of range")
        for q in self.finals:
            if not 0 <= q < self.n:
                raise ValueError(f"final state {q} out of range")
        seen_pairs = set()
        det = True
        for u, c, v in self.transitions:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"transition ({u}, {c!r}, {v}) out of range")
            if c not in self.alphabet:
                raise ValueError(f"transition symbol {c!r} not in alphabet")
            if (u, c) in seen_pairs:
                det = False
            seen_pairs.add((u, c))
        object.__setattr__(self, "deterministic", det)

    @property
    def m(self) -> int:
        return len(self.transitions)

    @cached_property
    def delta(self) -> np.ndarray:
        """Read-only sigma x n int32 table: [pos(c), u] is u's c-successor, -1 if undefined."""
        if not self.deterministic:
            raise ValueError("delta lookup requires a deterministic automaton")
        table = np.full((len(self.alphabet), self.n), -1, dtype=np.int32)
        index = self.alphabet._index
        for u, c, v in self.transitions:
            table[index[c], u] = v
        table.flags.writeable = False
        return table

    def step(self, u: int, c: str) -> int | None:
        """Deterministic transition; None when the partial function is undefined
        or when u or c lies outside the automaton."""
        table = self.delta  # first, so that an NFA raises whatever u and c are
        if c not in self.alphabet or not 0 <= u < self.n:
            return None
        v = int(table[self.alphabet.pos(c), u])
        return v if v >= 0 else None

    def accepts(self, word: str) -> bool:
        """Deterministic membership walk from the source."""
        q = self.source
        for c in word:
            if q is None:
                return False
            q = self.step(q, c)
        return q is not None and q in self.finals


@dataclass(frozen=True)
class TrimReport:
    """Counts and the old-to-new state map produced by trim()."""

    kept: int
    dropped_unreachable: int
    dropped_dead: int
    state_map: tuple[int | None, ...]


def parse_automaton(text: str) -> Automaton:
    """Parse the line-oriented automaton format; validates everything.

    The determinism flag is computed from the transitions; a `dfa` header
    with a duplicated (from, symbol) pair is an error.
    """
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((no, stripped))
    cursor = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal cursor
        if cursor >= len(lines):
            raise FormatError(f"unexpected end of document: missing {what}")
        item = lines[cursor]
        cursor += 1
        return item

    no, head = take("dfa/nfa header")
    if head not in ("dfa", "nfa"):
        raise FormatError(f"line {no}: expected 'dfa' or 'nfa', got {head!r}")
    declared_dfa = head == "dfa"

    no, line = take("alphabet line")
    parts = line.split()
    if parts[0] != "alphabet":
        raise FormatError(f"line {no}: expected 'alphabet ...', got {line!r}")
    try:
        alphabet = Alphabet(tuple(parts[1:]))
    except ValueError as exc:
        raise FormatError(f"line {no}: {exc}") from None

    no, line = take("states line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "states" or not parts[1].isdigit():
        raise FormatError(f"line {no}: expected 'states <n>', got {line!r}")
    n = int(parts[1])

    no, line = take("source line")
    parts = line.split()
    if parts[0] != "source" or len(parts) > 2:
        raise FormatError(f"line {no}: expected 'source <id>', got {line!r}")
    if len(parts) == 1:
        if n != 0:
            raise FormatError(f"line {no}: source id required when states > 0")
        source: int | None = None
    else:
        if not parts[1].isdigit():
            raise FormatError(f"line {no}: bad source id {parts[1]!r}")
        source = int(parts[1])
        if source >= n:
            raise FormatError(f"line {no}: source id {source} out of range")

    no, line = take("finals line")
    parts = line.split()
    if parts[0] != "finals":
        raise FormatError(f"line {no}: expected 'finals ...', got {line!r}")
    finals = set()
    for tok in parts[1:]:
        if not tok.isdigit():
            raise FormatError(f"line {no}: bad final id {tok!r}")
        q = int(tok)
        if q >= n:
            raise FormatError(f"line {no}: final id {q} out of range")
        finals.add(q)

    no, line = take("transitions line")
    parts = line.split()
    if len(parts) != 2 or parts[0] != "transitions" or not parts[1].isdigit():
        raise FormatError(f"line {no}: expected 'transitions <m>', got {line!r}")
    m = int(parts[1])

    transitions: set[tuple[int, str, int]] = set()
    seen_pairs: set[tuple[int, str]] = set()
    for _ in range(m):
        no, line = take("transition line")
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"line {no}: expected '<from> <symbol> <to>', got {line!r}")
        f_tok, c, t_tok = parts
        if not f_tok.isdigit() or not t_tok.isdigit():
            raise FormatError(f"line {no}: bad state id in {line!r}")
        u, v = int(f_tok), int(t_tok)
        if u >= n or v >= n:
            raise FormatError(f"line {no}: state id out of range in {line!r}")
        if c not in alphabet:
            raise FormatError(f"line {no}: unknown symbol {c!r}")
        if (u, c, v) in transitions:
            raise FormatError(f"line {no}: duplicate transition {line!r}")
        if declared_dfa and (u, c) in seen_pairs:
            raise FormatError(f"line {no}: duplicate transition for ({u}, {c!r}) in declared dfa")
        seen_pairs.add((u, c))
        transitions.add((u, c, v))
    if cursor < len(lines):
        no, line = lines[cursor]
        raise FormatError(f"line {no}: trailing content {line!r}")

    return Automaton(n, frozenset(transitions), source, frozenset(finals), alphabet)


def serialize_automaton(a: Automaton) -> str:
    """Inverse of parse_automaton; byte-identical output for equal automata."""
    out = ["dfa" if a.deterministic else "nfa"]
    out.append("alphabet" + "".join(f" {c}" for c in a.alphabet))
    out.append(f"states {a.n}")
    out.append("source" if a.source is None else f"source {a.source}")
    out.append("finals" + "".join(f" {q}" for q in sorted(a.finals)))
    trans = sorted(a.transitions, key=lambda t: (t[0], a.alphabet.pos(t[1]), t[2]))
    out.append(f"transitions {len(trans)}")
    out.extend(f"{u} {c} {v}" for u, c, v in trans)
    return "\n".join(out) + "\n"


def _empty_like(a: Automaton) -> Automaton:
    return Automaton(0, frozenset(), None, frozenset(), a.alphabet)


def _live(a: Automaton) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks, read from `a.delta` of a nonempty automaton, of the states
    reachable from the source and of the states from which a final is reachable."""
    sym, origin = np.nonzero(a.delta >= 0)
    target = a.delta[sym, origin]

    def closure(roots: list[int], tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        # depth-first search over the edges tails[i] -> heads[i], grouped by tail
        order = np.argsort(tails, kind="stable")
        bounds = np.searchsorted(tails[order], np.arange(a.n + 1)).tolist()
        heads = heads[order].tolist()
        seen = [False] * a.n
        for r in roots:
            seen[r] = True
        stack = list(roots)
        while stack:
            u = stack.pop()
            for v in heads[bounds[u] : bounds[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return np.array(seen, dtype=bool)

    return closure([a.source], origin, target), closure(sorted(a.finals), target, origin)


def trim(a: Automaton) -> tuple[Automaton, TrimReport]:
    """Keep exactly the states reachable from the source and co-reachable to a final.

    An empty language yields a 0-state automaton; when every state is kept,
    the input itself is returned, with the identity map.
    """
    if not a.deterministic:
        raise ValueError("trim requires a deterministic automaton")
    if a.n == 0:
        return a, TrimReport(0, 0, 0, ())

    reach, co = _live(a)
    kept = reach & co
    n_reach, n_kept = int(reach.sum()), int(kept.sum())
    unreachable = a.n - n_reach
    dead = n_reach - n_kept
    if not kept[a.source]:
        # dead source: nothing reaches a final, so the language is empty
        return _empty_like(a), TrimReport(0, unreachable, dead, tuple([None] * a.n))
    if n_kept == a.n:
        return a, TrimReport(a.n, 0, 0, tuple(range(a.n)))

    new_id: list[int | None] = [
        i if k else None for i, k in zip((np.cumsum(kept) - 1).tolist(), kept.tolist())
    ]
    new_trans = frozenset(
        (new_id[u], c, new_id[v])
        for u, c, v in a.transitions
        if new_id[u] is not None and new_id[v] is not None
    )
    trimmed = Automaton(
        n_kept,
        new_trans,
        new_id[a.source],
        frozenset(new_id[q] for q in a.finals if new_id[q] is not None),
        a.alphabet,
    )
    return trimmed, TrimReport(n_kept, unreachable, dead, tuple(new_id))


def reverse(a: Automaton) -> Automaton:
    """Reverse every transition; source and finals are carried over unchanged.

    The determinism flag of the result reflects the reversed transition set.
    """
    return Automaton(
        a.n,
        frozenset((v, c, u) for u, c, v in a.transitions),
        a.source,
        a.finals,
        a.alphabet,
    )


def random_dfa(n: int, m: int, sigma: Alphabet, seed: int) -> Automaton:
    """Random deterministic automaton: spanning tree from the source plus
    uniformly random extra edges; every state reachable, finals nonempty.
    """
    if n < 1:
        raise ValueError("need at least one state")
    if m < n - 1 or m > n * len(sigma):
        raise ValueError(f"infeasible edge count m={m} for n={n}, |sigma|={len(sigma)}")
    rng = random.Random(seed)

    transitions: set[tuple[int, str, int]] = set()
    used: set[tuple[int, int]] = set()  # (state, symbol index)
    order = list(range(1, n))
    rng.shuffle(order)
    in_tree = [0]
    for v in order:
        while True:
            p = in_tree[rng.randrange(len(in_tree))]
            free = [i for i in range(len(sigma)) if (p, i) not in used]
            if free:
                break
        ci = free[rng.randrange(len(free))]
        used.add((p, ci))
        transitions.add((p, sigma.symbols[ci], v))
        in_tree.append(v)

    free_slots = [(u, ci) for u in range(n) for ci in range(len(sigma)) if (u, ci) not in used]
    for u, ci in rng.sample(free_slots, m - (n - 1)):
        transitions.add((u, sigma.symbols[ci], rng.randrange(n)))

    while True:
        finals = frozenset(q for q in range(n) if rng.random() < 0.5)
        if finals:
            break
    return Automaton(n, frozenset(transitions), 0, finals, sigma)
