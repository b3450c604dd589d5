"""Regular expression front-end: parse to an AST, compile to a DFA.

Grammar: literals are alphanumeric characters or `\\<char>` escapes;
operators `|`, `*`, `+`, `?`, grouping `( )`, implicit concatenation.
Postfix operators bind tighter than concatenation, which binds tighter
than union.  An empty alternative branch denotes the empty string, so
`(a|)` matches `a` or nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Alphabet, Automaton
from .minimize import minimize


class StateLimitExceeded(RuntimeError):
    """Determinization exceeded the configured state cap."""


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class Literal:
    symbol: str


@dataclass(frozen=True)
class Concat:
    parts: tuple["RegexAst", ...]


@dataclass(frozen=True)
class Union:
    parts: tuple["RegexAst", ...]


@dataclass(frozen=True)
class Star:
    inner: "RegexAst"


@dataclass(frozen=True)
class Plus:
    inner: "RegexAst"


@dataclass(frozen=True)
class Optional:
    inner: "RegexAst"


RegexAst = Epsilon | Literal | Concat | Union | Star | Plus | Optional


def parse_regex(pattern: str) -> RegexAst:
    """Parse a pattern into an AST; raises ValueError on malformed input."""
    if pattern == "":
        raise ValueError("empty pattern")
    pos = 0

    def peek() -> str | None:
        return pattern[pos] if pos < len(pattern) else None

    def parse_union() -> RegexAst:
        nonlocal pos
        branches = [parse_concat()]
        while peek() == "|":
            pos += 1
            branches.append(parse_concat())
        return branches[0] if len(branches) == 1 else Union(tuple(branches))

    def parse_concat() -> RegexAst:
        parts = []
        while peek() not in (None, "|", ")"):
            parts.append(parse_postfix())
        if not parts:
            return Epsilon()
        return parts[0] if len(parts) == 1 else Concat(tuple(parts))

    def parse_postfix() -> RegexAst:
        nonlocal pos
        node = parse_atom()
        while peek() in ("*", "+", "?"):
            op = pattern[pos]
            pos += 1
            node = {"*": Star, "+": Plus, "?": Optional}[op](node)
        return node

    def parse_atom() -> RegexAst:
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            node = parse_union()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses at position {pos}")
            pos += 1
            return node
        if c == "\\":
            if pos + 1 >= len(pattern):
                raise ValueError("dangling escape at end of pattern")
            pos += 2
            return Literal(pattern[pos - 1])
        if c is not None and c.isalnum():
            pos += 1
            return Literal(c)
        raise ValueError(f"dangling operator or bad character {c!r} at position {pos}")

    try:
        ast = parse_union()
    except RecursionError:
        raise ValueError(f"pattern nested too deeply at position {pos}") from None
    if pos != len(pattern):
        raise ValueError(f"unbalanced parentheses at position {pos}")
    return ast


def literals(ast: RegexAst) -> set[str]:
    """Set of literal symbols occurring in the AST."""
    match ast:
        case Literal(symbol):
            return {symbol}
        case Concat(parts) | Union(parts):
            out: set[str] = set()
            for p in parts:
                out |= literals(p)
            return out
        case Star(inner) | Plus(inner) | Optional(inner):
            return literals(inner)
        case _:
            return set()


def _thompson(ast: RegexAst, counter: list[int]) -> tuple[int, int, list[tuple[int, str | None, int]]]:
    """Thompson fragment (start, accept, edges); None labels are epsilon."""

    def fresh() -> int:
        counter[0] += 1
        return counter[0] - 1

    match ast:
        case Epsilon():
            s, f = fresh(), fresh()
            return s, f, [(s, None, f)]
        case Literal(symbol):
            s, f = fresh(), fresh()
            return s, f, [(s, symbol, f)]
        case Concat(parts):
            s0, f0, edges = _thompson(parts[0], counter)
            for p in parts[1:]:
                s1, f1, e1 = _thompson(p, counter)
                edges += e1
                edges.append((f0, None, s1))
                f0 = f1
            return s0, f0, edges
        case Union(parts):
            s, f = fresh(), fresh()
            edges = []
            for p in parts:
                si, fi, ei = _thompson(p, counter)
                edges += ei
                edges.append((s, None, si))
                edges.append((fi, None, f))
            return s, f, edges
        case Star(inner):
            s, f = fresh(), fresh()
            si, fi, edges = _thompson(inner, counter)
            edges += [(s, None, si), (fi, None, f), (s, None, f), (fi, None, si)]
            return s, f, edges
        case Plus(inner):
            s, f = fresh(), fresh()
            si, fi, edges = _thompson(inner, counter)
            edges += [(s, None, si), (fi, None, f), (fi, None, si)]
            return s, f, edges
        case Optional(inner):
            s, f = fresh(), fresh()
            si, fi, edges = _thompson(inner, counter)
            edges += [(s, None, si), (fi, None, f), (s, None, f)]
            return s, f, edges
    raise TypeError(f"not a regex node: {ast!r}")


def compile_regex(
    ast: RegexAst,
    alphabet: Alphabet | None = None,
    state_cap: int = 10**6,
) -> Automaton:
    """Deterministic automaton for the AST's language.

    Thompson construction, subset construction, then minimization (which
    also trims).  The alphabet defaults to the pattern's literals sorted by
    character code.  An AST nested too deeply to walk raises ValueError.
    """
    counter = [0]
    try:
        symbols = literals(ast)
        start, accept, edges = _thompson(ast, counter)
    except RecursionError:
        raise ValueError("pattern nested too deeply to compile") from None
    if alphabet is None:
        alphabet = Alphabet(tuple(sorted(symbols)))
    else:
        missing = symbols - set(alphabet.symbols)
        if missing:
            raise ValueError(f"literals {sorted(missing)} not in the supplied alphabet")

    eps: list[list[int]] = [[] for _ in range(counter[0])]
    by_symbol: list[dict[str, list[int]]] = [{} for _ in range(counter[0])]
    for u, c, v in edges:
        if c is None:
            eps[u].append(v)
        else:
            by_symbol[u].setdefault(c, []).append(v)

    def closure(states: frozenset[int]) -> frozenset[int]:
        stack = list(states)
        out = set(states)
        while stack:
            u = stack.pop()
            for v in eps[u]:
                if v not in out:
                    out.add(v)
                    stack.append(v)
        return frozenset(out)

    start_set = closure(frozenset([start]))
    ids: dict[frozenset[int], int] = {start_set: 0}
    worklist = [start_set]
    dfa_trans: set[tuple[int, str, int]] = set()
    finals: set[int] = set()
    while worklist:
        cur = worklist.pop()
        cid = ids[cur]
        if accept in cur:
            finals.add(cid)
        for c in alphabet.symbols:
            targets = [v for u in cur for v in by_symbol[u].get(c, ())]
            if not targets:
                continue
            nxt = closure(frozenset(targets))
            if nxt not in ids:
                if len(ids) >= state_cap:
                    raise StateLimitExceeded(f"more than {state_cap} subset states")
                ids[nxt] = len(ids)
                worklist.append(nxt)
            dfa_trans.add((cid, c, ids[nxt]))

    dfa = Automaton(len(ids), frozenset(dfa_trans), 0, frozenset(finals), alphabet)
    minimal, _ = minimize(dfa)
    return minimal
