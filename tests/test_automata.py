import random

import numpy as np
import pytest
from hypothesis import given, settings

from wheelerlang import (
    Alphabet,
    Automaton,
    FormatError,
    TrimReport,
    parse_automaton,
    random_dfa,
    reverse,
    serialize_automaton,
    trim,
)
from util import all_strings, dfas, equivalent, out_edges, random_automaton

SMALLEST = "dfa\nalphabet a\nstates 1\nsource 0\nfinals 0\ntransitions 1\n0 a 0\n"


def test_parse_smallest_document():
    a = parse_automaton(SMALLEST)
    assert a.n == 1 and a.m == 1 and a.deterministic
    assert a.source == 0 and a.finals == {0}
    assert a.transitions == {(0, "a", 0)}


def test_parse_duplicate_transition_rejected():
    doc = SMALLEST.replace("transitions 1\n0 a 0\n", "transitions 2\n0 a 0\n0 a 0\n")
    with pytest.raises(FormatError, match="duplicate transition"):
        parse_automaton(doc)


def test_parse_dfa_header_rejects_nondeterminism():
    doc = "dfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n"
    with pytest.raises(FormatError, match="duplicate transition"):
        parse_automaton(doc)
    # the same transitions are fine under an nfa header
    nfa = parse_automaton(doc.replace("dfa", "nfa", 1))
    assert not nfa.deterministic


def test_parse_computes_determinism_for_nfa_header():
    doc = SMALLEST.replace("dfa", "nfa", 1)
    assert parse_automaton(doc).deterministic


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda d: d.replace("0 a 0", "0 z 0"), "unknown symbol"),
        (lambda d: d.replace("0 a 0", "0 a 7"), "out of range"),
        (lambda d: d.replace("0 a 0", "0 a"), "expected"),
        (lambda d: d.replace("dfa", "pda"), "expected 'dfa' or 'nfa'"),
        (lambda d: d.replace("source 0", "source 4"), "out of range"),
        (lambda d: d + "1 a 1\n", "trailing content"),
        (lambda d: d.replace("transitions 1", "transitions 2"), "unexpected end"),
    ],
)
def test_parse_errors_name_the_line(mangle, message):
    with pytest.raises(FormatError, match=message):
        parse_automaton(mangle(SMALLEST))


def test_roundtrip_corpus(corpus_files):
    assert corpus_files, "fixture corpus missing"
    for path in corpus_files:
        text = path.read_text()
        a = parse_automaton(text)
        again = parse_automaton(serialize_automaton(a))
        assert again == a, path.name


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        a = random_automaton(rng)
        assert parse_automaton(serialize_automaton(a)) == a


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dfas())
def test_roundtrip_property(a):
    assert parse_automaton(serialize_automaton(a)) == a


def test_serialize_empty_finals_and_byte_stability():
    a = parse_automaton("dfa\nalphabet a\nstates 2\nsource 0\nfinals\ntransitions 1\n0 a 1\n")
    doc = serialize_automaton(a)
    assert "\nfinals\n" in doc
    assert doc == serialize_automaton(a)
    assert doc == serialize_automaton(parse_automaton(doc))


def test_serialize_sorts_transitions():
    a = Automaton(
        3,
        frozenset({(2, "a", 0), (0, "b", 2), (0, "a", 1)}),
        0,
        frozenset({2}),
        Alphabet(("a", "b")),
    )
    body = serialize_automaton(a).splitlines()[6:]
    assert body == ["0 a 1", "0 b 2", "2 a 0"]


def test_alphabet_rejects_duplicates_and_junk():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet((" ",))


def test_automaton_validation():
    sigma = Alphabet(("a",))
    with pytest.raises(ValueError):
        Automaton(1, frozenset({(0, "a", 3)}), 0, frozenset(), sigma)
    with pytest.raises(ValueError):
        Automaton(1, frozenset({(0, "z", 0)}), 0, frozenset(), sigma)
    with pytest.raises(ValueError):
        Automaton(2, frozenset(), None, frozenset(), sigma)
    with pytest.raises(ValueError):
        Automaton(0, frozenset(), 0, frozenset(), sigma)


def test_trim_drops_unreachable_state():
    a = parse_automaton(
        "dfa\nalphabet a\nstates 3\nsource 0\nfinals 1\ntransitions 3\n0 a 1\n1 a 1\n2 a 0\n"
    )
    trimmed, report = trim(a)
    assert trimmed.n == 2
    assert report.dropped_unreachable == 1 and report.dropped_dead == 0
    assert report.state_map[2] is None


def test_trim_empty_language():
    a = parse_automaton("dfa\nalphabet a\nstates 2\nsource 0\nfinals\ntransitions 1\n0 a 1\n")
    trimmed, report = trim(a)
    assert trimmed.n == 0 and trimmed.source is None and trimmed.m == 0
    assert report.kept == 0
    assert all(x is None for x in report.state_map)


def test_trim_report_arithmetic_and_language():
    rng = random.Random(11)
    for _ in range(120):
        a = random_automaton(rng, n_max=8)
        trimmed, report = trim(a)
        assert report.kept + report.dropped_unreachable + report.dropped_dead == a.n
        assert trimmed.n <= a.n and trimmed.m <= a.m
        assert equivalent(a, trimmed)
        # exhaustive short-string agreement as an extra, oracle-style check
        for w in all_strings(a.alphabet.symbols, min(2 * a.n, 6)):
            assert a.accepts(w) == trimmed.accepts(w)


def test_trim_matches_search_from_both_ends():
    # random sources leave some states unreachable, random finals some dead
    rng = random.Random(12)
    for _ in range(200):
        b = random_automaton(rng, n_max=10)
        a = Automaton(b.n, b.transitions, rng.randrange(b.n), b.finals, b.alphabet)
        reach, co = {a.source}, set(a.finals)
        for _ in range(a.n):
            reach |= {v for u, _, v in a.transitions if u in reach}
            co |= {u for u, _, v in a.transitions if v in co}
        trimmed, report = trim(a)
        kept = reach & co if a.source in co else set()
        assert report.kept == trimmed.n == len(kept)
        assert report.dropped_unreachable == a.n - len(reach)
        assert report.dropped_dead == len(reach - co)
        assert {u for u, new in enumerate(report.state_map) if new is not None} == kept


def test_trim_returns_a_trimmed_input_itself():
    rng = random.Random(13)
    for _ in range(50):
        t, _ = trim(random_automaton(rng))
        again, report = trim(t)
        assert again is t
        assert report == TrimReport(t.n, 0, 0, tuple(range(t.n)))


def test_step_and_delta_edge_cases(ab_star_dfa):
    a = ab_star_dfa
    for c in a.alphabet:
        # a numpy index of -1 would read the last state, which has a b-edge
        assert a.step(-1, c) is None
        assert a.step(a.n, c) is None
    assert a.step(0, "z") is None
    assert not a.accepts("z")
    nfa = parse_automaton(
        "nfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n"
    )
    with pytest.raises(ValueError, match="deterministic"):
        nfa.delta
    rng = random.Random(13)
    for _ in range(100):
        a = random_automaton(rng)
        assert a.delta.shape == (len(a.alphabet), a.n) and a.delta.dtype == np.int32
        assert np.all(a.delta >= -1)
        sym, origin = np.nonzero(a.delta >= 0)
        edges = zip(origin.tolist(), sym.tolist(), a.delta[sym, origin].tolist())
        assert {(u, a.alphabet.symbols[c], v) for u, c, v in edges} == a.transitions
        succ = {(u, c): v for u, c, v in a.transitions}
        for u in range(a.n):
            for c in a.alphabet:
                assert a.step(u, c) == succ.get((u, c))
    assert Automaton(0, frozenset(), None, frozenset(), Alphabet(("a", "b"))).delta.shape == (2, 0)
    assert Automaton(2, frozenset(), 0, frozenset({1}), Alphabet(())).delta.shape == (0, 2)


def test_trim_requires_deterministic():
    nfa = parse_automaton(
        "nfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n"
    )
    with pytest.raises(ValueError):
        trim(nfa)


def test_reverse_involution_and_m(corpus_files):
    for path in corpus_files:
        a = parse_automaton(path.read_text())
        r = reverse(a)
        assert r.m == a.m
        assert reverse(r).transitions == a.transitions


def test_reverse_two_edges_into_one_state_is_nondeterministic():
    a = Automaton(
        3,
        frozenset({(0, "a", 2), (1, "a", 2), (0, "b", 1)}),
        0,
        frozenset({2}),
        Alphabet(("a", "b")),
    )
    assert a.deterministic
    assert not reverse(a).deterministic


def test_random_dfa_smallest():
    a = random_dfa(1, 1, Alphabet(("a",)), seed=3)
    assert a.n == 1 and a.transitions == {(0, "a", 0)} and a.finals == {0}


def test_random_dfa_reproducible():
    sigma = Alphabet(("a", "b", "c"))
    assert random_dfa(20, 40, sigma, 99) == random_dfa(20, 40, sigma, 99)
    assert random_dfa(20, 40, sigma, 99) != random_dfa(20, 40, sigma, 100)


def test_random_dfa_paper_scale_point():
    a = random_dfa(500, 1500, Alphabet(("a", "b", "c")), seed=1)
    assert a.n == 500 and a.m == 1500 and a.deterministic
    trimmed, _ = trim(a)
    assert trimmed.n >= 1


def test_random_dfa_all_states_reachable():
    rng = random.Random(5)
    for _ in range(40):
        a = random_automaton(rng, n_max=30)
        edges = out_edges(a)
        seen = {a.source}
        stack = [a.source]
        while stack:
            u = stack.pop()
            for _, v in edges[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert seen == set(range(a.n))
        assert a.finals


def test_random_dfa_infeasible_combinations():
    sigma = Alphabet(("a",))
    with pytest.raises(ValueError):
        random_dfa(3, 1, sigma, 0)  # fewer than n-1 edges
    with pytest.raises(ValueError):
        random_dfa(3, 4, sigma, 0)  # more than n*|sigma|
    with pytest.raises(ValueError):
        random_dfa(0, 0, sigma, 0)


def test_zero_state_roundtrip(corpus_files):
    a = parse_automaton((next(p for p in corpus_files if p.name == "zero_state.txt")).read_text())
    assert a.n == 0 and a.source is None
    assert parse_automaton(serialize_automaton(a)) == a
