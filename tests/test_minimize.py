import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wheelerlang.regex
from wheelerlang import (
    Alphabet,
    Automaton,
    build_ov_dfa,
    compile_regex,
    minimize,
    parse_automaton,
    parse_regex,
    random_ov_instance,
    to_binary_alphabet,
    trim,
)
from util import dfas, equivalent, random_automaton, random_pattern, reference_minimize


def test_hand_example_collapses_to_two_states():
    # three-state presentation of (aa)*; 0 and 2 are equivalent
    a = Automaton(
        3,
        frozenset({(0, "a", 1), (1, "a", 2), (2, "a", 1)}),
        0,
        frozenset({0, 2}),
        Alphabet(("a",)),
    )
    minimal, state_map = minimize(a)
    assert minimal.n == 2
    assert minimal.transitions == {(0, "a", 1), (1, "a", 0)}
    assert minimal.finals == {0} and minimal.source == 0
    assert state_map == (0, 1, 0)


def test_idempotent_on_already_minimal(aa_star_dfa):
    minimal, state_map = minimize(aa_star_dfa)
    assert (minimal.n, minimal.m) == (aa_star_dfa.n, aa_star_dfa.m)
    assert minimal == aa_star_dfa
    assert state_map == (0, 1)


def test_minimize_random_properties():
    rng = random.Random(42)
    for _ in range(1000):
        a = random_automaton(rng, n_max=10)
        minimal, state_map = minimize(a)
        assert minimal.n <= a.n and minimal.m <= a.m
        assert equivalent(a, minimal)
        again, _ = minimize(minimal)
        assert (again.n, again.m) == (minimal.n, minimal.m)
        # the state map sends kept states onto the minimal automaton
        trimmed, report = trim(a)
        for q in range(a.n):
            assert (state_map[q] is None) == (report.state_map[q] is None)
            if state_map[q] is not None:
                assert 0 <= state_map[q] < minimal.n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dfas())
def test_minimize_is_idempotent(a):
    minimal, _ = minimize(a)
    assert minimize(minimal)[0] == minimal


def with_source(a: Automaton, source: int, finals=None) -> Automaton:
    finals = a.finals if finals is None else finals
    return Automaton(a.n, a.transitions, source, finals, a.alphabet)


def test_minimize_matches_reference(monkeypatch):
    # whole output: the minimal DFA (blocks numbered by least state) and the map
    rng = random.Random(9)
    inputs = []
    for _ in range(1000):
        a = random_automaton(rng, n_max=rng.choice((6, 12, 40)))
        # a random source leaves states unreachable; all-final has no dead state
        inputs.append(with_source(a, rng.randrange(a.n)))
        inputs.append(with_source(a, rng.randrange(a.n), frozenset(range(a.n))))
    inputs += [with_source(a, a.source, frozenset()), Automaton(0, (), None, (), a.alphabet)]
    # an empty alphabet: the only live state is a final source with no edges
    for finals in ("0", "", "0 2"):
        inputs.append(
            parse_automaton(f"dfa\nalphabet\nstates 3\nsource 0\nfinals {finals}\ntransitions 0\n")
        )
    for size in (1, 2, 4, 8):
        for seed in range(3):
            ov, _ = build_ov_dfa(random_ov_instance(size, 4, seed))
            inputs += [ov, to_binary_alphabet(ov)]
    # compile_regex hands its subset-construction DFA to minimize
    subset_dfas = []
    monkeypatch.setattr(
        wheelerlang.regex, "minimize", lambda d: subset_dfas.append(d) or minimize(d)
    )
    patterns = [random_pattern(rng, depth=4) for _ in range(300)]
    patterns += ["b" * k + "(aa)*" for k in (1, 2, 5, 40, 300)]
    patterns += ["()", "|"]  # no literals: the DFA has an empty alphabet
    inputs += [compile_regex(parse_regex(p)) for p in patterns]
    inputs += subset_dfas
    for a in inputs:
        assert minimize(a) == reference_minimize(a)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dfas(), st.data())
def test_minimize_matches_reference_property(a, data):
    a = with_source(a, data.draw(st.integers(0, a.n - 1)))
    assert minimize(a) == reference_minimize(a)


def test_minimize_handles_untrimmed_input():
    # state 2 is unreachable, state 3 is dead
    a = parse_automaton(
        "dfa\nalphabet a b\nstates 4\nsource 0\nfinals 1\ntransitions 4\n"
        "0 a 1\n1 a 1\n2 a 1\n0 b 3\n"
    )
    minimal, state_map = minimize(a)
    assert minimal.n == 2
    assert state_map[2] is None and state_map[3] is None


def test_minimize_zero_state_passes_through():
    a = parse_automaton("dfa\nalphabet a\nstates 2\nsource 0\nfinals\ntransitions 1\n0 a 1\n")
    minimal, state_map = minimize(a)
    assert minimal.n == 0
    assert state_map == (None, None)


def test_minimize_requires_deterministic():
    nfa = parse_automaton(
        "nfa\nalphabet a\nstates 2\nsource 0\nfinals 1\ntransitions 2\n0 a 0\n0 a 1\n"
    )
    with pytest.raises(ValueError):
        minimize(nfa)


def test_equivalent_basics(aa_star_dfa, a_star_dfa):
    assert not equivalent(a_star_dfa, aa_star_dfa)
    assert equivalent(a_star_dfa, a_star_dfa)


def test_equivalent_spots_partiality_differences():
    sigma = Alphabet(("a", "b"))
    total = Automaton(1, frozenset({(0, "a", 0), (0, "b", 0)}), 0, frozenset({0}), sigma)
    partial = Automaton(1, frozenset({(0, "a", 0)}), 0, frozenset({0}), sigma)
    assert not equivalent(total, partial)


def test_equivalent_alphabet_mismatch():
    a = Automaton(1, frozenset({(0, "a", 0)}), 0, frozenset({0}), Alphabet(("a",)))
    b = Automaton(1, frozenset({(0, "b", 0)}), 0, frozenset({0}), Alphabet(("b",)))
    with pytest.raises(ValueError, match="alphabet mismatch"):
        equivalent(a, b)
