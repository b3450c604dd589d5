"""The array square engine against the set-based oracles."""

import random
import time
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wheelerlang import (
    Alphabet,
    Automaton,
    RankTable,
    build_full_square,
    build_ov_dfa,
    compile_regex,
    compute_rank_table,
    intervals_intersect,
    is_acyclic,
    minimize,
    parse_regex,
    random_dfa,
    random_ov_instance,
    recognize,
    to_binary_alphabet,
    verify_witness,
)
from wheelerlang.bigsquare import (
    _kahn_residue_codes,
    _witness_from_residue,
    count_pair_transitions,
    pair_codes,
)
from util import dfas, random_automaton, reference_witness

ABC = Alphabet(("a", "b", "c"))


def engine(a_min, t):
    """The square, and the witness after checking it against the table walk."""
    sq = pair_codes(a_min, t)
    residue = _kahn_residue_codes(sq)
    if not len(residue):
        return sq, None
    witness = _witness_from_residue(a_min, sq, residue)
    assert witness == reference_witness(a_min, sq, residue)
    return sq, witness


def int32_overflow_case() -> tuple[Automaton, RankTable]:
    # the loop states' ordered code u*n+v would exceed 2**31 here
    n = 50_000
    loop = (n - 2, n - 1)
    transitions = {(i, "b", i + 1) for i in range(n - 3)}
    transitions |= {(n - 3, "a", loop[0]), (loop[0], "a", loop[1]), (loop[1], "a", loop[0])}
    a = Automaton(n, frozenset(transitions), 0, frozenset({loop[0]}), Alphabet(("a", "b")))
    # only the two loop states have non-empty, intersecting intervals
    ranks = list(range(1, n - 1))
    t = RankTable(n, tuple(ranks + [n - 1, n]), tuple(ranks + [n + 1, n + 2]), 0, (None,) * n, (None,) * n)
    return a, t


def funnel_dfa(n: int, seed: int) -> Automaton:
    """A random DFA whose a-edges from two thirds of the states go into two states."""
    a = random_dfa(n, 3 * n, ABC, seed)
    rng = random.Random(seed)
    x, y = rng.sample(range(n), 2)
    third = n // 3
    into = {u: x if u < third else y for u in range(2 * third)}
    transitions = {(u, c, v) for u, c, v in a.transitions if c != "a" or u not in into}
    transitions |= {(u, "a", v) for u, v in into.items()}
    return Automaton(n, frozenset(transitions), a.source, a.finals, ABC)


def test_no_overflow_past_int32_pair_codes():
    a, t = int32_overflow_case()
    loop = (a.n - 2, a.n - 1)
    t0 = time.perf_counter()
    sq, w = engine(a, t)
    assert time.perf_counter() - t0 < 1.0
    assert (sq.pairs, count_pair_transitions(sq)) == (1, 2)
    assert w is not None and verify_witness(a, t, w)
    assert set(w.cycle) == {loop, loop[::-1]} and w.labels == "aa"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dfas())
def test_engine_agrees_with_full_square_oracle(a):
    a_min, _ = minimize(a)
    if a_min.n == 0:
        return
    t = compute_rank_table(a_min)
    full = build_full_square(a_min, t)
    sq, w = engine(a_min, t)
    assert (2 * sq.pairs, count_pair_transitions(sq)) == (full.n2, full.m2)
    assert (w is None) == is_acyclic(full)
    assert w is None or verify_witness(a_min, t, w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_engine_agrees_with_oracle_on_arbitrary_rank_tables(data):
    # tables that no automaton produces: successors of an intersecting pair
    # need not intersect, so the engine's run bound check is exercised
    a = data.draw(dfas())
    ranks = st.lists(st.integers(1, 2 * a.n), min_size=a.n, max_size=a.n)
    inf = data.draw(ranks)
    sup = [lo + extra for lo, extra in zip(inf, data.draw(ranks))]
    t = RankTable(a.n, tuple(inf), tuple(sup), 0, (None,) * a.n, (None,) * a.n)
    full = build_full_square(a, t)
    sq, w = engine(a, t)
    assert (2 * sq.pairs, count_pair_transitions(sq)) == (full.n2, full.m2)
    assert (w is None) == is_acyclic(full)
    assert w is None or verify_witness(a, t, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_verdict_invariant_under_renumbering(data):
    a = data.draw(dfas(n_max=10))
    perm = data.draw(st.permutations(range(a.n)))
    b = Automaton(
        a.n,
        frozenset((perm[u], c, perm[v]) for u, c, v in a.transitions),
        perm[a.source],
        frozenset(perm[q] for q in a.finals),
        a.alphabet,
    )
    ra, rb = recognize(a), recognize(b)
    assert (ra.wheeler, ra.n_min, ra.square_states, ra.square_transitions) == (
        rb.wheeler,
        rb.n_min,
        rb.square_states,
        rb.square_transitions,
    )


def test_witness_matches_reference():
    # whole Witness objects; `engine` compares the lazy walk with the table walk
    rng = random.Random(26)
    inputs = []
    for _ in range(1000):
        a = random_automaton(rng, n_max=40)
        inputs.append(Automaton(a.n, a.transitions, rng.randrange(a.n), a.finals, a.alphabet))
    inputs += [random_dfa(300, 900, ABC, 3), random_dfa(1000, 3000, ABC, 4)]
    for size in (2, 4, 8, 16):
        # an orthogonal pair makes the language non-Wheeler, so the walk runs
        ov, _ = build_ov_dfa(random_ov_instance(size, 8, size, force="yes"))
        inputs += [ov, to_binary_alphabet(ov)]
    inputs += [compile_regex(parse_regex("b" * k + "(aa)*")) for k in (1, 2, 40, 300)]
    walks = 0
    for a in inputs:
        a_min, _ = minimize(a)
        if a_min.n:
            walks += engine(a_min, compute_rank_table(a_min))[1] is not None
    for n, seed in ((150, 0), (150, 1), (600, 2)):
        a_min, _ = minimize(funnel_dfa(n, seed))
        t = compute_rank_table(a_min)
        # two intersecting states with in-degree >= n/4 on "a"
        heads = a_min.delta[0]
        indeg = np.bincount(heads[heads >= 0], minlength=a_min.n)
        x, y = np.argsort(indeg)[-2:].tolist()
        assert indeg[x] >= a_min.n / 4 and intervals_intersect(t, x, y)
        walks += engine(a_min, t)[1] is not None
    walks += engine(*int32_overflow_case())[1] is not None
    assert walks >= 500


def test_witness_memory_is_linear_in_pairs():
    # the walk may hold a residue mask and O(sigma * n) in-edge lists, not
    # sigma * |R| index tables (44 MB here for the table walk)
    a_min, _ = minimize(random_dfa(1000, 3000, ABC, 0))
    sq = pair_codes(a_min, compute_rank_table(a_min))
    residue = _kahn_residue_codes(sq)
    a_min.delta  # cached beforehand: it is the automaton's, not the walk's
    tracemalloc.start()
    try:
        _witness_from_residue(a_min, sq, residue)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(residue) and peak <= 2 * sq.pairs + 256 * len(ABC) * a_min.n
