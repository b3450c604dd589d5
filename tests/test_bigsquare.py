"""The array square engine against the set-based oracles."""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from wheelerlang import (
    Alphabet,
    Automaton,
    RankTable,
    build_full_square,
    compute_rank_table,
    is_acyclic,
    minimize,
    recognize,
    verify_witness,
)
from wheelerlang.bigsquare import (
    _kahn_residue_codes,
    _witness_from_residue,
    count_pair_transitions,
    pair_codes,
)
from util import dfas


def engine(a_min, t):
    sq = pair_codes(a_min, t)
    residue = _kahn_residue_codes(sq)
    witness = _witness_from_residue(a_min, sq, residue) if len(residue) else None
    return sq, witness


def test_no_overflow_past_int32_pair_codes():
    # the loop states' ordered code u*n+v would exceed 2**31 here
    n = 50_000
    loop = (n - 2, n - 1)
    transitions = {(i, "b", i + 1) for i in range(n - 3)}
    transitions |= {(n - 3, "a", loop[0]), (loop[0], "a", loop[1]), (loop[1], "a", loop[0])}
    a = Automaton(n, frozenset(transitions), 0, frozenset({loop[0]}), Alphabet(("a", "b")))
    # only the two loop states have non-empty, intersecting intervals
    ranks = list(range(1, n - 1))
    t = RankTable(n, tuple(ranks + [n - 1, n]), tuple(ranks + [n + 1, n + 2]), 0, (None,) * n, (None,) * n)
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
