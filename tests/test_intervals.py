import itertools
import random

import pytest

from wheelerlang import (
    INF,
    SUP,
    Alphabet,
    Automaton,
    EventuallyPeriodicString,
    build_ov_dfa,
    compare_eps,
    compile_regex,
    compute_rank_table,
    extract_infsup_string,
    intervals_intersect,
    minimize,
    parse_regex,
    random_ov_instance,
    to_binary_alphabet,
    width_estimate,
)
from util import (
    prune_max_edges,
    prune_min_edges,
    random_minimal,
    reference_rank_table,
    reference_width,
)

EPS = EventuallyPeriodicString


def test_prune_min_keeps_minimum_incoming_labels():
    # state 2 has incoming labels {a, b}; only the a-edges survive
    a = Automaton(
        3,
        frozenset({(0, "a", 1), (0, "b", 2), (1, "a", 2), (1, "b", 1)}),
        0,
        frozenset({2}),
        Alphabet(("a", "b")),
    )
    pruned = prune_min_edges(a)
    incoming_2 = {(c, v) for (v, c, u) in pruned.transitions if u == 2}
    assert incoming_2 == {("a", 1)}


def test_prune_respects_declared_alphabet_order():
    # with order (b, a) the minimum label is b
    a = Automaton(
        3,
        frozenset({(0, "a", 1), (0, "b", 2), (1, "a", 2), (1, "b", 1)}),
        0,
        frozenset({2}),
        Alphabet(("b", "a")),
    )
    incoming_2 = {(c, v) for (v, c, u) in prune_min_edges(a).transitions if u == 2}
    assert incoming_2 == {("b", 0)}


def test_prune_unary_automaton_unchanged(aa_star_dfa):
    assert prune_min_edges(aa_star_dfa).transitions == aa_star_dfa.transitions
    assert prune_max_edges(aa_star_dfa).transitions == aa_star_dfa.transitions


def test_prune_source_keeps_all_incoming():
    a = Automaton(
        2,
        frozenset({(0, "a", 1), (1, "a", 0), (1, "b", 0)}),
        0,
        frozenset({0}),
        Alphabet(("a", "b")),
    )
    assert prune_min_edges(a).transitions == a.transitions
    assert prune_max_edges(a).transitions == a.transitions


def test_prune_max_symmetric():
    a = Automaton(
        3,
        frozenset({(0, "a", 1), (0, "b", 2), (1, "a", 2), (1, "b", 1)}),
        0,
        frozenset({2}),
        Alphabet(("a", "b")),
    )
    incoming_2 = {(c, v) for (v, c, u) in prune_max_edges(a).transitions if u == 2}
    assert incoming_2 == {("b", 0)}


def test_pruned_and_unpruned_tables_agree():
    rng = random.Random(31)
    for _ in range(500):
        a_min = random_minimal(rng, n_max=8)
        t1 = compute_rank_table(a_min)
        t2 = compute_rank_table(a_min, prune=False)
        assert (t1.inf_rank, t1.sup_rank) == (t2.inf_rank, t2.sup_rank)


def test_rank_table_matches_reference_fixpoint():
    # RankTable equality covers every field: ranks, depth and both predecessor maps
    rng = random.Random(3)
    inputs = [random_minimal(rng) for _ in range(1000)]
    for size in (1, 2, 4, 8):
        for seed in range(3):
            ov, _ = build_ov_dfa(random_ov_instance(size, 4, seed))
            inputs += [minimize(ov)[0], minimize(to_binary_alphabet(ov))[0]]
    inputs += [compile_regex(parse_regex("b" * k + "(aa)*")) for k in (1, 2, 5, 40, 300)]
    for a_min in inputs:
        for prune in (True, False):
            t = compute_rank_table(a_min, prune)
            assert t == reference_rank_table(a_min, prune)
            assert width_estimate(t) == reference_width(t)


def test_rank_table_aa_star(aa_star_dfa):
    t = compute_rank_table(aa_star_dfa)
    assert t.inf_rank == (1, 2)
    assert t.sup_rank == (3, 3)
    assert not t.singleton(0) and not t.singleton(1)


def test_rank_table_a_star(a_star_dfa):
    t = compute_rank_table(a_star_dfa)
    assert t.inf_rank == (1,) and t.sup_rank == (2,)
    assert not t.singleton(0)


def test_rank_table_ab_star(ab_star_dfa):
    t = compute_rank_table(ab_star_dfa)
    assert t.inf_rank[0] == t.sup_rank[0] == 1 and t.singleton(0)
    assert t.inf_rank[1] == 2 and t.sup_rank[1] == 3


def test_rank_table_requires_trimmed():
    sigma = Alphabet(("a", "b"))
    unreachable = Automaton(2, frozenset({(0, "a", 0)}), 0, frozenset({0}), sigma)
    # state 1 is reachable but reaches no final
    dead = Automaton(2, frozenset({(0, "a", 0), (0, "b", 1)}), 0, frozenset({0}), sigma)
    for a in (unreachable, dead):
        for prune in (True, False):
            with pytest.raises(ValueError, match="trimmed"):
                compute_rank_table(a, prune)


def test_source_infimum_is_the_unique_minimum():
    rng = random.Random(8)
    for _ in range(200):
        a_min = random_minimal(rng, n_max=10)
        t = compute_rank_table(a_min)
        src = a_min.source
        assert t.inf_rank[src] == 1
        for u in range(a_min.n):
            if u != src:
                assert t.inf_rank[u] > 1
                assert t.sup_rank[u] > 1


def test_compare_eps_examples():
    assert compare_eps(EPS("ba", ""), EPS("baa", "")) == 1  # baa precedes ba
    assert compare_eps(EPS("", "a"), EPS("", "aa")) == 0  # both are a^omega
    assert compare_eps(EPS("", ""), EPS("a", "")) == -1  # epsilon precedes all


def test_compare_eps_against_materialization():
    rng = random.Random(77)
    sigma = "ab"

    def materialize(s: EPS, depth: int) -> list[str]:
        out = []
        for c in s.chars_right_to_left():
            out.append(c)
            if len(out) >= depth:
                break
        return out

    def compare_lists(xs, ys):
        # right-to-left character lists; exhausted string is smaller
        for cx, cy in itertools.zip_longest(xs, ys):
            if cx == cy:
                continue
            if cx is None:
                return -1
            if cy is None:
                return 1
            return -1 if cx < cy else 1
        return 0

    for _ in range(2000):
        x = EPS(
            "".join(rng.choice(sigma) for _ in range(rng.randrange(4))),
            "".join(rng.choice(sigma) for _ in range(rng.randrange(4))),
        )
        y = EPS(
            "".join(rng.choice(sigma) for _ in range(rng.randrange(4))),
            "".join(rng.choice(sigma) for _ in range(rng.randrange(4))),
        )
        depth = 4 * (len(x.preperiod) + len(x.period) + len(y.preperiod) + len(y.period)) + 4
        expected = compare_lists(materialize(x, depth), materialize(y, depth))
        assert compare_eps(x, y) == expected, (x, y)


def test_canonical_forms():
    assert EPS("", "aa").canonical() == EPS("", "a")
    assert EPS("a", "a").canonical() == EPS("", "a")
    assert EPS("ba", "").canonical() == EPS("ba", "")
    assert EPS("ab", "ab").canonical() == EPS("", "ab")  # absorb a whole period
    assert EPS("b", "ab").canonical() == EPS("b", "ab")  # boundary cannot shift
    assert compare_eps(EPS("ab", "ab"), EPS("ab", "ab").canonical()) == 0


def test_extract_examples(aa_star_dfa):
    t = compute_rank_table(aa_star_dfa)
    assert extract_infsup_string(t, 1, INF) == EPS("a", "")
    assert extract_infsup_string(t, 0, SUP) == EPS("", "a")
    assert extract_infsup_string(t, 0, INF) == EPS("", "")
    assert extract_infsup_string(t, 1, SUP) == EPS("", "a")


def test_singleton_states_extract_equal_strings():
    rng = random.Random(17)
    seen = 0
    for _ in range(300):
        a_min = random_minimal(rng, n_max=8)
        t = compute_rank_table(a_min)
        for u in range(a_min.n):
            if t.singleton(u):
                seen += 1
                lo = extract_infsup_string(t, u, INF)
                hi = extract_infsup_string(t, u, SUP)
                assert compare_eps(lo, hi, order=a_min.alphabet) == 0
    assert seen > 0


def test_finite_bounds_are_realized_by_source_walks():
    rng = random.Random(23)
    for _ in range(200):
        a_min = random_minimal(rng, n_max=10)
        t = compute_rank_table(a_min)
        for u in range(a_min.n):
            for which in (INF, SUP):
                s = extract_infsup_string(t, u, which)
                assert len(s.preperiod) + len(s.period) <= 2 * a_min.n + 2
                if not s.period:
                    q = a_min.source
                    for c in s.preperiod:
                        q = a_min.step(q, c)
                    assert q == u


def test_rank_order_matches_string_oracle():
    rng = random.Random(29)
    for _ in range(150):
        a_min = random_minimal(rng, n_max=8)
        t = compute_rank_table(a_min)
        elems = [(u, INF) for u in range(a_min.n)] + [(u, SUP) for u in range(a_min.n)]
        strings = {e: extract_infsup_string(t, *e) for e in elems}
        ranks = {e: (t.inf_rank[e[0]] if e[1] == INF else t.sup_rank[e[0]]) for e in elems}
        for x, y in itertools.combinations(elems, 2):
            got = compare_eps(strings[x], strings[y], order=a_min.alphabet)
            want = (ranks[x] > ranks[y]) - (ranks[x] < ranks[y])
            assert got == want, (x, y, strings[x], strings[y])


def test_intersect_examples(aa_star_dfa, ab_star_dfa):
    t = compute_rank_table(aa_star_dfa)
    assert intervals_intersect(t, 0, 1) and intervals_intersect(t, 1, 0)
    assert intervals_intersect(t, 0, 0)  # non-singleton interval meets itself
    t2 = compute_rank_table(ab_star_dfa)
    assert not intervals_intersect(t2, 0, 1)  # source interval is empty
    assert not intervals_intersect(t2, 0, 0)


def test_width_examples(aa_star_dfa, ab_star_dfa):
    assert width_estimate(compute_rank_table(aa_star_dfa)) == 2
    assert width_estimate(compute_rank_table(ab_star_dfa)) == 1


def test_width_one_means_no_intersections():
    rng = random.Random(41)
    for _ in range(200):
        a_min = random_minimal(rng, n_max=8)
        t = compute_rank_table(a_min)
        if width_estimate(t) == 1:
            for u, v in itertools.combinations(range(a_min.n), 2):
                assert not intervals_intersect(t, u, v)


def test_width_equals_bruteforce_clique():
    rng = random.Random(53)
    for _ in range(250):
        a_min = random_minimal(rng, n_max=8)
        t = compute_rank_table(a_min)
        non_singleton = [u for u in range(a_min.n) if not t.singleton(u)]
        best = 1 if a_min.n else 0
        for size in range(2, len(non_singleton) + 1):
            for combo in itertools.combinations(non_singleton, size):
                if all(intervals_intersect(t, u, v) for u, v in itertools.combinations(combo, 2)):
                    best = max(best, size)
        assert width_estimate(t) == max(1, best)


def test_fixpoint_depth_is_recorded_and_bounded():
    rng = random.Random(61)
    for _ in range(100):
        a_min = random_minimal(rng, n_max=10)
        t = compute_rank_table(a_min)
        assert 1 <= t.fixpoint_depth <= 8 * a_min.n + 8
