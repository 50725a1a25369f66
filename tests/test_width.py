import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimlab.errors import BudgetExceededError
from mimlab.generators import (
    clique_thread,
    fixtures,
    random_connected_graph,
    skew_grid,
    two_rows,
)
from mimlab.graph import (
    _EdgeTable,
    cut_graph,
    is_induced_cut_matching,
    max_induced_cut_matching,
    upper_subgraph,
)
from mimlab.harness import _chunks, connected_corpus, full_corpus
from mimlab.width import (
    WidthVariant,
    _lu_widths,
    _prefix_scan,
    exact_width,
    heuristic_width_upper,
    prefix_width,
    prefix_width_witness,
    width_of_ordering,
)

from conftest import N9_GRAPHS, graphs
from oracles import (
    derived_edges,
    naive_exact_width,
    naive_exact_width_report,
    naive_heuristic_width_upper,
    naive_lex_least_witness,
    naive_prefix_width,
)

C4 = fixtures()["c4"]
K2 = fixtures()["k2"]


class TestPrefixWidth:
    def test_c4_all_variants(self):
        assert prefix_width(C4, [0, 1], WidthVariant.LU) == 1
        assert prefix_width(C4, [0, 1], WidthVariant.LMIM) == 2
        assert prefix_width(C4, [0, 1], WidthVariant.LSIM) == 1

    def test_trivial_sets(self):
        for variant in WidthVariant:
            assert prefix_width(C4, [], variant) == 0
            assert prefix_width(C4, range(4), variant) == 0

    def test_two_rows_top(self):
        g = two_rows()
        assert prefix_width(g, range(4), WidthVariant.LU) == 1
        assert prefix_width(g, range(4), WidthVariant.LMIM) == 2

    def test_equals_matching_of_derived_graph(self):
        # the fast path must agree with the documented composition
        g = two_rows()
        for w in ([0, 1], [0, 2, 5], range(4)):
            w = list(w)
            assert prefix_width(g, w, WidthVariant.LU) == \
                max_induced_cut_matching(upper_subgraph(g, w), w)[0]
            assert prefix_width(g, w, WidthVariant.LMIM) == \
                max_induced_cut_matching(cut_graph(g, w), w)[0]
            assert prefix_width(g, w, WidthVariant.LSIM) == \
                max_induced_cut_matching(g, w)[0]

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, g, umask_seed):
        w = {v for v in range(g.n) if umask_seed >> v & 1 and v < g.n}
        derived = {
            WidthVariant.LU: upper_subgraph(g, w),
            WidthVariant.LMIM: cut_graph(g, w),
            WidthVariant.LSIM: g,
        }
        for variant in WidthVariant:
            expected = naive_prefix_width(g, w, variant.value)
            assert prefix_width(g, w, variant) == expected
            size, witness = prefix_width_witness(g, w, variant)
            assert size == len(witness) == expected
            assert is_induced_cut_matching(derived[variant], w, witness)

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_variant_inequalities(self, g, umask_seed):
        w = {v for v in range(g.n) if umask_seed >> v & 1 and v < g.n}
        lsim = prefix_width(g, w, WidthVariant.LSIM)
        lu = prefix_width(g, w, WidthVariant.LU)
        lmim = prefix_width(g, w, WidthVariant.LMIM)
        assert lsim <= lu <= lmim

    def test_witness_variant(self):
        size, witness = prefix_width_witness(C4, [0, 1], WidthVariant.LMIM)
        assert size == 2 and witness == [(0, 2), (1, 3)]

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_lex_least(self, g, umask_seed):
        w = {v for v in range(g.n) if umask_seed >> v & 1}
        expected = naive_lex_least_witness(set(g.edges()), w)
        assert max_induced_cut_matching(g, w) == (len(expected), expected)
        for variant in WidthVariant:
            expected = naive_lex_least_witness(
                derived_edges(g, w, variant.value), w)
            assert prefix_width_witness(g, w, variant) == \
                (len(expected), expected)


class TestWidthOfOrdering:
    def test_k2(self):
        for variant in WidthVariant:
            value, per_prefix = width_of_ordering(K2, [0, 1], variant)
            assert value == 1
            assert per_prefix == [1, 0]

    def test_two_rows_row_order(self):
        value, per_prefix = width_of_ordering(
            two_rows(), list(range(8)), WidthVariant.LU
        )
        assert value == 1
        assert all(w <= 1 for w in per_prefix)

    def test_skew_grid_layer_order_bound(self):
        g, meta = skew_grid(4, 2, 2)
        value, _ = width_of_ordering(
            g, meta.layer_major_ordering(), WidthVariant.LU
        )
        assert value <= 2 + 2

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            width_of_ordering(K2, [0, 0], WidthVariant.LU)

    def test_non_integer_entries_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            width_of_ordering(K2, [0.0, 1.0], WidthVariant.LU)

    def test_generator_ordering(self):
        # the permutation check must not use up a one-shot iterator
        g = two_rows()
        for variant in WidthVariant:
            assert width_of_ordering(g, (v for v in range(8)), variant) == \
                width_of_ordering(g, list(range(8)), variant)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_per_prefix_matches_naive(self, data):
        # unsorted orders exercise the prefix-by-prefix crossing masks
        g = data.draw(graphs(max_n=6))
        pi = data.draw(st.permutations(range(g.n)))
        for variant in WidthVariant:
            value, per_prefix = width_of_ordering(g, pi, variant)
            expected = [naive_prefix_width(g, pi[:i + 1], variant.value)
                        for i in range(g.n)]
            assert per_prefix == expected
            assert value == max(expected, default=0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_capped_scan_matches_naive(self, data):
        # past the cap a prefix width can still fall to cap - 1
        g = data.draw(graphs(max_n=7))
        pi = data.draw(st.permutations(range(g.n)))
        cap = data.draw(st.integers(1, 3))
        for variant in WidthVariant:
            table = _EdgeTable(g, variant)
            ors, widths = _prefix_scan(table, pi, cap)
            assert widths == [
                min(naive_prefix_width(g, pi[:i], variant.value), cap)
                for i in range(g.n + 1)]
            assert [a & ~b for a, b in ors] == [
                table.crossing(sum(1 << v for v in pi[:i]))
                for i in range(g.n + 1)]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefix_widths_step_by_at_most_one(self, data):
        # the fact the prefix scan rests on, judged by the naive oracle
        g = data.draw(graphs(max_n=7))
        pi = data.draw(st.permutations(range(g.n)))
        for variant in WidthVariant:
            widths = [naive_prefix_width(g, pi[:i], variant.value)
                      for i in range(g.n + 1)]
            assert all(abs(a - b) <= 1 for a, b in zip(widths, widths[1:]))


class TestExactWidth:
    def test_c4(self):
        assert exact_width(C4, WidthVariant.LU).value == 1

    def test_two_rows(self):
        assert exact_width(two_rows(), WidthVariant.LU).value == 1

    def test_clique_thread_value(self):
        # the row-major ordering already has width 1, so the minimum is 1
        assert exact_width(clique_thread(3), WidthVariant.LU).value == 1

    # The canonical witness rule (always remove the smallest-index
    # minimizing vertex) fixes these; any exact-width engine must
    # reproduce them.
    @pytest.mark.parametrize("name, variant, witness, per_prefix", [
        ("tworows", "lu", (7, 6, 5, 4, 3, 2, 1, 0), (1, 1, 1, 1, 1, 1, 1, 0)),
        ("tworows", "lmim", (7, 6, 5, 4, 3, 2, 1, 0), (1, 2, 2, 2, 2, 2, 1, 0)),
        ("tworows", "lsim", (7, 6, 5, 4, 3, 2, 1, 0), (1, 1, 1, 1, 1, 1, 1, 0)),
        ("c4", "lu", (3, 2, 1, 0), (1, 1, 1, 0)),
        ("c4", "lmim", (2, 1, 3, 0), (1, 1, 1, 0)),
        ("c4", "lsim", (3, 2, 1, 0), (1, 1, 1, 0)),
        ("cliquethread3", "lu", (8, 7, 6, 5, 4, 3, 2, 1, 0),
         (1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ("cliquethread3", "lmim", (8, 7, 5, 6, 4, 2, 3, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 1, 0)),
        ("cliquethread3", "lsim", (8, 7, 6, 5, 4, 3, 2, 1, 0),
         (1, 1, 1, 1, 1, 1, 1, 1, 0)),
        # width 2: the search rejects sets at thresholds 0 and 1 first
        ("skewgrid312", "lu", (8, 5, 7, 4, 3, 6, 2, 1, 0),
         (1, 1, 2, 2, 2, 2, 2, 1, 0)),
        ("skewgrid312", "lmim", (8, 7, 5, 4, 3, 6, 2, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 1, 0)),
        ("skewgrid312", "lsim", (8, 5, 7, 4, 6, 3, 2, 1, 0),
         (1, 1, 2, 2, 2, 2, 2, 1, 0)),
    ])
    def test_canonical_witness_pinned(self, name, variant, witness,
                                      per_prefix):
        g = {"tworows": two_rows(), "c4": C4,
             "cliquethread3": clique_thread(3),
             "skewgrid312": skew_grid(3, 1, 2)[0]}[name]
        rep = exact_width(g, WidthVariant(variant))
        assert (rep.witness, rep.per_prefix) == (witness, per_prefix)
        assert rep.value == max(per_prefix)

    # The benchmark's four low-width exact grids (n = 14-15): any change
    # to the search must keep every value, witness and per-prefix width.
    @pytest.mark.parametrize("pqr, variant, value, witness, per_prefix", [
        ((3, 3, 1), "lu", 1,
         (13, 6, 3, 14, 4, 11, 7, 5, 12, 8, 9, 0, 10, 2, 1),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((3, 3, 1), "lmim", 1,
         (13, 3, 6, 14, 4, 11, 7, 5, 12, 8, 9, 0, 10, 2, 1),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((3, 3, 1), "lsim", 1,
         (13, 6, 14, 11, 7, 3, 12, 8, 9, 4, 0, 10, 5, 2, 1),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((3, 1, 3), "lu", 2,
         (14, 8, 12, 5, 4, 10, 2, 13, 7, 6, 11, 9, 3, 1, 0),
         (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        ((3, 1, 3), "lmim", 2,
         (14, 12, 8, 4, 5, 10, 2, 13, 7, 6, 11, 9, 3, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        ((3, 1, 3), "lsim", 2,
         (14, 8, 12, 5, 10, 2, 13, 7, 11, 6, 9, 4, 3, 1, 0),
         (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        ((5, 2, 1), "lu", 1,
         (14, 9, 8, 13, 6, 7, 12, 4, 5, 11, 2, 3, 10, 1, 0),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((5, 2, 1), "lmim", 1,
         (14, 6, 8, 7, 13, 9, 12, 2, 4, 3, 11, 5, 10, 1, 0),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((5, 2, 1), "lsim", 1,
         (14, 8, 13, 9, 6, 12, 7, 4, 11, 5, 2, 10, 3, 1, 0),
         (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0)),
        ((2, 2, 2), "lu", 2,
         (13, 12, 11, 6, 7, 10, 3, 9, 5, 4, 8, 2, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        ((2, 2, 2), "lmim", 2,
         (13, 12, 7, 6, 5, 4, 11, 10, 3, 9, 8, 2, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        ((2, 2, 2), "lsim", 2,
         (13, 12, 11, 6, 10, 7, 3, 9, 4, 8, 5, 2, 1, 0),
         (1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
    ])
    def test_skew_grid_reports_pinned(self, pqr, variant, value, witness,
                                      per_prefix):
        rep = exact_width(skew_grid(*pqr)[0], WidthVariant(variant))
        assert (rep.value, rep.witness, rep.per_prefix) == \
            (value, witness, per_prefix)

    # Dense random graphs (n = 14, p = 0.4), where no structure prunes.
    @pytest.mark.parametrize("seed, value, witness, per_prefix", [
        (0, 2,
         (11, 10, 13, 12, 6, 2, 8, 5, 4, 3, 9, 7, 1, 0),
         (1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
        (1, 2,
         (13, 11, 10, 12, 9, 8, 4, 6, 5, 7, 3, 2, 1, 0),
         (1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0)),
    ])
    def test_dense_random_report_pinned(self, seed, value, witness,
                                        per_prefix):
        g = random_connected_graph(14, seed, p=0.4)
        rep = exact_width(g, WidthVariant.LU)
        assert (rep.value, rep.witness, rep.per_prefix) == \
            (value, witness, per_prefix)

    def test_budget_counts_tested_sets(self):
        # clique_thread(3) tests 243 prefix sets under lu.
        g = clique_thread(3)
        assert exact_width(g, WidthVariant.LU, budget=243).value == 1
        with pytest.raises(BudgetExceededError, match="exact width search"):
            exact_width(g, WidthVariant.LU, budget=242)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            exact_width(C4, WidthVariant.LU, budget=budget)

    # Prefix sets tested on skew_grid(2, 2, 2), a width-2 graph whose
    # search rejects sets at two thresholds.
    @pytest.mark.parametrize("variant, tested", [
        ("lu", 9184), ("lmim", 5247), ("lsim", 12026),
    ])
    def test_budget_counts_tested_sets_skew_grid(self, variant, tested):
        g = skew_grid(2, 2, 2)[0]
        assert exact_width(g, WidthVariant(variant), budget=tested).value == 2
        with pytest.raises(BudgetExceededError, match="exact width search"):
            exact_width(g, WidthVariant(variant), budget=tested - 1)

    def test_reports_digest_pinned(self):
        # Every connected graph with n <= 7 and 36 seeded random graphs
        # with n = 8-13, in all three variants: any change to the search
        # must keep every value, witness and per-prefix width.
        from mimlab import corpus

        gs = [g for n in range(1, 8) for g in corpus.connected_graphs(n)]
        gs += [random_connected_graph(n, seed, p=p) for n in range(8, 14)
               for seed in range(3) for p in (0.3, 0.5)]
        h = hashlib.sha256()
        for g in gs:
            for variant in WidthVariant:
                rep = exact_width(g, variant)
                h.update(repr((rep.value, rep.witness,
                               rep.per_prefix)).encode())
        assert (len(gs), h.hexdigest()) == (
            1032,
            "e8ec86aad90b7f6df81cdc72d1fea9b1c34e29375f42ac33dbedb84b2be91196",
        )

    def test_matches_full_table_oracle_exhaustive(self):
        from mimlab import corpus

        for n in range(1, 7):
            for g in corpus.connected_graphs(n):
                for variant in WidthVariant:
                    rep = exact_width(g, variant)
                    assert (rep.value, rep.witness, rep.per_prefix) == \
                        naive_exact_width_report(g, variant.value), g.edges()

    @given(graphs(max_n=7))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_table_oracle(self, g):
        for variant in WidthVariant:
            rep = exact_width(g, variant)
            assert (rep.value, rep.witness, rep.per_prefix) == \
                naive_exact_width_report(g, variant.value)

    def test_witness_consistency(self):
        for variant in WidthVariant:
            rep = exact_width(two_rows(), variant)
            value, per_prefix = width_of_ordering(two_rows(), rep.witness, variant)
            assert value == rep.value
            assert tuple(per_prefix) == rep.per_prefix
            assert rep.value == max(rep.per_prefix)

    def test_default_budget(self, monkeypatch):
        # budget=None applies DEFAULT_EXACT_BUDGET; clique_thread(3)
        # tests 243 prefix sets under lu.
        monkeypatch.setattr("mimlab.width.DEFAULT_EXACT_BUDGET", 242)
        with pytest.raises(BudgetExceededError, match="exact width search"):
            exact_width(clique_thread(3), WidthVariant.LU)
        monkeypatch.setattr("mimlab.width.DEFAULT_EXACT_BUDGET", 243)
        assert exact_width(clique_thread(3), WidthVariant.LU).value == 1

    def test_beyond_24_vertices(self):
        # No guard on n: the tables hold only the sets the search settles.
        g = skew_grid(4, 2, 2)[0]
        assert g.n == 28
        rep = exact_width(g, WidthVariant.LU)
        assert rep.value == 2
        assert width_of_ordering(g, rep.witness, WidthVariant.LU)[0] == 2
        # Criterion 10a's proven value, at r = 5 (n = 25).
        assert exact_width(clique_thread(5), WidthVariant.LU).value == 1

    @given(graphs(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_permutation_minimum(self, g):
        for variant in WidthVariant:
            assert exact_width(g, variant).value == \
                naive_exact_width(g, variant.value)

    def test_matches_permutation_minimum_exhaustive_small(self):
        from mimlab import corpus

        for n in (2, 3, 4):
            for g in corpus.connected_graphs(n):
                for variant in WidthVariant:
                    assert exact_width(g, variant).value == \
                        naive_exact_width(g, variant.value), g.edges()

    @given(graphs(max_n=6))
    @settings(max_examples=20, deadline=None)
    def test_variant_inequalities(self, g):
        lsim = exact_width(g, WidthVariant.LSIM).value
        lu = exact_width(g, WidthVariant.LU).value
        lmim = exact_width(g, WidthVariant.LMIM).value
        assert lsim <= lu <= lmim


def _smallest_passing_budget(g):
    # exact_width(g, LU) passes a budget exactly when it is at least the
    # number of sets the search tests: find that number by bisection.
    def passes(budget):
        try:
            exact_width(g, WidthVariant.LU, budget=budget)
        except BudgetExceededError:
            return False
        return True

    hi = 1
    while not passes(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


class TestLuWidths:
    # `_lu_widths`, the chunk kernel of obdd-sandwich, against its oracle
    # `exact_width`: every connected graph with n <= 7 and seeded n = 8
    # graphs, in the chunks `run_obdd_sandwich` makes.
    CASES = ([g for _, g in connected_corpus(7)]
             + [random_connected_graph(8, seed) for seed in range(40)])

    @pytest.mark.parametrize("whole_corpus", [False, True])
    def test_reports_equal_exact_width(self, whole_corpus):
        # The whole corpus up to n = 6 adds graphs with isolated vertices,
        # edgeless ones and n = 1.
        cases = ([g for _, g in full_corpus(6)] if whole_corpus
                 else self.CASES)
        for n, chunk in _chunks(cases):
            reports, _ = _lu_widths(n, [g.adj for g in chunk])
            # value, canonical witness and per-prefix widths
            assert reports == [exact_width(g, WidthVariant.LU)
                               for g in chunk], n

    def test_reports_equal_exact_width_at_n9(self):
        # Past the sandwich's n <= 8: seeded n = 9 graphs in one call.
        reports, _ = _lu_widths(9, [g.adj for g in N9_GRAPHS])
        assert reports == [exact_width(g, WidthVariant.LU)
                           for g in N9_GRAPHS]

    def test_ticks_are_the_sets_exact_width_tests(self):
        sample = self.CASES[::23] + [two_rows(), clique_thread(2)]
        for n, chunk in _chunks(sample):
            _, ticks = _lu_widths(n, [g.adj for g in chunk])
            assert ticks == [_smallest_passing_budget(g) for g in chunk]


class TestHeuristic:
    def test_upper_bound_property(self):
        for variant in WidthVariant:
            exact = exact_width(C4, variant).value
            value, witness = heuristic_width_upper(C4, variant, seed=1)
            assert value >= exact
            assert sorted(witness) == list(range(4))

    def test_two_rows_finds_optimum(self):
        value, _ = heuristic_width_upper(two_rows(), WidthVariant.LU)
        assert value == 1

    def test_clique_thread_matches_exact(self):
        value, _ = heuristic_width_upper(clique_thread(4), WidthVariant.LU)
        assert value == exact_width(clique_thread(4), WidthVariant.LU).value

    def test_reproducible(self):
        a = heuristic_width_upper(two_rows(), WidthVariant.LMIM, seed=7)
        b = heuristic_width_upper(two_rows(), WidthVariant.LMIM, seed=7)
        assert a == b

    # (value, ordering) at the default seed and budget; any change to the
    # matching kernel must leave the local search's path unchanged.
    @pytest.mark.parametrize("name, variant, value, order", [
        ("skewgrid312", "lu", 2, (1, 6, 5, 0, 2, 4, 8, 7, 3)),
        ("skewgrid312", "lmim", 2, (1, 6, 5, 0, 2, 8, 4, 7, 3)),
        ("skewgrid312", "lsim", 2, (1, 6, 5, 0, 2, 4, 8, 7, 3)),
        ("cliquethread3", "lu", 1, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
        ("cliquethread3", "lmim", 2, (7, 5, 3, 1, 4, 2, 0, 8, 6)),
        ("cliquethread3", "lsim", 1, (0, 1, 2, 3, 4, 5, 6, 7, 8)),
        ("random10", "lu", 2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        ("random10", "lmim", 2, (9, 4, 8, 0, 6, 1, 7, 2, 3, 5)),
        ("random10", "lsim", 1, (9, 0, 3, 2, 4, 5, 7, 6, 8, 1)),
    ])
    def test_pinned(self, name, variant, value, order):
        g = {"skewgrid312": skew_grid(3, 1, 2)[0],
             "cliquethread3": clique_thread(3),
             "random10": random_connected_graph(10, 3, p=0.4)}[name]
        assert heuristic_width_upper(g, WidthVariant(variant)) == \
            (value, order)

    # (value, ordering) of lu at seed 0 on the benchmark's order grids
    # (n = 21-25).
    @pytest.mark.parametrize("pqr, value, order", [
        ((3, 2, 2), 4, tuple(range(21))),
        ((2, 3, 2), 5, (10, 20, 18, 6, 0, 19, 11, 2, 3, 9, 5, 7, 4, 17, 14,
                        21, 15, 16, 8, 1, 13, 12)),
        ((3, 4, 1), 4, tuple(range(21))),
        ((5, 3, 1), 4, (5, 13, 6, 11, 4, 16, 23, 1, 17, 8, 12, 24, 14, 9, 3,
                        2, 18, 7, 10, 15, 19, 0, 20, 21, 22)),
    ])
    def test_order_grids_pinned(self, pqr, value, order):
        assert heuristic_width_upper(skew_grid(*pqr)[0], WidthVariant.LU,
                                     seed=0) == (value, order)

    @pytest.mark.parametrize("g", [
        C4,
        skew_grid(3, 1, 2)[0],
        random_connected_graph(7, 1, p=0.4),
        random_connected_graph(8, 2, p=0.5),
    ], ids=["c4", "skewgrid312", "random7", "random8"])
    def test_matches_full_rescan_oracle(self, g):
        _assert_heuristic_matches_oracle(g)

    @given(graphs(max_n=6))
    @settings(max_examples=15, deadline=None)
    def test_matches_full_rescan_oracle_random(self, g):
        _assert_heuristic_matches_oracle(g)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            heuristic_width_upper(C4, WidthVariant.LU, budget=budget)

    def test_exact_value_of_reported_ordering(self):
        value, witness = heuristic_width_upper(
            clique_thread(3), WidthVariant.LMIM, seed=3
        )
        recomputed, _ = width_of_ordering(
            clique_thread(3), witness, WidthVariant.LMIM
        )
        assert recomputed == value


def _assert_heuristic_matches_oracle(g):
    # budgets 2 and 13 run out mid-sweep or at a restart
    for variant in WidthVariant:
        for seed in (0, 1, 7):
            for budget in (1, 2, 13, 200):
                assert heuristic_width_upper(g, variant, seed, budget) == \
                    naive_heuristic_width_upper(g, variant.value, seed,
                                                budget)


class TestSetFunctionProperty:
    def test_prefix_width_only_depends_on_set(self):
        g = two_rows()
        for perm in itertools.permutations([0, 2, 5]):
            assert prefix_width(g, perm, WidthVariant.LU) == \
                prefix_width(g, [0, 2, 5], WidthVariant.LU)


# Each public width function on clique_thread(4), where the variants
# differ: LU gives 1 where LMIM gives 2 (exact) or 4 (the top row), so a
# value read as the wrong member shows.
CT4 = clique_thread(4)
BY_VARIANT = {
    "exact_width": lambda v: exact_width(CT4, v),
    "prefix_width": lambda v: prefix_width(CT4, range(4), v),
    "prefix_width_witness": lambda v: prefix_width_witness(CT4, range(4), v),
    "width_of_ordering": lambda v: width_of_ordering(CT4, range(16), v),
    "heuristic_width_upper": lambda v: heuristic_width_upper(CT4, v),
}


class TestVariantValue:
    @pytest.mark.parametrize("name", list(BY_VARIANT))
    def test_value_acts_as_its_member(self, name):
        run = BY_VARIANT[name]
        for variant in WidthVariant:
            assert run(variant.value) == run(variant)

    @pytest.mark.parametrize("name", list(BY_VARIANT))
    def test_unknown_variant_rejected(self, name):
        with pytest.raises(ValueError, match="42 is not a valid WidthVariant"):
            BY_VARIANT[name](42)

    def test_report_carries_the_member(self):
        rep = exact_width(CT4, "lmim")
        assert rep.variant is WidthVariant.LMIM and rep.value == 2
