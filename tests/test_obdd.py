import hashlib
import itertools
import random
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimlab import corpus, obdd
from mimlab.errors import BudgetExceededError
from mimlab.generators import (
    clique_corona,
    clique_thread,
    fixtures,
    perfect_matching_graph,
    random_connected_graph,
    two_rows,
)
from mimlab.graph import Graph, _connected
from mimlab.harness import (
    _chunks,
    connected_corpus,
    full_corpus,
    run_obdd_sandwich,
    sandwich_instances,
)
from mimlab.obdd import (
    _DP_BLOCK_BITS,
    _EQUIV_BLOCK_BITS,
    _KEY_BITS,
    BRUTE_ORDER_LIMIT,
    EQUIV_CHECK_LIMIT,
    FALSE_ID,
    OBDD_DP_LIMIT,
    TRUE_ID,
    TRUTH_TABLE_LIMIT,
    Obdd,
    _bounds_report,
    _min_size_dp,
    build_obdd,
    cnf_of_graph,
    count_accepting,
    count_satisfying,
    eval_obdd,
    exhaustive_equiv_check,
    format_dimacs,
    matching_trace_family,
    min_obdd_size_exact,
    obdd_bounds_report,
    obdd_to_dot,
    subfunction_count,
)
from mimlab.traces import _mask_tables, trace_masks
from mimlab.width import WidthVariant, exact_width

from conftest import N9_GRAPHS, graphs, graphs_without_isolated
from oracles import (
    naive_count_satisfying,
    naive_equiv_check,
    naive_min_obdd_sizes,
    naive_subfunction_count,
)

C4 = fixtures()["c4"]
K2 = fixtures()["k2"]


class TestCnf:
    def test_c4_clauses(self):
        cnf = cnf_of_graph(C4)
        assert cnf.clauses == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_k2(self):
        assert cnf_of_graph(K2).clauses == ((0, 1),)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            cnf_of_graph(Graph(3, [(0, 1)]))

    def test_dimacs_format(self):
        text = format_dimacs(cnf_of_graph(K2))
        assert text == "p cnf 2 1\n1 2 0\n"


class TestSubfunctionCount:
    def test_c4_pair(self):
        assert subfunction_count(C4, [0, 1]) == 3

    def test_empty_prefix(self):
        assert subfunction_count(C4, []) == 1

    def test_full_prefix(self):
        assert subfunction_count(C4, range(4)) == 1

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            subfunction_count(perfect_matching_graph(11), [0])

    @given(graphs_without_isolated(max_n=6), st.integers(0, 63))
    @settings(max_examples=50, deadline=None)
    def test_equals_trace_count(self, g, umask_seed):
        umask = umask_seed & ((1 << g.n) - 1)
        u = [v for v in range(g.n) if umask >> v & 1]
        assert subfunction_count(g, u) == len(trace_masks(g, umask))

    def test_matches_naive_on_every_corpus_prefix(self):
        checked = 0
        for _, g in connected_corpus(6):
            for umask in range(1 << g.n):
                u = [v for v in range(g.n) if umask >> v & 1]
                assert subfunction_count(g, u) == \
                    naive_subfunction_count(g, u), (g.edges(), u)
                checked += 1
        assert checked == 7956

    def test_matches_naive_on_sandwich_witness_prefixes(self):
        # the prefixes obdd_bounds_report's level contract asks about
        checked = 0
        for _, g in sandwich_instances():
            if g.n not in (7, 8):
                continue
            witness = exact_width(g, WidthVariant.LU).witness
            for i in range(g.n + 1):
                assert subfunction_count(g, witness[:i]) == \
                    naive_subfunction_count(g, witness[:i]), \
                    (g.edges(), witness[:i])
                checked += 1
        assert checked > 1000


def _seeded_prefix_cases():
    """One random connected graph per n = 9..12, with three seeded prefix
    sets each (sizes spread over 0..n)."""
    rng = random.Random(29)
    for n in range(9, 13):
        g = random_connected_graph(n, 100 + n, p=0.3)
        for _ in range(3):
            size = rng.randint(0, n)
            yield g, sorted(rng.sample(range(n), size))


class TestResidualEngine:
    """The cofactor engine behind every residual count: the all-W walk
    (`_residual_walk`) and the projected chain (`_residual_chain`), held
    against `naive_subfunction_count`, which evaluates one assignment at
    a time."""

    @pytest.mark.parametrize("k", range(13))
    def test_projection_columns_equal_the_division_formula(self, k):
        ones, cols = obdd._projection_columns(k)
        assert ones == (1 << (1 << k)) - 1
        assert cols == [ones // ((1 << (1 << i)) + 1) << (1 << i)
                        for i in range(k)]

    def test_walk_matches_naive_on_every_corpus_prefix(self):
        checked = 0
        for _, g in connected_corpus(5):
            walk = obdd._residual_walk(g)
            assert len(walk) == 1 << g.n
            for umask, count in enumerate(walk):
                u = [v for v in range(g.n) if umask >> v & 1]
                assert count == naive_subfunction_count(g, u), \
                    (g.edges(), u)
                checked += 1
        assert checked == 788

    def test_walk_matches_subfunction_count_on_every_corpus_prefix(self):
        checked = 0
        for _, g in connected_corpus(6):
            for umask, count in enumerate(obdd._residual_walk(g)):
                u = [v for v in range(g.n) if umask >> v & 1]
                assert count == subfunction_count(g, u), (g.edges(), u)
                checked += 1
        assert checked == 7956

    @pytest.mark.parametrize(
        "i, g", [(i, g) for i, g in enumerate(N9_GRAPHS) if _connected(g.adj)])
    def test_walk_matches_both_oracles_at_n9(self, i, g):
        # Past the exhaustive corpus: every prefix set of the connected
        # seeded n = 9 graphs against `subfunction_count`, and eight
        # seeded ones per graph against the naive count.
        walk = obdd._residual_walk(g)
        members = [[v for v in range(g.n) if w >> v & 1]
                   for w in range(1 << g.n)]
        assert walk == [subfunction_count(g, u) for u in members]
        for w in random.Random(i).sample(range(1 << g.n), 8):
            assert walk[w] == naive_subfunction_count(g, members[w]), w

    @pytest.mark.parametrize("g, prefix", list(_seeded_prefix_cases()),
                             ids=lambda x: getattr(x, "n", None) or str(x))
    def test_both_forms_match_naive_on_random_graphs(self, g, prefix):
        expected = naive_subfunction_count(g, prefix)
        assert subfunction_count(g, prefix) == expected
        umask = sum(1 << v for v in prefix)
        assert obdd._residual_walk(g)[umask] == expected

    def test_chain_counts_every_prefix_of_its_order(self):
        # the level contract reads one chain along the witness
        rng = random.Random(7)
        for _, g in connected_corpus(5):
            order = rng.sample(range(g.n), g.n)
            assert obdd._residual_chain(g, order) == [
                naive_subfunction_count(g, order[:i])
                for i in range(g.n + 1)]

    def test_level_contract_reads_one_chain(self, monkeypatch):
        calls = []
        real = obdd._residual_chain

        def counting(g, order):
            calls.append(tuple(order))
            return real(g, order)

        monkeypatch.setattr(obdd, "_residual_chain", counting)
        g = two_rows()
        report = obdd_bounds_report(g)
        assert report.level_contract_ok
        assert calls == [exact_width(g, WidthVariant.LU).witness]

    def test_guard(self):
        g = perfect_matching_graph(11)
        with pytest.raises(BudgetExceededError):
            obdd._residual_walk(g)
        with pytest.raises(BudgetExceededError):
            obdd._residual_chain(g, [0])


class TestBuildAndEval:
    def test_k2_sizes(self):
        z = build_obdd(K2, [0, 1])
        assert z.size_total == 4
        assert z.size_internal == 2
        assert z.size_quasi == 4

    def test_k2_eval(self):
        z = build_obdd(K2, [0, 1])
        assert eval_obdd(z, [True, False])
        assert not eval_obdd(z, [False, False])

    def test_c4_all_true(self):
        z = build_obdd(C4, [0, 1, 2, 3])
        assert eval_obdd(z, [True] * 4)

    def test_assignment_length_checked(self):
        z = build_obdd(K2, [0, 1])
        with pytest.raises(ValueError):
            eval_obdd(z, [True])

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            build_obdd(K2, [0, 0])

    def test_reduced_invariants(self):
        for order in itertools.permutations(range(4)):
            z = build_obdd(C4, order)
            seen = set()
            for nid, (var, lo, hi) in z.nodes.items():
                assert lo != hi
                assert (var, lo, hi) not in seen
                seen.add((var, lo, hi))
                for child in (lo, hi):
                    if child not in (FALSE_ID, TRUE_ID):
                        cvar = z.nodes[child][0]
                        assert z.position[cvar] > z.position[var]

    def test_quasi_at_least_reduced(self):
        for order in itertools.permutations(range(4)):
            z = build_obdd(C4, order)
            assert z.size_quasi >= z.size_total

    def test_levels_grouping(self):
        z = build_obdd(C4, [0, 1, 2, 3])
        levels = z.levels()
        assert sum(len(v) for v in levels.values()) == z.size_internal


class TestEquivalenceAndCounting:
    def test_c4_counts(self):
        z = build_obdd(C4, [0, 1, 2, 3])
        assert exhaustive_equiv_check(z, C4)
        assert count_accepting(z) == 7
        assert count_satisfying(C4) == 7

    def test_k2_count(self):
        assert count_satisfying(K2) == 3

    def test_swapped_sinks_fail(self):
        z = build_obdd(K2, [0, 1])
        swap = {FALSE_ID: TRUE_ID, TRUE_ID: FALSE_ID}
        nodes = {
            nid: (var, swap.get(lo, lo), swap.get(hi, hi))
            for nid, (var, lo, hi) in z.nodes.items()
        }
        negated = Obdd(z.order, nodes, z.root, z.level_live_counts)
        assert not exhaustive_equiv_check(negated, K2)

    @given(graphs_without_isolated(max_n=6), st.integers(0, 720))
    @settings(max_examples=50, deadline=None)
    def test_any_order_is_equivalent(self, g, perm_seed):
        perms = list(itertools.permutations(range(g.n)))
        order = perms[perm_seed % len(perms)]
        z = build_obdd(g, order)
        assert exhaustive_equiv_check(z, g)
        assert count_accepting(z) == count_satisfying(g)

    def test_variable_count_checked(self):
        with pytest.raises(ValueError, match="OBDD over 4 variables"):
            exhaustive_equiv_check(build_obdd(C4, [0, 1, 2, 3]), K2)
        with pytest.raises(ValueError, match="graph on 4 vertices"):
            exhaustive_equiv_check(build_obdd(K2, [0, 1]), C4)

    def test_xor_is_not_or(self):
        # x0 ? not x1 : x1 differs from K2's clause (x0 or x1) only where
        # a node's false branch accepts more than its true branch
        nodes = {2: (1, FALSE_ID, TRUE_ID), 3: (1, TRUE_ID, FALSE_ID),
                 4: (0, 2, 3)}
        xor = Obdd((0, 1), nodes, 4, (1, 2))
        assert not naive_equiv_check(xor, K2)
        assert not exhaustive_equiv_check(xor, K2)

    def test_matches_naive_on_corpus_and_swapped_nodes(self):
        verdicts = []
        for _, g in full_corpus(5):
            if g.isolated_vertices():
                continue
            for order in (range(g.n), range(g.n - 1, -1, -1)):
                z = build_obdd(g, list(order))
                copies = [z]
                for nid, (var, lo, hi) in z.nodes.items():
                    nodes = dict(z.nodes)
                    nodes[nid] = (var, hi, lo)
                    copies.append(Obdd(z.order, nodes, z.root,
                                       z.level_live_counts))
                for zc in copies:
                    got = exhaustive_equiv_check(zc, g)
                    assert got == naive_equiv_check(zc, g), \
                        (g.edges(), z.order, zc.nodes)
                    verdicts.append(got)
        assert True in verdicts and False in verdicts

    # K(2, n-2) between {u, v} and the rest, and the same graph plus the
    # edge uv: their CNFs differ only on the assignment with u and v
    # false.  With u, v = 0, 1 that assignment sets every variable above
    # the block true, so it lies in the last block; with the top two
    # vertices it lies in the first.
    @pytest.mark.parametrize("uv", [(0, 1), (12, 13)])
    def test_one_differing_assignment_across_blocks(self, uv):
        n = 14
        assert n > _EQUIV_BLOCK_BITS
        g = Graph(n, [(min(a, w), max(a, w)) for a in uv
                      for w in range(n) if w not in uv])
        g_uv = Graph(n, list(g.edges()) + [uv])
        assert count_satisfying(g) == count_satisfying(g_uv) + 1
        z = build_obdd(g_uv, list(range(n)))
        assert exhaustive_equiv_check(z, g_uv)
        assert not exhaustive_equiv_check(z, g)
        assert not exhaustive_equiv_check(build_obdd(g, list(range(n))), g_uv)

    @given(graphs_without_isolated(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_count_satisfying_matches_naive(self, g):
        assert count_satisfying(g) == naive_count_satisfying(g)


class TestMinimization:
    def test_k2(self):
        rep = min_obdd_size_exact(K2)
        assert rep.size_total == 4
        assert rep.size_quasi == 4

    def test_c4_against_enumeration(self):
        dp = min_obdd_size_exact(C4)
        enum = min_obdd_size_exact(C4, method="enum")
        assert (dp.size_quasi, dp.size_total) == (enum.size_quasi, enum.size_total)

    def test_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dp = min_obdd_size_exact(g)
        enum = min_obdd_size_exact(g, method="enum")
        assert (dp.size_quasi, dp.size_total) == (enum.size_quasi, enum.size_total)
        # keeping each edge's endpoints adjacent in the order achieves it
        paired = build_obdd(g, [0, 1, 2, 3])
        assert paired.size_total == dp.size_total

    def test_witness_orders_achieve_reported_sizes(self):
        g = two_rows()
        rep = min_obdd_size_exact(g)
        assert build_obdd(g, rep.order_quasi).size_quasi == rep.size_quasi
        assert build_obdd(g, rep.order_total).size_total == rep.size_total

    @pytest.mark.parametrize("g, expected", [
        (C4, (7, 6, (2, 1, 3, 0), (2, 1, 3, 0))),
        (two_rows(), (24, 20, (7, 4, 1, 2, 5, 3, 6, 0),
                      (7, 4, 1, 2, 5, 3, 6, 0))),
        (clique_thread(3), (29, 26, (8, 7, 6, 5, 4, 3, 2, 1, 0),
                            (7, 6, 5, 8, 3, 2, 1, 4, 0))),
        (random_connected_graph(10, 3, p=0.4),
         (24, 18, (8, 6, 1, 5, 4, 0, 3, 2, 9, 7),
          (8, 6, 5, 1, 4, 0, 3, 9, 7, 2))),
    ], ids=["c4", "two_rows", "clique_thread3", "random10"])
    def test_dp_orders_pinned(self, g, expected):
        # Pins reconstruct's tie-break (the smallest vertex that can come
        # last); the method="enum" cross-checks compare sizes only.
        rep = min_obdd_size_exact(g)
        got = (rep.size_quasi, rep.size_total, rep.order_quasi,
               rep.order_total)
        assert got == expected

    def test_dp_orders_pinned_n13(self):
        # Recorded with the dependence-scan DP that
        # oracles.naive_min_obdd_sizes keeps.
        rep = min_obdd_size_exact(random_connected_graph(13, 4, p=0.4))
        assert (rep.size_quasi, rep.size_total, rep.order_quasi,
                rep.order_total) == (
            65, 55, (12, 4, 3, 1, 5, 6, 7, 10, 8, 2, 11, 9, 0),
            (11, 10, 9, 6, 12, 0, 5, 7, 8, 3, 4, 2, 1))

    def test_dp_reports_pinned_on_connected_corpus(self):
        # Sizes and tie-broken orders of all 995 connected graphs with
        # 2 <= n <= 7, recorded with the DP that relaxed one prefix set
        # at a time.
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 8):
            for g in corpus.connected_graphs(n):
                rep = min_obdd_size_exact(g)
                digest.update(repr((rep.size_quasi, rep.size_total,
                                    rep.order_quasi,
                                    rep.order_total)).encode())
                count += 1
        assert count == 995
        assert digest.hexdigest() == (
            "1d6ef72251222c4186d61434258a0dd4fe1aa4864864d6cb147596b01694d87b"
        )

    def test_dp_report_pinned_n15(self):
        # The benchmark's dense graph n15-s2: its 2^15 prefix sets span
        # many DP blocks, so every push between blocks is exercised.
        rep = min_obdd_size_exact(random_connected_graph(15, 2, p=0.4))
        assert (rep.size_quasi, rep.size_total, rep.order_quasi,
                rep.order_total) == (
            84, 69, (12, 11, 5, 4, 3, 14, 8, 6, 1, 13, 0, 7, 10, 9, 2),
            (14, 6, 11, 3, 8, 5, 1, 12, 4, 0, 7, 13, 10, 2, 9))

    def test_dp_budget_counts_each_family_once(self):
        # The budget counts the entries of T(W) once per prefix set W:
        # exactly their sum passes, one less raises.
        g = random_connected_graph(8, 0, p=0.4)
        entries = sum(len(trace_masks(g, w)) for w in range(1 << g.n))
        assert entries == 1314
        min_obdd_size_exact(g, budget=entries)
        with pytest.raises(BudgetExceededError):
            min_obdd_size_exact(g, budget=entries - 1)

    def test_dp_budget_counts_each_family_once_across_blocks(self):
        # n = 10 is one block of 2^10 prefix sets, ticked once with its
        # entry total: still exactly the sum passes.
        g = random_connected_graph(10, 0, p=0.4)
        entries = sum(len(trace_masks(g, w)) for w in range(1 << g.n))
        assert entries == 6908
        min_obdd_size_exact(g, budget=entries)
        with pytest.raises(BudgetExceededError):
            min_obdd_size_exact(g, budget=entries - 1)

    def test_dp_budget_counts_each_family_once_over_four_blocks(self):
        # n = 12 spans four blocks of 2^10 prefix sets, each ticked once
        # with its entry total: still exactly the sum passes.
        g = random_connected_graph(12, 0, p=0.4)
        assert g.n > _DP_BLOCK_BITS + 1
        entries = sum(len(trace_masks(g, w)) for w in range(1 << g.n))
        assert entries == 40104
        min_obdd_size_exact(g, budget=entries)
        with pytest.raises(BudgetExceededError):
            min_obdd_size_exact(g, budget=entries - 1)

    def test_trace_keys_fit_int32(self):
        # `traces._trace_block` keys a block's pairs x << n | t, below
        # 2^(n + _DP_BLOCK_BITS); raising either constant past this
        # would overflow them.
        assert OBDD_DP_LIMIT + _DP_BLOCK_BITS <= 31

    def test_nd_past_eight_bit_lanes(self, monkeypatch):
        # One side W of a perfect matching on 18 vertices leaves all 2^9
        # subsets of the other side V as traces, and V is independent, so
        # each v in V is isolated in G[V - t] for the 2^8 traces t
        # without it: ND(v) = 256 overflows an 8-bit lane.  The reduced
        # cost of W -> W + v is |T(W)| - ND(v).
        g = perfect_matching_graph(9)
        w = sum(1 << v for v in range(9, 18))
        family = trace_masks(g, w)
        rest = (1 << g.n) - 1 ^ w
        # v is isolated in G[V - t]: outside t, no neighbour in V - t
        nd = [sum(1 for t in family if not (t >> v & 1 or g.adj[v] & rest & ~t))
              for v in range(9)]
        assert len(family) == 512 and nd == [256] * 9
        span = 1 << _DP_BLOCK_BITS
        real = obdd._dp_block
        costs = []

        def spy(keys, walk, iso, high, j):
            count, cost = real(keys, walk, iso, high, j)
            if high == w & -span:
                costs.append(cost[w & span - 1, :9, 0, 1] >> _KEY_BITS)
            return count, cost

        monkeypatch.setattr(obdd, "_dp_block", spy)
        rep = min_obdd_size_exact(g)
        (reduced,) = costs
        assert reduced.tolist() == [len(family) - c for c in nd]
        assert rep.size_total == build_obdd(g, rep.order_total).size_total
        assert rep.size_quasi == build_obdd(g, rep.order_quasi).size_quasi

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            min_obdd_size_exact(C4, budget=budget)

    def test_dp_allocation_peak_n15(self):
        # The int32 keys (two per set), the int32 iso and count tables and
        # one block's temporaries, of which the 16-bit ND lanes are the
        # largest: about 1.8 MB at n = 15, no 2^n x n table.
        g = random_connected_graph(15, 2, p=0.4)
        tracemalloc.start()
        try:
            min_obdd_size_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("n, seed", [
        (9, 0), (9, 1), (10, 2), (10, 3), (11, 4), (11, 5), (12, 6),
        (12, 7),
    ])
    def test_dp_matches_dependence_scan_oracle(self, n, seed):
        # Past method="enum"'s n <= 8: sizes and tie-broken orders against
        # the DP that scans every trace for every (W, v) pair.
        g = random_connected_graph(n, seed, p=0.4)
        rep = min_obdd_size_exact(g)
        assert (rep.size_quasi, rep.size_total, rep.order_quasi,
                rep.order_total) == naive_min_obdd_sizes(g)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            min_obdd_size_exact(K2, method="magic")

    def test_guard(self):
        with pytest.raises(BudgetExceededError):
            min_obdd_size_exact(perfect_matching_graph(11))

    @given(graphs_without_isolated(max_n=5))
    @settings(max_examples=25, deadline=None)
    def test_dp_equals_enumeration(self, g):
        dp = min_obdd_size_exact(g)
        enum = min_obdd_size_exact(g, method="enum")
        assert (dp.size_quasi, dp.size_total) == (enum.size_quasi, enum.size_total)

    def test_dp_equals_enumeration_exhaustive_small(self):
        from mimlab import corpus

        for n in (2, 3, 4, 5):
            for g in corpus.connected_graphs(n):
                dp = min_obdd_size_exact(g)
                enum = min_obdd_size_exact(g, method="enum")
                assert (dp.size_quasi, dp.size_total) == \
                    (enum.size_quasi, enum.size_total), g.edges()


def _nbr(graphs):
    """The neighbourhood table `_min_size_dp` reads for a run of graphs
    of one size."""
    return _mask_tables(graphs[0].n, [g.adj for g in graphs])[0]


class TestChunkMinSizes:
    # `_min_size_dp` on the chunks of obdd-sandwich against
    # `min_obdd_size_exact`, its one-graph call, and against the
    # dependence-scan DP of the oracles, which shares no kernel with either:
    # every connected graph with n <= 7 and seeded n = 8 graphs, in the
    # chunks `run_obdd_sandwich` makes.
    CASES = ([g for _, g in connected_corpus(7)]
             + [random_connected_graph(8, seed) for seed in range(40)])

    def test_reports_equal_the_dp(self):
        for n, chunk in _chunks(self.CASES):
            reports, counts = _min_size_dp(chunk, _nbr(chunk), None)
            # both sizes and both tie-broken orders
            assert reports == [min_obdd_size_exact(g) for g in chunk], n
            assert [astuple(r) for r in reports] == [
                naive_min_obdd_sizes(g) for g in chunk], n
            assert counts.shape == (len(chunk), 1 << n)

    def test_counts_are_trace_family_sizes(self):
        for n, chunk in _chunks(self.CASES[::7]):
            _, counts = _min_size_dp(chunk, _nbr(chunk), None)
            assert counts.tolist() == [
                [len(trace_masks(g, w)) for w in range(1 << n)]
                for g in chunk]

    def test_isolated_vertex_refused(self):
        with pytest.raises(ValueError, match="isolated"):
            chunk = [Graph(3, [(0, 1), (1, 2)]), Graph(3, [(0, 1)])]
            _min_size_dp(chunk, _nbr(chunk), None)


class TestMinSizeDpBlocks:
    # n = 9 and 10 fit one block of 2^10 prefix sets; n = 11 and 12 have
    # 2 and 4 blocks, so the counts and keys cross the pushes between
    # blocks.
    CASES = ([g for g in N9_GRAPHS if _connected(g.adj)]
             + [random_connected_graph(10, 5)]
             + [random_connected_graph(11, 8), random_connected_graph(12, 9)])

    @pytest.mark.parametrize("g", CASES)
    def test_counts_are_trace_family_sizes(self, g):
        _, counts = _min_size_dp([g], _nbr([g]), None)
        assert counts.tolist() == [
            [len(trace_masks(g, w)) for w in range(1 << g.n)]]

    @pytest.mark.parametrize("g", CASES)
    def test_reports_equal_the_oracle(self, g):
        reports, _ = _min_size_dp([g], _nbr([g]), None)
        assert [astuple(r) for r in reports] == [naive_min_obdd_sizes(g)]

    @pytest.mark.parametrize("g", CASES)
    def test_bounds_report_reads_the_prefix_counts(self, g):
        # The report from the DP's count table equals one built from the
        # public engines, each witness prefix counted by `trace_masks`.
        width = exact_width(g, WidthVariant.LU)
        prefixes = itertools.accumulate(1 << v for v in width.witness)
        counts = {w: len(trace_masks(g, w)) for w in prefixes}
        assert obdd_bounds_report(g) == _bounds_report(
            g, width, min_obdd_size_exact(g), counts)


def _isolated(g):
    """The min-size DP's isolated-vertex table of g: Z - N(Z) for every Z,
    from the neighbourhood table of `_mask_tables`."""
    nbr = _mask_tables(g.n, [g.adj])[0][0]
    return ~nbr & np.arange(1 << g.n, dtype=np.int32)


class TestIsolatedTable:
    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_entries_are_isolated_vertices(self, g):
        iso = _isolated(g)
        assert len(iso) == 1 << g.n
        for z in range(1 << g.n):
            members = [v for v in range(g.n) if z >> v & 1]
            lonely = [v for v in members
                      if not any(u in members for u in g.neighbors(v))]
            assert iso[z] == sum(1 << v for v in lonely)

    def test_entries_are_int32(self):
        # `_dp_block` unpacks the entries as little-endian int32 words, so
        # byte k holds vertices 8k to 8k + 7, up to n = OBDD_DP_LIMIT.
        g = perfect_matching_graph(10)
        iso = _isolated(g)
        assert iso.dtype == np.int32
        z = sum(1 << v for v in (3, 7, 9, 17, 18))  # 7 and 17 adjacent
        assert [v for v in range(g.n) if iso[z] >> v & 1] == [3, 9, 18]


class TestOrderValidation:
    def test_iterator_order_builds_the_same_diagram(self):
        order = [2, 0, 3, 1]
        z, z_iter = build_obdd(C4, order), build_obdd(C4, iter(order))
        assert (z_iter.order, z_iter.nodes, z_iter.root,
                z_iter.level_live_counts) == \
            (z.order, z.nodes, z.root, z.level_live_counts)

    def test_float_entries_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            build_obdd(C4, [0.0, 1.0, 2.0, 3.0])

    def test_bool_entries_become_vertex_numbers(self):
        z = build_obdd(C4, [True, False, 2, 3])
        assert [type(v) for v in z.order] == [int] * 4
        assert z.order == (1, 0, 2, 3)


PM11 = perfect_matching_graph(11)  # 22 variables
PM5 = perfect_matching_graph(5)  # 10 variables


class TestRefusals:
    @pytest.mark.parametrize("what, n, limit, call", [
        pytest.param("semantic subfunction count", 22, TRUTH_TABLE_LIMIT,
                     lambda: subfunction_count(PM11, [0]),
                     id="subfunction_count"),
        pytest.param("exhaustive equivalence check", 22, EQUIV_CHECK_LIMIT,
                     lambda: exhaustive_equiv_check(
                         build_obdd(PM11, range(22)), PM11),
                     id="exhaustive_equiv_check"),
        pytest.param("satisfying assignment count", 22, TRUTH_TABLE_LIMIT,
                     lambda: count_satisfying(PM11),
                     id="count_satisfying"),
        pytest.param("OBDD minimization subset DP", 22, OBDD_DP_LIMIT,
                     lambda: min_obdd_size_exact(PM11),
                     id="min_obdd_size_exact"),
        pytest.param("OBDD minimization by enumeration", 10,
                     BRUTE_ORDER_LIMIT,
                     lambda: min_obdd_size_exact(PM5, method="enum"),
                     id="min_obdd_size_exact-enum"),
    ])
    def test_names_variable_count_and_limit(self, what, n, limit, call):
        with pytest.raises(BudgetExceededError) as exc:
            call()
        assert str(exc.value) == \
            f"{what} on {n} variables: variable limit of {limit} exceeded"
        assert exc.value.budget == limit
        assert "work budget" not in str(exc.value)


class TestBoundsReport:
    def test_two_rows(self):
        rep = obdd_bounds_report(two_rows())
        assert rep.lu == 1
        assert rep.lower_bound == 2
        assert rep.all_ok

    def test_k2(self):
        rep = obdd_bounds_report(K2)
        assert rep.lu == 1
        assert rep.lower_bound == 2
        assert rep.min_size_quasi == 4
        assert rep.all_ok

    def test_clique_thread(self):
        rep = obdd_bounds_report(clique_thread(3))
        assert 2**rep.lu <= rep.min_size_quasi
        assert rep.all_ok

    def test_upper_bound_checked(self, monkeypatch):
        import mimlab.harness as harness

        real = obdd._min_size_dp

        def oversized(graphs, nbr, work):
            # The one min-size DP behind min_obdd_size_exact,
            # obdd_bounds_report and the sandwich's chunks.
            reports, counts = real(graphs, nbr, work)
            return [replace(rep, size_quasi=g.n ** (g.n + 2) + 1)
                    for g, rep in zip(graphs, reports)], counts

        monkeypatch.setattr(obdd, "_min_size_dp", oversized)
        monkeypatch.setattr(harness, "_min_size_dp", oversized)
        rep = obdd_bounds_report(K2)
        assert rep.min_size_quasi > rep.upper_expression
        assert rep.lower_ok and not rep.upper_ok
        assert rep.failed == ("upper_ok",) and not rep.all_ok
        rows = run_obdd_sandwich(corpus_max_n=2, random_ns=(),
                                 random_count=0)
        assert rows and all(r.passed is False for r in rows)
        assert all("upper_ok" in r.detail for r in rows)

    def test_matching_trace_family_distinct(self):
        g = clique_corona(3)
        fam = matching_trace_family(g, range(3))
        traces = [t for _, t in fam]
        assert len(traces) == len(set(traces))


class TestLevelContract:
    @given(graphs_without_isolated(max_n=5), st.integers(0, 119))
    @settings(max_examples=40, deadline=None)
    def test_level_counts_bounded_by_subfunctions(self, g, perm_seed):
        perms = list(itertools.permutations(range(g.n)))
        order = perms[perm_seed % len(perms)]
        z = build_obdd(g, order)
        prefix = []
        for i in range(g.n):
            assert z.level_live_counts[i] <= subfunction_count(g, prefix)
            prefix.append(order[i])

    def test_per_level_decompositions_match_built_diagrams(self):
        # Both minimization DPs stand on per-level identities: the built
        # diagram's live-state count per level equals the live-trace count
        # of the prefix set, and its reduced node count per variable equals
        # the number of live states essentially depending on that variable.
        import random

        from mimlab import corpus

        rng = random.Random(0)
        for n in (3, 4, 5, 6):
            for g in corpus.connected_graphs(n):
                for _ in range(2):
                    order = list(range(n))
                    rng.shuffle(order)
                    z = build_obdd(g, order)
                    per_var = {v: 0 for v in order}
                    for var, _, _ in z.nodes.values():
                        per_var[var] += 1
                    full = (1 << n) - 1
                    wmask = 0
                    for i, v in enumerate(order):
                        comp = full ^ wmask
                        tr = trace_masks(g, wmask)
                        inner = any(comp >> x & 1 and comp >> y & 1
                                    for x, y in g.edges())
                        live = len(tr) - (0 if inner else 1)
                        assert z.level_live_counts[i] == live
                        b = 1 << v
                        av = g.adj[v]
                        dep = sum(1 for t in tr if t & b or av & comp & ~t)
                        assert per_var[v] == dep
                        wmask |= b


class TestDot:
    def test_render(self):
        z = build_obdd(K2, [0, 1])
        dot = obdd_to_dot(z)
        assert "digraph obdd" in dot
        assert "doublecircle" in dot
        assert "style=dashed" in dot


class TestNodeTablePinned:
    def test_node_tables_and_dot_pinned(self):
        """Node ids, root, level counts and DOT bytes of 68 diagrams: the
        fixtures, clique_thread(3) and every connected graph with n <= 5,
        each under the identity and the reversed order.  Any change to the
        order in which the sweep discovers states or the reduction numbers
        nodes moves the digest."""
        graphs = [g for _, g in sorted(fixtures().items())]
        graphs.append(clique_thread(3))
        graphs.extend(g for _, g in connected_corpus(5))
        digest = hashlib.sha256()
        for g in graphs:
            for order in (range(g.n), range(g.n - 1, -1, -1)):
                z = build_obdd(g, list(order))
                digest.update(repr((sorted(z.nodes.items()), z.root,
                                    z.level_live_counts)).encode())
                digest.update(obdd_to_dot(z).encode())
        assert len(graphs) == 34
        assert digest.hexdigest() == (
            "0cd5fda257c708127437853664cbb5b40576b4be8366058048e8b585a4037ee9"
        )
