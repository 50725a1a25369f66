import bisect
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimlab.errors import BudgetExceededError
from mimlab.generators import (
    clique_corona,
    clique_thread,
    fixtures,
    perfect_matching_graph,
    random_connected_graph,
    skew,
)
from mimlab.graph import (
    Graph,
    is_independent_mask,
    max_induced_cut_matching,
    neighborhood,
    neighborhood_mask,
    upper_subgraph,
    vertices_of,
)
from mimlab.harness import full_corpus
from mimlab.traces import (
    TraceBoundReport,
    _Enablers,
    _lu_pair_widths,
    _mask_tables,
    _rest_cuts,
    _shrink_block,
    _shrink_mask,
    _prefix_traces,
    _trace_block,
    enables_induced_matching,
    enum_independent_sets,
    independent_set_masks,
    shrink_to_enabler,
    trace_count_bound_check,
    trace_masks,
    traces,
    vc_dimension,
)
from mimlab.width import WidthVariant, prefix_width

from conftest import N9_GRAPHS, graphs, independent_rest_cuts
from oracles import (
    edge_set,
    naive_enables,
    naive_independent_sets,
    naive_max_enabling_subset,
    naive_max_induced_cut_matching,
    naive_traces,
)

C4 = fixtures()["c4"]


def _assert_budget_error(err, what, budget):
    assert err.what == what
    assert err.budget == budget
    assert str(err) == f"{what}: work budget of {budget} exceeded"


class TestEnumIndependentSets:
    def test_c4_pair(self):
        got = list(enum_independent_sets(C4, [0, 1]))
        assert got == [frozenset(), frozenset({0}), frozenset({1})]

    def test_empty(self):
        assert list(enum_independent_sets(C4, [])) == [frozenset()]

    def test_skew_top_all_subsets(self):
        g = skew(3)
        got = list(enum_independent_sets(g, [0, 1, 2]))
        assert len(got) == 8

    def test_size_then_lex_order(self):
        g = Graph(4, [(0, 1)])
        got = list(enum_independent_sets(g, range(4)))
        sizes = [len(s) for s in got]
        assert sizes == sorted(sizes)
        by_size = {}
        for s in got:
            by_size.setdefault(len(s), []).append(tuple(sorted(s)))
        for group in by_size.values():
            assert group == sorted(group)

    def test_budget(self):
        g = Graph(20, [])
        with pytest.raises(BudgetExceededError):
            list(enum_independent_sets(g, range(20), budget=100))

    @pytest.mark.parametrize("umask", [1 << 40, -1, 1 << 9])
    def test_mask_outside_graph_rejected(self, umask):
        g = clique_thread(3)  # n = 9
        with pytest.raises(ValueError, match=f"mask {umask} .* n = 9 "):
            list(independent_set_masks(g, umask))

    @pytest.mark.parametrize("v", [40, -1, 9])
    def test_vertex_outside_graph_rejected(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            list(enum_independent_sets(clique_thread(3), [0, v]))

    @pytest.mark.parametrize("g, nodes, count", [
        # one node per call of the size-by-size search
        (Graph(4, []), 31, 16),
        (Graph(4, [(0, 1)]), 24, 12),
    ])
    def test_budget_threshold(self, g, nodes, count):
        sets = list(enum_independent_sets(g, range(4), budget=nodes))
        assert len(sets) == count
        with pytest.raises(BudgetExceededError) as exc:
            list(enum_independent_sets(g, range(4), budget=nodes - 1))
        _assert_budget_error(exc.value, "independent set enumeration",
                             nodes - 1)
        with pytest.raises(BudgetExceededError) as exc:
            list(independent_set_masks(g, g.full_mask(), budget=nodes - 1))
        _assert_budget_error(exc.value, "independent set enumeration",
                             nodes - 1)


class TestTraces:
    def test_c4_example(self):
        ts = traces(C4, [0, 1])
        assert ts.members == frozenset(
            {frozenset(), frozenset({2}), frozenset({3})}
        )

    def test_corona_blowup(self):
        for k in (2, 3, 4):
            ts = traces(clique_corona(k), range(k))
            assert len(ts) == 2**k

    def test_empty_side(self):
        ts = traces(C4, [])
        assert ts.members == frozenset({frozenset()})

    def test_skew_chain(self):
        ts = traces(skew(3), [0, 1, 2])
        chain = sorted(ts.members, key=len)
        assert len(ts) == 4
        for a, b in zip(chain, chain[1:]):
            assert a < b  # totally ordered family

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, g, umask_seed):
        u = {v for v in range(g.n) if umask_seed >> v & 1 and v < g.n}
        assert traces(g, u).members == naive_traces(g, u)

    def test_budget(self):
        # The family doubles with each matched vertex added, so the ten
        # steps process 1 + 2 + ... + 512 = 1023 entries.
        g = perfect_matching_graph(10)
        umask = (1 << 10) - 1
        assert len(trace_masks(g, umask, budget=1023)) == 1024
        with pytest.raises(BudgetExceededError) as exc:
            trace_masks(g, umask, budget=1022)
        _assert_budget_error(exc.value, "trace family transition", 1022)

    @pytest.mark.parametrize("umask", [1 << 40, -1, 1 << 9])
    def test_mask_outside_graph_rejected(self, umask):
        g = clique_thread(3)  # n = 9
        with pytest.raises(ValueError, match=f"mask {umask} .* n = 9 "):
            trace_masks(g, umask)


class TestTraceBlock:
    # Blocks of 2^8 prefix sets H + x, x inside the vertices 0..7, H a
    # set of the higher ones, as the min-size DP builds its blocks of
    # 2^_DP_BLOCK_BITS sets; at n = 11 some bases H have three vertices.
    @pytest.mark.parametrize("n, seed, p", [
        (9, 0, 0.4), (10, 1, 0.3), (11, 2, 0.4), (11, 3, 0.6),
    ])
    def test_block_families_equal_trace_masks(self, n, seed, p):
        g = random_connected_graph(n, seed, p=p)
        j = 8
        full = (1 << n) - 1
        for high in range(0, 1 << n, 1 << j):
            pairs = [int(q) for q in
                     _trace_block(trace_masks(g, high), g.adj, high, j, n)]
            lows = [q >> n for q in pairs]
            assert lows == sorted(lows)
            assert len(set(pairs)) == len(pairs)
            fams = {}
            for q in pairs:
                fams.setdefault(q >> n, set()).add(q & full)
            assert sorted(fams) == list(range(1 << j))
            for x, fam in fams.items():
                assert fam == trace_masks(g, high | x), (high, x)


@functools.cache
def _prefix_families(g: Graph) -> tuple[set[int], ...]:
    return tuple(trace_masks(g, w) for w in range(1 << g.n))


class TestPrefixTraces:
    # The corpus passes' walk: every prefix set of every graph of
    # full_corpus(6), in chunks of one graph, of 7 graphs and of a whole
    # size.
    @pytest.mark.parametrize("size", [1, 7, None])
    def test_chunk_families_equal_trace_masks(self, size):
        by_n: dict[int, list[Graph]] = {}
        for _, g in full_corpus(6):
            by_n.setdefault(g.n, []).append(g)
        for n, graphs in by_n.items():
            step = size or len(graphs)
            for lo in range(0, len(graphs), step):
                chunk = graphs[lo:lo + step]
                keys = _prefix_traces(n, [g.adj for g in chunk])
                assert keys.dtype == np.int32
                listed = keys.tolist()
                assert len(set(listed)) == len(listed)
                fams: dict[int, set[int]] = {}
                for q in listed:
                    fams.setdefault(q >> n, set()).add(q & (1 << n) - 1)
                assert sorted(fams) == list(range(len(chunk) << n))
                for i, g in enumerate(chunk):
                    assert [fams[i << n | w] for w in range(1 << n)] == \
                        list(_prefix_families(g))
                # the entry total each graph ticks against its budget
                assert np.bincount(keys >> 2 * n).tolist() == [
                    sum(map(len, _prefix_families(g))) for g in chunk]

    def test_chunk_families_equal_trace_masks_at_n9(self):
        # Past the corpus: seeded n = 9 graphs in one chunk.
        fams: dict[int, set[int]] = {}
        for q in _prefix_traces(9, [g.adj for g in N9_GRAPHS]).tolist():
            fams.setdefault(q >> 9, set()).add(q & 511)
        assert sorted(fams) == list(range(len(N9_GRAPHS) << 9))
        for i, g in enumerate(N9_GRAPHS):
            assert [fams[i << 9 | w] for w in range(512)] == \
                [trace_masks(g, w) for w in range(512)]

    def test_chunk_beyond_int32_keys_refused(self):
        # The keys g << 2n | W << n | t are int32: 128 graphs at n = 12
        # reach 2^31 - 1 and pass; 130 graphs at n = 12, or one graph at
        # n = 16, would overflow and are refused, naming n and the chunk.
        g = Graph(12, [(0, 1)])
        keys = _prefix_traces(12, [g.adj] * 128)
        assert keys.dtype == np.int32 and keys.min() >= 0
        want = sum(map(len, _prefix_families(g)))
        assert np.bincount(keys >> 24).tolist() == [want] * 128
        with pytest.raises(ValueError, match=r"130 graph\(s\) on n=12 "):
            _prefix_traces(12, [g.adj] * 130)
        with pytest.raises(ValueError, match=r"1 graph\(s\) on n=16 "):
            _prefix_traces(16, [[0] * 16])


class TestLuPairWidths:
    # clique_thread(4), n = 16, has 4,444 valid pairs of sizes 2-4, which
    # own 7.3 M (pair, set) cells: the scatter writes them in bounded
    # slices.
    CT4 = clique_thread(4)

    def test_equals_prefix_width_on_sampled_sets(self):
        g = self.CT4
        pw = _lu_pair_widths(g.n, [g.adj], _mask_tables(g.n, [g.adj]))[0]
        rng = random.Random(0)
        for w in [rng.getrandbits(g.n) for _ in range(300)]:
            assert pw[w] == prefix_width(g, vertices_of(w), WidthVariant.LU)

    def test_allocation_peak(self):
        # About 3.8 MB, most of it the growth step's candidate matrices
        # (pairs x edges); one (pair, set) matrix held all 7.3 M cells.
        g = self.CT4
        nbr = _mask_tables(g.n, [g.adj])
        tracemalloc.start()
        try:
            _lu_pair_widths(g.n, [g.adj], nbr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestEnables:
    def test_skew_singleton(self):
        assert enables_induced_matching(skew(3), [0, 1, 2], [0])

    def test_skew_pair_fails(self):
        assert not enables_induced_matching(skew(3), [0, 1, 2], [0, 1])

    def test_corona_pair_fails(self):
        assert not enables_induced_matching(clique_corona(3), [0, 1, 2], [0, 1])

    def test_empty_enables(self):
        assert enables_induced_matching(C4, [0, 1], [])

    def test_not_subset(self):
        with pytest.raises(ValueError):
            enables_induced_matching(C4, [0, 1], [2])

    def test_not_independent(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3)])
        with pytest.raises(ValueError):
            enables_induced_matching(g, [0, 1], [0, 1])

    @given(graphs(max_n=6), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, g, umask_seed, smask_seed):
        full = (1 << g.n) - 1
        umask = umask_seed & full
        smask = smask_seed & umask
        u = {v for v in range(g.n) if umask >> v & 1}
        s = {v for v in range(g.n) if smask >> v & 1}
        edges = set(g.edges())
        if any((min(a, b), max(a, b)) in edges
               for a in s for b in s if a < b):
            return  # dependent set: precondition violated
        assert enables_induced_matching(g, u, s) == naive_enables(g, u, s)

    def test_every_corpus_pair_matches_naive(self):
        # Every U and every independent S inside it on the n <= 5 corpus,
        # the cuts with a dependent rest side included: there no local
        # rule applies and the partners must be searched.
        pairs = dependent = 0
        for _, g in full_corpus(5):
            full = g.full_mask()
            for umask in range(full + 1):
                u = list(vertices_of(umask))
                rest_dependent = not is_independent_mask(g, full ^ umask)
                for smask in independent_set_masks(g, umask):
                    s = list(vertices_of(smask))
                    assert enables_induced_matching(g, u, s) == \
                        naive_enables(g, u, s)
                    pairs += 1
                    dependent += rest_dependent
        assert (pairs, dependent) == (6207, 2487)


def _rest_cut_rules(max_n: int):
    """(g, umask, subsets, rule over `neighborhood_mask`, rule over a
    cached `neighborhood_mask`) for every independent-rest cut."""
    for _, g in full_corpus(max_n):
        nbr = functools.partial(neighborhood_mask, g)
        cached = functools.cache(nbr)
        for umask, comp, _ in independent_rest_cuts(g):
            yield (g, umask, list(independent_set_masks(g, umask)),
                   _Enablers(g.adj, comp, nbr),
                   _Enablers(g.adj, comp, cached))


class TestEnablingRule:
    # The private-neighbour rule and the memoised maximum enabler against
    # the public edge-table query and the oracles, on every cut of n <= 6
    # with independent rest side and every independent subset of U.
    def test_private_neighbours_match_partner_search(self):
        pairs = 0
        for g, umask, subsets, rule, cached in _rest_cut_rules(6):
            u = list(vertices_of(umask))
            for s in subsets:
                got = rule.enables(s)
                assert got == cached.enables(s) == \
                    enables_induced_matching(g, u, vertices_of(s))
                if g.n <= 5:
                    assert got == naive_enables(g, u, vertices_of(s))
                pairs += 1
        assert pairs == 31878

    def test_max_enabler_matches_combinations_walk(self):
        for g, umask, subsets, rule, cached in _rest_cut_rules(6):
            u = list(vertices_of(umask))

            def enables(s):
                return enables_induced_matching(g, u, vertices_of(s))

            want = [naive_max_enabling_subset(enables, s) for s in subsets]
            # smallest first, as the suite fills the memo, and largest
            # first, which fills it by recursion
            assert [rule.max_enabler(s) for s in subsets] == want
            assert [cached.max_enabler(s) for s in reversed(subsets)] == \
                want[::-1]


def _scalar_shrink_rows(g):
    """(cut number, S, `_shrink_mask`'s output, enabling verdict) of every
    pair of g, from a fresh `_Enablers` per cut."""
    rows = []
    nbr = functools.cache(functools.partial(neighborhood_mask, g))
    for k, (umask, comp, _) in enumerate(independent_rest_cuts(g)):
        rule = _Enablers(g.adj, comp, nbr)
        rows += [(k, s, _shrink_mask(rule, s)[0], rule.enables(s))
                 for s in independent_set_masks(g, umask)]
    return rows


def _block_rows(graphs):
    """The same rows from one `_shrink_block` call over graphs of one size,
    cut numbers restarting at each graph."""
    n, adjs = graphs[0].n, [g.adj for g in graphs]
    cuts = _rest_cuts(n, adjs, _mask_tables(n, adjs))
    shrunk, enables = _shrink_block(cuts)
    starts = list(itertools.accumulate(cuts.lens.tolist(), initial=0))
    rows = [[] for _ in graphs]
    for c, s, out, ok in zip(cuts.cut.tolist(), cuts.sets.tolist(),
                             shrunk.tolist(), enables.tolist()):
        i = bisect.bisect_right(starts, c) - 1
        rows[i].append((c - starts[i], s, out, ok))
    return rows


# Two equal-size maximum enablers: at the cut with rest side {0, 1}, the
# set {2, 4, 5, 6} enables neither itself nor a subset of three vertices,
# while {2, 5} and {5, 6} both enable.  The least, {2, 5}, leads the
# shrinker to {4}; taking {5, 6} would end at {5, 6}.
TIE = Graph(7, [(0, 2), (0, 4), (0, 6), (1, 4), (1, 5), (2, 3)])

# A set that needs three recombine moves: at the cut with rest side
# {0, 1}, {3, 4, 5, 6, 7} goes to {3, 5, 6, 7}, then {5, 7} and ends at
# {5}, while eliminations alone take {3, 5, 6, 7} to {6, 7}, which has the
# same trace and enables too.  No set of the n <= 7 corpus tells the two
# apart.
STEPS = Graph(8, [(0, 3), (0, 5), (0, 7), (1, 5), (1, 6), (2, 3), (2, 4)])


class TestShrinkBlock:
    # The array kernel of the shrink check against the scalar shrinker
    # (`_Enablers`, `_shrink_mask`) on every pair (cut, S).
    def test_matches_scalar_shrinker(self):
        by_n: dict[int, list] = {}
        for _, g in full_corpus(6):
            by_n.setdefault(g.n, []).append(g)
        chunks = [gs[k:k + 40] for gs in by_n.values()
                  for k in range(0, len(gs), 40)]
        chunks += [[random_connected_graph(n, seed) for seed in range(6)]
                   for n in (7, 8)]
        chunks.append([TIE])
        pairs = 0
        for chunk in chunks:
            for g, got in zip(chunk, _block_rows(chunk)):
                assert got == _scalar_shrink_rows(g)
                pairs += len(got)
        assert pairs == 38397

    def test_matches_scalar_shrinker_at_n9(self):
        # one past the exhaustive corpus, the twelve graphs as one chunk
        pairs = 0
        for g, got in zip(N9_GRAPHS, _block_rows(N9_GRAPHS), strict=True):
            assert got == _scalar_shrink_rows(g)
            pairs += len(got)
        assert pairs == 13222

    def test_tie_goes_to_the_lexicographically_least(self):
        comp, s = 0b11, 0b1110100
        cut = [c[1] for c in independent_rest_cuts(TIE)].index(comp)
        rule = _Enablers(TIE.adj, comp, functools.partial(neighborhood_mask,
                                                          TIE))
        enabling = [t for t in range(s + 1)
                    if not t & ~s and rule.enables(t)]
        best = max(t.bit_count() for t in enabling)
        assert [t for t in enabling if t.bit_count() == best] == \
            [0b0100100, 0b1100000]
        assert rule.max_enabler(s) == 0b0100100
        assert (cut, s, 0b10000, False) in _block_rows([TIE])[0]
        assert (cut, s, 0b10000, False) in _scalar_shrink_rows(TIE)

    def test_step_set_is_shrunk_on(self):
        comp, s = 0b11, 0b11111000
        cut = [c[1] for c in independent_rest_cuts(STEPS)].index(comp)
        rows = _scalar_shrink_rows(STEPS)
        assert (cut, s, 0b100000, False) in rows
        assert _block_rows([STEPS])[0] == rows

    def test_lookup_table_and_traces(self):
        for g in (TIE, random_connected_graph(8, 1)):
            cuts = list(independent_rest_cuts(g))
            pairs = _rest_cuts(g.n, [g.adj], _mask_tables(g.n, [g.adj]))
            for i, (c, s, t) in enumerate(zip(pairs.cut.tolist(),
                                              pairs.sets.tolist(),
                                              pairs.trace.tolist())):
                _, comp, _ = cuts[c]
                assert pairs.lut[c, s] == i
                assert t == neighborhood_mask(g, s) & comp
            assert (pairs.lut >= 0).sum() == len(pairs.sets)


class TestShrink:
    def test_skew_full_set(self):
        g = skew(3)
        res = shrink_to_enabler(g, [0, 1, 2], [0, 1, 2])
        assert res.output_set == {0}
        assert res.trace == {3, 4, 5}
        assert res.steps  # input did not enable, so moves were logged

    def test_skew_pair(self):
        g = skew(3)
        res = shrink_to_enabler(g, [0, 1, 2], [1, 2])
        assert res.output_set == {1}
        assert res.trace == {4, 5}

    def test_already_enabling(self):
        g = skew(3)
        res = shrink_to_enabler(g, [0, 1, 2], [2])
        assert res.output_set == {2}
        assert res.steps == ()

    @pytest.mark.parametrize("g, u, s, out, trace, steps", [
        (skew(3), [0, 1, 2], [0, 1, 2], {0}, {3, 4, 5}, [
            ("eliminate", (1,)),
            ("recombine", ((0,), 1, (0,), (2,))),
            ("eliminate", (2,)),
            ("recombine", ((0,), 2, (0,), ())),
        ]),
        (Graph(6, [(0, 3), (0, 4), (1, 2)]), [2, 3, 4, 5], [2, 3, 4, 5],
         {2, 4}, {0, 1}, [
             ("eliminate", (3,)),
             ("recombine", ((2, 3), 4, (2, 4), (5,))),
             ("eliminate", (5,)),
             ("recombine", ((2, 4), 5, (2, 4), ())),
         ]),
        (Graph(6, [(0, 3), (1, 2)]), [2, 3, 4, 5], [2, 3, 4, 5],
         {2, 3}, {0, 1}, [
             ("eliminate", (4,)),
             ("recombine", ((2, 3), 4, (2, 3), (5,))),
             ("eliminate", (5,)),
             ("recombine", ((2, 3), 5, (2, 3), ())),
         ]),
    ])
    def test_steps_pinned(self, g, u, s, out, trace, steps):
        res = shrink_to_enabler(g, u, s)
        assert res.output_set == out
        assert res.trace == trace
        assert [(step.kind, step.detail) for step in res.steps] == steps

    def test_rest_side_must_be_independent(self):
        with pytest.raises(ValueError):
            shrink_to_enabler(C4, [0, 1], [0])

    def test_input_must_be_independent(self):
        g = skew(3)
        gg = Graph(6, list(g.edges()) + [(0, 1)])
        with pytest.raises(ValueError):
            shrink_to_enabler(gg, [0, 1, 2], [0, 1])

    @given(graphs(max_n=6), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_postconditions(self, g, cmask_seed, smask_seed):
        full = (1 << g.n) - 1
        comp = cmask_seed & full
        edges = set(g.edges())
        cset = {v for v in range(g.n) if comp >> v & 1}
        if any((min(a, b), max(a, b)) in edges
               for a in cset for b in cset if a < b):
            return  # complement not independent
        u = set(range(g.n)) - cset
        smask = smask_seed & (full ^ comp)
        s = {v for v in range(g.n) if smask >> v & 1}
        if any((min(a, b), max(a, b)) in edges
               for a in s for b in s if a < b):
            return
        res = shrink_to_enabler(g, u, s)
        assert res.output_set <= s
        assert neighborhood(g, res.output_set) & cset == \
            neighborhood(g, s) & cset
        assert enables_induced_matching(g, u, res.output_set)
        r, _ = max_induced_cut_matching(g, u)
        assert len(res.output_set) <= r

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_small_enablers_realise_every_trace(self, g, cmask_seed):
        # The statement the shrinker proves, checked with the oracles
        # alone: with the rest side independent, the enabling independent
        # sets of size <= r leave every trace.
        cset = {v for v in range(g.n) if cmask_seed >> v & 1}
        edges = edge_set(g)
        if any((min(a, b), max(a, b)) in edges
               for a in cset for b in cset if a < b):
            return  # complement not independent
        u = set(range(g.n)) - cset
        r = naive_max_induced_cut_matching(edges, u)
        small = {
            frozenset(v for x in s for v in g.neighbors(x)) & cset
            for s in naive_independent_sets(g, u)
            if len(s) <= r and naive_enables(g, u, s)
        }
        assert small == naive_traces(g, u) == traces(g, u).members


class TestTraceCountBound:
    def test_skew(self):
        rep = trace_count_bound_check(skew(3), [0, 1, 2])
        assert rep == TraceBoundReport(
            n=6, side_size=3, trace_count=4, matching_size=1,
            binomial_bound=4, power_bound=36, within_binomial=True,
            within_power=True, small_sets_generate_all=True,
        )
        assert rep.all_ok

    def test_empty_side(self):
        rep = trace_count_bound_check(C4, range(4))
        assert rep == TraceBoundReport(
            n=4, side_size=4, trace_count=1, matching_size=0,
            binomial_bound=1, power_bound=4, within_binomial=True,
            within_power=True, small_sets_generate_all=True,
        )
        assert rep.all_ok

    def test_precondition(self):
        with pytest.raises(ValueError):
            trace_count_bound_check(C4, [0, 1])

    def test_corona_needs_no_bound(self):
        # the far side is a clique here, so the check does not apply
        with pytest.raises(ValueError):
            trace_count_bound_check(clique_corona(3), range(3))


    def test_every_corpus_cut_matches_oracles(self):
        # The whole report, field by field, from the brute-force oracles,
        # on every cut with independent rest side of the n <= 5 corpus.
        cuts = 0
        for _, g in full_corpus(5):
            edges = edge_set(g)
            full = g.full_mask()
            for comp in independent_set_masks(g, full):
                u = set(vertices_of(full ^ comp))
                cset = set(vertices_of(comp))
                fam = naive_traces(g, u)
                r = naive_max_induced_cut_matching(edges, u)
                small = {
                    frozenset(v for x in s for v in g.neighbors(x)) & cset
                    for s in naive_independent_sets(g, u) if len(s) <= r
                }
                k, t = len(u), len(fam)
                binom = sum(math.comb(k, i) for i in range(r + 1))
                power = g.n ** (r + 1)
                assert trace_count_bound_check(g, u) == TraceBoundReport(
                    n=g.n, side_size=k, trace_count=t, matching_size=r,
                    binomial_bound=binom, power_bound=power,
                    within_binomial=t <= binom, within_power=t <= power,
                    small_sets_generate_all=small == fam,
                )
                cuts += 1
        assert cuts == 571


class TestStatementOnEveryCut:
    # T(W) and the LU prefix width ignore the edges inside the rest, so
    # every cut is the independent-rest case of its upper subgraph.
    @given(graphs(max_n=7), st.integers(0, 127))
    @settings(max_examples=80, deadline=None)
    def test_upper_subgraph_keeps_traces(self, g, wmask_seed):
        wmask = wmask_seed & g.full_mask()
        h = upper_subgraph(g, vertices_of(wmask))
        assert trace_masks(g, wmask) == trace_masks(h, wmask)

    @given(graphs(max_n=7), st.integers(0, 127))
    @settings(max_examples=80, deadline=None)
    def test_binomial_bound_by_lu_prefix_width(self, g, wmask_seed):
        wmask = wmask_seed & g.full_mask()
        w = list(vertices_of(wmask))
        r = prefix_width(g, w, WidthVariant.LU)
        bound = sum(math.comb(len(w), i) for i in range(r + 1))
        assert len(trace_masks(g, wmask)) <= bound

    @given(graphs(max_n=7), st.integers(0, 127))
    @settings(max_examples=80, deadline=None)
    def test_upper_subgraph_keeps_lu_prefix_width(self, g, wmask_seed):
        # In the upper subgraph the rest is independent, so LU and LSIM
        # see the same edges there.
        wmask = wmask_seed & g.full_mask()
        w = list(vertices_of(wmask))
        h = upper_subgraph(g, w)
        r = prefix_width(g, w, WidthVariant.LU)
        assert prefix_width(h, w, WidthVariant.LU) == r
        assert prefix_width(h, w, WidthVariant.LSIM) == r


class TestVcDimension:
    def test_trivial_family(self):
        ts = traces(C4, [])
        assert vc_dimension(ts) == 0

    def test_perfect_matching(self):
        for k in (1, 2, 3, 4):
            ts = traces(perfect_matching_graph(k), range(k))
            assert vc_dimension(ts) == k

    def test_skew_chain(self):
        assert vc_dimension(traces(skew(3), [0, 1, 2])) == 1

    def test_budget_threshold(self):
        # Four traces on three vertices: one shattered singleton, then
        # three pairs that are not shattered, four entries each.
        ts = traces(skew(3), [0, 1, 2])
        assert vc_dimension(ts, budget=16) == 1
        with pytest.raises(BudgetExceededError) as exc:
            vc_dimension(ts, budget=15)
        _assert_budget_error(exc.value, "VC shattering search", 15)

    @given(graphs(max_n=5), st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_bipartite_equals_matching(self, g, umask_seed):
        full = (1 << g.n) - 1
        umask = umask_seed & full
        edges = set(g.edges())
        u = {v for v in range(g.n) if umask >> v & 1}
        comp = set(range(g.n)) - u
        for side in (u, comp):
            if any((min(a, b), max(a, b)) in edges
                   for a in side for b in side if a < b):
                return
        ts = traces(g, u)
        r, _ = max_induced_cut_matching(g, u)
        assert vc_dimension(ts) == r
