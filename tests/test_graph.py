import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimlab.errors import BudgetExceededError
from mimlab.generators import clique_corona, fixtures, skew, two_rows
from mimlab.graph import (
    Graph,
    WidthVariant,
    _EdgeTable,
    cut_graph,
    induced_subgraph,
    is_independent,
    is_induced_cut_matching,
    max_induced_cut_matching,
    neighborhood,
    parse_edge_list,
    format_edge_list,
    upper_subgraph,
)
from mimlab.harness import full_corpus

from conftest import graphs
from oracles import naive_max_induced_cut_matching, derived_edges

C4 = fixtures()["c4"]


class TestGraph:
    def test_basic_counts(self):
        assert C4.n == 4
        assert C4.m == 4
        assert C4.edges() == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_neighbors_symmetric(self):
        for v in range(C4.n):
            for w in C4.neighbors(v):
                assert v in C4.neighbors(w)

    def test_labels(self):
        assert C4.label(0) == "x1"
        assert Graph(2, [(0, 1)]).label(1) == "2"


class TestInducedSubgraph:
    def test_c4_pair(self):
        # vertices x3, x4 span exactly the edge between them
        sub = induced_subgraph(C4, [2, 3])
        assert sub.n == 2
        assert sub.edges() == ((0, 1),)
        assert sub.parent_map == (2, 3)

    def test_identity(self):
        sub = induced_subgraph(C4, range(4))
        assert sub == C4

    def test_empty(self):
        sub = induced_subgraph(C4, [])
        assert sub.n == 0 and sub.m == 0


class TestUpperSubgraph:
    def test_c4(self):
        up = upper_subgraph(C4, [0, 1])
        assert set(up.edges()) == {(0, 1), (0, 2), (1, 3)}

    def test_full_set_identity(self):
        assert upper_subgraph(C4, range(4)) == C4

    def test_empty_removes_everything(self):
        assert upper_subgraph(C4, []).m == 0

    def test_two_rows_top(self):
        g = two_rows()
        up = upper_subgraph(g, range(4))
        # bottom row is internal to the complement: its clique disappears
        bottom_internal = [(a, b) for a, b in g.edges() if a >= 4 and b >= 4]
        assert bottom_internal
        assert all(e not in up.edges() for e in bottom_internal)
        assert up.m == g.m - len(bottom_internal)

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60)
    def test_edges_characterized(self, g, umask_seed):
        umask = umask_seed & ((1 << g.n) - 1)
        u = {v for v in range(g.n) if umask >> v & 1}
        up = upper_subgraph(g, u)
        assert set(up.edges()) == derived_edges(g, u, "lu")


class TestCutGraph:
    def test_c4(self):
        cg = cut_graph(C4, [0, 1])
        assert set(cg.edges()) == {(0, 2), (1, 3)}


class TestNeighborhood:
    def test_c4_singleton(self):
        assert neighborhood(C4, [0]) == {1, 2}

    def test_empty(self):
        assert neighborhood(C4, []) == frozenset()

    def test_corona_pendants(self):
        g = clique_corona(3)
        assert neighborhood(g, [0, 1]) == {3, 4}

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=40)
    def test_disjoint_from_input(self, g, umask_seed):
        s = {v for v in range(g.n) if umask_seed >> v & 1 and v < g.n}
        assert not (neighborhood(g, s) & s)


class TestIsIndependent:
    def test_cases(self):
        assert is_independent(C4, [0, 3])
        assert not is_independent(C4, [0, 1])
        assert is_independent(C4, [])


class TestIsInducedCutMatching:
    def test_conflict_through_kept_edge(self):
        up = upper_subgraph(C4, [0, 1])
        assert not is_induced_cut_matching(up, [0, 1], [(0, 2), (1, 3)])

    def test_single_edge(self):
        assert is_induced_cut_matching(C4, [0, 1], [(0, 2)])

    def test_cut_graph_pair(self):
        cg = cut_graph(C4, [0, 1])
        assert is_induced_cut_matching(cg, [0, 1], [(0, 2), (1, 3)])

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            is_induced_cut_matching(C4, [0, 1], [(0, 3)])

    def test_non_crossing_rejected(self):
        with pytest.raises(ValueError):
            is_induced_cut_matching(C4, [0, 1], [(0, 1)])

    def test_shared_vertex_fails(self):
        g = Graph(3, [(0, 1), (0, 2)])
        assert not is_induced_cut_matching(g, [0], [(0, 1), (0, 2)])


class TestMaxInducedCutMatching:
    def test_skew_one(self):
        g = skew(3)
        size, witness = max_induced_cut_matching(g, [0, 1, 2])
        assert size == 1
        assert witness == [(0, 3)]

    def test_corona_one(self):
        g = clique_corona(3)
        size, _ = max_induced_cut_matching(g, [0, 1, 2])
        assert size == 1

    def test_edgeless_cut(self):
        g = Graph(4, [(0, 1), (2, 3)])
        size, witness = max_induced_cut_matching(g, [0, 1])
        assert size == 0 and witness == []

    def test_witness_is_valid_and_lex_least(self):
        g = cut_graph(C4, [0, 1])
        size, witness = max_induced_cut_matching(g, [0, 1])
        assert size == 2
        assert witness == [(0, 2), (1, 3)]
        assert is_induced_cut_matching(g, [0, 1], witness)

    def test_budget_guard(self):
        g = two_rows()
        with pytest.raises(BudgetExceededError):
            max_induced_cut_matching(g, range(4), budget=1)

    @given(graphs(max_n=6), st.integers(0, 63))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, g, umask_seed):
        u = {v for v in range(g.n) if umask_seed >> v & 1 and v < g.n}
        size, witness = max_induced_cut_matching(g, u)
        assert size == naive_max_induced_cut_matching(set(g.edges()), u)
        if witness:
            assert is_induced_cut_matching(g, u, witness)


def _check_delta_rule(g):
    """For every prefix set W, vertex c in W and size k above the
    largest matching across W - c, a matching of size k across W exists
    exactly when one exists through the edges leaving c, and exactly when
    the naive oracle finds one."""
    for variant in WidthVariant:
        table = _EdgeTable(g, variant)
        for wmask in range(1, 1 << g.n):
            w = {v for v in range(g.n) if wmask >> v & 1}
            naive = naive_max_induced_cut_matching(
                derived_edges(g, w, variant.value), w)
            cand = table.crossing(wmask)
            for c in w:
                before = table.max_size(table.crossing(wmask ^ 1 << c))
                for k in range(before + 1, naive + 2):
                    through = table.exists_through(cand, cand & table.out[c],
                                                   k)
                    assert through == table.exists(cand, k) == (k <= naive), \
                        (g.edges(), variant, sorted(w), c, k)


class TestExistsThrough:
    def test_corpus(self):
        for _, g in full_corpus(6):
            _check_delta_rule(g)

    @given(graphs(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, g):
        _check_delta_rule(g)


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        from mimlab.graph import read_edge_list, write_edge_list

        path = tmp_path / "g.edges"
        write_edge_list(C4, path, comments=["meta family fixture name=c4"])
        back = read_edge_list(path)
        assert back == C4
        assert back.labels == C4.labels

    def test_parse_ignores_comments_and_blanks(self):
        g = parse_edge_list("c hello\n\np edge 3 2\ne 1 2\n\nc bye\ne 2 3\n")
        assert g.n == 3 and g.m == 2

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_edge_list("e 1 2\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_edge_list("p edge 2 1\nx 1 2\n")

    @pytest.mark.parametrize("text, line", [
        ("p edge 3 5\ne 1 2\n", "line 1"),
        ("p edge 3 1\nc label 9 x\ne 1 2\n", "line 2"),
        ("p edge 3 1\nc label 0 y\ne 1 2\n", "line 2"),
        ("p edge 3 1\ne 1 2\np edge 4 1\ne 3 4\n", "line 3"),
        ("p edge 3 1\n\ne 1 a\n", "line 3: endpoint 'a'"),
        ("p edge 3 1\nc label x y\ne 1 2\n", "line 2: label index 'x'"),
        ("p edge 3 2\ne 1 2\ne 1 9\n", "line 3: endpoint 9 .*n=3"),
        ("p edge 3 1\ne 0 2\n", "line 2: endpoint 0 "),
        ("p edge 3 1\ne 2 2\n", "line 2: self loop at vertex 2"),
    ], ids=["edge-count", "label-above-n", "label-zero", "repeated-header",
            "endpoint-not-int", "label-not-int", "endpoint-above-n",
            "endpoint-zero", "self-loop"])
    def test_inconsistent_input_rejected(self, text, line):
        with pytest.raises(ValueError, match=line):
            parse_edge_list(text)

    @pytest.mark.parametrize("label", ["a  b", " a", "", "a\nb"])
    def test_label_that_does_not_round_trip_rejected(self, label):
        g = Graph(2, [(0, 1)], labels=["x", label])
        with pytest.raises(ValueError, match="vertex 2"):
            format_edge_list(g)

    @pytest.mark.parametrize("comment", ["a\nb", "label 1 x"])
    def test_comment_that_does_not_round_trip_rejected(self, comment):
        with pytest.raises(ValueError, match="comment"):
            format_edge_list(Graph(2, [(0, 1)]), [comment])

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_writable_labels(self, g, data):
        word = st.text(min_size=1).filter(lambda t: " ".join(t.split()) == t)
        labels = data.draw(st.none() | st.lists(word, min_size=g.n,
                                                 max_size=g.n))
        comments = data.draw(st.lists(st.text().filter(
            lambda t: "".join(t.splitlines()) == t
            and t.split()[:1] != ["label"])))
        g = Graph(g.n, g.edges(), labels=labels)
        back = parse_edge_list(format_edge_list(g, comments))
        assert back == g
        assert back.labels == g.labels

    def test_format_is_one_based(self):
        text = format_edge_list(Graph(2, [(0, 1)]))
        assert "p edge 2 1" in text
        assert "e 1 2" in text
