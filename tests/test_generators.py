import hashlib

import pytest

from mimlab.generators import (
    clique_corona,
    clique_thread,
    fixtures,
    grid,
    grid_rows_for,
    horizontal_subgraph,
    perfect_matching_graph,
    random_graph,
    skew,
    skew_grid,
    skew_path,
    two_rows,
)
from mimlab.graph import format_edge_list
from mimlab.traces import trace_masks


class TestSkew:
    def test_q3_staircase(self):
        g = skew(3)
        assert g.n == 6
        assert set(g.edges()) == {
            (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (2, 5)
        }

    def test_q1_is_single_edge(self):
        g = skew(1)
        assert (g.n, g.m) == (2, 1)

    def test_q4_edge_count(self):
        assert skew(4).m == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            skew(0)


class TestSkewPath:
    def test_3_3(self):
        g, layers = skew_path(3, 3)
        assert (g.n, g.m) == (9, 12)
        assert layers == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_2_1_is_k2(self):
        g, _ = skew_path(2, 1)
        assert (g.n, g.m) == (2, 1)

    def test_4_2(self):
        g, _ = skew_path(4, 2)
        assert (g.n, g.m) == (8, 9)

    def test_consecutive_layers_form_skew_block(self):
        g, layers = skew_path(3, 2)
        for i in range(2):
            for a in range(2):
                for b in range(2):
                    expected = a <= b
                    assert g.has_edge(layers[i][a], layers[i + 1][b]) == expected


class TestSkewGrid:
    @pytest.mark.parametrize("p,q,r", [(2, 1, 1), (3, 3, 2), (3, 2, 2), (4, 3, 1), (4, 2, 2)])
    def test_counts_match_closed_forms(self, p, q, r):
        g, meta = skew_grid(p, q, r)
        assert g.n == p * q * r + p * (q * r - 1)
        assert g.m == r * (p - 1) * q * (q + 1) // 2 + 2 * p * (q * r - 1)
        assert meta.main_count == p * q * r
        assert meta.aux_count == p * (q * r - 1)

    def test_3_3_2_counts(self):
        g, _ = skew_grid(3, 3, 2)
        assert g.n == 18 + 15

    def test_2_1_1_is_k2(self):
        g, _ = skew_grid(2, 1, 1)
        assert (g.n, g.m) == (2, 1)

    def test_adjacent_only_same_or_consecutive_layers(self):
        g, meta = skew_grid(3, 2, 2)
        for u, v in g.edges():
            assert abs(meta.layer_of(u) - meta.layer_of(v)) <= 1

    def test_main_vertices_not_directly_adjacent_within_layer(self):
        g, meta = skew_grid(3, 2, 2)
        for u, v in g.edges():
            if meta.is_main(u) and meta.is_main(v):
                assert meta.layer_of(u) != meta.layer_of(v)

    def test_aux_vertices_have_degree_two(self):
        g, meta = skew_grid(3, 2, 2)
        for v in range(meta.main_count, g.n):
            assert g.degree(v) == 2

    def test_layer_path_order(self):
        _, meta = skew_grid(2, 2, 1)
        path = meta.layer_path_order(1)
        assert path == [meta.main_vertex(1, 1), meta.aux_vertex(1, 1),
                        meta.main_vertex(1, 2)]

    def test_coordinate_major_ordering(self):
        _, meta = skew_grid(2, 2, 1)
        assert meta.coordinate_major_ordering() == [
            meta.main_vertex(1, 1), meta.main_vertex(2, 1),
            meta.main_vertex(1, 2), meta.main_vertex(2, 2),
            meta.aux_vertex(1, 1), meta.aux_vertex(2, 1),
        ]
        g, meta = skew_grid(4, 3, 1)
        assert sorted(meta.coordinate_major_ordering()) == list(range(g.n))

    def test_rows_for(self):
        assert grid_rows_for(2, 1) == 2
        assert grid_rows_for(2, 2) == 4
        assert grid_rows_for(3, 1) == 4
        assert grid_rows_for(1, 5) == 2


class TestHorizontalSubgraph:
    def test_single_layer_picks(self):
        g, meta = skew_grid(3, 3, 2)
        h = horizontal_subgraph(g, meta, [1] * meta.coords)
        assert h.top == {meta.main_vertex(1, c) for c in range(1, 7)}
        assert h.bottom == {meta.main_vertex(2, c) for c in range(1, 7)}
        assert len(h.core_matching) == 6
        for t, b in h.core_matching:
            assert meta.coordinate_of(t) == meta.coordinate_of(b)

    def test_trace_floor_single_layer(self):
        g, meta = skew_grid(3, 3, 2)
        h = horizontal_subgraph(g, meta, [1] * meta.coords)
        local = {v: i for i, v in enumerate(h.graph.parent_map)}
        top_mask = sum(1 << local[v] for v in h.top)
        assert len(trace_masks(h.graph, top_mask)) >= 16

    def test_mixed_picks_floor(self):
        g, meta = skew_grid(3, 3, 2)
        h = horizontal_subgraph(g, meta, [1, 2, 1, 2, 1, 2])
        local = {v: i for i, v in enumerate(h.graph.parent_map)}
        top_mask = sum(1 << local[v] for v in h.top)
        assert len(trace_masks(h.graph, top_mask)) >= 16

    def test_blocks_are_disconnected_in_h(self):
        g, meta = skew_grid(3, 2, 2)
        h = horizontal_subgraph(g, meta, [1, 1, 2, 2])
        for u, v in h.graph.edges():
            gu, gv = h.graph.parent_map[u], h.graph.parent_map[v]
            assert meta.block_of(gu) == meta.block_of(gv)

    def test_invalid_picks(self):
        g, meta = skew_grid(3, 2, 2)
        with pytest.raises(ValueError):
            horizontal_subgraph(g, meta, [3, 1, 1, 1])  # last layer pick
        with pytest.raises(ValueError):
            horizontal_subgraph(g, meta, [1, 1])  # wrong arity


class TestCliqueThread:
    def test_counts(self):
        g = clique_thread(3)
        assert (g.n, g.m) == (9, 15)

    def test_same_row_parity_never_adjacent_across_cliques(self):
        g = clique_thread(4)
        for u, v in g.edges():
            row_u, row_v = u // 4, v // 4
            if row_u != row_v:
                assert (row_u - row_v) % 2 == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            clique_thread(1)


class TestGrid:
    def test_1x1(self):
        assert (grid(1, 1).n, grid(1, 1).m) == (1, 0)

    def test_2x2_is_c4(self):
        g = grid(2, 2)
        assert (g.n, g.m) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_5x2(self):
        g = grid(5, 2)
        assert (g.n, g.m) == (10, 13)


class TestCorona:
    def test_counts(self):
        g = clique_corona(3)
        assert (g.n, g.m) == (6, 6)

    def test_traces_blowup(self):
        g = clique_corona(3)
        assert len(trace_masks(g, 0b111)) == 8

    def test_k1_is_k2(self):
        g = clique_corona(1)
        assert (g.n, g.m) == (2, 1)


class TestFixtures:
    def test_names(self):
        assert set(fixtures()) == {"c4", "k2", "tworows"}

    def test_c4_edge_list(self):
        assert fixtures()["c4"].edges() == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_two_rows_shape(self):
        g = two_rows()
        assert (g.n, g.m) == (8, 20)

    def test_two_rows_frozen_checksum(self):
        digest = hashlib.sha256(
            format_edge_list(two_rows()).encode()
        ).hexdigest()
        assert digest == TWO_ROWS_SHA256

    def test_determinism(self):
        assert format_edge_list(two_rows()) == format_edge_list(two_rows())
        g1, _ = skew_grid(3, 2, 2)
        g2, _ = skew_grid(3, 2, 2)
        assert format_edge_list(g1) == format_edge_list(g2)


class TestRandomGraph:
    def test_deterministic(self):
        assert random_graph(8, 0.5, 3) == random_graph(8, 0.5, 3)

    def test_seed_changes_output(self):
        samples = {random_graph(8, 0.5, s) for s in range(6)}
        assert len(samples) > 1


class TestPerfectMatching:
    def test_structure(self):
        g = perfect_matching_graph(3)
        assert (g.n, g.m) == (6, 3)
        assert g.edges() == ((0, 3), (1, 4), (2, 5))


TWO_ROWS_SHA256 = (
    "fbe97c3f5746d88bbae7778b4612ccca070b23b41515cac578e1059a2cb5a557"
)
