"""Deterministic constructors for the graph families used by the harness.

Same parameters always produce byte-identical edge lists.  Grid-of-skews
instances carry layer/coordinate metadata so cut-level tests can address
vertices structurally.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, _connected


def skew(q: int) -> Graph:
    """Staircase bipartite block: u_i adjacent to v_j exactly when i <= j."""
    if q < 1:
        raise ValueError("q must be at least 1")
    edges = [(i, q + j) for i in range(q) for j in range(q) if i <= j]
    labels = [f"u{i + 1}" for i in range(q)] + [f"v{j + 1}" for j in range(q)]
    return Graph(2 * q, edges, labels=labels)


def skew_path(p: int, q: int) -> tuple[Graph, list[list[int]]]:
    """p stacked layers of q vertices; consecutive layers form a skew block.

    Returns the graph and the list of layers (vertex ids, top to bottom).
    """
    if p < 2 or q < 1:
        raise ValueError("need p >= 2 and q >= 1")
    layers = [[i * q + j for j in range(q)] for i in range(p)]
    edges = []
    for i in range(p - 1):
        for a in range(q):
            for b in range(q):
                if a <= b:
                    edges.append((layers[i][a], layers[i + 1][b]))
    labels = [f"u{i + 1},{j + 1}" for i in range(p) for j in range(q)]
    return Graph(p * q, edges, labels=labels), layers


@dataclass(frozen=True)
class SkewGridMeta:
    p: int
    q: int
    r: int

    @property
    def coords(self) -> int:
        return self.q * self.r

    @property
    def main_count(self) -> int:
        return self.p * self.coords

    @property
    def aux_count(self) -> int:
        return self.p * (self.coords - 1)

    def main_vertex(self, layer: int, coord: int) -> int:
        """Vertex id of the main vertex at (layer, coord), both 1-based."""
        if not (1 <= layer <= self.p and 1 <= coord <= self.coords):
            raise ValueError("layer/coordinate out of range")
        return (layer - 1) * self.coords + (coord - 1)

    def aux_vertex(self, layer: int, gap: int) -> int:
        """Auxiliary vertex splitting the layer-path edge between
        coordinates gap and gap+1 (gap is 1-based)."""
        if not (1 <= layer <= self.p and 1 <= gap <= self.coords - 1):
            raise ValueError("layer/gap out of range")
        return self.main_count + (layer - 1) * (self.coords - 1) + (gap - 1)

    def is_main(self, v: int) -> bool:
        return v < self.main_count

    def layer_of(self, v: int) -> int:
        if self.is_main(v):
            return v // self.coords + 1
        return (v - self.main_count) // (self.coords - 1) + 1

    def coordinate_of(self, v: int) -> int:
        if not self.is_main(v):
            raise ValueError(f"vertex {v} is auxiliary")
        return v % self.coords + 1

    def block_of(self, v: int) -> int:
        """Which of the r stacked skew-paths a main vertex came from."""
        return (self.coordinate_of(v) - 1) // self.q + 1

    def layer_path_order(self, layer: int) -> list[int]:
        """Vertices of a layer along its subdivided path, coordinate 1 first."""
        out = []
        for c in range(1, self.coords + 1):
            out.append(self.main_vertex(layer, c))
            if c < self.coords:
                out.append(self.aux_vertex(layer, c))
        return out

    def layer_major_ordering(self) -> list[int]:
        """All vertices layer by layer, each layer along its path."""
        out = []
        for layer in range(1, self.p + 1):
            out.extend(self.layer_path_order(layer))
        return out

    def coordinate_major_ordering(self) -> list[int]:
        """Main vertices coordinate by coordinate, each down the layers,
        then the auxiliary vertices layer by layer."""
        out = [self.main_vertex(layer, c)
               for c in range(1, self.coords + 1)
               for layer in range(1, self.p + 1)]
        out.extend(self.aux_vertex(layer, gap)
                   for layer in range(1, self.p + 1)
                   for gap in range(1, self.coords))
        return out


def skew_grid(p: int, q: int, r: int) -> tuple[Graph, SkewGridMeta]:
    """r parallel skew-paths whose layers are threaded by subdivided paths.

    Main vertices are numbered layer-major then by coordinate; the
    auxiliary (subdivision) vertices follow after all main vertices.
    """
    if p < 2 or q < 1 or r < 1:
        raise ValueError("need p >= 2, q >= 1, r >= 1")
    meta = SkewGridMeta(p, q, r)
    edges = []
    # Skew blocks inside each of the r stacked paths.
    for block in range(r):
        for layer in range(1, p):
            for a in range(1, q + 1):
                for b in range(a, q + 1):
                    edges.append(
                        (
                            meta.main_vertex(layer, block * q + a),
                            meta.main_vertex(layer + 1, block * q + b),
                        )
                    )
    # Subdivided layer paths.
    for layer in range(1, p + 1):
        for gap in range(1, meta.coords):
            aux = meta.aux_vertex(layer, gap)
            edges.append((meta.main_vertex(layer, gap), aux))
            edges.append((aux, meta.main_vertex(layer, gap + 1)))
    labels = [
        f"m{meta.layer_of(v)},{meta.coordinate_of(v)}"
        for v in range(meta.main_count)
    ] + [
        f"a{(v - meta.main_count) // (meta.coords - 1) + 1},"
        f"{(v - meta.main_count) % (meta.coords - 1) + 1}"
        for v in range(meta.main_count, meta.main_count + meta.aux_count)
    ]
    return Graph(meta.main_count + meta.aux_count, edges, labels=labels), meta


def grid_rows_for(q: int, r: int) -> int:
    """Layer count 2 * r * ceil(log2 q), at least 2, used by the
    trace-floor family."""
    if q < 1:
        raise ValueError("q must be at least 1")
    return max(2, 2 * r * math.ceil(math.log2(q)))


@dataclass(frozen=True)
class HorizontalSubgraph:
    """Induced subgraph on one chosen vertex per coordinate plus the
    same-coordinate vertex of the next layer."""

    graph: Graph  # induced subgraph; parent_map maps back to the grid
    top: frozenset[int]  # grid vertex ids
    bottom: frozenset[int]
    core_matching: tuple[tuple[int, int], ...]  # (top, bottom) grid ids

    def local(self, grid_vertex: int) -> int:
        return self.graph.parent_map.index(grid_vertex)


def horizontal_subgraph(
    g: Graph, meta: SkewGridMeta, picks: Sequence[int]
) -> HorizontalSubgraph:
    """Build the horizontal subgraph for per-coordinate layer picks.

    `picks[c-1]` is the layer of the chosen top vertex of coordinate c;
    it must not be the last layer.
    """
    if len(picks) != meta.coords:
        raise ValueError("need one layer pick per coordinate")
    top = []
    bottom = []
    core = []
    for c, layer in enumerate(picks, start=1):
        if not 1 <= layer <= meta.p - 1:
            raise ValueError(
                f"coordinate {c}: pick {layer} is not below the last layer"
            )
        t = meta.main_vertex(layer, c)
        b = meta.main_vertex(layer + 1, c)
        top.append(t)
        bottom.append(b)
        core.append((t, b))
    from .graph import induced_subgraph

    sub = induced_subgraph(g, top + bottom)
    return HorizontalSubgraph(
        graph=sub,
        top=frozenset(top),
        bottom=frozenset(bottom),
        core_matching=tuple(core),
    )


def clique_thread(r: int) -> Graph:
    """r disjoint r-cliques threaded by r column paths.

    Vertex (i, j) = row i clique, column j; the graph separates the
    upper-subgraph width from the cut-graph width.  The exact
    upper-subgraph (lu) width is 1 for every r >= 2: the row-major
    ordering is a witness, since at each cut the boundary of the prefix
    lies in the last full row and the partial row, and the partial row's
    clique blocks every induced matching of size 2.  The cut-graph width
    grows with r.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    edges = []
    for i in range(r):
        for a in range(r):
            for b in range(a + 1, r):
                edges.append((i * r + a, i * r + b))
    for j in range(r):
        for i in range(r - 1):
            edges.append((i * r + j, (i + 1) * r + j))
    labels = [f"v{i + 1},{j + 1}" for i in range(r) for j in range(r)]
    return Graph(r * r, edges, labels=labels)


def grid(p: int, r: int) -> Graph:
    """Standard p x r grid graph."""
    if p < 1 or r < 1:
        raise ValueError("need p >= 1 and r >= 1")
    edges = []
    for i in range(p):
        for j in range(r):
            if j + 1 < r:
                edges.append((i * r + j, i * r + j + 1))
            if i + 1 < p:
                edges.append((i * r + j, (i + 1) * r + j))
    return Graph(p * r, edges)


def clique_corona(k: int) -> Graph:
    """A k-clique with one pendant vertex matched to each clique vertex.

    The pendant side is independent, the clique side kills every
    2-matching, yet the pendants leave 2^k distinct neighborhoods.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = [(i, k + i) for i in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            edges.append((k + a, k + b))
    labels = [f"u{i + 1}" for i in range(k)] + [f"v{i + 1}" for i in range(k)]
    return Graph(2 * k, edges, labels=labels)


def perfect_matching_graph(k: int) -> Graph:
    """k disjoint edges u_i - v_i (both sides independent)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = [(i, k + i) for i in range(k)]
    labels = [f"u{i + 1}" for i in range(k)] + [f"v{i + 1}" for i in range(k)]
    return Graph(2 * k, edges, labels=labels)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi sample; deterministic for fixed arguments."""
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    """First connected seeded sample at edge density p (seed advances)."""
    attempt = 0
    while True:
        g = random_graph(n, p, seed * 10007 + attempt)
        if _connected(g.adj):
            return g
        attempt += 1


def fixtures() -> dict[str, Graph]:
    """Small named fixture graphs used across the test harness."""
    c4 = Graph(
        4,
        [(0, 1), (0, 2), (1, 3), (2, 3)],
        labels=["x1", "x2", "x3", "x4"],
    )
    k2 = Graph(2, [(0, 1)], labels=["u", "v"])
    return {"c4": c4, "k2": k2, "tworows": two_rows()}


def two_rows() -> Graph:
    """Two complete rows of four joined by verticals and cyclic diagonals.

    Vertices 0-3 are the top row t1..t4, 4-7 the bottom row b1..b4.  Each
    row is a K4; verticals t_i-b_i; diagonals t_i-b_{i+1 mod 4}.  Under the
    ordering t1..t4,b1..b4 every prefix cut of the upper subgraph admits
    only a single induced matching edge, while the pure cut graph of the
    top row admits two.
    """
    edges = []
    for row in (0, 4):
        for a in range(4):
            for b in range(a + 1, 4):
                edges.append((row + a, row + b))
    for i in range(4):
        edges.append((i, 4 + i))
    for i in range(4):
        edges.append((i, 4 + (i + 1) % 4))
    labels = [f"t{i + 1}" for i in range(4)] + [f"b{i + 1}" for i in range(4)]
    return Graph(8, edges, labels=labels)


def generator_comments(family: str, **params) -> list[str]:
    """Standard comment lines recording how a file was produced."""
    kv = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return [f"meta family {family} {kv}".rstrip()]


def skew_grid_comments(meta: SkewGridMeta) -> list[str]:
    lines = generator_comments("skew-grid", p=meta.p, q=meta.q, r=meta.r)
    for v in range(meta.main_count):
        lines.append(
            f"meta main {v + 1} layer={meta.layer_of(v)} "
            f"coord={meta.coordinate_of(v)} block={meta.block_of(v)}"
        )
    for v in range(meta.main_count, meta.main_count + meta.aux_count):
        lines.append(f"meta aux {v + 1} layer={meta.layer_of(v)}")
    return lines
