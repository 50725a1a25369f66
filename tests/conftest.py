import sys
from pathlib import Path

from hypothesis import strategies as st

from mimlab.generators import random_connected_graph, random_graph
from mimlab.graph import Graph

sys.path.insert(0, str(Path(__file__).parent))


@st.composite
def graphs(draw, min_n=1, max_n=6, force_edges=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    if force_edges and not edges and pairs:
        edges = [pairs[0]]
    return Graph(n, edges)


@st.composite
def graphs_without_isolated(draw, min_n=2, max_n=6):
    g = draw(graphs(min_n=min_n, max_n=max_n, force_edges=True))
    covered = set()
    for u, v in g.edges():
        covered.add(u)
        covered.add(v)
    extra = []
    verts = sorted(set(range(g.n)) - covered)
    for v in verts:
        partner = draw(st.integers(0, g.n - 1))
        if partner == v:
            partner = (v + 1) % g.n
        extra.append((min(v, partner), max(v, partner)))
    return Graph(g.n, list(g.edges()) + extra)


# Seeded graphs on 9 vertices, one past the exhaustive corpus's n = 8:
# dense random ones (some with isolated vertices) and connected ones.
N9_GRAPHS = ([random_graph(9, 0.5, seed) for seed in range(6)]
             + [random_connected_graph(9, seed) for seed in range(6)])
