"""Immutable simple graphs with bit-vector adjacency rows.

Vertices are 0-based ints internally; the edge-list file format is 1-based.
Adjacency is stored as one Python int per vertex (bit v set = neighbor), so
membership tests and set algebra on vertex sets are single int operations.
All functions here are pure; a Graph never changes after construction.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError

DEFAULT_MATCHING_BUDGET = 10**8


class Graph:
    """Undirected simple graph on vertices 0..n-1.

    Invariants enforced at construction: symmetric adjacency, no self
    loops, no duplicate edges, endpoints in range.
    """

    __slots__ = ("n", "adj", "labels", "parent_map", "_edges")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Sequence[str] | None = None,
        parent_map: tuple[int, ...] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._edges = tuple(sorted(seen))
        if labels is not None:
            if len(labels) != n:
                raise ValueError("labels length must equal n")
            self.labels = tuple(labels)
        else:
            self.labels = None
        self.parent_map = parent_map

    @property
    def m(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(vertices_of(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v + 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adj[v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def mask_of(vertices: Iterable[int], n: int) -> int:
    """Pack a vertex collection into a bitmask, validating the range."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> Iterator[int]:
    """Yield the set bits of a mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced by the vertex set s, reindexed to 0..|s|-1.

    The returned graph's `parent_map` maps each new index back to the
    original vertex, and labels are carried over.
    """
    smask = mask_of(s, g.n)
    members = list(vertices_of(smask))
    index = {v: i for i, v in enumerate(members)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if smask >> u & 1 and smask >> v & 1
    ]
    labels = tuple(g.label(v) for v in members) if g.labels else None
    return Graph(len(members), edges, labels=labels, parent_map=tuple(members))


def upper_subgraph(g: Graph, u: Iterable[int]) -> Graph:
    """Spanning subgraph keeping every edge with at least one end in u.

    Equivalently: delete exactly the edges internal to the complement
    of u. Vertex indices are unchanged.
    """
    umask = mask_of(u, g.n)
    edges = [(a, b) for a, b in g.edges() if umask >> a & 1 or umask >> b & 1]
    return Graph(g.n, edges, labels=g.labels)


def cut_graph(g: Graph, u: Iterable[int]) -> Graph:
    """Spanning subgraph keeping only the edges crossing the (u, rest) cut."""
    umask = mask_of(u, g.n)
    edges = [
        (a, b) for a, b in g.edges() if (umask >> a & 1) != (umask >> b & 1)
    ]
    return Graph(g.n, edges, labels=g.labels)


def neighborhood(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """All neighbors of vertices of s, excluding s itself."""
    smask = mask_of(s, g.n)
    return frozenset(vertices_of(neighborhood_mask(g, smask)))


def neighborhood_mask(g: Graph, smask: int) -> int:
    out = 0
    m = smask
    while m:
        b = m & -m
        m ^= b
        out |= g.adj[b.bit_length() - 1]
    return out & ~smask


def is_independent(g: Graph, s: Iterable[int]) -> bool:
    """True iff no edge of g has both ends in s."""
    return is_independent_mask(g, mask_of(s, g.n))


def is_independent_mask(g: Graph, smask: int) -> bool:
    m = smask
    while m:
        b = m & -m
        m ^= b
        if g.adj[b.bit_length() - 1] & smask:
            return False
    return True


def _connected(adj: Sequence[int]) -> bool:
    """True iff the graph with adjacency rows adj is connected (breadth
    first from vertex 0); the graphs on 0 and 1 vertices are."""
    if not adj:
        return True
    seen = 1
    frontier = 1
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        nb = adj[b.bit_length() - 1] & ~seen
        seen |= nb
        frontier |= nb
    return seen == (1 << len(adj)) - 1


def is_induced_cut_matching(
    g: Graph, u: Iterable[int], matching: Iterable[tuple[int, int]]
) -> bool:
    """Check that `matching` is an induced (u, rest)-matching of g.

    Every pair must be an edge of g with exactly one end in u (errors
    otherwise).  Returns True iff the pairs are vertex-disjoint and no
    edge of g joins two distinct matching edges.
    """
    umask = mask_of(u, g.n)
    pairs = []
    for a, b in matching:
        if not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge of the graph")
        if (umask >> a & 1) == (umask >> b & 1):
            raise ValueError(f"({a},{b}) does not cross the cut")
        pairs.append((a, b) if umask >> a & 1 else (b, a))
    used = 0
    for a, b in pairs:
        bits = 1 << a | 1 << b
        if used & bits:
            return False
        used |= bits
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1 :]:
            if g.adj[a] >> c & 1 or g.adj[a] >> d & 1 or g.adj[b] >> c & 1 \
                    or g.adj[b] >> d & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Exact maximum induced cut matching.
#
# An induced cut matching is an independent set among the crossing edges,
# once each crossing edge is oriented (u-side -> rest-side): two oriented
# edges conflict when they share an endpoint, when a crossing edge joins
# them, when an edge inside the u-side joins them (except under LMIM), or
# when an edge inside the rest joins them (only under LSIM).  `_EdgeTable`
# numbers the oriented edges of a graph once and stores that rule as one
# conflict mask per edge, so every cut's search is mask arithmetic.  The
# search branches on the lowest edge first, which is lexicographic order,
# so sizes and witnesses are deterministic.
# ---------------------------------------------------------------------------


class WidthVariant(enum.Enum):
    """Which edges can break an induced cut matching (see `mimlab.width`)."""

    LU = "lu"
    LMIM = "lmim"
    LSIM = "lsim"


# The budget an engine called with budget None gets inside `_budget_scope`,
# in place of its default.
_SCOPED_BUDGET: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "scoped budget", default=None)


@contextlib.contextmanager
def _budget_scope(budget: int | None) -> Iterator[None]:
    """Within the block, every work counter built with a budget of None
    takes `budget` instead of its engine's default: `mimlab verify
    --budget` caps each engine its suites call.  None changes nothing."""
    _Work.limit(budget, math.inf)
    token = _SCOPED_BUDGET.set(budget)
    try:
        yield
    finally:
        _SCOPED_BUDGET.reset(token)


class _Work:
    """A work counter.  Every exact engine builds its budget with it, by
    one rule: a budget of None means the engine's default (unbounded when
    it has none) or, inside `_budget_scope`, the scope's budget, and
    anything but an integer >= 1 raises ValueError."""

    __slots__ = ("nodes", "budget", "what")

    def __init__(self, budget: int | None, what: str, default=math.inf):
        self.nodes = 0
        if budget is None:
            budget = _SCOPED_BUDGET.get()
        self.budget = self.limit(budget, default)
        self.what = what

    @staticmethod
    def limit(budget: int | None, default: float) -> float:
        if budget is None:
            return default
        try:
            budget = operator.index(budget)
        except TypeError:
            budget = 0
        if budget < 1:
            raise ValueError("budget must be at least 1")
        return budget

    def tick(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetExceededError(self.what, self.budget)


class _EdgeTable:
    """The oriented edges of g and the variant's conflict rule on them.

    Edge e is the e-th pair (u, v) with v a neighbour of u, in
    lexicographic order; `ends[e]` is (u, v), and `out[x]` / `into[x]`
    are the masks of the edges leaving / entering x.  The edges crossing
    a cut (W, rest) are then `OR out[W] & ~OR into[W]`.  `conf[e]` is the
    mask of the edges that cannot join e = u -> v in an induced matching:
    the edges leaving u or a neighbour of v, and the edges entering v or a
    neighbour of u (shared endpoints, crossing edges); edges leaving a
    neighbour of u too except under LMIM (edges inside the u-side), and
    edges entering a neighbour of v only under LSIM (edges inside the
    rest).  The rule does not depend on the cut, so one table serves
    every prefix of every ordering.

    It follows that a new matching must use the newest vertex's edges:
    every edge crossing W that does not leave c also crosses W - c, so
    a compatible selection across W larger than the largest one across
    W - c uses exactly one edge leaving c.  `exists_through` asks that
    question by branching on those edges alone.  Nor can the largest
    selection shrink by more than one: the edges crossing W - c that do
    not cross W all enter c, and edges sharing a head conflict, so at
    most one of them is lost.
    """

    __slots__ = ("ends", "out", "into", "conf")

    def __init__(self, g: Graph, variant: WidthVariant):
        n = g.n
        ends = []
        out = [0] * n
        into = [0] * n
        for u in range(n):
            first = len(ends)
            nb = g.adj[u]
            while nb:
                c = nb & -nb
                nb ^= c
                v = c.bit_length() - 1
                into[v] |= 1 << len(ends)
                ends.append((u, v))
            out[u] = (1 << len(ends)) - (1 << first)
        out_nb = [0] * n
        into_nb = [0] * n
        for u, v in ends:
            out_nb[u] |= out[v]
            into_nb[u] |= into[v]
        # The rule split by the endpoint it concerns: conf[u -> v] is
        # tail[u] | head[v].
        u_inner = variant is not WidthVariant.LMIM
        rest_inner = variant is WidthVariant.LSIM
        tail = [out[x] | into_nb[x] | (out_nb[x] if u_inner else 0)
                for x in range(n)]
        head = [into[x] | out_nb[x] | (into_nb[x] if rest_inner else 0)
                for x in range(n)]
        self.ends = ends
        self.out = out
        self.into = into
        self.conf = [tail[u] | head[v] for u, v in ends]

    def crossing(self, wmask: int) -> int:
        """Mask of the edges oriented from wmask to the rest."""
        leaving = entering = 0
        while wmask:
            b = wmask & -wmask
            wmask ^= b
            x = b.bit_length() - 1
            leaving |= self.out[x]
            entering |= self.into[x]
        return leaving & ~entering

    def exists(self, cand: int, k: int, work: _Work | None = None) -> bool:
        """Are there k pairwise compatible edges in the mask cand?"""
        return k <= 0 or _mis_exists(self.conf, cand, k, work)

    def exists_through(self, cand: int, through: int, k: int) -> bool:
        """Are there k >= 1 pairwise compatible edges in cand, one of
        them in through?  The edges of through share a tail, so at most
        one of them can be chosen; the search branches on them only."""
        if k == 1:
            return through != 0
        conf = self.conf
        while through:
            b = through & -through
            through ^= b
            if _mis_exists(conf, cand & ~conf[b.bit_length() - 1], k - 1,
                           None):
                return True
        return False

    def max_size(self, cand: int, work: _Work | None = None) -> int:
        k = 0
        while self.exists(cand, k + 1, work):
            k += 1
        return k

    def lex_witness(
        self, cand: int, work: _Work | None = None
    ) -> tuple[int, list[tuple[int, int]]]:
        """Maximum compatible selection size in cand, with the
        lexicographically least sorted list of edges achieving it: the
        greedy walk that keeps each lowest edge still completable."""
        size = self.max_size(cand, work)
        chosen = []
        while len(chosen) < size:
            b = cand & -cand
            cand ^= b
            e = b.bit_length() - 1
            rest = cand & ~self.conf[e]
            if self.exists(rest, size - len(chosen) - 1, work):
                chosen.append(self.ends[e])
                cand = rest
        return size, chosen


def _mis_exists(conf: list[int], cand: int, need: int, work) -> bool:
    """Branch on the lowest edge of cand, pruning once fewer than `need`
    candidates remain."""
    if work is not None:
        work.tick()
    if need == 1:
        return cand != 0
    while cand.bit_count() >= need:
        b = cand & -cand
        cand ^= b
        rest = cand & ~conf[b.bit_length() - 1]
        if need == 2:
            if rest:
                return True
        elif rest.bit_count() >= need - 1 \
                and _mis_exists(conf, rest, need - 1, work):
            return True
    return False


def max_induced_cut_matching(
    g: Graph, u: Iterable[int], *, budget: int | None = None
) -> tuple[int, list[tuple[int, int]]]:
    """Exact maximum induced (u, rest)-matching of g, with witness.

    The matching must be induced in g as given (the LSIM rule); pass an
    upper subgraph or a cut graph to measure matchings under those edge
    sets.  The witness is the lexicographically least edge list among the
    maximum matchings.  Raises BudgetExceededError when the search
    exceeds its node budget (default 10**8); a node is one branching
    step, and the popcount pruning keeps the count far below the
    exhaustive one.
    """
    umask = mask_of(u, g.n)
    work = _Work(budget, "induced matching search", DEFAULT_MATCHING_BUDGET)
    table = _EdgeTable(g, WidthVariant.LSIM)
    return table.lex_witness(table.crossing(umask), work)


# ---------------------------------------------------------------------------
# Edge-list file format: one `p edge <n> <m>` header, exactly m `e <u> <v>`
# lines with 1-based endpoints, `c` lines and blank lines ignored (except
# `c label <v> <name>`, 1 <= v <= n, which restores display names).
# ---------------------------------------------------------------------------


def _line_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} {token!r} is not an "
                         f"integer") from None


def parse_edge_list(text: str) -> Graph:
    n = m = header = None
    edges = []
    labels: dict[int, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) >= 4 and parts[1] == "label":
                v = _line_int(parts[2], lineno, "label index")
                labels[v - 1] = (lineno, " ".join(parts[3:]))
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "edge" \
                    or not (parts[2].isdecimal() and parts[3].isdecimal()):
                raise ValueError(f"line {lineno}: malformed problem line")
            if n is not None:
                raise ValueError(f"line {lineno}: repeated problem line")
            n, m, header = int(parts[2]), int(parts[3]), lineno
            continue
        if parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: malformed edge line")
            u, v = (_line_int(t, lineno, "endpoint") for t in parts[1:])
            for x in (u, v):
                if not 1 <= x <= n:
                    raise ValueError(f"line {lineno}: endpoint {x} out of "
                                     f"range for n={n}")
            if u == v:
                raise ValueError(f"line {lineno}: self loop at vertex {u}")
            edges.append((u - 1, v - 1))
            continue
        raise ValueError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ValueError("missing `p edge` header")
    if len(edges) != m:
        raise ValueError(f"line {header}: problem line declares {m} edges, "
                         f"found {len(edges)}")
    for v, (lineno, _) in labels.items():
        if not 0 <= v < n:
            raise ValueError(f"line {lineno}: label of vertex {v + 1} "
                             f"out of range for n={n}")
    label_seq = None
    if labels:
        label_seq = [labels[v][1] if v in labels else str(v + 1)
                     for v in range(n)]
    return Graph(n, edges, labels=label_seq)


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def format_edge_list(g: Graph, comments: Iterable[str] = ()) -> str:
    """The edge-list text of g.  Raises ValueError for a label the parser
    would read back differently (empty, or with whitespace other than
    single inner spaces), and for a comment that spans lines or would be
    read as a label."""
    lines = []
    for c in comments:
        if "".join(c.splitlines()) != c or c.split()[:1] == ["label"]:
            raise ValueError(f"comment {c!r} does not survive the "
                             f"edge-list format")
        lines.append(f"c {c}")
    lines.append(f"p edge {g.n} {g.m}")
    if g.labels:
        for v, label in enumerate(g.labels):
            if not label or " ".join(label.split()) != label:
                raise ValueError(f"label {label!r} of vertex {v + 1} does "
                                 f"not survive the edge-list format")
            lines.append(f"c label {v + 1} {label}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path, comments: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g, comments))
