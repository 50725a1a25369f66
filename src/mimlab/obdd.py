"""Monotone 2-CNFs and their ordered binary decision diagrams.

A graph without isolated vertices encodes the CNF with one positive clause
per edge.  Deciding variables in a fixed order, the live residual constraint
after any prefix assignment is determined by the set of still-undecided
vertices forced true (the neighbors of the falsified prefix vertices), which
is what makes a canonical level-sweep construction possible: states are
forced-sets, falsified states collapse into the false sink, fully satisfied
states into the true sink.

Two size notions are first class:

* size_quasi  - 2 sinks plus the per-level count of distinct live states
                (the level profile depends only on the prefix as a set);
* size_total  - node count of the fully reduced diagram (merged + no
                redundant tests), which decomposes per level into the count
                of live states that essentially depend on the level's
                variable.

Both decompositions are per-prefix-set, so both minima over variable
orderings are computed exactly by subset dynamic programs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .graph import (
    Graph,
    _Work,
    is_independent_mask,
    mask_of,
    neighborhood_mask,
)
from .traces import _mask_tables, _prefix_traces, _trace_block, _trace_step
from .width import (
    WidthReport,
    WidthVariant,
    _permutation,
    _read_back,
    exact_width,
    prefix_width_witness,
)

TRUTH_TABLE_LIMIT = 20
OBDD_DP_LIMIT = 20
EQUIV_CHECK_LIMIT = 20
# exhaustive_equiv_check evaluates 2^12 assignments at a time (512-byte
# tables), so its memory stays bounded up to EQUIV_CHECK_LIMIT.
_EQUIV_BLOCK_BITS = 12
BRUTE_ORDER_LIMIT = 8

FALSE_ID = 0
TRUE_ID = 1


def _refuse_above(n: int, limit: int, what: str) -> None:
    """Refuse a computation on more than `limit` variables."""
    if n > limit:
        raise BudgetExceededError(f"{what} on {n} variables", limit,
                                  kind="variable limit")


@dataclass(frozen=True)
class MonotoneCnf:
    """One positive 2-clause per edge; variable i is vertex i."""

    n: int
    clauses: tuple[tuple[int, int], ...]


def cnf_of_graph(g: Graph) -> MonotoneCnf:
    isolated = g.isolated_vertices()
    if isolated:
        raise ValueError(
            f"graph has isolated vertices {list(isolated)}; every variable "
            "must occur in a clause"
        )
    return MonotoneCnf(g.n, g.edges())


def format_dimacs(cnf: MonotoneCnf) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    for u, v in cnf.clauses:
        lines.append(f"{u + 1} {v + 1} 0")
    return "\n".join(lines) + "\n"


def write_dimacs(cnf: MonotoneCnf, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_dimacs(cnf))


def _projection_columns(k: int) -> tuple[int, list[int]]:
    """Truth tables of the k projections over all 2^k assignments.

    Bit j of a table is its value on the assignment that sets variable i
    to bit i of j.  Returns the all-ones table and one column per
    variable: column i has bit j set exactly when bit i of j is set, that
    is, 2^i zeros then 2^i ones, repeated.  Each column doubles that block
    up to 2^k bits, a linear number of bit operations per doubling.
    """
    size = 1 << k
    cols = []
    for i in range(k):
        col = ((1 << (1 << i)) - 1) << (1 << i)
        width = 2 << i
        while width < size:
            col |= col << width
            width <<= 1
        cols.append(col)
    return (1 << size) - 1, cols


def _cnf_table(clauses, val: list[int], ones: int) -> int:
    """AND over the clauses of (a or b), each side a truth table.

    The CNF's own table, built from clauses and projection columns alone:
    the cofactor engine below starts from it once per graph, and
    `exhaustive_equiv_check` once per block of assignments.  Nothing here
    or in the engine reads `traces`, so both stay independent of the trace
    kernels."""
    table = ones
    for a, b in clauses:
        table &= val[a] | val[b]
        if not table:
            break
    return table


# ---------------------------------------------------------------------------
# Residual functions by Shannon cofactoring.  The semantic side of the
# trace-counting statement: it reasons only about truth tables, shares no
# code with `traces`, and so stays an independent check of the trace
# kernels.  R(W) is the set of distinct residual functions left after the
# variables of W are assigned, less the zero function (the assignments that
# falsify a clause); the residuals of W + v are the v = 0 and v = 1
# cofactors of the members of R(W), deduplicated.
# ---------------------------------------------------------------------------


def _residual_table(g: Graph, layout: Sequence[int]) -> tuple[int, list[int]]:
    """The CNF's truth table with vertex layout[i] as table variable i
    (bit j of the table sets layout[i] to bit i of j), and the vertices'
    projection columns in that layout."""
    _refuse_above(g.n, TRUTH_TABLE_LIMIT, "semantic subfunction count")
    cnf = cnf_of_graph(g)
    ones, cols = _projection_columns(g.n)
    val = [0] * g.n
    for v, col in zip(layout, cols):
        val[v] = col
    return _cnf_table(cnf.clauses, val, ones), val


def _residual_chain(g: Graph, order: Sequence[int]) -> list[int]:
    """|R(W)| for each prefix W = order[:i] of a sequence of distinct
    vertices, i = 0 .. len(order).

    The prefix variables are projected out as they are assigned: the
    table puts the vertices outside `order` in ascending order at the low
    variables and order[0] at the top, so the cofactors of the top
    variable are the table's two halves.  After all of `order` each
    residual is one 2^k-bit table over the k remaining vertices, in the
    bit layout of `subfunction_count`, and the tables of one step hold at
    most 2^n bits together.
    """
    placed = set(order)
    rest = [v for v in range(g.n) if v not in placed]
    table, _ = _residual_table(g, rest + list(reversed(order)))
    tables = {table}
    counts = [len(tables)]
    half = 1 << g.n
    for _ in order:
        half >>= 1
        low = (1 << half) - 1
        tables = {c for t in tables for c in (t & low, t >> half) if c}
        counts.append(len(tables))
    return counts


def _residual_walk(g: Graph) -> list[int]:
    """|R(W)| for every prefix set W, indexed by mask, in one walk.

    R(W) follows from R(W - v), v the lowest vertex of W, an earlier
    mask.  Every table keeps all n variables in ascending order: the
    v = 0 cofactor of t is its half where bit v of the index is 0, copied
    over the half where it is 1, and the v = 1 cofactor the other way
    round.  Only one graph's families are kept.
    """
    table, cols = _residual_table(g, range(g.n))
    ones = (1 << (1 << g.n)) - 1
    families = [{table}]
    for w in range(1, 1 << g.n):
        b = w & -w
        v = b.bit_length() - 1
        hi, lo = cols[v], ones ^ cols[v]
        shift = 1 << v
        spread = (1 << shift) + 1  # t * spread is t | t << shift on lo
        families.append({
            c
            for t in families[w ^ b]
            for c in ((t & lo) * spread, ((t & hi) >> shift) * spread)
            if c
        })
    return [len(f) for f in families]


def subfunction_count(g: Graph, prefix) -> int:
    """Number of distinct residual functions after assigning the prefix.

    Semantic oracle: cofactors the CNF's truth table along the prefix
    variables (`_residual_chain`) and counts the distinct tables over the
    remaining variables.  Deliberately independent of any trace or
    forced-set reasoning.

    A table is one int holding the function's value on every assignment
    (bit j sets the i-th variable to bit i of j); it is the AND of (a or
    b) over the clauses, each clause evaluated on all 2^n assignments at
    once.  The prefix variables take the top bits, so each residual is
    one 2^k-bit chunk, k the number of remaining variables.  A prefix
    assignment extends to a model exactly when no clause is already
    falsified (setting the rest true then satisfies a monotone CNF), so
    the tables that are 0 are the non-extendable ones and are dropped.
    """
    umask = mask_of(prefix, g.n)
    return _residual_chain(g, [v for v in range(g.n) if umask >> v & 1])[-1]


class Obdd:
    """Reduced OBDD with explicit per-level live state counts.

    Internal nodes are (variable, lo_id, hi_id) triples keyed by id; ids
    0 and 1 are the false and true sinks.  `level_live_counts[i]` is the
    number of distinct live states entering level i of the quasi-reduced
    level sweep (before reduction).
    """

    def __init__(self, order, nodes, root, level_live_counts, labels=None):
        self.order = tuple(order)
        self.nodes = dict(nodes)
        self.root = root
        self.level_live_counts = tuple(level_live_counts)
        self.labels = labels
        self.n = len(self.order)
        self.position = {v: i for i, v in enumerate(self.order)}

    @property
    def size_internal(self) -> int:
        return len(self.nodes)

    @property
    def size_total(self) -> int:
        return self.size_internal + 2

    @property
    def size_quasi(self) -> int:
        return sum(self.level_live_counts) + 2

    def levels(self) -> dict[int, list[int]]:
        """Node ids grouped by decision variable."""
        out: dict[int, list[int]] = {v: [] for v in self.order}
        for nid, (var, _, _) in sorted(self.nodes.items()):
            out[var].append(nid)
        return out

    def variable_name(self, v: int) -> str:
        return self.labels[v] if self.labels else f"x{v + 1}"


def build_obdd(g: Graph, order: Iterable[int]) -> Obdd:
    """Level sweep over the ordering, then standard reduction.

    States are forced-sets over undecided vertices.  Setting a vertex
    false adds its undecided neighbors to the forced set; setting a forced
    vertex false falsifies; a state with nothing forced and no remaining
    edges is satisfied.  This is the transition of `traces._trace_step`
    (a forced-set is a trace); the sweep keeps its own rule because it
    records each state's lo and hi successor.  One successor rule serves
    both passes: the top-down sweep lists each level's states in discovery
    order (hi before lo), and the bottom-up reduction maps them to node ids.
    """
    cnf_of_graph(g)  # validates no isolated vertices
    n = g.n
    if n == 0:
        raise ValueError("cannot build an OBDD over zero variables")
    order = _permutation(g, order)
    adj = g.adj
    rest = [(1 << n) - 1]
    for v in order:
        rest.append(rest[-1] & ~(1 << v))
    edges_left = [not is_independent_mask(g, m) for m in rest]
    levels = [[0]]

    def successors(i: int, node):
        """(lo, hi) of each state of level i, in order: a sink id, or
        node(s) for the live state s of level i + 1."""
        v = order[i]
        bv = 1 << v
        nbr = adj[v]
        below = rest[i + 1]
        live = edges_left[i + 1]
        for t in levels[i]:
            hi = t & ~bv
            hi = node(hi) if hi or live else TRUE_ID
            if t & bv:
                yield FALSE_ID, hi
                continue
            lo = (t | nbr) & below
            yield (node(lo) if lo or live else TRUE_ID), hi

    for i in range(n):
        found: dict[int, None] = {}
        for _ in successors(i, found.setdefault):
            pass  # node() records each live successor, hi before lo
        levels.append(list(found))
    if levels[n]:  # pragma: no cover - internal consistency
        raise AssertionError("live states remain after the last level")

    # Reduction: bottom-up unique table + redundant-test elimination.
    unique: dict[tuple[int, int, int], int] = {}
    ids: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        pairs = successors(i, ids.__getitem__)
        ids = {}
        for t, (lo, hi) in zip(levels[i], pairs):
            ids[t] = lo if lo == hi else unique.setdefault(
                (order[i], lo, hi), len(unique) + 2)
    nodes = {nid: key for key, nid in unique.items()}
    return Obdd(order, nodes, ids[0], [len(s) for s in levels[:n]],
                labels=g.labels)


def eval_obdd(z: Obdd, assignment: Sequence[bool]) -> bool:
    if len(assignment) != z.n:
        raise ValueError("assignment length does not match variable count")
    node = z.root
    while node not in (FALSE_ID, TRUE_ID):
        var, lo, hi = z.nodes[node]
        node = hi if assignment[var] else lo
    return node == TRUE_ID


def count_accepting(z: Obdd) -> int:
    """Number of total assignments routed to the true sink."""
    n = z.n
    memo: dict[int, int] = {FALSE_ID: 0, TRUE_ID: 1}

    def level(node: int) -> int:
        if node in (FALSE_ID, TRUE_ID):
            return n
        return z.position[z.nodes[node][0]]

    def acc(node: int) -> int:
        got = memo.get(node)
        if got is not None:
            return got
        _, lo, hi = z.nodes[node]
        here = level(node)
        total = acc(lo) << (level(lo) - here - 1)
        total += acc(hi) << (level(hi) - here - 1)
        memo[node] = total
        return total

    return acc(z.root) << level(z.root)


def exhaustive_equiv_check(z: Obdd, g: Graph) -> bool:
    """Compare the OBDD with direct clause evaluation on all assignments.

    Deliberately independent of the level sweep that builds OBDDs.  Both
    sides are truth tables over a block of assignments, one bit each: the
    CNF's is the AND of (a or b) over the clauses, the OBDD's comes by
    Shannon expansion over its node DAG, with the sinks 0 and all-ones
    and node (v, lo, hi) giving (v and T(hi)) or (not v and T(lo)).  The
    lowest 12 variables (`_EQUIV_BLOCK_BITS`) run in parallel as
    projection columns and the others loop as constants, so one block's
    tables take at most 512 bytes per node.
    """
    _refuse_above(g.n, EQUIV_CHECK_LIMIT, "exhaustive equivalence check")
    if z.n != g.n:
        raise ValueError(
            f"OBDD over {z.n} variables, graph on {g.n} vertices"
        )
    cnf = cnf_of_graph(g)
    low = min(g.n, _EQUIV_BLOCK_BITS)
    ones, cols = _projection_columns(low)
    val = cols + [0] * (g.n - low)
    nodes = z.nodes
    for high in range(1 << (g.n - low)):
        for i in range(low, g.n):
            val[i] = ones if high >> (i - low) & 1 else 0
        memo = {FALSE_ID: 0, TRUE_ID: ones}

        def table(node: int) -> int:
            got = memo.get(node)
            if got is None:
                var, lo, hi = nodes[node]
                col = val[var]
                got = memo[node] = col & table(hi) | ~col & table(lo)
            return got

        if table(z.root) != _cnf_table(cnf.clauses, val, ones):
            return False
    return True


def count_satisfying(g: Graph, *, limit: int = TRUTH_TABLE_LIMIT) -> int:
    """Satisfying assignments of the edge CNF (= independent sets of g:
    the falsified variables must form an independent set)."""
    _refuse_above(g.n, limit, "satisfying assignment count")
    cnf_of_graph(g)  # validates no isolated vertices
    adj = g.adj
    memo: dict[int, int] = {0: 1}

    def count(rem: int) -> int:
        got = memo.get(rem)
        if got is not None:
            return got
        b = rem & -rem
        v = b.bit_length() - 1
        total = count(rem ^ b) + count(rem & ~(b | adj[v]))
        memo[rem] = total
        return total

    return count(g.full_mask())


# ---------------------------------------------------------------------------
# Exact size minimization over variable orderings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinSizeReport:
    size_quasi: int
    size_total: int
    order_quasi: tuple[int, ...]
    order_total: tuple[int, ...]


# The min-size DP costs and relaxes prefix sets in aligned blocks of
# 2^_DP_BLOCK_BITS.  A DP key is value << _KEY_BITS | v, v the vertex an
# optimal order puts last (v < 32, since n <= OBDD_DP_LIMIT).  Keys fit an
# int32: the level after W has at most 2^min(|W|, n - |W|) <= 2^10 states,
# so a value is below 20 * 2^10.  A block's trace keys x << n | t
# (`traces._trace_block`) stay below 2^(OBDD_DP_LIMIT + _DP_BLOCK_BITS),
# which must not pass int32's 2^31.
_DP_BLOCK_BITS = 10
_KEY_BITS = 5
_KEY_VALUE = -1 << _KEY_BITS


@functools.lru_cache(maxsize=None)
def _block_steps(j: int, n: int) -> tuple:
    """The steps x -> x + u inside a block of 2^j sets, by popcount k of x
    from 0 to j - 1: per layer the sets x (one entry per step), the sets
    x + u, and the row x * n + u of each step in a table of 2^j x n.
    `_dp_block` relaxes one layer per `np.minimum.at`."""
    layers = []
    for k in range(j):
        pairs = [(x, u) for x in range(1 << j) if x.bit_count() == k
                 for u in range(j) if not x >> u & 1]
        layer = tuple(np.array(a, dtype=np.int32)
                      for a in ([x for x, _ in pairs],
                                [x | 1 << u for x, u in pairs],
                                [x * n + u for x, u in pairs]))
        for a in layer:
            a.setflags(write=False)
        layers.append(layer)
    return tuple(layers)


def _dp_block(
    keys: np.ndarray, walk: np.ndarray, iso: np.ndarray, high: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cost and relax one aligned block of prefix sets H + x of the
    min-size DP, H = `high` and x a set of the vertices 0 .. j - 1, for a
    run of graphs on n vertices.  Returns the trace counts |T(H + x)| over
    (graph, x) and the cost keys over (x, v, graph, size notion).

    `iso[g, Z]` holds the vertices of Z isolated in G_g[Z] as int32
    masks, `walk` the block's families as the keys g << 2n | x << n | t,
    grouped by (g, x), and `keys` the DP keys of the block's sets over (x,
    graph, size notion), those of x = 0 final; the others are relaxed in
    place.
    A run of several graphs is one block of all 2^n sets (j = n).

    One gather of iso[g, V - t] over the walk, V the vertices outside
    H + x, gives every ND(v), counted in packed lanes: each mask is
    unpacked to one 16-bit lane per vertex, four lanes to a little-endian
    64-bit word (vertex 4w + i in lane i of word w), and one sum of the
    words per set adds all n counts at once.  No lane carries into the
    next, since ND(v) <= |T(W)| <= 2^min(|W|, n - |W|) <= 2^10 < 2^16
    for n <= OBDD_DP_LIMIT.  The cost of the step W -> W + v is the level
    after W, |T(W)| less the true sink when G[V] has no edge (quasi) or
    |T(W)| - ND(v) (reduced), as the key increment value << 5 | v.  The
    steps inside the block are relaxed by popcount of x, one
    scatter-minimum per layer."""
    graphs, size = iso.shape
    n = size.bit_length() - 1
    span = 1 << j
    outside = size - 1 ^ high
    run = walk >> n  # g << n | x: g << j | x, as graphs == 1 or j == n
    count = np.bincount(run, minlength=graphs << j)
    lanes = iso.reshape(-1)[run ^ walk & size - 1 ^ outside]
    del run  # before the lanes, the block's largest arrays
    lanes = np.unpackbits(lanes.astype("<i4", copy=False)[:, None].view(
        np.uint8), axis=1, count=-(-n // 4) * 4, bitorder="little")
    nd = np.add.reduceat(lanes.astype("<u2").view("<u8"),
                         np.cumsum(count) - count, axis=0)
    nd = nd.view("<u2")[:, :n].reshape(graphs, span, n)
    count = count.reshape(graphs, span)
    comps = outside ^ np.arange(span, dtype=np.int32)  # V
    # cost[x, v, g]: the graph axis inside, so that one index over the
    # sets serves one graph and a chunk alike
    cost = np.empty((span, n, graphs, 2), dtype=np.int32)
    cost[..., 0] = (count - (iso[:, comps] == comps)).T[:, None]
    cost[..., 1] = (count[..., None] - nd).transpose(1, 2, 0)
    cost <<= _KEY_BITS
    cost |= np.arange(n, dtype=np.int32)[:, None, None]
    step_cost = cost.reshape(span * n, graphs, 2)
    for src, tgt, row in _block_steps(j, n):
        np.minimum.at(keys, tgt, (keys[src] & _KEY_VALUE) + step_cost[row])
    return count, cost


def _reports(keys: np.ndarray) -> list[MinSizeReport]:
    """Per graph, the sizes and the orders of the final DP keys[W, g, size
    notion]: the full set's values, and the last vertices read back from
    it (`width._read_back`)."""
    quasi, total = (_read_back((keys[..., col] & ~_KEY_VALUE).T).tolist()
                    for col in (0, 1))
    sizes = ((keys[-1] >> _KEY_BITS) + 2).tolist()
    return [MinSizeReport(*size, tuple(oq), tuple(ot))
            for size, oq, ot in zip(sizes, quasi, total)]


def _min_size_dp(
    graphs: Sequence[Graph], nbr: np.ndarray, work: _Work | None
) -> tuple[list[MinSizeReport], np.ndarray]:
    """The min-size DP of `min_obdd_size_exact`: per graph its sizes and
    orders, and the trace counts |T_i(W)| as an int32 table over (graph i,
    prefix set W).  It runs for one graph on at most OBDD_DP_LIMIT
    vertices, block by block (`_one_graph_dp`, which refuses more), or
    for a chunk of graphs on n <= _DP_BLOCK_BITS vertices, as one block,
    and refuses isolated vertices (`cnf_of_graph`).  `nbr` is the graphs'
    neighbourhood table (`traces._mask_tables`), which the caller builds,
    so that a chunk's LU widths (`width._lu_widths`) read the same one.

    After the prefix set W, with V the vertices outside W, the live
    states are the traces t in T(W), less the empty trace when G[V] has
    no edge (it is the true sink).  A state's residual f_t ignores v in
    V exactly when v is isolated in G[V - t]: v is not forced true and
    has no undecided neighbour left free.  So the reduced level of v
    after W has |T(W)| - ND(v) nodes, ND(v) the number of traces t with
    v in iso[V - t].  A vertex of Z is isolated in G[Z] exactly when it
    lies outside N(Z), so iso[Z] is Z - N(Z), read off `nbr`.

    The DP works per aligned block of 2^_DP_BLOCK_BITS prefix sets
    H + x, H the block's vertices from _DP_BLOCK_BITS up and x a set of
    the lower ones.  Only the base family T(H) is built by
    `traces._trace_step`, from the family of H minus its lowest vertex,
    an earlier base.  `traces._trace_block` derives the whole block's
    families from it, one batched step per low vertex, as one array of
    (x, t) pairs sorted by x, and `_dp_block` costs and relaxes the
    block.  With n <= _DP_BLOCK_BITS the DP is one block, and one
    `traces._prefix_traces` walk holds every family of the graphs,
    sorted once so that each (graph, W) is one run.

    The best order of W is stored as a key, value << 5 | v, with v the
    vertex the order puts last.  The least key therefore holds the
    optimum and, among optimal orders, the one whose last vertex is
    smallest; the orders are read back from the keys' low bits.  As a
    minimum does not depend on the order of the relaxations, a block
    relaxes the steps W -> W + u inside it first and then pushes to
    W + v, for each higher vertex v it lacks, with one elementwise
    minimum over that contiguous slice.  The DP keeps the two key
    columns, the iso and count tables and one block's arrays.

    `work`, when given, ticks each block's trace-family entries, so
    |T(W)| once per prefix set W; None ticks nothing.
    """
    n = graphs[0].n
    for g in graphs:
        cnf_of_graph(g)  # validate
    adjs = [g.adj for g in graphs]
    size = 1 << n
    iso = ~nbr & np.arange(size, dtype=np.int32)
    del nbr  # one graph's caller holds no other reference
    j = min(n, _DP_BLOCK_BITS)
    span = 1 << j

    # keys[W, i]: the keys of graph i's best quasi and reduced orders of W.
    keys = np.full((size, len(adjs), 2), np.iinfo(np.int32).max,
                   dtype=np.int32)
    keys[0] = 0
    counts = np.empty((len(adjs), size), dtype=np.int32)
    # bases[p] holds the trace family of the latest block base of size p.
    # In numeric order the latest base of size p - 1 before H is H minus
    # its lowest vertex, so each base family derives from an earlier one.
    bases: list[set[int]] = [{0}] * (n + 1)
    for block in range(0, size, span):
        if j == n:
            pairs = np.sort(_prefix_traces(n, adjs))
        else:
            (adj,) = adjs  # only one graph has more than one block
            p = block.bit_count()
            if p:
                b = block & -block
                bases[p] = _trace_step(bases[p - 1], adj[b.bit_length() - 1],
                                       b, size - 1 ^ block)
            pairs = _trace_block(bases[p], adj, block, j, n)
        if work is not None:
            work.tick(len(pairs))
        here = keys[block:block + span]
        counts[:, block:block + span], cost = _dp_block(here, pairs, iso,
                                                        block, j)
        # The block's keys are final; they push to the later blocks W + v.
        done = here & _KEY_VALUE
        for v in range(j, n):
            if not block >> v & 1:
                there = keys[block + (1 << v):block + (1 << v) + span]
                np.minimum(there, done + cost[:, v], out=there)
        del cost  # one block's cost table at a time, not two
    return _reports(keys), counts


def _one_graph_dp(
    g: Graph, work: _Work
) -> tuple[MinSizeReport, np.ndarray]:
    """`_min_size_dp` on g alone: its report and its row of trace counts.
    g is refused above OBDD_DP_LIMIT vertices before its 2^n
    neighbourhood table is built."""
    _refuse_above(g.n, OBDD_DP_LIMIT, "OBDD minimization subset DP")
    (report,), counts = _min_size_dp([g], _mask_tables(g.n, [g.adj])[0],
                                     work)
    return report, counts[0]


def min_obdd_size_exact(
    g: Graph,
    *,
    method: str = "dp",
    budget: int | None = None,
) -> MinSizeReport:
    """Exact minimum OBDD sizes over all variable orderings.

    method "dp" runs the subset dynamic program over prefix sets for both
    size notions (`_min_size_dp`), which counts the level after each
    prefix set W from its trace family T(W); among optimal orders it
    returns the one whose last vertex is smallest, then the same for the
    prefix before it.  Method "enum" builds the OBDD for every
    permutation (small n only) and serves as an independent cross-check.

    `budget` caps the trace-family entries the DP processes (|T(W)| once
    per prefix set W, ticked per block of 2^_DP_BLOCK_BITS sets), past
    which BudgetExceededError is raised; None means unbounded, and
    anything but an integer >= 1 raises ValueError.  Method "enum" has
    its own n guard instead.
    """
    work = _Work(budget, "OBDD minimization DP")
    if method == "enum":
        return _min_sizes_by_enumeration(g)
    if method != "dp":
        raise ValueError(f"unknown minimization method {method!r}")
    return _one_graph_dp(g, work)[0]


def _min_sizes_by_enumeration(g: Graph) -> MinSizeReport:
    _refuse_above(g.n, BRUTE_ORDER_LIMIT, "OBDD minimization by enumeration")
    best_q = best_t = None
    order_q = order_t = None
    for perm in itertools.permutations(range(g.n)):
        z = build_obdd(g, perm)
        if best_q is None or z.size_quasi < best_q:
            best_q, order_q = z.size_quasi, perm
        if best_t is None or z.size_total < best_t:
            best_t, order_t = z.size_total, perm
    return MinSizeReport(best_q, best_t, tuple(order_q), tuple(order_t))


# ---------------------------------------------------------------------------
# Bounds report: width vs. OBDD size on one instance.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObddBoundsReport:
    """Sizes and verdicts of the sandwich 2^lu <= min size <= n^(lu + 2)
    on one instance.  Every field named `*_ok` is a verdict."""

    n: int
    m: int
    lu: int
    min_size_quasi: int
    min_size_total: int
    lower_bound: int
    upper_expression: int
    lower_ok: bool
    upper_ok: bool
    upper_mechanism_ok: bool
    level_contract_ok: bool
    equivalence_ok: bool
    counting_ok: bool

    @property
    def failed(self) -> tuple[str, ...]:
        """The verdicts that do not hold, in field order."""
        return tuple(f.name for f in fields(self)
                     if f.name.endswith("_ok") and not getattr(self, f.name))

    @property
    def all_ok(self) -> bool:
        return not self.failed


def matching_trace_family(g: Graph, u) -> list[tuple[int, int]]:
    """Distinct-neighborhood family witnessing 2^r traces across a cut.

    Takes the endpoints of a maximum induced cut matching of the upper
    subgraph (the LU variant) and returns (subset mask, neighborhood mask)
    pairs for all subsets of those endpoints; raises if any two
    neighborhoods on the far side coincide (they cannot, each kept
    matching partner separates).
    """
    umask = mask_of(u, g.n)
    comp = g.full_mask() & ~umask
    _, witness = prefix_width_witness(g, u, WidthVariant.LU)
    ends = [a if umask >> a & 1 else b for a, b in witness]
    family = []
    seen = set()
    for pick in range(1 << len(ends)):
        smask = 0
        for i, v in enumerate(ends):
            if pick >> i & 1:
                smask |= 1 << v
        tr = neighborhood_mask(g, smask) & comp
        if tr in seen:
            raise AssertionError(
                "matching endpoints produced coinciding neighborhoods"
            )
        seen.add(tr)
        family.append((smask, tr))
    return family


def obdd_bounds_report(g: Graph) -> ObddBoundsReport:
    """Exact width, exact minimal sizes, and every sandwich verdict; the
    upper mechanism bounds each witness prefix's trace count by n^(r + 1).

    The width comes from `exact_width` (LU), and the sizes and the trace
    count of every prefix set from one run of the min-size DP
    (`_min_size_dp`), under `min_obdd_size_exact`'s budget;
    `_bounds_report` gives every verdict.  `harness.run_obdd_sandwich`
    feeds the same `_bounds_report` from the chunk kernels on graphs with
    at most 10 vertices."""
    width_report = exact_width(g, WidthVariant.LU)
    work = _Work(None, "OBDD minimization DP")
    min_sizes, counts = _one_graph_dp(g, work)
    return _bounds_report(g, width_report, min_sizes, counts)


def _bounds_report(
    g: Graph,
    width_report: WidthReport,
    min_sizes: MinSizeReport,
    trace_counts: Sequence[int],
) -> ObddBoundsReport:
    """Every sandwich verdict on g, given its exact LU width, its exact
    minimal sizes and |T(W)| for every prefix set W (trace_counts[W]),
    of which the witness prefixes are read.  The diagrams along the
    witness and along the quasi-optimal order are built and checked here,
    independently of how those three inputs were computed."""
    lu = width_report.value
    witness = width_report.witness
    n = g.n

    z = build_obdd(g, witness)
    diagrams = (z, build_obdd(g, min_sizes.order_quasi))
    expected = count_satisfying(g)

    # The distinct-neighborhood family doubles as a check on matching
    # witnesses: it raises if any two subsets of the matching's endpoints
    # leave the same neighborhood on the far side.
    widest = max(range(n), key=lambda i: width_report.per_prefix[i])
    matching_trace_family(g, witness[: widest + 1])

    return ObddBoundsReport(
        n=n,
        m=g.m,
        lu=lu,
        min_size_quasi=min_sizes.size_quasi,
        min_size_total=min_sizes.size_total,
        lower_bound=2**lu,
        upper_expression=n ** (lu + 2),
        lower_ok=2**lu <= min_sizes.size_quasi,
        upper_ok=min_sizes.size_quasi <= n ** (lu + 2),
        upper_mechanism_ok=all(
            trace_counts[w] <= n ** (r + 1)
            for w, r in zip(itertools.accumulate(1 << v for v in witness),
                            width_report.per_prefix)
        ),
        level_contract_ok=all(
            live <= residuals
            for live, residuals in zip(z.level_live_counts,
                                       _residual_chain(g, witness))
        ),
        equivalence_ok=all(exhaustive_equiv_check(d, g) for d in diagrams),
        counting_ok=all(count_accepting(d) == expected for d in diagrams),
    )


def obdd_to_dot(z: Obdd) -> str:
    """GraphViz rendering: solid edge = true branch, dashed = false,
    double-circled sinks."""
    lines = ["digraph obdd {"]
    lines.append('  false [label="0", shape=doublecircle];')
    lines.append('  true [label="1", shape=doublecircle];')

    def name(nid: int) -> str:
        if nid == FALSE_ID:
            return "false"
        if nid == TRUE_ID:
            return "true"
        return f"n{nid}"

    for nid, (var, lo, hi) in sorted(z.nodes.items()):
        lines.append(f'  n{nid} [label="{z.variable_name(var)}"];')
        lines.append(f"  n{nid} -> {name(hi)};")
        lines.append(f"  n{nid} -> {name(lo)} [style=dashed];")
    lines.append(f"  root [shape=point] ;")
    lines.append(f"  root -> {name(z.root)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
