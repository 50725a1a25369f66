"""Trace families of independent sets and the enabling-subset shrinker.

For a vertex split (U, V) the trace of an independent S inside U is the
neighborhood it leaves on V.  The family of all traces governs how many
distinct residual constraints a prefix of variables can produce, and when
V is independent every trace is already realized by a subset that
"enables" an induced cut matching, hence by at most r vertices, r the
largest such matching.  The mask kernel `_shrink_mask` finds that subset
by repeated `_shrink_step`s and logs its moves, and `shrink_to_enabler`
wraps it for vertex sets.  `harness.run_rest_cuts` checks the bounds
(`trace-bound`) and the statement (`shrink`) on the arrays of
`_cut_pairs`, every pair (cut, set) of a chunk of graphs with its trace:
trace-bound reads the traces of the small sets, and shrink runs
`_shrink_block`, the same shrinker as array passes over the pairs, one
popcount layer at a time.  A set of k vertices gathers only its k sets
S - v, from the table of set layers (`_set_layers`, which
`width._lu_widths` also reads), and every set of a cut is one flat
lookup cut << n | mask in the pairs' index table.  Both checks compare
against each cut's family from `_prefix_traces`.  The cuts
themselves, every independent rest side with its largest induced cut
matching r and the enumeration's work, come from 2^n tables per graph
(`_cut_contexts`), which `_cut_pairs` reads again; r is read from the
one table of valid LU pairs (`_lu_pair_widths`) that `width._lu_widths`
also reads.
`independent_set_masks` and the matching search stay as their oracles.

The shrinker's precondition, V independent, makes enabling local: an
independent S inside U enables an induced cut matching exactly when every
v in S has a private neighbour, one in V outside N(S - v).  `_Enablers`
holds this rule and the memoised maximum enabling subset for one cut; it
serves `shrink_to_enabler` and is the slow oracle that `_shrink_block` is
tested against.
`enables_induced_matching`, whose V may be dependent, asks the LSIM
edge table instead, like every other induced-matching question.

`trace_masks` never enumerates independent sets: it adds the vertices of U
one at a time and derives each family from the previous one with
`_trace_step`, the forced-set transition.  Its work budget counts the
family entries processed.  `_trace_block` is the same transition applied
to many prefix sets at once in numpy, for one graph or a chunk of graphs
of one size.  The min-size DP (`obdd._min_size_dp`) needs the families
of every prefix set: for one graph it derives one base family per block
of 2^10 prefix sets with `_trace_step`, and the block's other families
from the base with `_trace_block`.  The DP over a chunk of small graphs
and the corpus passes (`harness.run_rest_cuts`,
`harness.run_subfunction_traces`) walk every prefix set of a chunk of
graphs with one `_trace_block` call from the empty set
(`_prefix_traces`).  The DP also reads its isolated-vertex table off the
neighbourhood table of `_mask_tables`, which the cut contexts, the cut
pairs and the LU pair table share.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graph import (
    Graph,
    WidthVariant,
    _EdgeTable,
    _Work,
    is_independent_mask,
    mask_of,
    max_induced_cut_matching,
    neighborhood_mask,
    vertices_of,
)

DEFAULT_ENUM_BUDGET = 1 << 24


@dataclass(frozen=True)
class TraceSet:
    """Canonical family of traces left on side_v by independent subsets
    of side_u."""

    side_u: frozenset[int]
    side_v: frozenset[int]
    members: frozenset[frozenset[int]]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, trace) -> bool:
        return frozenset(trace) in self.members


@dataclass(frozen=True)
class ShrinkStep:
    kind: str  # "eliminate" or "recombine"
    detail: tuple


@dataclass(frozen=True)
class ShrinkResult:
    output_set: frozenset[int]
    trace: frozenset[int]
    steps: tuple[ShrinkStep, ...] = field(default=())


def _check_mask(g: Graph, umask: int) -> None:
    """Refuse a mask with a bit outside g's vertices; a negative mask has
    infinitely many."""
    if umask >> g.n:
        raise ValueError(f"mask {umask} is not a vertex set of a graph on "
                         f"n = {g.n} vertices")


def _enum_work(budget: int | None) -> _Work:
    """The work counter of the independent set enumeration: one tick per
    node of `independent_set_masks`' search, DEFAULT_ENUM_BUDGET by
    default.  `_cut_contexts` counts the same nodes in closed form."""
    return _Work(budget, "independent set enumeration", DEFAULT_ENUM_BUDGET)


def independent_set_masks(
    g: Graph, umask: int, *, budget: int | None = None,
    max_size: int | None = None,
) -> Iterator[int]:
    """Independent subsets of umask as bitmasks, by size then lexicographic
    on the ascending vertex tuple.  A umask with a bit outside g's
    vertices, or a negative one, raises ValueError."""
    work = _enum_work(budget)
    _check_mask(g, umask)
    members = list(vertices_of(umask))
    top = len(members) if max_size is None else min(max_size, len(members))
    adj = g.adj

    def by_size(k: int, start: int, cur: int, banned: int):
        work.tick()
        if k == 0:
            yield cur
            return
        for i in range(start, len(members) - k + 1):
            b = 1 << members[i]
            if b & banned:
                continue
            yield from by_size(k - 1, i + 1, cur | b, banned | adj[members[i]])

    for k in range(top + 1):
        yield from by_size(k, 0, 0, 0)


def enum_independent_sets(
    g: Graph, u: Iterable[int], *, budget: int | None = None
) -> Iterator[frozenset[int]]:
    """Every independent subset of u exactly once, smallest first."""
    umask = mask_of(u, g.n)
    for m in independent_set_masks(g, umask, budget=budget):
        yield frozenset(vertices_of(m))


def _trace_step(fam: set[int], adj_v: int, bv: int, rest: int) -> set[int]:
    """T(W + v) from T(W): `fam` holds the traces that independent subsets
    of W leave outside W, `rest` is the vertex set outside W + v.

    An independent S inside W + v either avoids v (trace t - v) or takes
    it, which it can only when v is not in the trace t of S - v (trace
    (t | N(v)) & rest).  Both depend on t alone, so the family suffices.
    """
    out = {t & rest for t in fam}
    out.update([(t | adj_v) & rest for t in fam if not t & bv])
    return out


def _trace_block(
    base: Iterable[int], adj: Sequence, high: int, j: int, n: int
) -> np.ndarray:
    """T(H + x) for every x inside the low vertices 0 .. j - 1, from the
    families T(H), H = `high` a set of vertices j and up, for one graph on
    n vertices or a chunk of them, as one int32 array of the keys
    g << 2n | x << n | t, t in T_g(H + x).

    `adj` is one graph's adjacency masks (then g = 0), or one row of them
    per graph g of a chunk.  `base` holds the keys g << 2n | t, t in
    T_g(H): for one graph, the family itself.  The keys fit int32 while
    2^(n + j) and the chunk's g << 2n stay below 2^31: up to n = 20 with
    j = 10 (the min-size DP, whose OBDD_DP_LIMIT + _DP_BLOCK_BITS <= 31
    a test pins), and for thousands of graphs at n = 8.

    This is `_trace_step`'s forced-set rule applied to many prefix sets at
    once.  The low vertices u are added in ascending order; a pair (x, t),
    x a set of the lower ones, gives (x + u, t - u) always and, when u is
    not in t, (x + u, (t | (N(u) - H - x)) - u).  The new pairs are sorted
    and kept where they differ from their left neighbour, then appended
    after the old pairs, whose x all lack u, so each graph's keys stay
    sorted by x (for one graph, the whole array).  One graph's N(u) - H is
    one number; in a chunk each pair reads its graph's.
    """
    pairs = np.fromiter(base, dtype=np.int32)
    free = np.asarray(adj, dtype=np.int32) & ~(
        high | 1 << np.arange(n, dtype=np.int32))
    for u in range(j):
        bu = 1 << u
        grown = 1 << u + n
        avoid = (pairs & ~bu) | grown
        take = pairs[(pairs & bu) == 0]
        own = free[..., u]
        if own.ndim:
            own = own[take >> 2 * n]
        take |= (own & ~(take >> n)) | grown
        new = np.concatenate((avoid, take))
        new.sort()
        fresh = np.empty(len(new), dtype=bool)
        fresh[0] = True
        np.not_equal(new[1:], new[:-1], out=fresh[1:])
        pairs = np.concatenate((pairs, new[fresh]))
    return pairs


def _prefix_traces(n: int, adjs: Sequence[Sequence[int]]) -> np.ndarray:
    """The families of every prefix set W of a chunk of graphs on n
    vertices, graph i with adjacency masks adjs[i], as the keys
    i << 2n | W << n | t, t in T_i(W): one `_trace_block` walk from
    T_i(empty) = {0}.  A graph's entries total sum_W |T_i(W)|.  The keys
    are int32, so a chunk of len(adjs) << 2n above 2^31 is refused."""
    if len(adjs) << 2 * n > 1 << 31:
        raise ValueError(
            f"a chunk of {len(adjs)} graph(s) on n={n} vertices needs walk "
            f"keys up to {len(adjs) << 2 * n}, over int32's 2^31")
    return _trace_block(np.arange(len(adjs)) << 2 * n, adjs, 0, n, n)


def _padded(
    rows: np.ndarray, values: np.ndarray, count: np.ndarray, fill: int
) -> np.ndarray:
    """`values`, grouped by their ascending `rows` (count[i] of row i), as
    one int32 table of len(count) rows padded with `fill`."""
    out = np.full((len(count), int(count.max())), fill, dtype=np.int32)
    col = np.arange(len(values)) - (np.cumsum(count) - count)[rows]
    out[rows, col] = values
    return out


def _mask_tables(
    n: int, adjs: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables over all 2^n masks S for a run of graphs on n vertices,
    graph i with adjacency masks adjs[i], from one doubling pass over the
    vertices: nbr[i, S], the neighbourhood of S in graph i; ones[S], the
    popcount of S; rev[S], S bit-reversed.  All int32: masks fit up to
    n = 26, past the min-size DP's n <= 20 (`obdd._min_size_dp`, which
    reads its isolated-vertex table off nbr)."""
    size = 1 << n
    adj = np.array(adjs, dtype=np.int32).reshape(len(adjs), n)
    nbr = np.zeros((len(adjs), size), dtype=np.int32)
    ones = np.zeros(size, dtype=np.int32)
    rev = np.zeros(size, dtype=np.int32)
    for v in range(n):
        b = 1 << v
        nbr[:, b:2 * b] = nbr[:, :b] | adj[:, v:v + 1]
        ones[b:2 * b] = ones[:b] + 1
        rev[b:2 * b] = rev[:b] | 1 << (n - 1 - v)
    return nbr, ones, rev


@functools.lru_cache(maxsize=None)
def _set_layers(n: int) -> tuple:
    """The nonempty sets W of n vertices by popcount k = 1 .. n: per layer
    the sets W in ascending order, then one row per W of its k members v
    in ascending order and of the sets W - v.  `width._lu_widths` and
    `_shrink_block` read them."""
    masks = np.arange(1 << n, dtype=np.int32)
    bits = 1 << np.arange(n, dtype=np.int32)
    member = masks[:, None] & bits != 0
    ones = member.sum(axis=1)
    layers = []
    for k in range(1, n + 1):
        w = masks[ones == k]
        v = np.nonzero(member[w])[1].reshape(len(w), k)
        layer = (w, v, w[:, None] ^ bits[v])
        for a in layer:
            a.setflags(write=False)
        layers.append(layer)
    return tuple(layers)


def _lu_pair_widths(
    n: int, adjs: Sequence[Sequence[int]], nbr: np.ndarray
) -> np.ndarray:
    """pw[i, W] for every set W of a run of graphs on n vertices, graph i
    with adjacency masks adjs[i] and neighbourhood table nbr
    (`_mask_tables`): the largest |A| over the valid pairs (A, B) with A
    inside W and B outside it, 0 when there is none.

    A pair (A, B) of disjoint vertex sets with |A| = |B| >= 1 is valid
    when A is independent and the edges between A and B form a perfect
    matching, so pw(W) is the LU prefix width of W; pw(W) >= 1 exactly
    when an edge crosses W.  A valid pair less its highest vertex a of A
    and a's partner is valid, so the pairs of size k + 1 are those of
    size k grown by an edge (a, b) with a above A, a outside N(A) + N(B)
    and b outside N(A) + A: each once.  Each pair writes its size to its
    2^(n - 2k) sets W, by ascending size, so the largest stays.
    """
    graphs, size = nbr.shape
    full = size - 1
    masks = np.arange(size, dtype=np.int32)
    pw = (nbr & ~masks & full != 0).astype(np.int32)
    flat = pw.reshape(-1)
    adj = np.array(adjs, dtype=np.int32).reshape(graphs, n)
    g, a, b = np.nonzero(adj[..., None] >> np.arange(n) & 1)
    per_graph = np.bincount(g, minlength=graphs)
    edge_a = _padded(g, 1 << a, per_graph, 0)  # padded with 0, no edge
    edge_b = _padded(g, 1 << b, per_graph, 0)
    sets_a, sets_b = 1 << a, 1 << b
    for k in range(2, n // 2 + 1):
        na, nb = nbr[g, sets_a][:, None], nbr[g, sets_b][:, None]
        ea, eb = edge_a[g], edge_b[g]
        row, col = np.nonzero((ea > sets_a[:, None]) & (ea & (na | nb) == 0)
                              & (eb & (na | sets_a[:, None]) == 0))
        if not len(row):
            break
        g = g[row]
        sets_a = sets_a[row] | ea[row, col]
        sets_b = sets_b[row] | eb[row, col]
        # The sets W holding A and missing B: A plus each subset of the rest.
        found = (g << n | sets_a)[:, None]
        rest = full ^ sets_a ^ sets_b
        for _ in range(n - 2 * k):
            low = rest & -rest
            rest ^= low
            found = np.concatenate((found, found | low[:, None]), axis=1)
        flat[found] = k
    return pw


class _CutContexts(NamedTuple):
    """The cut contexts of a run of graphs of one size: per graph, and per
    cut (U, rest) with independent rest side, by graph, then rest side in
    `independent_set_masks` order; and the graphs' `_mask_tables`, which
    `_cut_pairs` reads too."""

    lens: np.ndarray  # [graph] -> its cut count, its independent sets
    ticks: np.ndarray  # [graph] -> `independent_set_masks(g, full)`'s nodes
    comp: np.ndarray  # [cut] -> its rest side
    r: np.ndarray  # [cut] -> its largest induced cut matching
    nbr: np.ndarray  # [graph, mask] -> its neighbourhood
    ones: np.ndarray  # [mask] -> its popcount, over all 2^n masks
    rev: np.ndarray  # [mask] -> it bit-reversed, over all 2^n masks


def _cut_contexts(n: int, adjs: Sequence[Sequence[int]]) -> _CutContexts:
    """The cut contexts of graphs on n vertices, graph i with adjacency
    masks adjs[i], from 2^n tables, with no enumeration and no matching
    search.  The tables hold a row of 2^n entries per graph, so callers
    pass one chunk (`harness._chunks`).

    The rest sides are the masks S with N(S) & S empty, in
    `independent_set_masks` order: by popcount, then lexicographic on the
    ascending vertex tuple, which is the bit-reversed mask descending.
    That enumeration visits, over all of g, n + 1 nodes for the empty set
    and n - top(S) for every other independent S, top(S) its highest
    vertex: n + 1 - bit_length(S) for every S.  The rest side is
    independent, so an induced cut matching's part B on it is, and the
    matchings are exactly the valid LU pairs (A, B) of `_lu_pair_widths`
    with A inside U: r(U) = pw(U).  `independent_set_masks`,
    `max_induced_cut_matching` and `_EdgeTable` are the oracles.
    """
    size = 1 << n
    graphs = len(adjs)
    nbr, ones, rev = _mask_tables(n, adjs)
    indep = nbr & np.arange(size, dtype=np.int32) == 0
    bit_length = np.repeat(np.arange(n + 1), np.r_[1, 1 << np.arange(n)])
    ticks = (indep * (n + 1 - bit_length)).sum(axis=1)
    # The keys are distinct, so any sort gives this order; the stable one
    # is the kernel `_shrink_block` already loads.
    order = np.argsort(ones << n | (size - 1 - rev), kind="stable")
    graph_of, at = np.nonzero(indep[:, order])
    comp = order[at].astype(np.int32)
    lens = np.bincount(graph_of, minlength=graphs)
    r = _lu_pair_widths(n, adjs, nbr)[graph_of, size - 1 ^ comp]
    return _CutContexts(lens, ticks, comp, r, nbr, ones, rev)


class _CutPairs(NamedTuple):
    """`_cut_pairs`'s arrays, one entry per pair (cut, set) in order: by
    graph, then cut, then set, each in `independent_set_masks` order."""

    cut: np.ndarray  # the pair's cut, numbered over the whole chunk
    sets: np.ndarray  # S
    trace: np.ndarray  # N(S) & comp, comp the cut's rest side
    lut: np.ndarray  # [cut, mask] -> the pair's index, -1 off the list
    ones: np.ndarray  # [mask] -> its popcount, over all 2^n masks
    rev: np.ndarray  # [mask] -> it bit-reversed, over all 2^n masks


def _cut_pairs(contexts: _CutContexts) -> _CutPairs:
    """Every pair (cut, S) of a chunk of graphs of one size, with its
    trace, from the chunk's cut contexts (`_cut_contexts`): every graph's
    cuts, whose rest sides are all the graph's independent sets in order,
    and its neighbourhood table.  A cut's sets S are those of its graph's
    independent sets that avoid its rest side: the independent subsets of
    the other side.  Cut numbers and masks are int32, and so are the flat
    indices cut << n | mask into `lut` that `_shrink_block` reads.
    """
    lens, comps, nbr = contexts.lens, contexts.comp, contexts.nbr
    graph_of = np.repeat(np.arange(len(lens)), lens)
    listed = _padded(graph_of, comps, lens, -1)
    # Row k of cand lists the independent sets of cut k's graph; the
    # cut's sets are those disjoint from its rest side comps[k].
    cand = listed[graph_of]
    cut, col = np.nonzero((cand >= 0) & (cand & comps[:, None] == 0))
    cut, sets = cut.astype(np.int32), cand[cut, col]
    # the narrowest signed type that holds every pair index
    lut = np.full((len(comps), nbr.shape[1]), -1,
                  dtype=np.min_scalar_type(-len(sets)))
    lut[cut, sets] = np.arange(len(sets))
    trace = nbr[graph_of[cut], sets] & comps[cut]
    return _CutPairs(cut, sets, trace, lut, contexts.ones, contexts.rev)


def _shrink_block(pairs: _CutPairs) -> tuple[np.ndarray, np.ndarray]:
    """The shrinker's output and enabling verdict for every pair (cut, S)
    of `pairs`, as two arrays.

    The array form of `_Enablers` and `_shrink_step`, which stay as
    `shrink_to_enabler`'s rule and this kernel's slow oracle.  Every
    quantity follows from smaller sets of the same cut, so the pairs go
    one popcount layer k at a time.  A set of layer k gathers its k
    members' sets S - v, in ascending v, from the layer's rows of
    `_set_layers`, and reads every set of its cut, those and the ones
    below, through one flat lookup `lut.reshape(-1)[cut << n | mask]`.
    A member v has a private neighbour exactly when the trace of S is not
    inside that of S - v (the difference lies in N(v)), so the first
    member whose test fails is the lowest lacking one
    (`_Enablers.lacking`).  The maximum enabler is the answer T for some
    S - v with the largest key |T| << n | T bit-reversed: the key is one
    to one, and its largest is the lexicographically least maximum
    subset, `max_enabler`'s tie rule.  Then come the fixpoint of
    eliminations, `_shrink_step`'s next set, and the output, which is S
    when S enables and otherwise the next set's.  The empty set, layer 0,
    keeps the starting values: it enables, and its answers are all 0.
    """
    cut, sets, trace, lut, ones, rev = pairs
    n = len(ones).bit_length() - 1
    index = lut.reshape(-1)  # [cut << n | mask] -> the pair's index
    enables = np.ones(len(sets), dtype=bool)
    best = np.zeros_like(sets)
    key = np.zeros_like(sets)
    elim = np.zeros_like(sets)
    out = np.zeros_like(sets)
    popcount = ones[sets]
    order = np.argsort(popcount, kind="stable")
    ends = np.searchsorted(popcount[order], np.arange(n + 1), side="right")
    for (w, _, below), lo, hi in zip(_set_layers(n), ends, ends[1:]):
        if lo == hi:
            continue
        at = order[lo:hi]
        s, c = sets[at], cut[at] << n
        rows = np.arange(len(at))
        minus = below[np.searchsorted(w, s)]  # S - v, v in S ascending
        down = index[c[:, None] | minus]
        alone = trace[at][:, None] & ~trace[down] == 0
        lacking = down[rows, alone.argmax(axis=1)]  # S - v, v lowest lacking
        enables[at] = ok = ~alone.any(axis=1)
        pick = key[down].argmax(axis=1)
        best[at] = t = np.where(ok, s, best[down[rows, pick]])
        key[at] = ones[t] << n | rev[t]
        elim[at] = np.where(ok, s, elim[lacking])
        outside = s & ~t
        grown = t | outside & -outside  # S0 + w, reduced by eliminations
        step = elim[index[c | grown]] | s & ~grown
        out[at] = np.where(ok, s, out[index[c | step]])
    return out, enables


def trace_masks(
    g: Graph, umask: int, *, budget: int | None = None
) -> set[int]:
    """The family {N(S) & V : S independent inside umask} as bitmasks, V
    the complement of umask.

    Starts from T(empty) = {0} and adds the vertices of umask in ascending
    order with `_trace_step`.  `budget` (None: DEFAULT_ENUM_BUDGET, 2^24)
    caps the family entries processed over all steps.  A umask with a bit
    outside g's vertices, or a negative one, raises ValueError.
    """
    work = _Work(budget, "trace family transition", DEFAULT_ENUM_BUDGET)
    _check_mask(g, umask)
    adj = g.adj
    rest = g.full_mask()
    fam = {0}
    m = umask
    while m:
        bv = m & -m
        m ^= bv
        work.tick(len(fam))
        rest ^= bv
        fam = _trace_step(fam, adj[bv.bit_length() - 1], bv, rest)
    return fam


def traces(g: Graph, u: Iterable[int], *, budget: int | None = None) -> TraceSet:
    """The deduplicated family {N(S) & V : S independent subset of u}."""
    umask = mask_of(u, g.n)
    comp = g.full_mask() & ~umask
    members = frozenset(
        frozenset(vertices_of(t)) for t in trace_masks(g, umask, budget=budget)
    )
    return TraceSet(
        side_u=frozenset(vertices_of(umask)),
        side_v=frozenset(vertices_of(comp)),
        members=members,
    )


def enables_induced_matching(g: Graph, u: Iterable[int], s: Iterable[int]) -> bool:
    """True iff some induced (u, rest)-matching of g has exactly s as its
    u-side endpoints.

    One LSIM edge-table query: |s| compatible edges among those crossing
    the cut from s.  A shared tail is a conflict, so each member of s gets
    exactly one partner, and LSIM forbids every edge among the endpoints,
    so the edges form an induced matching; the empty s always enables.
    """
    umask = mask_of(u, g.n)
    smask = mask_of(s, g.n)
    if smask & ~umask:
        raise ValueError("s is not a subset of u")
    if not is_independent_mask(g, smask):
        raise ValueError("s is not independent")
    t = _EdgeTable(g, WidthVariant.LSIM)
    # s is independent, so its crossing edges are all the edges leaving it
    return t.exists(t.crossing(umask) & t.crossing(smask), smask.bit_count())


class _Enablers:
    """The enabling rule and the maximum enabler on one cut whose rest side
    `comp` is independent, for independent sets S of the other side: the
    scalar form of `_shrink_block`, kept for `shrink_to_enabler` and as the
    oracle the array kernel is tested against.

    There S enables an induced cut matching exactly when every v in S has
    a private neighbour, one on comp outside N(S - v): private
    neighbourhoods are pairwise disjoint, so the partners are distinct, and
    the matching is induced because both sides are independent.  `nbr(t)`
    is the neighbourhood mask of the independent set t (in
    `shrink_to_enabler`, a cached `neighborhood_mask`); the maximum
    enablers are memoised, so one instance serves one cut.
    """

    __slots__ = ("adj", "comp", "nbr", "best")

    def __init__(self, adj: list[int], comp: int, nbr):
        self.adj = adj
        self.comp = comp
        self.nbr = nbr
        self.best: dict[int, int] = {}

    def lacking(self, smask: int) -> int:
        """The lowest bit of smask whose vertex has no private neighbour,
        or 0 when smask enables."""
        adj, comp, nbr = self.adj, self.comp, self.nbr
        m = smask
        while m:
            b = m & -m
            m ^= b
            if not adj[b.bit_length() - 1] & comp & ~nbr(smask ^ b):
                return b
        return 0

    def enables(self, smask: int) -> bool:
        """Whether smask enables."""
        return not self.lacking(smask)

    def max_enabler(self, smask: int) -> int:
        """The lexicographically least maximum-size enabling subset of
        smask; it is smask exactly when smask enables.

        Enabling is closed under subsets, so a set that does not enable
        takes the best of the answers for its subsets S - v: the largest,
        and among equal sizes the one holding the lowest vertex of the
        two sets' difference.  Asked smallest set first, each set costs
        |S| lookups.
        """
        best = self.best
        out = best.get(smask)
        if out is not None:
            return out
        if not self.lacking(smask):
            out = smask
        else:
            out = size = 0
            m = smask
            while m:
                b = m & -m
                m ^= b
                t = best.get(smask ^ b)
                if t is None:
                    t = self.max_enabler(smask ^ b)
                k = t.bit_count()
                if k > size or (k == size and (t ^ out) & -(t ^ out) & t):
                    out, size = t, k
        best[smask] = out
        return out


def _shrink_step(rule: _Enablers, cur: int, moves: list) -> int:
    """One recombine move of `_shrink_mask` on the non-enabling set cur,
    with the eliminations it needs; returns the next set, a strict subset
    of cur with the same trace on the rest side.

    Around the lexicographically least maximum enabling subset S0 of cur
    and its smallest outside member w, S0 + {w} does not enable (S0 is
    maximum), so eliminations reduce it to an enabling set; the next set
    is that set and the untouched remainder.  An elimination drops the
    smallest member with no private neighbour (`_Enablers.lacking`): its
    neighbours on the independent rest side are all covered by the rest
    of the set, so the trace stays, and a set whose members all have one
    enables.  The moves, ("eliminate", v) each and then ("recombine", s0,
    w, reduced, remainder), are appended to `moves`.
    """
    s0 = rule.max_enabler(cur)
    outside = cur & ~s0
    wbit = outside & -outside
    reduced = s0 | wbit
    while b := rule.lacking(reduced):
        reduced ^= b
        moves.append(("eliminate", b.bit_length() - 1))
    remainder = cur & ~(s0 | wbit)
    moves.append(("recombine", s0, wbit.bit_length() - 1, reduced, remainder))
    return reduced | remainder


def _shrink_mask(rule: _Enablers, smask: int) -> tuple[int, list]:
    """Shrink smask to an enabling subset with the same trace on the rest
    side by `_shrink_step` until the set enables; returns (subset, moves).

    Every step keeps the trace, so the output has the input's trace,
    enables a matching and has at most r vertices, r the largest induced
    cut matching.  The `shrink` check tests this on `_shrink_block`'s
    outputs, and apart from the shrinker that the enabling sets of size
    <= r leave every trace.

    Unchecked preconditions: the rest side of `rule` is independent and
    smask is an independent subset of the other side.  A move is
    ("eliminate", v) or ("recombine", s0, w, reduced, remainder), v and w
    vertices.
    """
    moves: list = []
    cur = smask
    while not rule.enables(cur):
        cur = _shrink_step(rule, cur, moves)
    return cur, moves


def shrink_to_enabler(
    g: Graph, u: Iterable[int], s: Iterable[int]
) -> ShrinkResult:
    """Shrink s to an enabling subset with the same trace on V = rest, by
    the moves of `_shrink_mask`, logged as ShrinkSteps over vertices.

    Raises ValueError unless V is independent and s is an independent
    subset of u.  The output has at most as many vertices as the largest
    induced cut matching across (u, V).
    """
    umask = mask_of(u, g.n)
    smask = mask_of(s, g.n)
    comp = g.full_mask() & ~umask
    if not is_independent_mask(g, comp):
        raise ValueError("complement side is not independent")
    if smask & ~umask:
        raise ValueError("s is not a subset of u")
    if not is_independent_mask(g, smask):
        raise ValueError("s is not independent")

    nbr = functools.cache(functools.partial(neighborhood_mask, g))
    out, moves = _shrink_mask(_Enablers(g.adj, comp, nbr), smask)

    def vs(mask: int) -> tuple[int, ...]:
        return tuple(vertices_of(mask))

    return ShrinkResult(
        output_set=frozenset(vertices_of(out)),
        trace=frozenset(vertices_of(neighborhood_mask(g, out) & comp)),
        steps=tuple(
            ShrinkStep("eliminate", m[1:]) if m[0] == "eliminate"
            else ShrinkStep("recombine", (vs(m[1]), m[2], vs(m[3]), vs(m[4])))
            for m in moves
        ),
    )


@dataclass(frozen=True)
class TraceBoundReport:
    n: int
    side_size: int
    trace_count: int
    matching_size: int
    binomial_bound: int
    power_bound: int
    within_binomial: bool
    within_power: bool
    small_sets_generate_all: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.within_binomial
            and self.within_power
            and self.small_sets_generate_all
        )


def trace_count_bound_check(
    g: Graph, u: Iterable[int], *, budget: int | None = None
) -> TraceBoundReport:
    """Certify the trace-count bounds for a cut with independent rest side.

    With r the largest induced cut matching, checks that the trace count
    is at most sum_{i<=r} C(|u|, i), at most n^(r+1), and that independent
    subsets of size <= r already generate every trace.  The family is
    `trace_masks(g, u)`, and `_cut_bound_report` enumerates those subsets
    directly, so the last verdict also compares `trace_masks` with an
    independent enumeration.  `harness.run_rest_cuts` checks the same
    bounds as array comparisons over a chunk of graphs, and shows this
    report for a cut that fails them.
    """
    umask = mask_of(u, g.n)
    if not is_independent_mask(g, g.full_mask() & ~umask):
        raise ValueError("complement side is not independent")
    family = trace_masks(g, umask, budget=budget)
    r, _ = max_induced_cut_matching(g, vertices_of(umask))
    return _cut_bound_report(g, umask, family, r, budget=budget)


def _cut_bound_report(
    g: Graph, umask: int, family: set[int], r: int, *,
    budget: int | None = None,
) -> TraceBoundReport:
    """`_trace_bound_report` for the cut (umask, rest) of g, whose rest
    side is independent (unchecked), from its trace family and r; the
    traces of its independent sets of at most r vertices come from
    `independent_set_masks`, under `budget`."""
    comp = g.full_mask() & ~umask
    small = {
        neighborhood_mask(g, s) & comp
        for s in independent_set_masks(g, umask, budget=budget, max_size=r)
    }
    return _trace_bound_report(g.n, umask.bit_count(), family, r, small)


def _trace_bound_report(
    n: int, k: int, family: set[int], r: int, small: set[int]
) -> TraceBoundReport:
    """The bounds for a side of k vertices with trace family `family`,
    largest induced cut matching r and `small` the traces of its
    independent subsets of size <= r."""
    binom = sum(math.comb(k, i) for i in range(r + 1))
    power = n ** (r + 1)
    t = len(family)
    return TraceBoundReport(
        n=n,
        side_size=k,
        trace_count=t,
        matching_size=r,
        binomial_bound=binom,
        power_bound=power,
        within_binomial=t <= binom,
        within_power=t <= power,
        small_sets_generate_all=small == family,
    )


def vc_dimension(ts: TraceSet, *, budget: int | None = None) -> int:
    """Largest k such that some k-subset of side_v is shattered by the
    trace family.  Exhaustive, with an early cap at log2(family size)."""
    work = _Work(budget, "VC shattering search", DEFAULT_ENUM_BUDGET)
    ground = sorted(ts.side_v)
    pos = {v: i for i, v in enumerate(ground)}
    fam = [
        sum(1 << pos[v] for v in tr) for tr in ts.members
    ]
    if not fam:
        return 0
    best = 0
    max_k = min(len(ground), max(len(fam).bit_length() - 1, 0))
    for k in range(1, max_k + 1):
        shattered = False
        for combo in itertools.combinations(range(len(ground)), k):
            wmask = 0
            for i in combo:
                wmask |= 1 << i
            work.tick(len(fam))
            seen = {f & wmask for f in fam}
            if len(seen) == 1 << k:
                shattered = True
                break
        if not shattered:
            break
        best = k
    return best
