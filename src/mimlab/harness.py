"""Verification suites: every bound the library claims, checked exactly.

Each suite produces ReportRow records.  A row carries pass/fail only when
every computation feeding the verdict was exact; when a work budget is hit
the row is marked skipped instead.  Identical spec + seed reproduce the
same rows byte for byte (timing is excluded from exports by default).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import corpus
from .errors import BudgetExceededError
from .generators import (
    clique_corona,
    clique_thread,
    fixtures,
    grid_rows_for,
    horizontal_subgraph,
    perfect_matching_graph,
    random_connected_graph,
    skew,
    skew_grid,
)
from .graph import (
    Graph,
    _Work,
    mask_of,
    max_induced_cut_matching,
)
from .obdd import (
    _DP_BLOCK_BITS,
    _bounds_report,
    _min_size_dp,
    _residual_walk,
    obdd_bounds_report,
)
from .traces import (
    DEFAULT_ENUM_BUDGET,
    TraceBoundReport,
    _enum_nodes,
    _enum_work,
    _mask_tables,
    _popcounts,
    _prefix_traces,
    _rest_cuts,
    _RestCuts,
    _shrink_block,
    _trace_bound_report,
    trace_masks,
    traces,
    vc_dimension,
)
from .width import (
    DEFAULT_EXACT_BUDGET,
    WidthVariant,
    _lu_widths,
    exact_width,
    width_of_ordering,
)


@dataclass
class ReportRow:
    """One verify row.  Its fields, in order, are the export columns;
    wall_ms is exported only on request."""

    check: str
    instance: str
    n: int
    m: int
    lu: int | None = None
    lmimw: int | None = None
    lsimw: int | None = None
    trace_count: int | None = None
    matching_size: int | None = None
    obdd_quasi: int | None = None
    obdd_reduced: int | None = None
    bound: str = ""
    exact: bool = True
    passed: bool | None = None
    skipped: bool = False
    seed: int = 0
    detail: str = ""
    wall_ms: float = 0.0


@dataclass(frozen=True)
class ExperimentSpec:
    checks: tuple[str, ...]
    seed: int = 0
    threads: int = 1  # verify runs serially; only 1 is accepted
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.checks:
            raise ValueError("no check requested")
        for c in self.checks:
            if c not in _SUITES:
                raise ValueError(f"unknown check {c!r}")
        if self.threads != 1:
            raise ValueError(
                f"verify runs serially; threads={self.threads} is not 1"
            )
        read = {key for _, keys in _SUITES.values() for key in keys}
        for key in self.params:
            if key not in read:
                raise ValueError(f"unknown verify parameter {key!r}")
        # Refuse here, before any suite builds the corpora below the cap.
        for key in ("corpus_max_n", "pair_max_n"):
            if self.params.get(key, 0) > corpus.MAX_EXHAUSTIVE_N:
                raise ValueError(
                    f"{key}={self.params[key]}: exhaustive corpus capped "
                    f"at n={corpus.MAX_EXHAUSTIVE_N}"
                )


def _rows(
    checks: Sequence[str],
    seed: int,
    cases: Iterable[tuple],
    evaluate: Callable[..., Sequence[dict]],
) -> list[ReportRow]:
    """The rows of `checks` over the cases (instance, g, *args), by check.

    `evaluate(g, *args)` returns one dict of row values per check, in
    order.  Each row also gets its check, the instance's name and size,
    the run's seed and the wall time of its case.  A case that exceeds a
    work budget gets a skipped row for each check instead."""
    rows: dict[str, list[ReportRow]] = {check: [] for check in checks}
    for instance, g, *args in cases:
        t0 = time.perf_counter()
        try:
            values = evaluate(g, *args)
        except BudgetExceededError as exc:
            skip = dict(skipped=True, exact=False, detail=str(exc))
            values = [skip] * len(checks)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        for check, vals in zip(checks, values):
            rows[check].append(ReportRow(
                check=check, instance=instance, n=g.n, m=g.m, seed=seed,
                wall_ms=wall_ms, **vals,
            ))
    return [row for got in rows.values() for row in got]


# ---------------------------------------------------------------------------
# Corpus helpers.
# ---------------------------------------------------------------------------


def connected_corpus(max_n: int) -> list[tuple[str, Graph]]:
    """Connected graphs with at least one edge, exhaustive up to iso."""
    out = []
    for n in range(2, max_n + 1):
        out.extend(_named(f"conn{n}", corpus.connected_graphs(n)))
    return out


def full_corpus(max_n: int) -> list[tuple[str, Graph]]:
    out = []
    for n in range(1, max_n + 1):
        out.extend(_named(f"all{n}", corpus.all_graphs(n)))
    return out


def _named(stem: str, graphs: list[Graph]) -> list[tuple[str, Graph]]:
    """`stem-index`, the index padded to at least 4 digits and to the
    width of the largest one, so that the names sort as text in order."""
    width = max(4, len(str(len(graphs) - 1)))
    return [(f"{stem}-{i:0{width}d}", g) for i, g in enumerate(graphs)]


def sandwich_instances(
    corpus_max_n: int = 6,
    random_ns: Sequence[int] = (7, 8),
    random_count: int = 60,
    seed: int = 0,
) -> list[tuple[str, Graph]]:
    """Connected corpus + seeded random connected graphs + fixtures."""
    out = connected_corpus(corpus_max_n)
    for n in random_ns:
        for i in range(random_count):
            g = random_connected_graph(n, seed * 100003 + n * 1009 + i)
            out.append((f"rand{n}-s{seed}-{i:03d}", g))
    for name, g in sorted(fixtures().items()):
        out.append((f"fixture-{name}", g))
    return out


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def _tick_walk(entries: int) -> None:
    """Tick one graph's walk entries, sum_W |T(W)|, against a budget of
    DEFAULT_ENUM_BUDGET, or the budget of an enclosing
    `graph._budget_scope`; `_rows` turns the error into that graph's
    skipped rows."""
    _Work(None, "trace family transition", DEFAULT_ENUM_BUDGET).tick(entries)


# The corpus passes take each size's graphs in chunks of consecutive graphs
# (`_chunks`), so that a chunk's 2^n tables (the neighbourhood table that
# `_enum_nodes` reads, the walk of `_prefix_traces` and the tables of
# `_rest_cuts`) hold at most this many (graph, mask) rows: 32 graphs at
# n = 6, 16 at n = 7 and 8 at n = 8.  A larger bound trades memory for
# per-call cost: at 1 << 13 `run_rest_cuts(7)` took 0.29 s against
# 0.33 s, but its tracemalloc peak rose from 2.0 to 5.8 MB (2-core Xeon
# VM).
_CHUNK_ROWS = 1 << 11


def _chunks(graphs: Iterable[Graph]) -> Iterator[tuple[int, list[Graph]]]:
    """(n, chunk) in order: the graphs as runs of consecutive graphs on n
    vertices, at most max(1, _CHUNK_ROWS >> n) graphs each."""
    for n, same in itertools.groupby(graphs, key=lambda g: g.n):
        same = list(same)
        step = max(1, _CHUNK_ROWS >> n)
        for lo in range(0, len(same), step):
            yield n, same[lo:lo + step]


def run_subfunction_traces(max_n: int = 6, *, seed: int = 0) -> list[ReportRow]:
    """Residual-function counts agree with trace counts on every prefix
    set of every connected graph up to max_n.

    The trace counts |T(W)| of every W come from one `_prefix_traces` walk
    per chunk of graphs (`_chunks`), counted by `np.bincount`; the first
    graph of a chunk pays for the walk.  The residual counts |R(W)| of
    every W come from one Shannon cofactor walk per graph
    (`obdd._residual_walk`), which reasons only about the CNF's truth
    tables and shares no code with the trace kernels.  The counts are
    compared in mask order, and the first mismatch, lowest mask first,
    fails the graph.
    """
    corpus = connected_corpus(max_n)

    def walks() -> Iterator[list[int]]:
        for n, chunk in _chunks(g for _, g in corpus):
            keys = _prefix_traces(n, [g.adj for g in chunk])
            counts = np.bincount(keys >> n, minlength=len(chunk) << n)
            yield from counts.reshape(len(chunk), 1 << n).tolist()

    counts = walks()  # `_rows` evaluates the graphs in corpus order

    def evaluate(g):
        tcounts = next(counts)
        _tick_walk(sum(tcounts))
        bad = next(((umask, tcount, scount) for umask, (tcount, scount)
                    in enumerate(zip(tcounts, _residual_walk(g)))
                    if tcount != scount), None)
        checked = len(tcounts) if bad is None else bad[0] + 1
        return [dict(
            passed=bad is None,
            detail=f"prefix sets checked={checked}"
            if bad is None
            else f"mismatch at mask {bad[0]}: traces={bad[1]} residuals={bad[2]}",
        )]

    return _rows(("subfunction-traces",), seed, corpus, evaluate)


def _tick_cuts(nodes: int) -> None:
    """Tick one graph's cut enumeration, the nodes `traces._enum_nodes`
    counts for it, against `independent_set_masks`' budget
    (`traces._enum_work`), or the budget of an enclosing
    `graph._budget_scope`; the rest-cut pass turns the error into that
    graph's skipped rows."""
    _enum_work(None).tick(nodes)


def _trace_bound_fails(
    n: int, side: np.ndarray, r: np.ndarray, count: np.ndarray,
    small_differs: np.ndarray,
) -> np.ndarray:
    """Per cut, whether trace-bound fails there: a side of `side` vertices
    with largest induced cut matching r has `count` traces, more than
    sum_{i<=r} C(|W|, i) or n^(r+1) (both from tables over (|W|, r)), or
    its small-set traces differ from its family (`small_differs`)."""
    binom = np.cumsum([[math.comb(k, i) for i in range(n + 1)]
                       for k in range(n + 1)], axis=1)
    power = n ** np.arange(1, n + 2)
    return (count > binom[side, r]) | (count > power[r]) | small_differs


def _rest_cut_verdicts(
    n: int, cuts: _RestCuts, checks: Sequence[str]
) -> Iterator[tuple[int, tuple[dict, ...]]]:
    """Per graph of a chunk on n vertices: its walk's entries, sum_W
    |T(W)|, and the values of its rows, one dict per check in `checks`.

    `cuts` holds the chunk's rest-cut tables (`traces._rest_cuts`): every
    cut with rest side comp, side U = full ^ comp and r, every pair
    (cut, S) with its trace, and each cut's family T(U) as a boolean row
    over the traces t.  The pairs give the same rows a second way, from
    N(S) & comp, and `differs` compares the two cut by cut.  trace-bound
    fails at a cut when `_trace_bound_fails` says so; its row then shows
    the `_trace_bound_report` built from those arrays.  For shrink a set
    passes when its output is a subset of it with the same trace, enables
    and has at most r vertices; the output is a listed set of the same
    cut, so its trace and verdict are read from the chunk's own arrays,
    through the pairs' index table lut[cut, mask].  It also fails at a
    cut whose enabling sets of at most r vertices leave other traces than
    the family.  A row names the first cut that fails its check; an
    unrequested check's work is not done.
    """
    ones = _popcounts(n)
    umask, r, family = ((1 << n) - 1) ^ cuts.comp, cuts.r, cuts.family
    graph_of = np.repeat(np.arange(len(cuts.lens)), cuts.lens)
    small = ones[cuts.sets] <= r[cuts.cut]

    def differs(chosen: np.ndarray) -> np.ndarray:
        """Per cut: whether its chosen pairs' traces differ from T(U)."""
        got = np.zeros_like(family)
        got[cuts.cut[chosen], cuts.trace[chosen]] = True
        return (family != got).any(axis=1)

    def first(fails: np.ndarray) -> list[int]:
        """Per graph: its first failing cut, -1 if none fails."""
        out = np.full(len(cuts.lens), -1)
        bad = np.flatnonzero(fails)
        graph, where = np.unique(graph_of[bad], return_index=True)
        out[graph] = bad[where]
        return out.tolist()

    def report(k: int) -> TraceBoundReport:
        """trace-bound's report of cut k, from the arrays its verdict read."""
        return _trace_bound_report(
            n, int(ones[umask[k]]), set(np.flatnonzero(family[k]).tolist()),
            int(r[k]), set(cuts.trace[small & (cuts.cut == k)].tolist()))

    values = {}
    if "trace-bound" in checks:
        fails = _trace_bound_fails(n, ones[umask], r, family.sum(axis=1),
                                   differs(small))
        values["trace-bound"] = [
            dict(passed=True, detail=f"cuts checked={count}") if k < 0
            else dict(passed=False,
                      detail=f"violated at mask {umask[k]}: {report(k)}")
            for k, count in zip(first(fails), cuts.lens.tolist())]
    if "shrink" in checks:
        out, enables = _shrink_block(cuts)
        at = cuts.lut[cuts.cut, out]
        ok = ((out & ~cuts.sets) == 0) & (at >= 0)
        ok &= enables[at] & (cuts.trace[at] == cuts.trace)
        ok &= ones[out] <= r[cuts.cut]
        failed = np.full(len(umask), -1)
        bad = np.flatnonzero(~ok)
        cut, where = np.unique(cuts.cut[bad], return_index=True)
        failed[cut] = cuts.sets[bad[where]]
        fails = (failed >= 0) | differs(small & enables)
        sets = np.bincount(graph_of[cuts.cut], minlength=len(cuts.lens))
        values["shrink"] = [
            dict(passed=True, detail=f"independent sets checked={m}") if k < 0
            else dict(passed=False,
                      detail=f"failed at cut {umask[k]} set {failed[k]}")
            if failed[k] >= 0
            else dict(passed=False,
                      detail=f"enabling sets of size <= {r[k]} "
                             f"miss a trace at cut {umask[k]}")
            for k, m in zip(first(fails), sets.tolist())]
    rows = zip(*(values[check] for check in checks))
    return zip(cuts.entries.tolist(), rows)


def run_rest_cuts(
    max_n: int = 7,
    *,
    seed: int = 0,
    checks: Sequence[str] = ("trace-bound", "shrink"),
) -> list[ReportRow]:
    """The `trace-bound` and `shrink` checks in one pass over every cut
    with independent rest side; returns the rows of `checks`, by check.

    Both checks go over the graphs in chunks (`_chunks`).  Each chunk
    gets one neighbourhood table (`traces._mask_tables`), from which each
    graph ticks its cut enumeration, counted in closed form
    (`traces._enum_nodes`, `_tick_cuts`) before any cut is built; a graph
    over that budget gets skipped rows.  The rest go to one
    `traces._rest_cuts` call, for every cut and its r, the pairs (cut, S)
    and each cut's family T(U) from one walk, the independent side of
    both checks, and then to one `_rest_cut_verdicts` call.  With r the
    largest induced cut matching, trace-bound checks |T(U)| <=
    sum_{i<=r} C(|U|, i) and <= n^(r+1), and that the independent sets of
    at most r vertices leave every trace; a failing row shows
    `trace_count_bound_check`'s report for the first failing cut.  shrink
    checks that every independent set shrinks to an enabling subset of at
    most r vertices with the same trace, and, apart from the shrinker,
    that the enabling sets of size <= r leave every trace.  Each row
    names its check's first failing cut.  An unrequested check does none
    of its own work.  Each graph ticks its walk's entries against their
    budget (`_tick_walk`), and a graph over it gets skipped rows.  The
    first graph of a chunk pays for the chunk's tables, walk and
    verdicts.
    """
    if not set(checks) <= {"trace-bound", "shrink"}:
        raise ValueError(f"checks must be trace-bound or shrink: {checks!r}")
    checks = tuple(dict.fromkeys(checks))
    corpus = full_corpus(max_n)

    def chunked() -> Iterator:
        # Per graph in order: its walk's entries and row values, or the
        # error its cut enumeration's ticks raise.
        for n, chunk in _chunks(g for _, g in corpus):
            adjs = [g.adj for g in chunk]
            nbr = _mask_tables(n, adjs)
            errors = {}
            for i, nodes in enumerate(_enum_nodes(n, nbr).tolist()):
                try:
                    _tick_cuts(nodes)
                except BudgetExceededError as exc:
                    errors[i] = exc
            kept = [i for i in range(len(chunk)) if i not in errors]
            if kept:
                cuts = _rest_cuts(n, [adjs[i] for i in kept], nbr[kept])
                got = _rest_cut_verdicts(n, cuts, checks)
            for i in range(len(chunk)):
                yield errors[i] if i in errors else next(got)

    verdicts = chunked()  # `_rows` evaluates the graphs in corpus order

    def evaluate(g):
        got = next(verdicts)
        if isinstance(got, BudgetExceededError):
            raise got
        entries, values = got
        _tick_walk(entries)
        return values

    return _rows(checks, seed, corpus, evaluate)


def run_trace_bound(max_n: int = 7, *, seed: int = 0) -> list[ReportRow]:
    """The `trace-bound` check of `run_rest_cuts` alone."""
    return run_rest_cuts(max_n, seed=seed, checks=("trace-bound",))


def run_shrink(max_n: int = 7, *, seed: int = 0) -> list[ReportRow]:
    """The `shrink` check of `run_rest_cuts` alone."""
    return run_rest_cuts(max_n, seed=seed, checks=("shrink",))


def _tick_sandwich(width_sets: int, entries: int) -> None:
    """Tick one graph's sandwich work as its per-graph engines would: the
    sets `exact_width` tests, against DEFAULT_EXACT_BUDGET, then the
    min-size DP's trace-family entries, sum_W |T(W)|, unbounded by
    default; in either case the budget of an enclosing
    `graph._budget_scope` replaces the default."""
    _Work(None, "exact width search", DEFAULT_EXACT_BUDGET).tick(width_sets)
    _Work(None, "OBDD minimization DP").tick(entries)


def run_obdd_sandwich(
    corpus_max_n: int = 6,
    random_ns: Sequence[int] = (7, 8),
    random_count: int = 60,
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """Every verdict of `obdd_bounds_report` on the connected corpus plus
    seeded random connected graphs and fixtures; a failing row's detail
    names the verdicts that fail.

    The instances go in chunks (`_chunks`).  A chunk on at most 10
    vertices (`_DP_BLOCK_BITS`, where the min-size DP is one block) gets
    one neighbourhood table (`traces._mask_tables`) and one call of each
    chunk kernel, both reading that table: `width._lu_widths` for the
    exact lu, its canonical witness and the sets `exact_width` would
    test, from the LU pair table the rest cuts also read, and
    `obdd._min_size_dp`, the min-size DP of `min_obdd_size_exact` run as
    one block over the chunk, for both exact minimal sizes and orders and
    |T(W)| for every prefix set, of which `_bounds_report` reads the
    witness prefixes.
    Each graph then ticks, in order, the width search's budget and the
    min-size DP's with what the per-graph engines would count
    (`_tick_sandwich`), so a budget skips the same rows, and
    `obdd._bounds_report` gives its verdicts: the diagrams, equivalence
    and counting checks stay per graph.  The first graph of a chunk pays
    for the chunk's kernels.  Larger graphs go through
    `obdd_bounds_report`: `exact_width`, which hands a wide walk to
    `_lu_widths` itself, and the same DP block by block.
    """
    cases = sandwich_instances(corpus_max_n, random_ns, random_count, seed)

    def chunked() -> Iterator:
        # Per case in order: None for a graph too large for the kernels,
        # else its width report and ticks, its min sizes and trace counts.
        for n, chunk in _chunks(g for _, g in cases):
            if n > _DP_BLOCK_BITS:
                yield from [None] * len(chunk)
                continue
            adjs = [g.adj for g in chunk]
            nbr = _mask_tables(n, adjs)
            widths, ticks = _lu_widths(n, adjs, nbr)
            sizes, counts = _min_size_dp(chunk, nbr, None)
            yield from zip(widths, ticks, sizes, counts.tolist())

    kernels = chunked()  # `_rows` evaluates the graphs in corpus order

    def evaluate(g):
        got = next(kernels)
        if got is None:
            rep = obdd_bounds_report(g)
        else:
            width, ticks, sizes, counts = got
            _tick_sandwich(ticks, sum(counts))
            rep = _bounds_report(g, width, sizes, counts)
        return [dict(
            lu=rep.lu,
            obdd_quasi=rep.min_size_quasi,
            obdd_reduced=rep.min_size_total,
            bound=f"2^{rep.lu} <= quasi <= n^{rep.lu + 2}",
            passed=rep.all_ok,
            detail=" ".join(f"{name}=False" for name in rep.failed),
        )]

    return _rows(("obdd-sandwich",), seed, cases, evaluate)


def _grid_case(p: int, q: int, r: int) -> tuple:
    """The skew grid (p, q, r) as a case: its name, graph and meta."""
    return (f"skew-grid-p{p}-q{q}-r{r}", *skew_grid(p, q, r))


def run_horizontal_traces(
    cases: Sequence[tuple[int, int, int]] = ((3, 2, 2), (3, 3, 1)),
    mixed_picks: int = 10,
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """Trace floor (q+1)^r on both sides of every sampled horizontal
    subgraph of small skew grids."""

    def evaluate(g, meta):
        p, q, r = meta.p, meta.q, meta.r
        floor = (q + 1) ** r
        rng = random.Random(seed * 7919 + p * 100 + q * 10 + r)
        picks_list = [[layer] * meta.coords for layer in range(1, p)]
        for _ in range(mixed_picks):
            picks_list.append(
                [rng.randint(1, p - 1) for _ in range(meta.coords)]
            )
        worst_top = worst_bottom = None
        for picks in picks_list:
            h = horizontal_subgraph(g, meta, picks)
            top_mask = sum(1 << h.local(v) for v in h.top)
            bottom_mask = sum(1 << h.local(v) for v in h.bottom)
            t_top = len(trace_masks(h.graph, top_mask))
            t_bottom = len(trace_masks(h.graph, bottom_mask))
            if worst_top is None or t_top < worst_top:
                worst_top = t_top
            if worst_bottom is None or t_bottom < worst_bottom:
                worst_bottom = t_bottom
        return [dict(
            trace_count=worst_top,
            bound=f">= {floor}",
            passed=worst_top >= floor and worst_bottom >= floor,
            detail=(
                f"picks={len(picks_list)} worst_top={worst_top} "
                f"worst_bottom={worst_bottom}"
            ),
        )]

    grids = (_grid_case(p, q, r) for p, q, r in cases)
    return _rows(("horizontal-traces",), seed, grids, evaluate)


def grid_prefix_trace_floor(q: int, r: int, *, seed: int = 0) -> ReportRow:
    """Every tested ordering has a prefix whose trace family reaches
    min((q+1)^r, 2^(p/2)).

    All orderings are tested when n <= 9 (prefix trace counts are memoized
    by prefix set); otherwise layer-major, coordinate-major, and five
    seeded random orderings serve as the adversarial test set.
    """
    if q < 2:
        raise ValueError("the trace floor family needs q >= 2")
    random_orderings = 5

    def evaluate(g, meta):
        n = g.n
        floor = min((q + 1) ** r, 2 ** (meta.p // 2))
        cache: dict[int, int] = {}  # prefix set -> its trace count

        def max_over_prefixes(order) -> int:
            best = 0
            wmask = 0
            for v in order:
                wmask |= 1 << v
                t = cache.get(wmask)
                if t is None:
                    t = cache[wmask] = len(trace_masks(g, wmask))
                if t > best:
                    best = t
            return best

        if n <= 9:
            orderings = itertools.permutations(range(n))
            label = "all orderings"
        else:
            rng = random.Random(seed)
            fixed = [meta.layer_major_ordering(),
                     meta.coordinate_major_ordering()]
            randoms = []
            for _ in range(random_orderings):
                o = list(range(n))
                rng.shuffle(o)
                randoms.append(o)
            orderings = fixed + randoms
            label = f"adversarial orderings={2 + random_orderings}"

        min_of_max = min(map(max_over_prefixes, orderings))
        return [dict(
            trace_count=min_of_max,
            bound=f">= {floor}",
            passed=min_of_max >= floor,
            detail=f"{label}; min of max prefix traces={min_of_max}",
        )]

    return _rows(("grid-prefix-traces",), seed,
                 [_grid_case(grid_rows_for(q, r), q, r)], evaluate)[0]


def run_grid_prefix_traces(
    cases: Sequence[tuple[int, int]] = ((2, 1), (3, 1)),
    *,
    seed: int = 0,
) -> list[ReportRow]:
    return [grid_prefix_trace_floor(q, r, seed=seed) for q, r in cases]


def run_grid_width_range(
    cases: Sequence[tuple[int, int]] = ((2, 1), (2, 2), (3, 1)),
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """Layer-major ordering keeps the upper-subgraph width within r+2;
    the exact width is at least r."""

    def evaluate(g, meta):
        r = meta.r
        layer_value, _ = width_of_ordering(
            g, meta.layer_major_ordering(), WidthVariant.LU
        )
        lu = exact_width(g, WidthVariant.LU).value
        return [dict(
            lu=lu, bound=f"{r} <= lu <= {r + 2}",
            passed=layer_value <= r + 2 and lu >= r,
            detail=f"layer ordering width={layer_value}",
        )]

    grids = (_grid_case(grid_rows_for(q, r), q, r) for q, r in cases)
    return _rows(("grid-width-range",), seed, grids, evaluate)


def run_separation(rs: Sequence[int] = (3, 4), *, seed: int = 0) -> list[ReportRow]:
    """Threaded cliques separate the parameters: the upper-subgraph width
    is the constant 1 (computed exactly; proven: any edge forces width 1
    and the row-major ordering reaches it) while the cut-graph width grows
    at least linearly in r."""

    def evaluate(g, r):
        lu = exact_width(g, WidthVariant.LU).value
        lmimw = exact_width(g, WidthVariant.LMIM).value
        return [dict(
            lu=lu,
            lmimw=lmimw,
            bound=f"lu == 1 and lmimw >= {(r - 1) / 2}",
            passed=lu == 1 and lmimw >= (r - 1) / 2,
            detail=f"exact lu={lu} lmimw={lmimw}",
        )]

    cases = ((f"clique-thread-{r}", clique_thread(r), r) for r in rs)
    return _rows(("separation",), seed, cases, evaluate)


def run_corona(ks: Sequence[int] = (3, 4, 5), *, seed: int = 0) -> list[ReportRow]:
    """Pendant sides of clique coronas: 2^k traces but matching size 1."""

    def evaluate(g, k):
        u = list(range(k))
        t = len(trace_masks(g, mask_of(u, g.n)))
        r, _ = max_induced_cut_matching(g, u)
        return [dict(
            trace_count=t,
            matching_size=r,
            bound=f"traces == {2 ** k}, matching == 1",
            passed=t == 2**k and r == 1,
        )]

    cases = ((f"clique-corona-{k}", clique_corona(k), k) for k in ks)
    return _rows(("corona",), seed, cases, evaluate)


def run_vc(
    skew_qs: Sequence[int] = (1, 2, 3, 4),
    matching_ks: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """On bipartite cuts the VC dimension of the trace family equals the
    maximum induced cut matching."""
    instances = [(f"skew-{q}", skew(q), q) for q in skew_qs]
    instances += [
        (f"pmatch-{k}", perfect_matching_graph(k), k) for k in matching_ks
    ]

    def evaluate(g, half):
        u = list(range(half))
        ts = traces(g, u)
        vc = vc_dimension(ts)
        r, _ = max_induced_cut_matching(g, u)
        return [dict(
            trace_count=len(ts),
            matching_size=r,
            bound="vc == matching",
            passed=vc == r,
            detail=f"vc={vc}",
        )]

    return _rows(("vc",), seed, instances, evaluate)


# ---------------------------------------------------------------------------
# Dispatch, export.
# ---------------------------------------------------------------------------


# Check name -> (suite function name, {spec.params key: suite keyword}).
# Every default lives in the suite's signature only.  `verify` looks the
# suite up by name when it runs, so a wrapper installed on the module
# attribute (a tracer, a test double) is what runs.  A suite named by more
# than one check (trace-bound and shrink share `run_rest_cuts`, and both
# read pair_max_n) runs once, with the requested checks as `checks`.
_SUITES: dict[str, tuple[str, dict[str, str]]] = {
    "subfunction-traces": ("run_subfunction_traces", {"corpus_max_n": "max_n"}),
    "trace-bound": ("run_rest_cuts", {"pair_max_n": "max_n"}),
    "shrink": ("run_rest_cuts", {"pair_max_n": "max_n"}),
    "obdd-sandwich": ("run_obdd_sandwich", {
        "corpus_max_n": "corpus_max_n",
        "random_ns": "random_ns",
        "random_count": "random_count",
    }),
    "horizontal-traces": ("run_horizontal_traces", {
        "horizontal_cases": "cases", "mixed_picks": "mixed_picks",
    }),
    "grid-prefix-traces": ("run_grid_prefix_traces", {
        "grid_trace_cases": "cases",
    }),
    "grid-width-range": ("run_grid_width_range", {
        "grid_width_cases": "cases",
    }),
    "separation": ("run_separation", {"separation_rs": "rs"}),
    "corona": ("run_corona", {"corona_ks": "ks"}),
    "vc": ("run_vc", {"vc_skew_qs": "skew_qs", "vc_matching_ks": "matching_ks"}),
}
CHECK_NAMES = tuple(_SUITES)


def verify(spec: ExperimentSpec) -> list[ReportRow]:
    """Run every requested check, each suite once; rows ordered by
    (check, instance)."""
    by_suite: dict[str, list[str]] = {}
    for check in dict.fromkeys(spec.checks):
        by_suite.setdefault(_SUITES[check][0], []).append(check)
    rows: list[ReportRow] = []
    for name, checks in by_suite.items():
        kwargs = {kw: spec.params[key]
                  for key, kw in _SUITES[checks[0]][1].items()
                  if key in spec.params}
        if sum(suite == name for suite, _ in _SUITES.values()) > 1:
            kwargs["checks"] = tuple(checks)
        rows.extend(globals()[name](seed=spec.seed, **kwargs))
    rows.sort(key=lambda r: (r.check, r.instance))
    return rows


# Every column but wall_ms, which is exported only on request (so that
# identical runs export identical bytes).
CSV_COLUMNS = [f.name for f in fields(ReportRow) if f.name != "wall_ms"]


def _columns(include_timing: bool) -> list[str]:
    return (CSV_COLUMNS + ["wall_ms"]) if include_timing else CSV_COLUMNS


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_to_dicts(rows: Iterable[ReportRow], include_timing: bool = False):
    cols = _columns(include_timing)
    return [{c: getattr(row, c) for c in cols} for row in rows]


def export(
    rows: Sequence[ReportRow],
    fmt: str,
    path,
    *,
    include_timing: bool = False,
) -> None:
    """Write rows as CSV or JSON with a stable column order.

    Timing is excluded by default so identical runs export identical
    bytes.
    """
    if fmt == "csv":
        import csv

        cols = _columns(include_timing)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([_cell(getattr(row, c)) for c in cols])
    elif fmt == "json":
        # The bytes of json.dump(..., indent=2) plus a newline.  Without an
        # indent, json encodes in C; the separator puts each field of a row
        # on its own line, and the rows get their braces and indent here,
        # written one at a time so that no copy of the whole file is held.
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[")
            for i, row in enumerate(rows_to_dicts(rows, include_timing)):
                fh.write(("," if i else "") + "\n  {\n    "
                         + encode(row)[1:-1] + "\n  }")
            fh.write("\n]\n" if rows else "]\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def any_failures(rows: Iterable[ReportRow]) -> bool:
    return any(r.passed is False for r in rows)


def any_skipped(rows: Iterable[ReportRow]) -> bool:
    return any(r.skipped for r in rows)
