"""Verification suites: every bound the library claims, checked exactly.

Each suite produces ReportRow records.  A row carries pass/fail only when
every computation feeding the verdict was exact; when a work budget is hit
the row is marked skipped instead.  Identical spec + seed reproduce the
same rows byte for byte (timing is excluded from exports by default).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence

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
    _EdgeTable,
    mask_of,
    max_induced_cut_matching,
    vertices_of,
)
from .obdd import obdd_bounds_report, subfunction_count
from .traces import (
    _Enablers,
    _shrink_step,
    _trace_bound_report,
    independent_set_masks,
    trace_masks,
    traces,
    vc_dimension,
)
from .width import (
    DEFAULT_EXACT_LIMIT,
    WidthVariant,
    exact_width,
    heuristic_width_upper,
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


def _row(
    check: str, instance: str, g: Graph, seed: int, t0: float, **values
) -> ReportRow:
    """The row of one instance: its name and size, the run's seed, the
    wall time since t0 (the instance's start), and the suite's values.
    `run_rest_cuts` checks trace-bound and shrink in one pass per graph,
    so when both run, both rows of a graph carry the pass's joint time."""
    return ReportRow(
        check=check, instance=instance, n=g.n, m=g.m, seed=seed,
        wall_ms=(time.perf_counter() - t0) * 1000.0, **values,
    )


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


def _independent_rest_cuts(
    g: Graph,
) -> Iterator[tuple[int, int, list[int], dict[int, int], int]]:
    """The cuts (U, rest) of g whose rest side is independent, with the
    per-graph tables that `run_rest_cuts` builds once for both its checks.

    One `_EdgeTable`, one list `ind` of the independent sets of g (in
    `independent_set_masks` order) and their neighbourhood masks `nbr`
    serve every cut.  Yields (umask, comp, subsets, nbr, r) with comp
    running over `ind` and U = full ^ comp: `subsets` are the independent
    subsets of U in enumeration order (a filter of `ind`, so equal to
    `list(independent_set_masks(g, umask))`), and r is the largest
    induced cut matching.
    """
    full = g.full_mask()
    table = _EdgeTable(g, WidthVariant.LSIM)
    ind = list(independent_set_masks(g, full))
    # Sets come by size, so s minus its lowest vertex is already mapped;
    # on an independent set the union of neighbourhoods misses the set.
    nbr = {0: 0}
    for s in ind[1:]:
        b = s & -s
        nbr[s] = nbr[s ^ b] | g.adj[b.bit_length() - 1]
    for comp in ind:
        umask = full ^ comp
        subsets = [s for s in ind if not s & comp]
        yield umask, comp, subsets, nbr, table.max_size(table.crossing(umask))


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------


def run_subfunction_traces(max_n: int = 6, *, seed: int = 0) -> list[ReportRow]:
    """Residual-function counts agree with trace counts on every prefix
    set of every connected graph up to max_n."""
    rows = []
    for instance, g in connected_corpus(max_n):
        t0 = time.perf_counter()
        bad = None
        checked = 0
        for umask in range(1 << g.n):
            tcount = len(trace_masks(g, umask))
            scount = subfunction_count(g, vertices_of(umask))
            checked += 1
            if tcount != scount:
                bad = (umask, tcount, scount)
                break
        rows.append(_row(
            "subfunction-traces", instance, g, seed, t0,
            passed=bad is None,
            detail=f"prefix sets checked={checked}"
            if bad is None
            else f"mismatch at mask {bad[0]}: traces={bad[1]} residuals={bad[2]}",
        ))
    return rows


def _shrink_outputs(
    rule: _Enablers, subsets: list[int]
) -> Iterator[tuple[int, int]]:
    """(S, `_shrink_mask`'s output for S) for each S in subsets, which
    must list every independent subset of the cut's side U smallest first.

    Asking `rule.max_enabler` in that order fills its memo at |S| lookups
    a set.  A non-enabling set costs one `_shrink_step`: the step returns
    a strict subset of S, listed and shrunk before S, and `_shrink_mask`
    continues from it, so the output of S is the output of that subset.
    """
    out_of: dict[int, int] = {}
    for smask in subsets:
        if rule.max_enabler(smask) == smask:
            out = smask
        else:
            out = out_of[_shrink_step(rule, smask, [])]
        out_of[smask] = out
        yield smask, out


def run_rest_cuts(
    max_n: int = 7,
    *,
    seed: int = 0,
    checks: Sequence[str] = ("trace-bound", "shrink"),
) -> list[ReportRow]:
    """The `trace-bound` and `shrink` checks in one pass over every cut
    with independent rest side; returns the rows of `checks`, by check.

    Per graph one cut context (`_independent_rest_cuts`), per cut one
    family `trace_masks(g, umask)`, the independent side of both checks.
    With r the largest induced cut matching, trace-bound is
    `trace_count_bound_check`'s report.  shrink checks that every
    independent set shrinks (`_shrink_outputs`) to an enabling subset of
    at most r vertices with the same trace, and, apart from the shrinker,
    that the enabling sets of size <= r leave every trace (enabling by
    `_Enablers`' private-neighbour rule).  Each check stops at its own
    first failure, and a graph's pass once every requested check has
    failed.  An unrequested check does none of its own work.
    """
    if not set(checks) <= {"trace-bound", "shrink"}:
        raise ValueError(f"checks must be trace-bound or shrink: {checks!r}")
    rows: dict[str, list[ReportRow]] = {check: [] for check in checks}
    for instance, g in full_corpus(max_n):
        t0 = time.perf_counter()
        live = set(rows)
        bad: dict[str, str] = {}  # check -> detail of its first failure
        cuts = sets_checked = 0
        for umask, comp, subsets, nbr, r in _independent_rest_cuts(g):
            family = trace_masks(g, umask)
            if "trace-bound" in live:
                small = {nbr[t] & comp for t in subsets if t.bit_count() <= r}
                rep = _trace_bound_report(g.n, umask.bit_count(), family,
                                          r, small)
                cuts += 1
                if not rep.all_ok:
                    bad["trace-bound"] = f"violated at mask {umask}: {rep}"
            if "shrink" in live:
                rule = _Enablers(g.adj, comp, nbr.__getitem__)
                for smask, out in _shrink_outputs(rule, subsets):
                    sets_checked += 1
                    if (out & ~smask or nbr[out] & comp != nbr[smask] & comp
                            or not rule.enables(out) or out.bit_count() > r):
                        bad["shrink"] = f"failed at cut {umask} set {smask}"
                        break
                else:
                    enabled = {nbr[t] & comp for t in subsets
                               if t.bit_count() <= r and rule.enables(t)}
                    if enabled != family:
                        bad["shrink"] = (f"enabling sets of size <= {r} "
                                         f"miss a trace at cut {umask}")
            live -= bad.keys()
            if not live:
                break
        done = {"trace-bound": f"cuts checked={cuts}",
                "shrink": f"independent sets checked={sets_checked}"}
        for check, got in rows.items():
            got.append(_row(check, instance, g, seed, t0,
                            passed=check not in bad,
                            detail=bad.get(check, done[check])))
    return [row for got in rows.values() for row in got]


def run_trace_bound(max_n: int = 7, *, seed: int = 0) -> list[ReportRow]:
    """The `trace-bound` check of `run_rest_cuts` alone."""
    return run_rest_cuts(max_n, seed=seed, checks=("trace-bound",))


def run_shrink(max_n: int = 7, *, seed: int = 0) -> list[ReportRow]:
    """The `shrink` check of `run_rest_cuts` alone."""
    return run_rest_cuts(max_n, seed=seed, checks=("shrink",))


def run_obdd_sandwich(
    corpus_max_n: int = 6,
    random_ns: Sequence[int] = (7, 8),
    random_count: int = 60,
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """2^width lower bound, per-prefix trace bounds, level contract, and
    OBDD semantic checks on the connected corpus plus fixtures."""
    rows = []
    for instance, g in sandwich_instances(
        corpus_max_n, random_ns, random_count, seed
    ):
        t0 = time.perf_counter()
        try:
            rep = obdd_bounds_report(g)
        except BudgetExceededError as exc:
            rows.append(_row(
                "obdd-sandwich", instance, g, seed, t0,
                skipped=True, exact=False, detail=str(exc),
            ))
            continue
        rows.append(_row(
            "obdd-sandwich", instance, g, seed, t0,
            lu=rep.lu,
            obdd_quasi=rep.min_size_quasi,
            obdd_reduced=rep.min_size_total,
            bound=f"2^{rep.lu} <= quasi <= n^{rep.lu + 2}",
            passed=rep.all_ok,
            detail=""
            if rep.all_ok
            else (
                f"lower_ok={rep.lower_ok} upper={rep.upper_mechanism_ok} "
                f"level={rep.level_contract_ok} equiv={rep.equivalence_ok} "
                f"count={rep.counting_ok}"
            ),
        ))
    return rows


def run_horizontal_traces(
    cases: Sequence[tuple[int, int, int]] = ((3, 2, 2), (3, 3, 1)),
    mixed_picks: int = 10,
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """Trace floor (q+1)^r on both sides of every sampled horizontal
    subgraph of small skew grids."""
    import random as _random

    rows = []
    for p, q, r in cases:
        t0 = time.perf_counter()
        g, meta = skew_grid(p, q, r)
        floor = (q + 1) ** r
        rng = _random.Random(seed * 7919 + p * 100 + q * 10 + r)
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
        rows.append(_row(
            "horizontal-traces", f"skew-grid-p{p}-q{q}-r{r}", g, seed, t0,
            trace_count=worst_top,
            bound=f">= {floor}",
            passed=worst_top >= floor and worst_bottom >= floor,
            detail=(
                f"picks={len(picks_list)} worst_top={worst_top} "
                f"worst_bottom={worst_bottom}"
            ),
        ))
    return rows


def grid_prefix_trace_floor(q: int, r: int, *, seed: int = 0) -> ReportRow:
    """Every tested ordering has a prefix whose trace family reaches
    min((q+1)^r, 2^(p/2)).

    All orderings are tested when n <= 9 (prefix trace counts are memoized
    by prefix set); otherwise layer-major, coordinate-major, and five
    seeded random orderings serve as the adversarial test set.
    """
    import itertools as _it
    import random as _random

    if q < 2:
        raise ValueError("the trace floor family needs q >= 2")
    t0 = time.perf_counter()
    p = grid_rows_for(q, r)
    g, meta = skew_grid(p, q, r)
    n = g.n
    floor = min((q + 1) ** r, 2 ** (p // 2))
    random_orderings = 5
    cache: dict[int, int] = {}

    def prefix_traces(wmask: int) -> int:
        got = cache.get(wmask)
        if got is None:
            got = len(trace_masks(g, wmask))
            cache[wmask] = got
        return got

    def max_over_prefixes(order) -> int:
        best = 0
        wmask = 0
        for v in order:
            wmask |= 1 << v
            t = prefix_traces(wmask)
            if t > best:
                best = t
        return best

    if n <= 9:
        orderings = _it.permutations(range(n))
        label = "all orderings"
    else:
        rng = _random.Random(seed)
        fixed = [meta.layer_major_ordering(),
                 meta.coordinate_major_ordering()]
        randoms = []
        for _ in range(random_orderings):
            o = list(range(n))
            rng.shuffle(o)
            randoms.append(o)
        orderings = fixed + randoms
        label = f"adversarial orderings={2 + random_orderings}"

    min_of_max = None
    for order in orderings:
        got = max_over_prefixes(order)
        if min_of_max is None or got < min_of_max:
            min_of_max = got
    return _row(
        "grid-prefix-traces", f"skew-grid-p{p}-q{q}-r{r}", g, seed, t0,
        trace_count=min_of_max,
        bound=f">= {floor}",
        passed=min_of_max >= floor,
        detail=f"{label}; min of max prefix traces={min_of_max}",
    )


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
    the exact width is at least r whenever n is within the exact limit."""
    rows = []
    for q, r in cases:
        t0 = time.perf_counter()
        p = grid_rows_for(q, r)
        g, meta = skew_grid(p, q, r)
        layer_value, _ = width_of_ordering(
            g, meta.layer_major_ordering(), WidthVariant.LU
        )
        ok_upper = layer_value <= r + 2
        if g.n <= DEFAULT_EXACT_LIMIT:
            lu = exact_width(g, WidthVariant.LU).value
            bound = f"{r} <= lu <= {r + 2}"
            passed = ok_upper and lu >= r
            detail = f"layer ordering width={layer_value}"
        else:
            heur, _ = heuristic_width_upper(g, WidthVariant.LU, seed=seed)
            lu = None
            bound = f"layer width <= {r + 2}"
            passed = ok_upper
            detail = (
                f"exact DP infeasible (n={g.n}); layer ordering "
                f"width={layer_value}, heuristic upper={heur}"
            )
        rows.append(_row(
            "grid-width-range", f"skew-grid-p{p}-q{q}-r{r}", g, seed, t0,
            lu=lu, bound=bound, passed=passed, detail=detail,
        ))
    return rows


def run_separation(rs: Sequence[int] = (3, 4), *, seed: int = 0) -> list[ReportRow]:
    """Threaded cliques separate the parameters: the upper-subgraph width
    is the constant 1 (computed exactly; proven: any edge forces width 1
    and the row-major ordering reaches it) while the cut-graph width grows
    at least linearly in r."""
    rows = []
    for r in rs:
        t0 = time.perf_counter()
        g = clique_thread(r)
        lu_rep = exact_width(g, WidthVariant.LU)
        lmim_rep = exact_width(g, WidthVariant.LMIM)
        rows.append(_row(
            "separation", f"clique-thread-{r}", g, seed, t0,
            lu=lu_rep.value,
            lmimw=lmim_rep.value,
            bound=f"lu == 1 and lmimw >= {(r - 1) / 2}",
            passed=lu_rep.value == 1 and lmim_rep.value >= (r - 1) / 2,
            detail=f"exact lu={lu_rep.value} lmimw={lmim_rep.value}",
        ))
    return rows


def run_corona(ks: Sequence[int] = (3, 4, 5), *, seed: int = 0) -> list[ReportRow]:
    """Pendant sides of clique coronas: 2^k traces but matching size 1."""
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        g = clique_corona(k)
        u = list(range(k))
        t = len(trace_masks(g, mask_of(u, g.n)))
        r, _ = max_induced_cut_matching(g, u)
        rows.append(_row(
            "corona", f"clique-corona-{k}", g, seed, t0,
            trace_count=t,
            matching_size=r,
            bound=f"traces == {2 ** k}, matching == 1",
            passed=t == 2**k and r == 1,
        ))
    return rows


def run_vc(
    skew_qs: Sequence[int] = (1, 2, 3, 4),
    matching_ks: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    seed: int = 0,
) -> list[ReportRow]:
    """On bipartite cuts the VC dimension of the trace family equals the
    maximum induced cut matching."""
    rows = []
    instances = [(f"skew-{q}", skew(q), q) for q in skew_qs]
    instances += [
        (f"pmatch-{k}", perfect_matching_graph(k), k) for k in matching_ks
    ]
    for instance, g, half in instances:
        t0 = time.perf_counter()
        u = list(range(half))
        ts = traces(g, u)
        vc = vc_dimension(ts)
        r, _ = max_induced_cut_matching(g, u)
        rows.append(_row(
            "vc", instance, g, seed, t0,
            trace_count=len(ts),
            matching_size=r,
            bound="vc == matching",
            passed=vc == r,
            detail=f"vc={vc}",
        ))
    return rows


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows_to_dicts(rows, include_timing), fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def any_failures(rows: Iterable[ReportRow]) -> bool:
    return any(r.passed is False for r in rows)


def any_skipped(rows: Iterable[ReportRow]) -> bool:
    return any(r.skipped for r in rows)
