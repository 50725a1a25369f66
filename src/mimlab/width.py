"""Linear width parameters over vertex orderings.

Three variants measure the largest induced matching across each prefix cut,
differing in which edges of the host graph can break a matching:

* LU    - matchings induced in the upper subgraph of the prefix (edges
          internal to the unprocessed side are ignored),
* LMIM  - matchings induced in the cut graph (only crossing edges matter),
* LSIM  - matchings induced in the graph itself.

A prefix's width depends only on the prefix as a set, which makes the exact
minimum over all n! orderings a min-max recurrence over prefix sets.
`exact_width` evaluates it by a threshold search that, for k = 0, 1, ...,
visits only the prefix sets reachable through prefixes of width <= k, so
graphs of small width touch a small part of the 2^n sets.  Its tables are
dicts of the sets it settles, so memory grows with those sets, not with
2^n; no guard on n applies, only a budget on the sets tested
(DEFAULT_EXACT_BUDGET unless the caller gives one).

The conflict rule between two crossing edges does not depend on the cut,
and every edge crossing W that does not leave its newest vertex c also
crosses W - c.  So a new matching must use the newest vertex's edges: a
matching across W larger than any across W - c uses exactly one edge
leaving c.  Wherever the width of W - c is already bounded, the engines
search W's larger matchings only through c's edges
(`_EdgeTable.exists_through`).  `exact_width` carries each walked set's
edge ORs from the set it was generated from, and one query through the
generating vertex's edges decides whether the new set exceeds the
threshold.

Adding c to W - c also changes a prefix width by at most one downwards:
the edges crossing W - c that stop crossing W all enter c, and edges
sharing a head conflict, so a compatible selection keeps at most one of
them.  Along an ordering each prefix width is therefore the previous one
plus or minus one, and one scan (`_prefix_scan`) decides each step with
at most two queries: a matching one larger through c's edges, and one of
the previous size across W.  `width_of_ordering` and
`heuristic_width_upper` both score orderings with it.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graph import Graph, WidthVariant, _EdgeTable, _Work, mask_of
from .traces import _lu_pair_widths, _mask_tables, _set_layers

DEFAULT_EXACT_BUDGET = 1 << 22
DEFAULT_HEURISTIC_BUDGET = 200


@dataclass(frozen=True)
class WidthReport:
    variant: WidthVariant
    value: int
    witness: tuple[int, ...]
    per_prefix: tuple[int, ...]


def prefix_width(
    g: Graph,
    w: Iterable[int],
    variant: WidthVariant | str,
    *,
    budget: int | None = None,
) -> int:
    """Largest induced cut matching across the (w, rest) cut.

    Depends only on the set w.  Equals the exact maximum induced
    (w, rest)-matching of the upper subgraph (LU), the cut graph (LMIM),
    or g itself (LSIM).  `budget` caps its search nodes; None: unbounded.
    """
    table = _EdgeTable(g, WidthVariant(variant))
    work = _Work(budget, "prefix width search")
    return table.max_size(table.crossing(mask_of(w, g.n)), work)


def prefix_width_witness(
    g: Graph, w: Iterable[int], variant: WidthVariant | str
) -> tuple[int, list[tuple[int, int]]]:
    """Prefix width together with its lexicographically least witness."""
    table = _EdgeTable(g, WidthVariant(variant))
    return table.lex_witness(table.crossing(mask_of(w, g.n)))


def width_of_ordering(
    g: Graph, pi: Iterable[int], variant: WidthVariant | str
) -> tuple[int, list[int]]:
    """Max prefix width along the ordering, plus all per-prefix widths."""
    pi = _permutation(g, pi)
    table = _EdgeTable(g, WidthVariant(variant))
    # No ordering's width reaches the number of oriented edges plus one.
    _, widths = _prefix_scan(table, pi, len(table.ends) + 1)
    return max(widths), widths[1:]


def _prefix_scan(
    table: _EdgeTable, order: Sequence[int], cap: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The (leaving, entering) edge ORs and the width min(pw, cap) of
    the prefixes of `order` of length 0, 1, ..., n in turn."""
    out_e, into_e = table.out, table.into
    ors = [(0, 0)]
    widths = [0]
    leaving = entering = p = 0
    for c in order:
        leaving |= out_e[c]
        entering |= into_e[c]
        p = _step(table, leaving & ~entering, c, p, cap)
        ors.append((leaving, entering))
        widths.append(p)
    return ors, widths


def _step(table: _EdgeTable, cand: int, c: int, p: int, cap: int) -> int:
    """min(pw(W), cap), given p = min(pw(W - c), cap), the edges cand
    crossing W and W's newest vertex c.

    pw(W) is pw(W - c) - 1, pw(W - c) or pw(W - c) + 1, and a matching
    larger than pw(W - c) uses one edge leaving c.  At the cap pw(W - c)
    is unknown, but pw(W) >= cap - 1 still holds."""
    if p >= cap:
        return cap if table.exists(cand, cap) else cap - 1
    if table.exists_through(cand, cand & table.out[c], p + 1):
        return p + 1
    return p if table.exists(cand, p) else p - 1


def _permutation(g: Graph, pi: Iterable[int]) -> tuple[int, ...]:
    """pi as a tuple, checked to be a permutation of g's vertices."""
    try:
        pi = tuple(operator.index(v) for v in pi)
    except TypeError:
        raise ValueError("ordering entries must be integers") from None
    if sorted(pi) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    return pi


def exact_width(
    g: Graph,
    variant: WidthVariant | str,
    *,
    budget: int | None = None,
) -> WidthReport:
    """Exact width minimum over all vertex orderings, with a witness.

    With f(W) = max(prefix_width(W), min over v in W of f(W - v)), the
    width is f of the full vertex set.  A threshold search finds it: for
    k = 0, 1, ... walk, by popcount, the prefix sets W with f(W) <= k,
    each reached from a predecessor with f <= k, until the walk reaches
    the full set.  Every set with f(W) <= k has a minimising predecessor
    that the walk also visits, so the walk at threshold k accepts exactly
    the sets with f <= k.  A set first accepted at threshold k therefore
    has f = k, with no predecessor minimum to take, and f carries over
    from one threshold to the next.  Small widths visit a small part of
    the 2^n sets.

    Each walked set carries the ORs of its vertices' leaving and entering
    edge masks, so a set W = s + b generated from a walked set s gets its
    crossing edges from s's pair and b's masks, one OR each.  Since
    f(s) <= k bounds the prefix width of s, a (k+1)-matching across W
    must use an edge leaving b, so one query through b's edges decides
    whether W is rejected at threshold k or accepted with f(W) = k.

    The witness is reconstructed by always removing the smallest-index
    minimizing vertex, so it is canonical.  Memory grows with the sets
    the walk settles, not with 2^n, and there is no guard on n: `budget`
    caps the number of sets tested (counted once per popcount layer) and
    raises BudgetExceededError past it.  None means DEFAULT_EXACT_BUDGET
    (2^22); any other value but an integer >= 1 raises ValueError.
    """
    work = _Work(budget, "exact width search", DEFAULT_EXACT_BUDGET)
    variant = WidthVariant(variant)
    n = g.n
    if n == 0:
        return WidthReport(variant, 0, (), ())
    full = (1 << n) - 1
    table = _EdgeTable(g, variant)
    out_e, into_e = table.out, table.into

    # f maps each accepted set to its exact f; a set absent from f is
    # untested.  A layer maps each of its sets to the ORs of its
    # vertices' leaving and entering edge masks, or to None when the set
    # was rejected at threshold k, so that no set is tested twice at one
    # threshold.
    f = {0: 0}
    k = 0
    while True:
        layer = {0: (0, 0)}
        for _ in range(n):
            nxt = {}
            tested = 0
            for s, ors in layer.items():
                if ors is None:
                    continue
                s_out, s_in = ors
                rest = full ^ s
                while rest:
                    b = rest & -rest
                    rest ^= b
                    wmask = s | b
                    if wmask in nxt:
                        continue
                    x = b.bit_length() - 1
                    leaving = s_out | out_e[x]
                    entering = s_in | into_e[x]
                    if wmask not in f:
                        # f(s) <= k bounds pw(s), so a (k+1)-matching
                        # across W must use an edge leaving b.
                        tested += 1
                        cand = leaving & ~entering
                        if table.exists_through(cand, cand & out_e[x], k + 1):
                            nxt[wmask] = None
                            continue
                        f[wmask] = k
                    nxt[wmask] = (leaving, entering)
            work.tick(tested)
            layer = nxt
        if layer.get(full) is not None:
            break
        k += 1

    value = f[full]
    order_rev = []
    wmask = full
    while wmask:
        best_v = -1
        best_f = 256
        w = wmask
        while w:
            b = w & -w
            w ^= b
            t = f.get(wmask ^ b, 256)
            if t < best_f:
                best_f = t
                best_v = b.bit_length() - 1
        order_rev.append(best_v)
        wmask ^= 1 << best_v
    witness = tuple(reversed(order_rev))
    _, per_prefix = _prefix_scan(table, witness, len(table.ends) + 1)
    if max(per_prefix) != value:  # pragma: no cover - internal consistency
        raise AssertionError("witness width disagrees with search value")
    return WidthReport(variant, value, witness, tuple(per_prefix[1:]))


def _read_back(last: np.ndarray) -> np.ndarray:
    """Per row i, the order of all n vertices that a table last[i, W] over
    the 2^n sets W gives, last[i, W] the vertex an optimal order of W puts
    last: read back from the full set, one vertex at a time."""
    graphs, size = last.shape
    rows = np.arange(graphs)
    order = np.zeros((graphs, size.bit_length() - 1), dtype=last.dtype)
    w = np.full(graphs, size - 1)
    for i in reversed(range(order.shape[1])):
        order[:, i] = last[rows, w]
        w ^= 1 << order[:, i]
    return order


def _lu_widths(
    n: int, adjs: Sequence[Sequence[int]]
) -> tuple[list[WidthReport], list[int]]:
    """`exact_width(g, LU)` for a chunk of graphs on n vertices, graph i
    with adjacency masks adjs[i], from 2^n tables, and per graph the sets
    `exact_width` tests, which its budget counts.

    pw(W), the LU prefix width, comes from the valid pairs (A, B) of
    `traces._lu_pair_widths`, the table the cut contexts also read.
    f(W) = max(pw(W), min_v f(W - v)) runs one popcount layer at a time
    over the whole chunk, the first minimum giving the smallest
    minimising v, from which the witness is read back (`exact_width`'s
    tie rule) with pw along it.

    At threshold k `exact_width` tests W when f(W) >= k and some W - v
    has f <= k, so it tests W at min(f(W), lu) - minpred(W) + 1
    thresholds, minpred(W) the least f(W - v), when minpred(W) <= lu.
    `exact_width` stays the engine for every other caller and is this
    kernel's oracle.
    """
    nbr, _, _ = _mask_tables(n, adjs)
    graphs, size = nbr.shape
    full = size - 1
    pw = _lu_pair_widths(n, adjs, nbr)
    f = pw.copy()
    minpred = np.zeros_like(pw)
    last = np.zeros_like(pw)
    for w, v, below in _set_layers(n):
        got = f[:, below]
        minpred[:, w] = got.min(axis=2)
        last[:, w] = v[np.arange(len(w)), got.argmin(axis=2)]
        f[:, w] = np.maximum(pw[:, w], minpred[:, w])
    lu = f[:, full:]
    ticks = np.where(minpred <= lu, np.minimum(f, lu) - minpred + 1, 0)
    ticks[:, 0] = 0

    order = _read_back(last)
    prefixes = np.bitwise_or.accumulate(1 << order, axis=1)
    per_prefix = pw[np.arange(graphs)[:, None], prefixes]
    reports = [WidthReport(WidthVariant.LU, value, tuple(o), tuple(p))
               for value, o, p in zip(lu[:, 0].tolist(), order.tolist(),
                                      per_prefix.tolist())]
    return reports, ticks.sum(axis=1).tolist()


def heuristic_width_upper(
    g: Graph,
    variant: WidthVariant | str,
    seed: int = 0,
    budget: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Upper-bound the width by local search over orderings.

    Hill climbing on adjacent transpositions with seeded random restarts;
    the identity ordering is always the first candidate, and `budget`
    caps the ordering evaluations (None: DEFAULT_HEURISTIC_BUDGET, 200;
    anything but an integer >= 1 raises ValueError).  The result is the
    exact width of the best ordering found, hence >= the true width.

    The climb keeps the current ordering's prefix ORs and widths (capped
    just above the best value when a restart scans them).  Swapping
    positions i and i + 1 changes only the prefix of length i + 1, so a
    neighbour can beat the current value only when that prefix is the
    one prefix at or above it; every other neighbour counts as evaluated
    and is rejected with no search, and that one is decided by one step
    from the prefix before it.
    """
    variant = WidthVariant(variant)
    budget = _Work.limit(budget, DEFAULT_HEURISTIC_BUDGET)
    n = g.n
    if n == 0:
        return 0, ()
    rng = random.Random(seed)
    table = _EdgeTable(g, variant)
    out_e, into_e = table.out, table.into
    current = list(range(n))
    # No ordering's width reaches the number of oriented edges plus one.
    ors, widths = _prefix_scan(table, current, len(table.ends) + 1)
    current_value = best_value = max(widths)
    best_order = list(current)
    evals = 1
    while evals < budget and best_value > 0:
        improved = False
        top = _single_top(widths, current_value)
        for i in range(n - 1):
            if evals >= budget:
                break
            evals += 1
            if i + 1 != top:
                continue
            c = current[i + 1]
            leaving, entering = ors[i]
            leaving |= out_e[c]
            entering |= into_e[c]
            w = _step(table, leaving & ~entering, c, widths[i],
                      current_value)
            if w >= current_value:
                continue
            current[i], current[i + 1] = c, current[i]
            ors[i + 1] = (leaving, entering)
            widths[i + 1] = w
            current_value = max(widths)
            top = _single_top(widths, current_value)
            improved = True
            if current_value < best_value:
                best_value = current_value
                best_order = list(current)
        if not improved and evals < budget:
            current = list(range(n))
            rng.shuffle(current)
            ors, widths = _prefix_scan(table, current, best_value + 1)
            current_value = max(widths)
            evals += 1
            if current_value < best_value:
                best_value = current_value
                best_order = list(current)
    return best_value, tuple(best_order)


def _single_top(widths: list[int], value: int) -> int:
    """Length of the one prefix of width `value`, or -1 if there are
    several."""
    top = widths.index(value)
    return top if value not in widths[top + 1:] else -1
