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
graphs of small width touch a small part of the 2^n sets.

The conflict rule between two crossing edges does not depend on the cut,
and every edge crossing W that does not leave its newest vertex c also
crosses W - c.  So a new matching must use the newest vertex's edges: a
matching across W larger than any across W - c uses exactly one edge
leaving c.  Wherever the width of W - c is already bounded, the engines
search W's larger matchings only through c's edges
(`_EdgeTable.exists_through`).  The absolute queries (`prefix_width`,
`width_of_ordering`) keep the full search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .graph import Graph, WidthVariant, _EdgeTable, _Work, mask_of

DEFAULT_EXACT_LIMIT = 24
DEFAULT_HEURISTIC_BUDGET = 200


@dataclass(frozen=True)
class WidthReport:
    variant: WidthVariant
    value: int
    witness: tuple[int, ...]
    per_prefix: tuple[int, ...]
    exact: bool = True


def prefix_width(
    g: Graph,
    w: Iterable[int],
    variant: WidthVariant,
    *,
    budget: int | None = None,
) -> int:
    """Largest induced cut matching across the (w, rest) cut.

    Depends only on the set w.  Equals the exact maximum induced
    (w, rest)-matching of the upper subgraph (LU), the cut graph (LMIM),
    or g itself (LSIM).
    """
    table = _EdgeTable(g, variant)
    work = _Work(budget, "prefix width search") if budget else None
    return table.max_size(table.crossing(mask_of(w, g.n)), work)


def prefix_width_witness(
    g: Graph, w: Iterable[int], variant: WidthVariant
) -> tuple[int, list[tuple[int, int]]]:
    """Prefix width together with its lexicographically least witness."""
    table = _EdgeTable(g, variant)
    return table.lex_witness(table.crossing(mask_of(w, g.n)))


def width_of_ordering(
    g: Graph, pi: Sequence[int], variant: WidthVariant
) -> tuple[int, list[int]]:
    """Max prefix width along the ordering, plus all per-prefix widths."""
    _check_permutation(g, pi)
    table = _EdgeTable(g, variant)
    per_prefix = []
    leaving = entering = 0
    for v in pi:
        leaving |= table.out[v]
        entering |= table.into[v]
        per_prefix.append(table.max_size(leaving & ~entering))
    return max(per_prefix, default=0), per_prefix


def _width_of_ordering_capped(
    table: _EdgeTable, pi: Sequence[int], cap: int
) -> int:
    """Width of the ordering under the graph's edge table, or `cap` as
    soon as it cannot beat `cap`.

    `best` is at least the width of the previous prefix, so a larger
    matching must use the newest vertex's edges: each step searches
    through the edges leaving v only."""
    best = 0
    leaving = entering = 0
    for v in pi:
        leaving |= table.out[v]
        entering |= table.into[v]
        cand = leaving & ~entering
        through = cand & table.out[v]
        while best < cap and table.exists_through(cand, through, best + 1):
            best += 1
        if best >= cap:
            return cap
    return best


def _check_permutation(g: Graph, pi: Sequence[int]) -> None:
    if sorted(pi) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")


def exact_width(
    g: Graph,
    variant: WidthVariant,
    *,
    limit: int = DEFAULT_EXACT_LIMIT,
    budget: int | None = None,
) -> WidthReport:
    """Exact width minimum over all vertex orderings, with a witness.

    With f(W) = max(prefix_width(W), min over v in W of f(W - v)), the
    width is f of the full vertex set.  A threshold search finds it: for
    k = 0, 1, ... walk, by popcount, the prefix sets W with f(W) <= k,
    each reached from a predecessor with f <= k, until the walk reaches
    the full set.  Every set with f(W) <= k has a minimising predecessor
    that the walk also visits, so f is exact on the visited sets; f and
    the proven lower bound on the prefix width of each rejected set carry
    over from one threshold to the next.  Small widths therefore visit a
    small part of the 2^n sets.

    A tested set W is reached with a minimising predecessor W - c, and
    f(W - c) = m bounds the prefix width of W - c.  Every query asks for
    a matching larger than m, so a new matching must use the newest
    vertex's edges, and each query searches through the edges leaving c
    only.  The same loop ORs W's edge masks, so the crossing edges cost
    nothing extra.

    The witness is reconstructed by always removing the smallest-index
    minimizing vertex, so it is canonical.  Guarded by `limit` on n
    (2^n-byte tables); `budget`, when given, caps the number of sets
    tested (counted once per popcount layer) and raises
    BudgetExceededError past it.
    """
    n = g.n
    if n > limit:
        raise BudgetExceededError(f"exact width DP on {n} vertices", limit)
    work = _Work(budget, "exact width search") if budget else None
    if n == 0:
        return WidthReport(variant, 0, (), ())
    full = (1 << n) - 1
    size = 1 << n
    table = _EdgeTable(g, variant)
    out_e, into_e = table.out, table.into

    # f[W] is exact once set, and 255 until then.  lb[W] is a proven
    # lower bound on prefix_width(W), raised each time W is rejected.
    f = bytearray(b"\xff") * size
    lb = bytearray(size)
    f[0] = 0
    k = 0
    while True:
        layer = {0}
        for _ in range(n):
            nxt = set()
            tested = 0
            for s in layer:
                out = full ^ s
                while out:
                    b = out & -out
                    out ^= b
                    wmask = s | b
                    if f[wmask] != 255:
                        nxt.add(wmask)
                        continue
                    if lb[wmask] > k:
                        continue
                    tested += 1
                    m = 255
                    leaving = entering = 0
                    w = wmask
                    while w:
                        c = w & -w
                        w ^= c
                        x = c.bit_length() - 1
                        leaving |= out_e[x]
                        entering |= into_e[x]
                        t = f[wmask ^ c]
                        if t < m:
                            m = t
                            newest = x
                    p = max(m, lb[wmask])
                    cand = leaving & ~entering
                    through = cand & out_e[newest]
                    while p <= k and table.exists_through(cand, through,
                                                          p + 1):
                        p += 1
                    if p > k:
                        lb[wmask] = p
                    else:
                        f[wmask] = p
                        nxt.add(wmask)
            if work is not None:
                work.tick(tested)
            layer = nxt
        if layer:
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
            t = f[wmask ^ b]
            if t < best_f:
                best_f = t
                best_v = b.bit_length() - 1
        order_rev.append(best_v)
        wmask ^= 1 << best_v
    witness = tuple(reversed(order_rev))
    check, per_prefix = width_of_ordering(g, witness, variant)
    if check != value:  # pragma: no cover - internal consistency
        raise AssertionError("witness width disagrees with search value")
    return WidthReport(variant, value, witness, tuple(per_prefix))


def heuristic_width_upper(
    g: Graph,
    variant: WidthVariant,
    seed: int = 0,
    budget: int = DEFAULT_HEURISTIC_BUDGET,
) -> tuple[int, tuple[int, ...]]:
    """Upper-bound the width by local search over orderings.

    Hill climbing on adjacent transpositions with seeded random restarts;
    the identity ordering is always the first candidate, and `budget`
    caps the number of ordering evaluations.  The result is the exact
    width of the best ordering found, hence always >= the true width.
    """
    n = g.n
    if n == 0:
        return 0, ()
    rng = random.Random(seed)
    table = _EdgeTable(g, variant)
    best_order = list(range(n))
    best_value, _ = width_of_ordering(g, best_order, variant)
    evals = 1
    current = list(best_order)
    current_value = best_value
    while evals < budget and best_value > 0:
        improved = False
        for i in range(n - 1):
            if evals >= budget:
                break
            current[i], current[i + 1] = current[i + 1], current[i]
            value = _width_of_ordering_capped(table, current, current_value)
            evals += 1
            if value < current_value:
                current_value = value
                improved = True
                if value < best_value:
                    best_value = value
                    best_order = list(current)
            else:
                current[i], current[i + 1] = current[i + 1], current[i]
        if not improved and evals < budget:
            current = list(range(n))
            rng.shuffle(current)
            current_value = _width_of_ordering_capped(table, current,
                                                      best_value + 1)
            evals += 1
            if current_value < best_value:
                best_value = current_value
                best_order = list(current)
    return best_value, tuple(best_order)
