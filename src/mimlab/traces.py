"""Trace families of independent sets and the enabling-subset shrinker.

For a vertex split (U, V) the trace of an independent S inside U is the
neighborhood it leaves on V.  The family of all traces governs how many
distinct residual constraints a prefix of variables can produce, and when
V is independent every trace is already realized by some small subset that
additionally "enables" an induced cut matching; `shrink_to_enabler` finds
such a subset constructively and keeps an audit log of its moves.

`trace_masks` never enumerates independent sets: it adds the vertices of U
one at a time and derives each family from the previous one with
`_trace_step`, the forced-set transition that `obdd.min_obdd_size_exact`
shares.  Its work budget counts the family entries processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BudgetExceededError
from .graph import (
    Graph,
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
    input_set: frozenset[int]
    output_set: frozenset[int]
    trace: frozenset[int]
    steps: tuple[ShrinkStep, ...] = field(default=())


def independent_set_masks(
    g: Graph, umask: int, *, budget: int | None = None,
    max_size: int | None = None,
) -> Iterator[int]:
    """Independent subsets of umask as bitmasks, by size then lexicographic
    on the ascending vertex tuple."""
    limit = budget or DEFAULT_ENUM_BUDGET
    members = list(vertices_of(umask))
    top = len(members) if max_size is None else min(max_size, len(members))
    visited = 0
    adj = g.adj

    def by_size(k: int, start: int, cur: int, banned: int):
        nonlocal visited
        visited += 1
        if visited > limit:
            raise BudgetExceededError("independent set enumeration", limit)
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


def trace_masks(
    g: Graph, umask: int, *, budget: int | None = None
) -> set[int]:
    """The family {N(S) & V : S independent inside umask} as bitmasks, V
    the complement of umask.

    Starts from T(empty) = {0} and adds the vertices of umask in ascending
    order with `_trace_step`.  `budget` (default 2^24) caps the family
    entries processed over all steps.
    """
    limit = budget or DEFAULT_ENUM_BUDGET
    adj = g.adj
    rest = g.full_mask()
    fam = {0}
    work = 0
    m = umask
    while m:
        bv = m & -m
        m ^= bv
        work += len(fam)
        if work > limit:
            raise BudgetExceededError("trace family transition", limit)
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
    u-side endpoints."""
    umask = mask_of(u, g.n)
    smask = mask_of(s, g.n)
    if smask & ~umask:
        raise ValueError("s is not a subset of u")
    if not is_independent_mask(g, smask):
        raise ValueError("s is not independent")
    return _enables_mask(g, umask, smask)


def _enables_mask(g: Graph, umask: int, smask: int) -> bool:
    comp = g.full_mask() & ~umask
    adj = g.adj
    svs = list(vertices_of(smask))
    # A partner of s_i may not touch any other member of s.
    allowed = []
    for v in svs:
        others = smask & ~(1 << v)
        a = adj[v] & comp
        o = others
        while o:
            b = o & -o
            o ^= b
            a &= ~adj[b.bit_length() - 1]
        if not a:
            return False
        allowed.append(a)
    order = sorted(range(len(svs)), key=lambda i: allowed[i].bit_count())

    def rec(idx: int, forbidden: int) -> bool:
        if idx == len(order):
            return True
        cand = allowed[order[idx]] & ~forbidden
        while cand:
            b = cand & -cand
            cand ^= b
            if rec(idx + 1, forbidden | b | adj[b.bit_length() - 1]):
                return True
        return False

    return rec(0, 0)


class _EnablingTable:
    """Memoized enabling status over independent subsets of one cut."""

    def __init__(self, g: Graph, umask: int):
        self.g = g
        self.umask = umask
        self.cache: dict[int, bool] = {0: True}

    def __call__(self, smask: int) -> bool:
        hit = self.cache.get(smask)
        if hit is None:
            hit = _enables_mask(self.g, self.umask, smask)
            self.cache[smask] = hit
        return hit


def _max_enabling_subset(g: Graph, enables, smask: int) -> int:
    """Lexicographically least maximum-size enabling subset of smask."""
    members = list(vertices_of(smask))
    for k in range(len(members), 0, -1):
        found = _first_enabling_of_size(g, enables, members, k, 0, 0)
        if found is not None:
            return found
    return 0


def _first_enabling_of_size(g, enables, members, k, start, cur):
    if k == 0:
        return cur if enables(cur) else None
    for i in range(start, len(members) - k + 1):
        got = _first_enabling_of_size(
            g, enables, members, k - 1, i + 1, cur | 1 << members[i]
        )
        if got is not None:
            return got
    return None


def shrink_to_enabler(
    g: Graph,
    u: Iterable[int],
    s: Iterable[int],
    *,
    _enabling: "_EnablingTable | None" = None,
) -> ShrinkResult:
    """Shrink s to an enabling subset with the same trace on V.

    Requires V = rest independent and s an independent subset of u.  Two
    moves alternate until the working set enables an induced cut matching:

    * eliminate - drop a member whose individual trace (neighbors on V not
      covered by the rest of the set) is empty; the smallest index is
      chosen when several qualify.
    * recombine - around the lexicographically least maximum enabling
      subset S0 and the smallest outside member w, reduce S0 + {w} by
      eliminations, then continue with the reduction united with the
      untouched remainder.

    Both moves preserve the trace, so the output has the same trace as
    the input, enables a matching, and hence has size at most the largest
    induced cut matching across (u, V).

    `_enabling` is sweep plumbing: a shared memo table for the enabling
    predicate when many sets of the same cut are shrunk.
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

    enables = _enabling if _enabling is not None else _EnablingTable(g, umask)
    steps: list[ShrinkStep] = []
    adj = g.adj

    def eliminate_until_enabling(tmask: int) -> int:
        while not enables(tmask):
            dropped = None
            for v in vertices_of(tmask):
                rest = tmask & ~(1 << v)
                individual = (adj[v] & comp) & ~(
                    neighborhood_mask(g, rest) & comp
                )
                if not individual:
                    dropped = v
                    break
            if dropped is None:  # pragma: no cover - impossible when
                # the complement side is independent
                raise AssertionError("no eliminable member found")
            tmask &= ~(1 << dropped)
            steps.append(ShrinkStep("eliminate", (dropped,)))
        return tmask

    cur = smask
    while not enables(cur):
        s0 = _max_enabling_subset(g, enables, cur)
        outside = cur & ~s0
        w = (outside & -outside).bit_length() - 1
        reduced = eliminate_until_enabling(s0 | 1 << w)
        remainder = cur & ~(s0 | 1 << w)
        steps.append(
            ShrinkStep(
                "recombine",
                (
                    tuple(vertices_of(s0)),
                    w,
                    tuple(vertices_of(reduced)),
                    tuple(vertices_of(remainder)),
                ),
            )
        )
        cur = reduced | remainder

    return ShrinkResult(
        input_set=frozenset(vertices_of(smask)),
        output_set=frozenset(vertices_of(cur)),
        trace=frozenset(vertices_of(neighborhood_mask(g, cur) & comp)),
        steps=tuple(steps),
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
    subsets of size <= r already generate every trace.  Those subsets are
    enumerated directly, so the last verdict also compares `trace_masks`
    with an independent enumeration.
    """
    umask = mask_of(u, g.n)
    comp = g.full_mask() & ~umask
    if not is_independent_mask(g, comp):
        raise ValueError("complement side is not independent")
    full = trace_masks(g, umask, budget=budget)
    r, _ = max_induced_cut_matching(g, vertices_of(umask))
    small = {
        neighborhood_mask(g, s) & comp
        for s in independent_set_masks(g, umask, budget=budget, max_size=r)
    }
    k = umask.bit_count()
    binom = sum(math.comb(k, i) for i in range(r + 1))
    power = g.n ** (r + 1)
    t = len(full)
    return TraceBoundReport(
        n=g.n,
        side_size=k,
        trace_count=t,
        matching_size=r,
        binomial_bound=binom,
        power_bound=power,
        within_binomial=t <= binom,
        within_power=t <= power,
        small_sets_generate_all=small == full,
    )


def vc_dimension(ts: TraceSet, *, budget: int | None = None) -> int:
    """Largest k such that some k-subset of side_v is shattered by the
    trace family.  Exhaustive, with an early cap at log2(family size)."""
    limit = budget or DEFAULT_ENUM_BUDGET
    ground = sorted(ts.side_v)
    pos = {v: i for i, v in enumerate(ground)}
    fam = [
        sum(1 << pos[v] for v in tr) for tr in ts.members
    ]
    if not fam:
        return 0
    best = 0
    max_k = min(len(ground), max(len(fam).bit_length() - 1, 0))
    work = 0
    from itertools import combinations

    for k in range(1, max_k + 1):
        shattered = False
        for combo in combinations(range(len(ground)), k):
            wmask = 0
            for i in combo:
                wmask |= 1 << i
            work += len(fam)
            if work > limit:
                raise BudgetExceededError("VC shattering search", limit)
            seen = {f & wmask for f in fam}
            if len(seen) == 1 << k:
                shattered = True
                break
        if not shattered:
            break
        best = k
    return best
