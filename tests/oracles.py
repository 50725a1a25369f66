"""Naive reference implementations used as independent test oracles.

Everything here works on plain sets and edge lists with no bit tricks and
no shared code with the library's search engines, except
`naive_min_obdd_sizes`, which takes its trace families from the library's
trace kernel and checks the min-size DP's non-dependence rule by a direct
scan.  `naive_canonical_mask` takes and returns pair masks, as the corpus
does, but numbers the pairs and relabels them on its own.  Exponential by
design; callers keep instances tiny.
"""

import functools
import itertools
import random

from mimlab.graph import Graph
from mimlab.traces import _trace_step, trace_masks


def edge_set(g: Graph) -> set:
    return set(g.edges())


def derived_edges(g: Graph, w: set, variant: str) -> set:
    comp = set(range(g.n)) - set(w)
    if variant == "lu":
        return {e for e in g.edges() if not (e[0] in comp and e[1] in comp)}
    if variant == "lmim":
        return {e for e in g.edges() if (e[0] in w) != (e[1] in w)}
    if variant == "lsim":
        return edge_set(g)
    raise ValueError(variant)


def _is_induced_matching(edges: set, combo) -> bool:
    """Pairwise disjoint edges, no edge of `edges` joining two of them."""
    if len({v for e in combo for v in e}) != 2 * len(combo):
        return False
    for (a, b), (c, d) in itertools.combinations(combo, 2):
        for x, y in ((a, c), (a, d), (b, c), (b, d)):
            if (min(x, y), max(x, y)) in edges:
                return False
    return True


def naive_max_induced_cut_matching(edges: set, w: set) -> int:
    """Max induced (w, rest)-matching of the graph given by `edges`."""
    return len(naive_lex_least_witness(edges, w))


def naive_lex_least_witness(edges: set, w: set) -> list:
    """Lexicographically least maximum induced (w, rest)-matching.

    The crossing edges are written (w-side, rest-side) and sorted, so
    `itertools.combinations` yields each size's selections in
    lexicographic order; the first induced one at the largest size wins.
    """
    crossing = sorted((a, b) if a in w else (b, a)
                      for a, b in edges if (a in w) != (b in w))
    for k in range(len(crossing), 0, -1):
        for combo in itertools.combinations(crossing, k):
            if _is_induced_matching(edges, combo):
                return list(combo)
    return []


def naive_prefix_width(g: Graph, w, variant: str) -> int:
    w = set(w)
    return naive_max_induced_cut_matching(derived_edges(g, w, variant), w)


def naive_width_of_ordering(g: Graph, pi, variant: str) -> int:
    w = set()
    best = 0
    for v in pi:
        w.add(v)
        best = max(best, naive_prefix_width(g, w, variant))
    return best


def naive_exact_width(g: Graph, variant: str) -> int:
    return min(
        naive_width_of_ordering(g, pi, variant)
        for pi in itertools.permutations(range(g.n))
    )


def naive_heuristic_width_upper(g: Graph, variant: str, seed: int = 0,
                                budget: int = 200) -> tuple:
    """(value, ordering) of the seeded hill climb over orderings, each
    ordering scored in full by `naive_width_of_ordering`.

    Adjacent transpositions i, i + 1 for i = 0, 1, ... are tried in turn
    and kept when they lower the current value; a sweep that keeps none
    is followed by a restart at a shuffled ordering.  The identity comes
    first, and every tried transposition or restart counts against
    `budget`.  A transposition is scored min(width, current value) and a
    restart min(width, best value + 1), so the current value after a
    restart is capped there too.
    """
    n = g.n
    if n == 0:
        return 0, ()
    rng = random.Random(seed)
    current = list(range(n))
    best_value = current_value = naive_width_of_ordering(g, current, variant)
    best_order = list(current)
    evals = 1
    while evals < budget and best_value > 0:
        improved = False
        for i in range(n - 1):
            if evals >= budget:
                break
            current[i], current[i + 1] = current[i + 1], current[i]
            value = min(naive_width_of_ordering(g, current, variant),
                        current_value)
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
            current_value = min(naive_width_of_ordering(g, current, variant),
                                best_value + 1)
            evals += 1
            if current_value < best_value:
                best_value = current_value
                best_order = list(current)
    return best_value, tuple(best_order)


def naive_independent_sets(g: Graph, u) -> list:
    u = sorted(u)
    edges = edge_set(g)
    out = []
    for k in range(len(u) + 1):
        for combo in itertools.combinations(u, k):
            if all(
                (min(a, b), max(a, b)) not in edges
                for a, b in itertools.combinations(combo, 2)
            ):
                out.append(frozenset(combo))
    return out


def naive_traces(g: Graph, u) -> set:
    u = set(u)
    comp = set(range(g.n)) - u
    fam = set()
    for s in naive_independent_sets(g, u):
        nb = set()
        for v in s:
            nb |= set(g.neighbors(v))
        fam.add(frozenset(nb & comp))
    return fam


def naive_enables(g: Graph, u, s) -> bool:
    """Partner search by brute force over injections into the far side."""
    u = set(u)
    s = sorted(s)
    comp = sorted(set(range(g.n)) - u)
    edges = edge_set(g)
    if not s:
        return True
    for partners in itertools.permutations(comp, len(s)):
        if any(
            (min(a, b), max(a, b)) not in edges
            for a, b in zip(s, partners)
        ):
            continue
        matching = list(zip(s, partners))
        ok = True
        for (a, b), (c, d) in itertools.combinations(matching, 2):
            for x, y in ((a, c), (a, d), (b, c), (b, d)):
                if (min(x, y), max(x, y)) in edges:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def naive_max_enabling_subset(enables, smask: int) -> int:
    """Lexicographically least maximum-size subset of the mask smask on
    which `enables` holds, by walking `itertools.combinations` of its
    members from the full size down."""
    bits = [1 << v for v in range(smask.bit_length()) if smask >> v & 1]
    for k in range(len(bits), 0, -1):
        for combo in itertools.combinations(bits, k):
            if enables(sum(combo)):
                return sum(combo)
    return 0


def naive_count_satisfying(g: Graph) -> int:
    count = 0
    for mask in range(1 << g.n):
        if all(mask >> u & 1 or mask >> v & 1 for u, v in g.edges()):
            count += 1
    return count


def naive_subfunction_count(g: Graph, prefix) -> int:
    """Distinct residual truth tables after assigning the prefix, built
    one assignment at a time by evaluating every clause.

    Prefix assignments with a clause already false are skipped; bit j of
    a table is the assignment setting the i-th remaining vertex, in
    ascending order, to bit i of j.
    """
    edges = g.edges()
    prefix = sorted(set(prefix))
    rest = [v for v in range(g.n) if v not in prefix]
    tables = set()
    for pick in itertools.product((False, True), repeat=len(prefix)):
        value = dict(zip(prefix, pick))
        if any(a in value and b in value and not (value[a] or value[b])
               for a, b in edges):
            continue
        table = 0
        for j in range(1 << len(rest)):
            for i, v in enumerate(rest):
                value[v] = bool(j >> i & 1)
            if all(value[a] or value[b] for a, b in edges):
                table |= 1 << j
        tables.add(table)
    return len(tables)


def naive_equiv_check(z, g: Graph) -> bool:
    """Walk the OBDD `z` from its root on every assignment and compare
    the sink reached with the clauses of g evaluated one by one."""
    edges = g.edges()
    for pick in itertools.product((False, True), repeat=g.n):
        node = z.root
        while node not in (0, 1):
            var, lo, hi = z.nodes[node]
            node = hi if pick[var] else lo
        if (node == 1) != all(pick[a] or pick[b] for a, b in edges):
            return False
    return True


def naive_vc_dimension(ground: list, family: set) -> int:
    best = 0
    for k in range(1, len(ground) + 1):
        found = False
        for combo in itertools.combinations(ground, k):
            shattered = {frozenset(set(combo) & tr) for tr in family}
            if len(shattered) == 1 << k:
                found = True
                break
        if not found:
            break
        best = k
    return best


def naive_exact_width_report(g: Graph, variant: str) -> tuple:
    """(value, witness, per_prefix) of the min-max subset DP.

    f(W) = max(naive_prefix_width(W), min over v in W of f(W - v)) over
    all vertex sets, built up by size; the witness removes, from the full
    set on, the smallest vertex v minimising f(W - v).
    """
    f = {frozenset(): 0}
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            w = frozenset(combo)
            f[w] = max(naive_prefix_width(g, w, variant),
                       min(f[w - {v}] for v in w))
    w = frozenset(range(g.n))
    removed = []
    while w:
        v = min(w, key=lambda x: (f[w - {x}], x))
        removed.append(v)
        w = w - {v}
    witness = tuple(reversed(removed))
    per_prefix = tuple(naive_prefix_width(g, witness[:i], variant)
                       for i in range(1, g.n + 1))
    return f[frozenset(range(g.n))], witness, per_prefix


def naive_min_obdd_sizes(g: Graph) -> tuple:
    """(size_quasi, size_total, order_quasi, order_total) by the subset DP
    that scans every trace for every (prefix set, next vertex) pair.

    The residual of trace t after W depends on v when v is forced true or
    keeps an undecided neighbour outside t; "G[V] has an edge" is tested
    on the edge list.  Ties break as in `min_obdd_size_exact`: the
    smallest vertex that can come last.
    """
    n = g.n
    full = (1 << n) - 1
    size = 1 << n
    adj = g.adj
    edges = g.edges()

    def has_edge(comp):
        return any(comp >> u & 1 and comp >> v & 1 for u, v in edges)

    INF = 1 << 60
    gq = [INF] * size
    hr = [INF] * size
    gq[0] = 0
    hr[0] = 0
    fams = [{0}] * (n + 1)
    for wmask in range(size):
        comp = full ^ wmask
        p = wmask.bit_count()
        if p:
            b = wmask & -wmask
            fams[p] = _trace_step(fams[p - 1], adj[b.bit_length() - 1], b, comp)
        tr = fams[p]
        live = len(tr) - (0 if has_edge(comp) else 1)
        base_q = gq[wmask] + live
        base_r = hr[wmask]
        rest = comp
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            tgt = wmask | b
            if base_q < gq[tgt]:
                gq[tgt] = base_q
            av = adj[v]
            dep = 0
            for t in tr:
                if t & b or av & comp & ~t:
                    dep += 1
            cand = base_r + dep
            if cand < hr[tgt]:
                hr[tgt] = cand

    def reconstruct(table, term):
        order_rev = []
        wmask = full
        while wmask:
            v = next(v for v in range(n) if wmask >> v & 1
                     and table[wmask ^ 1 << v] + term(wmask ^ 1 << v, v)
                     == table[wmask])
            order_rev.append(v)
            wmask ^= 1 << v
        return tuple(reversed(order_rev))

    def live_term(prev, _v):
        comp = full ^ prev
        return len(trace_masks(g, prev)) - (0 if has_edge(comp) else 1)

    def dep_term(prev, v):
        comp = full ^ prev
        b = 1 << v
        return sum(1 for t in trace_masks(g, prev)
                   if t & b or adj[v] & comp & ~t)

    return (gq[full] + 2, hr[full] + 2,
            reconstruct(gq, live_term), reconstruct(hr, dep_term))


@functools.lru_cache(maxsize=None)
def _relabeled_pair_bits(n: int) -> list:
    """Per pair {i, j}, in lexicographic order, the bit of the pair
    {p[i], p[j]} for every permutation p of range(n)."""
    pairs = list(itertools.combinations(range(n), 2))
    bit = {}
    for k, (i, j) in enumerate(pairs):
        bit[i, j] = bit[j, i] = 1 << k
    perms = list(itertools.permutations(range(n)))
    return [tuple(bit[p[i], p[j]] for p in perms) for i, j in pairs]


def naive_canonical_mask(n: int, mask: int) -> int:
    """Least pair mask over every relabeling of the graph `mask` encodes.

    Bit k of a mask is the k-th vertex pair in lexicographic order.  A
    relabeled mask is the sum of its edges' new bits, one column each.
    """
    columns = [col for k, col in enumerate(_relabeled_pair_bits(n))
               if mask >> k & 1]
    return min(map(sum, zip(*columns))) if columns else 0
