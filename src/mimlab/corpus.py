"""Isomorphism-free corpora of small graphs for exhaustive sweeps.

Graphs on n vertices are encoded as bitmasks over the C(n,2) vertex pairs
in lexicographic order.  The canonical form of a graph is the minimum mask
over all vertex relabelings; corpora are grown one vertex at a time (every
(n+1)-vertex graph arises from an n-vertex graph plus a new vertex with
some neighborhood) and deduplicated by canonical form.  Canonical forms
are table lookups: for each block of relabelings, one small table per
7-bit slice of the mask maps the slice's value to its relabeled bits, and
a relabeled mask is the OR of its slices' entries.  `canonical_mask`
keeps those tables for n <= 7 (about 7.7 MB at n = 7), so that single
masks cost a few gathers; the corpus build streams them.  The exhaustive
corpus is capped at n = 8; every default asks for n <= 7.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .graph import Graph, _connected

MAX_EXHAUSTIVE_N = 8

# Canonical-form kernel: mask bits per lookup table, relabelings per table
# set, and masks per gather.  The gather buffers hold _PERM_BLOCK *
# _ROW_BLOCK images whatever the batch size.
_SLICE = 7
_PERM_BLOCK = 256
_ROW_BLOCK = 256
# Largest n whose tables `canonical_mask` keeps.
_CACHED_TABLES_N = 7


def pair_order(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@functools.lru_cache(maxsize=None)
def _pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(pair_order(n))}


def _image_blocks(n: int):
    """Per block of _PERM_BLOCK permutations of range(n), the array whose
    entry [k, q] is the index of the pair that pair k becomes under the
    block's q-th permutation."""
    pairs = pair_order(n)
    where = np.zeros((n, n), dtype=np.intp)
    for k, (i, j) in enumerate(pairs):
        where[i, j] = where[j, i] = k
    first, second = np.array(pairs, dtype=np.intp).T
    perms = itertools.permutations(range(n))
    while block := list(itertools.islice(perms, _PERM_BLOCK)):
        p = np.array(block, dtype=np.intp).T
        yield where[p[first], p[second]]


def _check_mask(n: int, mask: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    bits = n * (n - 1) // 2
    if not 0 <= mask < 1 << bits:
        raise ValueError(
            f"mask {mask} is outside [0, 2^{bits}) for n={n}"
        )


def graph_from_mask(n: int, mask: int) -> Graph:
    _check_mask(n, mask)
    pairs = pair_order(n)
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return Graph(n, edges)


def mask_from_graph(g: Graph) -> int:
    idx = _pair_index(g.n)
    mask = 0
    for e in g.edges():
        mask |= 1 << idx[e]
    return mask


def _mask_dtype(n: int):
    """The narrowest integer type that holds the C(n,2) pair bits."""
    return np.int32 if n * (n - 1) // 2 <= 31 else np.int64


def _slice_tables(n: int):
    """Per block of relabelings, the list of its slice tables.

    `moved[k, p]` is the bit that pair k moves to under the block's
    relabeling p.  A slice's table maps each 7-bit slice value to the OR
    of its set pairs' moved bits, per relabeling; it is filled by
    doubling, rows 2^b .. 2^(b+1) - 1 being rows 0 .. 2^b - 1 with the
    slice's bit b added.
    """
    dtype = _mask_dtype(n)
    for images in _image_blocks(n):
        moved = np.left_shift(1, images, dtype=dtype)
        tables = []
        for s in range(0, len(moved), _SLICE):
            table = np.zeros((1 << _SLICE, moved.shape[1]), dtype=dtype)
            for b, bit in enumerate(moved[s:s + _SLICE]):
                np.bitwise_or(table[:1 << b], bit, out=table[1 << b:2 << b])
            tables.append(table)
        yield tables


@functools.lru_cache(maxsize=None)
def _cached_slice_tables(n: int) -> tuple[list[np.ndarray], ...]:
    return tuple(_slice_tables(n))


def _canonicalize_batch(n: int, masks: np.ndarray,
                        blocks=None) -> np.ndarray:
    """Elementwise minimum over all vertex relabelings of each mask.

    Each mask's images under a block of relabelings are one gather per
    slice table (`_slice_tables`, streamed unless `blocks` gives them),
    ORed together.  Needs n <= 11, so that the C(n,2) pair bits fit in
    an int64.
    """
    npairs = n * (n - 1) // 2
    dtype = _mask_dtype(n)
    best = masks.astype(dtype)
    keys = [(best >> s & (1 << _SLICE) - 1).astype(np.uint8)
            for s in range(0, npairs, _SLICE)]
    rows = min(_ROW_BLOCK, len(masks))
    image = np.empty(rows * _PERM_BLOCK, dtype=dtype)
    part = np.empty_like(image)
    low = np.empty(rows, dtype=dtype)
    for tables in _slice_tables(n) if blocks is None else blocks:
        for lo in range(0, len(masks), rows):
            hi = min(lo + rows, len(masks))
            shape = (hi - lo, tables[0].shape[1])
            out = image[:shape[0] * shape[1]].reshape(shape)
            tmp = part[:out.size].reshape(shape)
            # Keys are below 1 << _SLICE, so "clip" clips nothing; "raise"
            # would gather through a temporary copy of `out`.
            np.take(tables[0], keys[0][lo:hi], axis=0, out=out, mode="clip")
            for table, key in zip(tables[1:], keys[1:]):
                np.take(table, key[lo:hi], axis=0, out=tmp, mode="clip")
                out |= tmp
            np.minimum.reduce(out, axis=1, out=low[:hi - lo])
            np.minimum(best[lo:hi], low[:hi - lo], out=best[lo:hi])
    return best


def canonical_mask(n: int, mask: int) -> int:
    _check_mask(n, mask)
    if n > 11:
        raise ValueError(f"canonical forms need n <= 11, got n={n}")
    if n <= 1:
        return 0
    arr = np.array([mask], dtype=np.int64)
    blocks = _cached_slice_tables(n) if n <= _CACHED_TABLES_N else None
    return int(_canonicalize_batch(n, arr, blocks)[0])


@functools.lru_cache(maxsize=None)
def all_graph_masks(n: int) -> tuple[int, ...]:
    """Canonical masks of every graph on n vertices, one per class."""
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive corpus capped at n={MAX_EXHAUSTIVE_N}"
        )
    if n <= 1:
        return (0,)
    prev = all_graph_masks(n - 1)
    old_pairs = pair_order(n - 1)
    idx_n = _pair_index(n)
    remap = [idx_n[p] for p in old_pairs]
    new_vertex_bit = [1 << idx_n[(i, n - 1)] for i in range(n - 1)]
    # Precompute the pair-mask contributed by each neighborhood subset of
    # the new vertex.
    nb_mask = [0] * (1 << (n - 1))
    for nb in range(1, 1 << (n - 1)):
        low = nb & -nb
        nb_mask[nb] = nb_mask[nb ^ low] | new_vertex_bit[low.bit_length() - 1]
    candidates = set()
    for mask in prev:
        base = 0
        for k, dst in enumerate(remap):
            if mask >> k & 1:
                base |= 1 << dst
        for nb in range(1 << (n - 1)):
            candidates.add(base | nb_mask[nb])
    arr = np.array(sorted(candidates), dtype=np.int64)
    canon = _canonicalize_batch(n, arr)
    return tuple(int(x) for x in np.unique(canon))


@functools.lru_cache(maxsize=None)
def connected_graph_masks(n: int) -> tuple[int, ...]:
    return tuple(m for m, g in _graphs(n).items() if _connected(g.adj))


@functools.lru_cache(maxsize=None)
def _graphs(n: int) -> dict[int, Graph]:
    """Every class's graph on n vertices by canonical mask, built once:
    Graph is immutable, so both corpora share these objects."""
    return {m: graph_from_mask(n, m) for m in all_graph_masks(n)}


def all_graphs(n: int) -> list[Graph]:
    return list(_graphs(n).values())


def connected_graphs(n: int) -> list[Graph]:
    graphs = _graphs(n)
    return [graphs[m] for m in connected_graph_masks(n)]
