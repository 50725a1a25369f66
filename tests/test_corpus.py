import random

import numpy as np
import pytest

from mimlab import corpus

from oracles import naive_canonical_mask


# OEIS A000088 and A001349.
KNOWN_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _mask_count(n):
    return 1 << n * (n - 1) // 2


@pytest.mark.parametrize("n", sorted(KNOWN_ALL))
def test_class_counts(n):
    assert len(corpus.all_graph_masks(n)) == KNOWN_ALL[n]
    assert len(corpus.connected_graph_masks(n)) == KNOWN_CONNECTED[n]


def test_cap():
    with pytest.raises(ValueError):
        corpus.all_graph_masks(corpus.MAX_EXHAUSTIVE_N + 1)


def test_canonical_invariant_under_relabeling():
    rng = random.Random(0)
    for n in (4, 5, 6):
        pairs = corpus.pair_order(n)
        for _ in range(25):
            mask = rng.randrange(1 << len(pairs))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = 0
            for k, (i, j) in enumerate(pairs):
                if mask >> k & 1:
                    a, b = perm[i], perm[j]
                    idx = pairs.index((min(a, b), max(a, b)))
                    relabeled |= 1 << idx
            assert corpus.canonical_mask(n, mask) == \
                corpus.canonical_mask(n, relabeled)


def test_mask_round_trip():
    for mask in corpus.all_graph_masks(5):
        g = corpus.graph_from_mask(5, mask)
        assert corpus.mask_from_graph(g) == mask


def test_masks_are_canonical():
    for mask in corpus.all_graph_masks(5):
        assert corpus.canonical_mask(5, mask) == mask


def test_corpus_is_deterministic():
    assert corpus.all_graph_masks(6) == tuple(sorted(corpus.all_graph_masks(6)))


@pytest.mark.parametrize("fn", [corpus.canonical_mask, corpus.graph_from_mask])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_mask_out_of_range(fn, n):
    top = _mask_count(n)
    for mask in (-1, top, top << 7):
        with pytest.raises(ValueError, match="outside"):
            fn(n, mask)
    fn(n, top - 1)


@pytest.mark.parametrize("fn", [corpus.canonical_mask, corpus.graph_from_mask])
def test_negative_vertex_count(fn):
    with pytest.raises(ValueError, match="nonnegative"):
        fn(-1, 0)


@pytest.mark.parametrize("n", range(6))
def test_canonical_matches_oracle_on_every_mask(n):
    for mask in range(_mask_count(n)):
        assert corpus.canonical_mask(n, mask) == naive_canonical_mask(n, mask)


@pytest.mark.parametrize("n, count", [(6, 2000), (7, 2000), (8, 6)])
def test_canonical_matches_oracle_on_random_masks(n, count):
    rng = random.Random(n)
    top = _mask_count(n)
    masks = [0, top - 1] + [rng.randrange(top) for _ in range(count)]
    expected = [naive_canonical_mask(n, m) for m in masks]
    assert [corpus.canonical_mask(n, m) for m in masks] == expected
    # As one batch, 2,002 masks span several row blocks and end in a
    # partial one.
    batch = corpus._canonicalize_batch(n, np.array(masks, dtype=np.int64))
    assert batch.tolist() == expected


def test_canonical_mask_past_32_pair_bits():
    # n = 9 has 36 pair bits.  The star on the last vertex uses the top
    # pair bit, and its canonical form is the star on vertex 0.
    star = sum(1 << k for k, pair in enumerate(corpus.pair_order(9))
               if pair[1] == 8)
    assert star >> 35 & 1
    assert corpus.canonical_mask(9, star) == (1 << 8) - 1


@pytest.mark.parametrize("n", range(1, 6))
def test_corpus_is_the_set_of_oracle_forms(n):
    forms = {naive_canonical_mask(n, m) for m in range(_mask_count(n))}
    assert corpus.all_graph_masks(n) == tuple(sorted(forms))
