"""Tests for the columnar cross-job comparison cache (repro.scheduler.cache).

The cache keeps one ``{pair_code: lo_wins}`` dict per bucket
``(fingerprint, pool, judgments)``.  The property test below checks it
against the obvious reference: one flat ``dict[(fp, pool, j, lo, hi)]``
of normalised answers, driven through random sequences of lookups,
stores and invalidations in both pair orientations.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import PersistentComparisonStore
from repro.scheduler.cache import ComparisonMemoCache, DurableComparisonCache, pair_codes

FINGERPRINTS = ("fa", "fb")
POOLS = ("crowd", "experts")
JUDGMENTS = (1, 3)


class TestPairCodes:
    def test_orientation_shares_one_code(self):
        codes, flipped = pair_codes(np.asarray([3, 7, 5]), np.asarray([7, 3, 5]))
        assert codes.tolist() == [3 << 32 | 7, 3 << 32 | 7, 5 << 32 | 5]
        assert flipped.tolist() == [False, True, False]

    def test_largest_index_is_exact(self):
        top = 2**31 - 1
        codes, _ = pair_codes(np.asarray([top]), np.asarray([0]))
        assert codes.tolist() == [top]
        codes, _ = pair_codes(np.asarray([top]), np.asarray([top - 1]))
        assert codes.tolist() == [(top - 1) << 32 | top]

    @pytest.mark.parametrize(
        "i, j", [([-1], [2]), ([2], [-1]), ([2**31], [0]), ([0], [2**31]), ([0, 1], [2**40, 1])]
    )
    def test_out_of_range_index_raises(self, i, j):
        with pytest.raises(ValueError, match="pair indices"):
            pair_codes(np.asarray(i), np.asarray(j))

    def test_cache_refuses_out_of_range_pairs(self):
        cache = ComparisonMemoCache()
        big = np.asarray([2**31])
        with pytest.raises(ValueError):
            cache.store_batch("fa", "crowd", 1, big, np.asarray([0]), np.asarray([True]))
        with pytest.raises(ValueError):
            cache.lookup_batch("fa", "crowd", 1, np.asarray([-1]), np.asarray([0]))
        assert len(cache) == 0
        assert cache.lookups == 0

    def test_empty_batch(self):
        codes, flipped = pair_codes(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
        assert codes.shape == flipped.shape == (0,)


# ----------------------------------------------------------------------
# Property: columnar cache == flat reference dict
# ----------------------------------------------------------------------
buckets = st.tuples(
    st.sampled_from(FINGERPRINTS), st.sampled_from(POOLS), st.sampled_from(JUDGMENTS)
)
pairs = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), buckets, pairs),
        st.tuples(st.just("store"), buckets, pairs, st.randoms(use_true_random=False)),
        st.tuples(
            st.just("invalidate"),
            st.sampled_from((None,) + FINGERPRINTS),
            st.sampled_from((None,) + POOLS),
        ),
    ),
    max_size=25,
)


class Reference:
    """The flat ``(fp, pool, j, lo, hi) -> lo_wins`` model."""

    def __init__(self):
        self.entries = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, bucket, batch):
        hit_mask, answers = [], []
        for i, j in batch:
            lo_wins = self.entries.get((*bucket, min(i, j), max(i, j)))
            hit_mask.append(lo_wins is not None)
            answers.append(lo_wins is not None and (lo_wins if i <= j else not lo_wins))
        self.hits += sum(hit_mask)
        self.misses += len(batch) - sum(hit_mask)
        return hit_mask, answers

    def store(self, bucket, batch, answers):
        for (i, j), first_wins in zip(batch, answers):
            self.entries[(*bucket, min(i, j), max(i, j))] = (
                first_wins if i <= j else not first_wins
            )

    def invalidate(self, fingerprint, pool):
        doomed = [
            key
            for key in self.entries
            if (fingerprint is None or key[0] == fingerprint)
            and (pool is None or key[1] == pool)
        ]
        for key in doomed:
            del self.entries[key]
        return len(doomed)


def columns(batch):
    i = np.asarray([p[0] for p in batch], dtype=np.intp)
    j = np.asarray([p[1] for p in batch], dtype=np.intp)
    return i, j


def replay(cache, ops):
    """Drive ``cache`` and the reference through ``ops``; compare every answer."""
    ref = Reference()
    for op in ops:
        if op[0] == "lookup":
            _, bucket, batch = op
            hit_mask, answers = cache.lookup_batch(*bucket, *columns(batch))
            want_mask, want_answers = ref.lookup(bucket, batch)
            assert hit_mask.dtype == answers.dtype == np.bool_
            assert hit_mask.tolist() == want_mask
            assert answers.tolist() == want_answers
        elif op[0] == "store":
            _, bucket, batch, rand = op
            answers = [rand.random() < 0.5 for _ in batch]
            cache.store_batch(*bucket, *columns(batch), np.asarray(answers, dtype=bool))
            ref.store(bucket, batch, answers)
        else:
            _, fingerprint, pool = op
            assert cache.invalidate(fingerprint=fingerprint, pool_name=pool) == ref.invalidate(
                fingerprint, pool
            )
        assert (cache.hits, cache.misses, len(cache)) == (ref.hits, ref.misses, len(ref.entries))
    return ref


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_cache_matches_reference_model(ops):
    replay(ComparisonMemoCache(), ops)


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_durable_cache_matches_reference_model_and_reloads(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.sqlite3"
        cache = DurableComparisonCache(PersistentComparisonStore(path))
        ref = replay(cache, ops)
        cache.close()
        store = PersistentComparisonStore(path)
        assert store.rebuilt_reason is None
        assert store.load() == ref.entries
        assert len(store) == len(ref.entries)
        warm = DurableComparisonCache(store)
        assert warm.warm_entries == len(ref.entries)
        for key, lo_wins in ref.entries.items():
            hit, answer = warm.lookup_batch(*key[:3], np.asarray([key[3]]), np.asarray([key[4]]))
            assert hit.tolist() == [True] and answer.tolist() == [lo_wins]
        warm.close()
