"""Tests for repro.durability.store (the persistent comparison store).

The trust model under test: committed entries survive process
restarts byte-for-byte; any validation failure — version stamps,
per-batch checksums and blob lengths, or an unreadable file — rebuilds
the store cold with a :class:`StoreRebuiltWarning` instead of serving
suspect judgments.
"""

import sqlite3

import numpy as np
import pytest

from repro.durability import PairBatch, PersistentComparisonStore, StoreRebuiltWarning
from repro.durability.store import _batch_checksum

KEY_A = ("f" * 64, "crowd", 3, 1, 5)
KEY_B = ("f" * 64, "experts", 1, 2, 9)
KEY_C = ("e" * 64, "crowd", 3, 0, 7)


def batch(*entries):
    """One column batch of ``(key, lo_wins)`` entries sharing a bucket."""
    fingerprint, pool, judgments = entries[0][0][:3]
    assert all(key[:3] == (fingerprint, pool, judgments) for key, _ in entries)
    return PairBatch(
        fingerprint,
        pool,
        judgments,
        np.asarray([key[3] for key, _ in entries]),
        np.asarray([key[4] for key, _ in entries]),
        np.asarray([wins for _, wins in entries], dtype=bool),
    )


def seeded_store(path):
    store = PersistentComparisonStore(path)
    store.write_entries([batch((KEY_A, True)), batch((KEY_B, False)), batch((KEY_C, True))])
    return store


def rewrite_first_batch(path, **columns):
    """Overwrite blob columns of the first stored batch behind the store's back."""
    conn = sqlite3.connect(path)
    with conn:
        seq, lo, hi, lo_wins = conn.execute(
            "SELECT seq, lo, hi, lo_wins FROM batches ORDER BY seq LIMIT 1"
        ).fetchone()
        blobs = {"lo": lo, "hi": hi, "lo_wins": lo_wins}
        for name, edit in columns.items():
            blobs[name] = edit(blobs[name])
        conn.execute(
            "UPDATE batches SET lo = ?, hi = ?, lo_wins = ? WHERE seq = ?",
            (blobs["lo"], blobs["hi"], blobs["lo_wins"], seq),
        )
    conn.close()


class TestRoundTrip:
    def test_load_returns_written_entries(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.load() == {KEY_A: True, KEY_B: False, KEY_C: True}
        assert len(store) == 3

    def test_entries_survive_reopen(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        reopened = PersistentComparisonStore(path)
        assert reopened.load() == {KEY_A: True, KEY_B: False, KEY_C: True}
        assert reopened.rebuilt_reason is None

    def test_write_is_upsert(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.write_entries([batch((KEY_A, False))]) == 1
        assert store.load()[KEY_A] is False
        assert len(store) == 3

    def test_empty_write_is_noop(self, tmp_path):
        store = PersistentComparisonStore(tmp_path / "c.sqlite3")
        assert store.write_entries([]) == 0
        empty = PairBatch("f" * 64, "crowd", 3, np.zeros(0), np.zeros(0), np.zeros(0))
        assert store.write_entries([empty]) == 0
        assert store.load() == {}

    def test_multi_pair_batch_is_one_row(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        store = PersistentComparisonStore(path)
        key_d = KEY_A[:3] + (2, 4)
        assert store.write_entries([batch((KEY_A, True), (key_d, False))]) == 2
        assert store.load() == {KEY_A: True, key_d: False}
        # A later batch overlapping the first upserts its pair; the
        # overlap counts once in len() and in invalidate().
        assert store.write_entries([batch((KEY_A, False))]) == 1
        assert store.load() == {KEY_A: False, key_d: False}
        assert len(store) == 2
        store.close()
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM batches").fetchone() == (2,)
        conn.close()
        assert PersistentComparisonStore(path).invalidate() == 2

    def test_iter_yields_entries(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert dict(store) == store.load()


class TestInvalidate:
    def test_by_fingerprint(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(fingerprint="f" * 64) == 2
        assert store.load() == {KEY_C: True}

    def test_by_pool(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(pool_name="crowd") == 2
        assert store.load() == {KEY_B: False}

    def test_intersection(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate(fingerprint="f" * 64, pool_name="crowd") == 1
        assert store.load() == {KEY_B: False, KEY_C: True}

    def test_everything(self, tmp_path):
        store = seeded_store(tmp_path / "c.sqlite3")
        assert store.invalidate() == 3
        assert store.load() == {}


class TestRebuild:
    def test_schema_version_mismatch_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning, match="schema_version mismatch"):
            store = PersistentComparisonStore(path, schema_version=99)
        assert store.load() == {}
        assert "schema_version" in store.rebuilt_reason

    def test_cache_version_mismatch_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning, match="cache_version mismatch"):
            store = PersistentComparisonStore(path, cache_version=2)
        assert store.load() == {}
        # The rebuilt store is stamped with the new version: reopening
        # at that version is clean and the entries stay gone.
        store.close()
        reopened = PersistentComparisonStore(path, cache_version=2)
        assert reopened.rebuilt_reason is None
        assert reopened.load() == {}

    def test_corrupted_row_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        # Flip one answer byte without updating the batch checksum.
        rewrite_first_batch(path, lo_wins=lambda blob: bytes([blob[0] ^ 1]) + blob[1:])
        with pytest.warns(StoreRebuiltWarning, match="checksum"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        assert "checksum" in store.rebuilt_reason

    def test_truncated_blob_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        rewrite_first_batch(path, lo=lambda blob: blob[:-1])
        with pytest.warns(StoreRebuiltWarning):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        assert store.rebuilt_reason is not None

    def test_mismatched_blob_lengths_rebuild_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        # An extra ``hi`` element under a checksum that matches it: only
        # the length check can tell the batch is malformed.
        rewrite_first_batch(path, hi=lambda blob: blob + blob)
        conn = sqlite3.connect(path)
        with conn:
            row = conn.execute(
                "SELECT seq, fingerprint, pool, judgments, lo, hi, lo_wins FROM batches"
                " ORDER BY seq LIMIT 1"
            ).fetchone()
            conn.execute(
                "UPDATE batches SET checksum = ? WHERE seq = ?",
                (_batch_checksum(*row[1:]), row[0]),
            )
        conn.close()
        with pytest.warns(StoreRebuiltWarning, match="blob lengths"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}

    def test_v1_store_rebuilds_cold_and_drops_old_table(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        conn = sqlite3.connect(path)
        with conn:
            # The schema-1 layout: one checksummed row per pair.
            conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
            conn.execute(
                "CREATE TABLE comparisons (fingerprint TEXT NOT NULL, pool TEXT NOT NULL,"
                " judgments INTEGER NOT NULL, lo INTEGER NOT NULL, hi INTEGER NOT NULL,"
                " lo_wins INTEGER NOT NULL, checksum TEXT NOT NULL,"
                " PRIMARY KEY (fingerprint, pool, judgments, lo, hi))"
            )
            conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
            conn.execute("INSERT INTO meta VALUES ('cache_version', '1')")
            conn.execute(
                "INSERT INTO comparisons VALUES (?, ?, ?, ?, ?, ?, ?)",
                (*KEY_A, 1, "0" * 16),
            )
        conn.close()
        with pytest.warns(StoreRebuiltWarning, match="schema_version mismatch"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        store.close()
        conn = sqlite3.connect(path)
        tables = {
            name for (name,) in conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
        }
        conn.close()
        assert "comparisons" not in tables
        assert "batches" in tables

    def test_garbage_file_rebuilds_cold(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        path.write_bytes(b"this is not a sqlite database, not even close\n" * 40)
        with pytest.warns(StoreRebuiltWarning, match="not a readable"):
            store = PersistentComparisonStore(path)
        assert store.load() == {}
        store.write_entries([batch((KEY_A, True))])
        store.close()
        assert PersistentComparisonStore(path).load() == {KEY_A: True}

    def test_rebuilt_store_is_usable(self, tmp_path):
        path = tmp_path / "c.sqlite3"
        seeded_store(path).close()
        with pytest.warns(StoreRebuiltWarning):
            store = PersistentComparisonStore(path, cache_version=2)
        store.write_entries([batch((KEY_B, True))])
        assert store.load() == {KEY_B: True}
