"""Persistent backing store for settled comparison judgments.

Comparisons are the unit of *money* in the paper's cost model — every
pairwise judgment is a paid crowd task — so the cross-job
:class:`~repro.scheduler.cache.ComparisonMemoCache` holds real spent
budget.  This module keeps that state alive across process restarts:
:class:`PersistentComparisonStore` is a SQLite (stdlib ``sqlite3``,
WAL mode) table of settled answers, one row per written batch:

``(seq, fingerprint, pool, judgments, lo, hi, lo_wins, checksum)``

where ``lo`` / ``hi`` are little-endian ``int32`` blobs and ``lo_wins``
a ``uint8`` blob, one element per pair, with ``lo < hi`` and the answer
normalised to "``lo`` wins", exactly mirroring the in-memory
normalisation.  Batches apply in ``seq`` order, so a later write of a
pair wins (upsert).

Trust model
-----------
A persistent store outlives the code that wrote it, so every open
validates before serving:

* a ``schema_version`` / ``cache_version`` stamp in the ``meta`` table
  — a mismatch (new code, old store or vice versa) **rebuilds cold**
  with a warning rather than serving judgments under a stale encoding;
* a per-batch checksum over the bucket key and all three blobs, plus a
  blob-length check — any batch that fails verification marks the
  whole store untrusted and it is rebuilt cold (reject-and-rebuild),
  because a store that tampers or bit-rots once cannot be trusted
  batch-by-batch.

Rebuilding loses only *cached reuse* (judgments will be re-bought);
it can never corrupt results, which is the right trade for a cache.
Writes go through SQLite transactions, so a crash mid-write leaves the
previous committed state, never a torn row.
"""

from __future__ import annotations

import hashlib
import sqlite3
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "STORE_SCHEMA_VERSION",
    "STORE_CACHE_VERSION",
    "PairBatch",
    "StoreRebuiltWarning",
    "PersistentComparisonStore",
]

#: Layout version of the SQLite schema itself (2: one row per batch).
STORE_SCHEMA_VERSION = 2

#: Version of the judgment *encoding* (key normalisation, answer
#: polarity).  Bump whenever cached answers written by older code must
#: not be reused, even though the table layout still parses.
STORE_CACHE_VERSION = 1

#: One store key as :meth:`PersistentComparisonStore.load` reports it:
#: (fingerprint, pool_name, judgments_per_task, lo, hi) with lo < hi.
Key = tuple[str, str, int, int, int]


class PairBatch(NamedTuple):
    """Settled answers of one bucket, column-wise.

    ``lo`` / ``hi`` hold the normalised pair indices and ``lo_wins``
    the answers, element ``k`` of each describing pair ``k``.
    """

    fingerprint: str
    pool: str
    judgments: int
    lo: np.ndarray
    hi: np.ndarray
    lo_wins: np.ndarray


class StoreRebuiltWarning(UserWarning):
    """A persistent store failed validation and was rebuilt cold."""


def _batch_checksum(
    fingerprint: str, pool: str, judgments: int, lo: bytes, hi: bytes, lo_wins: bytes
) -> str:
    """Checksum binding a batch's bucket key to every pair and answer."""
    digest = hashlib.sha256(f"{fingerprint}|{pool}|{judgments}|".encode("ascii"))
    for blob in (lo, hi, lo_wins):
        digest.update(blob)
    return digest.hexdigest()[:16]


class PersistentComparisonStore:
    """SQLite-backed map of settled comparisons, safe across restarts.

    Parameters
    ----------
    path:
        The database file (parent directories are created).
    schema_version, cache_version:
        Override the stamped versions — a test hook for exercising the
        mismatch-rebuild path; production code always uses the module
        constants.

    Opening validates the version stamps and **every batch's checksum
    and blob lengths**; any failure emits a :class:`StoreRebuiltWarning`
    and restarts the store cold (the reason is kept on
    :attr:`rebuilt_reason`).  The connection allows cross-thread use
    because the scheduler may be constructed and run on different
    threads, but access is expected to be serial (the scheduler's event
    loop is single-threaded).
    """

    def __init__(
        self,
        path: str | Path,
        schema_version: int = STORE_SCHEMA_VERSION,
        cache_version: int = STORE_CACHE_VERSION,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.schema_version = int(schema_version)
        self.cache_version = int(cache_version)
        #: Why the last open rebuilt the store, or ``None`` for a clean open.
        self.rebuilt_reason: str | None = None
        try:
            self._connect()
            self._ensure_schema()
        except sqlite3.DatabaseError:
            # Not a SQLite file at all (overwritten, bit-rotted header):
            # same trust model as a bad batch — start cold, loudly.
            self._conn.close()
            self.path.unlink(missing_ok=True)
            self._connect()
            self._rebuild("file is not a readable SQLite database")

    def _connect(self) -> None:
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        # FULL keeps every committed batch durable across power loss;
        # the store holds paid-for judgments, so losing a commit
        # re-spends money.
        self._conn.execute("PRAGMA synchronous=FULL")

    # ------------------------------------------------------------------
    # Schema / validation
    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        cur = self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
        )
        if cur.fetchone() is None:
            self._create_schema()
            return
        stamped_schema = self._meta("schema_version")
        stamped_cache = self._meta("cache_version")
        if stamped_schema != str(self.schema_version):
            self._rebuild(
                f"schema_version mismatch (store {stamped_schema!r}, "
                f"code {self.schema_version!r})"
            )
            return
        if stamped_cache != str(self.cache_version):
            self._rebuild(
                f"cache_version mismatch (store {stamped_cache!r}, "
                f"code {self.cache_version!r})"
            )
            return
        problem = self._batches_problem()
        if problem is not None:
            self._rebuild(problem)

    def _create_schema(self) -> None:
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS batches ("
                " seq INTEGER PRIMARY KEY,"
                " fingerprint TEXT NOT NULL,"
                " pool TEXT NOT NULL,"
                " judgments INTEGER NOT NULL,"
                " lo BLOB NOT NULL,"
                " hi BLOB NOT NULL,"
                " lo_wins BLOB NOT NULL,"
                " checksum TEXT NOT NULL)"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema_version', ?)",
                (str(self.schema_version),),
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta VALUES ('cache_version', ?)",
                (str(self.cache_version),),
            )

    def _meta(self, key: str) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else str(row[0])

    def _batches_problem(self) -> str | None:
        """Why the stored batches cannot be trusted, or ``None``."""
        try:
            rows = self._conn.execute(
                "SELECT fingerprint, pool, judgments, lo, hi, lo_wins, checksum"
                " FROM batches"
            )
            for fingerprint, pool, judgments, lo, hi, lo_wins, checksum in rows:
                if not len(lo) == len(hi) == 4 * len(lo_wins):
                    return "batch blob lengths mismatch (truncated or corrupted batch)"
                expected = _batch_checksum(
                    str(fingerprint), str(pool), int(judgments), lo, hi, lo_wins
                )
                if checksum != expected:
                    return "batch checksum mismatch (corrupted or tampered batch)"
        except sqlite3.DatabaseError:
            return "batch checksum mismatch (unreadable batches table)"
        return None

    def _rebuild(self, reason: str) -> None:
        """Drop everything and start cold, keeping the reason visible."""
        warnings.warn(
            f"persistent comparison store {self.path} rebuilt cold: {reason}",
            StoreRebuiltWarning,
            stacklevel=3,
        )
        self.rebuilt_reason = reason
        with self._conn:
            # ``comparisons`` is the one-row-per-pair table of schema 1.
            self._conn.execute("DROP TABLE IF EXISTS comparisons")
            self._conn.execute("DROP TABLE IF EXISTS batches")
            self._conn.execute("DROP TABLE IF EXISTS meta")
        self._create_schema()

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------
    def batches(self) -> Iterator[PairBatch]:
        """Stored batches in write (``seq``) order."""
        rows = self._conn.execute(
            "SELECT fingerprint, pool, judgments, lo, hi, lo_wins FROM batches ORDER BY seq"
        ).fetchall()
        for fingerprint, pool, judgments, lo, hi, lo_wins in rows:
            yield PairBatch(
                str(fingerprint),
                str(pool),
                int(judgments),
                np.frombuffer(lo, dtype="<i4"),
                np.frombuffer(hi, dtype="<i4"),
                np.frombuffer(lo_wins, dtype=np.uint8).astype(bool),
            )

    def load(self) -> dict[Key, bool]:
        """All stored judgments as an in-memory ``{key: lo_wins}`` map."""
        out: dict[Key, bool] = {}
        for fingerprint, pool, judgments, lo, hi, lo_wins in self.batches():
            out.update(
                ((fingerprint, pool, judgments, a, b), wins)
                for a, b, wins in zip(lo.tolist(), hi.tolist(), lo_wins.tolist())
            )
        return out

    def write_entries(self, batches: Iterable[PairBatch]) -> int:
        """Append column batches in one transaction; returns pairs written.

        Each non-empty batch becomes one row; a pair already stored is
        overwritten because later batches win on :meth:`load`.
        """
        rows = []
        for fingerprint, pool, judgments, lo, hi, lo_wins in batches:
            if not len(lo):
                continue
            blobs = (
                np.asarray(lo, dtype="<i4").tobytes(),
                np.asarray(hi, dtype="<i4").tobytes(),
                np.asarray(lo_wins, dtype=np.uint8).tobytes(),
            )
            key = (fingerprint, pool, int(judgments))
            rows.append((*key, *blobs, _batch_checksum(*key, *blobs)))
        if rows:
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO batches (fingerprint, pool, judgments, lo, hi,"
                    " lo_wins, checksum) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    rows,
                )
        return sum(len(row[5]) for row in rows)

    def invalidate(
        self, fingerprint: str | None = None, pool_name: str | None = None
    ) -> int:
        """Delete pairs matching the filters; returns how many were removed.

        The same selector semantics as the in-memory cache's
        ``invalidate``: no filters clears everything, ``fingerprint``
        one catalog, ``pool_name`` one worker class, both their
        intersection.  Batches are per bucket, so whole rows go.
        """
        clauses: list[str] = []
        params: list[object] = []
        if fingerprint is not None:
            clauses.append("fingerprint = ?")
            params.append(fingerprint)
        if pool_name is not None:
            clauses.append("pool = ?")
            params.append(pool_name)
        sql = "DELETE FROM batches"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        before = len(self)
        with self._conn:
            self._conn.execute(sql, params)
        return before - len(self)

    def __len__(self) -> int:
        return len(self.load())

    def close(self) -> None:
        """Close the connection (committed data stays on disk)."""
        self._conn.close()

    def __enter__(self) -> "PersistentComparisonStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[tuple[Key, bool]]:
        return iter(self.load().items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PersistentComparisonStore(path={str(self.path)!r}, "
            f"entries={len(self)})"
        )
