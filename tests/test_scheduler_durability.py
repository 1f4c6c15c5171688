"""Tests for journaled, cache-persisted scheduler runs (repro.durability).

The resume contract under test (see docs/DURABILITY.md):

* a durable run is bit-identical to a plain (non-durable) run — the
  journal and SQLite write-throughs are pure observers;
* resuming from any journal prefix (every reachable crash state)
  replays the journaled batches without touching the platform and
  finishes bit-identical to the uninterrupted run, with zero
  re-spent comparisons for settled batches;
* the journal binds to its workload — resuming a different one fails
  loudly rather than replaying the wrong answers;
* invalidation evicts from the in-memory cache and the SQLite store
  together.
"""

import json

import pytest

from repro.durability import (
    DurabilityPolicy,
    JobJournal,
    JournalMismatchError,
    PersistentComparisonStore,
)
from repro.experiments.bench_durability import run_durable_workload
from repro.experiments.bench_scheduler import SchedulerWorkload
from repro.scheduler import CrowdScheduler, DurableComparisonCache
from repro.telemetry import Tracer

WORKLOAD = dict(seed=901, n_jobs=4, n=60, u_n=3, catalogs=2)


def make_workload():
    return SchedulerWorkload(**WORKLOAD)


def run_plain(quantum=16):
    workload = make_workload()
    scheduler = CrowdScheduler(
        workload.pools(), root_seed=workload.seed, quantum=quantum
    )
    for job in workload.jobs():
        scheduler.submit(job)
    return scheduler.run()


def fingerprints(outcomes):
    """Settle-order identity: index, status, answer, and exact bills."""
    out = []
    for o in sorted(outcomes, key=lambda o: o.ticket.index):
        ledger = o.ticket.platform.ledger
        out.append(
            (
                o.ticket.index,
                o.settle_index,
                o.status,
                tuple(o.result.answer) if o.result is not None else None,
                ledger.total_cost,
                tuple(
                    (label, entry.operations, entry.money)
                    for label, entry in sorted(ledger.entries.items())
                ),
            )
        )
    return out


class TestDurableEqualsPlain:
    def test_durable_run_matches_plain_run(self, tmp_path):
        plain = run_plain()
        durable, scheduler, _ = run_durable_workload(
            make_workload(), tmp_path / "state", quantum=16
        )
        assert fingerprints(durable) == fingerprints(plain)
        assert scheduler.replayed_batches == 0
        assert (tmp_path / "state" / "journal.jsonl").exists()
        assert (tmp_path / "state" / "comparisons.sqlite3").exists()


class TestResume:
    def test_full_journal_resume_is_identical_and_free(self, tmp_path):
        state = tmp_path / "state"
        first, first_sched, _ = run_durable_workload(make_workload(), state)
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches > 0
        # Every ledger operation was replayed, none bought live.
        total_ops = sum(
            o.ticket.platform.ledger.operations() for o in resumed
        )
        assert sched.replayed_operations == total_ops

    @pytest.mark.parametrize("keep_records", [1, 3, 8])
    def test_prefix_resume_matches_uninterrupted(self, tmp_path, keep_records):
        """Crash states: journal prefix kept, store deleted (max-behind)."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        lines = journal_path.read_text().splitlines(keepends=True)
        if keep_records >= len(lines):
            pytest.skip("prefix longer than the journal")
        journal_path.write_text("".join(lines[:keep_records]))
        (state / "comparisons.sqlite3").unlink()
        kept_serves = sum(
            1 for r in JobJournal.recover(journal_path) if r["kind"] == "serve"
        )
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == kept_serves

    def test_resume_after_torn_tail(self, tmp_path):
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        with journal_path.open("ab") as fh:
            fh.write(b'{"kind": "serve", "torn')
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches > 0

    def test_journal_rejects_different_workload(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "seed": 902})
        with pytest.raises(JournalMismatchError):
            run_durable_workload(other, state)

    def test_journal_rejects_different_job_count(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        other = SchedulerWorkload(**{**WORKLOAD, "n_jobs": 3})
        with pytest.raises(JournalMismatchError):
            run_durable_workload(other, state)

    def test_journal_header_written_once(self, tmp_path):
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        run_durable_workload(make_workload(), state)
        records = JobJournal.recover(state / "journal.jsonl")
        assert sum(1 for r in records if r["kind"] == "header") == 1


class TestJournalCompatibility:
    @pytest.mark.parametrize("keep_records", [3, None])
    def test_header_with_legacy_fusion_key_resumes(self, tmp_path, keep_records):
        """Journals recorded while the scheduler still had a ``fusion``
        flag carry ``"fusion": true`` in their header.  The header check
        compares only the current workload facts, so such a journal
        (whole, or cut to a crash prefix) resumes bit-identically."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        records = JobJournal.recover(journal_path)[:keep_records]
        journal_path.unlink()
        (state / "comparisons.sqlite3").unlink()
        journal = JobJournal(journal_path)
        for record in records:
            fields = {k: v for k, v in record.items() if k not in ("crc", "kind")}
            if record["kind"] == "header":
                fields["fusion"] = True
            journal.append(record["kind"], **fields)
        journal.close()
        assert JobJournal.recover(journal_path)[0]["fusion"] is True
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == sum(1 for r in records if r["kind"] == "serve")


    @pytest.mark.parametrize("keep_records", [3, None])
    def test_old_line_format_resumes(self, tmp_path, keep_records):
        """Journals written before records were encoded once hold
        ``json.dumps(record, sort_keys=True)`` lines (spaced, ``crc``
        sorted among the other keys).  The CRC covers the payload, not
        the line, so such a journal recovers and resumes bit-identically."""
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        journal_path = state / "journal.jsonl"
        records = JobJournal.recover(journal_path)[:keep_records]
        journal_path.write_text(
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        )
        (state / "comparisons.sqlite3").unlink()
        assert JobJournal.recover(journal_path) == records
        resumed, sched, _ = run_durable_workload(make_workload(), state)
        assert fingerprints(resumed) == fingerprints(first)
        assert sched.replayed_batches == sum(1 for r in records if r["kind"] == "serve")


class TestWarmCache:
    def test_warm_run_buys_nothing(self, tmp_path):
        state = tmp_path / "state"
        first, _, _ = run_durable_workload(make_workload(), state)
        (state / "journal.jsonl").unlink()
        warm, sched, _ = run_durable_workload(make_workload(), state)
        assert isinstance(sched.cache, DurableComparisonCache)
        assert sched.cache.warm_entries > 0
        assert sched.cache.misses == 0
        assert sched.replayed_batches == 0
        answers = lambda outs: [  # noqa: E731
            tuple(o.result.answer) for o in sorted(outs, key=lambda o: o.ticket.index)
        ]
        assert answers(warm) == answers(first)

    def test_journal_disabled_policy_still_persists_cache(self, tmp_path):
        state = tmp_path / "state"
        workload = make_workload()
        policy = DurabilityPolicy(state, journal=False)
        scheduler = CrowdScheduler(
            workload.pools(), root_seed=workload.seed, durability=policy
        )
        for job in workload.jobs():
            scheduler.submit(job)
        scheduler.run()
        assert not (state / "journal.jsonl").exists()
        assert (state / "comparisons.sqlite3").exists()


class TestDurableInvalidate:
    def warmed_cache(self, tmp_path):
        """A durable cache warm-loaded from a completed run's store."""
        state = tmp_path / "state"
        run_durable_workload(make_workload(), state)
        store = PersistentComparisonStore(state / "comparisons.sqlite3")
        return DurableComparisonCache(store)

    def test_invalidate_mirrors_to_store(self, tmp_path):
        cache = self.warmed_cache(tmp_path)
        before = len(cache)
        assert len(cache.store) == before > 0
        removed = cache.invalidate(pool_name="crowd")
        assert 0 < removed <= before
        assert len(cache) == before - removed
        assert len(cache.store) == before - removed

    def test_invalidate_emits_event_and_returns_count(self, tmp_path):
        cache = self.warmed_cache(tmp_path)
        tracer = Tracer()
        cache.tracer = tracer
        before = len(cache)
        removed = cache.invalidate()
        assert removed == before > 0
        events = tracer.records_of_kind("cache_invalidated")
        assert len(events) == 1
        assert events[0]["removed"] == removed
