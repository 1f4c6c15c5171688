"""Tests for repro.durability.journal (append-only CRC-framed journal).

The framing contract under test: every append is fsynced whole;
recovery reads the longest intact prefix, truncates anything after it
(torn line, garbage, CRC failure), and leaves the file well-formed for
further appends.
"""

import json

from repro.durability import JobJournal


def fill(path, n=3):
    with JobJournal(path) as journal:
        for k in range(n):
            journal.append("serve", seq=k, payload=[k, k + 1])
    return path


class TestRoundTrip:
    def test_append_then_recover(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["kind"] == "serve" for r in records)

    def test_missing_file_recovers_empty(self, tmp_path):
        assert JobJournal.recover(tmp_path / "absent.jsonl") == []

    def test_line_is_compact_body_with_crc_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JobJournal(path) as journal:
            record = journal.append("serve", seq=0, answers=[True, False], pool="crowd")
        line = path.read_text()
        assert line == "{" + f'"crc":"{record["crc"]}",' + (
            '"answers":[true,false],"kind":"serve","pool":"crowd","seq":0}\n'
        )
        assert json.loads(line) == record

    def test_append_counts(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.append("header", a=1)
        journal.append("serve", b=2)
        assert journal.appends == 2
        journal.close()


class TestTornTail:
    def test_unterminated_tail_is_truncated(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b'{"crc": "dead", "kind": "serve", "seq"')  # torn mid-record
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert path.read_bytes() == intact

    def test_garbage_tail_is_truncated(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        intact = path.read_bytes()
        with path.open("ab") as fh:
            fh.write(b"\x00\xffnot json at all\n")
        assert len(JobJournal.recover(path)) == 3
        assert path.read_bytes() == intact

    def test_crc_mismatch_drops_record(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        lines = path.read_bytes().splitlines(keepends=True)
        tampered = json.loads(lines[-1])
        tampered["payload"] = [9, 9]  # change payload, keep stale crc
        lines[-1] = (json.dumps(tampered, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert path.read_bytes() == b"".join(lines[:-1])

    def test_recovery_stops_at_first_bad_line(self, tmp_path):
        # A valid record *after* a torn one is still dropped: the
        # journal is a prefix log, not a salvage heap.
        path = fill(tmp_path / "j.jsonl", n=2)
        good = JobJournal.recover(path)
        with path.open("ab") as fh:
            fh.write(b"garbage\n")
        fill_again = JobJournal(path)
        fill_again.append("serve", seq=99)
        fill_again.close()
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [r["seq"] for r in good]

    def test_appends_extend_recovered_journal(self, tmp_path):
        path = fill(tmp_path / "j.jsonl")
        with path.open("ab") as fh:
            fh.write(b'{"half a rec')
        JobJournal.recover(path)
        with JobJournal(path) as journal:
            journal.append("settled", seq=3)
        records = JobJournal.recover(path)
        assert [r["seq"] for r in records] == [0, 1, 2, 3]
