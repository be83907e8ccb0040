"""The one journal reader (repro.service.journal.JsonlJournal.read).

Every handle — a writing store, the supervisor's idle poll, a read-only
``status --follow`` — reads a live journal through this reader, so it
must never block on, choke on, or mis-deliver the states a concurrent
fsync-append writer (or its death) can leave behind: torn tails,
damaged middles, and wholesale file replacement.  The truncation test
mirrors the store's torn-tail property test — every byte offset of the
final record is a valid file state.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.service import JobRequest, JobStore
from repro.service.journal import JournalError, JsonlJournal


def make_journal(path, n=3, kind="service-journal", version=1):
    journal = JsonlJournal(path, kind=kind, version=version)
    for index in range(n):
        journal.append({"event": "submit", "seq": index})
    return journal


def reader(path, kind="service-journal", version=1):
    return JsonlJournal(path, kind=kind, version=version, readonly=True)


class TestIncremental:
    def test_first_poll_delivers_everything(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=3)
        follower = reader(journal.path)
        assert [r["seq"] for r in follower.records] == [0, 1, 2]
        journal.close()

    def test_later_polls_deliver_only_new_records(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=2)
        follower = reader(journal.path)
        assert follower.read() == []
        journal.append({"event": "start", "seq": 2})
        records = follower.read()
        assert len(records) == 1 and records[0]["seq"] == 2
        assert [r["seq"] for r in follower.records] == [0, 1, 2]
        journal.close()

    def test_missing_file_is_quietly_empty(self, tmp_path):
        follower = reader(tmp_path / "absent.jsonl")
        assert follower.records == [] and follower.read() == []

    def test_offset_counts_bytes_not_records(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=2)
        follower = reader(journal.path)
        assert follower.offset == os.path.getsize(journal.path)
        assert journal.offset == follower.offset
        journal.close()

    def test_own_appends_are_never_redelivered(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job_id, _ = store.submit(JobRequest("simulate", {"benchmark": "gcc"}))
        store.claim(job_id)
        before = store.counters()
        assert store.refresh() == []
        assert store.counters() == before
        assert store.journal.offset == os.path.getsize(store.journal.path)
        store.close()


class TestTornTail:
    def test_torn_tail_stays_unconsumed_until_complete(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=1)
        journal.close()
        follower = reader(tmp_path / "j.jsonl")
        assert len(follower.records) == 1
        # A writer mid-append: half a record, no newline yet.
        line = json.dumps({"event": "done", "seq": 9}) + "\n"
        with open(tmp_path / "j.jsonl", "ab") as handle:
            handle.write(line[: len(line) // 2].encode())
        assert follower.read() == []
        assert follower.skipped == 0
        with open(tmp_path / "j.jsonl", "ab") as handle:
            handle.write(line[len(line) // 2:].encode())
        records = follower.read()
        assert len(records) == 1 and records[0]["seq"] == 9

    def test_truncate_at_every_byte_never_raises(self, tmp_path):
        """Every prefix of a journal is a readable file state."""
        source = tmp_path / "full.jsonl"
        journal = make_journal(source, n=3)
        journal.close()
        blob = source.read_bytes()
        header_len = blob.index(b"\n") + 1
        target = tmp_path / "j.jsonl"
        for cut in range(len(blob) + 1):
            target.write_bytes(blob[:cut])
            follower = reader(target)
            records = follower.records
            # Only whole records, in order, never an exception.
            assert [r["seq"] for r in records] == list(range(len(records)))
            assert len(records) == max(0, blob[:cut].count(b"\n") - 1)
            if cut < header_len:
                assert records == []
            assert follower.skipped == 0

    def test_header_mid_write_is_not_yet_followable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"kind": "service-jour')
        follower = reader(path)
        assert follower.records == [] and follower.read() == []
        assert follower.rotations == 0
        assert follower.offset == 0


class TestDamage:
    def test_damaged_middle_is_skipped_and_counted(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=1)
        journal.close()
        with open(tmp_path / "j.jsonl", "ab") as handle:
            handle.write(b"\x00\xff garbage \x00\n")
        journal = JsonlJournal(
            tmp_path / "j.jsonl", kind="service-journal", version=1
        )
        journal.append({"event": "done", "seq": 1})
        journal.close()
        follower = reader(tmp_path / "j.jsonl")
        assert [r["seq"] for r in follower.records] == [0, 1]
        assert follower.skipped == 1

    def test_non_dict_line_is_counted_not_delivered(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", n=1)
        follower = reader(tmp_path / "j.jsonl")
        with open(tmp_path / "j.jsonl", "ab") as handle:
            handle.write(b'[1, 2, 3]\n')
        journal.append({"event": "done", "seq": 1})
        journal.close()
        assert [r["seq"] for r in follower.read()] == [1]
        assert follower.skipped == 1


class TestRotation:
    def test_replaced_file_resets_to_new_beginning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = make_journal(path, n=2)
        journal.close()
        follower = reader(path)
        assert len(follower.records) == 2
        # Operator deletes the store and starts over: same path, same
        # header bytes, brand-new file.
        os.unlink(path)
        assert follower.read() == []
        journal = JsonlJournal(path, kind="service-journal", version=1)
        journal.append({"event": "submit", "seq": 100})
        records = follower.read()
        assert [r["seq"] for r in records] == [100]
        assert [r["seq"] for r in follower.records] == [100]
        assert follower.rotations == 1
        journal.close()

    def test_truncated_in_place_resets(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = make_journal(path, n=3)
        journal.close()
        follower = reader(path)
        assert len(follower.records) == 3
        blob = path.read_bytes()
        header_len = blob.index(b"\n") + 1
        first_record_end = blob.index(b"\n", header_len) + 1
        path.write_bytes(blob[:first_record_end])
        records = follower.read()
        assert [r["seq"] for r in records] == [0]
        assert follower.rotations == 1

    def test_kind_mismatch_raises_loudly(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", kind="campaign")
        journal.close()
        with pytest.raises(JournalError, match="refusing to mix"):
            reader(tmp_path / "j.jsonl")

    def test_version_mismatch_raises_loudly(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl", version=99)
        journal.close()
        with pytest.raises(JournalError, match="version 99, not 1"):
            reader(tmp_path / "j.jsonl")

    def test_rotation_to_wrong_kind_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = make_journal(path, n=1)
        journal.close()
        follower = reader(path)
        os.unlink(path)
        other = JsonlJournal(path, kind="campaign", version=1)
        other.close()
        with pytest.raises(JournalError):
            follower.read()

    @pytest.mark.parametrize("how", ["replaced", "truncated", "removed"])
    def test_writing_handle_raises_on_rotation(self, tmp_path, how):
        path = tmp_path / "j.jsonl"
        journal = make_journal(path, n=2)
        blob = path.read_bytes()
        if how == "truncated":
            path.write_bytes(blob[: blob.index(b"\n") + 1])
        else:
            os.unlink(path)
            if how == "replaced":
                make_journal(path, n=3).close()
        size = path.stat().st_size if path.exists() else None
        with pytest.raises(JournalError, match="writing handle"):
            journal.read()
        with pytest.raises(JournalError, match="writing handle"):
            journal.append({"event": "submit", "seq": 9})
        # Nothing was appended into either file.
        assert (path.stat().st_size if path.exists() else None) == size
        journal.close()
