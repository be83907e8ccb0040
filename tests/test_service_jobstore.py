"""Durable job store: journal, dedup, quotas, recovery (repro.service).

The crash-safety contract under test: the journal is the source of
truth, the in-memory view is a pure fold over it, and a process killed
at *any* byte of a journal append leaves a store that reopens cleanly
and loses at most the work the torn record described.  The
truncate-at-every-offset test drives exactly that property.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.service import (
    JobRequest,
    JobStore,
    JournalError,
    JsonlJournal,
    QuotaExceeded,
    ServiceError,
    request_key,
)
from repro.service.jobstore import DONE, FAILED, QUEUED, RUNNING


def fresh_store(tmp_path, **kwargs):
    return JobStore(tmp_path / "store", **kwargs)


def submit_sim(store, benchmark="gcc", client="default", **params):
    request = JobRequest(
        kind="simulate",
        params={"benchmark": benchmark, "core": "braid", "scale": 0.05,
                "width": 8, "max_instructions": 3000, **params},
        client=client,
    )
    return store.submit(request)


class TestRequestKey:
    def test_key_is_canonical_over_ordering_and_tuples(self):
        a = request_key("simulate", {"benchmark": "gcc", "scale": 0.2})
        b = request_key("simulate", {"scale": 0.2, "benchmark": "gcc"})
        assert a == b
        assert request_key("sweep", {"benchmarks": ("gcc", "mcf")}) == \
            request_key("sweep", {"benchmarks": ["gcc", "mcf"]})

    def test_key_separates_kinds_and_params(self):
        params = {"benchmarks": ["gcc"]}
        assert request_key("sweep", params) != request_key("faults", params)
        assert request_key("sweep", params) != request_key(
            "sweep", {"benchmarks": ["mcf"]}
        )

    def test_non_json_params_are_rejected(self):
        with pytest.raises(ServiceError):
            request_key("simulate", {"benchmark": object()})


class TestSubmitAndDedup:
    def test_submit_queues_and_journals(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, coalesced = submit_sim(store)
        assert not coalesced
        job = store.job(job_id)
        assert job.status == QUEUED and job.client == "default"
        assert store.counters()["submitted"] == 1
        store.close()

    def test_identical_requests_coalesce_across_clients(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store, client="alice")
        dup_id, coalesced = submit_sim(store, client="bob")
        assert coalesced and dup_id == job_id
        assert store.counters()["coalesced"] == 1
        assert store.job(job_id).coalesced == 1
        store.close()

    def test_coalesce_counter_survives_restart(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store, client="alice")
        submit_sim(store, client="bob")
        store.close()
        reopened = fresh_store(tmp_path)
        assert reopened.counters()["coalesced"] == 1
        assert reopened.job(job_id).coalesced == 1
        reopened.close()

    def test_permanently_failed_job_does_not_absorb(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.fail(job_id, "ValueError: boom", permanent=True, attempts=1)
        new_id, coalesced = submit_sim(store)
        assert not coalesced and new_id != job_id
        store.close()

    def test_unknown_kind_is_rejected(self, tmp_path):
        store = fresh_store(tmp_path)
        with pytest.raises(ServiceError):
            store.submit(JobRequest(kind="mine-bitcoin", params={}))
        store.close()


def submit_overlapping(root, client, barrier):
    """Twenty submissions over ten distinct requests, from one process
    whose store was opened before any process submitted."""
    store = JobStore(root)
    barrier.wait(timeout=60)
    for n in range(20):
        submit_sim(store, benchmark=f"bench{n % 10}", client=client)
    store.close()


class TestTwoHandles:
    def test_concurrent_processes_never_share_a_seq(self, tmp_path):
        root = tmp_path / "store"
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(4)
        workers = [
            context.Process(target=submit_overlapping,
                            args=(root, f"c{i}", barrier))
            for i in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0] * 4
        store = JobStore(root, readonly=True)
        assert sorted(job.seq for job in store.jobs.values()) == list(
            range(1, 11)
        )
        counters = store.counters()
        assert counters["submitted"] == 10
        assert counters["coalesced"] == 70
        assert counters["torn_lines"] == 0
        store.close()

    def test_cross_handle_submits_get_distinct_seqs_and_coalesce(
        self, tmp_path
    ):
        first = fresh_store(tmp_path)
        second = fresh_store(tmp_path)
        a, _ = submit_sim(first, benchmark="gcc")
        b, _ = submit_sim(second, benchmark="mcf")
        assert first.job(a).seq == 1 and second.job(b).seq == 2
        # Each handle folds the other's submit before deciding, so an
        # identical request through either one coalesces onto job a.
        for store in (first, second):
            dup, coalesced = submit_sim(store, benchmark="gcc")
            assert coalesced and dup == a
        for store in (first, second):
            store.refresh()
            counters = store.counters()
            assert counters["submitted"] == 2
            assert counters["coalesced"] == 2
            assert sorted(job.seq for job in store.jobs.values()) == [1, 2]
        first.close()
        second.close()

    def test_quota_counts_the_other_handles_jobs(self, tmp_path):
        first = fresh_store(tmp_path, quota=1)
        second = fresh_store(tmp_path, quota=1)
        submit_sim(first, benchmark="gcc", client="c")
        with pytest.raises(QuotaExceeded):
            submit_sim(second, benchmark="mcf", client="c")
        first.close()
        second.close()

    def test_claim_sees_the_other_handles_claim(self, tmp_path):
        first = fresh_store(tmp_path)
        job_id, _ = submit_sim(first)
        second = fresh_store(tmp_path)
        first.claim(job_id)
        with pytest.raises(ServiceError, match="status is 'running'"):
            second.claim(job_id)
        first.close()
        second.close()


class TestQuota:
    def test_quota_bounds_active_jobs_per_client(self, tmp_path):
        store = fresh_store(tmp_path, quota=2)
        submit_sim(store, benchmark="gcc", client="greedy")
        submit_sim(store, benchmark="mcf", client="greedy")
        with pytest.raises(QuotaExceeded):
            submit_sim(store, benchmark="swim", client="greedy")
        # Other clients are unaffected: quotas are per client.
        _, coalesced = submit_sim(store, benchmark="swim", client="polite")
        assert not coalesced
        store.close()

    def test_settled_jobs_release_quota(self, tmp_path):
        store = fresh_store(tmp_path, quota=1)
        job_id, _ = submit_sim(store, benchmark="gcc", client="c")
        store.claim(job_id)
        store.fail(job_id, "ValueError: x", permanent=True, attempts=1)
        _, coalesced = submit_sim(store, benchmark="mcf", client="c")
        assert not coalesced
        store.close()

    def test_duplicate_coalesces_before_quota(self, tmp_path):
        # A dedup'd resubmission adds no work, so it must not be
        # rejected even when the client is at its quota.
        store = fresh_store(tmp_path, quota=1)
        job_id, _ = submit_sim(store, client="c")
        dup_id, coalesced = submit_sim(store, client="c")
        assert coalesced and dup_id == job_id
        store.close()


class TestScheduling:
    def test_runnable_round_robins_across_clients(self, tmp_path):
        store = fresh_store(tmp_path)
        a1, _ = submit_sim(store, benchmark="gcc", client="a")
        a2, _ = submit_sim(store, benchmark="mcf", client="a")
        a3, _ = submit_sim(store, benchmark="swim", client="a")
        b1, _ = submit_sim(store, benchmark="equake", client="b")
        order = [job.job_id for job in store.runnable()]
        # Client b's single job lands in round one, not after all of a's.
        assert order == [a1, b1, a2, a3]
        store.close()

    def test_claim_requires_queued(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        assert store.job(job_id).status == RUNNING
        with pytest.raises(ServiceError):
            store.claim(job_id)
        store.close()


class TestResultsAndRecovery:
    def test_complete_publishes_result_before_done(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.complete(job_id, {"ipc": 1.25}, attempts=1)
        assert store.job(job_id).status == DONE
        assert store.result(job_id) == {"ipc": 1.25}
        # The result rides in the journal's done record, and a fresh
        # fold of the journal alone reads it back.
        done = store.journal.records[-1]
        assert set(done) == {"event", "job", "attempts", "result",
                             "ts", "mono", "pid"}
        assert done["event"] == "done" and done["result"] == {"ipc": 1.25}
        assert fresh_store(tmp_path, readonly=True).result(job_id) == {
            "ipc": 1.25}
        store.close()

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.close()  # supervisor "dies" with the job running
        reopened = fresh_store(tmp_path)
        assert reopened.interrupted() == [job_id]
        recovery = reopened.recover()
        assert recovery["interrupted"] == [job_id]
        job = reopened.job(job_id)
        assert job.status == QUEUED and job.recovered == 1
        reopened.close()

    def test_recover_heals_lost_results(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.complete(job_id, {"ipc": 1.0}, attempts=1)
        store.close()
        # Corrupt the done line, which holds the payload, behind the
        # store's back.
        journal = tmp_path / "store" / "journal.jsonl"
        lines = journal.read_bytes().split(b"\n")
        [at] = [i for i, line in enumerate(lines) if b'"done"' in line]
        lines[at] = b"\x00 corrupt \x00" + lines[at][11:]
        journal.write_bytes(b"\n".join(lines))
        reopened = fresh_store(tmp_path)
        # The damaged line was skipped and counted, not silently lost:
        # the job reads as running with no result.
        assert reopened.counters()["torn_lines"] == 1
        assert reopened.job(job_id).status == RUNNING
        assert reopened.result(job_id) is None
        recovery = reopened.recover()
        assert recovery["interrupted"] == [job_id]
        job = reopened.job(job_id)
        assert job.status == QUEUED and job.recovered == 1
        reopened.close()

    def test_requeue_and_fail_track_attempts(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.requeue(job_id, "result store write failed: disk full",
                      attempts=1)
        job = store.job(job_id)
        assert job.status == QUEUED and job.attempts == 1
        store.claim(job_id)
        store.fail(job_id, "wall-clock timeout", permanent=False,
                   attempts=2)
        job = store.job(job_id)
        assert job.status == FAILED and job.attempts == 2
        assert not job.permanent
        store.close()


class TestJournalSafety:
    def test_foreign_journal_kind_is_refused(self, tmp_path):
        root = tmp_path / "store"
        store = JobStore(root)
        store.close()
        journal = root / "journal.jsonl"
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["kind"] = "faults-journal"
        journal.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        with pytest.raises(ServiceError):
            JobStore(root)

    def test_future_format_version_is_refused(self, tmp_path):
        root = tmp_path / "store"
        store = JobStore(root)
        store.close()
        journal = root / "journal.jsonl"
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = header["version"] + 1
        journal.write_text(
            "\n".join([json.dumps(header)] + lines[1:]) + "\n"
        )
        with pytest.raises(ServiceError):
            JobStore(root)

    def test_damaged_middle_line_counts_orphans(self, tmp_path):
        store = fresh_store(tmp_path)
        job_id, _ = submit_sim(store)
        store.claim(job_id)
        store.close()
        journal = tmp_path / "store" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        # Destroy the submit record; the start record becomes an orphan.
        assert json.loads(lines[1])["event"] == "submit"
        lines[1] = '{"event": "subm'
        journal.write_text("\n".join(lines) + "\n")
        reopened = fresh_store(tmp_path)
        counters = reopened.counters()
        assert counters["torn_lines"] == 1
        assert counters["orphaned_events"] == 1
        reopened.close()


class TestTornTailProperty:
    """Truncate the journal at every byte of its final record.

    Property: whatever the cut point, the store reopens without error,
    replays every record before the final one, and the final record is
    either fully applied (the newline made it to disk) or cleanly lost.
    """

    def _journal_with_history(self, tmp_path):
        store = fresh_store(tmp_path)
        j1, _ = submit_sim(store, benchmark="gcc", client="a")
        submit_sim(store, benchmark="gcc", client="b")  # coalesce
        j2, _ = submit_sim(store, benchmark="mcf", client="b")
        store.claim(j1)
        store.complete(j1, {"ipc": 1.5}, attempts=1)
        store.claim(j2)  # final record: j2's start event
        store.close()
        return tmp_path / "store" / "journal.jsonl", j1, j2

    def test_every_truncation_offset_reopens_cleanly(self, tmp_path):
        journal, j1, j2 = self._journal_with_history(tmp_path)
        data = journal.read_bytes()
        final_start = data[:-1].rfind(b"\n") + 1
        assert final_start > 0
        for cut in range(final_start, len(data) + 1):
            journal.write_bytes(data[:cut])
            store = fresh_store(tmp_path)
            counters = store.counters()
            # Everything before the final record always replays.
            assert counters["submitted"] == 2
            assert counters["coalesced"] == 1
            assert counters["completed"] == 1
            assert store.job(j1).status == DONE
            assert store.result(j1) == {"ipc": 1.5}
            # The torn final record either applied fully or not at all.
            # The record's JSON is complete from len(data)-1 on (the
            # trailing newline is not part of the record).
            applied = store.job(j2).status == RUNNING
            assert applied == (cut >= len(data) - 1)
            torn = counters["torn_lines"]
            assert torn == (0 if applied or cut == final_start else 1)
            store.close()

    @pytest.mark.parametrize("offset_fraction", [0.25, 0.5, 0.9])
    def test_truncated_store_resumes_to_full_service(
        self, tmp_path, offset_fraction
    ):
        # A few cut points taken further: the reopened store must not
        # just load — it must carry on as if the crash never happened.
        journal, j1, j2 = self._journal_with_history(tmp_path)
        data = journal.read_bytes()
        final_start = data[:-1].rfind(b"\n") + 1
        cut = final_start + int(
            (len(data) - final_start) * offset_fraction
        )
        journal.write_bytes(data[:cut])
        store = fresh_store(tmp_path)
        recovery = store.recover()
        assert recovery == {"interrupted": []}
        store.claim(j2)
        store.complete(j2, {"ipc": 0.9}, attempts=1)
        assert store.result(j2) == {"ipc": 0.9}
        store.close()
        # And the repaired history itself replays: the torn bytes were
        # cut before the re-claim, so its start event was not glued onto
        # them and lost.
        final = fresh_store(tmp_path)
        assert final.job(j2).status == DONE
        assert final.counters()["completed"] == 2
        assert final.counters()["torn_lines"] == 0
        events = [e["event"] for e in final.timeline(j2)["events"]]
        assert events == ["submit", "start", "done"]
        final.close()


class TestJsonlJournalUnit:
    def test_append_then_reload_round_trips(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JsonlJournal(path, kind="test", version=1, digest="d")
        journal.append({"event": "one", "n": 1})
        journal.append({"event": "two", "n": 2})
        journal.close()
        reloaded = JsonlJournal(path, kind="test", version=1, digest="d")
        assert [r["event"] for r in reloaded.records] == ["one", "two"]
        assert reloaded.skipped == 0
        reloaded.close()

    def test_readonly_journal_refuses_appends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JsonlJournal(path, kind="test", version=1).close()
        readonly = JsonlJournal(path, kind="test", version=1,
                                readonly=True)
        with pytest.raises(JournalError):
            readonly.append({"event": "nope"})

    def test_digest_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        JsonlJournal(path, kind="test", version=1, digest="aaa").close()
        with pytest.raises(JournalError):
            JsonlJournal(path, kind="test", version=1, digest="bbb")

    def test_two_handles_on_a_new_journal_never_overwrite(self, tmp_path):
        # The creating handle must append at end of file too: a plain
        # "w" handle would write its next line at its own offset, over
        # the line the second handle appended in between.
        path = tmp_path / "j.jsonl"
        first = JsonlJournal(path, kind="test", version=1)
        second = JsonlJournal(path, kind="test", version=1)
        for n in range(3):
            first.append({"event": "first", "n": n})
            second.append({"event": "second", "n": n})
        first.close()
        second.close()
        reloaded = JsonlJournal(path, kind="test", version=1, readonly=True)
        assert [(r["event"], r["n"]) for r in reloaded.records] == [
            (who, n) for n in range(3) for who in ("first", "second")
        ]
        assert reloaded.skipped == 0

    def test_fresh_journal_truncates_without_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JsonlJournal(path, kind="test", version=1)
        journal.append({"event": "old"})
        journal.close()
        restarted = JsonlJournal(path, kind="test", version=1, resume=False)
        restarted.append({"event": "new"})
        restarted.close()
        reloaded = JsonlJournal(path, kind="test", version=1, readonly=True)
        assert [r["event"] for r in reloaded.records] == ["new"]
