"""Supervisor scheduling, retry classification, and drain (repro.service).

These run real (tiny) simulations through the full submit -> claim ->
hardened-dispatch -> settle pipeline, in-process and serial, so each
test stays in the tens of milliseconds while still exercising the same
code path the ``serve`` CLI drives.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.obs.metrics import parse_prometheus
from repro.obs.runlog import RunLog, read_snapshot
from repro.service import ChaosSpec, JobRequest, JobStore
from repro.service import jobs as jobs_module
from repro.service import supervisor as supervisor_module
from repro.service.jobs import normalize_params, prepare
from repro.service.jobstore import DONE, FAILED, QUEUED, RUNNING
from repro.service.retry import RetryPolicy
from repro.service.supervisor import ServiceConfig, Supervisor, serve

#: tiny sims: the protocols under test do not care about run length
SIZING = {"scale": 0.05, "max_instructions": 3000}


def batch_config(**kwargs):
    kwargs.setdefault("policy", RetryPolicy(backoff=0.01, deadline=60.0))
    kwargs.setdefault("jobs", 1)
    return ServiceConfig(drain_when_idle=True, **kwargs)


def submit(store, kind, params, client="default"):
    job_id, _ = store.submit(JobRequest(
        kind=kind, params=normalize_params(kind, {**params, **(
            SIZING if kind != "faults" else {"scale": SIZING["scale"]}
        )}), client=client,
    ))
    return job_id


class TestServe:
    def test_mixed_batch_drains_to_done(self, tmp_path):
        store = JobStore(tmp_path / "store")
        sim = submit(store, "simulate",
                     {"benchmark": "gcc", "core": "braid"})
        sweep = submit(store, "sweep",
                       {"benchmarks": "gcc", "cores": "braid,inorder"})
        summary = serve(store, batch_config())
        assert summary["drained"] is False and summary["rounds"] == 1
        assert store.job(sim).status == DONE
        assert store.job(sweep).status == DONE
        result = store.result(sim)
        assert result["benchmark"] == "gcc" and result["cycles"] > 0
        assert [c["core"] for c in store.result(sweep)["cells"]] == [
            "braid", "inorder"
        ]
        store.close()

    def test_identical_jobs_run_once(self, tmp_path):
        store = JobStore(tmp_path / "store")
        first = submit(store, "simulate",
                       {"benchmark": "gcc", "core": "braid"}, client="a")
        second = submit(store, "simulate",
                        {"benchmark": "gcc", "core": "braid"}, client="b")
        assert first == second
        serve(store, batch_config())
        counters = store.counters()
        assert counters["completed"] == 1 and counters["coalesced"] == 1
        store.close()

    def test_rerun_is_bit_identical(self, tmp_path):
        import json

        results = []
        for run in ("a", "b"):
            store = JobStore(tmp_path / run)
            job = submit(store, "simulate",
                         {"benchmark": "mcf", "core": "ooo"})
            serve(store, batch_config())
            results.append(json.dumps(store.result(job), sort_keys=True))
            store.close()
        assert results[0] == results[1]

    def test_jobs_submitted_by_another_handle_run_in_the_same_drain(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(tmp_path / "store")
        other = JobStore(tmp_path / "store")
        first = submit(other, "simulate",
                       {"benchmark": "gcc", "core": "braid"})
        later = []
        execute = supervisor_module.execute_job

        def execute_and_submit(payload, **kwargs):
            if not later:  # the first job: submit one more while running
                later.append(submit(other, "simulate",
                                    {"benchmark": "mcf", "core": "ooo"}))
            return execute(payload, **kwargs)

        monkeypatch.setattr(supervisor_module, "execute_job",
                            execute_and_submit)
        summary = serve(store, batch_config(jobs=1))
        assert summary["rounds"] == 1
        assert store.job(first).status == DONE
        assert store.job(later[0]).status == DONE
        assert [store.job(j).seq for j in (first, later[0])] == [1, 2]
        other.close()
        store.close()

    def test_drain_request_stops_the_loop(self, tmp_path):
        store = JobStore(tmp_path / "store")
        supervisor = Supervisor(store, ServiceConfig())
        supervisor.request_drain()
        summary = supervisor.run()
        assert summary["drained"] is True
        assert store.journal.records[-1]["event"] == "drain"
        store.close()


def _two_forked_workers() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return (os.cpu_count() or 1) >= 2


#: the fleet clamps its workers to the host CPUs
needs_two_workers = pytest.mark.skipif(
    not _two_forked_workers(),
    reason="requires the fork start method and two CPUs",
)


def running_high_water(records) -> int:
    """Most jobs ``running`` at once over every prefix of the journal."""
    running = peak = 0
    for record in records:
        event = record.get("event")
        if event == "start":
            running += 1
        elif event in ("done", "failed", "requeue"):
            running -= 1
        peak = max(peak, running)
    return peak


class TestOneFleet:
    """One fleet per drain, each free worker refilled with the next job."""

    MIXED = [("faults", {"benchmarks": "gcc", "cores": "ooo", "runs": 4})] + [
        ("simulate", {"benchmark": bench, "core": core})
        for bench, core in (("gcc", "braid"), ("mcf", "inorder"),
                            ("gcc", "ooo"), ("mcf", "depsteer"))
    ]

    def drain(self, root, jobs):
        store = JobStore(root)
        ids = [submit(store, kind, params) for kind, params in self.MIXED]
        summary = serve(store, batch_config(jobs=jobs))
        payloads = [json.dumps(store.result(j), sort_keys=True) for j in ids]
        records = list(store.journal.records)
        store.close()
        return ids, summary, payloads, records

    @needs_two_workers
    def test_short_jobs_pass_a_long_campaign(self, tmp_path):
        ids, summary, payloads, records = self.drain(tmp_path / "fleet", 2)
        assert summary["rounds"] == 1
        campaign, short = ids[0], set(ids[1:])
        events = [(r["event"], r["job"]) for r in records
                  if r.get("event") in ("start", "done")]
        campaign_done = events.index(("done", campaign))
        assert events.index(("start", campaign)) == 0
        # Every short job starts and finishes while the campaign runs:
        # it holds only its own worker, not a barrier across the fleet.
        assert {job for event, job in events[1:campaign_done]
                if event == "done"} == short
        assert running_high_water(records) == 2

        _, serial, serial_payloads, serial_records = self.drain(
            tmp_path / "serial", 1
        )
        assert serial["rounds"] == 1
        assert running_high_water(serial_records) == 1
        assert payloads == serial_payloads

    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=needs_two_workers),
    ])
    def test_drain_requested_in_a_settle_claims_nothing_more(
        self, tmp_path, jobs
    ):
        store = JobStore(tmp_path / "store")
        ids = [submit(store, "simulate", {"benchmark": bench, "core": core})
               for bench, core in (("gcc", "braid"), ("mcf", "inorder"),
                                   ("gcc", "ooo"), ("mcf", "depsteer"))]
        supervisor = Supervisor(store, batch_config(jobs=jobs))
        settle = supervisor._settle

        def settle_then_drain(outcome):
            settle(outcome)
            supervisor.request_drain()

        supervisor._settle = settle_then_drain
        summary = supervisor.run()
        assert summary["drained"] is True
        statuses = [store.job(j).status for j in ids]
        # Jobs in flight at the request settle; the rest stay queued.
        assert statuses == [DONE] * jobs + [QUEUED] * (len(ids) - jobs)
        assert running_high_water(store.journal.records) == jobs
        store.close()

    def test_health_advances_during_one_drain(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path / "store")
        for bench in ("gcc", "mcf", "bzip2"):
            submit(store, "simulate", {"benchmark": bench, "core": "ooo"})
        poll = 0.05
        seen = []
        execute = supervisor_module.execute_job

        def slow_execute(payload, **kwargs):
            seen.append(read_snapshot(store.health_path)["uptime_seconds"])
            time.sleep(2 * poll)
            return execute(payload, **kwargs)

        monkeypatch.setattr(supervisor_module, "execute_job", slow_execute)
        summary = serve(store, batch_config(poll=poll))
        assert summary["rounds"] == 1
        # Each settle past the poll interval republished health.json
        # before the next job started, within the one fleet.
        assert seen == sorted(seen) and seen[-1] >= seen[0] + 3 * poll
        store.close()


class TestFailureClassification:
    def test_task_error_fails_permanently_without_retries(self, tmp_path):
        store = JobStore(tmp_path / "store")
        # Bypass normalize_params: the executor hits a missing key,
        # which is a deterministic task bug, not infrastructure.
        job_id, _ = store.submit(JobRequest(
            kind="simulate", params={"benchmark": "gcc", "core": "braid"},
        ))
        serve(store, batch_config())
        job = store.job(job_id)
        assert job.status == FAILED and job.permanent
        assert job.attempts == 1
        assert "KeyError" in job.error
        store.close()

    def test_enospc_on_result_write_requeues_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        store = JobStore(tmp_path / "store")
        job_id = submit(store, "simulate",
                        {"benchmark": "gcc", "core": "braid"})
        spec = ChaosSpec(fail_write={job_id: 1})
        for name, value in spec.environ(tmp_path / "marks").items():
            monkeypatch.setenv(name, value)
        serve(store, batch_config())
        job = store.job(job_id)
        assert job.status == DONE
        counters = store.counters()
        assert counters["requeued"] == 1 and counters["completed"] == 1
        store.close()

    def test_exhausted_retry_budget_retires_the_job(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job_id = submit(store, "simulate",
                        {"benchmark": "gcc", "core": "braid"})
        # Simulate a job that transient failures kept requeueing until
        # its whole attempt budget was burned.
        policy = RetryPolicy(max_attempts=3)
        store.claim(job_id)
        store.requeue(job_id, "result store write failed: disk full",
                      attempts=policy.max_attempts)
        serve(store, batch_config(policy=policy))
        job = store.job(job_id)
        assert job.status == FAILED and not job.permanent
        assert "retry budget exhausted" in job.error
        store.close()


class TestRecovery:
    def test_serve_recovers_jobs_a_dead_supervisor_left_running(
        self, tmp_path
    ):
        store = JobStore(tmp_path / "store")
        job_id = submit(store, "simulate",
                        {"benchmark": "gcc", "core": "braid"})
        store.claim(job_id)
        store.close()  # the supervisor "dies" here
        reopened = JobStore(tmp_path / "store")
        summary = serve(reopened, batch_config())
        assert summary["recovery"]["interrupted"] == [job_id]
        job = reopened.job(job_id)
        assert job.status == DONE and job.recovered == 1
        assert reopened.result(job_id)["cycles"] > 0
        reopened.close()

    def test_serve_heals_a_corrupted_result(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job_id = submit(store, "simulate",
                        {"benchmark": "gcc", "core": "braid"})
        serve(store, batch_config())
        good = store.result(job_id)
        store.close()
        # Damage the bytes of the done line, which holds the result.
        journal = tmp_path / "store" / "journal.jsonl"
        lines = journal.read_bytes().split(b"\n")
        [at] = [i for i, line in enumerate(lines) if b'"done"' in line]
        lines[at] = b"\x00 corrupt \x00" + lines[at][11:]
        journal.write_bytes(b"\n".join(lines))
        reopened = JobStore(tmp_path / "store")
        # The fold skips and counts the line: the job is still running.
        assert reopened.counters()["torn_lines"] == 1
        assert reopened.job(job_id).status == RUNNING
        assert reopened.result(job_id) is None
        assert reopened.recover() == {"interrupted": [job_id]}
        assert reopened.job(job_id).status == QUEUED
        serve(reopened, batch_config())
        # Deterministic re-run: the healed payload is bit-identical.
        assert reopened.job(job_id).status == DONE
        assert reopened.result(job_id) == good
        reopened.close()


class TestTelemetry:
    def test_serve_publishes_store_counters(self, tmp_path):
        store = JobStore(tmp_path / "store")
        submit(store, "simulate", {"benchmark": "gcc", "core": "braid"})
        Supervisor(store, batch_config()).run()
        samples = parse_prometheus(
            store.metrics_path.read_text(encoding="utf-8")
        )
        assert samples["repro_service_completed"] == 1
        assert "repro_service_jobs_completed" not in samples
        assert not [name for name in samples
                    if name.startswith("repro_service_results_")]
        store.close()


class TestPrepare:
    """The forked fleet's pre-pass fills the artifact cache, not the
    supervisor: workers load what they run, the parent holds nothing."""

    SIM = [("gcc", "braid"), ("mcf", "ooo"), ("gcc", "ooo")]

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        """An empty artifact cache, a run log beside it, and no executor
        state left by earlier in-process drains."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_RUNLOG", str(tmp_path / "runlog.jsonl"))
        monkeypatch.setattr(jobs_module, "_EXEC_STATE", None)
        return tmp_path

    def queue(self, root, pairs=SIM):
        store = JobStore(root)
        ids = [submit(store, "simulate", {"benchmark": bench, "core": core})
               for bench, core in pairs]
        return store, ids

    @staticmethod
    def prepare_events(root):
        return [event for event in RunLog(root / "runlog.jsonl").read()
                if event["event"] == "prepare"]

    @staticmethod
    def workload_entries(root):
        return sorted(path.name for path in (root / "cache").glob("workload-*"))

    @needs_two_workers
    def test_forked_drain_keeps_no_workloads_in_the_parent(self, cold):
        store, ids = self.queue(cold / "forked")
        serve(store, batch_config(jobs=2))
        assert jobs_module._EXEC_STATE is None
        forked = [store.result(job) for job in ids]
        store.close()
        (event,) = self.prepare_events(cold)
        assert (event["needed"], event["computed"], event["failed"]) == (3, 3, 0)

        store, ids = self.queue(cold / "serial")
        serve(store, batch_config(jobs=1))
        assert [store.result(job) for job in ids] == forked
        store.close()
        assert len(self.prepare_events(cold)) == 1  # jobs=1: no pre-pass

    def test_prepare_fills_the_cache_once_and_keeps_nothing(self, cold):
        store, _ = self.queue(cold / "store")
        prepare(store.runnable(), jobs=2)
        entries = self.workload_entries(cold)
        assert len(entries) == 3
        assert jobs_module._EXEC_STATE is None
        prepare(store.runnable())
        assert self.workload_entries(cold) == entries
        first, second = self.prepare_events(cold)
        assert (first["cached"], first["computed"]) == (0, 3)
        assert (second["cached"], second["computed"]) == (3, 0)
        store.close()

    def test_disabled_cache_makes_prepare_a_no_op(self, cold, monkeypatch):
        monkeypatch.setattr(ArtifactCache, "from_env", classmethod(
            lambda cls: cls(root=cold / "cache", enabled=False)
        ))
        store, _ = self.queue(cold / "store")
        prepare(store.runnable(), jobs=2)
        assert not (cold / "cache").exists()
        assert self.prepare_events(cold) == []
        store.close()

    def test_unknown_benchmark_fails_only_its_own_job(self, cold):
        store, ids = self.queue(cold / "store", self.SIM[:1])
        params = dict(store.job(ids[0]).params, benchmark="nosuch")
        bad, _ = store.submit(JobRequest("simulate", params, "default"))
        serve(store, batch_config(jobs=2))
        assert store.job(ids[0]).status == DONE
        assert store.job(bad).status == FAILED and store.job(bad).permanent
        (event,) = self.prepare_events(cold)
        assert (event["computed"], event["failed"]) == (1, 1)
        store.close()

    def test_unreadable_record_fails_only_its_own_job(self, cold):
        """A list-valued scale cannot be hashed into a workload key; the
        pre-pass skips that record instead of ending the drain."""
        store, ids = self.queue(cold / "store", self.SIM[:1])
        params = dict(store.job(ids[0]).params, scale=[1.0])
        bad, _ = store.submit(JobRequest("simulate", params, "default"))
        serve(store, batch_config(jobs=2))
        assert store.job(ids[0]).status == DONE
        assert store.job(bad).status == FAILED
        (event,) = self.prepare_events(cold)
        assert (event["needed"], event["computed"]) == (1, 1)
        store.close()
