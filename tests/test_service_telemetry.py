"""Service telemetry: stamps, timelines, heartbeats, metrics export.

The load-bearing property here is that observability is *additive*: the
timestamps ride every journal event but the state fold ignores them (so
dedup, recovery, and chaos bit-identity cannot shift), heartbeat files
are atomic JSON a SIGKILL can never tear, and the Prometheus exposition
round-trips through its own validator.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs.metrics import (
    BoundedHistogram,
    MetricsRegistry,
    parse_prometheus,
    prometheus_errors,
)
from repro.obs.runlog import event_stamp, read_snapshot, write_snapshot
from repro.service import JobRequest, JobStore
from repro.service.jobstore import SERVICE_FORMAT_VERSION
from repro.service.telemetry import (
    ProgressPublisher,
    describe_progress,
    heartbeat_age,
    job_timeline,
    latency_histograms,
    progress_path,
)


def strip_stamp(record):
    """The record without its stamp fields."""
    return {key: value for key, value in record.items()
            if key not in event_stamp()}


def read_progress(directory, job_id):
    return read_snapshot(progress_path(directory, job_id))


def lifecycle_store(root):
    """A store whose journal exercises every event kind."""
    store = JobStore(root)
    job_a, _ = store.submit(JobRequest(kind="simulate",
                                       params={"benchmark": "gcc"}))
    store.submit(JobRequest(kind="simulate", params={"benchmark": "gcc"},
                            client="other"))  # coalesce
    job_b, _ = store.submit(JobRequest(kind="simulate",
                                       params={"benchmark": "mcf"}))
    store.claim(job_a)
    store.fail(job_a, "worker died mid-task", permanent=False, attempts=1)
    store.claim(job_b)
    store.requeue(job_b, "result store write failed", attempts=1)
    store.claim(job_b)
    store.complete(job_b, {"cycles": 42}, attempts=2)
    store.drain()
    return store


class TestEventStamps:
    def test_every_journaled_event_is_stamped(self, tmp_path):
        store = lifecycle_store(tmp_path / "store")
        assert store.journal.records, "lifecycle journaled nothing"
        for record in store.journal.records:
            assert record["ts"] > 0
            assert record["mono"] > 0
            assert record["pid"] == os.getpid()
        store.close()

    def test_fold_ignores_timestamps(self, tmp_path):
        """Replaying a journal with the stamps stripped reconstructs the
        identical store state — pins that telemetry stays out of the
        state machine."""
        stamped = lifecycle_store(tmp_path / "stamped")
        stripped_root = tmp_path / "stripped"
        stripped_root.mkdir()
        header = {"kind": "service-journal",
                  "version": SERVICE_FORMAT_VERSION}
        with open(stripped_root / "journal.jsonl", "w",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for record in stamped.journal.records:
                handle.write(
                    json.dumps(strip_stamp(record), sort_keys=True) + "\n"
                )
        stripped = JobStore(stripped_root)
        assert {
            job_id: job.summary() for job_id, job in stamped.jobs.items()
        } == {
            job_id: job.summary() for job_id, job in stripped.jobs.items()
        }
        assert stamped.counters() == stripped.counters()
        stamped.close()
        stripped.close()

    def test_strip_stamp_removes_only_stamp_fields(self):
        assert sorted(event_stamp()) == ["mono", "pid", "ts"]
        record = {"event": "submit", "job": "j1", **event_stamp()}
        assert strip_stamp(record) == {"event": "submit", "job": "j1"}


class TestTimelines:
    def stamp(self, pid, mono, ts=None):
        return {"pid": pid, "mono": mono,
                "ts": 1000.0 + mono if ts is None else ts}

    def test_queue_wait_and_run_time(self):
        records = [
            {"event": "submit", "job": "j1", **self.stamp(1, 10.0)},
            {"event": "start", "job": "j1", **self.stamp(1, 10.5)},
            {"event": "done", "job": "j1", **self.stamp(1, 12.5)},
        ]
        timeline = job_timeline(records, "j1")
        assert timeline["queue_wait"] == pytest.approx(0.5)
        assert timeline["run_time"] == pytest.approx(2.0)
        assert timeline["retry_latencies"] == []
        assert len(timeline["events"]) == 3

    def test_retry_latency_spans_requeue_to_restart(self):
        records = [
            {"event": "submit", "job": "j1", **self.stamp(1, 0.0)},
            {"event": "start", "job": "j1", **self.stamp(1, 1.0)},
            {"event": "requeue", "job": "j1", **self.stamp(1, 2.0)},
            {"event": "start", "job": "j1", **self.stamp(1, 2.25)},
            {"event": "done", "job": "j1", **self.stamp(1, 3.0)},
        ]
        timeline = job_timeline(records, "j1")
        assert timeline["retry_latencies"] == [pytest.approx(0.25)]
        # Run time measures the *last* attempt.
        assert timeline["run_time"] == pytest.approx(0.75)

    def test_cross_pid_delta_uses_wall_clock(self):
        # Different pids: mono clocks are incomparable, wall time rules.
        records = [
            {"event": "submit", "job": "j1", "pid": 1, "mono": 500.0,
             "ts": 100.0},
            {"event": "start", "job": "j1", "pid": 2, "mono": 1.0,
             "ts": 103.0},
        ]
        timeline = job_timeline(records, "j1")
        assert timeline["queue_wait"] == pytest.approx(3.0)

    def test_stepped_wall_clock_clamps_at_zero(self):
        records = [
            {"event": "submit", "job": "j1", "pid": 1, "mono": 0.0,
             "ts": 100.0},
            {"event": "start", "job": "j1", "pid": 2, "mono": 0.0,
             "ts": 90.0},  # NTP stepped the clock backwards
        ]
        assert job_timeline(records, "j1")["queue_wait"] == 0.0

    def test_unstamped_events_yield_no_durations(self):
        records = [
            {"event": "submit", "job": "j1"},
            {"event": "start", "job": "j1"},
            {"event": "done", "job": "j1"},
        ]
        timeline = job_timeline(records, "j1")
        assert timeline["queue_wait"] is None
        assert timeline["run_time"] is None

    def test_latency_histograms_cover_all_jobs(self, tmp_path):
        store = lifecycle_store(tmp_path / "store")
        histograms = latency_histograms(store.journal.records)
        assert histograms["queue_wait_ms"].total_weight == 2
        assert histograms["run_ms"].total_weight == 2  # one failed, one done
        assert histograms["retry_ms"].total_weight == 1
        store.close()


def _small_simulate():
    from repro.service.jobs import normalize_params

    return normalize_params("simulate", {
        "benchmark": "gcc", "core": "ooo", "scale": 0.05,
        "max_instructions": 3000,
    })


class TestProgressPublisher:
    def test_publish_and_read_round_trip(self, tmp_path):
        publisher = ProgressPublisher(tmp_path, "j1", interval=0.0)
        publisher.publish(100, 1000, 250)
        beat = read_progress(tmp_path, "j1")
        assert beat["job"] == "j1" and "attempt" not in beat
        assert beat["instructions"] == 100
        assert beat["instructions_total"] == 1000
        assert beat["cycles"] == 250
        assert beat["pid"] == os.getpid()
        assert heartbeat_age(beat) < 60.0

    def test_throttle_skips_inside_interval(self, tmp_path):
        publisher = ProgressPublisher(tmp_path, "j1", interval=3600.0)
        publisher.publish(1, 10, 1)
        publisher.publish(2, 10, 2)
        assert publisher.published == 1
        assert read_progress(tmp_path, "j1")["instructions"] == 1
        publisher.publish(3, 10, 3, force=True)
        assert read_progress(tmp_path, "j1")["instructions"] == 3

    def test_cells_and_eta(self, tmp_path):
        publisher = ProgressPublisher(tmp_path, "j1", interval=0.0)
        publisher.start_cell("gcc/braid", 1, 4)
        publisher._started -= 1.0  # pretend a second of work happened
        publisher.publish(500, 1000, 800)
        beat = read_progress(tmp_path, "j1")
        assert beat["cell"] == "gcc/braid"
        assert beat["cells_done"] == 1 and beat["cells_total"] == 4
        assert beat["eta_seconds"] > 0

    def test_from_env_is_none_when_unarmed(self, tmp_path, monkeypatch):
        # The environment channel is gone: exported heartbeat variables
        # arm nothing, and a job run without a directory writes nothing.
        from repro.service.jobs import execute_job

        assert not hasattr(ProgressPublisher, "from_env")
        monkeypatch.setenv("REPRO_PROGRESS_DIR", str(tmp_path / "env"))
        monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0.01")
        execute_job(("j1", "simulate", _small_simulate()))
        assert not (tmp_path / "env").exists()

    def test_from_env_reads_interval_and_attempt(self, tmp_path,
                                                 monkeypatch):
        # The interval now comes from execute_job's argument (zero means
        # off), and no attempt is read or published.
        from repro.service.jobs import execute_job

        monkeypatch.setenv("REPRO_TASK_ATTEMPT", "3")
        params = _small_simulate()
        plain = execute_job(("j1", "simulate", params))
        assert execute_job(("j1", "simulate", params),
                           progress_dir=tmp_path, heartbeat=0.0) == plain
        assert read_progress(tmp_path, "j1") is None
        assert execute_job(("j1", "simulate", params),
                           progress_dir=tmp_path, heartbeat=0.01) == plain
        beat = read_progress(tmp_path, "j1")
        assert beat["instructions"] == beat["instructions_total"] > 0
        assert "attempt" not in beat

    def test_publish_failure_never_raises(self, tmp_path):
        target = tmp_path / "gone"
        publisher = ProgressPublisher(target, "j1", interval=0.0)
        target.mkdir()
        target.chmod(0o444)
        try:
            publisher.publish(1, 10, 1)  # EACCES swallowed
        finally:
            target.chmod(0o755)

    def test_probe_and_description(self, tmp_path):
        store = JobStore(tmp_path / "store")
        assert store.progress("j1") is None
        assert describe_progress(store.progress("j1")) == (
            "no heartbeat ever published"
        )
        ProgressPublisher(store.progress_dir, "j1", interval=0.0).publish(
            7, 10, 9
        )
        line = describe_progress(store.progress("j1"))
        store.close()
        assert "retired 7/10 instructions" in line
        assert "9 cycles" in line
        assert "last heartbeat" in line


class TestHealth:
    def test_round_trip(self, tmp_path):
        """Health and heartbeats are one kind of snapshot: the payload
        plus the writer's stamp, which overrides stale stamp fields."""
        path = tmp_path / "health.json"
        write_snapshot(path, {"round": 3, "draining": True, "pid": -1,
                              "counters": {"completed": 2}})
        health = read_snapshot(path)
        assert health["pid"] == os.getpid()
        assert 0 < health["ts"] <= time.time()
        assert 0 < health["mono"] <= time.monotonic()
        assert health["round"] == 3
        assert health["draining"] is True
        assert health["counters"] == {"completed": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_missing_file_reads_none(self, tmp_path):
        assert read_snapshot(tmp_path / "absent.json") is None
        (tmp_path / "list.json").write_text("[1, 2]")
        assert read_snapshot(tmp_path / "list.json") is None
        (tmp_path / "torn.json").write_text('{"round": ')
        assert read_snapshot(tmp_path / "torn.json") is None


class TestPrometheus:
    def registry(self):
        registry = MetricsRegistry()
        registry.counter("service.completed", 7)
        registry.counter("service.torn-lines", 0)  # name needs sanitizing
        histogram = BoundedHistogram(100)
        for value in (1, 2, 3, 50):
            histogram.add(value)
        registry.histograms["run_ms"] = histogram
        return registry

    def test_render_validates_and_round_trips(self):
        text = self.registry().render_prometheus()
        assert prometheus_errors(text) == []
        samples = parse_prometheus(text)
        assert samples["repro_service_completed"] == 7.0
        assert samples["repro_service_torn_lines"] == 0.0
        assert samples['repro_run_ms{stat="weight"}'] == 4.0
        assert samples['repro_run_ms{stat="max"}'] == 50.0

    def test_type_comments_precede_samples(self):
        lines = self.registry().render_prometheus().splitlines()
        seen_types = set()
        for line in lines:
            if line.startswith("# TYPE "):
                seen_types.add(line.split()[2])
            elif line:
                name = line.split("{")[0].split()[0]
                assert name in seen_types

    def test_validator_rejects_garbage(self):
        assert prometheus_errors("not a metric line at all\n")
        assert prometheus_errors("ok_name not_a_number\n")
        assert prometheus_errors("# TYPE x nonsense-type\nx 1\n")
        assert prometheus_errors("# TYPE x counter\n# TYPE x counter\nx 1\n")
        assert prometheus_errors('bad{unterminated="yes\n')

    def test_parse_raises_on_invalid(self):
        with pytest.raises(ValueError):
            parse_prometheus("?? 12\n")

    def test_supervisor_round_trip(self, tmp_path):
        """A drained supervisor leaves a parseable exposition + health."""
        from repro.service.supervisor import ServiceConfig, Supervisor

        store = lifecycle_store(tmp_path / "store")
        supervisor = Supervisor(
            store, ServiceConfig(drain_when_idle=True, heartbeat=0.0)
        )
        supervisor.run()
        text = store.metrics_path.read_text(encoding="utf-8")
        assert prometheus_errors(text) == []
        samples = parse_prometheus(text)
        assert samples["repro_service_completed"] == 1.0
        assert samples["repro_service_coalesced"] == 1.0
        assert samples['repro_queue_wait_ms{stat="weight"}'] == 2.0
        # Each fact once: the fold's counts, no supervisor shadow copies.
        assert not [name for name in samples
                    if name.startswith(("repro_service_jobs_",
                                        "repro_service_recovered_"))]
        assert "# TYPE repro_service_active gauge" in text.splitlines()
        health = read_snapshot(store.health_path)
        assert health["pid"] == os.getpid()
        assert health["counters"]["completed"] == 1
        store.close()
