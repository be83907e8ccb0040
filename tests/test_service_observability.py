"""End-to-end observability: watchdog heartbeats, CLI, run-log tolerance.

The watchdog half pins the hung-vs-slow contract: a worker that misses
its wall-clock deadline but is *demonstrably progressing* (fresh
heartbeat, advancing counters) gets its deadline extended, while a
silent or stalled worker is killed with the heartbeat evidence in the
error text.  The CLI half drives ``status --json``, ``status --follow``,
``events``, and ``metrics`` through ``main()`` against a really-served
store.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.harness.parallel import run_tasks_hardened
from repro.obs.metrics import parse_prometheus
from repro.obs.runlog import RunLog, read_snapshot
from repro.service import JobStore
from repro.service.cli import main
from repro.service.retry import RetryPolicy
from repro.service.telemetry import ProgressPublisher, progress_path

from tests.test_parallel_hardened import needs_fork
from tests.test_service_supervisor import batch_config, submit


# Worker functions live at module level so the fork workers can reach
# them; heartbeat state crosses processes through the progress dir.

def read_progress(directory, task_id):
    return read_snapshot(progress_path(directory, task_id))


def progress_probe(directory):
    """The watchdog's ``task_id -> heartbeat`` probe over one directory."""
    return lambda task_id: read_progress(directory, task_id)


def _slow_but_beating(payload):
    """Outlives the deadline, but heartbeats with advancing progress."""
    directory, task_id, duration = payload
    publisher = ProgressPublisher(Path(directory), task_id, interval=0.0)
    started = time.monotonic()
    step = 0
    while time.monotonic() - started < duration:
        step += 1
        publisher.publish(step, 1000, step, force=True)
        time.sleep(0.02)
    return "finished"


def _beating_but_stalled(payload):
    """Heartbeats forever without ever advancing — wedged, not slow."""
    directory, task_id = payload
    publisher = ProgressPublisher(Path(directory), task_id, interval=0.0)
    while True:
        publisher.publish(5, 1000, 5, force=True)
        time.sleep(0.05)


def _silent_hang(payload):
    time.sleep(600)


def _beat_then_die(payload):
    directory, task_id = payload
    publisher = ProgressPublisher(Path(directory), task_id, interval=0.0)
    for step in range(50):
        publisher.publish(step * 10, 1000, step * 7, force=True)
    os._exit(9)


@needs_fork
class TestWatchdogHeartbeats:
    def test_slow_but_progressing_survives_the_deadline(self, tmp_path):
        outcomes = run_tasks_hardened(
            _slow_but_beating,
            [("slow", (str(tmp_path), "slow", 1.2))],
            jobs=2, policy=RetryPolicy(deadline=0.4, max_attempts=1),
            progress_probe=progress_probe(tmp_path),
            hang_grace=5.0, extension_cap=20.0,
        )
        outcome = outcomes[0]
        assert outcome.ok and outcome.result == "finished"

    def test_stalled_heartbeat_is_still_killed(self, tmp_path):
        outcomes = run_tasks_hardened(
            _beating_but_stalled,
            [("stalled", (str(tmp_path), "stalled"))],
            jobs=2, policy=RetryPolicy(deadline=0.4, max_attempts=1),
            progress_probe=progress_probe(tmp_path),
            hang_grace=5.0, extension_cap=20.0,
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert "wall-clock timeout" in outcome.error
        # The kill message carries the heartbeat evidence.
        assert "retired 5/1000 instructions" in outcome.error

    def test_silent_hang_reports_no_heartbeat(self, tmp_path):
        outcomes = run_tasks_hardened(
            _silent_hang, [("hung", None)],
            jobs=2, policy=RetryPolicy(deadline=0.5, max_attempts=1),
            progress_probe=progress_probe(tmp_path),
            hang_grace=2.0,
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert "wall-clock timeout" in outcome.error
        assert "no heartbeat ever published" in outcome.error

    def test_extension_cap_bounds_total_wall_clock(self, tmp_path):
        # cap 1.0 means no extension budget at all: even a healthy
        # heartbeat cannot stretch the deadline.
        started = time.monotonic()
        outcomes = run_tasks_hardened(
            _slow_but_beating,
            [("slow", (str(tmp_path), "slow", 30.0))],
            jobs=2, policy=RetryPolicy(deadline=0.4, max_attempts=1),
            progress_probe=progress_probe(tmp_path),
            hang_grace=5.0, extension_cap=1.0,
        )
        assert time.monotonic() - started < 10.0
        assert "wall-clock timeout" in outcomes[0].error

    def test_heartbeat_file_survives_worker_sigkill(self, tmp_path):
        """Atomic-rename publication: a killed worker leaves the last
        complete heartbeat, never a torn one."""
        outcomes = run_tasks_hardened(
            _beat_then_die, [("doomed", (str(tmp_path), "doomed"))],
            jobs=2, policy=RetryPolicy(deadline=30.0, max_attempts=1),
        )
        assert "worker died" in outcomes[0].error
        beat = read_progress(tmp_path, "doomed")
        assert beat is not None, "heartbeat file torn or missing"
        assert beat["instructions"] == 490
        assert beat["job"] == "doomed"


def _progress_env():
    return sorted(name for name in os.environ
                  if name.startswith("REPRO_PROGRESS"))


class TestServeHeartbeats:
    """Heartbeats reach in-process and forked workers as arguments: a
    drain leaves the environment as it found it."""

    def test_serve_leaves_final_heartbeat_and_restores_env(
        self, tmp_path, monkeypatch
    ):
        from repro.service import supervisor

        execute = supervisor.execute_job

        def no_env_channel(payload, **kwargs):
            # Runs in the worker: a failed check fails the job.
            assert _progress_env() == [], _progress_env()
            return execute(payload, **kwargs)

        monkeypatch.setattr(supervisor, "execute_job", no_env_channel)
        for jobs in (1, 2):
            store = JobStore(tmp_path / f"store-{jobs}")
            job = submit(store, "simulate",
                         {"benchmark": "gcc", "core": "braid"})
            supervisor.serve(store, batch_config(jobs=jobs, heartbeat=0.01))
            assert store.job(job).status == "done", store.job(job).error
            beat = store.progress(job)
            assert beat is not None
            assert beat["instructions"] == beat["instructions_total"] > 0
            assert "attempt" not in beat
            assert _progress_env() == []
            store.close()

    def test_heartbeat_zero_disables_progress_files(self, tmp_path):
        from repro.service.supervisor import serve

        for jobs in (1, 2):
            store = JobStore(tmp_path / f"store-{jobs}")
            job = submit(store, "simulate",
                         {"benchmark": "gcc", "core": "braid"})
            serve(store, batch_config(jobs=jobs, heartbeat=0.0))
            assert store.job(job).status == "done"
            assert store.progress(job) is None
            # Metrics and health still publish: observability stays on.
            assert store.metrics_path.exists()
            assert store.health_path.exists()
            store.close()


@pytest.fixture
def served_store(tmp_path):
    """A store with one completed job and one permanent failure."""
    store = JobStore(tmp_path / "store")
    done = submit(store, "simulate", {"benchmark": "gcc", "core": "braid"})
    # Bypasses normalize_params: the executor hits a missing sizing key,
    # a deterministic task bug, so the job fails permanently.
    from repro.service import JobRequest

    bad, _ = store.submit(JobRequest(
        kind="simulate", params={"benchmark": "gcc", "core": "braid"},
    ))
    from repro.service.supervisor import serve

    serve(store, batch_config(heartbeat=0.01))
    store.close()
    return {"root": str(tmp_path / "store"), "done": done, "bad": bad}


class TestCli:
    def test_status_json_document(self, served_store, capsys):
        assert main(["status", "--store", served_store["root"],
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["completed"] == 1
        assert doc["counters"]["failed"] == 1
        assert doc["jobs"][served_store["done"]]["status"] == "done"
        assert doc["health"]["round"] == 1

    def test_status_job_json_includes_timeline_and_result(
            self, served_store, capsys):
        assert main(["status", "--store", served_store["root"],
                     "--job", served_store["done"], "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "done"
        assert doc["timeline"]["queue_wait"] >= 0.0
        assert doc["timeline"]["run_time"] > 0.0
        assert doc["result"]["cycles"] > 0

    def test_events_timeline_for_one_job(self, served_store, capsys):
        assert main(["events", served_store["done"],
                     "--store", served_store["root"]]) == 0
        out = capsys.readouterr().out
        assert "submit" in out and "start" in out and "done" in out
        assert "queue wait:" in out
        assert "run time:" in out

    def test_events_json_whole_stream(self, served_store, capsys):
        assert main(["events", "--store", served_store["root"],
                     "--json"]) == 0
        events = json.loads(capsys.readouterr().out)
        names = [record["event"] for record in events]
        assert names.count("submit") == 2
        assert "drain" in names
        assert all("ts" in record for record in events)

    def test_events_unknown_job_errors(self, served_store):
        with pytest.raises(SystemExit):
            main(["events", "j999999-ffffffff",
                  "--store", served_store["root"]])

    def test_metrics_exposition_parses(self, served_store, capsys):
        assert main(["metrics", "--store", served_store["root"]]) == 0
        samples = parse_prometheus(capsys.readouterr().out)
        assert samples["repro_service_completed"] == 1.0
        assert samples['repro_run_ms{stat="weight"}'] == 2.0

    def test_metrics_json_includes_health(self, served_store, capsys):
        assert main(["metrics", "--store", served_store["root"],
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["repro_service_completed"] == 1.0
        assert doc["health"]["counters"]["completed"] == 1
        assert doc["source"].endswith("metrics.prom")

    def test_metrics_renders_live_from_cold_store(self, tmp_path, capsys):
        store = JobStore(tmp_path / "cold")
        submit(store, "simulate", {"benchmark": "gcc", "core": "braid"})
        store.close()
        assert main(["metrics", "--store", str(tmp_path / "cold"),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source"] == "rendered"
        assert doc["metrics"]["repro_service_submitted"] == 1.0

    def test_active_is_a_gauge_that_falls_as_jobs_settle(self, tmp_path,
                                                        capsys):
        """``active`` is a level, not a count: a scraper must not read
        a settle as a counter reset."""
        store = JobStore(tmp_path / "live")
        job_id = submit(store, "simulate", {"benchmark": "gcc", "core": "braid"})

        def active():
            assert main(["metrics", "--store", str(tmp_path / "live")]) == 0
            text = capsys.readouterr().out
            assert "# TYPE repro_service_active gauge" in text.splitlines()
            return parse_prometheus(text)["repro_service_active"]

        assert active() == 1.0
        store.claim(job_id)
        assert active() == 1.0
        store.complete(job_id, {"cycles": 1}, attempts=1)
        assert active() == 0.0
        store.close()

    def test_status_follow_bounded_run(self, served_store, capsys):
        assert main(["status", "--store", served_store["root"],
                     "--follow", "--follow-for", "0.05",
                     "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert served_store["done"] in out
        assert "1 done" in out and "1 failed" in out
        assert "supervisor:" in out


class TestRunLogTolerance:
    def test_torn_and_damaged_lines_skipped_and_counted(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        log.log(event="one")
        log.log(event="two")
        with open(log.path, "ab") as handle:
            handle.write(b'{"event": "torn-by-sigki')
        events = log.read()
        assert [event["event"] for event in events] == ["one", "two"]
        assert log.skipped == 1

    def test_raw_byte_damage_does_not_break_read(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        log.log(event="one")
        with open(log.path, "ab") as handle:
            handle.write(b"\x00\xff\xfe broken bytes\n")
        log.log(event="two")
        events = log.read()
        assert [event["event"] for event in events] == ["one", "two"]
        assert log.skipped == 1

    def test_skipped_resets_per_read(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        log.log(event="one")
        with open(log.path, "ab") as handle:
            handle.write(b"not json\n")
        log.read()
        log.read()
        assert log.skipped == 1

    def test_non_dict_lines_counted(self, tmp_path):
        log = RunLog(tmp_path / "runlog.jsonl")
        with open(tmp_path / "runlog.jsonl", "w", encoding="utf-8") as handle:
            handle.write("[1, 2]\n42\n")
        assert log.read() == []
        assert log.skipped == 2
