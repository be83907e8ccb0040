"""The worker fleet and worker-death resilience (repro.harness.parallel).

Fault-injection campaigns run tasks that are *expected* to wedge or kill
their workers; these tests drive ``run_tasks_hardened`` through every
failure mode it guarantees against — worker death, wall-clock timeouts,
exceptions escaping the task function — plus the sweep-side guarantee of
``run_point_groups_parallel`` that a dead worker never loses the sweep.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import struct
import threading
import time

import pytest

from repro.harness import ArtifactCache, ExperimentContext, SweepPoint
from repro.harness import parallel
from repro.harness.parallel import (
    TaskOutcome,
    run_point_groups_parallel,
    run_tasks_hardened,
)
from repro.service.retry import RetryPolicy
from repro.sim import inorder_config, ooo_config


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _has_fork(), reason="requires the fork start method"
)


# Worker functions live at module level so every start method can reach
# them; cross-process state goes through flag files under the payload dir.

def _double(payload):
    return payload * 2


def _raise_value_error(payload):
    raise ValueError(f"boom on {payload}")


def _raise_os_error(payload):
    raise OSError(f"transient infra failure on {payload}")


def _die_immediately(payload):
    os._exit(11)


def _die_first_attempt(payload):
    """Kill the worker on the first attempt, succeed on retries."""
    flag = payload + ".seen"
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os._exit(13)
    return "recovered"


def _sleep_forever(payload):
    time.sleep(600)


def _megabyte(payload):
    """About 1 MiB, more than a pipe buffer holds, distinct per payload."""
    return bytes([payload]) * (1 << 20)


def _torn_send(conn, message):
    """Send the length prefix and half of ``message``, then SIGKILL."""
    data = pickle.dumps(message)
    view = memoryview(struct.pack("!i", len(data)) + data[:len(data) // 2])
    while view:
        view = view[os.write(conn.fileno(), view):]
    os.kill(os.getpid(), signal.SIGKILL)


def _die_mid_send_first_attempt(payload):
    """On the first attempt the worker dies halfway through sending its
    large result; retries deliver it whole."""
    flag = payload + ".seen"
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        # Only this forked worker's copy of the class is patched.
        multiprocessing.connection.Connection.send = _torn_send
    return _megabyte(7)


def _returns_lambda(payload):
    return lambda: payload


def _raise_file_not_found(payload):
    raise FileNotFoundError(f"no input for {payload}")


def _raise_value_error_naming_a_marker(payload):
    raise ValueError(f"config {payload}: worker died twice before")


def _raise_memory_error(payload):
    raise MemoryError(f"no room for {payload}")


class TestSerialPath:
    def test_ok_results_in_task_order(self):
        outcomes = run_tasks_hardened(
            _double, [("a", 1), ("b", 2), ("c", 3)], jobs=1
        )
        assert [o.task_id for o in outcomes] == ["a", "b", "c"]
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_permanent_exception_fails_fast(self):
        # A ValueError is a *task* error, not an infrastructure failure:
        # the retry policy classifies it permanent and retrying would
        # just repeat it, so the task quarantines after one attempt.
        outcomes = run_tasks_hardened(
            _raise_value_error, [("a", 1)], jobs=1,
            policy=RetryPolicy(max_attempts=3),
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined" and not outcome.ok
        assert outcome.permanent
        assert outcome.attempts == 1
        assert len(outcome.failures) == 1
        assert "ValueError" in outcome.error

    def test_retryable_exception_retried_then_quarantined(self):
        outcomes = run_tasks_hardened(
            _raise_os_error, [("a", 1)], jobs=1,
            policy=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined" and not outcome.ok
        assert not outcome.permanent
        assert outcome.attempts == 3
        assert len(outcome.failures) == 3
        assert "OSError" in outcome.error

    def test_quarantine_does_not_abort_later_tasks(self):
        outcomes = run_tasks_hardened(
            lambda p: _raise_value_error(p) if p == 1 else p,
            [("bad", 1), ("good", 2)],
            jobs=1, policy=RetryPolicy(max_attempts=2),
        )
        assert not outcomes[0].ok
        assert outcomes[1].ok and outcomes[1].result == 2

    def test_on_result_fires_once_per_task(self):
        settled = []
        run_tasks_hardened(
            _double, [("a", 1), ("b", 2)], jobs=1, on_result=settled.append
        )
        assert [o.task_id for o in settled] == ["a", "b"]
        assert all(isinstance(o, TaskOutcome) for o in settled)

    def test_empty_task_list(self):
        assert run_tasks_hardened(_double, [], jobs=4) == []


@needs_fork
class TestClassificationAgreement:
    """A task exception is classified by its class, whichever path runs it:
    in-process (``jobs=1``) or on the forked fleet (``jobs=2``)."""

    @pytest.mark.parametrize("fn, expected", [
        # OSError family: retryable through the class hierarchy
        (_raise_file_not_found, ("quarantined", 3, False)),
        # a task error whose text mentions an infrastructure marker
        (_raise_value_error_naming_a_marker, ("quarantined", 1, True)),
        (_raise_memory_error, ("quarantined", 3, False)),
    ], ids=["FileNotFoundError", "ValueError-marker-text", "MemoryError"])
    def test_serial_and_fleet_agree(self, fn, expected):
        policy = RetryPolicy(max_attempts=3, backoff=0.01, deadline=30.0)
        fates = {}
        for jobs in (1, 2):
            outcome, = run_tasks_hardened(fn, [("t", 1)], jobs=jobs,
                                          policy=policy)
            fates[jobs] = (outcome.status, outcome.attempts, outcome.permanent)
        assert fates == {1: expected, 2: expected}


@needs_fork
class TestHardenedWorkers:
    def test_parallel_ok_path(self):
        outcomes = run_tasks_hardened(
            _double, [(str(i), i) for i in range(6)], jobs=2,
            policy=RetryPolicy(deadline=30.0),
        )
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.ok for o in outcomes)

    def test_dead_worker_does_not_lose_completed_work(self):
        tasks = [("ok-1", 1), ("fatal", 2), ("ok-2", 3)]

        def fn(payload):
            if payload == 2:
                os._exit(11)
            return payload * 2

        outcomes = run_tasks_hardened(
            fn, tasks, jobs=2,
            policy=RetryPolicy(deadline=30.0, max_attempts=2, backoff=0.05),
        )
        by_id = {o.task_id: o for o in outcomes}
        assert by_id["ok-1"].ok and by_id["ok-1"].result == 2
        assert by_id["ok-2"].ok and by_id["ok-2"].result == 6
        fatal = by_id["fatal"]
        assert fatal.status == "quarantined"
        assert fatal.attempts == 2
        assert "worker died mid-task" in fatal.error

    def test_worker_death_retries_with_fresh_worker(self, tmp_path):
        payload = str(tmp_path / "attempt")
        outcomes = run_tasks_hardened(
            _die_first_attempt, [("t", payload)],
            jobs=2,
            policy=RetryPolicy(deadline=30.0, max_attempts=3, backoff=0.05),
        )
        outcome = outcomes[0]
        assert outcome.ok and outcome.result == "recovered"
        assert outcome.attempts == 2
        assert len(outcome.failures) == 1
        assert "worker died" in outcome.failures[0]

    def test_wall_clock_timeout_kills_and_quarantines(self):
        started = time.monotonic()
        outcomes = run_tasks_hardened(
            _sleep_forever, [("stuck", None)],
            jobs=2, policy=RetryPolicy(deadline=1.0, max_attempts=1),
        )
        elapsed = time.monotonic() - started
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert "timeout" in outcome.error
        assert elapsed < 30.0  # the watchdog, not the sleep, ended the task

    def test_large_results_arrive_intact(self):
        outcomes = run_tasks_hardened(
            _megabyte, [(str(i), i) for i in range(3)], jobs=2,
            policy=RetryPolicy(deadline=30.0),
        )
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert [o.result for o in outcomes] == [_megabyte(i) for i in range(3)]

    def test_worker_killed_mid_send_is_retried(self, tmp_path):
        outcomes = run_tasks_hardened(
            _die_mid_send_first_attempt, [("t", str(tmp_path / "attempt"))],
            jobs=2,
            policy=RetryPolicy(deadline=30.0, max_attempts=3, backoff=0.05),
        )
        outcome = outcomes[0]
        assert outcome.ok and outcome.result == _megabyte(7)
        assert outcome.attempts == 2
        assert len(outcome.failures) == 1
        assert "worker died mid-task" in outcome.failures[0]

    def test_unpicklable_result_is_quarantined(self):
        outcomes = run_tasks_hardened(
            _returns_lambda, [("t", 1)], jobs=2,
            policy=RetryPolicy(deadline=30.0, max_attempts=2, backoff=0.01),
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 2
        assert "result delivery failed" in outcome.error

    @pytest.mark.parametrize("tasks", [[], [("before", 1)]])
    def test_unpicklable_payload_is_quarantined(self, tasks):
        # A task that cannot be sent quarantines at once; the fleet and
        # its other tasks, listed or refilled, carry on.
        refill = _Refill([("bad", threading.Lock()), ("after", 2)], 2)
        outcomes = run_tasks_hardened(
            _double, tasks, jobs=2, policy=RetryPolicy(deadline=30.0),
            on_result=refill.on_result, refill=refill,
        )
        by_id = {o.task_id: o for o in outcomes}
        bad = by_id["bad"]
        assert bad.status == "quarantined" and bad.permanent
        assert "task delivery failed" in bad.error
        assert by_id["after"].ok and by_id["after"].result == 4

    def test_parent_runs_no_helper_threads(self):
        # Replacement workers fork from the parent; a helper thread live
        # there (a queue feeder) could hold a lock the child inherits.
        before = threading.active_count()
        seen = []
        run_tasks_hardened(
            _double, [(str(i), i) for i in range(4)], jobs=2,
            policy=RetryPolicy(deadline=30.0),
            on_result=lambda outcome: seen.append(threading.active_count()),
        )
        assert seen == [before] * 4

    def test_incremental_delivery_under_failures(self):
        settled = []

        def fn(payload):
            if payload == "die":
                os._exit(9)
            return payload

        run_tasks_hardened(
            fn, [("a", "x"), ("b", "die"), ("c", "y")],
            jobs=2, policy=RetryPolicy(deadline=30.0, max_attempts=1),
            on_result=settled.append,
        )
        assert sorted(o.task_id for o in settled) == ["a", "b", "c"]


def _pid(payload):
    return os.getpid()


def _flaky_first_attempt(marker):
    """A task function that fails the "flaky" task's first call
    retryably.  The first call leaves ``marker`` behind — a file, so the
    retry sees it on whichever worker runs it."""

    def fn(payload):
        if payload == "flaky" and not marker.exists():
            marker.touch()
            raise OSError("transient infra failure")
        return payload

    return fn


#: the in-process path and the forked fleet
FLEET_JOBS = [1, pytest.param(2, marks=needs_fork)]


class _Refill:
    """A refill callback over a task list that checks the fleet's contract.

    Each call asserts that a worker is free (offered-but-unsettled tasks
    stay below ``jobs``) and that no earlier call returned ``None``.
    """

    def __init__(self, tasks, jobs):
        self.tasks = list(tasks)
        self.jobs = jobs
        self.offered = []
        self.settled = []
        self.calls = []
        self.exhausted = False

    def __call__(self):
        assert not self.exhausted, "refill called after it returned None"
        assert len(self.offered) - len(self.settled) < self.jobs
        self.calls.append(time.monotonic())
        if not self.tasks:
            self.exhausted = True
            return None
        task = self.tasks.pop(0)
        self.offered.append(task[0])
        return task

    def on_result(self, outcome):
        self.settled.append(outcome.task_id)


@dataclasses.dataclass(frozen=True)
class _WindowPolicy(RetryPolicy):
    """A retry policy that records each backoff window it hands out."""

    windows: list = dataclasses.field(default_factory=list, compare=False)

    def delay(self, task_id, attempt):
        delay = super().delay(task_id, attempt)
        now = time.monotonic()
        self.windows.append((now, now + delay))
        return delay


class TestRefill:
    @pytest.mark.parametrize("jobs", FLEET_JOBS)
    def test_every_offer_runs_once_in_offer_order(self, jobs):
        ids = [f"t{i}" for i in range(6)]
        refill = _Refill([(task_id, i) for i, task_id in enumerate(ids)],
                         jobs)
        outcomes = run_tasks_hardened(
            _double, [], jobs=jobs, policy=RetryPolicy(deadline=30.0),
            on_result=refill.on_result, refill=refill,
        )
        assert [o.task_id for o in outcomes] == ids
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.ok and o.attempts == 1 for o in outcomes)
        assert sorted(refill.settled) == ids  # one on_result per task
        assert refill.exhausted

    @pytest.mark.parametrize("jobs", FLEET_JOBS)
    def test_no_refill_while_a_retry_is_pending(self, jobs, tmp_path):
        policy = _WindowPolicy(backoff=0.2, deadline=30.0)
        refill = _Refill([(name, name) for name in ("flaky", "b", "c", "d")],
                         jobs)
        outcomes = run_tasks_hardened(
            _flaky_first_attempt(tmp_path / "failed-once"), [], jobs=jobs,
            policy=policy,
            on_result=refill.on_result, refill=refill,
        )
        assert [o.result for o in outcomes] == ["flaky", "b", "c", "d"]
        assert outcomes[0].attempts == 2
        assert len(policy.windows) == 1
        start, end = policy.windows[0]
        assert not [t for t in refill.calls if start <= t < end]

    @pytest.mark.parametrize("jobs", FLEET_JOBS)
    def test_none_ends_the_fleet(self, jobs):
        refill = _Refill([], jobs)
        outcomes = run_tasks_hardened(
            _double, [("a", 1), ("b", 2)], jobs=jobs,
            policy=RetryPolicy(deadline=30.0), refill=refill,
        )
        assert [o.result for o in outcomes] == [2, 4]
        assert refill.exhausted and len(refill.calls) == 1
        assert run_tasks_hardened(_double, [], jobs=jobs,
                                  refill=_Refill([], jobs)) == []

    @needs_fork
    def test_one_refilled_task_still_runs_in_a_child(self):
        outcomes = run_tasks_hardened(
            _pid, [], jobs=2, policy=RetryPolicy(deadline=30.0),
            refill=_Refill([("only", None)], 2),
        )
        assert outcomes[0].ok and outcomes[0].result != os.getpid()


def _sweep_context() -> ExperimentContext:
    return ExperimentContext(
        benchmarks=("gcc",), max_instructions=20_000, jobs=2,
        cache=ArtifactCache(enabled=False),
    )


SWEEP = [
    SweepPoint("gcc", ooo_config(8)),
    SweepPoint("gcc", inorder_config(8)),
    SweepPoint("gcc", ooo_config(4)),
]


def _serial_results():
    context = _sweep_context()
    return [
        dataclasses.asdict(context.run(point.benchmark, point.config))
        for point in SWEEP
    ]


@needs_fork
class TestSweepOnFleet:
    def test_killed_worker_does_not_lose_the_sweep(self, monkeypatch, capsys):
        # The point's forked worker SIGKILLs itself; the parent re-runs
        # the lost group serially and the sweep matches the serial run.
        monkeypatch.setattr(parallel, "_NOTED", set())
        context = _sweep_context()
        parent = os.getpid()
        real_run = context.run

        def run(benchmark, config, **kwargs):
            if os.getpid() != parent and config == SWEEP[1].config:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(benchmark, config, **kwargs)

        monkeypatch.setattr(context, "run", run)
        groups = run_point_groups_parallel(
            context, [(point,) for point in SWEEP], jobs=2
        )
        assert "worker died mid-task" in capsys.readouterr().err
        assert [len(group) for group in groups] == [1, 1, 1]
        assert [
            dataclasses.asdict(group[0]) for group in groups
        ] == _serial_results()

    def test_task_exception_keeps_its_type(self, monkeypatch):
        context = _sweep_context()
        real_run = context.run

        def run(benchmark, config, **kwargs):
            if config == SWEEP[2].config:
                raise ValueError("bad sweep point")
            return real_run(benchmark, config, **kwargs)

        monkeypatch.setattr(context, "run", run)
        with pytest.raises(ValueError, match="bad sweep point"):
            run_point_groups_parallel(
                context, [(point,) for point in SWEEP], jobs=2
            )

    def test_groups_run_once_without_deadline(self, monkeypatch):
        policies = []
        real = parallel.run_tasks_hardened

        def spy(fn, tasks, **kwargs):
            policies.append(kwargs["policy"])
            return real(fn, tasks, **kwargs)

        monkeypatch.setattr(parallel, "run_tasks_hardened", spy)
        run_point_groups_parallel(
            _sweep_context(), [SWEEP[:2], SWEEP[2:]], jobs=2
        )
        assert [(p.max_attempts, p.deadline) for p in policies] == [
            (1, math.inf)
        ]
