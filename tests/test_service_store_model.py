"""Model check of the job store across two writing handles.

A hypothesis state machine interleaves submit (duplicates included),
claim, complete, fail, refresh, and a writer killed mid-append (a torn
``start`` or ``done`` record, then that handle reopens) over two
:class:`JobStore` handles on one directory.  The writers refresh only
when the refresh rule says so, so a mutation usually starts from a stale
fold and must catch up under the journal lock.  A refreshed fold must
equal a small reference model (jobs by key, status and seq; each done
job's result payload; the submitted and coalesced counters): a writer's
after its refresh rule, a read-only follower's after every step.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.service import JobRequest, JobStore, request_key
from repro.service.jobstore import DONE, FAILED, QUEUED, RUNNING

BENCHMARKS = ("gcc", "mcf", "swim")
TORN = (
    b'{"event": "start", "job": "j000001-deadbeef", "attempt": 1}',
    b'{"attempts": 1, "event": "done", "job": "j000001-deadbeef", '
    b'"result": {"cycles": 1234, "ipc": 0.75}}',
)


class Model:
    """What the journal should fold to, written from the spec alone."""

    def __init__(self) -> None:
        self.jobs = {}  # job id -> [key, status, seq, permanent]
        self.by_key = {}
        self.results = {}  # job id -> the payload its complete published
        self.submitted = self.coalesced = 0

    def submit(self, key: str) -> None:
        job = self.jobs.get(self.by_key.get(key))
        if job is not None and not (job[1] == FAILED and job[3]):
            self.coalesced += 1
            return
        self.submitted += 1
        job_id = f"j{self.submitted:06d}-{key[:8]}"
        self.jobs[job_id] = [key, QUEUED, self.submitted, False]
        self.by_key[key] = job_id

    def with_status(self, status: str):
        return sorted(j for j, job in self.jobs.items() if job[1] == status)


def request(benchmark: str) -> JobRequest:
    return JobRequest("simulate", {"benchmark": benchmark, "core": "ooo"})


class TwoHandles(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-model-")) / "store"
        self.handles = [JobStore(self.root), JobStore(self.root)]
        self.follower = JobStore(self.root, readonly=True)
        self.model = Model()

    def teardown(self) -> None:
        for handle in self.handles + [self.follower]:
            handle.close()
        shutil.rmtree(self.root.parent, ignore_errors=True)

    @rule(side=st.integers(0, 1), benchmark=st.sampled_from(BENCHMARKS))
    def submit(self, side, benchmark):
        self.handles[side].submit(request(benchmark))
        self.model.submit(request_key("simulate", request(benchmark).params))

    @precondition(lambda self: self.model.with_status(QUEUED))
    @rule(side=st.integers(0, 1), pick=st.integers(0, 8))
    def claim(self, side, pick):
        queued = self.model.with_status(QUEUED)
        job_id = queued[pick % len(queued)]
        self.handles[side].claim(job_id)
        self.model.jobs[job_id][1] = RUNNING

    @precondition(lambda self: self.model.with_status(RUNNING))
    @rule(side=st.integers(0, 1), pick=st.integers(0, 8))
    def complete(self, side, pick):
        running = self.model.with_status(RUNNING)
        job_id = running[pick % len(running)]
        payload = {"job": job_id, "n": len(self.model.results)}
        self.handles[side].complete(job_id, payload, attempts=1)
        self.model.jobs[job_id][1] = DONE
        self.model.results[job_id] = payload

    @precondition(lambda self: self.model.with_status(RUNNING))
    @rule(side=st.integers(0, 1), pick=st.integers(0, 8),
          permanent=st.booleans())
    def fail(self, side, pick, permanent):
        running = self.model.with_status(RUNNING)
        job_id = running[pick % len(running)]
        self.handles[side].fail(job_id, "boom", permanent, attempts=1)
        self.model.jobs[job_id][1] = FAILED
        self.model.jobs[job_id][3] = permanent

    @rule(side=st.integers(0, 1), torn=st.sampled_from(TORN),
          cut=st.floats(0, 1, exclude_max=True))
    def torn_tail_then_reopen(self, side, torn, cut):
        # The writer dies partway through an append: part of a record,
        # no newline.  The event is lost; nothing else may be.
        with open(self.root / "journal.jsonl", "ab") as handle:
            handle.write(torn[:1 + int(cut * (len(torn) - 1))])
        self.handles[side].close()
        self.handles[side] = JobStore(self.root)

    def check_fold(self, handle: JobStore) -> None:
        handle.refresh()
        assert {
            job.job_id: (job.key, job.status, job.seq)
            for job in handle.jobs.values()
        } == {
            job_id: (key, status, seq)
            for job_id, (key, status, seq, _) in self.model.jobs.items()
        }
        for job_id in handle.jobs:
            assert handle.result(job_id) == self.model.results.get(job_id)
        counters = handle.counters()
        assert counters["submitted"] == self.model.submitted
        assert counters["coalesced"] == self.model.coalesced

    @rule(side=st.integers(0, 1))
    def refresh(self, side):
        self.check_fold(self.handles[side])

    @invariant()
    def the_follower_folds_to_the_model(self):
        self.check_fold(self.follower)


TwoHandles.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestTwoHandles = TwoHandles.TestCase
