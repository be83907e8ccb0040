"""Deterministic chaos injection and kill-recovery (repro.service.chaos).

The headline invariant — SIGKILL the supervisor mid-campaign, restart,
and end bit-identical to an uninterrupted run — is proven here with a
real subprocess supervisor, a real SIGKILL, and a journal replay; the
full mixed-batch version runs in CI as ``scripts/chaos_smoke.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import ChaosSpec, JobRequest, JobStore
from repro.service.chaos import (
    ChaosSpecError,
    FAIL_WRITE,
    chaos_point,
    spec_from_env,
)
from repro.service.jobs import normalize_params
from repro.service.jobstore import DONE

REPO = Path(__file__).resolve().parent.parent
SIZING = {"scale": 0.05, "max_instructions": 3000}


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _has_fork(), reason="requires the fork start method"
)


def submit(store, benchmark, core, client="default"):
    job_id, _ = store.submit(JobRequest(
        kind="simulate",
        params=normalize_params(
            "simulate",
            {"benchmark": benchmark, "core": core, **SIZING},
        ),
        client=client,
    ))
    return job_id


class TestChaosSpec:
    def test_parse_render_round_trip(self):
        spec = ChaosSpec.parse(
            "kill-worker:j1@2;fail-write:j2;kill-supervisor:3"
        )
        assert spec.kill_worker == {"j1": 2}
        assert spec.fail_write == {"j2": 1}
        assert spec.kill_supervisor_after == 3
        assert ChaosSpec.parse(spec.render()) == spec

    @pytest.mark.parametrize("bad", [
        "no-colon-clause",
        "kill-worker:@2",
        "kill-worker:j1@zero",
        "kill-supervisor:many",
        "kill-supervisor:-1",
        "explode-the-disk:j1",
    ])
    def test_bad_specs_are_rejected(self, bad):
        with pytest.raises(ChaosSpecError):
            ChaosSpec.parse(bad)

    def test_unarmed_environment_is_a_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert spec_from_env() is None
        chaos_point(FAIL_WRITE, "any-job")  # must not raise

    def test_occurrence_budget_holds_across_processes(
        self, tmp_path, monkeypatch
    ):
        spec = ChaosSpec(fail_write={"j": 2})
        for name, value in spec.environ(tmp_path / "marks").items():
            monkeypatch.setenv(name, value)
        fired = 0
        for _ in range(5):
            try:
                chaos_point(FAIL_WRITE, "j")
            except OSError:
                fired += 1
        assert fired == 2  # budget, not per-call probability


@needs_fork
class TestWorkerKill:
    def test_sigkilled_worker_retries_to_completion(
        self, tmp_path, monkeypatch
    ):
        from repro.service.retry import RetryPolicy
        from repro.service.supervisor import ServiceConfig, serve

        store = JobStore(tmp_path / "store")
        job_id = submit(store, "gcc", "braid")
        spec = ChaosSpec(kill_worker={job_id: 1})
        for name, value in spec.environ(tmp_path / "marks").items():
            monkeypatch.setenv(name, value)
        # jobs=2: the kill lands in a forked hardened worker, and the
        # runner must survive it and re-dispatch.
        serve(store, ServiceConfig(
            jobs=2, drain_when_idle=True,
            policy=RetryPolicy(backoff=0.01, deadline=60.0),
        ))
        job = store.job(job_id)
        assert job.status == DONE and job.attempts == 2
        assert store.result(job_id)["cycles"] > 0
        store.close()


class TestSupervisorKill:
    """SIGKILL the supervisor subprocess mid-run; restart; compare."""

    def _serve_subprocess(self, root):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        spec = ChaosSpec(kill_supervisor_after=1)
        env.update(spec.environ(root / "chaos-marks"))
        return subprocess.run(
            [sys.executable, "-m", "repro.harness", "serve",
             "--store", str(root), "--drain-when-idle", "--jobs", "2",
             "--timeout", "60"],
            env=env, cwd=str(REPO), capture_output=True, text=True,
            timeout=300,
        )

    def test_kill_restart_is_bit_identical_to_uninterrupted(
        self, tmp_path
    ):
        from repro.service.retry import RetryPolicy
        from repro.service.supervisor import ServiceConfig, serve

        jobs = [("gcc", "braid"), ("mcf", "inorder"), ("gcc", "ooo")]

        # Reference: uninterrupted, in-process.
        reference = JobStore(tmp_path / "reference")
        ref_ids = [submit(reference, b, c) for b, c in jobs]
        for b, c in jobs:  # duplicates pin the dedup counters
            submit(reference, b, c, client="other")
        serve(reference, ServiceConfig(
            jobs=1, drain_when_idle=True,
            policy=RetryPolicy(deadline=60.0),
        ))
        ref_payloads = [
            json.dumps(reference.result(j), sort_keys=True) for j in ref_ids
        ]
        ref_counters = reference.counters()
        reference.close()

        # Chaos: subprocess supervisor, SIGKILLed after its first settle.
        # Jobs are claimed one per free worker, so two workers keep a
        # second job in flight when the kill lands.
        root = tmp_path / "chaos"
        store = JobStore(root)
        chaos_ids = [submit(store, b, c) for b, c in jobs]
        for b, c in jobs:
            submit(store, b, c, client="other")
        store.close()
        assert chaos_ids == ref_ids  # same submissions, same identities

        first = self._serve_subprocess(root)
        assert first.returncode == -9, (
            f"expected a SIGKILL death, got {first.returncode}: "
            f"{first.stderr}"
        )
        second = self._serve_subprocess(root)
        assert second.returncode == 0, second.stderr

        after = JobStore(root, readonly=True)
        assert [after.job(j).status for j in chaos_ids] == [DONE] * 3
        payloads = [
            json.dumps(after.result(j), sort_keys=True) for j in chaos_ids
        ]
        assert payloads == ref_payloads
        counters = after.counters()
        assert counters["coalesced"] == ref_counters["coalesced"] == 3
        assert counters["completed"] == ref_counters["completed"] == 3
        assert counters["recovered"] >= 1  # something was mid-flight
        assert counters["torn_lines"] == 0
        after.close()
