"""Shared plumbing for the benchmark: environment, statistics, accounting
and host speed.

Nothing here imports :mod:`repro`; the statistics and failure-accounting
helpers are unit-tested on their own (``test_common.py``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: checkout root (the directory holding ``BENCHMARK.json``)
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for caches, stores, span files and run reports
WORK = ROOT / ".perfbench-work"

#: a tail percentile is reported only with at least this many samples
#: beyond it
MIN_BEYOND = 10


# ------------------------------------------------------------ environment
def isolate_environment(work: Path) -> None:
    """Confine every cache, temp file and log of the run to ``work``.

    Every ``REPRO_*`` knob is cleared so an operator's shell settings
    cannot change what is measured; the artifact cache and temp files
    move inside the checkout.
    """
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_RUNLOG"] = "off"


def fresh_dir(parent: Path, prefix: str) -> Path:
    """A new empty directory under ``parent``."""
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=str(parent)))


# ------------------------------------------------------------- statistics
def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when the tail is too thin.

    The median is always reported.  A tail percentile (``q > 50``) is
    reported only when at least :data:`MIN_BEYOND` samples lie strictly
    beyond its rank, so a p90 needs 100 samples or more.
    """
    if not values:
        return None
    if q == 50:
        return median(values)
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if q > 50 and len(ordered) - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


# ------------------------------------------------------------- accounting
#: job states that count as finished work
FINISHED = ("done",)


def unfinished_jobs(statuses: Iterable[str]) -> int:
    """Jobs that did not reach ``done``: failed, or still queued/running.

    A job left queued or running when the drain returned counts as a
    failure, so a supervisor that silently stops running work cannot
    inflate the job rate.
    """
    return sum(1 for status in statuses if status not in FINISHED)


class Accounting:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 50:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` when it fails."""
        self.attempt()
        if not ok:
            self.fail(message)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ------------------------------------------------------------------ host
def peak_rss_mb() -> Dict[str, float]:
    """Peak resident set of this process and of its reaped children."""
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    return {"self": own, "children": children}


def sha256_parts(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def source_digest(root: Path = ROOT) -> str:
    """Content hash of the simulator sources (identifies the code measured
    even where the checkout is not a git repository)."""
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path = ROOT) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_stamp(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    return {
        "run_id": f"{time.strftime('%Y%m%dT%H%M%S')}-{uuid.uuid4().hex[:8]}",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
        },
    }


def nproc() -> int:
    return os.cpu_count() or 1


# ------------------------------------------------------------ host speed
#: steps of :func:`reference_work` per call (about 10 ms)
REFERENCE_STEPS = 60_000
#: seconds one :func:`reference_work` call takes on the reference host
#: (2 vCPUs of a shared x86-64 VM, CPython 3.11), the unit every host
#: time of this benchmark is reported in
REFERENCE_SECONDS = 0.0100


class _Node:
    __slots__ = ("value", "link")


def _reference_graph(size: int = 4096):
    order = list(range(size))
    random.Random(0).shuffle(order)
    nodes = [_Node() for _ in range(size)]
    for index, node in enumerate(nodes):
        node.value = index
        node.link = nodes[order[index]]
    table = {index: (index * 40503) % 65521 for index in range(size)}
    return nodes, table


_NODES, _TABLE = _reference_graph()


def reference_work(steps: int = REFERENCE_STEPS) -> int:
    """A fixed pure-Python loop: attribute reads and writes, dict lookups,
    pointer chasing and integer arithmetic, like an interpreter-bound
    simulator.  It allocates no container objects, so the collector never
    runs inside it, and it calls nothing from :mod:`repro`, so a change
    to the simulator cannot change its speed."""
    node, table, acc = _NODES[0], _TABLE, 0
    for step in range(steps):
        acc = (acc + table[node.value & 4095] + step) & 0xFFFFFF
        node.value = acc
        node = node.link
    return acc


def time_reference() -> float:
    """CPU seconds of one :func:`reference_work` call: the host's speed,
    without the time the OS gave this process's CPU to a sibling worker."""
    started = time.process_time()
    reference_work()
    return time.process_time() - started


class HostClock:
    """Host time, adjusted for how fast the shared host runs right now.

    On a shared VM the same code runs up to a third slower or faster
    from one minute to the next (a neighbour's load, the clock), in CPU
    time as much as in wall time.  The clock times :func:`reference_work`
    next to every measured piece of work and reports
    ``seconds * REFERENCE_SECONDS / reference``, where ``reference`` is
    the median of the samples taken just before, during (see
    :class:`WorkerSamples`) and just after it: seconds on the reference
    host.  A change to the simulator moves the adjusted time as much as
    the raw one; a slow minute on the host does not.
    """

    def __init__(self, reps: int = 1) -> None:
        self.reps = reps
        self.samples: List[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        """Median seconds of ``reps`` reference calls; becomes ``last``."""
        self.last = median([time_reference() for _ in range(self.reps)])
        self.samples.append(self.last)
        return self.last

    @staticmethod
    def factor(*samples: float) -> float:
        """Reference-host seconds per host second, given the reference
        samples taken around and during a piece of work."""
        return REFERENCE_SECONDS / median(samples)

    def measure(self, fn, *args, fresh: bool = False, **kwargs):
        """``(result, adjusted seconds, raw seconds)`` of ``fn(...)``.

        The sample taken after the previous call serves as this call's
        "before" unless ``fresh`` asks for a new one (other work ran in
        between)."""
        before = self.sample() if fresh else self.last
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - started
        return result, raw * self.factor(before, self.sample()), raw

    @property
    def speed(self) -> float:
        """Host speed over the run relative to the reference host."""
        return REFERENCE_SECONDS / median(self.samples)


class WorkerSamples:
    """Reference samples taken inside a pool's worker processes.

    A parallel sweep or a service drain runs in forked workers while the
    parent waits, so samples the parent takes before and after it miss
    how fast the host ran under that load.  :meth:`install` wraps a
    function the workers call once per task (a sweep cell, a service
    job) so that a process times one :func:`reference_work` call before a
    task when :attr:`interval` seconds have passed since its last sample
    (about 4% of a busy worker's time), appending
    ``"<monotonic ns> <seconds>"`` to a per-pid file; :meth:`between`
    reads back the samples of a time window.
    """

    def __init__(self, directory: Path, interval: float = 0.25) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self._last: Dict[int, float] = {}

    @contextlib.contextmanager
    def install(self, owner, attr: str):
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def sampled(*args, **kwargs):
            self.maybe_sample()
            return original(*args, **kwargs)

        setattr(owner, attr, sampled)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def maybe_sample(self) -> None:
        pid = os.getpid()
        if time.monotonic() - self._last.get(pid, -math.inf) < self.interval:
            return
        seconds = time_reference()
        self._last[pid] = time.monotonic()
        with open(self.directory / f"{pid}.txt", "a") as handle:
            handle.write(f"{time.monotonic_ns()} {seconds!r}\n")

    def between(self, start_ns: int, end_ns: int) -> List[float]:
        samples = []
        for path in self.directory.glob("*.txt"):
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) != 2:
                    continue  # a worker killed mid-write
                stamp, seconds = fields
                if start_ns <= int(stamp) <= end_ns:
                    samples.append(float(seconds))
        return samples


class Deadline:
    """Repeat a unit of work for about ``seconds``.

    At least ``minimum`` units run; another starts only while the time
    used so far plus the mean unit time stays within the budget.
    """

    def __init__(self, seconds: float, minimum: int = 1) -> None:
        self.seconds = seconds
        self.minimum = minimum
        self.started = time.perf_counter()
        self.units: List[float] = []

    def another(self) -> bool:
        if len(self.units) < self.minimum:
            return True
        used = time.perf_counter() - self.started
        mean = sum(self.units) / len(self.units)
        return used + mean <= self.seconds

    def record(self, seconds: float) -> None:
        self.units.append(seconds)
