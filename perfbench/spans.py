"""Span recording around calls into the simulator's layers.

The benchmark measures each layer from outside: in a traced run,
:func:`instrument` wraps public functions and methods of the simulator's
modules (generation, braid compilation, phase one, the timing kernel and
fidelity tiers, the artifact cache, the experiment context, the worker
pools and the service) so that every call records a span — name, layer,
start, end, parent span and the id of the point or job it serves.  The
wrappers are installed at run time and removed afterwards; no simulator
source changes.

Spans stay in memory.  A forked worker (sweep pool, service fleet) drops
the spans it inherited, records its own, and appends them to a per-pid
file whenever its outermost span closes; the parent merges those files
when the run ends.  :func:`chrome_trace` renders the merged spans as a
Chrome trace-event document and :func:`self_seconds` attributes each
span's self time (its duration minus the part covered by its children)
to its layer.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: layers, in the order reports list them
LAYERS = (
    "workloads", "core", "sim.workload", "sim.kernel", "obs",
    "sim.sampling", "sim.interval", "harness.context", "harness.artifacts",
    "harness.parallel", "service.jobstore", "service.jobs",
)


class Recorder:
    """In-memory span store for one run (plus its forked workers)."""

    def __init__(self, spill_dir: Path, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spill_dir = Path(spill_dir)
        #: the process that owns the run; other pids are forked workers
        self.owner = os.getpid()
        self.pid = self.owner
        self.origin = time.monotonic_ns()
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[int] = []
        #: id of the point or job the current work serves
        self.rid: Optional[str] = None
        #: run phase stamped on each span ("setup", "timed", ...)
        self.phase = "setup"
        #: parent-process span a forked worker's root spans belong to
        self._fork_parent: Optional[int] = None
        self._ids = itertools.count(1)

    def _adopt_fork(self) -> None:
        """First use inside a forked child: start a private span list."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self._fork_parent = self.stack[-1] if self.stack else None
        self.pid = pid
        self.spans = []
        self.stack = []
        # ids stay unique across processes: prefix with the pid
        self._ids = itertools.count(pid * 1_000_000 + 1)

    @contextlib.contextmanager
    def span(self, layer: str, name: str, rid: Optional[str] = None,
             **args: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; ``rid`` sets the request id for nested work
        unless an enclosing span already set one."""
        if not self.enabled:
            yield args
            return
        self._adopt_fork()
        span_id = next(self._ids)
        parent = self.stack[-1] if self.stack else self._fork_parent
        saved_rid = self.rid
        if rid is not None and self.rid is None:
            self.rid = rid
        record = {
            "id": span_id, "parent": parent, "layer": layer, "name": name,
            "rid": self.rid, "phase": self.phase, "pid": self.pid,
            "args": args,
        }
        self.stack.append(span_id)
        record["t0"] = time.monotonic_ns()
        try:
            yield args
        finally:
            record["t1"] = time.monotonic_ns()
            self.stack.pop()
            self.rid = saved_rid
            self.spans.append(record)
            if not self.stack and self.pid != self.owner:
                self._spill()

    def _spill(self) -> None:
        """Append a worker's finished spans to its per-pid file."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        self.spans = []

    def merged(self) -> List[Dict[str, Any]]:
        """This process's spans plus every spilled worker span."""
        merged = list(self.spans)
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    if line.strip():
                        merged.append(json.loads(line))
        return merged

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span (a plain call when off)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, name):
            return fn(*args, **kwargs)


# ------------------------------------------------------------ instrumenting
def _wrap(recorder: Recorder, layer: str, name: str, fn: Callable,
          rid: Optional[Callable] = None,
          note: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``rid(args, kwargs)`` names the request,
    ``note(result, args, kwargs, span_args)`` annotates the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = rid(args, kwargs) if rid is not None else None
        with recorder.span(layer, name, rid=key) as span_args:
            result = fn(*args, **kwargs)
            if note is not None:
                note(result, args, kwargs, span_args)
            return result

    return wrapper


def _fidelity_layer(kwargs) -> str:
    fidelity = kwargs.get("fidelity")
    if fidelity is None:
        fidelity = "sampled" if kwargs.get("sampling") is not None else "exact"
    return {"exact": "sim.kernel", "sampled": "sim.sampling",
            "interval": "sim.interval"}[fidelity]


@contextlib.contextmanager
def instrument(recorder: Recorder) -> Iterator[None]:
    """Install span wrappers on the simulator's layer entry points."""
    from repro.harness import artifacts, context
    from repro.service import jobstore, supervisor
    from repro.sim import workload
    from repro.workloads import suite

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner, attr: str, replacement) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def simple(owner, attr, layer, name=None, **kw):
        patch(owner, attr, _wrap(recorder, layer, name or attr,
                                 owner.__dict__[attr], **kw))

    simple(suite, "generate", "workloads")
    simple(context, "build_program", "workloads")
    simple(context, "braidify", "core")
    simple(context, "prepare_workload", "sim.workload")

    def lazy(attr: str, field: str):
        original = workload.PreparedWorkload.__dict__[attr]

        @functools.wraps(original)
        def wrapper(self):
            if getattr(self, field) is not None:
                return original(self)
            with recorder.span("sim.workload", attr):
                return original(self)

        patch(workload.PreparedWorkload, attr, wrapper)

    lazy("decode", "decoded")
    lazy("replay", "replay_facts")

    simulate = context.__dict__["simulate"]

    @functools.wraps(simulate)
    def traced_simulate(*args, **kwargs):
        with recorder.span(_fidelity_layer(kwargs), "simulate"):
            return simulate(*args, **kwargs)

    patch(context, "simulate", traced_simulate)

    def cache_get_note(result, args, kwargs, span_args):
        span_args["hit"] = result is not None

    def cache_put_note(result, args, kwargs, span_args):
        cache, key = args[0], args[1]
        try:
            span_args["bytes"] = cache.path_for(key).stat().st_size
        except OSError:
            span_args["bytes"] = 0

    simple(artifacts.ArtifactCache, "get", "harness.artifacts",
           note=cache_get_note)
    simple(artifacts.ArtifactCache, "put", "harness.artifacts",
           note=cache_put_note)

    def cell_id(args, kwargs):
        config = args[2] if len(args) > 2 else kwargs["config"]
        return f"{args[1]}/{config.name}"

    simple(context.ExperimentContext, "run", "harness.context", rid=cell_id)
    simple(context.ExperimentContext, "run_many", "harness.context")
    simple(context, "run_point_groups_parallel", "harness.parallel")

    simple(jobstore.JobStore, "submit", "service.jobstore")
    simple(jobstore.JobStore, "claim", "service.jobstore",
           rid=lambda args, kwargs: args[1])
    simple(jobstore.JobStore, "complete", "service.jobstore",
           rid=lambda args, kwargs: args[1])
    simple(supervisor, "prepare", "service.jobs")
    simple(supervisor, "run_tasks_hardened", "harness.parallel")
    simple(supervisor, "execute_job", "service.jobs",
           rid=lambda args, kwargs: args[0][0])
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ------------------------------------------------------------------ export
def chrome_trace(spans: List[Dict[str, Any]], origin: int) -> Dict[str, Any]:
    """Spans as Chrome trace events (``ph: "X"``, microseconds)."""
    events = []
    for span in sorted(spans, key=lambda s: s["t0"]):
        events.append({
            "name": f"{span['layer']}.{span['name']}",
            "cat": span["layer"],
            "ph": "X",
            "ts": max(0.0, (span["t0"] - origin) / 1000.0),
            "dur": max(0.0, (span["t1"] - span["t0"]) / 1000.0),
            "pid": int(span["pid"]),
            "tid": int(span["pid"]),
            "args": {
                "id": span["id"], "parent": span["parent"],
                "rid": span["rid"], "phase": span["phase"],
                **{k: v for k, v in span["args"].items()
                   if isinstance(v, (int, float, str, bool))},
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _covered(intervals: List[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans: List[Dict[str, Any]]) -> Dict[Tuple[str, str], float]:
    """Self time per ``(layer, phase)`` in seconds.

    A span's self time is its duration minus the union of its children's
    intervals inside it; children in forked workers count too, so a
    parent that waits on two workers is not charged twice.
    """
    children: Dict[Any, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["t0"], span["t1"])
            )
    totals: Dict[Tuple[str, str], float] = {}
    for span in spans:
        own = span["t1"] - span["t0"] - _covered(
            children.get(span["id"], []), span["t0"], span["t1"]
        )
        key = (span["layer"], span["phase"])
        totals[key] = totals.get(key, 0.0) + own / 1e9
    return totals


def select(spans, layer: str, name: str, phase: Optional[str] = None):
    return [
        s for s in spans
        if s["layer"] == layer and s["name"] == name
        and (phase is None or s["phase"] == phase)
    ]
