"""Service commands: ``submit``, ``serve``, ``status``, ``events``,
``metrics``.

:func:`add_commands` registers them on the one ``python -m repro.harness``
parser, each with its own flags and a ``--store`` directory::

    python -m repro.harness submit simulate benchmark=gcc core=braid
    python -m repro.harness submit sweep benchmarks=gcc,mcf --client ci
    python -m repro.harness serve --jobs 4 --drain-when-idle
    python -m repro.harness status --job j000001-1a2b3c4d --json
    python -m repro.harness status --follow
    python -m repro.harness events j000001-1a2b3c4d
    python -m repro.harness metrics --json

``submit`` normalizes and validates params at the edge, then durably
journals the request; an identical request coalesces onto the existing
job and the command says so.  ``serve`` runs a supervisor against the
store (SIGTERM drains gracefully; SIGKILL is recovered from the journal
on the next start) and picks up submissions made while it runs.
``status``, ``events`` and ``metrics`` open the store read-only, so they
are safe beside a live supervisor: ``status --follow`` refreshes the
store each frame (reading only the journal bytes appended since the
last) and draws worker progress bars; ``events`` prints a job's
timestamped timeline and the durations it implies; ``metrics`` prints
the supervisor's Prometheus exposition, or renders one from the store
when no supervisor has published.

Param values on the ``submit`` line are parsed as JSON when they look
like it (``runs=8``, ``scale=0.1``) and kept as strings otherwise
(``benchmark=gcc``); comma-separated strings are the list syntax for
``benchmarks=``/``cores=``/``structures=``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List

from ..obs.runlog import read_snapshot
from .jobstore import (
    RUNNING,
    JobRecord,
    JobRequest,
    JobStore,
    QuotaExceeded,
    ServiceError,
    default_store_dir,
)
from .retry import RetryPolicy
from .telemetry import describe_progress


def _parse_params(pairs: List[str], parser) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(
                f"params must be key=value pairs, got {pair!r}"
            )
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not key:
            parser.error(f"params must be key=value pairs, got {pair!r}")
        try:
            value: Any = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key] = value
    return params


@contextmanager
def _store(args, parser, readonly: bool = False) -> Iterator[JobStore]:
    """The store the command names, closed on exit; unusable: usage error."""
    root = Path(args.store) if args.store else default_store_dir()
    try:
        # --quota 0 (or no --quota) leaves quotas off.
        quota = getattr(args, "quota", None) or None
        store = JobStore(root, quota=quota, readonly=readonly)
    except ServiceError as error:
        parser.error(str(error))
    try:
        yield store
    finally:
        store.close()


def _cmd_submit(args, parser) -> int:
    from .jobs import normalize_params

    params = _parse_params(args.params, parser)
    try:
        params = normalize_params(args.kind, params)
    except ServiceError as error:
        parser.error(str(error))
    with _store(args, parser) as store:
        try:
            job_id, coalesced = store.submit(JobRequest(
                kind=args.kind, params=params, client=args.client,
            ))
        except QuotaExceeded as error:
            print(f"rejected: {error}", file=sys.stderr)
            return 1
        except ServiceError as error:
            parser.error(str(error))
    verb = "coalesced onto" if coalesced else "queued as"
    print(f"{verb} {job_id}")
    return 0


def _cmd_serve(args, parser) -> int:
    from .supervisor import ServiceConfig, serve

    policy = RetryPolicy(
        max_attempts=args.max_attempts,
        backoff=args.backoff,
        deadline=args.timeout,
    )
    config = ServiceConfig(
        jobs=args.jobs,
        poll=args.poll,
        drain_when_idle=args.drain_when_idle,
        policy=policy,
        heartbeat=args.heartbeat,
    )
    with _store(args, parser) as store:
        summary = serve(store, config, handle_signals=True)
    counters = summary["counters"]
    print(
        f"served {summary['rounds']} fleet(s): "
        f"{counters['completed']} done, {counters['failed']} failed, "
        f"{counters['coalesced']} coalesced, {counters['active']} pending"
    )
    recovery = summary["recovery"]
    if recovery["interrupted"]:
        print(f"recovered {len(recovery['interrupted'])} interrupted job(s)")
    return 0


def _job_line(store: JobStore, job: JobRecord) -> str:
    line = (
        f"  {job.job_id}  {job.status:8s} {job.kind:9s} "
        f"client={job.client}"
    )
    if job.coalesced:
        line += f" coalesced={job.coalesced}"
    if job.status == RUNNING:
        beat = store.progress(job.job_id)
        if beat is not None:
            line += f"  {_progress_bar(beat)}"
    if job.error:
        line += f"  [{job.error}]"
    return line


def _progress_bar(beat: Dict[str, Any], width: int = 20) -> str:
    """``[#####...............]  23% eta 4s`` from one heartbeat."""
    total = int(beat.get("instructions_total") or 0)
    done = int(beat.get("instructions") or 0)
    cells_total = max(1, int(beat.get("cells_total") or 1))
    cells_done = int(beat.get("cells_done") or 0)
    cell_frac = (done / total) if total > 0 else 0.0
    frac = max(0.0, min(1.0, (cells_done + cell_frac) / cells_total))
    filled = int(round(frac * width))
    bar = "#" * filled + "." * (width - filled)
    out = f"[{bar}] {frac * 100:3.0f}%"
    eta = beat.get("eta_seconds")
    if isinstance(eta, (int, float)):
        out += f" eta {eta:.0f}s"
    return out


def _status_document(store: JobStore) -> Dict[str, Any]:
    """The machine-readable ``status --json`` payload."""
    return {
        "store": str(store.root),
        "counters": store.counters(),
        "jobs": store.summaries(),
        "health": read_snapshot(store.health_path),
    }


def _cmd_status(args, parser) -> int:
    with _store(args, parser, readonly=True) as store:
        if args.follow:
            return _follow_status(args, store)
        if args.job:
            try:
                job = store.job(args.job)
            except ServiceError as error:
                parser.error(str(error))
            doc = store.summaries()[job.job_id]
            result = store.result(args.job)
            if args.json:
                doc["timeline"] = {
                    key: value
                    for key, value in store.timeline(args.job).items()
                    if key != "events"
                }
                doc["result"] = result
                print(json.dumps(doc, indent=1, sort_keys=True))
                return 0
            print(json.dumps(doc, indent=1, sort_keys=True))
            if job.status == "done":
                print(json.dumps(result, indent=1, sort_keys=True))
            return 0
        if args.json:
            print(json.dumps(_status_document(store), indent=1,
                             sort_keys=True))
            return 0
        counters = store.counters()
        print(f"store: {store.root}")
        for name in sorted(counters):
            print(f"  {name:16s} {counters[name]}")
        for job in sorted(store.jobs.values(), key=lambda j: j.seq):
            print(_job_line(store, job))
        return 0


def _render_follow(store: JobStore) -> str:
    lines = []
    health = read_snapshot(store.health_path)
    if health is None:
        lines.append("supervisor: no health file yet")
    else:
        state = "draining" if health.get("draining") else "serving"
        lines.append(
            f"supervisor: pid {health.get('pid')} {state}, "
            f"round {health.get('round')}, "
            f"up {health.get('uptime_seconds', 0):.1f}s"
        )
    by_status: Dict[str, int] = {}
    for job in store.jobs.values():
        by_status[job.status] = by_status.get(job.status, 0) + 1
    lines.append(
        "jobs: " + ", ".join(
            f"{by_status.get(name, 0)} {name}"
            for name in ("queued", "running", "done", "failed")
        )
    )
    for job in sorted(store.jobs.values(), key=lambda j: j.seq):
        lines.append(_job_line(store, job))
    return "\n".join(lines)


def _follow_status(args, store: JobStore) -> int:
    """Live job table: the read-only store refreshed each frame, plus
    the workers' heartbeat files."""
    deadline = (
        time.monotonic() + args.follow_for
        if args.follow_for is not None else None
    )
    tty = sys.stdout.isatty()
    try:
        while True:
            store.refresh()
            frame = _render_follow(store)
            if tty:
                sys.stdout.write("\x1b[2J\x1b[H")
            else:
                frame += "\n---"
            print(frame)
            sys.stdout.flush()
            if deadline is not None and time.monotonic() >= deadline:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _format_event(record: Dict[str, Any]) -> str:
    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        stamp = time.strftime("%H:%M:%S", time.localtime(ts))
        stamp += f".{int((ts % 1) * 1000):03d}"
    else:
        stamp = "--:--:--.---"
    name = record.get("event", "?")
    detail = ""
    if name == "submit":
        detail = f"kind={record.get('kind')} client={record.get('client')}"
    elif name == "start":
        detail = f"attempt={record.get('attempt')}"
    elif name == "done":
        detail = f"attempts={record.get('attempts')}"
    elif name in ("failed", "requeue"):
        detail = record.get("error") or ""
    elif name == "recover":
        detail = record.get("reason") or ""
    elif name == "coalesce":
        detail = f"client={record.get('client')}"
    elif name == "drain":
        detail = f"graceful={record.get('graceful')}"
    job = record.get("job", "")
    return f"{stamp}  {name:8s} {job}  {detail}".rstrip()


def _cmd_events(args, parser) -> int:
    with _store(args, parser, readonly=True) as store:
        if args.job is None:
            events = [
                record for record in store.journal.records
                if "event" in record
            ]
            if args.json:
                print(json.dumps(events, indent=1, sort_keys=True))
                return 0
            for record in events:
                print(_format_event(record))
            return 0
        try:
            timeline = store.timeline(args.job)
        except ServiceError as error:
            parser.error(str(error))
        if args.json:
            print(json.dumps(timeline, indent=1, sort_keys=True))
            return 0
        print(f"timeline for {args.job}:")
        for record in timeline["events"]:
            print(f"  {_format_event(record)}")
        if timeline["queue_wait"] is not None:
            print(f"queue wait: {timeline['queue_wait']:.3f}s")
        if timeline["run_time"] is not None:
            print(f"run time:   {timeline['run_time']:.3f}s")
        if timeline["retry_latencies"]:
            gaps = ", ".join(
                f"{gap:.3f}s" for gap in timeline["retry_latencies"]
            )
            print(f"retry latencies: {gaps}")
        beat = store.progress(args.job)
        if beat is not None:
            print(f"progress: {describe_progress(beat)}")
        return 0


def _cmd_metrics(args, parser) -> int:
    from ..obs.metrics import parse_prometheus, prometheus_errors

    with _store(args, parser, readonly=True) as store:
        live = False
        try:
            text = store.metrics_path.read_text(encoding="utf-8")
        except OSError:
            # No supervisor has published yet: render one on the fly so
            # the command is useful against a cold store.
            from .telemetry import service_registry

            text = service_registry(store).render_prometheus()
            live = True
        errors = prometheus_errors(text)
        for error in errors:
            print(f"invalid exposition: {error}", file=sys.stderr)
        if args.json:
            doc = {
                "source": "rendered" if live else str(store.metrics_path),
                "metrics": parse_prometheus(text) if not errors else None,
                "health": read_snapshot(store.health_path),
            }
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            sys.stdout.write(text)
        return 1 if errors else 0


def add_commands(sub) -> None:
    """Register the five service commands on the harness parser's
    subcommands action."""

    def add_command(name, handler, help):
        command = sub.add_parser(name, help=help, description=help)
        command.set_defaults(handler=handler)
        command.add_argument(
            "--store", default=None, metavar="DIR",
            help="job-store directory (default: REPRO_SERVICE_DIR or "
                 "~/.cache/repro/service)",
        )
        return command

    submit = add_command(
        "submit", _cmd_submit,
        "durably enqueue one job (dedups identical requests)",
    )
    submit.add_argument(
        "kind", choices=("simulate", "sweep", "faults"),
        help="what to run",
    )
    submit.add_argument(
        "params", nargs="*", metavar="KEY=VALUE",
        help="job params, e.g. benchmark=gcc core=braid scale=0.2",
    )
    submit.add_argument(
        "--client", default="default", metavar="NAME",
        help="submitting client (quotas and fair-share are per client)",
    )
    submit.add_argument(
        "--quota", type=int, default=None, metavar="N",
        help="per-client active-job quota (default: none)",
    )

    serve = add_command(
        "serve", _cmd_serve, "run a supervisor against the store",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="hardened worker processes (default 1: serial in-process)",
    )
    serve.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="idle poll interval while watching for submissions",
    )
    serve.add_argument(
        "--drain-when-idle", action="store_true",
        help="exit when the queue is empty instead of watching (batch mode)",
    )
    serve.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-job wall-clock deadline before the watchdog kills the "
             "worker (default 120)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per job before it is retired (default 3)",
    )
    serve.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubled per attempt with deterministic "
             "jitter (default 0.5)",
    )
    serve.add_argument(
        "--heartbeat", type=float, default=0.25, metavar="SECONDS",
        help="worker progress-heartbeat interval; 0 disables heartbeats "
             "(default 0.25); a job past --timeout whose heartbeat is "
             "under 8 intervals (min 2s) old and advancing is extended",
    )

    status = add_command(
        "status", _cmd_status,
        "inspect the store read-only (safe while serving)",
    )
    status.add_argument(
        "--job", default=None, metavar="ID",
        help="show one job's record (and its result when done)",
    )
    status.add_argument(
        "--json", action="store_true",
        help="machine-readable output (summary, per-job progress, health)",
    )
    status.add_argument(
        "--follow", action="store_true",
        help="live job table: tail the journal incrementally and render "
             "worker progress bars until interrupted",
    )
    status.add_argument(
        "--interval", type=float, default=0.25, metavar="SECONDS",
        help="refresh interval for --follow (default 0.25)",
    )
    status.add_argument(
        "--follow-for", type=float, default=None, metavar="SECONDS",
        help="stop following after this many seconds (default: forever)",
    )

    events = add_command(
        "events", _cmd_events,
        "timestamped journal timeline (one job, or the whole store)",
    )
    events.add_argument(
        "job", nargs="?", default=None, metavar="ID",
        help="job to show (with derived queue-wait/run-time/retry "
             "durations); omit for the full event stream",
    )
    events.add_argument(
        "--json", action="store_true",
        help="machine-readable timeline",
    )

    metrics = add_command(
        "metrics", _cmd_metrics,
        "Prometheus exposition published by the supervisor "
        "(validated; rendered live when no supervisor has run)",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="parsed samples plus the supervisor health file",
    )

