"""Telemetry records: the stamp, atomic snapshots and JSONL run logs.

:func:`event_stamp` is the one writer of the ``ts`` (wall clock,
comparable across processes), ``mono`` (monotonic, meaningful within
one process) and ``pid`` fields that every telemetry record carries: the
service journal's events, :class:`RunLog` lines and snapshots.  A
snapshot is one stamped JSON object its writer replaces whole (worker
heartbeats, the supervisor's ``health.json``): :func:`write_snapshot`
publishes it and :func:`read_snapshot` reads it back.
:func:`write_atomic` is the one temp-file + ``os.replace`` publisher —
snapshots, ``metrics.prom`` and artifact-cache entries — so a reader or
a SIGKILL sees the old file or the new one, never a torn one.

:class:`RunLog` appends one line per simulated sweep cell next to the
artifact cache.  Each line is one ``os.write`` to an ``O_APPEND`` file,
which POSIX keeps atomic for small writes, so concurrent pool workers
interleave whole lines; logging failures are swallowed.  A line that
would take the file past :data:`RUNLOG_MAX_BYTES` first rotates it to
``<name>.1`` (replacing the previous generation), so the log keeps at
most two generations.
``REPRO_RUNLOG``: unset → ``<cache-root>/runlog.jsonl`` when the cache
is enabled; ``0``/``off``/``false``/``no`` → disabled; else that path.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

ENV_RUNLOG = "REPRO_RUNLOG"

_DISABLE_VALUES = {"0", "off", "false", "no", ""}

#: size at which a run log rotates: one previous generation is kept as
#: ``<name>.1``, so the log takes at most twice this on disk (a sweep
#: cell's line is about 400 bytes; a full quick sweep logs ~100 KB)
RUNLOG_MAX_BYTES = 4 * 2**20

#: per-process serial in temp-file names: no two writers share one
_TMP_SERIAL = itertools.count()


def event_stamp() -> Dict[str, Any]:
    """The ``ts``/``mono``/``pid`` fields of one telemetry record."""
    return {
        "ts": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "pid": os.getpid(),
    }


def write_atomic(path: Path, data: bytes, fsync: bool = True) -> None:
    """Publish ``data`` at ``path`` via ``<name>.<pid>.<serial>.tmp`` and
    an atomic rename (the temp file is removed if the write fails);
    ``fsync`` forces the bytes to disk first (service state)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_snapshot(path: Path, state: Mapping[str, Any]) -> None:
    """Stamp ``state`` and publish it durably as sorted, indented JSON."""
    record = dict(state)
    record.update(event_stamp())
    text = json.dumps(record, sort_keys=True, indent=1)
    write_atomic(path, text.encode("utf-8"))


def read_snapshot(path: Path) -> Optional[Dict[str, Any]]:
    """The JSON object at ``path``; None when missing, unreadable or not
    an object (the caller decides what absence means)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, ValueError):
        return None
    return state if isinstance(state, dict) else None


def rotated_path(path: Path) -> Path:
    """The previous generation of the run log at ``path``."""
    return path.with_name(path.name + ".1")


def _open_append(path: Path) -> int:
    return os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)


class RunLog:
    """Append-only JSONL event log (``path=None`` disables it), rotated
    at :data:`RUNLOG_MAX_BYTES`; :meth:`read` reads the current
    generation."""

    def __init__(self, path: Optional[Path]) -> None:
        self.path = Path(path) if path is not None else None
        #: unparseable lines skipped by the last :meth:`read` (torn tail
        #: from a killed writer, damaged disk, or a foreign line)
        self.skipped = 0

    @property
    def enabled(self) -> bool:
        return self.path is not None

    @classmethod
    def from_env(cls, cache=None) -> "RunLog":
        """Resolve the log destination from ``REPRO_RUNLOG`` / the cache."""
        raw = os.environ.get(ENV_RUNLOG)
        if raw is not None:
            if raw.strip().lower() in _DISABLE_VALUES:
                return cls(None)
            return cls(Path(raw))
        if cache is not None and getattr(cache, "enabled", False):
            return cls(Path(cache.root) / "runlog.jsonl")
        return cls(None)

    def log(self, **fields: Any) -> None:
        """Append one stamped event; never raises."""
        if self.path is None:
            return
        record = event_stamp()
        record.update(fields)
        try:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
        except (TypeError, ValueError):
            return
        data = line.encode("utf-8")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = _open_append(self.path)
            try:
                opened = os.fstat(fd)
                if opened.st_size and \
                        opened.st_size + len(data) > RUNLOG_MAX_BYTES:
                    # Rotate only the file this writer opened: another
                    # writer may have rotated it already.
                    if os.stat(self.path).st_ino == opened.st_ino:
                        os.replace(self.path, rotated_path(self.path))
                    os.close(fd)
                    fd = _open_append(self.path)
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError:
            pass

    def read(self) -> List[Dict[str, Any]]:
        """All parseable events; torn or foreign lines are skipped + counted.

        The journal's parser
        (:func:`repro.service.journal.parse_jsonl_lines`): a half-written
        record (the writer was killed mid-``os.write``, or the disk
        damaged a line) costs that one event, never the log.  The number
        of lines lost is exposed as :attr:`skipped` so growing loss is
        visible instead of silent.
        """
        # Imported here: repro.service imports the harness, which imports
        # this module.
        from ..service.journal import parse_jsonl_lines

        self.skipped = 0
        if self.path is None:
            return []
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return []
        events, self.skipped = parse_jsonl_lines(text.splitlines())
        return events
