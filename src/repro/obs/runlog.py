"""Structured JSONL run logs for harness sweeps.

One line per simulated sweep cell, written next to the artifact cache, so
sweep behaviour (per-cell wall time, cache hits, worker distribution,
sample-plan shape) is inspectable after the fact without re-running.

The log is append-only JSONL.  Each write is a single ``os.write`` to a
file opened with ``O_APPEND``, which POSIX guarantees atomic for small
writes — concurrent pool workers interleave whole lines, never bytes.
Logging failures are swallowed: telemetry must never break a sweep.

Control via ``REPRO_RUNLOG``: unset → log to ``<cache-root>/runlog.jsonl``
when the artifact cache is enabled; ``0``/``off``/``false``/``no`` →
disabled; any other value → that path.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ENV_RUNLOG = "REPRO_RUNLOG"

_DISABLE_VALUES = {"0", "off", "false", "no", ""}


class RunLog:
    """Append-only JSONL event log (``path=None`` disables it)."""

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
        """Append one event; never raises."""
        if self.path is None:
            return
        record: Dict[str, Any] = {"ts": round(time.time(), 3), "pid": os.getpid()}
        record.update(fields)
        try:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
        except (TypeError, ValueError):
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
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
