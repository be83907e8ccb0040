"""Crash-safe append-only JSONL journal, shared by campaign and job store.

One durability idiom, used everywhere a record must survive SIGKILL:

* every append is ``write + flush + fsync`` of one complete JSON line, so
  a kill point leaves either the whole record or a torn final line — never
  a half-applied state;
* line 1 is a header naming the journal kind, format version, and an
  optional content digest; resuming against a journal written by a
  different producer is refused loudly instead of silently mixing records;
* loading tolerates a torn tail: an unparseable line is skipped and
  counted (:func:`parse_jsonl_lines`, which the run log's reader shares),
  and because every record is one idempotent event, the worst a torn tail
  costs is redoing the work the lost record described.

:class:`~repro.faults.campaign.CampaignJournal` and
:class:`~repro.service.jobstore.JobStore` are both thin layers over this
class; the torn-tail property test in ``tests/test_service_jobstore.py``
truncates a journal at every byte offset of its final record and proves
clean resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union


def parse_jsonl_lines(
    lines: Iterable[Union[str, bytes]],
) -> Tuple[List[Dict[str, Any]], int]:
    """Parse JSONL lines into ``(records, skipped)``.

    Blank lines are ignored.  A line that does not parse (a torn tail
    from a mid-write kill, damaged bytes) or is not a JSON object costs
    that one record: it is skipped and counted, never fatal.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:  # JSONDecodeError or UnicodeDecodeError
            skipped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped


class JournalError(RuntimeError):
    """An unusable journal: missing/mismatched header or a dead handle."""


class JsonlJournal:
    """Append-only fsynced JSONL file with a digest-guarded header."""

    def __init__(
        self,
        path: Path,
        kind: str,
        version: int,
        digest: Optional[str] = None,
        resume: bool = True,
        readonly: bool = False,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.version = version
        self.digest = digest
        self.readonly = readonly
        #: records restored from disk (header excluded), journal order
        self.records: List[Dict[str, Any]] = []
        #: unparseable lines skipped during load (torn tail / bad disk)
        self.skipped = 0
        self._handle = None
        existing = self.path.exists() and self.path.stat().st_size > 0
        if existing and (resume or readonly):
            self._load()
        if readonly:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (existing and resume)
        # Always O_APPEND (mode "a"), truncating a journal that is not
        # resumed: every write lands at the current end of file, so two
        # handles on one journal can never overwrite each other's lines.
        self._handle = open(
            self.path, "a", encoding="utf-8",
            opener=lambda path, flags: os.open(
                path, flags | (os.O_TRUNC if fresh else 0), 0o666
            ),
        )
        if fresh:
            header = {"kind": self.kind, "version": self.version}
            if self.digest is not None:
                header["digest"] = self.digest
            self._write_line(header)
        self._fsync_parent()

    def _fsync_parent(self) -> None:
        """Make the journal's directory entry itself durable."""
        try:
            fd = os.open(str(self.path.parent), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _load(self) -> None:
        # errors="replace": a line of damaged bytes must cost that one
        # record (it fails the JSON parse below and is counted), never
        # the whole journal.
        with open(self.path, "r", encoding="utf-8",
                  errors="replace") as handle:
            lines = handle.read().splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            raise JournalError(
                f"journal {self.path} has no readable header; "
                f"delete it to start over"
            ) from None
        if header.get("kind") != self.kind:
            raise JournalError(
                f"journal {self.path} was written by {header.get('kind')!r}, "
                f"not {self.kind!r}; refusing to mix records"
            )
        if header.get("version") != self.version:
            raise JournalError(
                f"journal {self.path} uses format version "
                f"{header.get('version')!r}, this build writes "
                f"{self.version!r}; delete it to start over"
            )
        if self.digest is not None and header.get("digest") != self.digest:
            raise JournalError(
                f"journal {self.path} belongs to a different producer "
                f"(digest {header.get('digest')!r} != {self.digest!r}); "
                f"delete it or rerun with the original parameters"
            )
        # A torn tail from a mid-write kill (or a damaged line) loses its
        # event; the work it described simply reruns.
        self.records, self.skipped = parse_jsonl_lines(lines[1:])

    def _write_line(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError(
                f"journal {self.path} was opened read-only"
            )
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (complete before this call returns)."""
        self._write_line(record)
        self.records.append(record)

    def follow(self) -> "JournalFollower":
        """An incremental tail reader over this journal's file."""
        return JournalFollower(self.path, kind=self.kind,
                               version=self.version)

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self._handle.close()
        except OSError:
            pass
        self._handle = None


class JournalFollower:
    """Incremental ``tail -f`` reader for a :class:`JsonlJournal` file.

    Each :meth:`poll` returns the complete records appended since the
    last poll, never blocking and never raising on in-flight writes:

    * a **torn tail** (bytes after the last newline — the writer is
      mid-``write`` or was killed inside one) is left unconsumed; the
      offset only ever advances past complete lines, so the record is
      delivered whole on a later poll or never;
    * a complete-but-unparseable line (damaged middle) is consumed,
      counted in :attr:`skipped`, and skipped;
    * **rotation/truncation** (the file shrank, or its header line
      changed — someone deleted and recreated the store) is detected by
      re-reading the header each poll; the follower resets to the new
      file's beginning and counts it in :attr:`rotations` rather than
      serving records from a stale offset.

    ``kind``/``version`` mismatches in a header raise
    :class:`JournalError` loudly, same as :class:`JsonlJournal` resume —
    following the wrong journal is an operator error, not a tail state.
    """

    def __init__(
        self,
        path: Path,
        kind: Optional[str] = None,
        version: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.version = version
        #: byte offset of the first unconsumed byte (past the header)
        self.offset = 0
        #: complete-but-unparseable lines consumed and dropped
        self.skipped = 0
        #: times the file was detected replaced or truncated
        self.rotations = 0
        self._header_line: Optional[bytes] = None
        self._inode: Optional[int] = None

    def _check_header(self, line: bytes) -> None:
        try:
            header = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise JournalError(
                f"journal {self.path} has no readable header"
            ) from None
        if not isinstance(header, dict):
            raise JournalError(f"journal {self.path} has no readable header")
        if self.kind is not None and header.get("kind") != self.kind:
            raise JournalError(
                f"journal {self.path} was written by "
                f"{header.get('kind')!r}, not {self.kind!r}; "
                f"refusing to follow"
            )
        if self.version is not None and header.get("version") != self.version:
            raise JournalError(
                f"journal {self.path} uses format version "
                f"{header.get('version')!r}, this build reads "
                f"{self.version!r}; refusing to follow"
            )

    def poll(self) -> List[Dict[str, Any]]:
        """Complete records appended since the last poll (possibly [])."""
        try:
            with open(self.path, "rb") as handle:
                head = handle.readline()
                if not head.endswith(b"\n"):
                    # The header itself is still being written (or the
                    # file is empty): nothing is consumable yet.
                    return []
                stat = os.fstat(handle.fileno())
                rotated = (
                    head != self._header_line
                    or stat.st_ino != self._inode  # replaced, same header
                    or stat.st_size < self.offset  # truncated in place
                )
                if rotated:
                    if self._header_line is not None:
                        self.rotations += 1
                    self._check_header(head)
                    self._header_line = head
                    self._inode = stat.st_ino
                    self.offset = len(head)
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            return []
        # Only complete lines are consumed; a torn tail (if any) stays.
        consumed = chunk.rfind(b"\n") + 1
        records, skipped = parse_jsonl_lines(
            chunk[:consumed].split(b"\n")
        )
        self.skipped += skipped
        self.offset += consumed
        return records


def write_json_atomic(path: Path, payload: Any) -> None:
    """Publish a JSON file via temp-file + fsync + atomic rename.

    Any kill point leaves either the previous file or the complete new
    one — the state-snapshot half of the journal/snapshot durability
    pair.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_text_atomic(path: Path, text: str) -> None:
    """Publish a text file via temp-file + fsync + atomic rename.

    Same kill-safety contract as :func:`write_json_atomic`; used for the
    supervisor's Prometheus exposition file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json(path: Path) -> Optional[Any]:
    """Load a JSON file; None when missing or unreadable (caller decides)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
