"""Crash-safe append-only JSONL journal, shared by campaign and job store.

One durability idiom, used everywhere a record must survive SIGKILL:

* every append is ``write + flush + fsync`` of one complete JSON line
  under an exclusive ``fcntl.flock``, so a kill point leaves either the
  whole record or a torn final line, and writers never interleave;
* line 1 is a header naming the journal kind, format version, and an
  optional content digest; a journal written by a different producer is
  refused loudly instead of silently mixing records;
* one incremental reader, :meth:`JsonlJournal.read`, serves every
  handle: it parses only the complete lines past its byte offset, so
  opening is "read from offset 0" and catching up costs only the new
  bytes.  A torn tail stays unread; a damaged line is skipped and
  counted (:func:`parse_jsonl_lines`, which the run log's reader
  shares);
* a writer's lock session reads first, then settles the bytes past the
  last newline, which only a dead writer leaves: a record missing just
  its newline gets it, anything else is cut and counted, so the next
  record never lands glued to a torn one.

:class:`~repro.faults.campaign.CampaignJournal` and
:class:`~repro.service.jobstore.JobStore` are both thin layers over this
class; the torn-tail property test in ``tests/test_service_jobstore.py``
truncates a journal at every byte offset of its final record and proves
clean resume.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union


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


def _line(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class JournalError(RuntimeError):
    """An unusable journal: a bad header, or a handle that cannot write."""


class JsonlJournal:
    """Append-only fsynced JSONL file with a digest-guarded header.

    Opening reads every record into :attr:`records`; each :meth:`read`
    then returns, and adds to :attr:`records`, only the complete records
    appended since.  A writing handle appends under :meth:`locked`; a
    read-only handle never locks and never writes.

    A file replaced or truncated under its handle is a rotation.  A
    read-only handle counts it in :attr:`rotations`, drops what it read
    and replays the new file; a writing handle raises
    :class:`JournalError` rather than append into a file nobody reads.
    """

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
        #: records read or appended (header excluded), journal order
        self.records: List[Dict[str, Any]] = []
        #: unparseable lines skipped (damaged bytes, a dead writer's tail)
        self.skipped = 0
        #: times a read-only handle found its file replaced or truncated
        self.rotations = 0
        #: byte offset of the first unread byte
        self.offset = 0
        #: (st_dev, st_ino) of the file being read
        self._identity: Optional[Tuple[int, int]] = None
        self._handle = None
        self._locked = False
        if readonly:
            self.read()
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # O_CREAT|O_APPEND: creating never races another opener, and
        # every write lands at the current end of file.
        self._handle = open(self.path, "ab")
        stat = os.fstat(self._handle.fileno())
        self._identity = (stat.st_dev, stat.st_ino)
        try:
            with self._flock():
                if resume:
                    self.read()
                if self.offset == 0:
                    # Starting over, an empty file, or a torn header.
                    os.ftruncate(self._handle.fileno(), 0)
                    header = {"kind": kind, "version": version}
                    if digest is not None:
                        header["digest"] = digest
                    self._write(_line(header))
                self._settle_tail()
        except BaseException:
            self.close()
            raise
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

    def _check_header(self, line: bytes) -> None:
        try:
            header = json.loads(line)
        except ValueError:
            header = None
        if not isinstance(header, dict):
            raise JournalError(
                f"journal {self.path} has no readable header; "
                f"delete it to start over"
            )
        for field in ("kind", "version", "digest"):
            expected = getattr(self, field)
            if expected is not None and header.get(field) != expected:
                raise JournalError(
                    f"journal {self.path} has {field} "
                    f"{header.get(field)!r}, not {expected!r}; refusing to "
                    f"mix records (delete it or rerun with the original "
                    f"parameters)"
                )

    def _rotate(self) -> None:
        if self._handle is not None:
            raise JournalError(
                f"journal {self.path} was replaced, truncated or removed "
                f"under a writing handle; reopen it"
            )
        self.rotations += 1
        self.records = []
        self.skipped = 0
        self.offset = 0
        self._identity = None

    def read(self) -> List[Dict[str, Any]]:
        """Complete records appended since the last read (possibly []).

        Never blocks and never consumes a torn tail: the offset only
        advances past complete lines, so a record mid-write is delivered
        whole by a later read.
        """
        try:
            with open(self.path, "rb") as handle:
                stat = os.fstat(handle.fileno())
                if self._identity is not None and (
                    (stat.st_dev, stat.st_ino) != self._identity
                    or stat.st_size < self.offset
                ):
                    self._rotate()
                if self.offset == 0:
                    header = handle.readline()
                    if not header.endswith(b"\n"):
                        return []  # empty, or the header is mid-write
                    self._check_header(header)
                    self._identity = (stat.st_dev, stat.st_ino)
                    self.offset = len(header)
                else:
                    handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            if self._handle is not None:
                self._rotate()
            return []
        consumed = chunk.rfind(b"\n") + 1
        records, skipped = parse_jsonl_lines(chunk[:consumed].split(b"\n"))
        self.offset += consumed
        self.skipped += skipped
        self.records.extend(records)
        return records

    def _settle_tail(self) -> List[Dict[str, Any]]:
        """Under the lock: settle the bytes past the last complete line."""
        if os.fstat(self._handle.fileno()).st_size == self.offset:
            return []
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            tail = handle.read()
        records, skipped = parse_jsonl_lines([tail])
        self.skipped += skipped
        if records:
            # The whole record made it to disk; only its newline did not.
            self.offset += len(tail)
            self._write(b"\n")
            self.records.extend(records)
        else:
            os.ftruncate(self._handle.fileno(), self.offset)
        return records

    @contextmanager
    def _flock(self) -> Iterator[None]:
        # flock does not count nesting: an inner unlock would release the
        # outer session, so a nested session is refused outright.
        if self._locked:
            raise JournalError(f"journal {self.path} is already locked")
        # The lock lives on a descriptor of the session's own, never on
        # the append handle a forked worker inherits: a writer killed
        # mid-session then always releases it.
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            self._rotate()  # raises: only writing handles lock
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            self._locked = True
            yield
        finally:
            self._locked = False
            os.close(fd)

    @contextmanager
    def locked(self) -> Iterator[List[Dict[str, Any]]]:
        """One writer's session: yields the records other handles appended
        since this one last read, with any torn tail settled, and holds
        the lock until the block ends."""
        if self._handle is None:
            raise JournalError(f"journal {self.path} was opened read-only")
        with self._flock():
            records = self.read()
            records += self._settle_tail()
            yield records

    def _write(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.offset += len(data)

    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (complete before this call returns).

        Inside :meth:`locked` the record joins that session; otherwise
        the append is a session of its own.
        """
        if not self._locked:
            with self.locked():
                return self.append(record)
        self._write(_line(record))
        self.records.append(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()  # every write was flushed and fsynced
            self._handle = None
