"""Persistent on-disk cache for phase-one experiment artifacts.

Every fresh session used to recompute program generation, braid compilation,
functional traces, and predictor/cache oracles from scratch even though they
are pure functions of ``(benchmark, scale, perfect, internal_limit,
predictor, max_instructions)``.  This module stores those artifacts
(:class:`~repro.sim.workload.PreparedWorkload`,
:class:`~repro.core.pipeline.BraidCompilation`) as pickles under a cache
directory so repeated bench runs skip phase one entirely.

Layout and knobs:

* the cache root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
* ``ArtifactCache(enabled=False)`` (the harness ``--no-cache`` flag)
  disables all reads and writes;
* ``$REPRO_CACHE_LIMIT_MB`` bounds the cache size: after every write the
  least-recently-used entries (reads touch mtime) are evicted until the
  total is back under the limit;
* ``python -m repro.harness cache-info`` / ``cache-clear`` inspect and wipe
  the store from the command line;
* every key embeds :data:`CACHE_FORMAT_VERSION` — bump it whenever the
  pickled artifact layout or the phase-one semantics change, and stale
  entries are simply never looked up again;
* unreadable or truncated entries are *quarantined* (moved aside into
  ``quarantine/`` for post-mortem, bounded to the newest few) and
  recomputed, so a crashed writer cannot poison later runs — each logs a
  one-line warning to stderr and is counted in ``stats()["corruptions"]``;
  writes go through a temp file plus ``os.replace`` so concurrent workers
  only ever see complete entries;
* LRU eviction is safe under concurrent writers: before unlinking, each
  candidate is re-checked against the scan — an entry republished or
  touched since the scan is skipped, so eviction can race a writer
  publishing the same slot without destroying the fresh entry
  (``stats()["evictions"]`` counts what was actually removed).

Besides phase-one artifacts the cache can hold finished timing results
(``result_key``), used by the opt-in ``--result-cache`` flag; result
keys embed the machine configuration and the fidelity tier with its
tuning, so the exact, sampled and interval runs of one point never
collide.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.runlog import write_atomic
from ..sim.gcpause import collector_paused

#: Bump when artifact pickles or phase-one semantics change shape.
#: v2: SimResult grew observability fields (cpi_stack, metrics).
#: v3: SimResult grew the fidelity field; result keys carry a fidelity
#: token so exact/sampled/interval runs of one point never collide.
#: v4: core registry landed (blockooo paradigm, registry-ordered
#: sweeps), so cached experiment tables can change column sets.
#: v5: a workload pickles its trace as per-field columns, not one state
#: dict per slotted ``DynInst`` row.
CACHE_FORMAT_VERSION = 5

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_LIMIT = "REPRO_CACHE_LIMIT_MB"

#: ``*.tmp`` files older than this are orphans from a killed writer; a
#: younger one may belong to a concurrently-running worker, so leave it.
_ORPHAN_TMP_AGE_SECONDS = 3600.0

#: corrupt entries kept aside for post-mortem; older ones are dropped
_QUARANTINE_KEEP = 32


def default_cache_dir() -> Path:
    """Resolve the cache root from ``REPRO_CACHE_DIR`` (or ``~/.cache/repro``)."""
    env = os.environ.get(_ENV_DIR, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def cache_limit_from_env() -> Optional[int]:
    """Size bound in bytes from ``REPRO_CACHE_LIMIT_MB`` (None: unbounded)."""
    value = os.environ.get(_ENV_LIMIT, "").strip()
    if not value:
        return None
    try:
        megabytes = float(value)
    except ValueError:
        raise ValueError(
            f"{_ENV_LIMIT} must be a number of megabytes, got {value!r}"
        ) from None
    if megabytes <= 0:
        raise ValueError(f"{_ENV_LIMIT} must be positive, got {value!r}")
    return int(megabytes * 1024 * 1024)


class ArtifactCache:
    """Content-addressed pickle store for phase-one artifacts."""

    def __init__(
        self,
        root: Optional[Path] = None,
        enabled: bool = True,
        limit_bytes: Optional[int] = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        self.limit_bytes = limit_bytes
        self.hits = 0
        self.misses = 0
        self.corruptions = 0
        #: entries removed by the LRU bound (this process)
        self.evictions = 0
        #: corrupt entries moved into ``quarantine/`` (this process)
        self.quarantined = 0
        #: stale ``*.tmp`` orphans removed when this cache was opened
        self.tmp_swept = 0
        if self.enabled:
            self.tmp_swept = self._sweep_orphans()

    @classmethod
    def from_env(cls) -> "ArtifactCache":
        """The deployment's cache: root and size bound from the
        environment (``REPRO_CACHE_DIR``, ``REPRO_CACHE_LIMIT_MB``)."""
        return cls(limit_bytes=cache_limit_from_env())

    def _sweep_orphans(self) -> int:
        """Remove stale ``*.tmp`` files a killed writer left behind.

        :meth:`put` writes through a temp file plus ``os.replace``; a
        worker killed mid-write (OOM, SIGKILL, fault-campaign watchdog)
        orphans its temp file forever.  Swept on open rather than lazily
        so the count is visible in :meth:`stats` before any access.
        """
        removed = 0
        try:
            now = time.time()
            for path in self.root.glob("*.tmp"):
                try:
                    if now - path.stat().st_mtime >= _ORPHAN_TMP_AGE_SECONDS:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        except OSError:
            pass
        return removed

    # ------------------------------------------------------------------ paths
    @staticmethod
    def _digest(key: Tuple) -> str:
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def path_for(self, key: Tuple) -> Path:
        """File that stores ``key`` (first element names the artifact kind)."""
        return self.root / f"{key[0]}-{self._digest(key)}.pkl"

    # -------------------------------------------------------------------- api
    def get(self, key: Tuple) -> Optional[Any]:
        """The cached artifact, or None on a miss (corrupt entries evicted)."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle, collector_paused():
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as error:
            # Truncated/incompatible pickle: quarantine so the slot heals
            # itself — but never silently, so a recurring corruption (bad
            # disk, two incompatible checkouts sharing one cache dir)
            # stays visible *and* inspectable post-mortem.
            self.misses += 1
            self.corruptions += 1
            print(
                f"[repro.harness] warning: quarantining corrupt cache "
                f"entry {path.name} ({type(error).__name__}: {error})",
                file=sys.stderr,
            )
            self._quarantine(path)
            return None
        self.hits += 1
        try:
            # Touch so the LRU bound evicts cold entries, not hot ones.
            os.utime(path, None)
        except OSError:
            pass
        return value

    def put(self, key: Tuple, value: Any) -> None:
        """Store ``value`` atomically (:func:`~repro.obs.runlog.write_atomic`,
        not fsynced).

        The cache is advisory, so an ``OSError`` (a full disk, an
        unwritable root) is silent and leaves the slot empty; a value
        that fails to pickle raises before any file is written.
        """
        if not self.enabled:
            return
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            write_atomic(self.path_for(key), data, fsync=False)
            if self.limit_bytes is not None:
                self.enforce_limit()
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (atomic rename) instead of deleting.

        The slot becomes a miss either way; keeping the bytes makes a
        recurring corruption debuggable.  The quarantine directory is
        bounded: only the newest :data:`_QUARANTINE_KEEP` stay.
        """
        quarantine = self.root / "quarantine"
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
            self.quarantined += 1
        except OSError:
            # Fall back to plain eviction (e.g. quarantine on another fs).
            try:
                path.unlink()
            except OSError:
                pass
            return
        try:
            kept = sorted(
                quarantine.glob("*.pkl"),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
            for stale in kept[_QUARANTINE_KEEP:]:
                stale.unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- management
    def entries(self) -> List[Tuple[Path, int, float]]:
        """Every cache entry as ``(path, size_bytes, mtime)``."""
        found = []
        try:
            for path in self.root.glob("*.pkl"):
                stat = path.stat()
                found.append((path, stat.st_size, stat.st_mtime))
        except OSError:
            pass
        return found

    def stats(self) -> Dict[str, Any]:
        """Entry counts and sizes, grouped by artifact kind."""
        entries = self.entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        for path, size, _ in entries:
            kind = path.name.split("-", 1)[0]
            bucket = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "limit_bytes": self.limit_bytes,
            "corruptions": self.corruptions,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "tmp_swept": self.tmp_swept,
            "by_kind": by_kind,
        }

    def publish_metrics(self, registry, prefix: str = "cache") -> None:
        """Surface the cache counters through a ``MetricsRegistry``."""
        registry.counter(f"{prefix}.hits", self.hits)
        registry.counter(f"{prefix}.misses", self.misses)
        registry.counter(f"{prefix}.corruptions", self.corruptions)
        registry.counter(f"{prefix}.evictions", self.evictions)
        registry.counter(f"{prefix}.quarantined", self.quarantined)
        registry.counter(f"{prefix}.tmp_swept", self.tmp_swept)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path, _, _ in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def enforce_limit(self, limit_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until under the size bound.

        Returns the number of entries evicted.  No-op when neither the
        argument nor ``self.limit_bytes`` gives a bound.
        """
        bound = limit_bytes if limit_bytes is not None else self.limit_bytes
        if bound is None:
            return 0
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        # Oldest mtime first: reads touch entries, so this is LRU order.
        for path, size, scanned_mtime in sorted(
            entries, key=lambda item: item[2]
        ):
            if total <= bound:
                break
            # Re-check against the scan before removing: a concurrent
            # writer may have republished this slot (os.replace gives it
            # a fresh mtime), or a reader may have touched it.  Either
            # way it is no longer the cold entry the scan saw — skip it
            # rather than destroy a fresh artifact.
            try:
                current = path.stat()
            except OSError:
                continue  # already gone: someone else evicted it
            if current.st_mtime != scanned_mtime:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            self.evictions += 1
        return evicted

    # ------------------------------------------------------------ key helpers
    @staticmethod
    def workload_key(
        benchmark: str,
        scale: float,
        braided: bool,
        perfect: bool,
        internal_limit: int,
        predictor: str,
        max_instructions: int,
    ) -> Tuple:
        return (
            "workload",
            CACHE_FORMAT_VERSION,
            benchmark,
            scale,
            braided,
            perfect,
            internal_limit,
            predictor,
            max_instructions,
        )

    @staticmethod
    def compilation_key(benchmark: str, scale: float, internal_limit: int) -> Tuple:
        return ("compilation", CACHE_FORMAT_VERSION, benchmark, scale,
                internal_limit)

    @staticmethod
    def result_key(
        benchmark: str,
        scale: float,
        braided: bool,
        perfect: bool,
        internal_limit: int,
        predictor: str,
        max_instructions: int,
        config: Any,
        tier_token: Tuple,
    ) -> Tuple:
        """Key for a finished timing result (``--result-cache``).

        ``config`` is the full :class:`~repro.sim.config.MachineConfig`
        (its dataclass repr is part of the digest, so any knob change is a
        new key); ``tier_token`` (the resolved fidelity tier and its
        tuning's cache token) keeps the tiers of one point, and each
        tuning of a tier, apart.
        """
        return (
            "result",
            CACHE_FORMAT_VERSION,
            benchmark,
            scale,
            braided,
            perfect,
            internal_limit,
            predictor,
            max_instructions,
            config,
            tier_token,
        )
