"""Opt-in cProfile support for harness runs (``--profile``).

Workers of a parallel sweep are separate processes, so profiling works by
inheritance: the parent enters :func:`profiling_into` before the fleet
forks, every process wraps its unit of work in :func:`maybe_profiled`,
and each call dumps one ``.prof`` file into the shared directory.  The
parent then merges them with :func:`aggregate_profiles` and prints the
top-N cumulative entries.

Outside :func:`profiling_into`, :func:`maybe_profiled` calls the
function directly — zero overhead on the normal path.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar

T = TypeVar("T")

_counter = 0

#: where :func:`maybe_profiled` dumps (None: profiling off); a module
#: setting, so workers forked while it is set inherit it
_directory: Optional[Path] = None


@contextmanager
def profiling_into(directory) -> Iterator[None]:
    """Profile every :func:`maybe_profiled` call, in this process and in
    workers forked inside the block, into ``directory``."""
    global _directory
    _directory = Path(directory)
    try:
        yield
    finally:
        _directory = None


def maybe_profiled(fn: Callable[[], T]) -> T:
    """Run ``fn`` under cProfile inside :func:`profiling_into`."""
    directory = _directory
    if directory is None:
        return fn()
    global _counter
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(fn)
    finally:
        _counter += 1
        try:
            directory.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(
                str(directory / f"worker-{os.getpid()}-{_counter}.prof")
            )
        except OSError:
            pass


def aggregate_profiles(directory, top: int = 15) -> str:
    """Merge every ``.prof`` file in ``directory`` into a top-N report."""
    paths = sorted(Path(directory).glob("*.prof"))
    if not paths:
        return "no profile data collected"
    stream = io.StringIO()
    stats = pstats.Stats(str(paths[0]), stream=stream)
    for path in paths[1:]:
        stats.add(str(path))
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    header = f"profile: {len(paths)} sample file(s), top {top} by cumulative time\n"
    return header + stream.getvalue()
