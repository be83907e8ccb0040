#!/usr/bin/env python
"""CI smoke test for phase one's memory on a long trace.

Prepares mcf at scale 64 (about 228k trace entries: the size the
``fidelity_tiers`` speed report replays, far past the quick suite's
4-13k) and prints:

* how much phase one (``prepare_workload``, then the workload's
  ``decode`` and ``replay`` facts) grew the process: its peak RSS after
  phase one less its RSS before it;
* the trace's heap per entry, by tracemalloc, measured the way
  ``tests/test_replay_memory.py`` measures it (what freeing the trace
  gives back), in a second, traced run of phase one;
* the replay facts' heap per entry, measured as that test measures it
  (what building them allocates), on a third run of phase one.

Exits 1 when the trace or the replay facts cost more per entry than
that test's ceilings (``MAX_TRACE_BYTES_PER_ENTRY``,
``MAX_BYTES_PER_ENTRY``).

Usage::

    PYTHONPATH=src python scripts/trace_memory_smoke.py
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.sim.workload import prepare_workload  # noqa: E402
from repro.workloads import build_program  # noqa: E402
from tests.test_replay_memory import (  # noqa: E402
    MAX_BYTES_PER_ENTRY, MAX_TRACE_BYTES_PER_ENTRY, replay_heap,
)

BENCHMARK = "mcf"
SCALE = 64.0
MAX_INSTRUCTIONS = 2_500_000


def rss_mb() -> float:
    """The process's resident set now (Linux), else its peak so far."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except OSError:
        return peak_rss_mb()


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main() -> int:
    program = build_program(BENCHMARK, scale=SCALE)
    gc.collect()
    before = rss_mb()
    started = time.perf_counter()
    workload = prepare_workload(program, max_instructions=MAX_INSTRUCTIONS)
    workload.replay()
    seconds = time.perf_counter() - started
    entries = len(workload.trace)
    peak = peak_rss_mb()
    print(f"{BENCHMARK} at scale {SCALE:g}: {entries} trace entries, "
          f"phase one {seconds:.2f} s")
    print(f"RSS before phase one {before:.1f} MB, peak after "
          f"{peak:.1f} MB: phase one grew the process by "
          f"{peak - before:.1f} MB")
    del workload

    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        trace = prepare_workload(
            program, max_instructions=MAX_INSTRUCTIONS
        ).trace
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        used = with_trace - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    per_entry = used / entries
    print(f"trace heap {used / 2**20:.1f} MiB: {per_entry:.1f} B per entry "
          f"(ceiling {MAX_TRACE_BYTES_PER_ENTRY} B)")

    replay_used = replay_heap(
        prepare_workload(program, max_instructions=MAX_INSTRUCTIONS)
    )
    replay_per_entry = replay_used / entries
    print(f"replay facts heap {replay_used / 2**20:.1f} MiB: "
          f"{replay_per_entry:.1f} B per entry "
          f"(ceiling {MAX_BYTES_PER_ENTRY} B)")

    failed = 0
    if per_entry > MAX_TRACE_BYTES_PER_ENTRY:
        print("FAIL: the trace costs more per entry than the ceiling")
        failed = 1
    if replay_per_entry > MAX_BYTES_PER_ENTRY:
        print("FAIL: the replay facts cost more per entry than the ceiling")
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
