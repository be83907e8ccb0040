"""The scope that pauses CPython's cyclic collector.

It lives apart from :mod:`repro.sim.run` so that phase one
(:mod:`repro.sim.workload`) and the artifact cache can take it without
an import cycle.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Pause CPython's cyclic garbage collector for the enclosed work.

    Usable as ``with collector_paused():`` or as a decorator.  Phase one
    allocates a few hundred thousand long-lived objects, and every full
    collection rescans all of them.  Four scopes take the pause: every
    timing run (``run_tier``), phase one (``prepare_workload``,
    ``PreparedWorkload.decode`` and ``PreparedWorkload.replay``) and
    artifact-cache loads (``ArtifactCache.get``).  None of them form
    reference cycles (``tests/test_run_gc.py`` pins this), so reference
    counting alone frees what they allocate.  The collector is
    re-enabled on exit only if it was on when the scope began.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
