"""The O(woken) wakeup index and the next-event skip horizon.

Two families of pins for the scheduler-aware event kernel:

* **Wakeup-index oracle** — the pool-based out-of-order scheduler tracks
  ready-but-unissued candidates in an age-ordered ready heap, a
  wake-cycle-keyed deferred heap, and per-store parked lists.  The union
  of the three must equal a brute-force rescan of the reorder buffer
  (every dispatched, unissued instruction with no pending producer) at
  every single cycle — the invariant that makes popping instead of
  scanning sound.  Same oracle for the steering core's FIFOs: their
  contents are exactly the dispatched-but-unissued set, in dispatch
  order per FIFO.

* **Next-event corners** — `_next_event` returns a *skip target*: every
  cycle before it must be provably inert.  The corner cases are pinned
  directly on crafted core state: an empty completion heap with a
  same-cycle (or future) fetch resume must land exactly on the resume
  cycle, a done ROB head must bound the skip by its first retirable
  cycle, and a machine with no publisher armed must tick (return the
  current cycle) so the hang watchdog keeps authority.
"""

from __future__ import annotations

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.blockooo import blockooo_config
from repro.sim.config import braid_config, depsteer_config, ooo_config
from repro.sim.core import PARKED, WInst
from repro.sim.run import build_core


@pytest.fixture(scope="module")
def small_ctx():
    return ExperimentContext(
        benchmarks=("gcc", "mcf"),
        max_instructions=8_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def brute_force_ready(core):
    """The ready set by definition: rescan the whole in-flight window."""
    return {
        w.seq
        for w in core._rob
        if w.issue_cycle is None and w.pending == 0
    }


class TestWakeupIndexOracle:
    """The event-driven wakeup structures track the ready set exactly."""

    @pytest.mark.parametrize("name", ("gcc", "mcf"))
    def test_ooo_pools_match_rescan(self, name, small_ctx):
        """ready heap ∪ deferred heap ∪ parked == brute-force rescan."""
        workload = small_ctx.workload(name)
        core = build_core(workload, ooo_config(8))
        checked = 0

        def check(core, cycle):
            nonlocal checked
            indexed = {w.seq for _, w in core._ready}
            indexed |= {w.seq for _, _, w in core._deferred}
            # Parked candidates live only on a store's waiter list; count
            # them from the ROB by their sentinel wake.
            parked = {
                w.seq
                for w in core._rob
                if w.issue_cycle is None and w.issue_wake == PARKED
            }
            assert not (indexed & parked), (
                f"cycle {cycle}: candidates both pooled and parked: "
                f"{sorted(indexed & parked)}"
            )
            ready = brute_force_ready(core)
            assert indexed | parked == ready, (
                f"cycle {cycle}: wakeup index {sorted(indexed | parked)} "
                f"!= brute-force ready set {sorted(ready)}"
            )
            assert core._ready_unissued == len(ready)
            checked += 1

        core.invariant_hook = check
        core.run()
        assert checked > 100  # the oracle actually ran, cycle by cycle

    @pytest.mark.parametrize("name", ("gcc", "mcf"))
    def test_depsteer_fifos_match_rescan(self, name, small_ctx):
        """FIFO contents are exactly the dispatched-but-unissued set."""
        workload = small_ctx.workload(name)
        core = build_core(workload, depsteer_config(8))
        checked = 0

        def check(core, cycle):
            nonlocal checked
            steered = set()
            for index, fifo in enumerate(core._fifos):
                previous = -1
                for w in fifo:
                    assert w.issue_cycle is None, (
                        f"cycle {cycle}: issued seq={w.seq} still in "
                        f"FIFO {index}"
                    )
                    assert w.seq > previous, (
                        f"cycle {cycle}: FIFO {index} out of dispatch order"
                    )
                    previous = w.seq
                    steered.add(w.seq)
            unissued = {
                w.seq for w in core._rob if w.issue_cycle is None
            }
            assert steered == unissued, (
                f"cycle {cycle}: FIFO contents {sorted(steered)} != "
                f"in-flight unissued {sorted(unissued)}"
            )
            assert core._ready_unissued == len(brute_force_ready(core))
            checked += 1

        core.invariant_hook = check
        core.run()
        assert checked > 100

    def test_ooo_deferred_entries_are_operand_ready(self, small_ctx):
        """A deferred candidate never has pending producers (deferral is
        a certified resource wake, not an operand wait)."""
        workload = small_ctx.workload("mcf")
        core = build_core(workload, ooo_config(8))

        def check(core, cycle):
            for wake, _seq, w in core._deferred:
                assert w.pending == 0
                assert w.issue_wake == wake or w.issue_wake == PARKED

        core.invariant_hook = check
        core.run()


def quiesce(core):
    """Strip a freshly built core to an everything-empty state."""
    core._fetch_buffer.clear()
    core._rob.clear()
    core._events.clear()
    core._miss_releases.clear()
    core._pending_writeback.clear()
    core._next_fetch = core._fetch_limit  # trace exhausted
    core._fetch_blocked = False
    core._fetch_resume = 0
    core._ready_unissued = 0
    return core


def make_winst(core, index=0, fetch=0, ready=0):
    return WInst(core.trace, index, core.decoded[index], fetch, ready,
                 index in core.mispredicted, core._mem_word_row[index])


class TestNextEventCorners:
    """Skip targets never overshoot the first possibly-active cycle."""

    @pytest.fixture()
    def core(self, small_ctx):
        return quiesce(build_core(small_ctx.workload("gcc"), ooo_config(8)))

    def test_same_cycle_fetch_resume_with_empty_heap(self, core):
        """A redirect landing the resume on the *current* cycle must not
        skip at all — fetch can act right now, completion heap or not."""
        core._next_fetch = 0
        core._fetch_resume = 100
        assert core._next_event(100) == 100

    def test_future_fetch_resume_lands_exactly(self, core):
        """With only the fetch-resume publisher armed the skip target is
        the resume cycle itself, never one past it."""
        core._next_fetch = 0
        core._fetch_resume = 107
        assert core._next_event(100) == 107
        # A due completion event pins the machine to the current cycle
        # even though fetch itself resumes later.
        winst = make_winst(core)
        core._events.append((100, winst.seq, winst))
        assert core._next_event(100) == 100

    def test_rob_head_first_retirable_bound(self, core):
        """A done ROB head bounds the skip by complete_cycle + 1 — the
        first cycle retire_stage can pop it."""
        winst = make_winst(core)
        winst.done = True
        winst.complete_cycle = 105
        core._rob.append(winst)
        assert core._next_event(100) == 106
        # Once that cycle is reached, no skip: retirement may fire now.
        assert core._next_event(106) == 106

    def test_fetch_buffer_head_dispatch_ready_bound(self, core):
        winst = make_winst(core, ready=104)
        core._fetch_buffer.append(winst)
        assert core._next_event(100) == 104
        assert core._next_event(104) == 104

    def test_nothing_armed_ticks(self, core):
        """No publisher armed: return the current cycle so a wedged
        machine single-steps into the retirement watchdog."""
        assert core._next_event(42) == 42

    def test_issue_horizon_argument_bounds_the_skip(self, core):
        """Regression: the fetch-resume publisher used to *overwrite* a
        smaller issue horizon instead of taking the minimum, so a skip
        after a mispredict redirect could overshoot a deferred
        candidate's certified wake cycle."""
        core._next_fetch = 0
        core._fetch_resume = 120
        assert core._next_event(100, 103) == 103
        assert core._next_event(100, 100) == 100
        # A stale (past) horizon also means "may act now".
        assert core._next_event(100, 99) == 100

    def test_skip_idle_respects_pending_writeback(self, core):
        """A queued writeback blocks skipping outright: write ports are a
        per-cycle resource the event heap does not model."""
        winst = make_winst(core)
        core._pending_writeback.append(winst)
        core._fetch_resume = 200
        core._next_fetch = 0
        assert core._skip_idle(100) == 100


class TestIssueHorizonPublishers:
    """The scheduler arm of the contract, on crafted scheduler state."""

    def test_ooo_ready_heap_pins_now(self, small_ctx):
        core = quiesce(build_core(small_ctx.workload("gcc"), ooo_config(8)))
        winst = make_winst(core)
        core._ready.append((winst.seq, winst))
        assert core.issue_horizon(50) == 50
        # one certified-idleness entry point: _skip_idle must not skip
        assert core._skip_idle(50) == 50

    def test_ooo_deferred_head_is_the_horizon(self, small_ctx):
        core = quiesce(build_core(small_ctx.workload("gcc"), ooo_config(8)))
        winst = make_winst(core)
        winst.issue_wake = 57
        core._deferred.append((57, winst.seq, winst))
        assert core.issue_horizon(50) == 57
        assert core.issue_horizon(57) == 57
        assert core.issue_horizon(60) == 60  # overdue wake: act now

    def test_ooo_all_parked_yields_none(self, small_ctx):
        core = quiesce(build_core(small_ctx.workload("gcc"), ooo_config(8)))
        assert core.issue_horizon(50) is None

    # The FIFO-window cores publish their horizon off the shared
    # active-window index, so crafted state goes in through the index's
    # own entry points: ``on_ready`` for a free entry, ``_note_issue_block``
    # for a bounded or parked one.

    def check_head_states(self, core, fifo):
        pending = make_winst(core, index=0)
        pending.pending = 1
        pending.cluster = 0
        fifo(0).append(pending)
        # Every head pending: completion-driven, publish no horizon.
        assert core.issue_horizon(50) is None
        bounded = make_winst(core, index=1)
        bounded.cluster = 1
        fifo(1).append(bounded)
        core._issue_wake = 55
        assert not core._note_issue_block(bounded, 50)
        assert bounded.issue_wake == 55
        assert core.issue_horizon(50) == 55
        free = make_winst(core, index=2)
        free.cluster = 2
        fifo(2).append(free)
        core.on_ready(free, 50)
        assert core.issue_horizon(50) == 50

    def check_parked_head(self, core, fifo):
        parked = make_winst(core, index=1)
        parked.cluster = 0
        fifo(0).append(parked)
        store = make_winst(core, index=0)
        core.lsq.store_dispatched(store.seq, 0)
        entry = core.lsq._stores[store.seq]
        core._issue_wake = -1
        core._issue_block_store = entry
        assert not core._note_issue_block(parked, 50)
        assert parked.issue_wake == PARKED
        assert core.issue_horizon(50) is None
        # The store's execution publishes the parked load's wake.
        core._wake_store_waiters(entry.waiters, 58)
        assert core.issue_horizon(50) == 58
        assert core.issue_horizon(58) == 58

    def test_depsteer_head_states(self, small_ctx):
        core = quiesce(
            build_core(small_ctx.workload("gcc"), depsteer_config(8))
        )
        self.check_head_states(core, lambda i: core._fifos[i])

    def test_depsteer_parked_head_yields_none(self, small_ctx):
        core = quiesce(
            build_core(small_ctx.workload("gcc"), depsteer_config(8))
        )
        self.check_parked_head(core, lambda i: core._fifos[i])

    def test_braid_head_states(self, small_ctx):
        core = quiesce(build_core(
            small_ctx.workload("gcc", braided=True), braid_config(8)
        ))
        self.check_head_states(core, lambda i: core.beus[i].fifo)

    def test_braid_parked_head_yields_none(self, small_ctx):
        core = quiesce(build_core(
            small_ctx.workload("gcc", braided=True), braid_config(8)
        ))
        self.check_parked_head(core, lambda i: core.beus[i].fifo)

    def test_blockooo_head_states(self, small_ctx):
        core = quiesce(
            build_core(small_ctx.workload("gcc"), blockooo_config(8))
        )
        self.check_head_states(core, lambda i: core._windows[i])

    def test_blockooo_parked_head_yields_none(self, small_ctx):
        core = quiesce(
            build_core(small_ctx.workload("gcc"), blockooo_config(8))
        )
        self.check_parked_head(core, lambda i: core._windows[i])

    def test_issue_visits_only_due_windows(self, small_ctx):
        """A window the index does not hold due is not visited: its
        entries are never offered to try_issue."""
        core = quiesce(
            build_core(small_ctx.workload("gcc"), depsteer_config(8))
        )
        offered = []
        core.try_issue = lambda winst, cycle, pool, **_: (
            offered.append(winst.seq) or False
        )
        quiet = make_winst(core, index=0)
        quiet.cluster = 0
        core._fifos[0].append(quiet)
        woken = make_winst(core, index=1)
        woken.cluster = 3
        core._fifos[3].append(woken)
        core.on_ready(woken, 50)
        core.issue_stage(50)
        assert offered == [woken.seq]
        # a per-cycle refusal keeps the window due
        assert core.issue_horizon(51) == 51
