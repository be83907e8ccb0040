"""Per-cycle µarch invariant checking for the timing cores.

Attached through :attr:`repro.sim.core.TimingCore.invariant_hook`, which
the run loop calls after every cycle it executes (a skipped cycle changes
nothing but the stall counters of a repeated dispatch refusal, so that
covers every cycle); when no checker is attached the hot loop never sees
any of this.  The checks here cover the
machinery every core shares — ROB ordering, register-file entry
accounting under both allocation policies, LSQ membership and age order,
checkpoint budget — and then delegate to
:meth:`repro.sim.core.TimingCore.core_invariants` for the structures each
execution-core paradigm owns (schedulers, issue queues, steering FIFOs,
BEUs).

All checks are expressed against end-of-cycle state (the hook fires after
the fetch stage, before the cycle counter advances).
"""

from __future__ import annotations

from typing import Iterator, List


class InvariantViolation(AssertionError):
    """A structural invariant failed; carries every message for that cycle."""

    def __init__(self, machine: str, benchmark: str, cycle: int,
                 messages: List[str]) -> None:
        self.machine = machine
        self.benchmark = benchmark
        self.cycle = cycle
        self.messages = list(messages)
        detail = "\n  ".join(self.messages)
        super().__init__(
            f"{machine} on {benchmark}, cycle {cycle}: "
            f"{len(self.messages)} invariant violation(s)\n  {detail}"
        )


def shared_invariants(core, cycle: int) -> Iterator[str]:
    """Invariants of the machinery every :class:`TimingCore` shares."""
    config = core.config
    rob = core._rob

    # --- reorder buffer: program order, bounded, nothing retired inside.
    if len(rob) > config.max_in_flight:
        yield (
            f"ROB holds {len(rob)} instructions, "
            f"in-flight cap {config.max_in_flight}"
        )
    previous = -1
    for winst in rob:
        if winst.seq <= previous:
            yield f"ROB out of program order at seq={winst.seq}"
        previous = winst.seq
        if winst.retired:
            yield f"retired instruction seq={winst.seq} still in the ROB"

    # --- ready accounting: the idle-skip guard must agree with the ROB.
    ready = sum(
        1 for w in rob if w.issue_cycle is None and w.pending == 0
    )
    if core._ready_unissued != ready:
        yield (
            f"_ready_unissued={core._ready_unissued} but the ROB holds "
            f"{ready} ready-but-unissued instructions"
        )

    # --- register file: entry accounting per allocation policy.
    rf = core.rf
    if not 0 <= rf.in_flight <= rf.entries:
        yield (
            f"register file in_flight={rf.in_flight} outside "
            f"[0, {rf.entries}]"
        )
    if config.rf_alloc_at_issue:
        # Staging policy: an entry is held from issue until the value is
        # written back; retired instructions can still hold one while they
        # wait in the writeback queue.
        holders = {
            id(w): w
            for w in list(rob) + list(core._pending_writeback)
            if w.dest_external
            and w.issue_cycle is not None
            and w.writeback_cycle is None
        }
        expected = len(holders)
    else:
        # Dispatch-to-retire policy: every external destination in the
        # window holds exactly one entry.
        expected = sum(1 for w in rob if w.dest_external)
    if rf.in_flight != expected:
        yield (
            f"register file in_flight={rf.in_flight} but "
            f"{expected} in-flight external destinations hold entries"
        )

    # --- load/store queue: exactly the in-flight stores, in age order.
    lsq_seqs = core.lsq.seqs()
    rob_stores = [w.seq for w in rob if w.is_store]
    if list(lsq_seqs) != rob_stores:
        yield (
            f"LSQ stores {list(lsq_seqs)[:8]}... disagree with ROB stores "
            f"{rob_stores[:8]}... (lsq={len(lsq_seqs)}, rob={len(rob_stores)})"
        )
    if any(b <= a for a, b in zip(lsq_seqs, lsq_seqs[1:])):
        yield "LSQ stores out of age order"

    # --- memory slot accounting against the LSQ capacity.
    mem_in_flight = sum(1 for w in rob if w.is_load or w.is_store)
    if core._mem_in_flight != mem_in_flight:
        yield (
            f"_mem_in_flight={core._mem_in_flight} but the ROB holds "
            f"{mem_in_flight} memory instructions"
        )
    if core._mem_in_flight > config.lsq_entries:
        yield (
            f"{core._mem_in_flight} memory instructions in flight, "
            f"LSQ capacity {config.lsq_entries}"
        )

    # --- checkpoints: bounded, age-ordered, owned by in-flight branches.
    checkpoints = core.checkpoints
    cp_seqs = checkpoints.seqs()
    if len(cp_seqs) > checkpoints.capacity:
        yield (
            f"{len(cp_seqs)} checkpoints live, budget {checkpoints.capacity}"
        )
    if any(b <= a for a, b in zip(cp_seqs, cp_seqs[1:])):
        yield "checkpoints out of age order"
    branch_seqs = {w.seq for w in rob if w.is_branch}
    orphans = [seq for seq in cp_seqs if seq not in branch_seqs]
    if orphans:
        yield f"checkpoints {orphans[:8]} have no in-flight branch"

    # --- outstanding cache misses against the MSHR budget.
    if not 0 <= core._outstanding_misses <= config.mshrs:
        yield (
            f"{core._outstanding_misses} outstanding misses outside "
            f"[0, {config.mshrs}]"
        )
    if core._outstanding_misses != len(core._miss_releases):
        yield (
            f"_outstanding_misses={core._outstanding_misses} but "
            f"{len(core._miss_releases)} miss releases are queued"
        )


class InvariantChecker:
    """Callable hook raising :class:`InvariantViolation` on the first bad cycle.

    Attach with :meth:`attach`; the core's ``_run_until`` then calls the
    checker once per executed cycle.
    """

    def __init__(self) -> None:
        self.cycles_checked = 0

    def attach(self, core) -> "InvariantChecker":
        core.invariant_hook = self
        return self

    def __call__(self, core, cycle: int) -> None:
        messages = list(shared_invariants(core, cycle))
        messages.extend(core.core_invariants(cycle))
        if messages:
            raise InvariantViolation(
                core.config.name, core.workload.name, cycle, messages
            )
        self.cycles_checked += 1


def check_now(core, cycle: int) -> List[str]:
    """One-shot check of ``core`` (shared + subclass invariants)."""
    messages = list(shared_invariants(core, cycle))
    messages.extend(core.core_invariants(cycle))
    return messages
