"""Seeded single-bit-flip injectors over live microarchitectural state.

Each injector perturbs one structure of a running
:class:`~repro.sim.core.TimingCore`.  This module owns the *common*
structures every paradigm shares — ROB entries, register-file occupancy,
LSQ entries, checkpoint tags, branch-predictor state; each paradigm
declares its own scheduling-structure injectors on its core class
(``fault_structures`` / ``fault_injectors``), and the registry makes
them discoverable here, so an unmodeled paradigm fails loudly instead
of running a campaign as all-masked.  Injection rides
the core's ``fault_hook`` (installed by :class:`FaultSession`), which
fires *before* the stages of every executed cycle, so the flip is visible
to every stage of the injection cycle.  The session publishes its
injection cycle as the core's ``fault_cycle``: the run loop never skips
past it and single-steps from it on, scanning every issue window, so the
injector sees every cycle from the injection cycle on (some injectors
draw from the RNG on cycles where they find nothing to flip) and a
corrupted structure runs exactly as it would on the ticked loop.

Two rules keep runs independent and deterministic:

* **Never mutate trace-owned objects.**  The prepared workload (the
  trace columns, the ``mispredicted`` set) is shared across runs in one
  process; injectors that corrupt instruction payloads replace
  ``winst.dyn`` with a *mutated copy* of its row, and the
  branch-predictor injector swaps in a copied set.  Per-run state
  (``WInst``, LSQ/checkpoint entries, core counters) is mutated freely.
* **All randomness flows from one ``random.Random``** seeded per task
  from a SHA-256 digest, so a campaign re-run with the same seed flips
  the same bit of the same entry at the same cycle.

What a trace-replay simulator can and cannot model: timing cores replay
pre-computed values, so *data-array* bit flips (a register value, a
cache line) have no architectural carrier here and faults manifest
through **control and bookkeeping** state — pointers, tags, status
bits, occupancy counters.  That is also where the braid/out-of-order
comparison lives: the structures whose size the paper contrasts are
exactly these bookkeeping arrays.
"""

from __future__ import annotations

import random
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, Optional, Tuple

from ..sim.config import CoreKind, MachineConfig
from ..sim.core import SimulationError, TimingCore, flip_bit as _flip_bit
from ..sim.registry import core_registry, descriptor_for
from ..sim.run import run_tier
from ..validate.lockstep import DivergenceError, LockstepChecker
from .model import FaultOutcome, InjectionResult, InjectorError


# ---------------------------------------------------------------- injectors
#
# Each injector is called once per cycle (starting at the scheduled
# injection cycle) with the live core and the task RNG.  It returns a
# description of the flip it applied, or None when the structure holds no
# live state this cycle — the session then retries on the next cycle, the
# way a real particle strike on an empty slot simply waits to matter.

def _inject_rob(core: TimingCore, rng: random.Random) -> Optional[str]:
    rob = core._rob
    if not rob:
        return None
    mode = rng.choice(("pointer", "payload", "status", "tag"))
    if mode == "pointer":
        direction = rng.choice((-1, 1))
        rob.rotate(direction)
        return f"rob head-pointer bit flip (window rotated {direction:+d})"
    index = rng.randrange(len(rob))
    winst = rob[index]
    if mode == "payload":
        field = rng.choice(("pc", "next_pc"))
        bit = rng.randrange(16)
        dyn = winst.dyn
        winst.dyn = dataclass_replace(
            dyn, **{field: _flip_bit(getattr(dyn, field), bit)}
        )
        return f"rob[{index}] payload bit {bit} of {field}"
    if mode == "status":
        winst.done = not winst.done
        return f"rob[{index}] done bit -> {winst.done} (seq {winst.seq})"
    bit = rng.randrange(8)
    winst.seq = _flip_bit(winst.seq, bit)
    return f"rob[{index}] seq tag bit {bit} -> {winst.seq}"


def _inject_regfile(core: TimingCore, rng: random.Random) -> Optional[str]:
    # The timing register file carries no values (the functional executor
    # did); its fault-relevant state is the in-flight entry accounting
    # that gates allocation.  An upward flip starves allocation (stall or
    # hang), a downward flip over-frees (release underflow -> crash).
    rf = core.rf
    bit = rng.randrange(max(1, rf.entries.bit_length()))
    rf.in_flight = _flip_bit(rf.in_flight, bit)
    return f"regfile in-flight counter bit {bit} -> {rf.in_flight}"


def _inject_lsq(core: TimingCore, rng: random.Random) -> Optional[str]:
    entries = core.lsq.entries()
    if not entries:
        return None
    entry = entries[rng.randrange(len(entries))]
    mode = rng.choice(("addr", "tag", "status"))
    if mode == "addr":
        bit = rng.randrange(3, 16)
        entry.word = _flip_bit(entry.word, bit)
        return f"lsq store seq {entry.seq} address bit {bit}"
    if mode == "tag":
        bit = rng.randrange(8)
        entry.seq = _flip_bit(entry.seq, bit)
        return f"lsq store tag bit {bit} -> {entry.seq}"
    # Valid/complete bit: a store flipping to "incomplete" wedges every
    # younger load to the same word (hang); flipping to "complete" lets
    # loads forward early (timing only in a trace-replay model).
    if entry.complete_cycle is None:
        entry.complete_cycle = 0
        return f"lsq store seq {entry.seq} complete bit set early"
    entry.complete_cycle = None
    return f"lsq store seq {entry.seq} complete bit cleared"


def _inject_checkpoints(core: TimingCore, rng: random.Random) -> Optional[str]:
    live = core.checkpoints.live()
    if not live:
        return None
    checkpoint = live[rng.randrange(len(live))]
    bit = rng.randrange(8)
    checkpoint.seq = _flip_bit(checkpoint.seq, bit)
    return f"checkpoint branch-tag bit {bit} -> seq {checkpoint.seq}"


def _inject_branchpred(core: TimingCore, rng: random.Random) -> Optional[str]:
    # Predictor state only steers fetch; the branch *outcome* comes from
    # the architectural trace.  Flipping a table bit therefore toggles
    # whether one future branch is treated as mispredicted — a pure
    # timing perturbation, which is why predictor AVF is ~0 (its state is
    # un-ACE: Mukherjee et al.'s canonical example).
    decoded = core.decoded
    start = core._next_fetch
    if start >= len(decoded):
        return None
    for _ in range(8):
        seq = rng.randrange(start, len(decoded))
        if not decoded[seq].is_branch:
            continue
        flipped = set(core.mispredicted)  # copy: the set is trace-owned
        if seq in flipped:
            flipped.discard(seq)
            action = "cleared"
        else:
            flipped.add(seq)
            action = "set"
        core.mispredicted = flipped
        return f"branch-predictor bit {action} for branch seq {seq}"
    return None


#: structure name -> injector, for the structures every paradigm owns.
#: Paradigm-specific structures (schedulers, BEU FIFOs, partition bits)
#: are declared by each core class (``fault_structures`` /
#: ``fault_injectors``, see :class:`~repro.sim.core.TimingCore`) and
#: discovered through the core registry — a paradigm with no declared
#: injectors simply has no paradigm-specific structures, and asking for
#: a structure its class does not declare fails loudly instead of
#: sailing through a campaign as all-masked.
INJECTORS: Dict[str, Callable[[TimingCore, random.Random], Optional[str]]] = {
    "rob": _inject_rob,
    "regfile": _inject_regfile,
    "lsq": _inject_lsq,
    "checkpoints": _inject_checkpoints,
    "branchpred": _inject_branchpred,
}

_COMMON_STRUCTURES: Tuple[str, ...] = (
    "rob", "regfile", "lsq", "checkpoints", "branchpred",
)


def injectors_for(kind: CoreKind) -> Dict[str, Callable]:
    """structure name -> injector for one paradigm: the common set plus
    the class-declared paradigm-specific injectors.  Raises
    :class:`InjectorError` for a kind with no registered core."""
    try:
        core_class = descriptor_for(kind).core_class
    except LookupError as exc:
        raise InjectorError(str(exc)) from None
    merged = dict(INJECTORS)
    merged.update(core_class.fault_injectors)
    return merged


def known_structures() -> Tuple[str, ...]:
    """Every structure injectable on at least one registered paradigm."""
    names = list(_COMMON_STRUCTURES)
    for descriptor in core_registry().values():
        for structure in descriptor.core_class.fault_structures:
            if structure not in names:
                names.append(structure)
    return tuple(names)


def structures_for(kind: CoreKind) -> Tuple[str, ...]:
    """Injectable structures of one core paradigm, in report order.

    Fails loudly (:class:`InjectorError`) for a kind with no registered
    core — an unmodeled paradigm must never sail through a campaign as
    all-masked.
    """
    try:
        core_class = descriptor_for(kind).core_class
    except LookupError as exc:
        raise InjectorError(str(exc)) from None
    return _COMMON_STRUCTURES + tuple(core_class.fault_structures)


class FaultSession:
    """Arms one injection on a core via its per-cycle ``fault_hook``.

    The hook fires from ``inject_cycle`` onward and retries each cycle
    until the target structure holds live state; once the flip lands the
    hook detaches itself.  The run before ``inject_cycle`` event-skips;
    from it on the core single-steps (``TimingCore.fault_cycle``).
    """

    def __init__(
        self, structure: str, inject_cycle: int, rng: random.Random
    ) -> None:
        # Reject structures no registered paradigm declares at session
        # construction; the concrete injector (common table or the core
        # class's own declaration) is resolved when the core is known.
        known = known_structures()
        if structure not in known:
            raise InjectorError(
                f"unknown structure {structure!r}; "
                f"choose from {sorted(known)}"
            )
        self._injector: Optional[Callable] = None
        self.structure = structure
        self.inject_cycle = inject_cycle
        self.rng = rng
        self.injected = False
        self.applied_cycle: Optional[int] = None
        self.detail: Optional[str] = None

    def attach(self, core: TimingCore) -> "FaultSession":
        kind = core.config.kind
        if self.structure not in structures_for(kind):
            raise InjectorError(
                f"structure {self.structure!r} does not exist on "
                f"{kind.value} cores"
            )
        self._injector = injectors_for(kind)[self.structure]
        core.fault_hook = self._hook
        core.fault_cycle = self.inject_cycle
        return self

    def _hook(self, core: TimingCore, cycle: int) -> None:
        if cycle < self.inject_cycle:
            return
        detail = self._injector(core, self.rng)
        if detail is None:
            return  # target not live this cycle; retry next cycle
        self.injected = True
        self.applied_cycle = cycle
        self.detail = detail
        core.fault_hook = None  # single-event upset: exactly one flip


def run_injection(
    workload,
    config: MachineConfig,
    structure: str,
    seed: int,
    baseline_cycles: int,
    max_cycles: Optional[int] = None,
) -> InjectionResult:
    """One injected run, classified into exactly one outcome.

    ``baseline_cycles`` is the fault-free run length; the injection
    cycle is drawn uniformly from it.  ``max_cycles`` bounds runaway
    runs (default: 8x the baseline plus slack) — exceeding it is a
    hang by definition.
    """
    rng = random.Random(seed)
    inject_cycle = rng.randrange(max(1, baseline_cycles))
    if max_cycles is None:
        max_cycles = 8 * max(1, baseline_cycles) + 10_000

    checker = LockstepChecker(workload, fail_fast=True)
    session = FaultSession(structure, inject_cycle, rng)

    def checkers(core):
        checker.attach(core)
        session.attach(core)
        return checker

    outcome = FaultOutcome.MASKED
    error: Optional[str] = None
    try:
        run_tier(workload, config, max_cycles=max_cycles, checkers=checkers)
    except DivergenceError as exc:
        outcome = FaultOutcome.SDC
        error = str(exc).splitlines()[0]
    except InjectorError:
        raise  # infrastructure failure: retried/quarantined upstream
    except SimulationError as exc:
        # SimulationHang and the whole-run cycle cap: forward progress
        # stopped either way.
        outcome = FaultOutcome.HANG
        error = str(exc).splitlines()[0]
    except Exception as exc:  # noqa: BLE001 - the machine detectably died
        outcome = FaultOutcome.CRASH
        error = f"{type(exc).__name__}: {exc}"
    else:
        if checker.divergences:
            outcome = FaultOutcome.SDC
            error = checker.divergences[0].render()
    return InjectionResult(
        benchmark=workload.name,
        machine=config.name,
        structure=structure,
        seed=seed,
        outcome=outcome,
        injected=session.injected,
        applied_cycle=session.applied_cycle,
        detail=session.detail,
        error=error,
    )
