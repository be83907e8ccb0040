"""Pinned phase one: every output of the functional run and workload prep.

Phase one (the functional executor, predictor and cache warm-up, decode
and replay facts) feeds every timing core, so a rewrite of any part of it
must leave each output unchanged, bit for bit.  For every one of the 26
benchmarks at scale 1, original and braid-translated, this stores the
sha256 of:

* ``trace`` — the dynamic rows: seq, block, pc, opcode name, taken,
  next_pc, mem_addr;
* ``execution`` — :class:`ExecutionStats` and the final
  :meth:`ArchState.snapshot`;
* ``oracles`` — ``mispredicted``, the ``(seq, cycles)`` rows of the
  ``load_latency`` and ``ifetch_extra`` lists (loads; non-zero extras)
  and :class:`WorkloadStats`;
* ``decoded`` — every :class:`DecodedInst` slot;
* ``replay`` — the eight per-entry replay arrays of the reference
  scoreboard walk (:mod:`tests.replay_reference`): the dependence rows,
  architectural reads, insertable flags and evictions the timing cores
  no longer store, the two latency oracles and the two arrays
  :class:`ReplayFacts` keeps;
* ``pickle`` — the pickled, decoded :class:`PreparedWorkload` (the bytes
  the artifact cache stores).

Each case also checks that the kept arrays and every decode fact's
scoreboard form equal the reference's, that the oracles are lists of the
trace's length with a latency for exactly the loads, and that an exact
``ooo`` run (and, for a braided case, a ``braid`` run) dispatches every
instruction with the producers and architectural reads the reference
rows name: the rename table resolves sources the same way the old rows
did.

If a change legitimately moves phase one, re-pin with
``PYTHONPATH=src python -m tests.test_phase_one_pinned`` (and bump
``CACHE_FORMAT_VERSION`` when the pickle moves).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path
from typing import Dict

import pytest

from repro.core import braidify
from repro.sim.functional import FunctionalExecutor
from repro.sim.config import braid_config, ooo_config
from repro.sim.run import build_core
from repro.sim.workload import DecodedInst, prepare_workload
from repro.workloads import build_program
from repro.workloads.profiles import ALL_BENCHMARKS

from .replay_reference import ARRAYS, reference_form, reference_replay

PINNED_PATH = Path(__file__).resolve().parent / "data" / "phase_one_pinned.json"
#: the default ``prepare_workload`` cap; every scale-1 benchmark completes
MAX_INSTRUCTIONS = 200_000
#: the arrays :class:`ReplayFacts` keeps from the reference's eight
KEPT_ARRAYS = ("mem_word", "store_conflict")


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


CASES = tuple(f"{name}-{form}" for name in ALL_BENCHMARKS
              for form in ("original", "braided"))


def case_program(case: str):
    name, form = case.rsplit("-", 1)
    program = build_program(name)
    return braidify(program).translated if form == "braided" else program


def prepared(program):
    return prepare_workload(program, max_instructions=MAX_INSTRUCTIONS)


def phase_one_digests(program, workload=None) -> Dict[str, str]:
    """The pinned digests of one program's phase one."""
    executor = FunctionalExecutor(program, max_instructions=MAX_INSTRUCTIONS)
    executor.run()
    stats = dataclasses.asdict(executor.stats)
    stats["block_counts"] = sorted(stats["block_counts"].items())

    if workload is None:
        workload = prepared(program)
    decoded = workload.decode()
    reference = reference_replay(workload)
    return {
        "trace": _sha(
            (d.seq, d.block, d.pc, d.inst.opcode.name, d.taken, d.next_pc,
             d.mem_addr)
            for d in workload.trace
        ),
        "execution": _sha([sorted(stats.items()), executor.state.snapshot()]),
        "oracles": _sha([
            sorted(workload.mispredicted),
            [(seq, cycles) for seq, cycles in enumerate(workload.load_latency)
             if cycles is not None],
            [(seq, extra) for seq, extra in enumerate(workload.ifetch_extra)
             if extra],
            sorted(dataclasses.asdict(workload.stats).items()),
        ]),
        "decoded": _sha(
            tuple(getattr(facts, slot) for slot in DecodedInst.__slots__)
            for facts in decoded
        ),
        "replay": _sha((name, reference[name]) for name in ARRAYS),
        "pickle": hashlib.sha256(
            pickle.dumps(workload, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest(),
    }


def fresh_digests() -> Dict[str, Dict[str, str]]:
    return {case: phase_one_digests(case_program(case)) for case in CASES}


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, str]]:
    return json.loads(PINNED_PATH.read_text())


def test_every_benchmark_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


def assert_dispatch_matches(workload, config, reference) -> None:
    """An exact run dispatches every instruction with the reference's
    producer seqs and architectural reads."""
    core = build_core(workload, config)
    core.trace_log = []
    core.run()
    assert [winst.seq for winst in core.trace_log] == \
        list(range(len(workload.trace)))
    deps, arch_reads = reference["deps"], reference["arch_reads"]
    for winst in core.trace_log:
        seq = winst.seq
        assert tuple((producer.seq, internal)
                     for producer, internal in winst.deps) == deps[seq]
        assert winst.arch_reads == arch_reads[seq]


@pytest.mark.parametrize("case", CASES)
def test_phase_one_matches_pin(case, pinned):
    program = case_program(case)
    workload = prepared(program)
    assert phase_one_digests(program, workload) == pinned[case]

    reference = reference_replay(workload)
    replay = workload.replay()
    for name in KEPT_ARRAYS:
        assert getattr(replay, name) == reference[name], name
    trace = workload.trace
    assert len(workload.load_latency) == len(workload.ifetch_extra) == \
        len(trace)
    assert [cycles is not None for cycles in workload.load_latency] == \
        [inst.is_load for inst in trace.inst]
    for inst, facts in dict(zip(trace.inst, workload.decode())).items():
        assert (facts.sources, facts.writes) == reference_form(inst), inst
    assert_dispatch_matches(workload, ooo_config(8), reference)
    if case.endswith("-braided"):
        assert_dispatch_matches(workload, braid_config(8), reference)


if __name__ == "__main__":
    PINNED_PATH.parent.mkdir(exist_ok=True)
    PINNED_PATH.write_text(json.dumps(fresh_digests(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {PINNED_PATH}")
