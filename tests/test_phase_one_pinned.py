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
* ``oracles`` — ``mispredicted``, ``load_latency``, ``ifetch_extra`` and
  :class:`WorkloadStats`;
* ``decoded`` — every :class:`DecodedInst` slot;
* ``replay`` — every :class:`ReplayFacts` array;
* ``pickle`` — the pickled, decoded :class:`PreparedWorkload` (the bytes
  the artifact cache stores).

If a change legitimately moves phase one, re-pin with
``PYTHONPATH=src python tests/test_phase_one_pinned.py`` (and bump
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
from repro.sim.workload import DecodedInst, ReplayFacts, prepare_workload
from repro.workloads import build_program
from repro.workloads.profiles import ALL_BENCHMARKS

PINNED_PATH = Path(__file__).resolve().parent / "data" / "phase_one_pinned.json"
#: the default ``prepare_workload`` cap; every scale-1 benchmark completes
MAX_INSTRUCTIONS = 200_000
REPLAY_ARRAYS = tuple(
    name for name in ReplayFacts.__slots__ if name != "analytic_retire"
)


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


def phase_one_digests(program) -> Dict[str, str]:
    """The pinned digests of one program's phase one."""
    executor = FunctionalExecutor(program, max_instructions=MAX_INSTRUCTIONS)
    executor.run()
    stats = dataclasses.asdict(executor.stats)
    stats["block_counts"] = sorted(stats["block_counts"].items())

    workload = prepare_workload(program, max_instructions=MAX_INSTRUCTIONS)
    decoded = workload.decode()
    replay = workload.replay()
    return {
        "trace": _sha(
            (d.seq, d.block, d.pc, d.inst.opcode.name, d.taken, d.next_pc,
             d.mem_addr)
            for d in workload.trace
        ),
        "execution": _sha([sorted(stats.items()), executor.state.snapshot()]),
        "oracles": _sha([
            sorted(workload.mispredicted),
            sorted(workload.load_latency.items()),
            sorted(workload.ifetch_extra.items()),
            sorted(dataclasses.asdict(workload.stats).items()),
        ]),
        "decoded": _sha(
            tuple(getattr(facts, slot) for slot in DecodedInst.__slots__)
            for facts in decoded
        ),
        "replay": _sha(
            (name, getattr(replay, name)) for name in REPLAY_ARRAYS
        ),
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


@pytest.mark.parametrize("case", CASES)
def test_phase_one_matches_pin(case, pinned):
    assert phase_one_digests(case_program(case)) == pinned[case]


if __name__ == "__main__":
    PINNED_PATH.parent.mkdir(exist_ok=True)
    PINNED_PATH.write_text(json.dumps(fresh_digests(), indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {PINNED_PATH}")
