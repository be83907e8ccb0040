"""Compact phase-one artifacts: slotted trace rows that share their ints.

A prepared workload holds one :class:`DynInst` per dynamic instruction,
so the per-row cost decides phase one's memory and artifact size.  Rows
are slotted; every instance of a static instruction holds that
instruction's ``pc`` object, and every not-taken instance its
fall-through ``next_pc`` object; every replay binding holds its
producer row's own ``seq`` object.  A workload pickles its trace as
per-field columns and interns the addresses again on load, so each
property holds for a fresh workload and for one read back from a pickle,
and the two are equal in every phase-one output.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.core import braidify
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.functional import DynInst
from repro.sim.workload import (
    DecodedInst, PreparedWorkload, ReplayFacts, prepare_workload,
)
from repro.workloads import build_program

CASES = tuple((name, braided) for name in ("gcc", "swim")
              for braided in (False, True))
CASE_IDS = tuple(f"{name}-{'braided' if braided else 'original'}"
                 for name, braided in CASES)
REPLAY_ARRAYS = tuple(
    name for name in ReplayFacts.__slots__ if name != "analytic_retire"
)


@functools.lru_cache(maxsize=None)
def fresh(name: str, braided: bool) -> PreparedWorkload:
    program = build_program(name)
    if braided:
        program = braidify(program).translated
    workload = prepare_workload(program)
    workload.decode()
    workload.replay()
    return workload


@functools.lru_cache(maxsize=None)
def loaded(name: str, braided: bool) -> PreparedWorkload:
    workload = pickle.loads(
        pickle.dumps(fresh(name, braided), protocol=pickle.HIGHEST_PROTOCOL)
    )
    workload.replay()
    return workload


FORMS = {"fresh": fresh, "loaded": loaded}


@pytest.fixture(params=[(case, form) for case in CASES for form in FORMS],
                ids=[f"{case_id}-{form}" for case_id in CASE_IDS
                     for form in FORMS])
def workload(request) -> PreparedWorkload:
    (name, braided), form = request.param
    return FORMS[form](name, braided)


def trace_rows(workload: PreparedWorkload):
    """Every trace row by value (instructions compare by identity)."""
    return [(d.seq, d.block, d.pc, repr(d.inst), d.inst.annot, d.taken,
             d.next_pc, d.mem_addr) for d in workload.trace]


def decoded_slots(workload: PreparedWorkload):
    return [tuple(getattr(facts, slot) for slot in DecodedInst.__slots__)
            for facts in workload.decoded]


def oracles(workload: PreparedWorkload):
    return (workload.mispredicted, workload.load_latency,
            workload.ifetch_extra, workload.stats)


class TestSharing:
    def test_rows_have_no_dict(self, workload):
        assert not any(hasattr(dyn, "__dict__") for dyn in workload.trace)

    def test_instances_share_pc_and_fallthrough(self, workload):
        pc = {}
        fallthrough = {}
        for dyn in workload.trace:
            assert dyn.pc is pc.setdefault(dyn.inst, dyn.pc)
            if not dyn.taken:
                assert dyn.next_pc is fallthrough.setdefault(
                    dyn.inst, dyn.next_pc
                )
        assert len(pc) < len(workload.trace)

    def test_bindings_hold_the_producer_seq(self, workload):
        trace = workload.trace
        replay = workload.replay()
        bindings = 0
        for row in replay.deps:
            for producer, _ in row:
                assert producer is trace[producer].seq
                bindings += 1
        assert bindings
        for dying in replay.evictions:
            for producer in dying or ():
                assert producer is trace[producer].seq


@pytest.mark.parametrize("name,braided", CASES, ids=CASE_IDS)
def test_round_trip_equals_fresh(name, braided):
    before, after = fresh(name, braided), loaded(name, braided)
    assert trace_rows(after) == trace_rows(before)
    instructions = {id(inst) for block in after.program.blocks
                    for inst in block.instructions}
    assert all(id(dyn.inst) in instructions for dyn in after.trace)
    assert decoded_slots(after) == decoded_slots(before)
    assert oracles(after) == oracles(before)
    assert after.replay() is not before.replay()
    for array in REPLAY_ARRAYS:
        assert getattr(after.replay(), array) == getattr(before.replay(), array)


def _v4_getstate(self):
    """The format-4 pickle state: the whole trace as row objects."""
    state = self.__dict__.copy()
    state["replay_facts"] = None
    return state


@pytest.mark.parametrize("braided", (False, True),
                         ids=("original", "braided"))
def test_old_format_entry_is_quarantined_and_recomputed(
    tmp_path, monkeypatch, capsys, braided
):
    def context(cache: ArtifactCache) -> ExperimentContext:
        return ExperimentContext(benchmarks=("gcc",), max_instructions=5_000,
                                 jobs=1, cache=cache)

    reference = context(ArtifactCache(enabled=False)).workload(
        "gcc", braided=braided
    )
    cache = ArtifactCache(root=tmp_path)
    session = context(cache)
    key = cache.workload_key("gcc", session.scale, braided, False, 8,
                             session.predictor, session.max_instructions)
    with monkeypatch.context() as patch:
        patch.setattr(PreparedWorkload, "__getstate__", _v4_getstate)
        cache.put(key, reference)
    assert cache.path_for(key).exists()

    recomputed = session.workload("gcc", braided=braided)
    assert cache.corruptions == 1 and cache.quarantined == 1
    assert (tmp_path / "quarantine" / cache.path_for(key).name).exists()
    assert "quarantining corrupt cache entry" in capsys.readouterr().err
    assert trace_rows(recomputed) == trace_rows(reference)
    assert decoded_slots(recomputed) == decoded_slots(reference)
    assert oracles(recomputed) == oracles(reference)
    # The slot healed: it now holds an entry of the current format.
    assert trace_rows(ArtifactCache(root=tmp_path).get(key)) == \
        trace_rows(reference)
