"""Compact phase-one artifacts: trace columns that share their ints.

A prepared workload holds its trace as one list per field
(:class:`Trace`), so the per-entry cost decides phase one's memory and
artifact size.  Every instance of a static instruction holds that
instruction's ``pc`` object in the ``pc`` column, and every not-taken
instance its fall-through object in the ``next_pc`` column; rows read
from the trace are slotted copies built on demand.  The replay facts
hold no per-entry dependence rows: each static instruction's decode
facts carry its scoreboard form, which serves every dynamic instance,
and a core's rename table resolves producers at dispatch.  A workload
pickles the same columns and interns the addresses again on load, so
each property holds for a fresh workload and for one read back from a
pickle, and the two are equal in every phase-one output.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.core import braidify
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import braid_config, ooo_config
from repro.sim.functional import DynInst, Trace
from repro.sim.run import MAX_CYCLES, build_core
from repro.sim.workload import (
    INTERNAL_SLOTS, DecodedInst, PreparedWorkload, ReplayFacts,
    prepare_workload,
)
from repro.workloads import build_program

from .replay_reference import reference_form, reference_replay

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
    def test_trace_is_columns_not_rows(self, workload):
        trace = workload.trace
        assert type(trace) is Trace
        assert not hasattr(trace, "__dict__")
        assert [len(column) for column in trace.columns()] == \
            [len(workload)] * len(Trace.__slots__)
        assert all(type(column) is list for column in trace.columns())
        assert not any(isinstance(value, DynInst)
                       for column in trace.columns() for value in column)

    def test_rows_have_no_dict(self, workload):
        assert not any(hasattr(dyn, "__dict__") for dyn in workload.trace)

    def test_instances_share_pc_and_fallthrough(self, workload):
        trace = workload.trace
        pc = {}
        fallthrough = {}
        for inst, address, taken, next_pc in zip(
            trace.inst, trace.pc, trace.taken, trace.next_pc
        ):
            assert address is pc.setdefault(inst, address)
            if not taken:
                assert next_pc is fallthrough.setdefault(inst, next_pc)
        assert len(pc) < len(trace)

    def test_replay_holds_no_dependence_rows(self, workload):
        replay = workload.replay()
        assert ReplayFacts.__slots__ == \
            ("mem_word", "store_conflict", "analytic_retire")
        for name in REPLAY_ARRAYS:
            array = getattr(replay, name)
            assert type(array) is list and len(array) == len(workload)
            assert not any(isinstance(row, tuple) for row in array), name
        # One scoreboard form per static instruction, on its decode facts.
        static = dict(zip(workload.trace.inst, workload.decoded))
        assert len({id(facts) for facts in workload.decoded}) == \
            len(static) < len(workload)
        for inst, facts in static.items():
            assert (facts.sources, facts.writes) == reference_form(inst)


def test_rows_are_built_by_position():
    trace = fresh("gcc", False).trace
    n = len(trace)
    last = trace[-1]
    assert last == trace[n - 1] and last.seq == n - 1
    assert (last.inst, last.pc, last.mem_addr) == \
        (trace.inst[-1], trace.pc[-1], trace.mem_addr[-1])
    assert [row.seq for row in trace[5:11:2]] == [5, 7, 9]
    assert list(trace)[10] == trace[10]
    assert list(reversed(trace))[0] == last
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[index]


def trace_columns(workload: PreparedWorkload):
    """Every trace column by value, an instruction as its program slot."""
    slot = {inst: (block.index, position)
            for block in workload.program.blocks
            for position, inst in enumerate(block.instructions)}
    trace = workload.trace
    return ([slot[inst] for inst in trace.inst], trace.block, trace.pc,
            trace.taken, trace.next_pc, trace.mem_addr)


@pytest.mark.parametrize("name,braided", CASES, ids=CASE_IDS)
def test_round_trip_equals_fresh(name, braided):
    before, after = fresh(name, braided), loaded(name, braided)
    assert trace_columns(after) == trace_columns(before)
    assert trace_rows(after) == trace_rows(before)
    instructions = {id(inst) for block in after.program.blocks
                    for inst in block.instructions}
    assert all(id(dyn.inst) in instructions for dyn in after.trace)
    assert decoded_slots(after) == decoded_slots(before)
    assert oracles(after) == oracles(before)
    assert after.replay() is not before.replay()
    for array in REPLAY_ARRAYS:
        assert getattr(after.replay(), array) == getattr(before.replay(), array)
    # The loaded decode facts are shared per static instruction as in a
    # fresh decode, and carry the same scoreboard forms.
    static = dict(zip(after.trace.inst, after.decoded))
    assert all(static[inst] is facts
               for inst, facts in zip(after.trace.inst, after.decoded))
    assert [(facts.sources, facts.writes) for facts in after.decoded] == \
        [(facts.sources, facts.writes) for facts in before.decoded]


@pytest.mark.parametrize("name,braided", CASES, ids=CASE_IDS)
def test_sampling_gap_empties_the_rename_table(name, braided):
    """After a gap, a source whose writer was skipped or retired before
    it reads the architectural file (external) or nothing (internal)."""
    workload = fresh(name, braided)
    reference = reference_replay(workload)
    config = braid_config(8) if braided else ooo_config(8)
    core = build_core(workload, config)
    before, gap_end, window = 300, 700, 400
    core._fetch_limit = before
    cycle = core._run_until(before, 0, MAX_CYCLES)
    cycle = core.drain_in_flight(cycle)
    assert any(slot is not None for slot in core._producers)
    core.fast_forward(gap_end, cycle)
    assert all(slot is None for slot in core._producers)

    origin = core._retired_count - gap_end
    core._fetch_limit = gap_end + window
    core.trace_log = []
    core._run_until(origin + gap_end + window, cycle, MAX_CYCLES)
    assert [winst.seq for winst in core.trace_log] == \
        list(range(gap_end, gap_end + window))
    crossing = 0
    for winst in core.trace_log:
        seq = winst.seq
        kept = tuple(dep for dep in reference["deps"][seq]
                     if dep[0] >= gap_end)
        external_before = sum(1 for producer, internal in reference["deps"][seq]
                              if producer < gap_end and not internal)
        crossing += external_before
        assert tuple((producer.seq, internal)
                     for producer, internal in winst.deps) == kept
        assert winst.arch_reads == \
            reference["arch_reads"][seq] + external_before
    assert crossing


@pytest.mark.parametrize("name", ("gcc", "swim"))
def test_braid_start_clears_the_internal_slots(name):
    """Internal values never cross a braid start: after a run, every
    bound internal slot holds a writer from the last braid."""
    workload = fresh(name, True)
    core = build_core(workload, braid_config(8))
    core.run()
    last_start = max(dyn.seq for dyn in workload.trace if dyn.inst.annot.start)
    internal = core._producers[INTERNAL_SLOTS]
    assert all(producer is None or producer.seq >= last_start
               for producer in internal)
    assert any(producer is not None for producer in core._producers)


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


def _v5_getstate(self):
    """The format-5 pickle state: a ``seq`` column before the six trace
    columns, and the latency oracles as seq -> cycles dicts."""
    state = self.__dict__.copy()
    del state["replay_facts"]
    trace = state.pop("trace")
    state["trace_columns"] = (list(range(len(trace))), *trace.columns())
    state["load_latency"] = {seq: cycles for seq, cycles
                             in enumerate(self.load_latency)
                             if cycles is not None}
    state["ifetch_extra"] = {seq: extra for seq, extra
                             in enumerate(self.ifetch_extra) if extra}
    return state


def test_v5_layout_is_refused_and_quarantined(tmp_path, monkeypatch, capsys):
    workload = fresh("gcc", False)
    blank = PreparedWorkload.__new__(PreparedWorkload)
    with pytest.raises(ValueError, match="six-column trace format"):
        blank.__setstate__(_v5_getstate(workload))

    cache = ArtifactCache(root=tmp_path)
    key = cache.workload_key("gcc", 1.0, False, False, 8, "perceptron",
                             len(workload))
    with monkeypatch.context() as patch:
        patch.setattr(PreparedWorkload, "__getstate__", _v5_getstate)
        cache.put(key, workload)
    assert cache.path_for(key).exists()
    assert cache.get(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.corruptions == 1 and cache.quarantined == 1
    assert not cache.path_for(key).exists()
    assert (tmp_path / "quarantine" / cache.path_for(key).name).exists()
    err = capsys.readouterr().err
    assert "quarantining corrupt cache entry" in err and "ValueError" in err
