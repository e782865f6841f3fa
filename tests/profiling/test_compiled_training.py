"""Training on the compiled tiers against the reference interpreter.

Coverage is counted at the loop RTCALLs, PROF_MEM and PROF_LOOP_ITER are
lowered inline, and external-call windows log through the shadow tiers
(``repro.profiling.profiler``).  The reference interpreter
(``force_reference``) runs the same profiler through its RTCALL handlers
and a logging hook; both must give the same profiles, instruction and
cycle counts.  Loops whose only RTCALLs are inline sites must reach the
trace and superblock tiers.
"""

import pytest

from repro.analysis import analyze_image
from repro.dbm.modifier import JanusDBM
from repro.jbin.loader import load
from repro.profiling.profiler import Profiler
from repro.rewrite import generate_profile_schedule
from repro.rewrite.gen_profile import COVERAGE_STAGE, DEPENDENCE_STAGE
from repro.workloads import compile_workload, get_workload

from tests.profiling.test_fig6_support import build_image as nested_image
from tests.profiling.test_profiler import (TestDependenceProfiling,
                                           hot_cold_image)


def _profile(image, schedule, inputs=(), reference=False):
    dbm = JanusDBM(load(image, inputs=list(inputs)), schedule=schedule)
    profiler = Profiler(dbm)
    dbm.interp.force_reference = reference
    execution = dbm.run(max_instructions=5_000_000)
    return profiler.result(execution), execution


def _assert_same_as_reference(image, stage, inputs=(),
                              include_incompatible=False):
    analysis = analyze_image(image)
    schedule = generate_profile_schedule(
        analysis, stage, include_incompatible=include_incompatible)
    compiled, run = _profile(image, schedule, inputs)
    reference, ref_run = _profile(image, schedule, inputs, reference=True)
    assert compiled == reference
    assert (run.instructions, run.cycles, run.outputs) == \
        (ref_run.instructions, ref_run.cycles, ref_run.outputs)
    assert run.stats["fallback_instructions"] == 0
    return compiled, run


def _pow_image():
    from repro.isa import Imm, Mem, Opcode as O, Reg
    from repro.isa.operands import Label
    from repro.isa.registers import R
    from repro.jbin.asm import Assembler

    a = Assembler()
    powf = a.import_symbol("pow")
    a.double("arr", *[0.01 * i for i in range(16)])
    a.word("p", 0x10000000)
    a.label("_start")
    a.emit(O.MOV, Reg(R.rbx), Imm(0))
    a.emit(O.MOV, Reg(R.r12), Mem(disp=Label("p")))
    a.label("loop")
    a.emit(O.MOVSD, Reg(R.xmm0), Mem(base=R.r12, index=R.rbx, scale=8))
    a.emit(O.MOVSD, Reg(R.xmm1), Reg(R.xmm0))
    a.emit(O.CALL, powf)
    a.emit(O.MOVSD, Mem(base=R.r12, index=R.rbx, scale=8), Reg(R.xmm0))
    a.emit(O.INC, Reg(R.rbx))
    a.emit(O.CMP, Reg(R.rbx), Imm(16))
    a.emit(O.JL, Label("loop"))
    a.emit(O.RET)
    return a.assemble(entry="_start")


@pytest.mark.parametrize("stage", [COVERAGE_STAGE, DEPENDENCE_STAGE])
def test_small_programs_match_reference(stage):
    pointer = TestDependenceProfiling()._pointer_loop_image
    for image in (hot_cold_image(), pointer(0, 8), pointer(0, 8 * 512),
                  _pow_image()):
        _assert_same_as_reference(image, stage)
    # Each iteration writes the word the one before it read: only the
    # write-after-read test of the shadow rule sees this dependence.
    profile, _ = _assert_same_as_reference(pointer(8, 0), stage)
    loop = next(iter(profile.loops.values()))
    assert loop.has_dependence == (stage == DEPENDENCE_STAGE)
    _assert_same_as_reference(nested_image(), stage,
                              include_incompatible=True)


@pytest.mark.parametrize("name", ["445.gobmk", "454.calculix"])
def test_workload_dependence_pass_matches_reference(name):
    """Dependence samples, replayed iterations and call windows of real
    builds (the golden subset pins the same builds against the parent)."""
    profile, _ = _assert_same_as_reference(
        compile_workload(name), DEPENDENCE_STAGE,
        get_workload(name).train_inputs)
    assert any(loop.has_dependence for loop in profile.loops.values())


def test_profiled_loops_reach_traces_and_superblocks():
    """A loop whose only RTCALLs are inline PROF_LOOP_ITER/PROF_MEM sites
    spins in a trace (one block) or a superblock (the dependence pass
    splits the body at each profiled access)."""
    _, run = _assert_same_as_reference(hot_cold_image(), COVERAGE_STAGE)
    assert run.stats["trace_entries"] > 0
    image = TestDependenceProfiling()._pointer_loop_image(0, 8)
    profile, run = _assert_same_as_reference(image, DEPENDENCE_STAGE)
    assert run.stats["superblock_entries"] > 0
    loop = next(iter(profile.loops.values()))
    assert loop.iterations == 64 and loop.has_dependence


def test_call_window_stays_on_the_compiled_tiers():
    profile, run = _assert_same_as_reference(_pow_image(), DEPENDENCE_STAGE)
    assert run.stats["instrumented_blocks"] == 0
    excall = next(iter(next(iter(profile.loops.values())).excalls.values()))
    assert excall.invocations == 16
    assert excall.heap_reads == 16 * 11 and excall.heap_writes == 0
