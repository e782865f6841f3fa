"""The process-wide code-object cache under the JIT tiers.

``Emitter.finish`` compiles each runner's source once per process and
``exec``-s the cached code object into every runner's own namespace.
These tests pin what that may and may not share: one ``compile()`` for
one source, but per-runner link slots and inline caches; distinct
sources never share a code object; the fixed bound evicts the least
recently used entry; ``repro jit-dump`` prints the same text whether
the cache is cold or warm.
"""

import pytest

from repro.cli import main
from repro.dbm import jit
from repro.dbm.blocks import discover_block
from repro.dbm.interp import Interpreter
from repro.dbm.machine import Machine, make_main_context
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.operands import Label, Mem
from repro.isa.registers import R
from repro.jbin.asm import Assembler
from repro.jbin.loader import load


@pytest.fixture
def compiles(monkeypatch):
    """An empty code cache and a log of every ``compile()`` it makes."""
    monkeypatch.setattr(jit, "_code_cache", type(jit._code_cache)())
    calls = []

    def counting(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(jit, "compile", counting, raising=False)
    return calls


def _process():
    a = Assembler()
    arr = a.space("arr", 16)
    a.label("_start")
    a.emit(O.MOV, Reg(R.rcx), Imm(0))
    a.label("loop")
    a.emit(O.MOV, Mem(index=R.rcx, scale=8, disp=arr), Reg(R.rcx))
    a.emit(O.INC, Reg(R.rcx))
    a.emit(O.CMP, Reg(R.rcx), Imm(16))
    a.emit(O.JL, Label("loop"))
    a.emit(O.CMP, Reg(R.rcx), Imm(0))
    a.emit(O.JNE, Label("done"))
    a.label("done")
    a.emit(O.RET)
    return load(a.assemble(entry="_start"))


def _runner(process, pc):
    """A linking runner for the block at ``pc`` in a fresh interpreter."""
    machine = Machine()
    machine.memory.load_words(process.initial_data())
    interp = Interpreter(machine, process)
    cache = {}

    def lookup(target, _ctx):
        block = cache.get(target)
        if block is None:
            block = cache[target] = discover_block(process, target)
        return block

    block = lookup(pc, None)
    return jit.compile_block_fn(block, interp, lookup), machine


def test_one_compile_for_two_interpreters_with_separate_link_slots(compiles):
    process = _process()
    first, machine = _runner(process, process.entry)
    second, _ = _runner(process, process.entry)
    assert len(compiles) == 1
    assert first is not second
    assert first.__code__ is second.__code__
    assert first.__globals__ is not second.__globals__
    slots_a, slots_b = first.__globals__["_L"], second.__globals__["_L"]
    assert slots_a is not slots_b
    first(make_main_context(process.entry, machine.memory))
    assert any(slot is not None for slot in slots_a)
    assert all(slot is None for slot in slots_b)


def test_distinct_sources_never_share_code(compiles):
    process = _process()
    entry, _ = _runner(process, process.entry)
    loop_pc = discover_block(process, process.entry).instructions[1].address
    loop, _ = _runner(process, loop_pc)
    assert len(compiles) == 2
    assert entry.__code__ is not loop.__code__
    assert entry.__jit_source__ != loop.__jit_source__
    # Equal source under another filename is another entry too.
    source = entry.__jit_source__
    assert jit.code_object(source, "<other>") is not entry.__code__


def test_bound_evicts_least_recently_used(compiles, monkeypatch):
    monkeypatch.setattr(jit, "CODE_CACHE_SIZE", 2)
    sources = [f"def f():\n    return {k}\n" for k in range(3)]
    codes = [jit.code_object(sources[0], "<a>"),
             jit.code_object(sources[1], "<b>")]
    assert jit.code_object(sources[0], "<a>") is codes[0]  # a hit
    jit.code_object(sources[2], "<c>")  # evicts <b>, the stalest
    assert len(jit._code_cache) == 2
    assert (sources[1], "<b>") not in jit._code_cache
    assert jit.code_object(sources[0], "<a>") is codes[0]
    assert len(compiles) == 3


def test_jit_dump_is_the_same_cold_and_warm(compiles, capsys):
    assert main(["jit-dump", "444.namd"]) == 0
    cold = capsys.readouterr()
    cold_compiles = len(compiles)
    assert main(["jit-dump", "444.namd"]) == 0
    warm = capsys.readouterr()
    assert cold_compiles and len(compiles) == cold_compiles
    assert warm.out == cold.out
    assert warm.err == cold.err
