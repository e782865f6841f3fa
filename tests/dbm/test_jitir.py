"""Op-level tests for the passes of the JIT IR (``repro.dbm.jitir``).

The differential sweeps in ``test_jit.py`` pin the passes end to end;
these pin the cases no program there isolates: what dead-store
elimination must keep, when load CSE must forget, and that a flag store
stays live into an op that can raise.
"""

from repro.dbm.jitir import Lowering, Op, cse, dse, fold, optimise
from repro.isa import Imm, Opcode as O, Reg
from repro.isa.instructions import Instruction
from repro.isa.operands import Mem
from repro.isa.registers import R

HEAD = 0x400000


def _mov(dst, value, cond=None):
    return Op("set", dst, (value,), "mov", False, cond)


def _lower(*instructions):
    lowering = Lowering(lambda pc: pc)
    for k, ins in enumerate(instructions):
        ins.address = HEAD + 8 * k
        ins.size = 8
        lowering.instruction(ins)
    return lowering.ops


def _ins(opcode, *operands):
    return Instruction(opcode, operands)


def _stores_to(ops, name):
    return [op.args[0] for op in ops if op.kind == "set" and op.dst == name]


def _data_loads(ops):
    return [op for op in ops if op.kind == "load" and not op.aux]


# ---------------------------------------------------------------------------
# Dead-store elimination
# ---------------------------------------------------------------------------

def test_dse_drops_store_overwritten_before_any_read():
    ops = [_mov("r1", 5), _mov("r1", 6), Op("exit", fn="jmp", aux=HEAD)]
    assert _stores_to(dse(ops), "r1") == [6]


def test_dse_keeps_store_read_only_by_exit_spill():
    # The guard spills r1 when it leaves: the first store is its value.
    ops = [_mov("r1", 5), Op("exit", fn="jmp", aux=0x500000, cond="e"),
           _mov("r1", 6), Op("exit", fn="jmp", aux=HEAD)]
    assert _stores_to(dse(ops), "r1") == [5, 6]


def test_dse_keeps_store_read_across_back_edge():
    # Nothing after the store on this path: the next iteration (or the
    # caller) may read it, so reaching the end keeps it.
    ops = [_mov("r1", "r2"), Op("set", "t1", ("r1", 1), "add", True),
           _mov("r1", "t1")]
    out = dse(ops)
    assert _stores_to(out, "r1") == ["r2", "t1"]
    assert [op.dst for op in out] == ["r1", "t1", "r1"]


def test_dse_keeps_store_followed_only_by_conditional_write():
    # A CMOV may not execute: the older value survives it.
    ops = [_mov("r1", 5), _mov("r1", "r2", cond="l"),
           Op("exit", fn="jmp", aux=HEAD)]
    assert _stores_to(dse(ops), "r1") == [5, "r2"]


def test_dse_drops_unread_temporaries():
    ops = optimise(_lower(_ins(O.CMP, Reg(R.rax), Imm(3)),
                          _ins(O.CMP, Reg(R.rbx), Imm(4))))
    # The first compare's difference and flag write are both dead.
    assert [(op.dst, op.args) for op in ops] == [("t2", ("r3", 4)),
                                                 ("f", ("t2",))]


# ---------------------------------------------------------------------------
# Load CSE
# ---------------------------------------------------------------------------

def test_cse_reuses_a_repeated_load():
    ops = cse(fold(_lower(
        _ins(O.MOV, Reg(R.rax), Mem(base=R.rbx, disp=8)),
        _ins(O.ADD, Reg(R.rdx), Imm(1)),
        _ins(O.MOV, Reg(R.rcx), Mem(base=R.rbx, disp=8)))))
    assert len(_data_loads(ops)) == 1
    # The second MOV now copies the first load's temporary.
    assert _stores_to(ops, "r1") == _stores_to(ops, "r0")


def test_cse_forgets_entry_when_its_holder_is_redefined():
    program = (_ins(O.MOV, Reg(R.rax), Mem(base=R.rbx, disp=8)),
               _ins(O.MOV, Reg(R.rax), Imm(0)),
               _ins(O.MOV, Reg(R.rcx), Mem(base=R.rbx, disp=8)))
    # A load straight into rax: rewriting rax loses the value.
    assert len(_data_loads(cse(_lower(*program)))) == 2
    # Folding first gives the loaded value a temporary that outlives rax.
    assert len(_data_loads(cse(fold(_lower(*program))))) == 1


def test_cse_forgets_entry_when_address_register_redefined():
    ops = cse(fold(_lower(
        _ins(O.MOV, Reg(R.rax), Mem(base=R.rbx, disp=8)),
        _ins(O.ADD, Reg(R.rbx), Imm(8)),
        _ins(O.MOV, Reg(R.rcx), Mem(base=R.rbx, disp=8)))))
    assert len(_data_loads(ops)) == 2


def test_cse_forgets_every_load_at_store_push_and_call():
    for middle in (_ins(O.MOV, Mem(base=R.rdx), Reg(R.rsi)),
                   _ins(O.PUSH, Reg(R.rsi)),
                   _ins(O.CALL, Imm(0x500000))):
        ops = cse(fold(_lower(
            _ins(O.MOV, Reg(R.rax), Mem(base=R.rbx)),
            middle,
            _ins(O.MOV, Reg(R.rcx), Mem(base=R.rbx)))))
        assert len(_data_loads(ops)) == 2, middle.opcode


def test_cse_never_caches_a_conditional_load():
    ops = cse(fold(_lower(
        _ins(O.CMOVE, Reg(R.rax), Mem(base=R.rbx)),
        _ins(O.MOV, Reg(R.rcx), Mem(base=R.rbx)))))
    assert len(_data_loads(ops)) == 2


# ---------------------------------------------------------------------------
# Flag liveness
# ---------------------------------------------------------------------------

def _flag_stores(*middle):
    ops = optimise(_lower(_ins(O.ADD, Reg(R.rax), Reg(R.rbx)), *middle,
                          _ins(O.CMP, Reg(R.rax), Imm(0))))
    return [op for op in ops if op.dst == "f"]


def test_flag_store_overwritten_before_any_read_is_dropped():
    assert len(_flag_stores(_ins(O.MOV, Reg(R.rcx), Reg(R.rdx)))) == 1
    # A provably 8-aligned access cannot fault: no read of the flags.
    aligned = Mem(index=R.rsi, scale=8, disp=0x10000000)
    assert len(_flag_stores(_ins(O.MOV, Reg(R.rcx), aligned))) == 1


def test_flag_store_before_raising_op_stays_live():
    # Each of these can raise, and a raise spills the flags first.
    for raising in (_ins(O.IDIV, Reg(R.rcx), Reg(R.rdx)),
                    _ins(O.SQRTSD, Reg(R.xmm0), Reg(R.xmm1)),
                    _ins(O.MOV, Reg(R.rcx), Mem(base=R.rsi)),
                    _ins(O.MOV, Mem(base=R.rsi), Reg(R.rcx))):
        assert len(_flag_stores(raising)) == 2, raising.opcode
