"""The op-list IR under both JIT tiers: one lowering, shared passes.

Every compiled runner -- a block runner (:mod:`repro.dbm.jit`) or a
stitched superblock (:mod:`repro.dbm.superblock`) -- is built the same
way, after DynamoRIO's single instruction-list IR: each JX instruction is
lowered *once*, here, to a short list of typed :class:`Op` records; the
passes below rewrite the list; the emitter in :mod:`repro.dbm.jit` turns
it into Python source at the very end.  No pass looks at source text.

Values are Python ints/floats (constants) or names:

* ``r<id>`` -- general-purpose register ``id``;
* ``x<lane>`` -- one f64 lane of the xmm file (register ``k`` owns lanes
  ``4k .. 4k+3``);
* ``f`` -- the flags word (the sign of the last flag-writing result);
* anything else -- a temporary (``t<n>``/``v<n>`` computed, ``m<n>``
  loaded), defined once in a superblock's op list.

The emitter decides whether an architectural name is a promoted Python
local or a cell of ``ctx.gregs``/``ctx.fregs``.  Op kinds:

``set``    ``dst = fn(args)`` (``aux``: wrap to signed 64 bits) -- pure,
           the only kind a pass may delete.
``load``   ``dst`` = the word at address ``args`` = ``(base, index,
           scale, disp)``; ``fn`` ``"i"`` or ``"f"`` (bit-cast to f64);
           ``aux`` marks a *quiet* access (a stack slot or a packed
           lane), which is never hooked or shadow-recorded itself.
``store``  the word at ``args[:4]`` = ``args[4]``; same ``fn``/``aux``.
``probe``  the single hook/shadow event of a packed access at address
           ``args[:4]`` covering ``args[4]`` lanes (``fn`` ``"r"``/``"w"``);
           the quiet lane accesses follow.
``event``  a training-stage PROF_MEM site lowered inline: the access at
           address ``args[:4]`` covering ``args[4]`` lanes (``fn``
           ``"r"``/``"w"``) joins loop ``aux``'s profiling events.
``iter``   a training-stage PROF_LOOP_ITER lowered inline: loop ``aux``
           starts an iteration.
``check``  raise ``JXRuntimeError(aux)`` when the ``fn`` test of ``args``
           holds (divide by zero, negative sqrt).
``call``   SYSCALL / RTCALL / reference fallback (``fn`` ``sys``/``rt``/
           ``x``): a barrier that may read or rewrite any state.  With
           a training profiler attached, PROF_MEM and PROF_LOOP_ITER
           RTCALLs are ``event``/``iter`` ops (:func:`profiled_inline`).
``exit``   leave the runner (``fn`` ``jmp``/``ijmp``/``ret``/``halt``), or
           close a superblock's iteration (``back``, its back edge).
``seg``    superblock segment boundary: ``aux`` is the cycle/instruction
           charge an exit inside the segment settles.

Any op may carry ``cond``: it executes only when that flag condition
holds (CMOV; a conditional exit is a *guard*).  An op *can raise* when it
is a ``check`` or a load/store whose address is not provably 8-aligned;
like every exit and call, it settles all promoted state first, so the
passes treat it as reading every architectural name.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from repro.isa.instructions import CONDITION_OF, Opcode
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import NUM_GPR, NUM_XMM, STACK_REG, XMM_BASE
from repro.dbm.memory import s64
from repro.dbm.rtcalls import RTCallID

_U64 = (1 << 64) - 1

GPR = tuple(f"r{rid}" for rid in range(NUM_GPR))
LANE = tuple(f"x{lane}" for lane in range(NUM_XMM * 4))
ARCH = frozenset(GPR + LANE + ("f",))
_SP = GPR[STACK_REG]

COND_EXPR = {
    "e": "f == 0",
    "ne": "f != 0",
    "l": "f < 0",
    "le": "f <= 0",
    "g": "f > 0",
    "ge": "f >= 0",
}
NEG_COND = {"e": "ne", "ne": "e", "l": "ge", "ge": "l", "le": "g", "g": "le"}

JCC = frozenset((Opcode.JE, Opcode.JNE, Opcode.JL,
                 Opcode.JLE, Opcode.JG, Opcode.JGE))
_CMOV = frozenset((Opcode.CMOVE, Opcode.CMOVNE, Opcode.CMOVL,
                   Opcode.CMOVLE, Opcode.CMOVG, Opcode.CMOVGE))
_PACKED = {Opcode.MOVAPD: None, Opcode.VMOVAPD: None,
           Opcode.ADDPD: "add", Opcode.VADDPD: "add",
           Opcode.SUBPD: "sub", Opcode.VSUBPD: "sub",
           Opcode.MULPD: "mul", Opcode.VMULPD: "mul",
           Opcode.DIVPD: "div", Opcode.VDIVPD: "div"}
BARRIER_OPCODES = frozenset((Opcode.SYSCALL, Opcode.RTCALL))
_INLINE_RTCALLS = frozenset((RTCallID.PROF_MEM, RTCallID.PROF_LOOP_ITER))
_INT_ALU = {Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.IMUL: "mul",
            Opcode.AND: "and", Opcode.OR: "or", Opcode.XOR: "xor"}
_WRAPPING = frozenset((Opcode.ADD, Opcode.SUB, Opcode.IMUL))
_SHIFTS = {Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.SAR: "sar"}
_FP_ALU = {Opcode.ADDSD: "add", Opcode.SUBSD: "sub", Opcode.MULSD: "mul",
           Opcode.MINSD: "min", Opcode.MAXSD: "max"}


def _sign(value) -> int:
    return 1 if value > 0 else (-1 if value < 0 else 0)


# fn -> (source template, constant folder or None).  Only all-int
# arguments fold, so f64 arithmetic is never evaluated at compile time.
FN = {
    "mov": ("{0}", None),
    "add": ("{0} + {1}", operator.add),
    "sub": ("{0} - {1}", operator.sub),
    "mul": ("{0} * {1}", operator.mul),
    "div": ("{0} / {1}", None),
    "and": ("{0} & {1}", operator.and_),
    "or": ("{0} | {1}", operator.or_),
    "xor": ("{0} ^ {1}", operator.xor),
    "shl": ("{0} << {1}", operator.lshift),
    "shr": (f"({{0}} & {_U64}) >> {{1}}", lambda a, b: (a & _U64) >> b),
    "sar": ("{0} >> {1}", operator.rshift),
    "mask": ("{0} & 63", lambda a: a & 63),
    "neg": ("-{0}", operator.neg),
    "not": ("~{0}", operator.invert),
    "qabs": ("abs({0}) // abs({1})", None),
    "qsign": ("-{0} if ({1} < 0) != ({2} < 0) else {0}", None),
    "rem": ("{0} - {1} * {2}", None),
    "min": ("min({0}, {1})", None),
    "max": ("max({0}, {1})", None),
    "sqrt": ("_sqrt({0})", None),
    "float": ("float({0})", None),
    "int": ("int({0})", None),
    "i2f": ("_uD(_pQ({0}))[0]", None),
    "f2i": ("_uQ(_pD({0}))[0]", None),
    "sign": ("1 if {0} > 0 else (-1 if {0} < 0 else 0)", _sign),
}


@dataclass(slots=True, eq=False)
class Op:
    """One IR operation (see the module docstring for the kinds)."""

    kind: str
    dst: str | None = None
    args: tuple = ()
    fn: str | None = None
    aux: object = None
    cond: str | None = None
    ins: object = None

    def __str__(self) -> str:
        args = ", ".join("_" if a is None else str(a) for a in self.args)
        dst = "" if self.dst is None else f"{self.dst} = "
        aux = "" if self.aux in (None, False) else f" {self.aux!r}"
        cond = "" if self.cond is None else f" if {self.cond}"
        return f"{dst}{self.kind}.{self.fn}({args}){aux}{cond}"


def aligned(args) -> bool:
    """Is the (normalised) address ``args[:4]`` provably 8-aligned?

    Every surviving register term must be scaled by a multiple of eight
    (a bare base register proves nothing) and the displacement aligned.
    """
    return args[0] is None and (args[1] is None or not args[2] % 8) \
        and not args[3] % 8


def profiled_inline(ins, profiler) -> bool:
    """Is ``ins`` a profiling RTCALL the JIT lowers inline?

    With a training profiler attached (``profiler``, else ``None``),
    PROF_MEM sites and PROF_LOOP_ITER become ``event`` and ``iter`` ops:
    neither changes the loop-frame stack, installs a hook or touches
    architectural state, so neither is a barrier.
    """
    return profiler is not None and ins.opcode is Opcode.RTCALL \
        and ins.operands[0].value in _INLINE_RTCALLS


def is_barrier(ins, profiler=None) -> bool:
    """SYSCALL and RTCALL end traces and superblocks: they may halt,
    install a hook or open a transaction."""
    return ins.opcode in BARRIER_OPCODES \
        and not profiled_inline(ins, profiler)


def can_raise(op: Op) -> bool:
    kind = op.kind
    return kind == "check" or (kind in ("load", "store")
                               and not aligned(op.args))


# ---------------------------------------------------------------------------
# Lowering: JX instruction -> ops
# ---------------------------------------------------------------------------

class Lowering:
    """Appends the ops of successive instructions to ``self.ops``.

    One instance lowers one runner (a block, or every segment of a
    superblock), so temporaries are unique across the whole op list.
    ``resolve`` maps raw branch targets to code addresses; ``profiler``
    is the interpreter's training profiler (see :func:`profiled_inline`).
    """

    def __init__(self, resolve, profiler=None):
        self.resolve = resolve
        self.profiler = profiler
        self.ops: list[Op] = []
        self.n = 0
        self.cond = None
        self.ins = None

    def op(self, kind, dst=None, args=(), fn=None, aux=None):
        self.ops.append(Op(kind, dst, args, fn, aux, self.cond, self.ins))
        return dst

    def temp(self, prefix: str = "t") -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def set(self, fn, *args, wrap=False, dst=None):
        return self.op("set", dst or self.temp(), args, fn, wrap)

    @staticmethod
    def addr(m) -> tuple:
        return (None if m.base is None else GPR[m.base],
                None if m.index is None else GPR[m.index], m.scale, m.disp)

    def val(self, opnd, fp=False):
        """An operand's value: a register's name, a constant, or a load."""
        t = type(opnd)
        if t is Reg:
            return LANE[(opnd.id - XMM_BASE) * 4] if fp else GPR[opnd.id]
        if t is Imm:
            return opnd.value
        return self.op("load", self.temp("m"), self.addr(opnd),
                       "f" if fp else "i", False)

    def store(self, opnd, value, fp=False) -> None:
        if type(opnd) is Reg:
            self.set("mov", value, dst=self.val(opnd, fp))
        else:
            self.op("store", None, self.addr(opnd) + (value,),
                    "f" if fp else "i", False)

    def fstore(self, opnd, fn, *args) -> None:
        """``opnd = fn(args)`` for an f64 result: a register destination
        is computed straight into."""
        if type(opnd) is Reg:
            self.set(fn, *args, dst=self.val(opnd, True))
        else:
            self.store(opnd, self.set(fn, *args), True)

    def move(self, dst, src, fp=False) -> None:
        """``dst = src``; a register destination is loaded straight into."""
        if type(dst) is Reg and type(src) is Mem:
            self.op("load", self.val(dst, fp), self.addr(src),
                    "f" if fp else "i", False)
        else:
            self.store(dst, self.val(src, fp), fp)

    def result(self, opnd, fn, *args, wrap=False, flags=True) -> None:
        """``opnd = fn(args)`` through a temp, then (optionally) flags."""
        t = self.set(fn, *args, wrap=wrap)
        self.store(opnd, t)
        if flags:
            self.set("sign", t, dst="f")

    def push(self, value) -> None:
        # sp moves before the value is read (matches the reference: a
        # push of rsp or an rsp-relative operand sees the new sp).
        sp = self.set("sub", _SP, 8)
        self.set("mov", sp, dst=_SP)
        value = self.val(value) if type(value) is not int else value
        self.op("store", None, (sp, None, 1, 0, value), "i", True)

    def pop(self):
        sp = self.set("mov", _SP)
        return sp, self.op("load", self.temp("m"), (sp, None, 1, 0), "i",
                           True)

    def instruction(self, ins) -> None:  # noqa: C901
        """Append the ops of ``ins``; control transfers end in exits."""
        self.ins = ins
        self.cond = None
        op = ins.opcode
        ops = ins.operands
        site = ins.address if ins.address is not None else 0
        if op is Opcode.MOV:
            self.move(ops[0], ops[1])
        elif op is Opcode.LEA:
            t = self.set("ea", *self.addr(ops[1]), wrap=True)
            self.set("mov", t, dst=GPR[ops[0].id])
        elif op in _INT_ALU:
            a = self.val(ops[0])
            self.result(ops[0], _INT_ALU[op], a, self.val(ops[1]),
                        wrap=op in _WRAPPING)
        elif op in (Opcode.IDIV, Opcode.IMOD):
            a = self.val(ops[0])
            b = self.val(ops[1])
            self.op("check", None, (b,), "{0} == 0",
                    f"division by zero at {site:#x}")
            q = self.set("qsign", self.set("qabs", a, b), a, b)
            if op is Opcode.IDIV:
                self.result(ops[0], "mov", q, wrap=True, flags=False)
            else:
                self.result(ops[0], "rem", a, q, b, flags=False)
        elif op in _SHIFTS:
            # The reference reads the shift amount before the value.
            if type(ops[1]) is Imm:
                amount = ops[1].value & 63
            else:
                amount = self.set("mask", self.val(ops[1]))
            self.result(ops[0], _SHIFTS[op], self.val(ops[0]), amount,
                        wrap=op is not Opcode.SAR)
        elif op in (Opcode.INC, Opcode.DEC):
            self.result(ops[0], "add" if op is Opcode.INC else "sub",
                        self.val(ops[0]), 1, wrap=True)
        elif op is Opcode.NEG:
            self.result(ops[0], "neg", self.val(ops[0]), wrap=True)
        elif op is Opcode.NOT:
            self.result(ops[0], "not", self.val(ops[0]), flags=False)
        elif op in (Opcode.CMP, Opcode.TEST):
            a = self.val(ops[0])
            t = self.set("sub" if op is Opcode.CMP else "and", a,
                         self.val(ops[1]))
            self.set("sign", t, dst="f")
        elif op in _CMOV:
            self.cond = CONDITION_OF[op]
            self.move(ops[0], ops[1])
            self.cond = None
        elif op is Opcode.PUSH:
            self.push(ops[0])
        elif op is Opcode.POP:
            # Store happens before sp moves: a Mem destination's effective
            # address uses the old sp (matches reference order).
            sp, value = self.pop()
            self.store(ops[0], value)
            self.set("add", sp, 8, dst=_SP)
        # ---- scalar floating point --------------------------------------
        elif op is Opcode.MOVSD:
            self.move(ops[0], ops[1], fp=True)
        elif op in _FP_ALU:
            a = self.val(ops[0], True)
            self.fstore(ops[0], _FP_ALU[op], a, self.val(ops[1], True))
        elif op is Opcode.DIVSD:
            d = self.val(ops[1], True)
            self.op("check", None, (d,), "{0} == 0.0",
                    f"fp division by zero at {site:#x}")
            self.fstore(ops[0], "div", self.val(ops[0], True), d)
        elif op is Opcode.SQRTSD:
            d = self.val(ops[1], True)
            self.op("check", None, (d,), "{0} < 0.0",
                    f"sqrt of negative at {site:#x}")
            self.fstore(ops[0], "sqrt", d)
        elif op is Opcode.UCOMISD:
            a = self.val(ops[0], True)
            t = self.set("sub", a, self.val(ops[1], True))
            self.set("sign", t, dst="f")
        elif op is Opcode.CVTSI2SD:
            self.fstore(ops[0], "float", self.val(ops[1]))
        elif op is Opcode.CVTTSD2SI:
            self.result(ops[0], "int", self.val(ops[1], True), wrap=True,
                        flags=False)
        elif op is Opcode.XORPD:
            if ops[0] == ops[1]:
                base = (ops[0].id - XMM_BASE) * 4
                for lane in range(4):
                    self.set("mov", 0.0, dst=LANE[base + lane])
            else:
                a = self.set("f2i", self.val(ops[0], True))
                b = self.set("f2i", self.val(ops[1], True))
                t = self.set("xor", a, b)
                self.fstore(ops[0], "i2f", t)
        elif op in _PACKED:
            self.packed(ins, _PACKED[op])
        # ---- control ------------------------------------------------------
        elif op in JCC:
            self.cond = CONDITION_OF[op]
            self.op("exit", fn="jmp", aux=self.resolve(ops[0].value))
            self.cond = None
        elif op is Opcode.JMP:
            self.op("exit", fn="jmp", aux=self.resolve(ops[0].value))
        elif op is Opcode.CALL:
            self.push(ins.address + ins.size)
            self.op("exit", fn="jmp", aux=self.resolve(ops[0].value))
        elif op in (Opcode.CALLI, Opcode.JMPI):
            # The target read precedes the push (matches reference order).
            t = self.val(ops[0])
            if op is Opcode.CALLI:
                self.push(ins.address + ins.size)
            self.op("exit", None, (t,), "ijmp")
        elif op is Opcode.RET:
            sp, t = self.pop()
            self.set("add", sp, 8, dst=_SP)
            self.op("exit", None, (t,), "ret")
        elif op is Opcode.HLT:
            self.op("exit", fn="halt")
        # ---- system ---------------------------------------------------------
        elif op is Opcode.SYSCALL:
            self.op("call", fn="sys")
        elif op is Opcode.RTCALL:
            arg = ops[1].value if len(ops) > 1 else 0
            if not profiled_inline(ins, self.profiler):
                self.op("call", fn="rt", aux=(ops[0].value, arg))
            elif ops[0].value == RTCallID.PROF_LOOP_ITER:
                self.op("iter", aux=arg)
            else:
                operand, lanes, is_write, loop_id = self.profiler.site(arg)
                self.op("event", None, self.addr(operand) + (lanes,),
                        "w" if is_write else "r", loop_id)
        elif op in (Opcode.NOP, Opcode.PREFETCH):
            pass  # hints: no architectural effect in any tier
        else:
            # No lowering: reference per-instruction fallback (cold path).
            self.op("call", fn="x")

    def packed(self, ins, fn) -> None:
        lanes = ins.lanes
        dst, src = ins.operands
        if type(src) is Reg:
            sbase = (src.id - XMM_BASE) * 4
            values = [LANE[sbase + i] for i in range(lanes)]
        else:
            base, index, scale, disp = self.addr(src)
            self.op("probe", None, (base, index, scale, disp, lanes), "r",
                    False)
            values = [self.op("load", self.temp("m"),
                              (base, index, scale, disp + 8 * i), "f", True)
                      for i in range(lanes)]
        if fn == "div":
            for value in values:
                self.op("check", None, (value,), "{0} == 0.0",
                        f"fp division by zero at {ins.address or 0:#x}")
        if type(dst) is Reg:
            dbase = (dst.id - XMM_BASE) * 4
            for i in range(lanes):
                name = LANE[dbase + i]
                if fn is None:
                    self.set("mov", values[i], dst=name)
                else:
                    self.set(fn, name, values[i], dst=name)
            return
        # RMW packed ops always have a register destination: a memory
        # destination is a move.
        base, index, scale, disp = self.addr(dst)
        self.op("probe", None, (base, index, scale, disp, lanes), "w",
                False)
        for i in range(lanes):
            self.op("store", None,
                    (base, index, scale, disp + 8 * i, values[i]), "f", True)


def lower_block(instructions, resolve, end: int, profiler=None) -> list[Op]:
    """The op list of one block runner (ends in an exit on every path)."""
    lowering = Lowering(resolve, profiler)
    for ins in instructions:
        # No pass runs on a block runner, so no value crosses instructions:
        # temporaries restart per instruction (fewer locals per call).
        lowering.n = 0
        lowering.instruction(ins)
    last = lowering.ops[-1] if lowering.ops else None
    if last is None or last.kind != "exit" or last.cond is not None:
        lowering.ins = None
        lowering.op("exit", fn="jmp", aux=end)  # fall through
    return lowering.ops


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _normalise(args) -> tuple:
    """Fold constant base/index registers of an address into its disp."""
    base, index, scale, disp = args[:4]
    if base is not None and base.__class__ is not str:
        disp += base
        base = None
    if index is not None and index.__class__ is not str:
        disp += index * scale
        index = None
    return (base, index, scale, disp) + args[4:]


def _split_register_defs(ops):
    """Compute every register value into a temporary of its own, then copy
    it into the register: the value outlives the register for CSE and
    copy folding (dead copies go in dead-store elimination)."""
    for n, op in enumerate(ops):
        reg = op.dst
        if reg in ARCH and reg != "f" and (op.kind == "load"
                                           or op.fn != "mov"):
            op.dst = f"v{n}"
            yield op
            yield Op("set", reg, (op.dst,), "mov", False, op.cond, op.ins)
        else:
            yield op


def fold(ops: list[Op]) -> list[Op]:
    """Constant and copy folding.

    Forward over the single path: every name argument is replaced by the
    constant it holds or the name it copies, addresses absorb constant
    registers, and ``set`` ops over all-int constants are evaluated.
    The environment starts empty at the top (the only join point of a
    looping runner), forgets a name when it is redefined (and every copy
    of it), keeps nothing a conditional op defines, and is dropped at a
    ``call``, which may rewrite any register.
    """
    const: dict = {}
    copy: dict = {}
    out = []
    for op in _split_register_defs(ops):
        args = op.args
        if args and (const or copy):
            op.args = args = tuple(
                const.get(a, copy.get(a, a)) if a.__class__ is str else a
                for a in args)
        kind = op.kind
        if kind == "call":
            const.clear()
            copy.clear()
        if kind in ("load", "store", "probe", "event") or op.fn == "ea":
            op.args = args = _normalise(args)
        if kind == "set" and op.cond is None:
            if op.fn == "ea":
                if args[0] is None and args[1] is None:
                    op.fn, op.args = "mov", (s64(args[3]),)
            else:
                folder = FN[op.fn][1]
                if folder is not None and all(
                        a.__class__ is int for a in args):
                    value = folder(*args)
                    op.fn, op.args = "mov", (s64(value) if op.aux
                                             else value,)
                    op.aux = False
        name = op.dst
        if name is not None:
            const.pop(name, None)
            copy.pop(name, None)
            for key in [k for k, v in copy.items() if v == name]:
                del copy[key]
        if kind == "set" and op.cond is None and op.fn == "mov":
            value = op.args[0]
            if value.__class__ is str:
                if value != op.dst:
                    copy[op.dst] = value
            else:
                const[op.dst] = value
        out.append(op)
    return out


def cse(ops: list[Op]) -> list[Op]:
    """Load CSE: a repeated load of the same folded address reuses the
    first load's temporary (and so does a repeated pure computation).

    Any store may alias any cached address (the tier proves nothing about
    disjointness), so every store -- including PUSH and CALL's stack
    slots -- forgets the cached loads, as does a ``call``; an entry is
    also forgotten when a register named in it is redefined.  A
    conditional op is never cached.  Only legal for memory policies
    whose loads have no side effect to repeat (no hook, no transaction).
    """
    avail: dict = {}
    rename: dict = {}
    out = []
    for op in ops:
        if rename and op.args:
            op.args = tuple(rename.get(a, a) if a.__class__ is str else a
                            for a in op.args)
        kind = op.kind
        key = None
        if op.cond is None and (kind == "load" or (
                kind == "set" and op.fn != "mov" and op.dst not in ARCH)):
            key = (kind, op.fn, op.aux, op.args)
            held = avail.get(key)
            if held is not None:
                if op.dst not in ARCH:
                    rename[op.dst] = held
                    continue
                # A register destination still needs the value itself.
                op.kind, op.fn, op.args, op.aux = "set", "mov", (held,), False
                key = None
        elif kind in ("store", "call"):
            for stale in [k for k in avail if k[0] == "load"]:
                del avail[stale]
        name = op.dst
        if name is not None:
            for stale in [k for k, held in avail.items()
                          if held == name or name in k[3]]:
                del avail[stale]
        if key is not None and op.dst not in key[3]:
            avail[key] = op.dst
        out.append(op)
    return out


def dse(ops: list[Op]) -> list[Op]:
    """Dead-store elimination (flag liveness included: ``f`` is a name).

    Backward over the single path.  A pure ``set`` is dropped when its
    destination is a temporary nobody reads, or an architectural name
    whose next event is an unconditional redefinition.  Reads are
    argument uses, the flags a ``cond`` op tests, a conditional write
    (the old value may survive it), and -- for everything architectural
    -- any op that exits, calls or can raise, since it spills.  Reaching
    the end of the list keeps a store: it may be read across the back
    edge or by the caller.
    """
    dead: set = set()    # architectural names redefined before any read
    live: set = set()    # temporaries read later
    out = []
    for op in reversed(ops):
        dst = op.dst
        if op.kind == "set" and op.cond is None and (
                dst in dead if dst in ARCH else dst not in live):
            continue
        if dst in ARCH:
            if op.cond is None:
                dead.add(dst)
            else:
                dead.discard(dst)
        elif dst is not None:
            if op.cond is None:
                live.discard(dst)
            else:
                live.add(dst)
        if op.kind in ("exit", "call") or can_raise(op):
            dead.clear()
        elif op.cond is not None:
            dead.discard("f")
        for a in op.args:
            if a.__class__ is str:
                if a in ARCH:
                    dead.discard(a)
                else:
                    live.add(a)
        out.append(op)
    out.reverse()
    return out


def optimise(ops: list[Op], merge_loads: bool = True) -> list[Op]:
    """All passes; ``merge_loads=False`` keeps CSE away from a policy that
    must see every dynamic load (a profiling window counts them)."""
    ops = fold(ops)
    return dse(cse(ops) if merge_loads else ops)
