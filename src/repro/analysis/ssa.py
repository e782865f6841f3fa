"""SSA construction over registers and spilled stack slots.

Variables are register ids (``int``) and canonical stack slots
(``("stack", offset)``).  Flags are excluded: conditions are recovered by
pattern-matching the producing ``cmp`` instead.  Calls define every
caller-saved register (their values are unknown afterwards), which is what
breaks SSA chains across calls exactly as a binary analyser must.

The result maps every instruction to the SSA versions it uses and defines,
plus phi nodes per join block — the substrate for expression trees,
induction-variable recognition, and variable classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import FLAGS_REG, Instruction, Opcode
from repro.isa.registers import (
    ARG_REGS,
    CALLEE_SAVED,
    FARG_REGS,
    NUM_GPR,
    RET_REG,
    XMM_BASE,
)
from repro.analysis.cfg import FunctionCFG
from repro.analysis.dominators import DominatorInfo
from repro.analysis.stack import rsp_effect, slot_of

# Registers whose value does not survive a call in the JX ABI.
CALLER_SAVED = tuple(
    r for r in range(NUM_GPR) if r not in CALLEE_SAVED and r != 4  # rsp
) + tuple(range(XMM_BASE, XMM_BASE + 16))

Var = object  # int (register id) or ("stack", offset)
SSAName = tuple  # (var, version)


@dataclass
class Phi:
    """A phi node at a block header: var <- merge of per-predecessor versions."""

    var: Var
    dest: int  # version defined
    sources: dict[int, int] = field(default_factory=dict)  # pred block -> version

    def name(self) -> SSAName:
        return (self.var, self.dest)


@dataclass
class InstructionSSA:
    """SSA facts for one instruction occurrence."""

    uses: dict  # var -> version read
    defs: dict  # var -> version written


@dataclass
class SSAForm:
    """The full SSA of one function."""

    cfg: FunctionCFG
    dom: DominatorInfo
    rsp_deltas: dict[int, int]
    phis: dict[int, list[Phi]] = field(default_factory=dict)
    # (block start, instruction index) -> InstructionSSA
    facts: dict[tuple[int, int], InstructionSSA] = field(default_factory=dict)
    # (var, version) -> ("entry",) | ("phi", block) | ("ins", block, index)
    def_sites: dict[SSAName, tuple] = field(default_factory=dict)
    # block start -> rsp delta before each instruction (and after the last)
    _prefix: dict[int, list[int]] = field(default_factory=dict, repr=False,
                                          compare=False)

    def delta_at(self, block: int, index: int) -> int:
        """rsp delta just before instruction ``index`` of ``block``."""
        prefix = self._prefix.get(block)
        if prefix is None:
            delta = self.rsp_deltas[block]
            prefix = [delta]
            for ins in self.cfg.blocks[block].instructions:
                effect = rsp_effect(ins)
                delta += effect if effect is not None else 0
                prefix.append(delta)
            self._prefix[block] = prefix
        return prefix[index]

    def use_at(self, block: int, index: int, var: Var) -> SSAName | None:
        fact = self.facts.get((block, index))
        if fact is None or var not in fact.uses:
            return None
        return (var, fact.uses[var])

    def def_at(self, block: int, index: int, var: Var) -> SSAName | None:
        fact = self.facts.get((block, index))
        if fact is None or var not in fact.defs:
            return None
        return (var, fact.defs[var])

    def phi_for(self, block: int, var: Var) -> Phi | None:
        for phi in self.phis.get(block, []):
            if phi.var == var:
                return phi
        return None


def instruction_vars(ins: Instruction, delta: int) -> tuple[set, set]:
    """(uses, defs) variable sets for one instruction at stack delta."""
    uses = {u for u in ins.reg_uses() if u != FLAGS_REG}
    defs = {d for d in ins.reg_defs() if d != FLAGS_REG}
    for mem in ins.mem_reads():
        slot = slot_of(delta, mem)
        if slot is not None:
            uses.add(("stack", slot))
    for mem in ins.mem_writes():
        slot = slot_of(delta, mem)
        if slot is not None:
            defs.add(("stack", slot))
    if ins.opcode in (Opcode.CALL, Opcode.CALLI):
        # ABI assumption: a callee only reads argument registers the caller
        # set up for *this* call, never stale values from a previous
        # iteration -- so a call does not "use" the argument registers for
        # data-flow purposes (otherwise every arg register would grow a
        # phantom loop-carried phi).  The Janus runtime copies the complete
        # register context into each thread regardless.
        defs.update(CALLER_SAVED)
    elif ins.opcode is Opcode.RET:
        uses.add(RET_REG)
        uses.add(XMM_BASE)
        uses.update(CALLEE_SAVED)
    return uses, defs


def build_ssa(cfg: FunctionCFG, dom: DominatorInfo,
              rsp_deltas: dict[int, int]) -> SSAForm:
    """Standard phi placement + renaming over the dominator tree."""
    ssa = SSAForm(cfg=cfg, dom=dom, rsp_deltas=rsp_deltas)

    # Gather per-instruction use/def variable sets once.
    inst_vars: dict[tuple[int, int], tuple[set, set]] = {}
    def_blocks: dict[Var, set[int]] = {}
    all_vars: set[Var] = set()
    for start in dom.rpo:
        block = cfg.blocks[start]
        delta = rsp_deltas[start]
        for index, ins in enumerate(block.instructions):
            uses, defs = instruction_vars(ins, delta)
            inst_vars[(start, index)] = (uses, defs)
            all_vars.update(uses)
            all_vars.update(defs)
            for var in defs:
                def_blocks.setdefault(var, set()).add(start)
            effect = rsp_effect(ins)
            delta += effect if effect is not None else 0

    # Phi placement via iterated dominance frontiers.
    for var, blocks in def_blocks.items():
        placed: set[int] = set()
        worklist = list(blocks)
        while worklist:
            block = worklist.pop()
            for df in dom.frontier.get(block, ()):  # join points
                if df in placed:
                    continue
                placed.add(df)
                ssa.phis.setdefault(df, []).append(Phi(var=var, dest=-1))
                if df not in blocks:
                    worklist.append(df)

    # Renaming.
    counter: dict[Var, int] = {var: 0 for var in all_vars}
    stacks: dict[Var, list[int]] = {var: [0] for var in all_vars}
    for var in all_vars:
        ssa.def_sites[(var, 0)] = ("entry",)

    def new_version(var: Var) -> int:
        counter[var] += 1
        return counter[var]

    def rename(block_start: int) -> None:
        pushed: list[Var] = []
        for phi in ssa.phis.get(block_start, []):
            version = new_version(phi.var)
            phi.dest = version
            stacks[phi.var].append(version)
            pushed.append(phi.var)
            ssa.def_sites[(phi.var, version)] = ("phi", block_start)
        block = cfg.blocks[block_start]
        for index in range(len(block.instructions)):
            uses, defs = inst_vars[(block_start, index)]
            fact = InstructionSSA(
                uses={var: stacks[var][-1] for var in uses}, defs={})
            for var in defs:
                version = new_version(var)
                stacks[var].append(version)
                pushed.append(var)
                fact.defs[var] = version
                ssa.def_sites[(var, version)] = ("ins", block_start, index)
            ssa.facts[(block_start, index)] = fact
        for succ in block.succs:
            if succ not in cfg.blocks:
                continue
            for phi in ssa.phis.get(succ, []):
                phi.sources[block_start] = stacks[phi.var][-1]
        for child in dom.children.get(block_start, []):
            rename(child)
        for var in reversed(pushed):
            stacks[var].pop()

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000))
    try:
        rename(cfg.entry)
    finally:
        sys.setrecursionlimit(old_limit)
    return ssa
