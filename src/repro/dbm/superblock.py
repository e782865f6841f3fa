"""Superblock tier: hot multi-block loop bodies compiled as one function.

The trace-cache tier (:mod:`repro.dbm.jit`) links per-block runners and
promotes *single self-looping blocks* to traces, so a loop body spanning
several blocks (an ``if`` in the body, a call, a nested loop exit path)
still pays a dispatcher round-trip and a full register-file round-trip at
every block boundary.  This module adds the classic tracing-JIT step on
top — DynamoRIO's trace building, PyPy's bridges, in miniature:

* the dispatcher (:mod:`repro.dbm.tracecache`) counts back edges; when a
  loop head crosses ``Interpreter.superblock_threshold`` it asks
  :func:`maybe_form_superblock` for a runner;
* formation walks the code cache from the head along the *biased* path —
  the most-recently-taken successor of each conditional branch — stitching
  blocks until the walk closes back on the head (a single-entry loop) or
  gives up; only edges the dispatcher has already observed are followed,
  so formation never translates new blocks (and never charges translation
  cycles);
* :func:`stitch` builds ONE op list (:mod:`repro.dbm.jitir`) for the whole
  body: each segment's lowered ops, with its terminator's exits replaced
  by a guard (or by nothing when the path falls into the next segment),
  a charge marker per segment, and the closing back edge.  The shared
  passes then fold constants and copies across the stitched block
  boundaries, CSE loads and drop dead stores and flag writes, and the
  block tier's emitter writes it with every architectural register the
  ops touch promoted to a Python local for the superblock's lifetime;
* every place control can leave the superblock is a **guarded exit** that
  restores full architectural state (spills the promoted registers,
  ``ctx.flags``, and the cycle/instruction charge for the iterations and
  blocks actually entered — folded to constants per exit site) before
  returning to the block tier.  Superblocks are fast-path-only: the
  legality predicate the dispatcher uses for the fast block variant (no
  memory hook, no open transaction, the same shadow sink) is re-checked at
  every loop back edge, and a violation deopts to the block tier at a
  clean block boundary.

Exit kinds and their contracts (DESIGN.md section 5):

``side_exits``
    a branch guard failed or a return address was mispredicted; state is
    spilled and control links/returns to the correct successor block.
``bailouts``
    the trace budget (``Interpreter.trace_budget``) ran out; state is
    spilled and the head block itself is returned so the dispatcher can
    re-check instruction limits.
``deopts``
    the legality predicate failed at a back edge (a hook was installed or
    a transaction opened mid-superblock); identical contract to a
    bailout — the dispatcher re-dispatches the head on the correct tier.

Every op that can raise — a division by zero or negative sqrt check, or a
load/store whose address is not provably 8-aligned (a ``MemoryFault``) —
spills all promoted state and settles the charge *before* raising, so the
error observes the same architectural state the block tier would leave.
"""

from __future__ import annotations

from functools import partial

from repro.isa.instructions import CONDITION_OF, Opcode
from repro.dbm.jit import CELLS, Emitter, _identity, select_policy
from repro.dbm.jitir import (ARCH, JCC, NEG_COND, Lowering, Op, is_barrier,
                             optimise)
from repro.telemetry.core import RegistryView

# Back-edge (or trace-entry) count at which the dispatcher attempts
# superblock formation for a loop head.
SUPERBLOCK_THRESHOLD = 16

# Formation limits: blocks stitched / total instructions per superblock.
MAX_SUPERBLOCK_BLOCKS = 16
MAX_SUPERBLOCK_INSTRUCTIONS = 384


class SuperblockStats(RegistryView):
    """Superblock tier observability (``jit.superblock.*`` registry keys).

    ``as_dict()`` prefixes the field names with ``superblock_`` so the
    counters can be merged into the flat ``ExecutionResult.stats`` dict
    next to the legacy ``JITStats`` keys without colliding.
    """

    _NAMESPACE = "jit.superblock"
    _FIELDS = ("formed", "formation_failures", "entries", "side_exits",
               "deopts", "bailouts")

    def as_dict(self) -> dict[str, int]:
        counters = self._registry.counters
        return {f"superblock_{name}":
                counters[f"{self._NAMESPACE}.{name}"]
                for name in self._FIELDS}


def maybe_form_superblock(head, interp, lookup, ctx, last_succ,
                          shadow=False):
    """Try to form and compile a superblock rooted at ``head``.

    ``last_succ`` maps block start -> the most-recently-observed successor
    start, maintained by the dispatcher's fast path; it both biases the
    walk at conditional branches and proves that every block the walk
    visits is already in the code cache.  Returns the compiled runner, or
    ``None`` (counted) when the loop shape is not eligible.

    With ``shadow=True`` the runner additionally records shadow events
    into ``interp.shadow_sink`` (compiled shadow tracking for parallel
    workers; see :mod:`repro.dbm.shadow`) and lands in the block's
    ``jit_super_shadow`` slot.
    """
    segments = _walk(head, interp, lookup, ctx, last_succ, shadow)
    if segments is None:
        interp.sb_stats.formation_failures += 1
        return None
    fn = _compile(segments, interp, lookup, shadow)
    interp.sb_stats.formed += 1
    return fn


def _walk(head, interp, lookup, ctx, last_succ, shadow=False):
    """Walk the biased path from ``head`` until it closes back on the head.

    Returns ``[(block, plan), ...]`` where ``plan`` describes what the
    compiler must emit at the block's terminator:

    * ``("jcc", exit_pc, cond, biased_taken)`` — guard; exit when the
      branch resolves against the biased direction,
    * ``("jmp",)`` / ``("fall",)`` — unconditional, fall into the next
      segment,
    * ``("call", ret_addr)`` — push the return address and fall through
      into the callee,
    * ``("ret", expected)`` — pop and guard the return address.

    ``None`` when the path is not a single-entry loop the tier can
    compile: indirect terminators, SYSCALL/RTCALL blocks (inline profiling
    sites aside), unobserved edges, interior cycles, another loop head's
    territory, or the size budget.
    """
    process = interp.process
    resolve = process.resolve_target if process is not None else _identity
    segments: list = []
    seen: set[int] = set()
    call_stack: list[int] = []
    total = 0
    block = head
    while True:
        if block.start in seen or len(segments) >= MAX_SUPERBLOCK_BLOCKS:
            return None
        slot = block.jit_super_shadow if shadow else block.jit_super
        if block is not head and (slot is not None or block.is_self_loop):
            return None  # interior of another hot loop: its own tier owns it
        for ins in block.instructions:
            if is_barrier(ins, interp.profiler):
                return None
        seen.add(block.start)
        total += len(block.instructions)
        if total > MAX_SUPERBLOCK_INSTRUCTIONS:
            return None
        term = block.terminator
        op = term.opcode
        if op in JCC:
            taken = resolve(term.operands[0].value)
            fall = block.end
            if taken == block.start:
                if block is not head:
                    return None  # interior self-loop
                # Single-block loop: guard the exit edge, spin on taken.
                segments.append((block, ("jcc", fall,
                                         CONDITION_OF[op], True)))
                succ = taken
            else:
                observed = last_succ.get(block.start)
                if observed == taken:
                    plan = ("jcc", fall, CONDITION_OF[op], True)
                    succ = taken
                elif observed == fall:
                    plan = ("jcc", taken, CONDITION_OF[op], False)
                    succ = fall
                else:
                    return None  # edge never observed: no bias to trust
                segments.append((block, plan))
        elif op is Opcode.JMP:
            succ = resolve(term.operands[0].value)
            if succ == block.start:
                return None  # infinite self-loop: the trace tier owns it
            segments.append((block, ("jmp",)))
        elif op is Opcode.CALL:
            succ = resolve(term.operands[0].value)
            call_stack.append(term.address + term.size)
            segments.append((block, ("call", term.address + term.size)))
        elif op is Opcode.RET:
            if not call_stack:
                return None  # returning past the loop: not a loop body
            succ = call_stack.pop()
            segments.append((block, ("ret", succ)))
        elif not term.is_control:
            succ = block.end
            segments.append((block, ("fall",)))
        else:
            return None  # CALLI/JMPI/HLT/SYSCALL terminator
        if succ == head.start and not call_stack:
            return segments
        if succ not in last_succ:
            # The successor block never executed (and transferred) on the
            # fast path: following it could translate cold blocks, which
            # must never happen during formation (cycle accounting).
            return None
        block = lookup(succ, ctx)


def stitch(segments, resolve, profiler=None, merge_loads=True) -> list[Op]:
    """The optimised op list of a walked superblock (ends in its back
    edge)."""
    lowering = Lowering(resolve, profiler)
    ops = lowering.ops
    cum_cy = cum_ic = 0
    for block, plan in segments:
        # Block costs are charged at block entry in the block tier, so
        # any exit inside this segment (a guard, a raising op) charges
        # through this segment inclusive.
        cum_cy += block.cost
        cum_ic += len(block.instructions)
        ops.append(Op("seg", aux=(cum_cy, cum_ic)))
        for ins in block.instructions:
            lowering.instruction(ins)
        kind = plan[0]
        if kind == "fall":
            continue
        # The terminator's exit gives way to the plan: a guard, the
        # return-address guard, or nothing ("jmp"/"call" fall into the
        # next segment; CALL's push stays).
        last = ops.pop()
        if kind == "jcc":
            _kind, exit_pc, cond, biased_taken = plan
            ops.append(Op("exit", fn="jmp", aux=exit_pc,
                          cond=NEG_COND[cond] if biased_taken else cond))
        elif kind == "ret":
            ops.append(Op("exit", None, last.args, "ret", plan[1]))
    ops.append(Op("exit", fn="back"))
    return optimise(ops, merge_loads)


def _compile(segments, interp, lookup, shadow):
    head = segments[0][0]
    policy = select_policy(
        interp, [ins for block, _plan in segments
                 for ins in block.instructions], shadow=shadow, inline=True)
    em = Emitter(interp, lookup, policy, head)
    merge_loads = not policy.logs_loads
    ops = stitch(segments, em.resolve, em.profiler, merge_loads)
    # Every architectural register the ops touch lives in a Python local
    # for the superblock's lifetime, spilled back only at exits.
    names = {name for op in ops for name in op.args + (op.dst,)
             if name.__class__ is str and name in ARCH}
    names.discard("f")
    em.promoted = sorted(names, key=lambda name: (name[0], int(name[1:])))
    em.names = {}
    budget = interp.trace_budget
    em.charge = (sum(block.cost for block, _plan in segments),
                 sum(len(block.instructions) for block, _plan in segments),
                 budget)
    em.loop = "super"
    em.exit_stat = "_sb.side_exits"
    em.ns["_sb"] = interp.sb_stats
    em.ns["_self"] = head
    lines = ["g = ctx.gregs", "x = ctx.fregs", "f = ctx.flags",
             "_sb.entries += 1"]
    lines += [f"{name} = {CELLS[name]}" for name in em.promoted]
    lines += [f"n = {budget}", "while True:"]
    em.indent = 2
    em.body(ops)
    return em.finish(f"_jsb_{head.start:x}", f"super {policy.label}", lines,
                     partial(stitch, segments, em.resolve, em.profiler,
                             merge_loads))
