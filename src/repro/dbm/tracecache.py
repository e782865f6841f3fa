"""The trace-cache dispatch loop shared by all execution modes.

This is the analogue of DynamoRIO's dispatcher: it hands control to a
block's compiled runner and only regains it at an unlinked transfer, a
halt, or a trace-budget bailout.  A runner may return the *compiled
successor block itself* (a link), in which case the loop re-enters compiled
code immediately — no code-cache lookup.

Fast-path legality is re-checked at every block boundary: the fast variant
runs only while no memory hook is installed and no transaction is open;
otherwise the instrumented variant runs (it re-checks the hook/transaction
*per access*, so mid-block installation behaves exactly like the reference
interpreter).  Training needs nothing more: the profiler counts coverage
at its loop RTCALLs, its per-access and per-iteration sites are inline
ops, and an external call's profiling window is a shadow sink (below), so
training reaches traces and superblocks (:mod:`repro.profiling.profiler`).

When a :class:`~repro.dbm.shadow.ShadowSink` is installed (parallel
workers in compiled shadow mode), or a :class:`~repro.dbm.shadow.WindowLog`
(a training run inside a profiling window), the fast tier is replaced
wholesale by the *shadow* tier — ``jit_super_shadow``/``jit_shadow``
runners that link, trace and form superblocks exactly like the fast tier
while recording events into the sink.  A block entered with an open
transaction runs its shadow runner only if that runner is *dynamic*
(``__shadow_dynamic__``: the block contains an RTCALL that may close the
transaction, and post-close accesses must still be recorded); static
blocks under an open transaction fall back to the instrumented runner,
which with no hook installed records nothing — the hook path's exact
behaviour under a transaction.

On top of the block tier, the dispatcher drives **superblock promotion**
(:mod:`repro.dbm.superblock`): while on the fast path it records each
block's most-recently-taken successor and counts loop-head heat — a
backward transfer, or any entry to a self-loop trace head (whose back
edges spin internally and are invisible here).  When a head crosses
``interp.superblock_threshold`` the superblock former stitches the biased
loop body into one compiled function; from then on the head's
``jit_super`` runner is preferred whenever the fast path is legal.
Superblock side exits, budget bailouts and legality deopts all land back
in this loop at clean block boundaries.
"""

from __future__ import annotations

from repro.dbm.blocks import Block
from repro.dbm.jit import compile_block_fn
from repro.dbm.superblock import maybe_form_superblock


def run_loop(interp, ctx, pc: int, lookup,
             max_instructions: int | None = None) -> None:
    """Run from ``pc`` until the program halts.

    ``lookup(pc, ctx) -> Block`` is the caller's code-cache lookup
    (translating on miss); it must stay stable for the life of the blocks
    it returns, because compiled runners capture it in their link slots.

    Raises :class:`~repro.dbm.interp.ExecutionLimitExceeded` when
    ``max_instructions`` is crossed (checked at block boundaries; a
    self-loop trace or superblock bails out at least every
    ``interp.trace_budget`` iterations, bounding the overshoot).
    """
    from repro.dbm.interp import ExecutionLimitExceeded

    threshold = interp.superblock_threshold
    counting = interp.superblocks_enabled and threshold > 0
    # Loop-head heat and most-recently-taken successors, both keyed by
    # block start; scoped to this invocation like the code cache itself.
    hot: dict[int, int] = {}
    last_succ: dict[int, int] = {}

    block = lookup(pc, ctx)
    while True:
        if interp.force_reference:
            nxt = interp.execute_block_reference(ctx, block)
            if max_instructions is not None \
                    and ctx.instructions > max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} instructions")
            if nxt is None:
                return
            block = lookup(nxt, ctx)
            continue
        fast = interp.mem_hook is None and interp.active_tx is None
        sink = interp.shadow_sink
        if fast:
            if sink is None:
                run = block.jit_super
                if run is None:
                    run = block.jit_fast
                    if run is None:
                        run = block.jit_fast = compile_block_fn(
                            block, interp, lookup)
            else:
                run = block.jit_super_shadow
                if run is None:
                    run = block.jit_shadow
                    if run is None:
                        run = block.jit_shadow = compile_block_fn(
                            block, interp, lookup, shadow=True)
        else:
            run = None
            if sink is not None and interp.mem_hook is None:
                # Transaction open at entry.  A dynamic shadow runner
                # redirects pre-close accesses through the tx and records
                # the post-TX_FINISH tail; a static block cannot close
                # the transaction, so the instrumented runner below (hook
                # is None) records nothing — the hook path's behaviour.
                run = block.jit_shadow
                if run is None:
                    run = block.jit_shadow = compile_block_fn(
                        block, interp, lookup, shadow=True)
                if not run.__shadow_dynamic__:
                    run = None
            if run is None:
                run = block.jit_inst
                if run is None:
                    run = block.jit_inst = compile_block_fn(
                        block, interp, lookup, instrumented=True)
        nxt = run(ctx)
        if max_instructions is not None \
                and ctx.instructions > max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {max_instructions} instructions")
        if nxt.__class__ is Block:
            if fast and counting:
                start = nxt.start
                last_succ[block.start] = start
                slot = (nxt.jit_super_shadow if sink is not None
                        else nxt.jit_super)
                if slot is None \
                        and (start <= block.start or nxt.is_self_loop):
                    count = hot.get(start, 0) + 1
                    hot[start] = count
                    if count == threshold:
                        formed = maybe_form_superblock(
                            nxt, interp, lookup, ctx, last_succ,
                            shadow=sink is not None)
                        if sink is not None:
                            nxt.jit_super_shadow = formed
                        else:
                            nxt.jit_super = formed
            block = nxt
        elif nxt == -1:
            return
        else:
            if fast and counting:
                last_succ[block.start] = nxt
            block = lookup(nxt, ctx)
