"""Block compilation for the trace-cache execution tier.

DynamoRIO does not interpret: it re-encodes translated blocks as native
code, links them to each other, and promotes hot paths into traces.  The
honest Python analogue, implemented here, is compiling each block into one
specialised Python function (``compile_block_fn``): operand kinds, register
indices, addresses and branch targets are resolved once at translation
time, and the generated source is ``exec``-compiled so steady-state
execution is straight-line Python bytecode with no per-instruction
dispatch.

Every runner is built from the op-list IR of :mod:`repro.dbm.jitir`: the
block is lowered to typed ops and the :class:`Emitter` below writes the
Python source from them once, at the end.  Block runners are the
baseline tier and skip the IR passes (most blocks run a handful of times:
short source that compiles fast matters more); the superblock tier
(:mod:`repro.dbm.superblock`) stitches op lists, runs the passes and uses
the same emitter.

The runner variants differ *only* in how memory accesses are lowered --
one memory policy per runner, chosen once by :func:`select_policy`:

* **fast** (:class:`_Fast`) -- no instrumentation (no ``mem_hook``, no
  open transaction): words go through the checked
  ``Memory.read``/``write``, or in a superblock straight through the
  memory dict's C-level methods.  Fast runners *link*: a terminator
  resolves its successor's compiled :class:`~repro.dbm.blocks.Block` once
  through the dispatcher's ``lookup`` and caches it, so the dispatch loop
  skips the code-cache lookup.  A self-looping block (a DOALL loop body)
  is promoted to a *trace*: the whole block body spins inside the
  compiled function and only returns to the dispatcher every
  ``TRACE_BUDGET`` iterations (so instruction limits stay enforced).
* **instrumented** (:class:`_Instrumented`) -- ``mem_hook`` and the
  active transaction are threaded through every memory access
  *dynamically* (checked per access, exactly like the reference
  ``_exec``), so verify-oracle and STM worker runs also execute compiled
  code.
* **static shadow** (:class:`_StaticShadow`; selected when
  ``interp.shadow_sink`` is installed) -- fast access and linking, plus
  shadow events for the parallel runtime: the worker's stack/TLS filter
  bounds are inlined as constants and passing addresses are appended to
  the worker's :class:`~repro.dbm.shadow.ShadowSink` lists.  Access sites
  statically proven affine (``interp.shadow_summarised``) are skipped;
  the runtime covers them with per-chunk stride descriptors.
* **dynamic shadow** (:class:`_DynamicShadow`) -- for blocks containing
  RTCALL/SYSCALL, which can close the STM window mid-block: the open
  transaction is re-checked per access; the dispatcher keys on
  ``__shadow_dynamic__``.
* **window** (:class:`_Window`; selected when the shadow sink is a
  :class:`~repro.dbm.shadow.WindowLog`) -- a training run inside an
  external call's profiling window: fast access plus every access, in
  order, appended to the log.

With a training profiler attached (``interp.profiler``) every policy
lowers its PROF_MEM and PROF_LOOP_ITER sites inline (``event``/``iter``
ops), and such sites do not end traces or superblocks.  Code objects are
cached per process by source (:func:`code_object`).

Indirect terminators (``ret``/``jmpi``/``calli``) keep a one-entry inline
cache mapping the last raw target to its compiled block -- DynamoRIO's
indirect-branch lookup cache.

Semantics are defined by :mod:`repro.dbm.interp`; the differential sweep in
``tests/dbm/test_jit.py`` pins every opcode's lowering against the
reference interpreter.  Opcodes without a lowering (none today) fall back
to the reference ``_exec`` per instruction and are counted in
``JITStats.fallback_instructions``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import partial

from repro.isa.instructions import Opcode
from repro.jbin import layout
from repro.dbm.jitir import (COND_EXPR, FN, GPR, JCC, LANE, aligned,
                             is_barrier, lower_block)
from repro.dbm.machine import HALT_ADDRESS
from repro.dbm.memory import (_PACK_D, _PACK_Q, _UNPACK_D, _UNPACK_Q,
                              MemoryFault, s64)
from repro.dbm.shadow import WindowLog
from repro.telemetry.core import RegistryView

_I64_MAX = 9223372036854775807
_I64_MIN = -9223372036854775808

# Iterations a self-loop trace (or a superblock) may spin before returning
# to the dispatcher (bounds how late an instruction limit can be detected).
# Default for ``Interpreter.trace_budget``; configure per run through
# ``JanusConfig.trace_budget``.
TRACE_BUDGET = 4096

# Where each architectural name lives when it is not a promoted local.
CELLS = {name: f"g[{rid}]" for rid, name in enumerate(GPR)}
CELLS.update({name: f"x[{lane}]" for lane, name in enumerate(LANE)})


class JITStats(RegistryView):
    """Translation/link observability counters (one instance per interp).

    Storage lives in a :class:`~repro.telemetry.core.MetricRegistry`
    under ``jit.*`` keys; the attributes here are thin property views so
    existing call sites (including generated block runners) are
    unchanged.  ``as_dict()`` keeps the legacy unprefixed key names.
    """

    _NAMESPACE = "jit"
    _FIELDS = ("blocks_translated", "instrumented_blocks",
               "links_installed", "trace_entries", "trace_exits",
               "trace_budget_bailouts", "fallback_instructions")


def _identity(value: int) -> int:
    return value


# Compiled runner code by (source, filename), shared by every interpreter
# in the process: verify, modediff and the figure cells re-translate the
# same blocks, and ``compile()`` is the dear part of a translation.  Each
# hit is ``exec``-ed into the runner's own fresh namespace, so link slots
# and inline caches stay per runner.  A fixed bound, not a setting: daemon
# and pool workers live long, and the least recently used code goes first.
CODE_CACHE_SIZE = 2048
_code_cache: OrderedDict = OrderedDict()


def code_object(source: str, filename: str):
    key = (source, filename)
    code = _code_cache.get(key)
    if code is None:
        code = _code_cache[key] = compile(source, filename, "exec")
        if len(_code_cache) > CODE_CACHE_SIZE:
            _code_cache.popitem(last=False)
    else:
        _code_cache.move_to_end(key)
    return code


# ---------------------------------------------------------------------------
# Memory policies
# ---------------------------------------------------------------------------

def _tx_helpers(interp) -> dict:
    """Word access re-checking hook and transaction per access: a hook
    may be installed mid-run and workers open transactions mid-block.
    Given the instruction, an access calls the hook first; the worker's
    own stack bypasses the transaction."""
    memory_read = interp.machine.memory.read
    memory_write = interp.machine.memory.write
    stack_size = layout.THREAD_STACK_SIZE

    def _rat(ctx, addr, ins=None):
        if ins is not None:
            hook = interp.mem_hook
            if hook is not None:
                hook(ctx, ins, addr, False, 1)
        tx = interp.active_tx
        if tx is not None and not (
                ctx.stack_top - stack_size < addr <= ctx.stack_top):
            return tx.read(addr)
        return memory_read(addr)

    def _wat(ctx, addr, value, ins=None):
        if ins is not None:
            hook = interp.mem_hook
            if hook is not None:
                hook(ctx, ins, addr, True, 1)
        tx = interp.active_tx
        if tx is not None and not (
                ctx.stack_top - stack_size < addr <= ctx.stack_top):
            tx.write(addr, value)
            return
        memory_write(addr, value)

    return {"_rat": _rat, "_wat": _wat}


class _Fast:
    """Uninstrumented word access.

    Block runners call the checked ``Memory.read``/``write``.  With
    ``inline`` (superblocks) words go through the memory dict's C-level
    methods, and the checked helpers only run to raise the fault of an
    address that is not provably 8-aligned -- the emitter tests it first
    and settles all state before the raise.

    A policy *records* an access (``records``/``record``) when it must
    observe it beyond the read or write itself; quiet accesses (stack
    slots, packed lanes) are never recorded, and a packed access records
    one event for all its lanes.
    """

    label = "fast"
    traces = True
    hooked = False  # calls mem_hook (counted in JITStats.instrumented_blocks)
    transactional = False  # accesses may have to go through a transaction
    logs_loads = False  # records every dynamic load: no load may merge
    attributes: dict = {}  # set on the compiled runner

    def __init__(self, interp, inline=False):
        self.interp = interp
        self.inline = inline

    def bind(self, ns: dict) -> None:
        memory = self.interp.machine.memory
        ns.update(_wg=memory.words.get, _ws=memory.words.__setitem__,
                  _mr=memory.read, _mw=memory.write)
        if self.transactional:
            ns.update(_tx_helpers(self.interp))

    def records(self, op) -> bool:
        return False

    def fault(self, a: str, write: bool) -> str:
        return f"_mw({a}, 0)" if write else f"_mr({a})"

    def read(self, em, op, a: str) -> str:
        if self.transactional:
            return f"_rat(ctx, {a}{self.hook(em, op)})"
        return f"_wg({a}, 0)" if self.inline else f"_mr({a})"

    def write(self, em, op, a: str, value: str) -> str:
        if self.transactional:
            return f"_wat(ctx, {a}, {value}{self.hook(em, op)})"
        return f"_ws({a}, {value})" if self.inline else f"_mw({a}, {value})"

    def hook(self, em, op) -> str:
        """The argument that makes a helper access call ``mem_hook``."""
        return f", {em.ins_name(op.ins)}" if self.hooked and not op.aux else ""

    def legality(self) -> str:
        return "_in.mem_hook is not None or _in.active_tx is not None"


class _Instrumented(_Fast):
    """Hook and transaction threaded through every access (the verify
    oracle, hook-mode and STM workers).

    The hook and transaction are read *at run time* (not bound at compile
    time) because workers open transactions mid-block.
    """

    label = "inst"
    traces = False
    hooked = True
    transactional = True

    def records(self, op):
        return op.kind == "probe"  # scalar accesses hook in the helpers

    def record(self, em, op, a, write, lanes=1):
        em.emit(f"if _in.mem_hook is not None: _in.mem_hook(ctx, "
                f"{em.ins_name(op.ins)}, {a}, {write}, {lanes})")


class _StaticShadow(_Fast):
    """Fast access plus inlined shadow recording for a tx-free block.

    A block without RTCALL/SYSCALL is provably tx-free for its whole run
    (the dispatcher only selects this form when no tx is open at entry),
    so it records through inlined filter constants.
    """

    label = "shadow"
    attributes = {"__shadow_dynamic__": False}
    recorded_if = ""

    def __init__(self, interp, inline=False):
        super().__init__(interp, inline)
        sink = self.sink = interp.shadow_sink
        self.summarised = interp.shadow_summarised
        # Most heap addresses sit below both excluded regions: one
        # compare short-circuits the full four-compare filter.
        self.bounds = (min(sink.stack_lo + 1, sink.tls_lo), sink.stack_lo,
                       sink.stack_hi, sink.tls_lo, sink.tls_hi)

    def bind(self, ns):
        super().bind(ns)
        sink = self.sink
        ns.update(_re=sink.reads.append, _we=sink.writes.append,
                  _pre=sink.packed_reads.append,
                  _pwe=sink.packed_writes.append, _sk=sink)

    def records(self, op) -> bool:
        # Sites covered by a stride descriptor compile to nothing.
        return not op.aux and (op.ins.address or 0) not in self.summarised

    def record(self, em, op, a, write, lanes=1):
        """The inlined filter: record iff outside own stack and TLS."""
        low, slo, shi, tlo, thi = self.bounds
        passes = (f"{a} < {low} or (({a} <= {slo} or {a} > {shi}) and "
                  f"({a} < {tlo} or {a} >= {thi}))")
        if op.kind == "probe":
            call = f"{'_pwe' if write else '_pre'}(({a}, {lanes}))"
        else:
            call = f"{'_we' if write else '_re'}({a})"
        if self.recorded_if:
            passes = f"{self.recorded_if}({passes})"
        em.emit(f"if {passes}: {call}")

    def legality(self):
        # The sink the events land in was bound at compile time: a
        # swapped (or removed) sink must deopt to the dispatcher.
        return super().legality() + " or _in.shadow_sink is not _sk"


class _DynamicShadow(_StaticShadow):
    """Shadow recording for a block with RTCALL/SYSCALL.

    Such a block can open or close a transaction mid-block, so the tx
    state is re-checked per access.  The hook-mode recording contract is
    reproduced exactly: accesses under an open transaction are invisible
    to the shadow (and go through the transaction), and the worker's own
    stack/TLS regions are filtered on the base address.
    """

    attributes = {"__shadow_dynamic__": True}
    traces = False
    transactional = True
    recorded_if = "_in.active_tx is None and "


class _Window(_StaticShadow):
    """Fast access plus the training profiler's external-call window.

    While a :class:`~repro.dbm.shadow.WindowLog` is the shadow sink,
    every access the memory hook would see lands in it in order, one
    event per lane: a read of word ``w`` as ``w``, a write as ``~w``.
    A block with RTCALL/SYSCALL can close the window mid-block, so it
    re-checks the sink per access.
    """

    label = "window"
    logs_loads = True

    def __init__(self, interp, inline=False, dynamic=False):
        _Fast.__init__(self, interp, inline)
        self.sink = interp.shadow_sink
        self.summarised = frozenset()
        self.attributes = {"__shadow_dynamic__": dynamic}
        self.traces = not dynamic
        self.guard = "if _in.shadow_sink is _sk: " if dynamic else ""

    def bind(self, ns):
        _Fast.bind(self, ns)
        ns.update(_wl=self.sink.append, _wx=self.sink.extend, _sk=self.sink)

    def record(self, em, op, a, write, lanes=1):
        em.emit(self.guard + _log_words(a, write, lanes, "_wl", "_wx"))


def _log_words(a: str, write: bool, lanes: int, append: str,
               extend: str) -> str:
    """Source logging one access as word events: a word per lane, a
    write of word ``w`` as ``~w`` (the profiler's event encoding)."""
    sign = "~" if write else ""
    if lanes == 1:
        return f"{append}({sign}{a})"
    words = ", ".join(f"{sign}({a} + {8 * k})" for k in range(lanes))
    return f"{extend}(({words}))"


def select_policy(interp, instructions, instrumented=False, shadow=False,
                  inline=False):
    """The memory policy of one runner (the only place variants differ).

    ``inline`` (superblocks) reads and writes words through the memory
    dict's C-level methods; block runners call the checked helpers,
    which keeps the source of the many cold blocks short to compile.
    """
    if instrumented:
        return _Instrumented(interp)
    if not shadow:
        return _Fast(interp, inline)
    dynamic = any(is_barrier(ins, interp.profiler) for ins in instructions)
    if isinstance(interp.shadow_sink, WindowLog):
        return _Window(interp, inline, dynamic)
    if dynamic:
        return _DynamicShadow(interp)
    return _StaticShadow(interp, inline)


# ---------------------------------------------------------------------------
# Block runners
# ---------------------------------------------------------------------------

def compile_block_fn(block, interp, lookup=None, instrumented=False,
                     shadow=False):
    """Compile ``block`` into a single runner function ``run(ctx)``.

    The runner charges the block's static cost, executes the block, and
    returns one of:

    * a :class:`~repro.dbm.blocks.Block` — the linked successor (only when
      ``lookup`` was provided);
    * an ``int`` program counter — an unlinked transfer;
    * ``-1`` — the program halted (``ctx.halted``/``exit_code`` are set).

    ``lookup(pc, ctx) -> Block`` is the dispatcher's code-cache lookup; it
    must be stable for the lifetime of the block (links are installed
    once).  With ``lookup=None`` the runner never links and never builds
    traces.
    """
    instructions = block.instructions
    policy = select_policy(interp, instructions, instrumented, shadow)
    em = Emitter(interp, lookup, policy, block)
    ops = lower_block(instructions, em.resolve, block.end, em.profiler)
    trace = em.traceable()
    # A checked helper may raise MemoryFault (a misaligned word) while the
    # flags -- the only state a block runner keeps in a local -- differ
    # from ctx.flags: a handler settles them, costing the hot path nothing.
    # Only a word access after a flag write (or a back edge) needs it.
    written = next((k for k, op in enumerate(ops) if op.dst == "f"), len(ops))
    settle = any(op.kind in ("load", "store")
                 for op in ops[0 if trace else written:])
    if settle:
        em.emit("try:")
        em.indent += 1
    if trace:
        # The dispatcher counts entries to self-loop heads toward
        # superblock promotion (repro.dbm.superblock).
        block.is_self_loop = True
        em.loop = "trace"
        em.exit_stat = "_st.trace_exits"
        em.ns["_self"] = block
        em.emit("_st.trace_entries += 1")
        em.emit(f"n = {interp.trace_budget}")
        em.emit("while True:")
        em.indent += 1
    em.emit(f"ctx.cycles += {block.cost}")
    em.emit(f"ctx.instructions += {len(instructions)}")
    em.body(ops)
    if settle:
        em.indent = 1
        em.emit("except _MF:")
        em.emit("    ctx.flags = f")
        em.emit("    raise")
    interp.jit_stats.blocks_translated += 1
    interp.jit_stats.instrumented_blocks += policy.hooked
    return em.finish(f"_jx_{block.start:x}", policy.label,
                     ["g = ctx.gregs", "x = ctx.fregs", "f = ctx.flags"],
                     partial(lower_block, instructions, em.resolve,
                             block.end, em.profiler))


class Emitter:
    """Writes the Python source of one runner from its op list.

    Architectural names map to ``ctx`` register-file cells unless
    promoted to locals (``promoted``; the superblock tier).  ``charge``
    is ``None`` when the runner charged its cost at entry, or the
    superblock's ``(cycles, instructions, budget)`` per iteration when
    every exit settles the charge itself.
    """

    def __init__(self, interp, lookup, policy, block):
        from repro.dbm.interp import JXRuntimeError

        self.lookup = lookup
        self.policy = policy
        self.block = block
        self.stats = interp.jit_stats
        self.profiler = interp.profiler
        process = interp.process
        self.resolve = (process.resolve_target if process is not None
                        else _identity)
        self.ns = {
            "_s64": s64,
            "_sqrt": math.sqrt,
            "_st": self.stats,
            "_in": interp,
            "_err": JXRuntimeError,
            "_sys": interp._syscall,
            "_x": interp._exec,
            "_MF": MemoryFault,
            # Bound struct codecs for the f64<->i64 bit-casts: generated
            # code calls these C-level methods directly instead of the
            # Python-level wrappers (one frame per access adds up).
            "_uD": _UNPACK_D,
            "_pQ": _PACK_Q,
            "_pD": _PACK_D,
            "_uQ": _UNPACK_Q,
        }
        policy.bind(self.ns)
        self.lines: list[str] = []
        self.indent = 1
        self.n = 0
        self.links: list = []
        self.names = CELLS
        self.promoted: list[str] = []
        self.charge = None
        self.prefix = (0, 0)
        self.loop = None      # None, "trace" or "super"
        self.exit_stat = None  # counter bumped by every leaving exit

    # -- source helpers -------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def ins_name(self, ins) -> str:
        name = self.temp("_i")
        self.ns[name] = ins
        return name

    def val(self, value) -> str:
        if value.__class__ is str:
            return self.names.get(value, value)
        return repr(value)

    def addr(self, args) -> str:
        base, index, scale, disp = args[:4]
        parts = []
        if base is not None:
            parts.append(self.val(base))
        if index is not None:
            index = self.val(index)
            parts.append(index if scale == 1 else f"{index}*{scale}")
        if disp or not parts:
            parts.append(str(disp))
        return " + ".join(parts)

    def address(self, op) -> str:
        """The address of a memory op as a name (computed once; it is
        dead once the op is emitted)."""
        expr = self.addr(op.args)
        if " " not in expr:
            return expr
        self.emit(f"a = {expr}")
        return "a"

    def spill(self) -> None:
        """Settle all architectural state before leaving or raising."""
        for name in self.promoted:
            self.emit(f"{CELLS[name]} = {name}")
        self.emit("ctx.flags = f")
        if self.charge is not None:
            # completed iterations == budget - n (n decrements at the
            # back edge), so the charge folds to two constants per site.
            pcy, pic = self.prefix
            per_cy, per_ic, budget = self.charge
            self.emit(f"ctx.cycles += {pcy + per_cy * budget} - {per_cy}*n")
            self.emit(f"ctx.instructions += {pic + per_ic * budget}"
                      f" - {per_ic}*n")

    # -- ops ------------------------------------------------------------------

    def body(self, ops) -> None:
        for op in ops:
            handler = getattr(self, "_" + op.kind)
            if op.cond is None:
                handler(op)
            else:
                self.emit(f"if {COND_EXPR[op.cond]}:")
                self.indent += 1
                handler(op)
                self.indent -= 1

    def _set(self, op) -> None:
        if op.fn == "ea":
            expr = self.addr(op.args)
        else:
            expr = FN[op.fn][0].format(*map(self.val, op.args))
        dst = self.val(op.dst)
        self.emit(f"{dst} = {expr}")
        if op.aux:
            self.emit(f"if {dst} > {_I64_MAX} or {dst} < {_I64_MIN}:")
            self.emit(f"    {dst} = _s64({dst})")

    def _access(self, op, write: bool) -> str:
        """The address of a load/store; emits its record and fault path."""
        policy = self.policy
        safe = not policy.inline or aligned(op.args)
        record = policy.records(op)
        if safe and not record:
            return self.addr(op.args)
        a = self.address(op)
        if record:
            policy.record(self, op, a, write)
        if not safe:
            self.emit(f"if {a} & 7:")
            self.indent += 1
            self.spill()
            self.emit(policy.fault(a, write))
            self.indent -= 1
        return a

    def _load(self, op) -> None:
        read = self.policy.read(self, op, self._access(op, False))
        if op.fn == "f":
            read = f"_uD(_pQ({read}))[0]"
        self.emit(f"{self.val(op.dst)} = {read}")

    def _store(self, op) -> None:
        value = self.val(op.args[4])
        if op.fn == "f":
            value = f"_uQ(_pD({value}))[0]"
        self.emit(self.policy.write(self, op, self._access(op, True),
                                    value))

    def _probe(self, op) -> None:
        if self.policy.records(op):
            self.policy.record(self, op, self.address(op), op.fn == "w",
                               op.args[4])

    def _event(self, op) -> None:
        """A PROF_MEM site: its words join the loop's event list (bound
        once per runner; the profiler clears it in place) and it pays
        the profiling charge."""
        events = self.profiler.events[op.aux]
        append, extend = f"_pe{op.aux}", f"_px{op.aux}"
        self.ns[append], self.ns[extend] = events.append, events.extend
        self.emit(_log_words(self.address(op), op.fn == "w", op.args[4],
                             append, extend))
        self.emit(f"ctx.cycles += {self.profiler.event_cycles}")

    def _iter(self, op) -> None:
        self.ns["_pit"] = self.profiler.iterate
        self.emit(f"_pit(ctx, {op.aux})")

    def _check(self, op) -> None:
        self.emit(f"if {op.fn.format(*map(self.val, op.args))}:")
        self.indent += 1
        self.spill()
        self.emit(f"raise _err({op.aux!r})")
        self.indent -= 1

    def _call(self, op) -> None:
        self.emit("ctx.flags = f")
        if op.fn == "sys":
            self.emit("t = _sys(ctx)")  # -1 (halted) or None
        elif op.fn == "rt":
            self.emit("if _in.rtcall_handler is None:")
            self.emit("    raise _err('RTCALL executed with no runtime "
                      "attached')")
            # RTCALLs end traces and superblocks, so this is a block
            # runner, which charged its instructions at entry.
            self.emit(f"_in.rtcall_entry = ctx.instructions - "
                      f"{len(self.block.instructions)}")
            self.emit(f"t = _in.rtcall_handler(ctx, {op.aux[0]}, "
                      f"{op.aux[1]})")
            # Runtime handlers may replace the register lists wholesale
            # (worker merge) and adjust flags: re-hoist the locals.
            self.emit("g = ctx.gregs")
            self.emit("x = ctx.fregs")
        else:
            self.emit("_st.fallback_instructions += 1")
            self.emit(f"t = _x(ctx, {self.ins_name(op.ins)})")
        self.emit("f = ctx.flags")
        self.emit("if t is not None:")
        self.emit("    return t")

    def _seg(self, op) -> None:
        self.prefix = op.aux

    def _exit(self, op) -> None:
        fn = op.fn
        if fn == "back" or (fn == "jmp" and self.loop == "trace"
                            and op.aux == self.block.start):
            self.back_edge()
            return
        if fn == "ret" and op.aux is not None:
            # Superblock return guard: leave only when the popped address
            # is not the stitched return site.
            t = self.val(op.args[0])
            self.emit(f"if {t} != {op.aux}:")
            self.indent += 1
            self.spill()
            self.halt_if(t)
            self.emit(f"{self.exit_stat} += 1")
            self.emit(f"return {t}")
            self.indent -= 1
            return
        self.spill()
        if fn == "halt":
            self.emit("ctx.halted = True")
            self.emit("return -1")
            return
        if self.exit_stat is not None:
            self.emit(f"{self.exit_stat} += 1")
        if fn == "jmp":
            self.link_return(op.aux)
            return
        t = self.val(op.args[0])
        if fn == "ret":
            self.halt_if(t)
        self.indirect_return(t, resolve_target=fn == "ijmp")

    def halt_if(self, t: str) -> None:
        """A return to the entry frame's halt sentinel ends the program."""
        self.emit(f"if {t} == {HALT_ADDRESS}:")
        self.emit("    ctx.halted = True")
        self.emit("    return -1")

    def back_edge(self) -> None:
        """Loop back edge: the budget (and superblock legality) contract
        point.  Both failures spill and hand the head back to the
        dispatcher; the decrement precedes them, so their iteration is
        complete and the charge prefix is zero."""
        self.prefix = (0, 0)
        self.emit("n -= 1")
        self.emit("if n == 0:")
        self.indent += 1
        self.spill()
        self.emit("_sb.bailouts += 1" if self.loop == "super"
                  else "_st.trace_budget_bailouts += 1")
        self.emit("return _self")
        self.indent -= 1
        if self.loop == "super":
            self.emit(f"if {self.policy.legality()}:")
            self.indent += 1
            self.spill()
            self.emit("_sb.deopts += 1")
            self.emit("return _self")
            self.indent -= 1
        self.emit("continue")

    # -- linking -------------------------------------------------------------

    def link_return(self, pc: int) -> None:
        """Return through a link slot resolving to ``pc``.

        The first execution through the slot calls ``_lk<i>`` which installs
        either the looked-up compiled Block (linked) or the raw pc
        (unlinked); later executions read the slot directly.
        """
        index = len(self.links)
        links = self.links
        links.append(None)
        lookup = self.lookup
        stats = self.stats

        def _lk(ctx, _pc=pc, _index=index):
            if lookup is None:
                links[_index] = _pc
                return _pc
            blk = links[_index] = lookup(_pc, ctx)
            stats.links_installed += 1
            return blk
        self.ns[f"_lk{index}"] = _lk
        self.emit(f"nb = _L[{index}]")
        self.emit("if nb is None:")
        self.emit(f"    nb = _lk{index}(ctx)")
        self.emit("return nb")

    def indirect_return(self, t: str, resolve_target: bool) -> None:
        """Return through a one-entry inline cache keyed on target ``t``."""
        cache = [None, None]
        name = self.temp("_c")
        self.ns[name] = cache
        lookup = self.lookup
        stats = self.stats
        resolve = self.resolve if resolve_target else _identity

        def _ik(t, ctx, _cache=cache, _lookup=lookup, _stats=stats,
                _resolve=resolve):
            pc = _resolve(t)
            if _lookup is None:
                _cache[0] = t
                _cache[1] = pc
                return pc
            blk = _lookup(pc, ctx)
            _cache[0] = t
            _cache[1] = blk
            _stats.links_installed += 1
            return blk

        self.ns[f"_ik{name}"] = _ik
        self.emit(f"if {t} == {name}[0]:")
        self.emit(f"    return {name}[1]")
        self.emit(f"return _ik{name}({t}, ctx)")

    # -- assembly -------------------------------------------------------------

    def traceable(self) -> bool:
        """A self-looping block may spin inside its own compiled function.

        Requires a policy that may loop, a dispatcher lookup (links legal
        at all), and no SYSCALL/RTCALL in the block: those can install
        hooks, open transactions or halt, which must re-enter the
        dispatcher's per-block legality check.  (A shadow trace needs no
        extra back-edge check: with no RTCALL inside, neither the sink nor
        the transaction state can change mid-trace.)
        """
        block = self.block
        if self.lookup is None or not self.policy.traces:
            return False
        if any(is_barrier(ins, self.profiler) for ins in block.instructions):
            return False
        term = block.terminator
        if term.opcode in JCC or term.opcode is Opcode.JMP:
            return self.resolve(term.operands[0].value) == block.start
        return False

    def finish(self, fname: str, label: str, head: list[str], ops):
        # ``ops`` re-derives the op list for ``repro jit-dump``: holding
        # every list costs a few KB per runner for the code cache's life.
        if self.links:
            self.ns["_L"] = self.links
        source = "\n".join([f"def {fname}(ctx):"]
                           + ["    " + line for line in head]
                           + self.lines) + "\n"
        exec(code_object(source, f"<jit {label} {self.block.start:#x}>"),
             self.ns)
        fn = self.ns[fname]
        fn.__jit_source__ = source
        fn.__jit_ops__ = ops
        for name, value in self.policy.attributes.items():
            setattr(fn, name, value)
        return fn
