"""The profiling runtime attached to the DBM during training runs.

Training runs on the compiled tiers, traces and superblocks included.
Only PROF_LOOP_START/FINISH change the loop-frame stack, so coverage is
counted there: the instructions since the last change, up to the entry
of the block holding the RTCALL (``Interpreter.rtcall_entry``), go to
the stack current during them.  The JIT lowers PROF_MEM and
PROF_LOOP_ITER inline (:func:`repro.dbm.jitir.profiled_inline`); an
access appends its words to its loop's events, checked once per
iteration.  An external call's window logs the call's accesses through
the shadow tiers (:class:`~repro.dbm.shadow.WindowLog`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.dbm.rtcalls import RTCallID
from repro.dbm.shadow import WindowLog
from repro.rewrite.metadata import decode_operand
from repro.telemetry.core import get_recorder

MAX_DEPENDENCE_SAMPLES = 8
_NEGATIVE = (0).__gt__  # a write event, for map()


@dataclass
class ExCallProfile:
    """Observed behaviour of one external call site inside a loop."""

    name: str
    invocations: int = 0
    instructions: int = 0
    heap_reads: int = 0
    heap_writes: int = 0

    @property
    def instructions_per_call(self) -> float:
        return self.instructions / self.invocations if self.invocations else 0.0

    @property
    def reads_per_call(self) -> float:
        return self.heap_reads / self.invocations if self.invocations else 0.0

    @property
    def writes_per_call(self) -> float:
        return self.heap_writes / self.invocations if self.invocations else 0.0


@dataclass
class LoopProfile:
    """Everything profiling learned about one loop."""

    loop_id: int
    invocations: int = 0
    iterations: int = 0
    instructions: int = 0  # dynamic instructions while the loop was active
    # Instructions attributed only while this loop was the *innermost*
    # active one (non-overlapping across loops; used by paper Fig. 6).
    instructions_exclusive: int = 0
    has_dependence: bool = False
    dependence_samples: list = field(default_factory=list)
    excalls: dict[int, ExCallProfile] = field(default_factory=dict)


@dataclass
class ProfileResult:
    """The outcome of one training-stage profiling run."""

    total_instructions: int = 0
    loops: dict[int, LoopProfile] = field(default_factory=dict)

    def coverage(self, loop_id: int) -> float:
        """Fraction of all dynamic instructions spent inside the loop."""
        profile = self.loops.get(loop_id)
        if profile is None or not self.total_instructions:
            return 0.0
        return profile.instructions / self.total_instructions

    def exclusive_coverage(self, loop_id: int) -> float:
        """Non-overlapping coverage (innermost-loop attribution)."""
        profile = self.loops.get(loop_id)
        if profile is None or not self.total_instructions:
            return 0.0
        return profile.instructions_exclusive / self.total_instructions

    def loops_above_coverage(self, threshold: float) -> list[int]:
        return sorted(loop_id for loop_id in self.loops
                      if self.coverage(loop_id) >= threshold)


class _LoopFrame:
    __slots__ = ("loop_id", "iteration", "shadow_writes", "shadow_reads")

    def __init__(self, loop_id: int) -> None:
        self.loop_id = loop_id
        self.iteration = 0
        # word -> the last iteration that wrote / read it
        self.shadow_writes: dict[int, int] = {}
        self.shadow_reads: dict[int, int] = {}


class Profiler:
    """Registers the PROF_* rtcalls on a DBM and accumulates profiles."""

    def __init__(self, dbm) -> None:
        self.dbm = dbm
        self.interp = dbm.interp
        self.event_cycles = dbm.cost.prof_event_cycles
        self.profiles: dict[int, LoopProfile] = {}
        self._frames: list[_LoopFrame] = []
        # Open external-call windows (innermost last) and the log of the
        # accesses made while any is open.
        self._windows: list[tuple] = []
        self._log = WindowLog()
        # loop id -> the unchecked events of its innermost frame's current
        # iteration.  Runners bind the lists: cleared, never replaced.
        self.events: defaultdict[int, list] = defaultdict(list)
        # ctx.instructions where the current coverage stretch began.
        self._mark = 0
        dbm.register_rtcall(RTCallID.PROF_LOOP_START, self._loop_start)
        dbm.register_rtcall(RTCallID.PROF_LOOP_ITER, self.iterate)
        dbm.register_rtcall(RTCallID.PROF_LOOP_FINISH, self._loop_finish)
        # Only the reference interpreter calls this one.
        dbm.register_rtcall(RTCallID.PROF_MEM, self._mem_event)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_START, self._excall_start)
        dbm.register_rtcall(RTCallID.PROF_EXCALL_FINISH, self._excall_finish)
        dbm.interp.profiler = self

    # -- PROF_MEM sites --------------------------------------------------------

    def site(self, record_index: int) -> tuple:
        """``(operand, lanes, is_write, loop_id)`` of a PROF_MEM record."""
        _, loop_id, operand_record, is_write, lanes = \
            self.dbm.schedule.record(record_index)
        return (decode_operand(tuple(operand_record)), lanes, is_write,
                loop_id)

    def _mem_event(self, ctx, record_index: int):
        operand, lanes, is_write, loop_id = self.site(record_index)
        ctx.cycles += self.event_cycles
        self.events[loop_id].extend(
            _words(self.interp.ea(ctx, operand), lanes, is_write))

    # -- loop brackets ---------------------------------------------------------

    def _profile(self, loop_id: int) -> LoopProfile:
        profile = self.profiles.get(loop_id)
        if profile is None:
            profile = LoopProfile(loop_id=loop_id)
            self.profiles[loop_id] = profile
        return profile

    def _loop_start(self, ctx, loop_id: int):
        ctx.cycles += self.event_cycles
        self._close_stretch(self.interp.rtcall_entry)
        self._check(loop_id)
        self._profile(loop_id).invocations += 1
        self._frames.append(_LoopFrame(loop_id))

    def iterate(self, ctx, loop_id: int) -> None:
        """PROF_LOOP_ITER; the JIT calls it inline, with no dispatch."""
        ctx.cycles += self.event_cycles
        if self.events:
            self._check(loop_id)
        frame = self._frame_of(loop_id)
        if frame is not None:
            frame.iteration += 1
            self.profiles[loop_id].iterations += 1

    def _loop_finish(self, ctx, loop_id: int):
        ctx.cycles += self.event_cycles
        # Exit targets can be reached from outside the loop; only pop if
        # the loop is actually active (innermost occurrence).
        for index in range(len(self._frames) - 1, -1, -1):
            if self._frames[index].loop_id == loop_id:
                self._close_stretch(self.interp.rtcall_entry)
                for popped in {frame.loop_id
                               for frame in self._frames[index:]}:
                    self._check(popped)
                del self._frames[index:]
                break

    def _frame_of(self, loop_id: int) -> _LoopFrame | None:
        for frame in reversed(self._frames):
            if frame.loop_id == loop_id:
                return frame
        return None

    # -- coverage ----------------------------------------------------------------

    def _close_stretch(self, instructions: int) -> None:
        """Give the instructions since the last stack change to the stack
        current during them (a recursive re-activation counts once)."""
        count = instructions - self._mark
        self._mark = instructions
        frames = self._frames
        if not frames or not count:
            return
        self._profile(frames[-1].loop_id).instructions_exclusive += count
        for loop_id in {frame.loop_id for frame in frames}:
            self._profile(loop_id).instructions += count

    # -- dependence ----------------------------------------------------------------

    def _check(self, loop_id: int) -> None:
        """Check the pending events of ``loop_id`` against its innermost
        frame's shadow; with no active frame they are dropped."""
        events = self.events.get(loop_id)
        if not events:
            return
        frame = self._frame_of(loop_id)
        if frame is not None:
            profile = self.profiles[loop_id]
            if not profile.has_dependence or len(
                    profile.dependence_samples) < MAX_DEPENDENCE_SAMPLES:
                _check_iteration(profile, frame, events)
        events.clear()

    # -- external call windows ---------------------------------------------------

    def _excall_start(self, ctx, record_index: int):
        ctx.cycles += self.event_cycles
        _, loop_id, name = self.dbm.schedule.record(record_index)
        self._profile(loop_id)  # profiles keep their first-event order
        if not self._windows:
            # The reference interpreter has no shadow tiers: it logs
            # through a hook.
            if self.interp.force_reference:
                self.interp.mem_hook = lambda _ctx, _ins, addr, is_write, \
                    lanes: self._log.extend(_words(addr, lanes, is_write))
            else:
                self.interp.shadow_sink = self._log
        # The call's accesses feed the enclosing loop's dependence events
        # too: called code can carry cross-iteration dependences.
        self._windows.append((record_index, loop_id, name, ctx.instructions,
                              len(self._log),
                              self._frame_of(loop_id) is not None))

    def _excall_finish(self, ctx, record_index: int):
        ctx.cycles += self.event_cycles
        if not self._windows:
            return
        (start_index, loop_id, name, instructions_before, position,
         active) = self._windows.pop()
        # An enclosing window (a nested loop pair sharing a call site)
        # sees this one's accesses too: its slice starts earlier.
        accesses = self._log[position:]
        if active:
            self.events[loop_id].extend(accesses)
        if not self._windows:
            self._log.clear()
            self.interp.shadow_sink = self.interp.mem_hook = None
        profile = self._profile(loop_id)
        excall = profile.excalls.get(start_index)
        if excall is None:
            excall = ExCallProfile(name=name)
            profile.excalls[start_index] = excall
        excall.invocations += 1
        # The window spans the call; subtract the two rtcall instructions.
        excall.instructions += max(
            0, ctx.instructions - instructions_before - 2)
        writes = sum(map(_NEGATIVE, accesses))
        excall.heap_reads += len(accesses) - writes
        excall.heap_writes += writes

    # -- result ------------------------------------------------------------------

    def result(self, execution) -> ProfileResult:
        """Close the last coverage stretch and any open window, check
        every loop's last events, then collect the profiles."""
        self._close_stretch(execution.instructions)
        for _, loop_id, _, _, position, active in self._windows:
            if active:
                self.events[loop_id].extend(self._log[position:])
        for loop_id in list(self.events):
            self._check(loop_id)
        return ProfileResult(total_instructions=execution.instructions,
                             loops=dict(self.profiles))


def _words(addr: int, lanes: int, is_write: bool) -> list[int]:
    """The events of one access: a word per lane, ``~word`` for writes."""
    words = range(addr, addr + 8 * lanes, 8)
    return [~word for word in words] if is_write else list(words)


def _check_iteration(profile: LoopProfile, frame: _LoopFrame,
                     events: list) -> None:
    """Check one iteration's events against the frame's shadow."""
    iteration = frame.iteration
    reads, writes = frame.shadow_reads, frame.shadow_writes
    written = [~event for event in events if event < 0]
    read = [event for event in events if event >= 0] if written else events
    earlier_writes = writes.keys()
    if earlier_writes.isdisjoint(read) \
            and earlier_writes.isdisjoint(written) \
            and reads.keys().isdisjoint(written):
        reads.update(dict.fromkeys(read, iteration))
        writes.update(dict.fromkeys(written, iteration))
        return
    # The shadow rule, event by event: a write depends on an earlier
    # iteration's read or write of its word, a read on an earlier write.
    samples = profile.dependence_samples
    for event in events:
        if event < 0:
            word, shadow = ~event, writes
            earlier = (reads.get(word), writes.get(word))
        else:
            word, shadow, earlier = event, reads, (writes.get(event),)
        for previous in earlier:
            if previous is not None and previous != iteration:
                profile.has_dependence = True
                if len(samples) < MAX_DEPENDENCE_SAMPLES:
                    samples.append((word, previous, iteration))
        shadow[word] = iteration


def run_profiling(process, schedule, cost_model=None,
                  max_instructions=None) -> tuple[ProfileResult, object]:
    """Run one training-stage pass; returns (profile, execution result)."""
    from repro.dbm.executor import DEFAULT_INSTRUCTION_LIMIT
    from repro.dbm.modifier import JanusDBM

    dbm = JanusDBM(process, schedule=schedule, cost_model=cost_model)
    profiler = Profiler(dbm)
    limit = max_instructions if max_instructions is not None \
        else DEFAULT_INSTRUCTION_LIMIT
    with get_recorder().span("profiling.run", cat="profiling",
                             rules=len(schedule.rules)) as span:
        execution = dbm.run(max_instructions=limit)
        profile = profiler.result(execution)
        span.set(loops_profiled=len(profile.loops),
                 instructions=execution.instructions)
    return profile, execution
