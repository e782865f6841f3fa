"""The linear late-conflict check against the pairwise formula it replaced.

``ParallelRuntime._charge_stm_late_conflicts`` gathers the younger
threads' written words once per call.  The oracle below is the earlier
formula, kept verbatim in spirit: every transactional read is tested
against every younger thread's transactional writes and shadow view.
Random transaction logs run through both over exact (hook-mode) views,
compiled views with raw, packed and strided writes, and lazily expanded
views; abort counts, penalties and the order of ``stm.abort`` events
must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.dbm.machine import ThreadContext
from repro.dbm.runtime import ParallelRuntime, WorkerState
from repro.dbm.shadow import WORD, ShadowSink, ShadowView, StrideDescriptor
from repro.telemetry.core import Recorder, disable, set_recorder

addr_st = st.integers(min_value=0x1000 // 8, max_value=0x1800 // 8) \
    .map(lambda w: w * 8)
word_set_st = st.frozensets(addr_st, max_size=6)

descriptor_st = st.builds(
    StrideDescriptor,
    addr_st,
    st.sampled_from([-64, -24, -8, 0, 8, 16, 40]),
    st.integers(min_value=1, max_value=24),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)

worker_st = st.fixed_dictionaries({
    "kind": st.sampled_from(["hook", "compiled", "expanded"]),
    "tx_log": st.lists(st.tuples(word_set_st, word_set_st), max_size=3),
    "raw_writes": st.lists(addr_st, max_size=6),
    "packed_writes": st.lists(
        st.tuples(addr_st, st.sampled_from([2, 4])), max_size=2),
    "descriptors": st.lists(descriptor_st, max_size=3),
})


def _oracle_writes_contain(view: ShadowView, addr: int) -> bool:
    """Membership as the pairwise formula asked it, view by view."""
    if view._writes is not None:
        return addr in view._writes
    sink = view.sink
    if addr in sink.writes:
        return True
    if any(base <= addr < base + WORD * lanes and not (addr - base) % WORD
           for base, lanes in sink.packed_writes):
        return True
    return any(d.is_write and d.contains(addr) for d in view.descriptors)


def _oracle_late_conflicts(workers, cost):
    """(thread, reads, writes, penalty) per abort, oldest thread first."""
    aborts = []
    for i, worker in enumerate(workers):
        later = workers[i + 1:]
        later_tx_writes = set()
        for other in later:
            for _tx_reads, tx_writes in other.tx_log:
                later_tx_writes |= tx_writes
        for tx_reads, tx_writes in worker.tx_log:
            if any(addr in later_tx_writes
                   or any(_oracle_writes_contain(o.shadow_view(), addr)
                          for o in later)
                   for addr in tx_reads):
                aborts.append((worker.thread_id, len(tx_reads),
                               len(tx_writes),
                               cost.stm_abort_cycles
                               + len(tx_reads) * cost.stm_read_cycles
                               + len(tx_writes) * cost.stm_write_cycles))
    return aborts


def _build_workers(specs):
    workers = []
    for thread_id, spec in enumerate(specs, start=1):
        worker = WorkerState(thread_id=thread_id,
                             ctx=ThreadContext(thread_id=thread_id),
                             chunks=[], meta=None,
                             tx_log=[(set(r), set(w))
                                     for r, w in spec["tx_log"]])
        packed = spec["packed_writes"]
        if spec["kind"] == "hook":
            writes = set(spec["raw_writes"])
            for base, lanes in packed:
                writes.update(base + WORD * k for k in range(lanes))
            for desc in spec["descriptors"]:
                if desc.is_write:
                    writes |= desc.addresses()
            worker.writes = writes
        else:
            sink = ShadowSink(thread_id=thread_id, tls_lo=1 << 40,
                              tls_hi=(1 << 40) + 64, stack_lo=1 << 41,
                              stack_hi=(1 << 41) + 64)
            sink.writes.extend(spec["raw_writes"])
            sink.packed_writes.extend(packed)
            worker.view = ShadowView.from_sink(thread_id, sink,
                                               spec["descriptors"])
            if spec["kind"] == "expanded":
                worker.view.writes()  # the lazy path already ran
        workers.append(worker)
    return workers


class _Stats:
    aborts = 0
    stm_cycles = 0


def _runtime():
    from repro.isa.costs import CostModel

    runtime = ParallelRuntime.__new__(ParallelRuntime)
    runtime.dbm = type("DBM", (), {})()
    runtime.dbm.cost = CostModel()
    runtime.dbm.stats = _Stats()
    runtime.stm = type("STM", (), {})()
    runtime.stm.stats = _Stats()
    return runtime


@settings(max_examples=300, deadline=None)
@given(st.lists(worker_st, min_size=1, max_size=5))
def test_linear_check_matches_pairwise_formula(specs):
    runtime = _runtime()
    cost = runtime.dbm.cost
    expected = _oracle_late_conflicts(_build_workers(specs), cost)
    workers = _build_workers(specs)
    recorder = set_recorder(Recorder(label="test"))
    try:
        runtime._charge_stm_late_conflicts(workers)
    finally:
        disable()
    events = [(e["args"]["thread"], e["args"]["reads"], e["args"]["writes"])
              for e in recorder.events if e["name"] == "stm.abort"]
    assert events == [abort[:3] for abort in expected]
    assert runtime.stm.stats.aborts == len(expected)
    assert runtime.dbm.stats.stm_cycles == sum(a[3] for a in expected)
    for worker in workers:
        assert worker.ctx.cycles == sum(a[3] for a in expected
                                        if a[0] == worker.thread_id)


def test_strided_write_aborts_only_on_a_member_word():
    """A read inside a descriptor's interval but off its lattice is no
    conflict; a read on the lattice is."""
    desc = StrideDescriptor(0x1000, 24, 4, 1, True)   # 0x1000..0x1048
    for read, aborts in ((0x1008, 0), (0x1018, 1), (0x1050, 0)):
        runtime = _runtime()
        workers = _build_workers([
            {"kind": "compiled", "tx_log": [({read}, set())],
             "raw_writes": [], "packed_writes": [], "descriptors": []},
            {"kind": "compiled", "tx_log": [], "raw_writes": [],
             "packed_writes": [], "descriptors": [desc]},
        ])
        runtime._charge_stm_late_conflicts(workers)
        assert runtime.stm.stats.aborts == aborts, hex(read)
