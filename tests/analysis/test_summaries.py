"""Tests for interprocedural function summaries."""

import random

from repro.isa import Imm, Mem, Opcode as O, Reg
from repro.isa.operands import Label
from repro.isa.registers import R
from repro.analysis.cfg import build_cfgs
from repro.analysis.disasm import disassemble
from repro.analysis.summaries import Region, _merge_regions, summarise_functions

from tests.analysis.conftest import assemble


def summarise(build):
    image = assemble(build)
    cfgs = build_cfgs(disassemble(image))
    return image, cfgs, summarise_functions(cfgs)


def entry_of(cfgs, image, position):
    return sorted(cfgs)[position]


class TestLocalFacts:
    def test_pure_function(self):
        def build(a):
            a.label("_start")
            a.emit(O.CALL, Label("pure"))
            a.emit(O.RET)
            a.label("pure")
            a.emit(O.MOV, Reg(R.rax), Imm(1))
            a.emit(O.ADD, Reg(R.rax), Reg(R.rdi))
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        pure_entry = [e for e in cfgs if e != image.entry][0]
        summary = summaries[pure_entry]
        assert summary.is_pure_enough
        assert not summary.writes_memory

    def test_own_frame_writes_do_not_count(self):
        def build(a):
            a.label("_start")
            a.emit(O.SUB, Reg(R.rsp), Imm(16))
            a.emit(O.MOV, Mem(base=R.rsp, disp=0), Imm(1))  # spill
            a.emit(O.ADD, Reg(R.rsp), Imm(16))
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        assert not summaries[image.entry].writes_memory

    def test_global_write_counts(self):
        def build(a):
            a.word("g", 0)
            a.label("_start")
            a.emit(O.MOV, Mem(disp=Label("g")), Imm(1))
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        assert summaries[image.entry].writes_memory

    def test_syscall_flag(self):
        def build(a):
            a.label("_start")
            a.emit(O.SYSCALL)
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        assert summaries[image.entry].has_syscall


class TestTransitive:
    def test_effects_propagate_up_call_chains(self):
        def build(a):
            a.word("g", 0)
            a.label("_start")
            a.emit(O.CALL, Label("middle"))
            a.emit(O.RET)
            a.label("middle")
            a.emit(O.CALL, Label("leaf"))
            a.emit(O.RET)
            a.label("leaf")
            a.emit(O.MOV, Mem(disp=Label("g")), Imm(1))
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        assert summaries[image.entry].writes_memory
        assert all(s.writes_memory for s in summaries.values())

    def test_external_calls_propagate(self):
        def build(a):
            powf = a.import_symbol("pow")
            a.label("_start")
            a.emit(O.CALL, Label("wrapper"))
            a.emit(O.RET)
            a.label("wrapper")
            a.emit(O.CALL, powf)
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)
        assert "pow" in summaries[image.entry].external_calls
        assert not summaries[image.entry].is_pure_enough

    def test_recursion_reaches_fixpoint(self):
        def build(a):
            a.label("_start")
            a.emit(O.CALL, Label("rec"))
            a.emit(O.RET)
            a.label("rec")
            a.emit(O.CMP, Reg(R.rdi), Imm(0))
            a.emit(O.JLE, Label("done"))
            a.emit(O.DEC, Reg(R.rdi))
            a.emit(O.CALL, Label("rec"))
            a.label("done")
            a.emit(O.RET)

        image, cfgs, summaries = summarise(build)  # must terminate
        rec_entry = [e for e in cfgs if e != image.entry][0]
        assert not summaries[rec_entry].writes_memory
        assert summaries[rec_entry].is_pure_enough


class TestAccessRegions:
    """Parameterised access regions on compiled jcc callees."""

    ROW_CALLEE = """
    double A[512];
    double B[512];

    void add_row(int i) {
        int j;
        for (j = 0; j < 8; j = j + 1) {
            A[i * 8 + j] = B[i * 8 + j] + 1.0;
        }
    }

    int main() {
        int i;
        for (i = 0; i < 64; i = i + 1) {
            add_row(i);
        }
        print_int(0);
        return 0;
    }
    """

    def _callee_summary(self, source, opt_level=2):
        from repro.jcc import CompileOptions, compile_source

        image = compile_source(source, CompileOptions(opt_level=opt_level))
        cfgs = build_cfgs(disassemble(image))
        summaries = summarise_functions(cfgs)
        exact = [s for s in summaries.values() if s.regions_exact]
        assert len(exact) == 1, "expected exactly one region-exact callee"
        return exact[0]

    def test_row_callee_regions_are_tight(self):
        summary = self._callee_summary(self.ROW_CALLEE)
        writes = summary.write_regions
        assert len(writes) == 1
        region = writes[0]
        # A[i*8 + j] with j in [0, 8): a 64-byte window at stride 64 per
        # unit of the argument register.  Branch-refined iterator ranges
        # must give exactly 8 doubles, not 9.
        assert region.scale == 64
        assert region.var is not None
        assert region.hi - region.lo == 64

    def test_row_callee_regions_tight_under_unrolling(self):
        # opt_level=3 unrolls the inner loop 2x (step-2 main + remainder);
        # the merged region hull must still be exactly 64 bytes wide.
        summary = self._callee_summary(self.ROW_CALLEE, opt_level=3)
        writes = summary.write_regions
        assert len(writes) == 1
        assert writes[0].hi - writes[0].lo == 64

    EXIT_STORE_CALLEE = """
    double A[576];

    void fill(int n) {
        int j;
        for (j = 0; j < 8; j = j + 1) {
            A[n * 9 + j] = 1.0;
        }
        A[n * 9 + j] = 2.0;
    }

    int main() {
        int i;
        for (i = 0; i < 64; i = i + 1) {
            fill(i);
        }
        print_int(0);
        return 0;
    }
    """

    def test_post_loop_store_at_exit_value_is_inside_region(self):
        # After the loop, j holds the failing-test value 8: the store
        # A[n*9 + 8] must be covered by the summarised write window, so
        # the hull is 72 bytes, not the in-body 64.  (The header-phi
        # range includes the exit evaluation for post-loop uses.)
        summary = self._callee_summary(self.EXIT_STORE_CALLEE)
        writes = summary.write_regions
        assert len(writes) == 1
        region = writes[0]
        assert region.scale == 72
        assert region.hi - region.lo == 72, \
            f"write window [{region.lo}, {region.hi}) misses the exit store"

    def test_read_and_write_regions_separate(self):
        summary = self._callee_summary(self.ROW_CALLEE)
        reads = [r for r in summary.regions if not r.is_write]
        assert reads, "expected read regions for B"
        strided = [r for r in reads if r.var is not None]
        assert strided and all(r.scale == 64 for r in strided)
        # Read and write windows must not be merged together.
        assert all(not r.is_write for r in reads)
        assert summary.writes_memory


class TestMergeRegions:
    @staticmethod
    def _old_order(regions):
        return sorted(regions, key=lambda r: (r.is_write, r.var is None,
                                              r.var or 0, r.scale, r.lo))

    def test_mixed_register_and_stack_slot_vars(self):
        regions = [Region(var=("stack", -16), scale=1, lo=0, hi=8,
                          is_write=True),
                   Region(var=3, scale=1, lo=0, hi=8, is_write=True),
                   Region(var=None, scale=0, lo=64, hi=72, is_write=True),
                   Region(var=("stack", -8), scale=1, lo=8, hi=16,
                          is_write=False),
                   Region(var=5, scale=8, lo=0, hi=80, is_write=False)]
        merged = _merge_regions(regions)
        assert [r.var for r in merged] == [5, ("stack", -8), 3,
                                           ("stack", -16), None]
        assert _merge_regions(list(reversed(regions))) == merged

    def test_order_unchanged_where_the_old_key_sorted(self):
        rng = random.Random(7)
        for kind in ("int", "slot"):
            for _ in range(50):
                regions = []
                for _ in range(rng.randint(1, 8)):
                    var = rng.choice([None, 0, rng.randint(1, 9)]) \
                        if kind == "int" else \
                        rng.choice([None, ("stack", rng.randint(-4, 4) * 8)])
                    regions.append(Region(var=var, scale=rng.choice([0, 1, 8]),
                                          lo=rng.randint(0, 4),
                                          hi=rng.randint(5, 9),
                                          is_write=rng.random() < 0.5))
                merged = _merge_regions(regions)
                assert list(merged) == self._old_order(merged)
