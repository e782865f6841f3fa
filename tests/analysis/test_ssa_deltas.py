"""``SSAForm.delta_at`` against the per-query prefix sum it replaced."""

import pytest

from repro.analysis import analyze_image
from repro.analysis.ssa import SSAForm
from repro.analysis.stack import rsp_effect
from repro.jcc import CompileOptions
from repro.workloads import compile_workload


def summed_delta(ssa: SSAForm, block: int, index: int) -> int:
    """The rsp delta before ``index``, re-summed from the block start."""
    delta = ssa.rsp_deltas[block]
    for ins in ssa.cfg.blocks[block].instructions[:index]:
        effect = rsp_effect(ins)
        delta += effect if effect is not None else 0
    return delta


@pytest.mark.parametrize("name,options", [
    ("459.GemsFDTD", CompileOptions(opt_level=3, personality="icc")),
    ("459.GemsFDTD", CompileOptions()),
    ("464.h264ref", CompileOptions(opt_level=3, personality="icc")),
    ("401.bzip2", CompileOptions(opt_level=2)),
])
def test_delta_at_matches_per_query_sum(name, options):
    analysis = analyze_image(compile_workload(name, options))
    checked = 0
    for fa in analysis.functions.values():
        if fa.ssa is None:
            continue
        # A fresh form (no prefix arrays yet), queried back to front.
        fresh = SSAForm(cfg=fa.ssa.cfg, dom=fa.ssa.dom,
                        rsp_deltas=fa.ssa.rsp_deltas)
        for start in sorted(fa.ssa.rsp_deltas, reverse=True):
            size = len(fa.cfg.blocks[start].instructions)
            for index in range(size, -1, -1):
                expected = summed_delta(fa.ssa, start, index)
                assert fresh.delta_at(start, index) == expected
                assert fa.ssa.delta_at(start, index) == expected
                checked += 1
    assert checked > 100
