"""The persisted analysis, cached-cell skipping and code-versioned keys.

A warm cache must let ``warm`` and figure assembly finish without a
worker pool, a compile or a static analysis, with byte-identical output;
and a change of code (``code_digest``) must turn every entry into a miss.
"""

import os

import pytest

from repro.eval import figures, harness as harness_module, reporting, \
    scheduler
from repro.eval.harness import EvalHarness, _options_key
from repro.eval.scheduler import Cell
from repro.jcc import CompileOptions
from repro.pipeline import SelectionMode
from repro.pipeline import janus as janus_module

CHEAP = ["462.libquantum", "470.lbm"]
FIGURES = ["fig6", "table1"]


def render(harness, benchmarks=CHEAP) -> str:
    return (reporting.render_fig6(
                figures.fig6_classification(harness, benchmarks=benchmarks))
            + reporting.render_table1(
                figures.table1_bounds_checks(harness, benchmarks=benchmarks)))


def fill(cache, benchmarks=CHEAP) -> str:
    harness = EvalHarness(jobs=2, cache_dir=cache)
    harness.warm(FIGURES, benchmarks=benchmarks)
    return render(harness, benchmarks)


def no_analysis(*_args, **_kwargs):
    raise AssertionError("a cached analysis was recomputed")


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("warm") / "cache")
    return cache, fill(cache)


class TestWarmRun:
    def test_warm_rerun_starts_no_pool(self, warm_cache, monkeypatch):
        cache, cold_text = warm_cache

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a warm run started a worker pool")

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(janus_module, "analyze_image", no_analysis)
        harness = EvalHarness(jobs=2, cache_dir=cache)
        assert harness.warm(FIGURES, benchmarks=CHEAP) == 0
        assert render(harness) == cold_text

    def test_partly_warm_cache_sends_only_missing_cells(self, warm_cache,
                                                        tmp_path,
                                                        monkeypatch):
        cache = str(tmp_path / "cache")
        fill(cache, benchmarks=CHEAP[:1])
        sent = []
        real_execute = scheduler.execute
        monkeypatch.setattr(
            scheduler, "execute",
            lambda cells, *a, **k: (sent.extend(cells),
                                    real_execute(cells, *a, **k))[1])
        harness = EvalHarness(jobs=2, cache_dir=cache)
        assert harness.warm(FIGURES, benchmarks=CHEAP) == len(sent)
        assert sent == scheduler.plan(FIGURES, benchmarks=CHEAP[1:])
        assert render(harness) == warm_cache[1]

    def test_cached_check_never_compiles(self, tmp_path, monkeypatch):
        compiles = []
        real = harness_module.compile_workload
        monkeypatch.setattr(harness_module, "compile_workload",
                            lambda *a: (compiles.append(a), real(*a))[1])
        sent = []
        monkeypatch.setattr(scheduler, "execute",
                            lambda cells, *a, **k: sent.extend(cells))
        harness = EvalHarness(jobs=2, cache_dir=str(tmp_path / "cache"))
        assert harness.warm(FIGURES, benchmarks=CHEAP) == len(sent)
        assert sent == scheduler.plan(FIGURES, benchmarks=CHEAP)
        assert compiles == []


class TestPersistedAnalysis:
    NAME = "410.bwaves"   # training annotates coverage and the C/D split

    @staticmethod
    def loop_state(analysis):
        return [(r.loop_id, r.category, tuple(r.reasons),
                 r.coverage_fraction, r.profiled_dependence)
                for r in analysis.loops]

    def test_loaded_analysis_matches_fresh(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        fresh = EvalHarness()
        pristine = self.loop_state(fresh.janus_for(self.NAME).analysis)
        live = EvalHarness(cache_dir=cache)
        live_training = live.training(self.NAME)

        monkeypatch.setattr(janus_module, "analyze_image", no_analysis)
        loaded = EvalHarness(cache_dir=cache)
        janus = loaded.janus_for(self.NAME)
        assert self.loop_state(janus.analysis) == pristine

        training = loaded.training(self.NAME)  # disk hit: replayed
        live_janus = live.janus_for(self.NAME)
        assert self.loop_state(live_janus.analysis) != pristine
        assert self.loop_state(janus.analysis) \
            == self.loop_state(live_janus.analysis)
        for mode in (SelectionMode.STATIC, SelectionMode.STATIC_PROFILE,
                     SelectionMode.JANUS):
            assert janus.select_loops(mode, training) \
                == live_janus.select_loops(mode, live_training)
            assert janus.build_schedule(mode, training).serialize() \
                == live_janus.build_schedule(mode, live_training).serialize()

    def test_training_recalled_before_the_analysis_is_replayed(
            self, tmp_path):
        cache = str(tmp_path / "cache")
        live = EvalHarness(cache_dir=cache)
        live.training(self.NAME)
        loaded = EvalHarness(cache_dir=cache)
        loaded.training(self.NAME)    # no Janus yet: replay waits
        assert self.loop_state(loaded.janus_for(self.NAME).analysis) \
            == self.loop_state(live.janus_for(self.NAME).analysis)


class TestCodeVersionedKeys:
    def test_code_change_misses_every_entry(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "cache")
        name = CHEAP[0]
        key = _options_key(CompileOptions())
        EvalHarness(cache_dir=cache).training(name)
        before = set(os.listdir(cache))

        monkeypatch.setattr(harness_module, "code_digest",
                            lambda: "0" * 64)
        other = EvalHarness(cache_dir=cache)
        assert other._cached_digest(name, key) is None
        for kind in ("analysis", "training"):
            assert other._fetch(Cell(kind, name, key)) is None
        other.training(name)
        added = set(os.listdir(cache)) - before
        # A new sidecar, analysis and training entry; nothing reused.
        assert len([f for f in added if f.startswith("digest-")]) == 1
        assert len([f for f in added if f.endswith(".pkl")]) == 2
