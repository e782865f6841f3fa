"""Process-parallel evaluation fan-out (work planner + executor).

The evaluation behind the paper's figures is embarrassingly parallel
across *execution cells* — one (kind, workload, compile options, mode,
thread count) tuple per required execution, where kind is one of
``native``, ``run``, ``training`` or ``fig6profile``.  This module

1. **plans**: enumerates every cell the requested figures need and
   dedupes cells shared between figures (Fig. 7's Janus-at-8-threads run
   is also Fig. 8's and Fig. 9's), and
2. **executes**: fans the cells out over a ``ProcessPoolExecutor``.

Workers communicate results back through the :class:`EvalHarness`
on-disk pickle cache: each worker warms the shared cache directory with
atomic writes, and the parent afterwards assembles figures from warm
cache hits.  Because every cell is deterministic and cache keys are
independent of who computed them, figure output is bit-identical to a
serial run regardless of worker count.

Cells are grouped into two stages: stage 0 is everything with no
prerequisite (natives, trainings, profile-only runs, fig6 coverage
profiles); stage 1 is the runs whose mode consumes training data
(``STATIC_PROFILE``/``JANUS``), scheduled once the stage-0 barrier has
warmed every training entry so no two workers redo the same training.
"""

from __future__ import annotations

import os

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.jcc import CompileOptions
from repro.pipeline import SelectionMode
from repro.workloads import FIG7_BENCHMARKS, all_benchmarks

# Modes whose execution consumes the training stage's output.
_TRAINED_MODES = (SelectionMode.STATIC_PROFILE, SelectionMode.JANUS)

FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
           "table1", "table2")


@dataclass(frozen=True)
class Cell:
    """One execution the evaluation needs, in picklable form."""

    # "native" | "run" | "training" | "fig6profile"; the harness also
    # keys an image's cached static analysis as kind "analysis".
    kind: str
    benchmark: str
    options_key: tuple   # harness._options_key(options)
    mode: str = ""       # SelectionMode *name*, for kind == "run"
    threads: int = 0     # thread count, for kind == "run"

    @property
    def stage(self) -> int:
        """Execution wave: cells needing warm training data go second."""
        if self.kind == "run" and self.mode in (m.name
                                                for m in _TRAINED_MODES):
            return 1
        return 0


# -- planning -------------------------------------------------------------------


def plan(which=None, benchmarks=None, n_threads: int = 8) -> list[Cell]:
    """Every cell the given figures need, deduped, in a stable order.

    ``benchmarks`` restricts the plan to a subset of workloads (used by
    tests and the fan-out benchmark); ``n_threads`` is the harness
    default thread count, i.e. what ``harness.run(...)`` uses when the
    figure does not pass one explicitly.
    """
    from repro.eval.harness import _options_key

    which = list(which) if which else list(FIGURES)
    unknown = sorted(set(which) - set(FIGURES))
    if unknown:
        raise ValueError(f"unknown figures: {unknown}")

    default = _options_key(CompileOptions())
    cells: dict[Cell, None] = {}  # insertion-ordered set

    def restrict(names) -> list[str]:
        if benchmarks is None:
            return list(names)
        return [n for n in names if n in set(benchmarks)]

    def add(kind, benchmark, options_key=default, mode="", threads=0):
        cells.setdefault(Cell(kind, benchmark, options_key, mode, threads))

    def add_run(benchmark, mode, options_key=default, threads=None):
        threads = n_threads if threads is None else threads
        if mode in _TRAINED_MODES:
            add("training", benchmark, options_key)
        add("run", benchmark, options_key, mode.name, threads)

    for figure in which:
        if figure == "fig6":
            for name in restrict(all_benchmarks()):
                add("training", name)
                add("fig6profile", name)
        elif figure == "fig7":
            from repro.eval.figures import FIG7_MODES
            for name in restrict(FIG7_BENCHMARKS):
                add("native", name)
                for mode in FIG7_MODES:
                    add_run(name, mode)
        elif figure == "fig8":
            for name in restrict(FIG7_BENCHMARKS):
                add_run(name, SelectionMode.JANUS, threads=1)
                add_run(name, SelectionMode.JANUS, threads=8)
        elif figure == "fig9":
            for name in restrict(FIG7_BENCHMARKS):
                add("native", name)
                for threads in (1, 2, 3, 4, 6, 8):
                    add_run(name, SelectionMode.JANUS, threads=threads)
        elif figure == "fig10":
            for name in restrict(FIG7_BENCHMARKS):
                add("training", name)
        elif figure == "fig11":
            for personality in ("gcc", "icc"):
                base = _options_key(CompileOptions(opt_level=3,
                                                   personality=personality))
                par = _options_key(CompileOptions(opt_level=3,
                                                  personality=personality,
                                                  parallel=True))
                for name in restrict(FIG7_BENCHMARKS):
                    add("native", name, base)
                    add("native", name, par)
                    add_run(name, SelectionMode.JANUS, base)
        elif figure == "fig12":
            for options in (CompileOptions(opt_level=2),
                            CompileOptions(opt_level=3),
                            CompileOptions(opt_level=3, mavx=True)):
                key = _options_key(options)
                for name in restrict(FIG7_BENCHMARKS):
                    add("native", name, key)
                    add_run(name, SelectionMode.JANUS, key)
        elif figure == "table1":
            for name in restrict(FIG7_BENCHMARKS):
                add("training", name)
        # table2 is derived from the handler registry: nothing to execute.
    return list(cells)


# -- execution -------------------------------------------------------------------

# One harness per (cache_dir, n_threads) per worker process, so cells
# handled by the same worker share compiled images, analyses and
# in-memory memos on top of the shared disk cache.
_WORKER_HARNESSES: dict = {}


def _worker_harness(cache_dir: str, n_threads: int):
    from repro.eval.harness import EvalHarness

    key = (cache_dir, n_threads)
    harness = _WORKER_HARNESSES.get(key)
    if harness is None:
        harness = EvalHarness(n_threads=n_threads, cache_dir=cache_dir)
        _WORKER_HARNESSES[key] = harness
    return harness


def _execute_cell(harness, cell: Cell, options) -> None:
    if cell.kind == "native":
        harness.native(cell.benchmark, options)
    elif cell.kind == "training":
        harness.training(cell.benchmark, options)
    elif cell.kind == "fig6profile":
        harness.fig6_profile(cell.benchmark, options)
    elif cell.kind == "run":
        harness.run(cell.benchmark, SelectionMode[cell.mode], options,
                    n_threads=cell.threads)
    else:
        raise ValueError(f"unknown cell kind {cell.kind!r}")


def _cell_recorder():
    """This process's live recorder, installing one on first use.

    In the parent (``jobs <= 1`` serial fallback) the CLI's recorder is
    reused, which keeps every span in one lane table.  A forked pool
    worker *inherits* that enabled recorder — parent pid and parent
    events included — so a recorder whose pid is not ours is replaced
    with a fresh ``Recorder(label="worker")``: the dump must carry the
    worker's own pid (the parent's merge drops dumps matching its pid as
    self-duplicates) and must not replay the parent's span history.
    """
    from repro.telemetry import core

    recorder = core.get_recorder()
    if not recorder.enabled or recorder.pid != os.getpid():
        recorder = core.enable(label="worker")
    return recorder


def run_cell(cell: Cell, cache_dir: str, n_threads: int = 8,
             telemetry_dir: str | None = None) -> Cell:
    """Execute one cell against the shared cache (also the worker body).

    With ``telemetry_dir`` set the cell runs under a ``cell.<kind>`` span
    in its canonical lane, and the recorder's dump is flushed to the
    directory after every cell (atomic overwrite), so the parent can
    merge worker traces even if the pool is torn down abruptly.
    """
    from repro.eval.harness import options_from_key

    harness = _worker_harness(cache_dir, n_threads)
    options = options_from_key(cell.options_key)
    if telemetry_dir is None:
        _execute_cell(harness, cell, options)
        return cell

    from repro.telemetry import aggregate
    from repro.telemetry.core import lane_label

    recorder = _cell_recorder()
    lane = lane_label(cell.kind, cell.benchmark, cell.mode, cell.threads)
    with recorder.span("cell." + cell.kind, cat="cell", lane=lane,
                       benchmark=cell.benchmark, mode=cell.mode,
                       threads=cell.threads):
        _execute_cell(harness, cell, options)
    aggregate.flush(recorder, telemetry_dir)
    return cell


def _run_cell_args(args) -> Cell:
    return run_cell(*args)


def execute(cells, cache_dir: str, jobs: int | None = None,
            n_threads: int = 8, telemetry_dir: str | None = None) -> int:
    """Fan the cells out over worker processes, stage by stage.

    Returns the number of cells executed.  ``jobs <= 1`` degrades to an
    in-process serial loop (identical results, no pool overhead).
    """
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    cells = list(cells)
    stages = sorted({cell.stage for cell in cells})
    if jobs <= 1:
        for stage in stages:
            for cell in cells:
                if cell.stage == stage:
                    run_cell(cell, cache_dir, n_threads,
                             telemetry_dir=telemetry_dir)
        return len(cells)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for stage in stages:
            batch = [(cell, cache_dir, n_threads, telemetry_dir)
                     for cell in cells if cell.stage == stage]
            # list() drains the iterator so worker exceptions surface.
            list(pool.map(_run_cell_args, batch))
    return len(cells)
