"""Caching execution harness for the evaluation.

Every figure needs some subset of {native run, DBM-only run, training,
Janus run at N threads} per (workload, compiler options), plus the static
analysis of each image.  The harness memoises all of them in memory, so
regenerating the full set of figures costs each execution exactly once.

**What is cached on disk.**  With ``cache_dir`` set, every finished
``native()``/``run()``/``training()``/``fig6_profile()`` result persists
as a pickle, and so does each image's static analysis, stored as it
stands right after ``analyze_image`` (before any training annotates it).
``janus_for`` reads the analysis back instead of re-analysing; a cached
training then re-applies its annotations to that copy.  ``python -m repro
figures`` uses the cache by default; ``--no-cache`` is the escape hatch.

**How entries are keyed.**  Every key carries
:func:`repro.util.code_digest`, a hash of the package's sources, plus the
workload name, compile options, mode, thread count and the image digest.
The image digest itself lives in a sidecar keyed by the workload source,
the options and the code digest, so a lookup never compiles.  A result
computed by other code is never served: after any edit to ``repro``,
existing ``.repro-cache`` entries become misses once and are rewritten.

**When workers start.**  With ``jobs > 1`` the disk cache doubles as the
IPC medium for the process-parallel fan-out (:mod:`repro.eval.scheduler`).
``warm()`` plans every cell the requested figures need, reads the cached
ones straight into the memos and sends only the rest to worker
processes; a fully warm cache starts no pool at all.  Results are
bit-identical to a serial run because every cell is deterministic and
its key does not depend on who computed it.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from dataclasses import dataclass, field

from repro.analysis.analyzer import BinaryAnalysis
from repro.dbm.executor import ExecutionResult, run_native
from repro.eval.scheduler import Cell
from repro.jbin.loader import load
from repro.jcc import CompileOptions
from repro.pipeline import Janus, JanusConfig, SelectionMode
from repro.pipeline.janus import TrainingData
from repro.profiling import ProfileResult, run_profiling
from repro.rewrite import generate_profile_schedule
from repro.telemetry.core import get_recorder, lane_label
from repro.util import (
    atomic_write_bytes,
    code_digest,
    image_digest,
    read_digest_file,
    write_digest_file,
)
from repro.workloads import compile_workload, get_workload
from repro.workloads.suite import workload_source

MAX_INSTRUCTIONS = 20_000_000

# Run modes that execute without a static analysis.
_UNANALYSED = (SelectionMode.NATIVE, SelectionMode.DBM_ONLY)


def _options_key(options: CompileOptions) -> tuple:
    return (options.opt_level, options.personality, options.mavx,
            options.parallel, options.parallel_threads)


def options_from_key(key: tuple) -> CompileOptions:
    """Rebuild the ``CompileOptions`` a key was derived from."""
    opt_level, personality, mavx, parallel, parallel_threads = key
    return CompileOptions(opt_level=opt_level, personality=personality,
                          mavx=mavx, parallel=parallel,
                          parallel_threads=parallel_threads)


def _replay_training(analysis: BinaryAnalysis,
                     training: TrainingData) -> None:
    """Re-apply the profile annotations a cached training run made.

    ``Janus.train`` resolves the C/D split and records per-loop coverage
    on the live analysis; a disk hit must leave the analysis in exactly
    the state the original run did.
    """
    if training.dependence is not None:
        for loop_id, profile in sorted(training.dependence.loops.items()):
            analysis.loop(loop_id).apply_dependence_profile(
                profile.has_dependence)
    for loop_id in training.coverage.loops:
        analysis.loop(loop_id).coverage_fraction = \
            training.coverage.coverage(loop_id)


@dataclass
class EvalHarness:
    """Memoised runs of the workload suite."""

    n_threads: int = 8
    cache_dir: str | None = None
    # Worker-process count for the evaluation fan-out (``warm``) and the
    # per-function static-analysis pipeline.  1 = fully serial.
    jobs: int = 1
    # When true (and a cache_dir is set), ``warm`` threads a telemetry
    # dump directory through the fan-out so worker spans can be merged
    # into one trace (see repro.telemetry.aggregate).
    telemetry: bool = False
    # Socket path of a running analysis daemon (repro serve).  When set,
    # schedule generation for STATIC/STATIC_PROFILE/JANUS runs routes
    # through the daemon's content-addressed registry (warm schedules
    # skip local training entirely); any service failure falls back to
    # the local pipeline.  Results are identical either way because
    # schedule bytes are deterministic.
    service: str | None = None
    _results: dict = field(default_factory=dict)   # Cell -> result
    _janus: dict = field(default_factory=dict)
    _digests: dict = field(default_factory=dict)

    # -- building blocks -------------------------------------------------------

    def image(self, name: str, options: CompileOptions | None = None):
        return compile_workload(name, options or CompileOptions())

    def _config(self) -> JanusConfig:
        return JanusConfig(n_threads=self.n_threads,
                           max_instructions=MAX_INSTRUCTIONS,
                           analysis_jobs=self.jobs)

    def janus_for(self, name: str,
                  options: CompileOptions | None = None) -> Janus:
        """The analysed Janus of one image, its analysis cached on disk."""
        options = options or CompileOptions()
        key = (name, _options_key(options))
        instance = self._janus.get(key)
        if instance is not None:
            return instance
        cell = Cell("analysis", *key)
        analysis = self._fetch(cell)
        if analysis is None:
            instance = Janus(self.image(name, options), self._config())
            self._store(cell, instance.analysis)
        else:
            instance = Janus(analysis.image, self._config(), analysis)
        training = self._results.get(Cell("training", *key))
        if training is not None:
            _replay_training(instance.analysis, training)
        self._janus[key] = instance
        return instance

    def training(self, name: str,
                 options: CompileOptions | None = None) -> TrainingData:
        options = options or CompileOptions()

        def train() -> TrainingData:
            workload = get_workload(name)
            with get_recorder().span("exec.training", cat="exec",
                                     lane=lane_label("training", name),
                                     benchmark=name):
                return self.janus_for(name, options).train(
                    train_inputs=list(workload.train_inputs))

        return self._result(Cell("training", name, _options_key(options)),
                            train)

    # -- on-disk persistence -----------------------------------------------------

    def _cached_digest(self, name: str, options_key: tuple) -> str | None:
        """The image digest from the memo or its sidecar; never compiles."""
        key = (name, options_key)
        digest = self._digests.get(key)
        if digest is None and self.cache_dir is not None:
            digest = read_digest_file(self._digest_path(name, options_key))
            if digest is not None:
                self._digests[key] = digest
        return digest

    def _image_digest(self, name: str, options_key: tuple) -> str:
        digest = self._cached_digest(name, options_key)
        if digest is None:
            options = options_from_key(options_key)
            digest = image_digest(self.image(name, options))
            if self.cache_dir is not None:
                # Atomic (unique temp + os.replace): concurrent workers
                # racing on one sidecar never interleave a torn file.
                write_digest_file(self._digest_path(name, options_key),
                                  digest)
            self._digests[(name, options_key)] = digest
        return digest

    def _digest_path(self, name: str, options_key: tuple) -> str:
        """Sidecar file holding one workload's image digest.

        Keyed by the workload *source* text, the compile options and
        :func:`repro.util.code_digest`, so reading it never compiles and a
        changed compiler (or any other code) never reads a stale digest.
        """
        source = hashlib.sha256(
            workload_source(get_workload(name)).encode()).hexdigest()
        tag = "|".join(("digest", code_digest(), name, repr(options_key),
                        source))
        fname = hashlib.sha256(tag.encode()).hexdigest()[:32]
        return os.path.join(self.cache_dir, "digest-" + fname + ".txt")

    def _cell_entry(self, cell: Cell, digest: str) -> tuple[str, str]:
        """(path, tag) for one persisted result; the tag detects collisions."""
        tag = "|".join((code_digest(), cell.kind, cell.benchmark,
                        repr(cell.options_key), cell.mode, str(cell.threads),
                        digest))
        fname = hashlib.sha256(tag.encode()).hexdigest()[:32]
        return os.path.join(self.cache_dir, fname + ".pkl"), tag

    def _fetch(self, cell: Cell):
        """``cell``'s result from the disk cache, or None; never compiles."""
        if self.cache_dir is None:
            return None
        digest = self._cached_digest(cell.benchmark, cell.options_key)
        if digest is None:
            return None
        return self._disk_get(*self._cell_entry(cell, digest))

    def _store(self, cell: Cell, result) -> None:
        if self.cache_dir is not None:
            digest = self._image_digest(cell.benchmark, cell.options_key)
            self._disk_put(*self._cell_entry(cell, digest), result)

    def _recall(self, cell: Cell) -> bool:
        """True once ``cell``'s result is memoised, reading it from disk
        if needed; a cached training is replayed onto a live analysis."""
        if cell in self._results:
            return True
        result = self._fetch(cell)
        if result is None:
            return False
        self._results[cell] = result
        janus = self._janus.get((cell.benchmark, cell.options_key))
        if cell.kind == "training" and janus is not None:
            _replay_training(janus.analysis, result)
        return True

    def _result(self, cell: Cell, compute):
        """``cell``'s result: memoised, cached on disk, or ``compute()``d."""
        if not self._recall(cell):
            result = self._results[cell] = compute()
            self._store(cell, result)
        return self._results[cell]

    def _disk_get(self, path: str, tag: str):
        # A corrupt or stale cache entry must never take the harness
        # down: pickle.load raises a grab-bag of exception types on
        # malformed input (ValueError, EOFError, UnpicklingError, ...).
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            return None
        if not isinstance(payload, dict) or payload.get("tag") != tag:
            return None
        return payload.get("result")

    def _disk_put(self, path: str, tag: str, result) -> None:
        # Unique-temp-name atomic write (repro.util): concurrent workers
        # produce the same cell, and a shared "path.tmp" would let one
        # writer rename the other's half-written file into place.
        atomic_write_bytes(path, pickle.dumps({"tag": tag,
                                               "result": result}))

    # -- runs ---------------------------------------------------------------------

    def native(self, name: str,
               options: CompileOptions | None = None) -> ExecutionResult:
        options = options or CompileOptions()

        def execute() -> ExecutionResult:
            workload = get_workload(name)
            process = load(self.image(name, options),
                           inputs=list(workload.ref_inputs))
            with get_recorder().span("exec.native", cat="exec",
                                     lane=lane_label("native", name),
                                     benchmark=name) as span:
                result = run_native(process,
                                    max_instructions=MAX_INSTRUCTIONS)
                span.set(cycles=result.cycles,
                         instructions=result.instructions)
            return result

        return self._result(Cell("native", name, _options_key(options)),
                            execute)

    def run(self, name: str, mode: SelectionMode,
            options: CompileOptions | None = None,
            n_threads: int | None = None) -> ExecutionResult:
        options = options or CompileOptions()
        threads = n_threads if n_threads is not None else self.n_threads

        def execute() -> ExecutionResult:
            workload = get_workload(name)
            schedule = None
            if self.service is not None and mode not in _UNANALYSED:
                schedule = self._service_schedule(name, mode, options)
            training = None
            if schedule is None and mode in (SelectionMode.STATIC_PROFILE,
                                             SelectionMode.JANUS):
                training = self.training(name, options)
            if schedule is None and mode not in _UNANALYSED:
                janus = self.janus_for(name, options)
            else:  # nothing left for the analysis to decide
                janus = Janus(self.image(name, options), self._config())
            with get_recorder().span("exec.run", cat="exec",
                                     lane=lane_label("run", name, mode.name,
                                                     threads),
                                     benchmark=name, mode=mode.name,
                                     threads=threads) as span:
                result = janus.run(mode, inputs=list(workload.ref_inputs),
                                   training=training, n_threads=threads,
                                   schedule=schedule)
                span.set(cycles=result.cycles,
                         instructions=result.instructions)
            return result

        return self._result(Cell("run", name, _options_key(options),
                                 mode.name, threads), execute)

    def fig6_profile(self, name: str,
                     options: CompileOptions | None = None) -> ProfileResult:
        """Coverage profile bracketing *every* loop, incompatible included.

        Only Fig. 6 needs this (per-category execution-time fractions);
        the schedule is independent of the training stage because training
        never reclassifies a loop as incompatible.
        """
        options = options or CompileOptions()

        def profile() -> ProfileResult:
            analysis = self.janus_for(name, options).analysis
            schedule = generate_profile_schedule(analysis,
                                                 include_incompatible=True)
            workload = get_workload(name)
            process = load(self.image(name, options),
                           inputs=list(workload.train_inputs))
            with get_recorder().span("exec.fig6profile", cat="exec",
                                     lane=lane_label("fig6profile", name),
                                     benchmark=name):
                result, _ = run_profiling(process, schedule,
                                          max_instructions=MAX_INSTRUCTIONS)
            return result

        return self._result(Cell("fig6profile", name, _options_key(options)),
                            profile)

    def _service_schedule(self, name: str, mode: SelectionMode,
                          options: CompileOptions):
        """Fetch this run's schedule from the daemon; None falls back.

        The request mirrors exactly what the local pipeline would do:
        STATIC builds without training, the profile-guided modes train
        on the workload's training inputs (the daemon reruns those
        deterministic passes on a cold key; a warm key skips them).
        """
        from repro.service.client import fetch_schedule

        no_train = mode is SelectionMode.STATIC
        workload = get_workload(name)
        train_inputs = () if no_train else tuple(workload.train_inputs)
        return fetch_schedule(self.service, self.image(name, options),
                              mode.value, threads=self.n_threads,
                              train_inputs=train_inputs,
                              no_train=no_train)

    def speedup(self, name: str, mode: SelectionMode,
                options: CompileOptions | None = None,
                n_threads: int | None = None) -> float:
        """Whole-program speedup over the native run of the same binary."""
        native = self.native(name, options)
        run = self.run(name, mode, options, n_threads)
        return native.cycles / run.cycles

    # -- parallel fan-out ---------------------------------------------------------

    def warm(self, which=None, benchmarks=None) -> int:
        """Compute the cells the given figures need, ``jobs`` at a time.

        Cells already on disk are read into the memos (without compiling
        anything); only the rest go to worker processes, and when none is
        left no pool is created.  Returns the number of cells computed.
        No-op (returns 0) unless ``jobs > 1`` and a cache directory is
        configured — the disk cache is the medium through which worker
        results reach this process.
        """
        if self.jobs <= 1 or self.cache_dir is None:
            return 0
        from repro.eval import scheduler
        planned = scheduler.plan(which, benchmarks=benchmarks,
                                 n_threads=self.n_threads)
        with get_recorder().span("eval.warm", cat="eval",
                                 planned=len(planned)) as span:
            cells = [cell for cell in planned if not self._recall(cell)]
            span.set(computed=len(cells))
            if cells:
                telemetry_dir = self.telemetry_dir() if self.telemetry \
                    else None
                scheduler.execute(cells, self.cache_dir, jobs=self.jobs,
                                  n_threads=self.n_threads,
                                  telemetry_dir=telemetry_dir)
        return len(cells)

    def telemetry_dir(self) -> str | None:
        """Where worker recorder dumps live (beside the disk cache)."""
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, "telemetry")


_DEFAULT: EvalHarness | None = None


def default_harness() -> EvalHarness:
    """The process-wide shared harness (figures share each other's runs)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = EvalHarness()
    return _DEFAULT
