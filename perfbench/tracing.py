"""Per-layer tracing from outside the program.

The traced run installs wrappers around the public entry points of the
``repro`` modules listed in ``WRAPS``.  Each wrapper times its call and
hands the time of wrapped calls made inside it to the caller, so every
layer gets calls, busy time (outermost calls only) and self time (busy
minus the wrapped children).  A few wrappers also read counts off the
results the program already returns (``ExecutionResult.stats``, the
DBM's metric registry, schedule sizes).

Wrappers are installed in the program process before it forks fan-out
or daemon workers, so workers inherit them; a fork handler gives each
child an empty tracer.  Every process keeps its aggregates in memory
and writes them as ``spans-<pid>.json`` into the trace directory when
it ends (and at most once a second between outermost calls, so a
worker killed by its pool still leaves most of its figures behind).
:func:`layer_metrics` folds all dumps into the per-layer metric set.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time

from collections import Counter
from multiprocessing import util

FLUSH_INTERVAL_S = 1.0

# (layer, module, attribute): the binding to wrap.  ``Class.method``
# attributes patch the class; plain functions are replaced in every
# ``repro`` module that imported them by name.
WRAPS = (
    ("jcc", "repro.jcc.driver", "compile_source"),
    ("analysis", "repro.analysis.analyzer", "BinaryAnalyzer.run"),
    ("analysis.cfg", "repro.analysis.disasm", "disassemble"),
    ("analysis.cfg", "repro.analysis.cfg", "build_cfgs"),
    ("analysis.ssa", "repro.analysis.stack", "track_stack"),
    ("analysis.ssa", "repro.analysis.ssa", "build_ssa"),
    ("analysis.classify", "repro.analysis.classify", "classify_loop"),
    ("analysis.alias", "repro.analysis.alias", "analyse_aliases"),
    ("analysis.depend", "repro.analysis.summaries", "summarise_functions"),
    ("analysis.depend", "repro.analysis.vrange", "entry_livein_values"),
    ("analysis.depend", "repro.analysis.depend", "make_context"),
    ("analysis.depend", "repro.analysis.depend", "pair_verdict"),
    ("analysis.depend", "repro.analysis.depend", "regions_disjoint"),
    ("rewrite", "repro.rewrite", "generate_parallel_schedule"),
    ("rewrite", "repro.rewrite", "generate_vector_schedule"),
    ("rewrite", "repro.rewrite", "generate_prefetch_schedule"),
    ("rewrite", "repro.rewrite", "generate_profile_schedule"),
    ("profiling", "repro.profiling.profiler", "run_profiling"),
    ("dbm.native", "repro.dbm.executor", "run_native"),
    ("dbm.run", "repro.dbm.modifier", "JanusDBM.run"),
    ("dbm.translate", "repro.dbm.jit", "compile_block_fn"),
    ("dbm.superblock", "repro.dbm.superblock", "maybe_form_superblock"),
    ("runtime.detect", "repro.dbm.shadow", "views_may_conflict"),
    ("eval.fanout", "repro.eval.scheduler", "execute"),
    ("eval.cell", "repro.eval.scheduler", "run_cell"),
    ("eval.disk_get", "repro.eval.harness", "EvalHarness._disk_get"),
    ("eval.disk_put", "repro.eval.harness", "EvalHarness._disk_put"),
    ("eval.assemble", "repro.eval.figures", "fig6_classification"),
    ("eval.assemble", "repro.eval.figures", "fig7_speedups"),
    ("eval.assemble", "repro.eval.figures", "fig8_breakdown"),
    ("eval.assemble", "repro.eval.figures", "fig9_scaling"),
    ("eval.assemble", "repro.eval.figures", "fig10_schedule_size"),
    ("eval.assemble", "repro.eval.figures", "fig11_compiler_comparison"),
    ("eval.assemble", "repro.eval.figures", "fig12_opt_levels"),
    ("eval.assemble", "repro.eval.figures", "table1_bounds_checks"),
    ("eval.assemble", "repro.eval.figures", "table2_features"),
    ("verify", "repro.verify.driver", "verify_workload"),
    ("verify.oracle", "repro.verify.oracle", "run_doall_oracle"),
    ("verify.racecheck", "repro.verify.racecheck", "racecheck_workload"),
    ("verify.lint", "repro.verify.lint_schedule", "lint_schedule"),
    ("service.compute", "repro.service.daemon", "compute_schedule_job"),
    ("service.registry.get", "repro.service.registry",
     "ScheduleRegistry.get"),
    ("service.registry.put", "repro.service.registry",
     "ScheduleRegistry.put"),
    ("service.validate", "repro.service.registry",
     "validate_schedule_bytes"),
)

# Hot methods that only get a call counter: timing them would cost more
# than the work they do.
COUNTS = (
    ("analysis.ssa.delta_at_calls", "repro.analysis.ssa", "SSAForm.delta_at"),
)


def request_tag(binary: bytes, mode: str, family: str) -> str:
    """Identity of one schedule computation, shared by client and worker."""
    return "%s/%s/%s" % (hashlib.sha1(binary).hexdigest()[:16], mode, family)


class Tracer:
    """Per-process aggregates of the wrapped calls."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._reset()
        atexit.register(self.flush)
        # Pool workers leave through multiprocessing's exit hook, which
        # runs Finalize callbacks but not atexit.  Their finalizer is
        # registered by an after-fork hook of multiprocessing's own, since
        # a worker clears the finalizers it inherits before running those.
        os.register_at_fork(after_in_child=self._reset)
        util.register_after_fork(self, Tracer._register_exit_flush)

    def _reset(self) -> None:
        # A forked child starts empty: the parent's figures are the parent's.
        self.pid = os.getpid()
        self.layers: dict[str, list] = {}    # name -> [calls, busy, self]
        self.counters: Counter = Counter()
        self.images: set[str] = set()
        self.computes: list[tuple[str, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._last_flush = time.perf_counter()

    def _register_exit_flush(self) -> None:
        util.Finalize(None, self.flush, exitpriority=100)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed under ``layer``; ``after`` reads counts off results."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                outermost = all(f[0] != layer for f in stack)
                tracer._record(layer, elapsed, elapsed - frame[1],
                               outermost)
                if not stack:
                    tracer._maybe_flush()
            if after is not None:
                with tracer._lock:
                    after(tracer, args, result, elapsed)
            return result

        return wrapper

    def count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _record(self, layer: str, elapsed: float, self_time: float,
                outermost: bool) -> None:
        with self._lock:
            entry = self.layers.get(layer)
            if entry is None:
                entry = self.layers[layer] = [0, 0.0, 0.0]
            entry[0] += 1
            if outermost:
                entry[1] += elapsed
            entry[2] += self_time

    def _maybe_flush(self) -> None:
        if time.perf_counter() - self._last_flush >= FLUSH_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        """Write this process's aggregates (atomic replace)."""
        with self._lock:
            payload = {"pid": self.pid, "layers": self.layers,
                       "counters": dict(self.counters),
                       "images": sorted(self.images),
                       "computes": self.computes}
            self._last_flush = time.perf_counter()
            text = json.dumps(payload)
        path = os.path.join(self.out_dir, "spans-%d.json" % self.pid)
        tmp = "%s.%d.tmp" % (path, threading.get_ident())
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            pass   # the trace directory was removed under a late worker


# -- result readers -----------------------------------------------------------


def _after_analysis(tracer, args, result, _elapsed) -> None:
    image = args[0].image
    digest = hashlib.sha1(bytes(image.text.data))
    digest.update(str(image.entry).encode())
    tracer.images.add(digest.hexdigest())
    tracer.counters["analysis.loops"] += len(result.loops)


def _after_schedule(tracer, _args, schedule, _elapsed) -> None:
    tracer.counters["rewrite.rules"] += len(schedule.rules)
    tracer.counters["rewrite.schedule_bytes"] += schedule.size_bytes


def _count_execution(tracer, result) -> None:
    stats = result.stats
    tracer.counters["dbm.instructions"] += result.instructions
    tracer.counters["dbm.fallback_instructions"] += stats.get(
        "fallback_instructions", 0)
    tracer.counters["dbm.superblock.formed"] += stats.get(
        "superblock_formed", 0)
    tracer.counters["runtime.loops"] += stats.get(
        "loop_invocations_parallel", 0)
    tracer.counters["runtime.checks_failed"] += stats.get("checks_failed", 0)


def _after_native(tracer, _args, result, _elapsed) -> None:
    _count_execution(tracer, result)


def _after_dbm_run(tracer, args, result, _elapsed) -> None:
    _count_execution(tracer, result)
    registry = args[0].registry
    tracer.counters["stm.transactions"] += registry.get("stm.transactions")
    tracer.counters["stm.aborts"] += registry.get("stm.aborts")


def _after_profiling(tracer, _args, result, _elapsed) -> None:
    _profile, execution = result
    tracer.counters["profiling.instructions"] += execution.instructions
    tracer.counters["profiling.fallback_instructions"] += \
        execution.stats.get("fallback_instructions", 0)


def _after_disk_get(tracer, _args, result, _elapsed) -> None:
    tracer.counters["eval.disk_hits" if result is not None
                    else "eval.disk_misses"] += 1


def _after_compute(tracer, args, _result, elapsed) -> None:
    payload = args[0]
    params = payload["params"]
    tracer.computes.append((request_tag(payload["binary"], params["mode"],
                                        params["family"]), elapsed))


def _after_registry_get(tracer, _args, result, _elapsed) -> None:
    tracer.counters["service.registry.hits" if result is not None
                    else "service.registry.misses"] += 1


AFTER = {
    ("repro.analysis.analyzer", "BinaryAnalyzer.run"): _after_analysis,
    ("repro.rewrite", "generate_parallel_schedule"): _after_schedule,
    ("repro.rewrite", "generate_vector_schedule"): _after_schedule,
    ("repro.rewrite", "generate_prefetch_schedule"): _after_schedule,
    ("repro.rewrite", "generate_profile_schedule"): _after_schedule,
    ("repro.dbm.executor", "run_native"): _after_native,
    ("repro.dbm.modifier", "JanusDBM.run"): _after_dbm_run,
    ("repro.profiling.profiler", "run_profiling"): _after_profiling,
    ("repro.eval.harness", "EvalHarness._disk_get"): _after_disk_get,
    ("repro.service.daemon", "compute_schedule_job"): _after_compute,
    ("repro.service.registry", "ScheduleRegistry.get"): _after_registry_get,
}


# -- installation ---------------------------------------------------------------


def _patch(module_name: str, attr: str, make) -> None:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    # Rebind every module-level name that refers to the original, so a
    # caller that did ``from module import fn`` calls the wrapper too.
    for name, mod in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(out_dir: str) -> Tracer:
    """Wrap every entry point in ``WRAPS`` and ``COUNTS``; returns the tracer."""
    os.makedirs(out_dir, exist_ok=True)
    # Import every module that holds a binding before patching, so no
    # later import can pick up an unwrapped original.
    for module in ("repro.cli", "repro.eval.figures", "repro.eval.harness",
                   "repro.eval.scheduler", "repro.service.daemon",
                   "repro.service.registry", "repro.verify.driver",
                   "repro.verify.racecheck", "repro.verify.oracle",
                   "repro.verify.lint_schedule", "repro.dbm.runtime",
                   "repro.dbm.tracecache", "repro.dbm.interp",
                   "repro.pipeline.janus", "repro.workloads.suite"):
        importlib.import_module(module)
    tracer = Tracer(out_dir)
    for layer, module, attr in WRAPS:
        after = AFTER.get((module, attr))
        _patch(module, attr,
               lambda fn, layer=layer, after=after:
               tracer.wrap(layer, fn, after))
    for name, module, attr in COUNTS:
        _patch(module, attr, lambda fn, name=name: tracer.count(name, fn))
    return tracer


# -- aggregation ------------------------------------------------------------------


def read_dumps(out_dir: str) -> list[dict]:
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


def layer_metrics(dumps: list[dict], cold_latencies=()) -> dict:
    """The per-layer metric set from all process dumps of one traced round.

    ``cold_latencies`` is a list of (request tag, seconds) measured by the
    client for cold service requests; the compute time of the same tag
    is subtracted to give the time the request waited.
    """
    layers: dict[str, list] = {}
    counters: Counter = Counter()
    images: set = set()
    computes: dict[str, float] = {}
    compute_calls = 0
    for dump in dumps:
        for name, (calls, busy, own) in dump["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += own
        counters.update(dump["counters"])
        images.update(dump["images"])
        for tag, elapsed in dump["computes"]:
            compute_calls += 1
            computes[tag] = computes.get(tag, 0.0) + elapsed

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def busy(name):
        return layers.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    exec_busy = busy("dbm.native") + busy("dbm.run")
    disk_gets = counters["eval.disk_hits"] + counters["eval.disk_misses"]
    registry_gets = (counters["service.registry.hits"]
                     + counters["service.registry.misses"])
    waits = sorted(max(0.0, latency - computes[tag]) * 1000.0
                   for tag, latency in cold_latencies if tag in computes)
    metrics = {
        "jcc.calls": calls("jcc"),
        "jcc.busy_s": busy("jcc"),
        "jcc.self_s": own("jcc"),
        "analysis.calls": calls("analysis"),
        "analysis.distinct_images": len(images),
        "analysis.repeat_ratio": ratio(calls("analysis"), len(images)),
        "analysis.busy_s": busy("analysis"),
        "analysis.self_s": own("analysis"),
        "analysis.cfg.busy_s": busy("analysis.cfg"),
        "analysis.ssa.busy_s": busy("analysis.ssa"),
        "analysis.ssa.delta_at_calls":
            counters["analysis.ssa.delta_at_calls"],
        "analysis.classify.busy_s": busy("analysis.classify"),
        "analysis.alias.busy_s": busy("analysis.alias"),
        "analysis.depend.busy_s": busy("analysis.depend"),
        "analysis.loops": counters["analysis.loops"],
        "rewrite.calls": calls("rewrite"),
        "rewrite.busy_s": busy("rewrite"),
        "rewrite.rules": counters["rewrite.rules"],
        "rewrite.schedule_bytes": counters["rewrite.schedule_bytes"],
        "profiling.calls": calls("profiling"),
        "profiling.busy_s": busy("profiling"),
        "profiling.self_s": own("profiling"),
        "profiling.instructions": counters["profiling.instructions"],
        "profiling.fallback_instructions":
            counters["profiling.fallback_instructions"],
        "dbm.native.busy_s": busy("dbm.native"),
        "dbm.run.busy_s": busy("dbm.run"),
        "dbm.run.self_s": own("dbm.run") + own("dbm.native"),
        "dbm.translate.calls": calls("dbm.translate"),
        "dbm.translate.busy_s": busy("dbm.translate"),
        "dbm.superblock.calls": calls("dbm.superblock"),
        "dbm.superblock.busy_s": busy("dbm.superblock"),
        "dbm.superblock.formed": counters["dbm.superblock.formed"],
        "dbm.fallback_instructions": counters["dbm.fallback_instructions"],
        "dbm.instructions_per_s": ratio(counters["dbm.instructions"],
                                        exec_busy),
        "runtime.loops": counters["runtime.loops"],
        "runtime.detect.calls": calls("runtime.detect"),
        "runtime.detect.busy_s": busy("runtime.detect"),
        "runtime.checks_failed": counters["runtime.checks_failed"],
        "stm.transactions": counters["stm.transactions"],
        "stm.aborts": counters["stm.aborts"],
        "eval.cells": calls("eval.cell"),
        "eval.cells_computed": calls("eval.disk_put"),
        "eval.hit_ratio": ratio(counters["eval.disk_hits"], disk_gets),
        "eval.fanout.busy_s": busy("eval.fanout"),
        "eval.assemble.busy_s": busy("eval.assemble"),
        "verify.busy_s": busy("verify"),
        "verify.oracle.busy_s": busy("verify.oracle"),
        "verify.racecheck.busy_s": busy("verify.racecheck"),
        "verify.lint.busy_s": busy("verify.lint"),
        "service.compute.calls": compute_calls,
        "service.compute.busy_s": busy("service.compute"),
        "service.compute.per_key": ratio(compute_calls, len(computes)),
        "service.registry.get.calls": calls("service.registry.get"),
        "service.registry.get.busy_s": busy("service.registry.get"),
        "service.registry.hit_ratio": ratio(counters["service.registry.hits"],
                                            registry_gets),
        "service.registry.put.busy_s": busy("service.registry.put"),
        "service.validate.busy_s": busy("service.validate"),
        "service.wait_ms_p50": (waits[(len(waits) - 1) // 2]
                                if waits else 0.0),
    }
    return metrics
