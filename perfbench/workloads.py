"""The four workloads: seeded input draws, measured rounds and checks.

A run repeats *rounds* of one workload's fixed work until ``--seconds``
have passed (at least ``MIN_ROUNDS``); each end-to-end metric is the
median over its rounds.  The seed draws the inputs once per run, so all
rounds of a run do the same work.

Every program process is started from the benchmark process in its own
session, timed from outside, and reaped with ``wait4`` so its CPU time
and peak RSS include every worker it waited for.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

import golden
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
# Relative to ROOT (the working directory): unix socket paths are short.
WORK = ".perfbench-work"

JOBS = "2"                      # fan-out and daemon workers (nproc = 2)
PROGRAM_TIMEOUT_S = 150.0
SETUP_SAMPLES = 7
SERVICE_CLIENTS = 2
# A cold figures run's request stream, then the same stream against the
# warm registry (see service_sequence).
SERVICE_PASSES = 2
# The seed draws programs from strata of programs that cost about the
# same, so every draw does a similar amount of work: a draw that held a
# costly program on some seeds and not on others would make a run's
# cost depend on its seed.  Strata are (members, how many to draw);
# members were grouped by their cost on the reference box (2 cores) at
# the commit that introduced the benchmark.
FIGURES_STRATA = (
    # The only Fig. 7 benchmark whose parallel runs use the STM.
    (("410.bwaves",), 1),
    # Pairs alike in cold figures CPU, warm figures wall, the daemon's
    # compute time for their schedule keys and cold peak RSS (each
    # benchmark alone, mean of two passes in opposite orders):
    (("433.milc", "464.h264ref"), 1),         # 8.9-10.7 s, 1.7 s, 2.9-3.5 s, 34-37 MB
    (("437.leslie3d", "482.sphinx3"), 1),     # 6.9-7.0 s, 1.0-1.1 s, 2.7-2.9 s, 32-36 MB
    (("436.cactusADM", "462.libquantum"), 1),  # 8.5 s, 1.1 s, 2.3-2.6 s, 37-44 MB
    # 459.GemsFDTD (25 s cold CPU, 9 s of computes) and 470.lbm (3.4 s of
    # computes, against 2.3-2.6 s for the pair above) have no like partner.
)
# A soundness round is small (five programs) so that a run holds several
# rounds and reports their median: one round over more programs spread
# by a quarter across runs, because the shared host's speed moves over
# tens of seconds.  464.h264ref, the second costliest, is left out.
SOUNDNESS_STRATA = (
    # Per-program time of verify + racecheck + modediff.
    (("459.GemsFDTD",), 1),                                   # 3.8 s
    (("464.h264ref",), 0),                                    # 2.2 s
    (("434.zeusmp", "433.milc", "410.bwaves", "437.leslie3d",
      "462.libquantum", "436.cactusADM", "470.lbm"), 1),      # 1.0-1.5 s
    (("429.mcf", "450.soplex", "456.hmmer", "447.dealII", "473.astar",
      "401.bzip2", "483.xalancbmk", "403.gcc", "453.povray",
      "435.gromacs", "482.sphinx3", "454.calculix"), 2),      # 0.5-0.9 s
    (("400.perlbench", "444.namd", "458.sjeng", "445.gobmk"), 1),  # 0.3 s
)


# -- seeded draws ------------------------------------------------------------------


def stratified_draw(seed: int, strata) -> list[str]:
    """The drawn programs of every stratum, in a seeded order."""
    rng = random.Random(seed)
    draw = []
    for members, count in strata:
        draw += rng.sample(members, count)
    rng.shuffle(draw)
    return draw


def figures_draw(seed: int) -> list[str]:
    return stratified_draw(seed, FIGURES_STRATA)


def soundness_draw(seed: int) -> list[str]:
    return stratified_draw(seed, SOUNDNESS_STRATA)


def service_sequence(seed: int) -> list:
    """The requests ``repro figures --service`` sends, cold then warm.

    The first pass is what a cold figures run over the seeded Fig. 7
    draw asks the daemon for (golden.figures_service_keys); the second
    is the same run on a fresh eval cache, served by the now warm
    registry.  A warm re-run on the same cache, or a run with
    ``--jobs 2`` (whose pool workers do not use the daemon), sends none.
    """
    return golden.figures_service_keys(figures_draw(seed)) * SERVICE_PASSES


# -- program processes ----------------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def program_command(args, trace_dir: str | None) -> list[str]:
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, LAUNCH, trace_dir, *args]


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap(proc, timeout: float) -> tuple[int, object]:
    """wait4 the process (killing its session on timeout): (code, rusage)."""
    timer = threading.Timer(timeout, _kill_group, (proc,))
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc)           # anything the program left behind
    return proc.returncode, usage


def run_program(args, tag: str, trace_dir: str | None = None) -> dict:
    """Run one ``repro`` command to completion and measure it."""
    out_path = os.path.join(WORK, tag + ".out")
    err_path = os.path.join(WORK, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(program_command(args, trace_dir),
                                stdout=out, stderr=err, env=program_env(),
                                start_new_session=True)
        code, usage = reap(proc, PROGRAM_TIMEOUT_S)
        wall = time.perf_counter() - start
    with open(out_path) as handle:
        stdout = handle.read()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": code,
            "stdout": stdout}


def import_setup_s(modules: str) -> list[float]:
    """Interpreter start plus the imports the workload's commands do."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import " + modules],
                       env=program_env(), check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of a live process and its live descendants.

    Raises OSError when the process itself cannot be read; a thread or
    child that ends while it is being read is skipped.
    """
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    total = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    for task in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/children" % (pid, task)) as handle:
                children = [int(c) for c in handle.read().split()]
        except OSError:
            continue
        for child in children:
            try:
                total += proc_cpu_s(child)
            except OSError:
                pass
    return total


# -- result bookkeeping ------------------------------------------------------------------


class Tally:
    """Attempted/failed operations plus a few notes on what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, check) -> None:
        attempted, failed, notes = check
        self.attempted += attempted
        self.failed += failed
        self.notes += notes[:8]

    def fail(self, note: str, operations: int = 1) -> None:
        self.attempted += operations
        self.failed += operations
        self.notes.append(note)


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- figures-cold / figures-warm -------------------------------------------------------------


def figures_args(cache: str, draw) -> list[str]:
    return ["figures", "--jobs", JOBS, "--cache-dir", cache,
            "--benchmarks", ",".join(draw)]


class Figures:
    """``repro figures --jobs 2`` over a seeded draw of Fig. 7 benchmarks."""

    setup_modules = "repro.cli, repro.eval.figures, repro.eval.scheduler"

    def __init__(self, seed: int, gold: dict, tally: Tally,
                 warm: bool) -> None:
        self.draw = figures_draw(seed)
        self.gold = gold
        self.tally = tally
        self.warm = warm
        self.expected = golden.expected_figures_text(self.draw, gold)
        self.cache = os.path.join(WORK, "cache")
        self.rounds = 0

    def describe(self) -> dict:
        return {"benchmarks": self.draw}

    def _run(self, trace_dir) -> dict:
        self.rounds += 1
        result = run_program(figures_args(self.cache, self.draw),
                             "figures-%d" % self.rounds, trace_dir)
        if result["code"] != 0:
            self.tally.fail("figures exited %d" % result["code"])
        self.tally.add(golden.check_figures_text(result["stdout"],
                                                 self.expected))
        return result

    def _cold(self, trace_dir=None) -> dict:
        fresh_dir(self.cache)
        result = self._run(trace_dir)
        self.tally.add(golden.check_cells(self.cache, self.draw, self.gold))
        return result

    def setup(self) -> list[float]:
        if not self.warm:
            return import_setup_s(self.setup_modules)
        return [self._cold()["wall_s"]]

    def round(self, trace_dir=None) -> dict:
        return self._run(trace_dir) if self.warm else self._cold(trace_dir)


# -- soundness-suite ---------------------------------------------------------------------------


class Soundness:
    """``repro verify``, ``racecheck`` and ``modediff`` over a seeded draw."""

    setup_modules = ("repro.cli, repro.verify.driver, repro.verify.racecheck, "
                     "repro.rewrite")

    def __init__(self, seed: int, gold: dict, tally: Tally) -> None:
        self.draw = soundness_draw(seed)
        self.gold = gold
        self.tally = tally
        self.rounds = 0

    def describe(self) -> dict:
        return {"programs": self.draw}

    def setup(self) -> list[float]:
        return import_setup_s(self.setup_modules)

    def round(self, trace_dir=None) -> dict:
        self.rounds += 1
        tools = (("verify", []),
                 ("racecheck", ["--mode", "parallel", "--mode", "vector"]),
                 ("modediff", []))
        payloads = {}
        total = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        start = time.perf_counter()
        for tool, extra in tools:
            path = os.path.join(WORK, "%s-%d.json" % (tool, self.rounds))
            result = run_program([tool, *self.draw, *extra, "-o", path],
                                 "%s-%d" % (tool, self.rounds), trace_dir)
            total["cpu_s"] += result["cpu_s"]
            total["peak_rss_mb"] = max(total["peak_rss_mb"],
                                       result["peak_rss_mb"])
            if result["code"] != 0:
                self.tally.notes.append("%s exited %d" % (tool,
                                                          result["code"]))
            try:
                with open(path) as handle:
                    payloads[tool] = json.load(handle)
            except (OSError, ValueError):
                payloads[tool] = None
        total["wall_s"] = time.perf_counter() - start
        if any(p is None for p in payloads.values()):
            self.tally.fail("a soundness tool wrote no report",
                            3 * len(self.draw))
        else:
            summary = golden.soundness_summary(
                payloads["verify"], payloads["racecheck"],
                payloads["modediff"])
            self.tally.add(golden.check_soundness(summary, self.draw,
                                                  self.gold))
        return total


# -- service-mixed ----------------------------------------------------------------------------


class Service:
    """A ``repro serve --jobs 2`` daemon under two closed-loop clients."""

    def __init__(self, seed: int, gold: dict, tally: Tally) -> None:
        from repro.eval.harness import options_from_key
        from repro.workloads import compile_workload

        self.draw = figures_draw(seed)
        self.sequence = service_sequence(seed)
        self.gold = gold
        self.tally = tally
        self.binaries = {
            (program, options_key): compile_workload(
                program, options_from_key(options_key)).serialize()
            for program, options_key, _mode in set(self.sequence)}
        self.rounds = 0
        self.merges: list[int] = []
        self.warm_ms: list[float] = []
        self.cold_ms: list[float] = []
        self.cold_tags: list[tuple[str, float]] = []

    def describe(self) -> dict:
        return {"benchmarks": self.draw,
                "requests": len(self.sequence),
                "distinct_keys": len(set(self.sequence)),
                "passes": SERVICE_PASSES, "clients": SERVICE_CLIENTS}

    def _start(self, trace_dir):
        """Start a daemon on a fresh registry: (process, socket, set-up s)."""
        from repro.service.client import ServiceClient

        self.rounds += 1
        socket_path = os.path.join(WORK, "svc%d.sock" % self.rounds)
        registry = fresh_dir(os.path.join(WORK, "reg%d" % self.rounds))
        args = ["serve", "--socket", socket_path, "--registry", registry,
                "--jobs", JOBS]
        log = open(os.path.join(WORK, "serve%d.out" % self.rounds), "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(program_command(args, trace_dir),
                                stdout=log, stderr=subprocess.STDOUT,
                                env=program_env(), start_new_session=True)
        log.close()
        deadline = start + 60.0
        while True:
            try:
                with ServiceClient(socket_path, timeout=10.0) as client:
                    client.ping()
                break
            except OSError:
                if proc.poll() is not None or time.perf_counter() > deadline:
                    _kill_group(proc)
                    proc.wait()
                    raise RuntimeError("daemon did not come up")
                time.sleep(0.005)
        return proc, socket_path, time.perf_counter() - start

    @staticmethod
    def _stop(proc, socket_path: str):
        """Shut the daemon down (killing it if it does not listen): rusage."""
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(socket_path, timeout=10.0) as client:
                client.shutdown()
        except OSError:
            _kill_group(proc)
        return reap(proc, 30.0)[1]

    def setup(self) -> list[float]:
        """Daemon starts on an empty registry; each round adds one more."""
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc, socket_path, setup_s = self._start(None)
            self._stop(proc, socket_path)
            samples.append(setup_s)
        return samples

    def round(self, trace_dir=None) -> dict:
        from repro.service.client import ServiceClient, ServiceError

        proc, socket_path, setup_s = self._start(trace_dir)
        self.cold_tags = []
        pending = iter(self.sequence)
        lock = threading.Lock()
        replies: list = []
        samples: list = []
        errors: list = []
        ready = threading.Barrier(SERVICE_CLIENTS + 1)

        def client_loop():
            try:
                client = ServiceClient(socket_path, timeout=120.0)
            except OSError as exc:
                errors.append(str(exc))
                ready.abort()
                return
            with client:
                ready.wait()
                while True:
                    with lock:
                        key = next(pending, None)
                    if key is None:
                        return
                    program, options_key, mode = key
                    request = golden.service_request(program, mode)
                    start = time.perf_counter()
                    try:
                        reply = client.schedule(
                            self.binaries[program, options_key], **request)
                    except (ServiceError, OSError) as exc:
                        reply = None
                        errors.append(str(exc))
                    elapsed = time.perf_counter() - start
                    replies.append((golden.service_key(*key),
                                    reply and reply["schedule_bytes"]))
                    if reply is not None:
                        samples.append((key, elapsed, reply["cached"]))

        threads = [threading.Thread(target=client_loop)
                   for _ in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        wall = cpu = 0.0
        try:
            ready.wait()
            cpu_start = proc_cpu_s(proc.pid)
            start = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            cpu = proc_cpu_s(proc.pid) - cpu_start
            with ServiceClient(socket_path, timeout=10.0) as client:
                counters = client.stats()["counters"]
            self.merges.append(counters.get("service.single_flight_merges",
                                            0))
        except (threading.BrokenBarrierError, OSError, ServiceError) as exc:
            errors.append("round %d: %r" % (self.rounds, exc))
            for thread in threads:
                thread.join()
        finally:
            usage = self._stop(proc, socket_path)
        if cpu <= 0.0:
            self.tally.fail("round %d: daemon CPU not measured" % self.rounds)
        for key, elapsed, cached in samples:
            if trace_dir is None:
                (self.warm_ms if cached else self.cold_ms).append(
                    elapsed * 1000.0)
            if not cached:
                program, options_key, mode = key
                self.cold_tags.append((tracing.request_tag(
                    self.binaries[program, options_key], mode, "parallel"),
                    elapsed))
        self.tally.add(golden.check_service(replies, self.gold))
        missing = len(self.sequence) - len(replies)
        if missing:
            self.tally.fail("%d requests never sent" % missing, missing)
        self.tally.notes += errors[:4]
        return {"wall_s": wall, "cpu_s": cpu,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "setup_s": setup_s}
