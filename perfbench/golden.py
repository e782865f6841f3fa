"""Golden outputs: generation and the correctness checks of every workload.

    python3 perfbench/golden.py [--out perfbench/golden]

regenerates the four committed files from the current source tree:

* ``reference.json``: the reference interpreter's (``force_reference``)
  output text and exit code for every (program, compile options, ref
  inputs) that a native or run cell of any figure executes;
* ``figures.json``: every figure's row per Fig. 7 benchmark, plus how
  each summary row is derived (geomean keys and constants), so the
  expected output of any draw can be rebuilt;
* ``soundness.json``: the verdict summary per program and soundness tool
  (verify, racecheck per mode, modediff per mode);
* ``service.json``: the sha256 of the schedule bytes per service key
  (program, compile options, selection mode) that ``repro figures
  --service`` asks the daemon for.

The checks run outside the timed window; each returns
``(attempted, failed, notes)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# Figure name -> renderer, in the order ``repro figures`` prints them
# (sorted by name; ``verify`` is not part of the default set).
FIGURES = ("fig10", "fig11", "fig12", "fig6", "fig7", "fig8", "fig9",
           "table1", "table2")
PRODUCERS = {
    "fig6": "fig6_classification", "fig7": "fig7_speedups",
    "fig8": "fig8_breakdown", "fig9": "fig9_scaling",
    "fig10": "fig10_schedule_size", "fig11": "fig11_compiler_comparison",
    "fig12": "fig12_opt_levels", "table1": "table1_bounds_checks",
}
# Worker processes of the reference and figure generation.
JOBS = 2


def _scratch_root() -> str:
    """Temporary files stay inside the checkout (see .gitignore)."""
    path = os.path.join(os.path.dirname(HERE), ".perfbench-golden-tmp")
    os.makedirs(path, exist_ok=True)
    return path


def load(golden_dir: str = GOLDEN_DIR) -> dict:
    golden = {}
    for name in ("reference", "figures", "soundness", "service"):
        with open(os.path.join(golden_dir, name + ".json")) as handle:
            golden[name] = json.load(handle)
    return golden


def _write(golden_dir: str, name: str, payload) -> None:
    with open(os.path.join(golden_dir, name + ".json"), "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")


# -- encodings shared by generation and checks --------------------------------


def cell_key(benchmark: str, options_key) -> str:
    return "%s|%s" % (benchmark, json.dumps(list(options_key)))


def service_key(program: str, options_key, mode: str) -> str:
    return "%s|%s|%s" % (program, json.dumps(list(options_key)), mode)


def encode_row(value):
    """JSON form of a figure row; int-keyed dicts keep their key type."""
    if isinstance(value, dict):
        if value and all(isinstance(k, int) for k in value):
            return {"__int_keys__": [[k, encode_row(v)]
                                     for k, v in value.items()]}
        return {k: encode_row(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_row(v) for v in value]
    return value


def decode_row(value):
    if isinstance(value, dict):
        if "__int_keys__" in value:
            return {k: decode_row(v) for k, v in value["__int_keys__"]}
        return {k: decode_row(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_row(v) for v in value]
    return value


def geomean(values) -> float:
    """Geometric mean over the positive values (0.0 when there are none)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def soundness_summary(verify: dict, race: dict, diff: dict) -> dict:
    """Per program: the verdict summary of each soundness tool."""
    summary: dict = {}
    for report in verify["workloads"]:
        summary.setdefault(report["workload"], {})["verify"] = {
            key: report[key] for key in (
                "functions_checked", "loops_checked", "rules_linted",
                "oracle_loops", "oracle_iterations", "confirmed_unsound",
                "errors", "warnings")}
    for report in race["reports"]:
        summary.setdefault(report["workload"], {}).setdefault(
            "racecheck", {})[report["mode"]] = {
            key: report[key] for key in (
                "loops_checked", "pairs_total", "proven_disjoint",
                "guarded", "possible_races", "unsound_static_loops")}
    for row in diff["rows"]:
        summary.setdefault(row["workload"], {}).setdefault(
            "modediff", {})[row["mode"]] = {
            key: row[key] for key in (
                "identical", "rules", "ref_cycles", "mode_cycles")}
    return summary


# -- checks ---------------------------------------------------------------------


def figure_cells(draw) -> dict:
    """{(benchmark, options key): native/run cells} the draw runs."""
    from repro.eval import scheduler

    seen = {}
    for cell in scheduler.plan(None, benchmarks=list(draw)):
        if cell.kind in ("native", "run"):
            seen.setdefault((cell.benchmark, cell.options_key), []).append(
                cell)
    return seen


def figures_service_keys(draw) -> list:
    """The schedule requests of a cold ``repro figures --service`` run.

    The harness fetches one schedule per distinct run cell whose mode
    needs a rewrite schedule, keyed by (benchmark, compile options key,
    mode value); cells that differ only in their thread count share a
    key.  Requests come figure by figure, in the draw's order within
    each figure, as the figure producers ask for them.
    """
    from repro.eval import scheduler
    from repro.pipeline import SelectionMode

    cells: dict = {}
    for figure in sorted(scheduler.FIGURES):
        for name in draw:
            for cell in scheduler.plan([figure], benchmarks=[name]):
                if cell.kind == "run" and cell.mode not in (
                        "NATIVE", "DBM_ONLY"):
                    cells.setdefault(cell)
    return [(cell.benchmark, cell.options_key,
             SelectionMode[cell.mode].value) for cell in cells]


def check_cells(cache_dir: str, draw, golden: dict):
    """Each native/run cell's output against the reference interpreter."""
    from repro.eval.harness import EvalHarness, options_from_key
    from repro.pipeline import SelectionMode

    harness = EvalHarness(cache_dir=cache_dir)
    reference = golden["reference"]
    attempted = failed = 0
    notes = []
    for (benchmark, options_key), cells in sorted(figure_cells(draw).items()):
        options = options_from_key(options_key)
        expected = reference.get(cell_key(benchmark, options_key))
        for cell in cells:
            attempted += 1
            if cell.kind == "native":
                result = harness.native(benchmark, options)
            else:
                result = harness.run(benchmark, SelectionMode[cell.mode],
                                     options, n_threads=cell.threads)
            if expected is None or (result.output_text, result.exit_code) \
                    != (expected["output"], expected["exit_code"]):
                failed += 1
                notes.append("cell %s %s %s/%d differs from the reference"
                             % (cell.kind, benchmark, cell.mode,
                                cell.threads))
    return attempted, failed, notes


def expected_figure_rows(figure: str, draw, golden: dict) -> list:
    spec = golden["figures"][figure]
    rows = [decode_row(spec["rows"][name]) for name in draw
            if name in spec["rows"]]
    for summary in spec["summaries"]:
        row = {}
        for key, kind, value in summary:
            row[key] = (geomean([r[key] for r in rows]) if kind == "geomean"
                        else value)
        rows.append(row)
    return rows


def expected_figures_text(draw, golden: dict) -> str:
    """What ``repro figures --benchmarks <draw>`` must print."""
    from repro.eval import figures, reporting

    parts = []
    for figure in FIGURES:
        rows = (figures.table2_features() if figure == "table2"
                else expected_figure_rows(figure, draw, golden))
        parts.append(getattr(reporting, "render_" + figure)(rows) + "\n\n")
    return "".join(parts)


def check_figures_text(text: str, expected: str):
    """Line-by-line comparison; every table row is one operation."""
    want = [line for line in expected.splitlines() if line.strip()]
    got = [line for line in text.splitlines() if line.strip()]
    failed = sum(1 for i, line in enumerate(want)
                 if i >= len(got) or got[i] != line)
    failed += max(0, len(got) - len(want))
    notes = ["figure output differs in %d of %d lines" % (failed, len(want))
             ] if failed else []
    return len(want), failed, notes


def check_soundness(summary: dict, draw, golden: dict):
    """(program, tool) verdict summaries against the golden ones."""
    attempted = failed = 0
    notes = []
    for program in draw:
        expected = golden["soundness"].get(program, {})
        got = summary.get(program, {})
        for tool in ("verify", "racecheck", "modediff"):
            attempted += 1
            if tool not in got or got[tool] != expected.get(tool):
                failed += 1
                notes.append("%s %s verdicts differ" % (program, tool))
    return attempted, failed, notes


def check_service(replies, golden: dict):
    """Every served schedule's digest against the golden digest of its key.

    ``replies`` is a list of (service key, schedule bytes or None); None
    stands for a request that failed.
    """
    attempted = failed = 0
    notes = []
    for key, schedule in replies:
        attempted += 1
        if schedule is None or \
                hashlib.sha256(schedule).hexdigest() != golden["service"].get(key):
            failed += 1
            if len(notes) < 8:
                notes.append("schedule for %s differs" % key)
    return attempted, failed, notes


# -- generation ---------------------------------------------------------------------


def reference_output(benchmark: str, options) -> dict:
    """Run one program on its ref inputs through the reference interpreter."""
    from repro.dbm.executor import run_native
    from repro.dbm.interp import Interpreter
    from repro.eval.harness import MAX_INSTRUCTIONS
    from repro.jbin.loader import load as load_process
    from repro.workloads import compile_workload, get_workload

    original = Interpreter.__init__

    def pinned(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.force_reference = True

    Interpreter.__init__ = pinned
    try:
        process = load_process(compile_workload(benchmark, options),
                               inputs=list(get_workload(benchmark).ref_inputs))
        result = run_native(process, max_instructions=MAX_INSTRUCTIONS)
    finally:
        Interpreter.__init__ = original
    return {"output": result.output_text, "exit_code": result.exit_code}


def _reference_task(args):
    benchmark, options_key = args
    from repro.eval.harness import options_from_key

    return cell_key(benchmark, options_key), reference_output(
        benchmark, options_from_key(options_key))


def generate_reference() -> dict:
    from concurrent.futures import ProcessPoolExecutor

    from repro.workloads import FIG7_BENCHMARKS

    tasks = sorted(figure_cells(FIG7_BENCHMARKS))
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        return dict(pool.map(_reference_task, tasks))


def generate_figures() -> dict:
    from repro.eval import figures
    from repro.eval.harness import EvalHarness
    from repro.workloads import FIG7_BENCHMARKS

    names = list(FIG7_BENCHMARKS)
    out = {}
    with tempfile.TemporaryDirectory(dir=_scratch_root()) as cache:
        harness = EvalHarness(cache_dir=cache, jobs=JOBS)
        harness.warm([f for f in FIGURES if f != "table2"],
                     benchmarks=names)
        for figure, producer in PRODUCERS.items():
            rows = getattr(figures, producer)(harness, benchmarks=names)
            per_benchmark = {r["benchmark"]: encode_row(r) for r in rows
                             if r["benchmark"] in names}
            summaries = []
            for row in rows:
                if row["benchmark"] in names:
                    continue
                spec = []
                for key, value in row.items():
                    values = [r[key] for r in rows
                              if r["benchmark"] in names]
                    derived = (key != "benchmark"
                               and isinstance(value, float)
                               and value == geomean(values))
                    spec.append([key, "geomean" if derived else "constant",
                                 None if derived else value])
                summaries.append(spec)
            out[figure] = {"rows": per_benchmark, "summaries": summaries}
    return out


def generate_soundness() -> dict:
    import contextlib
    import io

    from repro import cli
    from repro.workloads import all_benchmarks

    names = list(all_benchmarks())
    payloads = {}
    with tempfile.TemporaryDirectory(dir=_scratch_root()) as work:
        for tool, extra in (("verify", []),
                            ("racecheck", ["--mode", "parallel",
                                           "--mode", "vector"]),
                            ("modediff", [])):
            path = os.path.join(work, tool + ".json")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([tool, *names, *extra, "-o", path])
            with open(path) as handle:
                payloads[tool] = json.load(handle)
    return soundness_summary(payloads["verify"], payloads["racecheck"],
                             payloads["modediff"])


def service_request(program: str, mode: str) -> dict:
    """The request parameters the harness sends for one key (its defaults:
    parallel family, 8 threads, training on the training inputs unless
    the mode is static)."""
    from repro.workloads import get_workload

    trained = mode != "static"
    return {"mode": mode, "family": "parallel", "threads": 8,
            "train_inputs": (list(get_workload(program).train_inputs)
                             if trained else []),
            "no_train": not trained}


def generate_service() -> dict:
    from repro.eval.harness import options_from_key
    from repro.service.daemon import compute_schedule_job, schedule_params
    from repro.workloads import FIG7_BENCHMARKS, compile_workload

    digests = {}
    for program, options_key, mode in sorted(
            set(figures_service_keys(FIG7_BENCHMARKS))):
        raw = compile_workload(program,
                               options_from_key(options_key)).serialize()
        params = schedule_params(service_request(program, mode))
        result = compute_schedule_job({"binary": raw, "params": params})
        digests[service_key(program, options_key, mode)] = \
            hashlib.sha256(result["schedule"]).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=GOLDEN_DIR)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(args.out, exist_ok=True)
    generators = {
        "reference": generate_reference,
        "figures": generate_figures,
        "soundness": generate_soundness,
        "service": generate_service,
    }
    for name in generators:
        print("generating %s" % name, file=sys.stderr, flush=True)
        _write(args.out, name, generators[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
