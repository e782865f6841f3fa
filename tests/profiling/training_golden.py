"""Golden training profiles: every coverage, dependence and Fig. 6 profile.

The file ``training_golden.json`` next to this module holds, for every
suite workload at default options plus the Fig. 11 and Fig. 12 option sets
of the Fig. 7 benchmarks, each profile the pipeline's training stage
computes (coverage pass, dependence pass) and the Fig. 6 coverage profile
of the default builds: per loop ``invocations``, ``iterations``,
``instructions``, ``instructions_exclusive``, ``has_dependence``, the
first 8 ``dependence_samples`` and the external-call profiles, the run's
``total_instructions``, and the training run's ``ExecutionResult``
instruction and cycle counts.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.profiling.training_golden          # check all
    PYTHONPATH=src python -m tests.profiling.training_golden --write  # regenerate

Checking exits 1 and names every profile that differs.  The tier-1 test
``test_training_golden.py`` checks a stratified subset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from repro.jcc import CompileOptions
from repro.workloads import FIG7_BENCHMARKS, all_benchmarks

GOLDEN = os.path.join(os.path.dirname(__file__), "training_golden.json")

# Fig. 11 trains the gcc and icc -O3 builds, Fig. 12 the -O2, -O3 and
# -O3 -mavx builds; gcc -O3 is the default build.
EXTRA_OPTIONS = {
    "icc-O3": CompileOptions(opt_level=3, personality="icc"),
    "gcc-O2": CompileOptions(opt_level=2),
    "gcc-O3-mavx": CompileOptions(opt_level=3, mavx=True),
}


def cases() -> list[tuple[str, str]]:
    """Every (workload, option-set label) the golden file covers."""
    out = [(name, "default") for name in all_benchmarks()]
    out += [(name, label) for name in FIG7_BENCHMARKS
            for label in EXTRA_OPTIONS]
    return out


def case_key(name: str, label: str) -> str:
    return f"{name} {label}"


def _profile_dict(profile) -> dict:
    loops = {}
    for loop_id, loop in sorted(profile.loops.items()):
        loops[str(loop_id)] = {
            "invocations": loop.invocations,
            "iterations": loop.iterations,
            "instructions": loop.instructions,
            "instructions_exclusive": loop.instructions_exclusive,
            "has_dependence": loop.has_dependence,
            "dependence_samples": [list(s) for s in
                                   loop.dependence_samples[:8]],
            "excalls": {
                str(index): {
                    "name": excall.name,
                    "invocations": excall.invocations,
                    "instructions": excall.instructions,
                    "heap_reads": excall.heap_reads,
                    "heap_writes": excall.heap_writes,
                } for index, excall in sorted(loop.excalls.items())},
        }
    return {"total_instructions": profile.total_instructions, "loops": loops}


def compute(name: str, label: str) -> dict:
    """The profiles of one build, exactly as the evaluation computes them."""
    import repro.pipeline.janus as janus_module
    from repro.eval.harness import EvalHarness

    runs = []
    real = janus_module.run_profiling

    def recording(*args, **kwargs):
        profile, execution = real(*args, **kwargs)
        runs.append({"profile": _profile_dict(profile),
                     "instructions": execution.instructions,
                     "cycles": execution.cycles})
        return profile, execution

    options = EXTRA_OPTIONS.get(label)
    harness = EvalHarness()
    janus_module.run_profiling = recording
    try:
        harness.training(name, options)
    finally:
        janus_module.run_profiling = real
    entry = {"training": runs}
    if label == "default":
        entry["fig6"] = _profile_dict(harness.fig6_profile(name))
    return entry


def _compute_case(case):
    return case_key(*case), compute(*case)


def compute_all(selected, jobs: int) -> dict:
    if jobs <= 1:
        return dict(map(_compute_case, selected))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(pool.map(_compute_case, selected))


def load_golden() -> dict:
    with open(GOLDEN) as handle:
        return json.load(handle)


def diff(expected, actual, path: str = "", limit: int = 12) -> list[str]:
    """The differing leaves of two entries, as ``path: expected -> got``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            out += diff(expected.get(key), actual.get(key),
                        f"{path}/{key}", limit - len(out))
            if len(out) >= limit:
                break
        return out
    if isinstance(expected, list) and isinstance(actual, list) \
            and len(expected) == len(actual) \
            and all(isinstance(e, dict) for e in expected):
        out = []
        for index, (want, got) in enumerate(zip(expected, actual)):
            out += diff(want, got, f"{path}/{index}", limit - len(out))
        return out[:limit]
    if expected != actual:
        return [f"{path}: {json.dumps(expected)} -> {json.dumps(actual)}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the golden file")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--only", default=None,
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    selected = cases()
    if args.only:
        wanted = set(args.only.split(","))
        selected = [case for case in selected if case[0] in wanted]
    results = compute_all(selected, args.jobs)
    if args.write:
        with open(GOLDEN, "w") as handle:
            json.dump(dict(sorted(results.items())), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(results)} builds to {GOLDEN}")
        return 0
    golden = load_golden()
    failures = 0
    for key, actual in sorted(results.items()):
        problems = diff(golden.get(key, {}), actual)
        if problems:
            failures += 1
            print(f"DIFF {key}")
            for line in problems:
                print(f"  {line}")
    print(f"{len(results) - failures}/{len(results)} builds match "
          f"the golden training profiles")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
