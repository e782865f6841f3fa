"""End-to-end host-cost benchmark of the Janus reproduction.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 10 \\
        --trace 0 [--out result.json] [--golden DIR]

Run from the root of a source checkout.  Prints a table of every metric,
one ``{"meta": ...}`` line and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json (medians over
the run's rounds); with ``--trace 1`` they are the per-layer metrics of
one traced round, next to one untraced round for the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures-cold", "figures-warm", "soundness-suite",
             "service-mixed")
# Rounds a run makes at least, whatever --seconds says: figures-warm and
# service-mixed need three so their medians and set-up median mean
# something; soundness-suite's median of four short rounds spans about
# twice the time of one figures-cold round.
MIN_ROUNDS = {"figures-cold": 1, "figures-warm": 3, "soundness-suite": 4,
              "service-mixed": 3}
SERVICE_LATENCIES = ("warm_p50_ms", "warm_tail_ms", "cold_p50_ms",
                     "cold_tail_ms")


def git_state() -> dict:
    """Revision and dirty flag of the checkout (unknown outside git)."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return {"git_revision": "unknown", "git_dirty": None}
    return {"git_revision": revision, "git_dirty": dirty}


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def latency_figures(name: str, samples_ms) -> tuple[dict, dict]:
    """(metrics, sample-count metadata) for one latency series."""
    import stats

    if not samples_ms:
        return {}, {name: {"samples": 0}}
    tail = stats.tail(samples_ms)
    metrics = {name + "_p50_ms": stats.percentile(samples_ms, 50.0)}
    meta = {"samples": len(samples_ms)}
    if tail is not None:
        pct, value, beyond = tail
        metrics[name + "_tail_ms"] = value
        meta.update(tail_percentile=pct, tail_samples_beyond=beyond)
    return metrics, {name: meta}


def make_workload(name: str, seed: int, gold: dict, tally):
    import workloads

    if name == "figures-cold":
        return workloads.Figures(seed, gold, tally, warm=False)
    if name == "figures-warm":
        return workloads.Figures(seed, gold, tally, warm=True)
    if name == "soundness-suite":
        return workloads.Soundness(seed, gold, tally)
    return workloads.Service(seed, gold, tally)


def measure(args, gold: dict) -> tuple[dict, dict, object]:
    """(metrics, metadata, tally) of one run."""
    import tracing
    import workloads

    tally = workloads.Tally()
    workload = make_workload(args.workload, args.seed, gold, tally)
    meta: dict = {"inputs": workload.describe()}
    setups = workload.setup()
    service = isinstance(workload, workloads.Service)
    if args.trace:
        untraced = workload.round()
        trace_dir = workloads.fresh_dir(os.path.join(workloads.WORK,
                                                     "trace"))
        traced = workload.round(trace_dir)
        metrics = tracing.layer_metrics(
            tracing.read_dumps(trace_dir),
            cold_latencies=getattr(workload, "cold_tags", ()))
        metrics["bench.trace_overhead_pct"] = (
            (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
            * 100.0)
        meta["rounds"] = 2
    else:
        rounds = []
        start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS[args.workload]
               or time.perf_counter() - start < args.seconds):
            rounds.append(workload.round())
        setups += [r["setup_s"] for r in rounds if "setup_s" in r]
        metrics = {name: statistics.median(r[name] for r in rounds)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        meta["rounds"] = len(rounds)
        meta["round_wall_s"] = [r["wall_s"] for r in rounds]
        meta["setup_samples"] = len(setups)
    # Request latencies of the untraced rounds; a traced run reports them
    # as per-layer metrics (zero on the workloads without a daemon).
    latency: dict = {}
    if service:
        for series in ("warm", "cold"):
            values, info = latency_figures(
                series, getattr(workload, series + "_ms"))
            latency.update(values)
            meta.setdefault("percentiles", {}).update(info)
        meta["latency_ms"] = latency
        hits = len(workload.warm_ms)
        meta["hit_share"] = hits / max(1, hits + len(workload.cold_ms))
        # The share a daemon without single-flight would serve warm.
        meta["stream_repeat_share"] = 1.0 - (len(set(workload.sequence))
                                             / len(workload.sequence))
        meta["single_flight_merges"] = workload.merges
    if args.trace:
        for name in SERVICE_LATENCIES:
            metrics["service." + name] = latency.get(name, 0.0)
        metrics["service.single_flight_merges"] = (
            workload.merges[-1] if service and workload.merges else 0)
    return metrics, meta, tally


def render(metrics: dict, units: dict, meta: dict, tally) -> None:
    width = max(len(name) for name in metrics)
    for name in sorted(metrics):
        print("%-*s %14.6g %s" % (width, name, metrics[name],
                                  units.get(name, "")))
    for name, value in sorted(meta.get("latency_ms", {}).items()):
        print("%-*s %14.6g ms" % (width, name, value))
    for series, info in sorted(meta.get("percentiles", {}).items()):
        print("%s latency samples: %s" % (series, json.dumps(info)))
    if "hit_share" in meta:
        print("warm share %.3f of replies (stream repeats %.3f); "
              "single-flight merges per round %s"
              % (meta["hit_share"], meta["stream_repeat_share"],
                 meta["single_flight_merges"]))
    print("operations: attempted=%d failed=%d failed_ratio=%.6g"
          % (tally.attempted, tally.failed,
             tally.failed / max(1, tally.attempted)))
    for note in tally.notes[:20]:
        print("  " + note)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    parser.add_argument("--golden", help="golden directory to check against "
                                         "(default: perfbench/golden)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no source tree at %s/src; run from a checkout"
              % ROOT, file=sys.stderr)
        return 2
    args.out = args.out and os.path.abspath(args.out)
    args.golden = os.path.abspath(args.golden) if args.golden else None
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import golden
    import workloads

    declared = declared_metrics()
    gold = golden.load(args.golden or golden.GOLDEN_DIR)
    workloads.fresh_dir(workloads.WORK)
    try:
        metrics, meta, tally = measure(args, gold)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared[kind]
    if args.trace:
        metrics["bench.failed_ratio"] = tally.failed / max(1, tally.attempted)
    missing = [name for name in units
               if not isinstance(metrics.get(name), (int, float))
               or not math.isfinite(metrics[name])]
    meta.update(git_state())
    meta.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, traced=bool(args.trace),
                python=platform.python_version(), nproc=os.cpu_count(),
                missing_metrics=missing)
    render({n: metrics[n] for n in units if n not in missing}, units, meta,
           tally)
    print(json.dumps({"meta": meta}, sort_keys=True))
    if missing:
        print("perfbench: metrics missing or not numeric: %s"
              % ", ".join(missing), file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": meta, "result": result}, handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
