"""Compare two sets of benchmark runs (parent against change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``--out`` records of ``perfbench/run.py``.  For
every workload and end-to-end metric this prints both sides' medians
and quartiles, the pairs the change won (runs are paired by seed) and a
verdict (improved, no worse, worse or unresolved; see
``stats.verdict``).  Traced records give a per-layer table of median
deltas.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def load_records(directory: str) -> dict:
    """{(workload, traced): {seed: result metrics}} of one run set."""
    runs: dict = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as handle:
            record = json.load(handle)
        meta = record["meta"]
        metrics = {k: v["value"]
                   for k, v in record["result"]["metrics"].items()}
        runs.setdefault((meta["workload"], meta["traced"]), {})[
            meta["seed"]] = metrics
    return runs


def paired(parent: dict, change: dict, metric: str) -> tuple[list, list]:
    """Values paired by seed; unpaired seeds are dropped."""
    seeds = sorted(set(parent) & set(change))
    return ([parent[s][metric] for s in seeds],
            [change[s][metric] for s in seeds])


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> list[str]:
    lines = []
    header = ("%-16s %-12s %24s %24s %6s  %s"
              % ("workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "won", "verdict"))
    lines.append(header)
    workloads = sorted({w for w, traced in parent_runs if not traced})
    for workload in workloads:
        parent = parent_runs.get((workload, False), {})
        change = change_runs.get((workload, False), {})
        for metric in spec["end_to_end"]:
            p, c = paired(parent, change, metric["name"])
            if not p:
                lines.append("%-16s %-12s no paired runs"
                             % (workload, metric["name"]))
                continue
            v = stats.verdict(p, c, bound=metric["bound"],
                              lower_is_better=metric["better"] == "lower")
            fmt = "%.4g [%.4g, %.4g]"
            lines.append("%-16s %-12s %24s %24s %3d/%-2d  %s" % (
                workload, metric["name"],
                fmt % (v["parent"]["median"], v["parent"]["q1"],
                       v["parent"]["q3"]),
                fmt % (v["change"]["median"], v["change"]["q1"],
                       v["change"]["q3"]),
                v["wins"], v["pairs"], v["verdict"]))
    traced = sorted({w for w, t in parent_runs if t}
                    & {w for w, t in change_runs if t})
    for workload in traced:
        parent = parent_runs[(workload, True)]
        change = change_runs[(workload, True)]
        lines.append("")
        lines.append("per-layer medians, %s (traced runs: %d parent, "
                     "%d change)" % (workload, len(parent), len(change)))
        for metric in spec["per_layer"]:
            name = metric["name"]
            pm = statistics.median(r[name] for r in parent.values())
            cm = statistics.median(r[name] for r in change.values())
            if pm == 0 and cm == 0:
                continue
            delta = ("%+.1f%%" % ((cm - pm) / abs(pm) * 100.0)) if pm \
                else "new"
            lines.append("  %-34s %14.6g %14.6g %9s %s"
                         % (name, pm, cm, delta, metric["unit"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    lines = compare(load_records(args.parent), load_records(args.change),
                    spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
