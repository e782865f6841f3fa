"""Tests of the benchmark's own logic (no program runs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import golden  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

GOLD = golden.load()
DEFAULT_OPTIONS = (3, "gcc", False, False, 8)


# -- tail percentile -----------------------------------------------------------


def test_tail_leaves_at_least_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    pct, value, beyond = stats.tail(samples)
    assert (pct, value, beyond) == (90.0, 90.0, 10)


def test_tail_picks_highest_qualifying_percentile():
    samples = [float(v) for v in range(1, 1001)]
    pct, value, beyond = stats.tail(samples)
    assert pct == 99.0 and value == 990.0 and beyond == 10


def test_tail_falls_back_to_median_then_none():
    assert stats.tail([float(v) for v in range(20)])[0] == 50.0
    assert stats.tail([float(v) for v in range(19)]) is None


def test_tail_ignores_input_order():
    samples = [float(v) for v in range(200)]
    assert stats.tail(samples) == stats.tail(list(reversed(samples)))


# -- injected output mismatches --------------------------------------------------


def test_perturbed_figure_row_counts_as_failed():
    draw = workloads.figures_draw(3)
    text = golden.expected_figures_text(draw, GOLD)
    attempted, failed, _ = golden.check_figures_text(text, text)
    assert attempted > 0 and failed == 0

    perturbed = copy.deepcopy(GOLD)
    row = perturbed["figures"]["fig7"]["rows"][draw[0]]
    row["Janus"] *= 1.5
    expected = golden.expected_figures_text(draw, perturbed)
    attempted, failed, notes = golden.check_figures_text(text, expected)
    # The benchmark's own row and the recomputed geomean row both differ.
    assert failed == 2 and notes


def test_perturbed_service_digest_counts_as_failed():
    key = golden.service_key("470.lbm", DEFAULT_OPTIONS, "janus")
    perturbed = copy.deepcopy(GOLD)
    perturbed["service"][key] = "0" * 64
    replies = [(key, b"whatever the daemon served")]
    assert golden.check_service(replies, perturbed)[:2] == (1, 1)
    assert golden.check_service([(key, None)], GOLD)[:2] == (1, 1)


def test_perturbed_verdict_summary_counts_as_failed():
    draw = ["470.lbm", "429.mcf"]
    summary = {name: GOLD["soundness"][name] for name in draw}
    assert golden.check_soundness(summary, draw, GOLD)[:2] == (6, 0)
    perturbed = copy.deepcopy(GOLD)
    perturbed["soundness"]["470.lbm"]["racecheck"]["parallel"][
        "possible_races"] = 1
    attempted, failed, _ = golden.check_soundness(summary, draw, perturbed)
    assert (attempted, failed) == (6, 1)


def test_failed_ratio_follows_the_tally():
    tally = workloads.Tally()
    tally.add((10, 0, []))
    tally.add(golden.check_service([("x|[]|janus", None)], GOLD))
    assert (tally.attempted, tally.failed) == (11, 1)


# -- compare verdict rule -----------------------------------------------------------


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_verdict_improved_needs_nine_of_ten_and_a_gap_beyond_iqr():
    change = [v * 0.85 for v in PARENT]
    assert stats.verdict(PARENT, change, bound=0.1)["verdict"] == "improved"
    # Eight wins of ten is not enough, however large the gap.
    change = [v * 0.85 for v in PARENT[:8]] + [v * 1.01 for v in PARENT[8:]]
    result = stats.verdict(PARENT, change, bound=0.1)
    assert result["wins"] == 8 and result["verdict"] == "no worse"


def test_verdict_gap_within_parent_iqr_is_not_improved():
    change = [v - 0.01 for v in PARENT]
    result = stats.verdict(PARENT, change, bound=0.1)
    assert result["wins"] == 10 and result["verdict"] == "no worse"


def test_verdict_worse_beyond_bound():
    change = [v * 1.3 for v in PARENT]
    assert stats.verdict(PARENT, change, bound=0.1)["verdict"] == "worse"
    change = [v * 1.05 for v in PARENT]
    assert stats.verdict(PARENT, change, bound=0.1)["verdict"] == "no worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [v * 1.02 for v in noisy]
    assert stats.verdict(noisy, change, bound=0.1)["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    change = [v / 10.0 for v in noisy]
    assert stats.verdict(noisy, change, bound=0.1)["verdict"] != "unresolved"


def test_verdict_higher_is_better():
    change = [v * 1.2 for v in PARENT]
    result = stats.verdict(PARENT, change, bound=0.1, lower_is_better=False)
    assert result["verdict"] == "improved"


# -- determinism of the draws -----------------------------------------------------------


def test_same_seed_same_draws_and_sequence():
    for seed in (0, 1, 17):
        assert workloads.figures_draw(seed) == workloads.figures_draw(seed)
        assert workloads.soundness_draw(seed) == \
            workloads.soundness_draw(seed)
        assert workloads.service_sequence(seed) == \
            workloads.service_sequence(seed)
    assert workloads.service_sequence(1) != workloads.service_sequence(2)
    assert workloads.soundness_draw(1) != workloads.soundness_draw(2)


def test_draws_take_the_stratum_counts():
    from repro.workloads import FIG7_BENCHMARKS, all_benchmarks

    for seed in range(20):
        figures = workloads.figures_draw(seed)
        assert "410.bwaves" in figures and len(set(figures)) == 4
        assert set(figures) <= set(FIG7_BENCHMARKS)
        programs = workloads.soundness_draw(seed)
        size = sum(count for _, count in workloads.SOUNDNESS_STRATA)
        assert len(set(programs)) == size == 5 and set(programs) <= set(
            all_benchmarks())
    strata = [m for members, _ in workloads.SOUNDNESS_STRATA for m in members]
    assert sorted(strata) == sorted(all_benchmarks())


def test_service_stream_is_a_cold_figures_run_then_a_warm_one():
    draw = workloads.figures_draw(5)
    sequence = workloads.service_sequence(5)
    once = golden.figures_service_keys(draw)
    assert sequence == once * workloads.SERVICE_PASSES
    # Per benchmark: static + static_profile + janus at the default
    # options, janus for icc (Fig. 11), -O2 and AVX (Fig. 12); the Fig. 8
    # and Fig. 9 thread counts repeat the default janus key.
    assert len(once) == 11 * len(draw)
    assert len(set(once)) == 6 * len(draw)
    assert once.count(("410.bwaves", DEFAULT_OPTIONS, "janus")) == 6
    assert {program for program, _, _ in once} == set(draw)
    assert all(golden.service_key(*key) in GOLD["service"] for key in once)


# -- daemon CPU ---------------------------------------------------------------------------


def test_proc_cpu_counts_a_live_process_and_rejects_a_gone_one():
    import subprocess

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    assert workloads.proc_cpu_s(os.getpid()) > 0.0
    try:
        workloads.proc_cpu_s(child.pid)
    except OSError:
        pass
    else:
        raise AssertionError("a reaped process has no CPU to read")
