"""Cross-process dump aggregation tests (flush/load/merge/collect)."""

import json
import os

from repro.telemetry import aggregate
from repro.telemetry.core import Recorder


def _recorder_with_span(label="worker", counter=("jit.blocks", 2)):
    recorder = Recorder(label=label)
    with recorder.span("cell.native", cat="cell", lane="native mg"):
        pass
    recorder.count(*counter)
    return recorder


class TestFlushAndLoad:
    def test_flush_roundtrip(self, tmp_path):
        recorder = _recorder_with_span()
        path = aggregate.flush(recorder, str(tmp_path))
        assert os.path.basename(path).startswith("dump-")
        (dump,) = aggregate.load_dumps(str(tmp_path))
        assert dump == recorder.dump()

    def test_reflush_overwrites_same_file(self, tmp_path):
        recorder = _recorder_with_span()
        first = aggregate.flush(recorder, str(tmp_path))
        recorder.count("jit.blocks", 5)
        second = aggregate.flush(recorder, str(tmp_path))
        assert first == second
        (dump,) = aggregate.load_dumps(str(tmp_path))
        assert dump["counters"]["jit.blocks"] == 7

    def test_torn_and_foreign_files_are_skipped(self, tmp_path):
        aggregate.flush(_recorder_with_span(), str(tmp_path))
        (tmp_path / "dump-999-torn.json").write_text('{"pid": 999, "ev')
        (tmp_path / "dump-998-foreign.json").write_text('{"other": 1}')
        (tmp_path / "unrelated.txt").write_text("hello")
        assert len(aggregate.load_dumps(str(tmp_path))) == 1

    def test_missing_directory(self, tmp_path):
        assert aggregate.load_dumps(str(tmp_path / "absent")) == []
        assert aggregate.clear(str(tmp_path / "absent")) == 0

    def test_clear(self, tmp_path):
        aggregate.flush(_recorder_with_span(), str(tmp_path))
        assert aggregate.clear(str(tmp_path)) == 1
        assert aggregate.load_dumps(str(tmp_path)) == []


class TestMerge:
    def test_counters_sum_and_gauges_last_win(self):
        a = _recorder_with_span().dump()
        b = _recorder_with_span().dump()
        a["gauges"]["speedup"] = 1.0
        b["gauges"]["speedup"] = 2.0
        b["pid"] = a["pid"] + 1
        merged = aggregate.merge([a, b])
        assert merged["counters"]["jit.blocks"] == 4
        assert merged["gauges"]["speedup"] == 2.0
        assert [p["pid"] for p in merged["processes"]] \
            == sorted(p["pid"] for p in merged["processes"])

    def test_empty_dumps_dropped(self):
        empty = Recorder(label="idle").dump()
        merged = aggregate.merge([empty, _recorder_with_span().dump()])
        assert len(merged["processes"]) == 1

    def test_gauge_only_dump_keeps_gauges_without_a_lane(self):
        recorder = Recorder(label="bench")
        recorder.gauge("throughput", 3.5)
        merged = aggregate.merge([recorder.dump()])
        assert merged["gauges"] == {"throughput": 3.5}
        assert merged["processes"] == []

    def test_merge_preserves_events_per_process(self):
        a = _recorder_with_span().dump()
        b = _recorder_with_span().dump()
        b["pid"] = a["pid"] + 1
        merged = aggregate.merge([a, b])
        for process, dump in zip(merged["processes"],
                                 sorted([a, b], key=lambda d: d["pid"])):
            assert process["events"] == dump["events"]
            assert process["lanes"] == dump["lanes"]


class TestCollect:
    def test_collect_excludes_own_pid_dumps(self, tmp_path):
        parent = _recorder_with_span(label="figures")
        # The parent's own on-disk dump (same pid) must not double-count.
        aggregate.flush(parent, str(tmp_path))
        worker = _recorder_with_span(label="worker").dump()
        worker["pid"] = os.getpid() + 1
        path = tmp_path / f"dump-{worker['pid']}-abc.json"
        path.write_text(json.dumps(worker))
        merged = aggregate.collect(parent, str(tmp_path))
        assert len(merged["processes"]) == 2
        assert merged["counters"]["jit.blocks"] == 4

    def test_collect_without_directory(self):
        parent = _recorder_with_span(label="figures")
        merged = aggregate.collect(parent, None)
        assert len(merged["processes"]) == 1
