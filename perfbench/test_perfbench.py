"""Unit tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench/test_perfbench.py

They import neither vlcwdma nor numpy, so they run without the package.
"""

import json
import os
import statistics
import time

import pytest

from checks import compare_report
from metrics import Tracer, instance_median, percentile, self_times, tail
from run import closed_loop

HERE = os.path.dirname(os.path.abspath(__file__))
HEADER = "user,room,scenario,ap,branch,wavelength,sinr_db,bandwidth_hz,rate_bps,fec"
ROW = "1,B,1,1,4,Y,10.8895,6441398875,8042546595,1"


def report(*rows):
    return "\n".join((HEADER,) + rows) + "\n"


class TestTail:
    def test_median_when_fewer_than_twenty_samples(self):
        xs = [float(i) for i in range(1, 8)]
        t = tail(xs)
        assert t["percentile"] == 50.0
        assert t["value"] == statistics.median(xs)
        assert t["samples"] == 7 and t["beyond"] == 3

    def test_never_below_the_median(self):
        xs = [0.5, 0.6, 0.7, 1.1, 1.8, 3.9]
        assert tail(xs)["value"] == statistics.median(xs)

    def test_highest_percentile_with_ten_beyond(self):
        xs = [float(i) for i in range(1, 1001)]   # 1000 distinct samples
        t = tail(xs)
        # p99 leaves exactly ten samples above it, p99.9 only one
        assert t["percentile"] == 99.0
        assert t["beyond"] == 10
        assert t["value"] == pytest.approx(990.01)

    def test_p90_needs_ninety_two_samples(self):
        t91 = tail([float(i) for i in range(91)])   # p90 = 81.0, nine above
        t92 = tail([float(i) for i in range(92)])   # p90 = 81.9, ten above
        assert (t91["percentile"], t91["beyond"]) == (50.0, 45)
        assert (t92["percentile"], t92["beyond"]) == (90.0, 10)

    def test_ties_do_not_count_as_beyond(self):
        t = tail([1.0] * 30)
        assert t["percentile"] == 50.0 and t["beyond"] == 0

    def test_p50_rung_reads_the_given_median(self):
        xs = [1.0, 1.1, 0.9, 3.0, 2.9, 3.1]
        t = tail(xs, median=2.0)
        assert (t["value"], t["percentile"], t["beyond"]) == (2.0, 50.0, 3)

    def test_percentile_matches_statistics_quantiles(self):
        xs = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3])
        q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        assert percentile(xs, 25) == pytest.approx(q1)
        assert percentile(xs, 50) == pytest.approx(q2)
        assert percentile(xs, 75) == pytest.approx(q3)


def test_instance_median_is_the_median_of_per_instance_medians():
    # pooled, the median of these six samples is the midpoint of 1.2 and
    # 2.8, the slowest sample of one instance and the fastest of the other
    times = {"a": [1.0, 0.9, 1.2], "b": [3.0, 2.8, 3.1]}
    assert instance_median(times) == 2.0
    assert instance_median({"c": [4.0, 5.0, 9.0]}) == 5.0
    assert instance_median({"a": [1.0], "b": [2.0], "c": [7.0]}) == 2.0


def span(name, start, end, parent=None, instance="i"):
    return {"name": name, "start": start, "end": end, "parent": parent, "instance": instance}


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 4.0, 8.0, 0)]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])

    def test_overlapping_children_count_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 6.0, 0)]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("root", 0.0, 10.0), span("a", 0.0, 6.0, 0), span("a.x", 1.0, 5.0, 1)]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])

    def test_tracer_records_parent_and_instance(self, tmp_path):
        tr = Tracer()
        tr.instance = "x#0"
        with tr.span("root"):
            with tr.span("child"):
                pass
        assert [s["parent"] for s in tr.spans] == [None, 0]
        assert all(s["instance"] == "x#0" for s in tr.spans)
        assert tr.spans[0]["start"] <= tr.spans[1]["start"] <= tr.spans[1]["end"] <= tr.spans[0]["end"]
        path = tmp_path / "spans.jsonl"
        tr.write(str(path))
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert [x["id"] for x in lines] == [0, 1] and lines[1]["name"] == "child"


class TestReportComparison:
    def test_identical(self):
        assert compare_report(report(ROW), report(ROW)) == []

    def test_sinr_within_and_beyond_absolute_tolerance(self):
        near = ROW.replace("10.8895", "10.8895009")
        far = ROW.replace("10.8895", "10.889502")
        assert compare_report(report(ROW), report(near)) == []
        assert compare_report(report(ROW), report(far))

    def test_bandwidth_and_rate_relative_tolerance(self):
        # 6441398875 * 1e-9 is about 6.4 Hz
        assert compare_report(report(ROW), report(ROW.replace("6441398875", "6441398881"))) == []
        assert compare_report(report(ROW), report(ROW.replace("6441398875", "6441398885")))
        assert compare_report(report(ROW), report(ROW.replace("8042546595", "8042546605")))

    def test_identity_columns_and_fec_exact(self):
        assert compare_report(report(ROW), report(ROW.replace("1,4,Y", "1,4,R")))
        assert compare_report(report(ROW), report(ROW[:-1] + "0"))

    def test_row_count_and_header(self):
        assert compare_report(report(ROW, ROW), report(ROW))
        assert compare_report(report(ROW), report(ROW).replace("rate_bps", "rate"))

    def test_nan_fails(self):
        assert compare_report(report(ROW), report(ROW.replace("10.8895", "nan")))


def test_closed_loop_leaves_time_between_passes_out_of_the_phase():
    class OneKey:
        def pass_keys(self, index):
            return ["k"]

    phase, passes = closed_loop(OneKey(), 0.2, lambda i, key: time.sleep(0.02),
                                lambda: time.sleep(0.1))
    # counted, the 0.1 s between passes would end the loop after one pass
    # and make the phase at least 0.12 s per pass
    assert passes >= 5
    assert phase < 0.06 * passes


def test_benchmark_json_keys():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["presets", "fine_grid"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
