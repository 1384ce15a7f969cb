"""Tests of the benchmark's own statistics (``benchstats.py``) and of
the answer comparison it counts failures with (``answers.py``)."""

import math
import os
import statistics

import pytest

import answers
import benchstats


class TestGeomeanOfKindMedians:
    def test_geometric_mean_of_each_kinds_median(self):
        samples = {"q01": [3.0, 1.0, 2.0], "q02": [8.0, 8.0, 100.0, 7.0]}
        # medians 2 and 8 -> sqrt(16)
        assert benchstats.geomean_of_kind_medians(samples) == \
            pytest.approx(4.0)

    def test_a_kinds_sample_count_does_not_weigh(self):
        few = {"a": [1.0], "b": [100.0]}
        many = {"a": [1.0] * 50, "b": [100.0]}
        assert benchstats.geomean_of_kind_medians(few) == \
            pytest.approx(benchstats.geomean_of_kind_medians(many))

    def test_one_slow_outlier_moves_only_its_kind_by_its_median(self):
        samples = {"a": [10.0, 10.0, 10.0, 5000.0], "b": [10.0]}
        assert benchstats.geomean_of_kind_medians(samples) == \
            pytest.approx(10.0)

    @pytest.mark.parametrize("samples", [
        {}, {"a": []}, {"a": [0.0, 0.0, 1.0]}, {"a": [-1.0]},
    ])
    def test_undefined_inputs_raise(self, samples):
        with pytest.raises(ValueError):
            benchstats.geomean_of_kind_medians(samples)


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        # 5 kinds x 10 = 50 pooled samples: 5 lie beyond the p90.
        samples = {k: [float(i) for i in range(10)] for k in "abcde"}
        assert benchstats.tail_percentile(samples) is None
        assert benchstats.tail_percentile(samples, min_beyond=5) is not None

    def test_reports_when_ten_lie_beyond(self):
        samples = {k: [float(i + 10 * j) for i in range(10)]
                   for j, k in enumerate("abcdefghijk")}  # 110 distinct
        value = benchstats.tail_percentile(samples)
        pooled = [v for vs in samples.values() for v in vs]
        assert value is not None
        assert sum(1 for v in pooled if v > value) >= 10
        assert value == statistics.quantiles(sorted(pooled), n=100)[89]

    def test_equal_counts_per_kind(self):
        # A kind with extra (slow) samples contributes only as many as
        # the kind with the fewest.
        base = {k: [1.0] * 11 for k in "abcdefghij"}
        base["slow"] = [1000.0] * 11
        extra = dict(base, slow=[1000.0] * 200)
        assert benchstats.tail_percentile(base) == \
            benchstats.tail_percentile(extra)

    def test_degenerate_inputs(self):
        assert benchstats.tail_percentile({}) is None
        assert benchstats.tail_percentile({"a": [1.0]}) is None
        assert benchstats.tail_percentile({"a": [1.0] * 200},
                                          fraction=1.0) is None


class TestTally:
    def test_counts_attempted_and_failed(self):
        tally = benchstats.Tally()
        assert tally.record([]) is True
        assert tally.record(["q01: wrong"]) is False
        assert tally.record([]) is True
        assert (tally.attempted, tally.failed) == (3, 1)
        assert tally.reasons == ["q01: wrong"]

    def test_an_operation_fails_once_whatever_it_broke(self):
        tally = benchstats.Tally()
        tally.record(["raised", "ended 'failed'", "answer differs"])
        assert (tally.attempted, tally.failed) == (1, 1)
        assert tally.reasons == ["raised"]

    def test_merge(self):
        a, b = benchstats.Tally(), benchstats.Tally()
        a.record([])
        b.record(["x"])
        b.record([])
        a.merge(b)
        assert (a.attempted, a.failed, a.reasons) == (3, 1, ["x"])


STATUS = """Name:\tpython3
VmPeak:\t  812345 kB
VmHWM:\t  204800 kB
VmRSS:\t  102400 kB
Threads:\t3
"""


class TestVmHwm:
    def test_parse_kb_fields_as_mib(self):
        assert benchstats.parse_status_mib(STATUS, "VmHWM") == 200.0
        assert benchstats.parse_status_mib(STATUS, "VmRSS") == 100.0

    def test_missing_field(self):
        with pytest.raises(KeyError):
            benchstats.parse_status_mib(STATUS, "VmSwap")

    def test_unexpected_unit(self):
        with pytest.raises(ValueError):
            benchstats.parse_status_mib("VmHWM:\t 12 MB\n", "VmHWM")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc")
    def test_reads_this_process(self):
        assert benchstats.read_status_mib("self", "VmHWM") > 0.0
        # One read: RSS may grow between two, but never past the peak
        # reported alongside it.
        with open(f"/proc/{os.getpid()}/status") as handle:
            text = handle.read()
        now = benchstats.parse_status_mib(text, "VmRSS")
        assert 0.0 < now <= benchstats.parse_status_mib(text, "VmHWM")


class TestSpread:
    def test_quartiles_as_statistics_gives_them(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
        q1, median, q3 = statistics.quantiles(values, n=4)
        s = benchstats.spread(values)
        assert (s["q1"], s["median"], s["q3"]) == (q1, median, q3)
        assert s["rel_spread"] == pytest.approx((q3 - q1) / median)

    def test_zero_median(self):
        assert math.isinf(benchstats.spread([0.0, 0.0, 0.0])["rel_spread"])


class TestCompare:
    def test_equal_within_tolerance(self):
        want = {"k": ["A", "B"], "v": [1.0, 2.0]}
        got = {"k": ["A", "B"], "v": [1.0 + 1e-9, 2.0]}
        assert answers.compare(got, want, "q") == []

    @pytest.mark.parametrize("got", [
        {"v": [1.0, 2.0], "k": ["A", "B"]},          # column order
        {"k": ["A", "B"], "v": [1.0, 2.1]},          # a value
        {"k": ["A", "C"], "v": [1.0, 2.0]},          # a string
        {"k": ["A"], "v": [1.0]},                    # a row
    ])
    def test_differences_are_problems(self, got):
        want = {"k": ["A", "B"], "v": [1.0, 2.0]}
        assert answers.compare(got, want, "q")

    def test_empty_reference_is_a_problem(self):
        assert answers.check_final({"v": []}, {"v": []}, None, "q")

    def test_properties(self):
        ok = answers.check_properties([0.5, 0.5, 1.0], [1, 2, 2],
                                      [("a",)] * 3, "q")
        assert ok == []
        assert answers.check_properties([0.5, 0.4, 1.0], [1, 2, 3],
                                        [("a",)] * 3, "q")
        assert answers.check_properties([0.5, 0.9], [1, 2],
                                        [("a",)] * 2, "q")
        assert answers.check_properties([0.5, 1.0], [2, 1],
                                        [("a",)] * 2, "q")
        assert answers.check_properties([0.5, 1.0], [1, 2],
                                        [("a",), ("b",)], "q")
