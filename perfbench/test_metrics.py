"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402
import run  # noqa: E402


class PercentileChoice(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(M.choose_percentile(1000), 99)
        self.assertEqual(M.choose_percentile(999), 98)

    def test_falls_to_the_highest_rung_with_ten_beyond(self):
        self.assertEqual(M.choose_percentile(500), 98)   # 10 beyond p98
        self.assertEqual(M.choose_percentile(499), 95)   # 24.95 beyond p95
        self.assertEqual(M.choose_percentile(200), 95)
        self.assertEqual(M.choose_percentile(100), 90)
        self.assertEqual(M.choose_percentile(40), 75)
        self.assertEqual(M.choose_percentile(20), 50)

    def test_too_few_samples_report_the_median(self):
        self.assertEqual(M.choose_percentile(5), 50)
        self.assertEqual(M.choose_percentile(0), 50)

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(M.percentile(samples, 50), 50)
        self.assertEqual(M.percentile(samples, 99), 99)
        self.assertEqual(M.percentile([7], 99), 7)
        self.assertEqual(M.percentile([3, 1, 2], 50), 2)
        with self.assertRaises(ValueError):
            M.percentile([], 50)

    def test_tail_reports_the_rung_used(self):
        self.assertEqual(M.tail(list(range(1, 101))), (90, 90))
        self.assertEqual(M.tail(list(range(1, 1001))), (99, 990))


class ReferenceSpeed(unittest.TestCase):
    def test_rate_on_a_slow_host_scales_up(self):
        self.assertAlmostEqual(M.at_reference_speed(100.0, 2.5e8, 5e8), 200.0)

    def test_time_on_a_fast_host_scales_up(self):
        self.assertAlmostEqual(M.at_reference_speed(2.0, 1e9, 5e8, time=True), 4.0)

    def test_host_drift_cancels(self):
        # The same program on a host running everything 30% slower.
        fast = M.at_reference_speed(300.0, 5e8, 5e8)
        slow = M.at_reference_speed(300.0 * 0.7, 5e8 * 0.7, 5e8)
        self.assertAlmostEqual(fast, slow)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(M.self_time((10, 50), []), 40)

    def test_disjoint_children(self):
        self.assertEqual(M.self_time((0, 100), [(10, 20), (30, 50)]), 70)

    def test_overlapping_children_count_once(self):
        self.assertEqual(M.self_time((0, 100), [(10, 40), (30, 60), (50, 55)]), 50)

    def test_children_clipped_to_the_span(self):
        self.assertEqual(M.self_time((10, 20), [(0, 15), (18, 30)]), 3)

    def test_fully_covered(self):
        self.assertEqual(M.self_time((0, 10), [(0, 10)]), 0)

    def test_union_length(self):
        self.assertEqual(M.union_length([(5, 6), (0, 2), (1, 3)]), 4)
        self.assertEqual(M.union_length([(0, 10)], 2, 4), 2)
        self.assertEqual(M.union_length([]), 0)


class UnattributedShare(unittest.TestCase):
    def test_residual_of_the_window(self):
        self.assertAlmostEqual(M.unattributed_share((0, 200), [(0, 100), (120, 170)]), 0.25)

    def test_nested_layer_spans_are_not_counted_twice(self):
        # campaign.cell inside campaign.run
        self.assertAlmostEqual(M.unattributed_share((0, 100), [(0, 80), (10, 20)]), 0.2)

    def test_fully_attributed(self):
        self.assertEqual(M.unattributed_share((0, 100), [(0, 100)]), 0.0)

    def test_empty_window_is_an_error(self):
        with self.assertRaises(ValueError):
            M.unattributed_share((5, 5), [])

    def test_unattributed_skips_benchmark_loop_spans(self):
        spans = [
            dict(name="bench.window", start=0, end=100, parent=-1, packet=-1),
            dict(name="bench.packet", start=0, end=50, parent=0, packet=0),
            dict(name="sdr.decode", start=5, end=45, parent=1, packet=0),
            dict(name="bench.packet", start=50, end=100, parent=0, packet=1),
            dict(name="sdr.decode", start=55, end=95, parent=3, packet=1),
        ]
        self.assertAlmostEqual(run.unattributed(spans), 0.2)


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(M.spread(values), (q3 - q1) / med)

    def test_exact_metric_has_no_spread(self):
        self.assertEqual(M.spread([5.0] * 10), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(M.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(M.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(M.worse_by(100, 80, "higher"), 0.20)


class HistogramTail(unittest.TestCase):
    def test_reads_the_chosen_rung_of_every_whole_percentile(self):
        # perfbench exports a histogram's quantile at every whole percentile.
        num = {"h.count": 100}
        num.update({"h.p%d" % p: float(p) for p in range(1, 100)})
        self.assertEqual(run.hist_tail(num, "h"), (90, 90.0))
        num["h.count"] = 5000
        self.assertEqual(run.hist_tail(num, "h"), (99, 99.0))

    def test_absent_histogram(self):
        self.assertEqual(run.hist_tail({}, "h"), (None, 0.0))


class KernelNames(unittest.TestCase):
    def raw(self, names):
        return {"num": {"kernel.%d.ii" % i: i + 1 for i in range(len(names))},
                "str": {"kernel.%d.name" % i: n for i, n in enumerate(names)}}

    def test_repeats_after_a_numbered_first_count_from_two(self):
        got = run.kernel_names(self.raw(["fft_stage1", "fft_stage", "fft_stage", "comp"]))
        self.assertEqual([n for n, _ in got],
                         ["fft_stage1", "fft_stage.2", "fft_stage.3", "comp"])

    def test_other_repeats_count_from_one(self):
        got = run.kernel_names(self.raw(["a", "a"]))
        self.assertEqual([n for n, _ in got], ["a.1", "a.2"])


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_what_run_py_reports(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
