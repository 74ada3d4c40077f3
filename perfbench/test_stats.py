"""Unit tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples: rank ceil(0.99 * 1000) = 990 leaves exactly 10.
        values = list(range(1, 1001))
        self.assertEqual(stats.tail_percentile(values), (99, 990))

    def test_falls_back_to_the_highest_percentile_with_ten_beyond(self):
        # 200 samples: p99 leaves 2, p95 leaves exactly 10.
        values = list(range(1, 201))
        self.assertEqual(stats.tail_percentile(values), (95, 190))
        # 999 samples: p99 has rank 990 and only 9 beyond it.
        values = list(range(1, 1000))
        self.assertEqual(stats.tail_percentile(values), (98, 980))

    def test_order_of_input_does_not_matter(self):
        values = list(range(1, 1001))
        shuffled = values[500:] + values[:500]
        self.assertEqual(stats.tail_percentile(shuffled),
                         stats.tail_percentile(values))

    def test_few_samples_report_the_median(self):
        self.assertEqual(stats.tail_percentile([5, 1, 3]), (50, 3))
        self.assertEqual(stats.tail_percentile([4, 1, 3, 2]), (50, 2))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = [8, 9, 10, 11, 12]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(q2, 10)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 10)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([(-1, 10, 25)]), [15])

    def test_children_are_subtracted(self):
        spans = [(-1, 0, 100), (0, 10, 30), (0, 50, 60)]
        self.assertEqual(stats.self_times(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        # Asynchronous children may overlap: their union is 10..40.
        spans = [(-1, 0, 100), (0, 10, 30), (0, 20, 40)]
        self.assertEqual(stats.self_times(spans)[0], 70)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(-1, 10, 20), (0, 5, 15), (0, 18, 30)]
        self.assertEqual(stats.self_times(spans)[0], 3)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(-1, 0, 100), (0, 0, 50), (1, 0, 20)]
        self.assertEqual(stats.self_times(spans), [50, 30, 20])


class CompletionRateTest(unittest.TestCase):
    def test_steady_completions(self):
        ends = [i * 0.01 for i in range(1, 1000)]  # 100 per second
        self.assertAlmostEqual(stats.completion_rate(ends, 0.0, 10.0), 100.0)

    def test_ends_outside_the_window_are_ignored(self):
        ends = [0.5, 1.0, 1.5, 2.0] + [-1.0, 11.0, 12.0]
        self.assertAlmostEqual(stats.completion_rate(ends, 0.0, 10.0), 2.0)

    def test_needs_two_completions(self):
        with self.assertRaises(ValueError):
            stats.completion_rate([1.0], 0.0, 10.0)


class HolWaitTest(unittest.TestCase):
    # Ops are [start, end, ok, tag]; tag 1 carries lattice-online.
    HEAVY = [0.0, 1.0, 1, 1]

    def test_shared_p99_minus_alone_p99(self):
        shared = [[0.5, 0.5 + 0.004, 1, 0]]  # 4 ms, overlaps the heavy op
        alone = [[2.0, 2.0 + 0.001, 1, 0]]   # 1 ms, after it ended
        self.assertAlmostEqual(
            run.hol_wait_ms([self.HEAVY] + shared + alone), 3.0)

    def test_an_empty_group_is_an_error(self):
        shared = [[0.5, 0.6, 1, 0]]
        with self.assertRaises(RuntimeError):
            run.hol_wait_ms([self.HEAVY] + shared)
        alone = [[2.0, 2.1, 1, 0]]
        with self.assertRaises(RuntimeError):
            run.hol_wait_ms([self.HEAVY] + alone)


class MetricListTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
