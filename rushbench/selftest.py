"""Self-tests of the benchmark's own pieces.

    python3 rushbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import streams  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(10, 0, -1))  # 10..1, unsorted on purpose
        self.assertEqual(stats.percentile(values, 50), 5)
        self.assertEqual(stats.percentile(values, 90), 9)
        self.assertEqual(stats.percentile(values, 91), 10)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile([7.5], 90), 7.5)

    def test_returns_a_sample_never_an_interpolation(self):
        self.assertEqual(stats.percentile([1, 100], 50), 1)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class SliceStatisticTest(unittest.TestCase):
    def test_fast_cost_ignores_how_long_the_host_ran_slow(self):
        cheap, dear = (1000, 1.0), (1000, 2.0)
        mostly_dear = [dear] * 6 + [cheap] * 2
        mostly_cheap = [cheap] * 6 + [dear] * 2
        self.assertEqual(stats.fast_cost(mostly_dear), 0.001)
        self.assertEqual(stats.fast_cost(mostly_cheap), 0.001)

    def test_fast_cost_weights_by_work_not_by_slice(self):
        # A quarter of 4 slices is the single cheapest one.
        slices = [(10, 5.0), (10, 1.0), (10, 9.0), (10, 2.0)]
        self.assertEqual(stats.fast_cost(slices), 0.1)
        eight = [(10, 1.0), (40, 8.0), (10, 9.0), (10, 9.0),
                 (10, 9.0), (10, 9.0), (10, 9.0), (10, 9.0)]
        self.assertEqual(stats.fast_cost(eight), 9.0 / 50)

    def test_total_rate(self):
        self.assertEqual(stats.total_rate([(50, 2.0), (150, 2.0)]), 50.0)
        with self.assertRaises(ValueError):
            stats.total_rate([])
        with self.assertRaises(ValueError):
            stats.fast_cost([])

    def test_report_slices(self):
        # (publish time, ops counted, highest seq)
        reports = [(0.0, 5, 5), (1.0, 4, 9), (2.0, 6, 15), (3.0, 10, 25),
                   (3.5, 3, 28)]
        self.assertEqual(stats.report_slices(reports, 10, skip=0),
                         [(10, 2.0, 0.0, 2.0), (10, 1.0, 2.0, 3.0)])
        self.assertEqual(stats.report_slices(reports, 10),
                         [(10, 1.0, 2.0, 3.0)])

    def test_call_slices(self):
        nops = [8, 0, 0, 8, 0, 0, 4]
        spent = [1.0, 0.5, 0.5, 1.0, 0.5, 0.5, 9.0]
        started = [0.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0]
        self.assertEqual(stats.call_slices(nops, spent, started, 16),
                         [(16, 3.0, 0.0, 5.0)])

    def test_reference_speed_rescales_each_slice_by_its_window(self):
        slices = [(10, 2.0, 0.0, 2.0), (10, 1.0, 2.0, 3.0)]

        def slowdown(start, end):
            return 2.0 if start < 1.0 else 1.0

        scaled = stats.at_reference_speed(slices, slowdown)
        self.assertEqual(scaled, [(10, 1.0), (10, 1.0)])
        self.assertEqual(stats.total_rate(scaled), 10.0)


class HostSpeedTest(unittest.TestCase):
    def test_factor_is_the_window_median_over_the_reference(self):
        import hostspeed

        ref = hostspeed.REFERENCE_S
        samples = [(0.00, ref), (0.05, 3 * ref), (0.10, 2 * ref),
                   (0.15, 2 * ref), (1.00, 9 * ref)]
        self.assertEqual(hostspeed.factor(samples, 0.0, 0.2), 2.0)
        # An empty window borrows the samples one period around it.
        self.assertEqual(hostspeed.factor(samples, 0.96, 0.98), 9.0)
        with self.assertRaises(ValueError):
            hostspeed.factor(samples, 5.0, 6.0)

    def test_probe_measures_cpu_time(self):
        import hostspeed

        self.assertGreater(hostspeed.probe_once(), 0.0)


class FreshnessMappingTest(unittest.TestCase):
    high = [3, 8, 9, 15]
    stamps = [10.0, 11.0, 12.0, 13.0]

    def test_creation_stamp_is_the_call_that_issued_the_seq(self):
        stamp = stats.creation_stamp
        self.assertEqual(stamp(self.high, self.stamps, 1), 10.0)
        self.assertEqual(stamp(self.high, self.stamps, 3), 10.0)
        self.assertEqual(stamp(self.high, self.stamps, 4), 11.0)
        self.assertEqual(stamp(self.high, self.stamps, 9), 12.0)
        self.assertEqual(stamp(self.high, self.stamps, 15), 13.0)
        with self.assertRaises(ValueError):
            stamp(self.high, self.stamps, 16)

    # (publish, ops, newest seq, cpu, drained)
    reports = [(10.5, 3, 3, 0.0, 10.5), (12.25, 6, 9, 0.0, 12.25),
               (13.5, 6, 15, 0.0, 13.5)]

    def test_freshness_uses_the_newest_counted_op(self):
        got = stats.freshness(self.reports, self.high, self.stamps,
                              not_before=0.0, speed=lambda a, b: 1.0)
        self.assertEqual(got, [0.5, 0.25, 0.5])

    def test_freshness_skips_warmup(self):
        got = stats.freshness(self.reports, self.high, self.stamps,
                              not_before=13.0, speed=lambda a, b: 1.0)
        self.assertEqual(got, [0.5])

    def test_reports_without_operations_have_no_freshness(self):
        # A final drain of lifecycle events only counts no operation.
        reports = [(10.5, 3, 3, 0.0, 10.5), (20.0, 0, 0, 0.0, 19.0)]
        got = stats.freshness(reports, self.high, self.stamps,
                              not_before=0.0, speed=lambda a, b: 1.0)
        self.assertEqual(got, [0.5])

    def test_only_the_detection_pass_is_scaled(self):
        # Waited 0.25 s for the drain, then a 0.5 s pass on a host
        # running twice as slow as the reference.
        reports = [(10.75, 3, 3, 0.0, 10.25)]
        got = stats.freshness(reports, self.high, self.stamps,
                              not_before=0.0, speed=lambda a, b: 2.0)
        self.assertEqual(got, [0.5])


class GateTest(unittest.TestCase):
    reference = [5, 3, 2, 1, 4]

    def test_equal_counts_pass(self):
        self.assertIsNone(stats.gate(list(self.reference), self.reference,
                                     require_cycles=True))

    def test_any_one_count_change_fails(self):
        for index in range(5):
            for delta in (-1, 1):
                counts = list(self.reference)
                counts[index] += delta
                self.assertIsNotNone(
                    stats.gate(counts, self.reference, require_cycles=True),
                    f"class {index} off by {delta} passed the gate")

    def test_vacuous_stream_fails_when_cycles_are_required(self):
        no_three = [4, 1, 0, 0, 0]
        self.assertIsNotNone(stats.gate(no_three, no_three,
                                        require_cycles=True))
        self.assertIsNone(stats.gate(no_three, no_three,
                                     require_cycles=False))


class StreamTest(unittest.TestCase):
    def test_same_seed_same_stream_and_seqs_increase(self):
        workload = streams.WORKLOADS["wire_sr20"]
        one = streams.make_calls(workload, 3000, "7/sat")
        two = streams.make_calls(workload, 3000, "7/sat")
        self.assertEqual(one, two)
        self.assertNotEqual(one, streams.make_calls(workload, 3000, "8/sat"))
        self.assertEqual(streams.call_ops(one), 3000)
        highs = [call[2] for call in one]
        self.assertEqual(highs, sorted(set(highs)))
        for kind, arg, high in one:
            if kind == "o":
                seqs = [op.seq for op in arg]
                self.assertEqual(seqs, sorted(seqs))
                self.assertEqual(seqs[-1], high)

    def test_reference_gate_catches_an_injected_count_change(self):
        import reference

        workload = streams.WORKLOADS["wire_sr1_exact"]
        calls = streams.make_calls(workload, 4000, "3/paced")
        exact = reference.compute(workload, calls)
        self.assertGreater(sum(exact), 0)
        # The monitor at sr=1 without MOB reproduces the checker.
        from sut import counts_list, serve_config
        from repro.core.concurrent import RushMonService

        cfg, _ = serve_config(workload)
        service = RushMonService(cfg)
        for kind, arg, seq in calls:
            if kind == "o":
                service.on_operations(arg)
            elif kind == "b":
                service.begin_buu(arg, seq)
            else:
                service.commit_buu(arg, seq)
        service.close_window()
        live = counts_list(service.counts())
        self.assertIsNone(stats.gate(live, exact, require_cycles=True))
        live[3] += 1
        self.assertIsNotNone(stats.gate(live, exact, require_cycles=True))


if __name__ == "__main__":
    unittest.main()
