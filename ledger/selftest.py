#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics on synthetic inputs.

    python3 ledger/selftest.py

Covers the tail-percentile choice, CPU deltas, span self time with
nested children, the ledger-sum check, the exposition arithmetic the
per-layer metrics rest on, and the ladder's ceiling rule.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
import run  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_p99_needs_1000_samples(self):
        self.assertEqual(stats.supported_percentile(1000), 0.99)
        self.assertEqual(stats.supported_percentile(5000), 0.99)

    def test_fewer_samples_lower_the_percentile(self):
        # 200 samples: p95 is the highest with 10 beyond it
        self.assertAlmostEqual(stats.supported_percentile(200), 0.95)
        self.assertAlmostEqual(stats.supported_percentile(400), 0.975)

    def test_too_few_samples_support_no_tail(self):
        self.assertIsNone(stats.supported_percentile(19))
        with self.assertRaises(ValueError):
            stats.tail(list(range(15)))

    def test_tail_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        p, v, beyond = stats.tail(values)
        self.assertEqual(p, 0.99)
        self.assertGreaterEqual(beyond, 10)
        self.assertAlmostEqual(v, stats.quantile(values, 0.99))
        p, v, beyond = stats.tail(list(range(1, 301)))
        self.assertGreaterEqual(beyond, 10)
        self.assertLess(p, 0.99)

    def test_quantile_interpolates(self):
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(stats.quantile([5], 0.99), 5)
        self.assertEqual(stats.median([3, 1, 2]), 2)


class CpuDeltas(unittest.TestCase):
    def test_ms_per_kreq(self):
        # 1.5 s of CPU over 3000 requests: 500 ms per 1000
        self.assertAlmostEqual(stats.cpu_ms_per_kreq(10.0, 11.5, 3000), 500.0)

    def test_rejects_bad_windows(self):
        with self.assertRaises(ValueError):
            stats.cpu_ms_per_kreq(2.0, 1.0, 10)
        with self.assertRaises(ValueError):
            stats.cpu_ms_per_kreq(1.0, 2.0, 0)


def span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "rid": "", "start": start, "end": end}


class SelfTimes(unittest.TestCase):
    def test_nested_children(self):
        spans = [
            span(1, "cycle", -1, 0.0, 10.0),
            span(2, "xml.parse", 1, 1.0, 3.0),
            span(3, "exec.run", 1, 4.0, 9.0),
            span(4, "mq.inject", 3, 5.0, 6.0),  # grandchild: not the cycle's
        ]
        st = stats.self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 5.0 - 1.0)
        self.assertAlmostEqual(st[4], 1.0)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_and_overhanging_children(self):
        spans = [
            span(1, "request", -1, 0.0, 10.0),
            span(2, "ingress.gate", 1, 2.0, 5.0),
            span(3, "ingress.handler", 1, 4.0, 7.0),  # overlaps the gate
            span(4, "ingress.handler", 1, 9.0, 12.0),  # overhangs the parent
        ]
        self.assertAlmostEqual(stats.self_times(spans)[1], 10.0 - 5.0 - 1.0)

    def test_self_by_name_follows_only_the_roots(self):
        spans = [
            span(1, "timed", -1, 0.0, 4.0),
            span(2, "exec.run", 1, 0.0, 3.0),
            span(3, "setup", -1, 10.0, 12.0),
            span(4, "store.open", 3, 10.0, 11.0),
        ]
        self.assertEqual(stats.self_by_name(spans, {"timed"}), {"timed": 1.0, "exec.run": 3.0})
        totals = stats.self_by_name(spans, {"timed", "setup"})
        self.assertAlmostEqual(sum(totals.values()), 6.0)


class LedgerSum(unittest.TestCase):
    def test_within_tolerance(self):
        self.assertTrue(stats.ledger_ok(95.0, 100.0))
        self.assertTrue(stats.ledger_ok(110.0, 100.0))
        self.assertAlmostEqual(stats.ledger_gap(90.0, 100.0), 0.10)

    def test_outside_tolerance(self):
        self.assertFalse(stats.ledger_ok(85.0, 100.0))
        self.assertFalse(stats.ledger_ok(111.0, 100.0))

    def test_self_times_tile_their_roots(self):
        spans = [
            span(1, "timed", -1, 0.0, 8.0),
            span(2, "cycle", 1, 0.0, 4.0),
            span(3, "xml.parse", 2, 0.2, 1.0),
            span(4, "exec.run", 2, 1.0, 3.9),
            span(5, "cycle", 1, 4.0, 7.9),
            span(6, "exec.run", 5, 4.1, 7.9),
        ]
        self.assertAlmostEqual(sum(stats.self_by_name(spans, {"timed"}).values()), 8.0)
        # the layers (glue left out) cover 7.5 of the 8 seconds
        layers = {}
        run.ledger_metrics(layers, spans, {"timed"}, 1, 8e6)
        self.assertAlmostEqual(layers["ledger.self_sum_us_per_doc"], 7.5e6)
        self.assertTrue(stats.ledger_ok(layers["ledger.self_sum_us_per_doc"], 8e6))

    def test_time_no_layer_covers_fails_the_check(self):
        # the benchmark's glue (the root's self time) does not count for
        # the layers: half the time uncovered is a 50% gap
        layers = {}
        spans = [span(1, "timed", -1, 0.0, 1.0), span(2, "exec.run", 1, 0.0, 0.5)]
        run.ledger_metrics(layers, spans, {"timed"}, 1, 1e6)
        self.assertAlmostEqual(layers["self.exec_run_us_per_doc"], 0.5e6)
        self.assertAlmostEqual(layers["self.glue_us_per_doc"], 0.5e6)
        self.assertAlmostEqual(layers["ledger.gap_frac"], 0.5)
        self.assertFalse(stats.ledger_ok(layers["ledger.self_sum_us_per_doc"], 1e6))

    def test_every_span_name_has_a_ledger_row(self):
        with self.assertRaises(run.Unrunnable):
            run.ledger_metrics({}, [span(1, "mystery", -1, 0.0, 1.0)], {"mystery"}, 1, 1e6)


class Exposition(unittest.TestCase):
    TEXT = "\n".join([
        "# TYPE demaq_processed_total counter",
        "demaq_processed_total 12",
        'demaq_queue_wait_seconds{le="0.001",queue="a"}_bucket 2',
        'demaq_queue_wait_seconds{le="0.002",queue="a"}_bucket 4',
        'demaq_queue_wait_seconds{le="+Inf",queue="a"}_bucket 4',
        'demaq_queue_wait_seconds{queue="a"}_sum 0.005',
        'demaq_queue_wait_seconds{queue="a"}_count 4',
        'demaq_queue_wait_seconds_bucket{le="0.001",queue="b"} 0',
        'demaq_queue_wait_seconds_bucket{le="0.002",queue="b"} 4',
        'demaq_queue_wait_seconds_bucket{le="+Inf",queue="b"} 4',
        'demaq_queue_wait_seconds_sum{queue="b"} 0.007',
        'demaq_queue_wait_seconds_count{queue="b"} 4',
    ])

    def test_counters_and_labelled_histograms(self):
        m = stats.parse_exposition(self.TEXT)
        self.assertEqual(stats.counter(m, "demaq_processed_total"), 12)
        buckets = stats.histogram(m, "demaq_queue_wait_seconds")
        self.assertEqual(buckets, [(0.001, 2.0), (0.002, 8.0), (float("inf"), 8.0)])
        self.assertAlmostEqual(stats.hist_mean(m, "demaq_queue_wait_seconds"), 0.0015)
        self.assertAlmostEqual(stats.hist_quantile(buckets, 0.25), 0.001)
        self.assertAlmostEqual(stats.hist_quantile(buckets, 0.5), 0.0013333333333)

    def test_deltas(self):
        before = stats.parse_exposition("demaq_processed_total 5")
        after = stats.parse_exposition("demaq_processed_total 12")
        delta = stats.merge([before], sign=-1.0, into=after)
        self.assertEqual(stats.counter(delta, "demaq_processed_total"), 7)

    def test_empty_histogram(self):
        self.assertEqual(stats.hist_quantile([], 0.99), 0.0)
        self.assertEqual(stats.hist_mean({}, "x"), 0.0)


class Ceiling(unittest.TestCase):
    def test_highest_passing_rung(self):
        rungs = [(700, 1.0, True), (1000, 3.0, True), (1400, 90.0, False)]
        self.assertEqual(run.ceiling(rungs), 1000)

    def test_no_rung_met(self):
        self.assertEqual(run.ceiling([(700, run.EDGE_P99_LIMIT_MS * 2, False)]), 0.0)


if __name__ == "__main__":
    unittest.main()
