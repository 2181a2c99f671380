"""Tests of the tail helper.  Run: python3 perfbench/test_stats.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        value, p, beyond = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual(p, 90.0)
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 90.0)

    def test_ten_samples_give_no_tail(self):
        self.assertIsNone(stats.tail([float(i) for i in range(10)]))

    def test_tail_climbs_with_samples(self):
        value, p, beyond = stats.tail(list(range(10000)))
        self.assertEqual(p, 99.9)
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 9989)

    def test_order_does_not_matter(self):
        samples = [float((i * 37) % 200) for i in range(200)]
        self.assertEqual(stats.tail(samples), stats.tail(sorted(samples)))


if __name__ == "__main__":
    unittest.main()
