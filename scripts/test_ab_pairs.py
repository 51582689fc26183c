#!/usr/bin/env python3
"""Tests of scripts/ab_pairs.py's argument handling and verdict.

Run from the repository root: python3 scripts/test_ab_pairs.py
"""
import pathlib
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import ab_pairs  # noqa: E402


class ParseArgs(unittest.TestCase):
    def test_drops_only_the_leading_separator(self):
        args = ab_pairs.parse_args(
            ["--metric", "m", "--", "cmake", "--build", ".", "--", "-j4"])
        self.assertEqual(args.cmd, ["cmake", "--build", ".", "--", "-j4"])

    def test_command_without_separator(self):
        args = ab_pairs.parse_args(["--metric", "m", "true"])
        self.assertEqual(args.cmd, ["true"])

    def test_needs_a_command(self):
        with self.assertRaises(SystemExit):
            ab_pairs.parse_args(["--metric", "m", "--"])

    def test_win_share_is_not_an_option(self):
        with self.assertRaises(SystemExit):
            ab_pairs.parse_args(["--metric", "m", "--win-share", "0.5",
                                 "--", "true"])


class Verdict(unittest.TestCase):
    A = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]

    def test_nine_of_ten_wins_beyond_the_spread(self):
        b = [x + 10 for x in self.A]
        b[3] = 90
        self.assertEqual(ab_pairs.verdict(self.A, b, True)[0], 9)
        self.assertTrue(ab_pairs.verdict(self.A, b, True)[2])

    def test_eight_of_ten_wins_is_not_enough(self):
        b = [x + 10 for x in self.A]
        b[3] = b[4] = 90
        self.assertFalse(ab_pairs.verdict(self.A, b, True)[2])

    def test_gap_inside_the_spread_is_not_enough(self):
        b = [x + 1 for x in self.A]
        self.assertFalse(ab_pairs.verdict(self.A, b, True)[2])

    def test_lower_is_better(self):
        b = [x - 10 for x in self.A]
        self.assertTrue(ab_pairs.verdict(self.A, b, False)[2])


if __name__ == "__main__":
    unittest.main()
