#!/usr/bin/env python3
"""Tests of scripts/plot_experiments.py's profile loader: it reads what
fgqos_report --profile-a/-b reads, and nothing else.

Run from the repository root: python3 scripts/test_plot_experiments.py
"""
import json
import pathlib
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import plot_experiments  # noqa: E402

PROFILE = {"tag_table_version": 1, "total_cycles": 100,
           "tags": [{"name": "tick.xbar", "count": 3, "cycles": 60},
                    {"name": "tick.dram.ch0", "count": 2, "cycles": 30}]}


class LoadProfile(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, text):
        path = pathlib.Path(self.dir.name) / name
        path.write_text(text)
        return str(path)

    def rejects(self, path):
        with self.assertRaises(SystemExit) as ctx:
            plot_experiments.load_profile(path)
        self.assertIn(f"'{path}' is not a profile.json", str(ctx.exception))

    def test_reads_a_bundle_profile(self):
        path = self.write("profile.json", json.dumps(
            {"manifest": {"seed": 1}, "profile": PROFILE}))
        tags, total = plot_experiments.load_profile(path)
        self.assertEqual(tags, {"tick.xbar": 60, "tick.dram.ch0": 30})
        self.assertEqual(total, 100)

    def test_rejects_folded_text(self):
        self.rejects(self.write("profile.folded",
                                "all;tick.xbar 60\nall;tick.dram.ch0 30\n"))

    def test_rejects_a_bare_profile_object(self):
        self.rejects(self.write("bare.json", json.dumps(PROFILE)))

    def test_rejects_a_profile_without_tags(self):
        self.rejects(self.write("notags.json",
                                json.dumps({"profile": {"total_cycles": 1}})))


if __name__ == "__main__":
    unittest.main()
