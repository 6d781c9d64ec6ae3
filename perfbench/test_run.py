"""Tests of run.py: the tail-percentile rule, metric names
and declarations, and attempted/failed accounting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import glob
import os
import re
import unittest

import run

SRC = os.path.join(run.HERE, "src")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def rust_sources():
    out = {}
    for path in glob.glob(os.path.join(SRC, "*.rs")):
        with open(path, encoding="utf-8") as f:
            out[os.path.basename(path)] = f.read()
    return out


def harness_layer_names():
    """Every per-layer name the Rust harness can emit: the string literals
    it passes to `Layers`, the simulated-count names, and the templated
    names expanded over the presets, configurations and scenarios."""
    src = rust_sources()
    names = set()
    for text in src.values():
        names |= set(re.findall(r'(?:layers|self)\.(?:add|add_ms|set)\(\s*"([^"{}]+)"', text))
        names |= set(re.findall(r'\(\s*"((?:sim|noc|mem|core)\.[a-z0-9_]+)",\s*(?:m\.|summed)', text))
    presets = re.findall(r'\("([a-z0-9_]+)", CoherenceConfig::', src["sweep.rs"] + src["traces.rs"])
    assert len(presets) == 10, presets
    block = re.search(r"SCENARIOS: \[&str; \d+\] =\s*\[([^\]]*)\]", src["litmus.rs"]).group(1)
    scenarios = re.findall(r'"([a-z0-9_]+)"', block) + ["other"]
    for p in presets:
        names.add(f"core.run_ms.{p}")
    for s in scenarios:
        names.add(f"check.explore_ms.{s}")
    return names


class TailRule(unittest.TestCase):
    def test_under_forty_samples_the_median_is_reported(self):
        value, pct, n = run.tail([5.0, 1.0, 3.0])
        self.assertEqual((value, pct, n), (3.0, 50.0, 3))
        value, pct, n = run.tail([float(i) for i in range(39)])
        self.assertEqual((value, pct, n), (19.0, 50.0, 39))

    def test_ten_samples_lie_beyond_the_tail(self):
        samples = [float(i) for i in range(1, 41)]
        value, pct, n = run.tail(list(reversed(samples)))
        self.assertEqual((value, pct, n), (30.0, 75.0, 40))
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_the_percentile_rises_with_the_sample_count(self):
        value, pct, n = run.tail([float(i) for i in range(88)])
        self.assertEqual(value, 77.0)
        self.assertAlmostEqual(pct, 100 * 78 / 88)
        self.assertEqual(n, 88)

    def test_rounds_are_whole(self):
        self.assertEqual(run.round_count(10, 4), 2)
        self.assertEqual(run.round_count(10, 16), 1)
        self.assertEqual(run.round_count(10, 0), 1)


class Declarations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec, cls.e2e, cls.layers = run.load_spec()

    def test_benchmark_json_has_exactly_the_expected_keys(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_and_units_are_restricted(self):
        seen = set()
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        self.assertFalse(run.NAME_RE.match("core.run_ms.llcWB+useL3OnWT"))
        self.assertFalse(run.NAME_RE.match("a b"))
        self.assertFalse(run.NAME_RE.match("x" * 65))

    def test_bounds_are_within_the_limit_and_setup_has_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_every_end_to_end_metric_is_printed_and_declared(self):
        raw = {"round_s": [2.0, 2.2], "setup_s": [0.1, 0.3, 0.2], "cell_ms": [1.0, 2.0],
               "round_cells": [2, 2], "round_states": [100, 110], "attempted": 4, "failed": 0,
               "errors": []}
        metrics = run.end_to_end(raw, 2048)
        self.assertEqual(set(metrics), set(self.e2e))
        line = run.result_line(raw, metrics, self.e2e)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        for name, m in line["metrics"].items():
            self.assertEqual(m["unit"], self.e2e[name][0])
            self.assertGreater(m["value"], 0, name)
        self.assertEqual(line["metrics"]["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(line["metrics"]["wall_s"]["value"], 2.1)
        self.assertEqual(line["metrics"]["states_per_s"]["value"], 50.0)
        self.assertAlmostEqual(line["metrics"]["cells_per_s"]["value"], (1.0 + 2 / 2.2) / 2)

    def test_every_harness_layer_is_declared(self):
        names = harness_layer_names()
        self.assertIn("core.run_ms.llc_write_back_l3_on_wt", names)
        self.assertIn("check.explore_ms.victim_vs_probe", names)
        self.assertIn("mem.l2_hits", names)
        self.assertIn("obs.perfetto_bytes", names)
        self.assertIn("core.ns_per_event", names)
        self.assertEqual(sorted(names - set(self.layers)), [])

    def test_every_declared_layer_is_printed(self):
        raw = {"round_s": [1.0], "cell_ms": [1.0], "layers": {"core.run_ms": 3.0},
               "traced_round_s": 1.25}
        metrics = run.per_layer(raw, self.layers)
        self.assertEqual(list(metrics), list(self.layers))
        self.assertEqual(metrics["core.run_ms"], 3.0)
        self.assertEqual(metrics["bench.trace_overhead_s"], 0.25)
        self.assertEqual(metrics["check.states"], 0.0)
        for k in run.SECTIONS:
            self.assertIn(f"bench.section_s.{k}", self.layers)
        self.assertLessEqual(set(run.FIGURE_CELLS), set(run.SECTIONS))
        self.assertEqual(sum(run.FIGURE_CELLS.values()), 120)

    def test_undeclared_metrics_are_refused(self):
        raw = {"round_s": [1.0], "cell_ms": [1.0], "layers": {"core.bogus_ms": 1.0}}
        with self.assertRaises(run.BenchError):
            run.per_layer(raw, self.layers)
        with self.assertRaises(run.BenchError):
            run.result_line({"attempted": 1, "failed": 0, "errors": []}, {"bogus": 1.0}, self.e2e)


class Accounting(unittest.TestCase):
    def test_failed_never_exceeds_attempted(self):
        _, e2e, _ = run.load_spec()
        ok = {"attempted": 10, "failed": 3, "errors": []}
        metrics = {name: 1.0 for name in e2e}
        line = run.result_line(ok, metrics, e2e)
        self.assertEqual((line["attempted"], line["failed"], line["correct"]), (10, 3, True))
        for bad in ({"attempted": 0, "failed": 0}, {"attempted": 2, "failed": 3}):
            with self.assertRaises(run.BenchError):
                run.result_line(dict(bad, errors=[]), metrics, e2e)
        line = run.result_line({"attempted": 1, "failed": 0, "errors": ["x"]}, metrics, e2e)
        self.assertFalse(line["correct"])

    def test_repro_all_sections_are_tallied(self):
        every = list(run.SECTIONS)
        self.assertEqual(run.tally(every, 0), (len(every), 0))
        self.assertEqual(run.tally(every, 101), (len(every), 1))
        self.assertEqual(run.tally(every[:3], 101), (len(every), len(every) - 2))
        self.assertEqual(run.tally([], 1), (len(every), len(every)))


class ReproAllOutput(unittest.TestCase):
    LINES = [
        (0.01, "====="), (0.01, "Table II: caches"), (0.01, "====="), (0.02, ""),
        (0.02, "====="), (0.02, "Table III: system"), (0.02, "====="), (0.03, ""),
        (0.03, "====="), (0.03, "Figure 6: tracking"), (0.03, "====="),
        (2.00, "bench            owner%        sharers%"),
        (2.00, "cedd              20.31           20.31"),
        (2.00, "sc                63.58           63.58"),
        (2.00, "----------------"),
        (2.00, "average (sharer tracking): +41.95%  (paper: +14.40%)"),
        (2.01, ""),
        (3.50, "====="), (3.50, "Workload characterization (§V): mix"), (3.50, "====="),
        (3.60, "bench cycles"), (3.61, ""),
    ]

    def test_sections_start_where_the_previous_output_ends(self):
        secs = run.sections_of(self.LINES)
        self.assertEqual([k for k, _ in secs], ["tables", "fig6", "characterize"])
        self.assertEqual([t for _, t in secs], [0.01, 0.03, 2.01])

    def test_figure_rows_are_compared_token_by_token(self):
        lines = [l for _, l in self.LINES]
        rows, avg = run.table_rows(lines, "Figure 6:")
        self.assertEqual(rows, [["cedd", "20.31", "20.31"], ["sc", "63.58", "63.58"]])
        self.assertEqual(avg, "+41.95")
        fig67 = {"fig6": rows, "fig6_avg": "+41.95", "fig7": None, "fig7_avg": None}
        errors = run.check_figures(lines, fig67)
        self.assertEqual(len(errors), 0)
        fig67["fig6"] = [["cedd", "20.31", "20.30"], ["sc", "63.58", "63.58"]]
        self.assertEqual(len(run.check_figures(lines, fig67)), 1)


if __name__ == "__main__":
    unittest.main()
