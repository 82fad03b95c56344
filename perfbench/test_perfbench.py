"""Self-tests of the benchmark's correctness gate, generator, speed scaling and tracer.

    python3 perfbench/test_perfbench.py      (or: python3 -m pytest perfbench)
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402


def write_run(out: Path, name: str, data: np.ndarray, header, metrics: dict):
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in data:
            fh.write(",".join(format(v, ".12g") for v in row) + "\n")
    (out / f"{name}_metrics.json").write_text(json.dumps(metrics))


class BundledCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        t = np.linspace(0.0, 10.0, 2001)
        self.header = ["t", "x1", "x2", "err1"]
        self.data = np.column_stack((t, np.sin(t), 3 + np.cos(t), 1e-3 * np.exp(-t)))
        self.metrics = {"gamma_used": 1.5, "fitted_rate": [0.5, None], "scenario": "demo",
                        "conservation_residual": 3e-14}
        good = Path(self.tmp.name) / "good"
        write_run(good, "demo", self.data, self.header, self.metrics)
        self.reference = {"csv": check.csv_summary(*check.read_csv(good / "demo.csv")),
                          "metrics": self.metrics, "svg_polylines": None}

    def run_check(self, data=None, metrics=None):
        out = Path(self.tmp.name) / "candidate"
        write_run(out, "demo", self.data if data is None else data, self.header,
                  self.metrics if metrics is None else metrics)
        return check.check_bundled(out, "demo", self.reference, svg=False)

    def test_identical_output_passes(self):
        res = self.run_check()
        self.assertTrue(res.ok, res.problems)
        self.assertEqual(res.max_rel_diff, 0.0)

    def test_roundoff_passes(self):
        res = self.run_check(data=self.data * (1 + 1e-13))
        self.assertTrue(res.ok, res.problems)
        self.assertLess(res.max_rel_diff, 1e-11)

    def test_perturbed_sampled_row_fails(self):
        data = self.data.copy()
        data[self.reference["csv"]["sample_index"][3], 1] += 1e-4
        self.assertFalse(self.run_check(data=data).ok)

    def test_perturbed_unsampled_row_fails_through_norms(self):
        data = self.data.copy()
        row = self.reference["csv"]["sample_index"][3] + 1
        data[row, 2] += 0.05
        res = self.run_check(data=data)
        self.assertFalse(res.ok)
        self.assertTrue(any("col_" in p for p in res.problems), res.problems)

    def test_perturbed_metric_fails(self):
        self.assertFalse(self.run_check(metrics={**self.metrics, "gamma_used": 1.5001}).ok)
        self.assertFalse(self.run_check(metrics={**self.metrics, "scenario": "other"}).ok)
        self.assertFalse(self.run_check(metrics={**self.metrics, "extra": 1}).ok)

    def test_tiny_metric_is_compared_on_an_absolute_floor(self):
        res = self.run_check(metrics={**self.metrics, "conservation_residual": 5e-14})
        self.assertTrue(res.ok, res.problems)

    def test_missing_or_truncated_output_fails(self):
        self.assertFalse(self.run_check(data=self.data[:-1]).ok)
        out = Path(self.tmp.name) / "empty"
        out.mkdir()
        self.assertFalse(check.check_bundled(out, "demo", self.reference, svg=False).ok)


class DiscreteWide(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.steps = workloads.WIDE_STEPS
        workloads.WIDE_STEPS = 400
        self.addCleanup(setattr, workloads, "WIDE_STEPS", self.steps)

    def test_generator_is_deterministic_and_admissible(self):
        base = Path(self.tmp.name)
        a = workloads.write_wide_scenario(7, base / "a.json").read_bytes()
        b = workloads.write_wide_scenario(7, base / "b.json").read_bytes()
        c = workloads.write_wide_scenario(8, base / "c.json").read_bytes()
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        for seed in range(10):
            workloads.check_wide_scenario(workloads.wide_scenario(seed))

    def test_check_rejects_a_bad_draw(self):
        data = workloads.wide_scenario(3)
        data["params"]["delta"] = 1.5
        with self.assertRaises(ValueError):
            workloads.check_wide_scenario(data)

    def test_independent_recurrence_matches_the_package_and_catches_perturbation(self):
        from dacsim import cli, config

        base = Path(self.tmp.name)
        scenario = workloads.write_wide_scenario(5, base / "wide.json")
        data = json.loads(scenario.read_text())
        expected = workloads.discrete_reference(data)
        code, _ = cli.execute(config.load_scenario(scenario), base / "out", quiet=True)
        self.assertEqual(code, 0)
        res = check.check_discrete(base / "out", "discrete_wide", expected)
        self.assertTrue(res.ok, res.problems)
        self.assertLess(res.max_rel_diff, 1e-9)

        csv_path = base / "out" / "discrete_wide.csv"
        lines = csv_path.read_text().splitlines()
        cells = lines[100].split(",")
        cells[5] = format(float(cells[5]) * 1.001 + 1e-3, ".12g")
        lines[100] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        self.assertFalse(check.check_discrete(base / "out", "discrete_wide", expected).ok)


class SpeedScaling(unittest.TestCase):
    def test_gated_times_are_wall_times_at_the_reference_speed(self):
        import calibrate
        import run

        slow = [2.0 * calibrate.REFERENCE_S] * 3
        samples = [{"mode": "run", "ok": True, "run_s": 8.0, "setup_s": 0.2,
                    "peak_rss_mb": 40.0, "cal_s": slow * 2},
                   {"mode": "run", "ok": False, "run_s": 1.0, "setup_s": 9.0,
                    "peak_rss_mb": 99.0, "cal_s": [1e-9] * 6},
                   {"mode": "trace", "ok": True, "run_s": 1.0, "setup_s": 9.0,
                    "peak_rss_mb": 99.0}]
        fast = [0.5 * calibrate.REFERENCE_S] * 3
        setups = [{"setup_s": 0.4, "cal_s": slow}, {"setup_s": 0.1, "cal_s": fast}]
        e2e, raw = run.e2e_metrics(samples, setups)
        self.assertAlmostEqual(raw["speed_factor"], 0.5)
        self.assertAlmostEqual(raw["setup_wall_s"], 0.2)
        self.assertAlmostEqual(e2e["run_s"], 4.0)
        self.assertAlmostEqual(e2e["setup_s"], 0.2)  # median of 0.2, 0.1 and 0.2
        self.assertEqual(e2e["peak_rss_mb"], 40.0)


class Tracing(unittest.TestCase):
    def test_self_time_and_nesting(self):
        tracer = Tracer()

        def leaf(x):
            return sum(range(x))

        traced_leaf = tracer.wrap("leaf", leaf)

        def parent(x):
            return traced_leaf(x) + traced_leaf(x)

        tracer.wrap("parent", parent)(20000)
        calls, incl, own = tracer.totals("parent")
        leaf_calls, leaf_incl, _ = tracer.totals("leaf")
        self.assertEqual((calls, leaf_calls), (1, 2))
        self.assertAlmostEqual(own, incl - leaf_incl, places=9)
        self.assertEqual(tracer.self_check(), [])
        self.assertEqual(tracer.work_counts()["calls:parent>leaf"], 2)

    def test_install_and_restore_leave_the_package_unchanged(self):
        import dacsim
        from dacsim import engine, signals

        before = (engine.integrate, dacsim.integrate, signals.InputSet.values, engine.dc1_rhs)
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(engine.integrate, before[0])
        self.assertIs(engine.integrate, dacsim.integrate)
        tracer.restore()
        after = (engine.integrate, dacsim.integrate, signals.InputSet.values, engine.dc1_rhs)
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
