"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers self-time arithmetic on hand-made span trees, calibration against
reference units, the nearest-rank tail percentile, that every wrapped
name is put back after tracing (also when an op raises), that
BENCHMARK.json matches catalog.py, and that two traced runs of one seed
give identical counts and digests.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import catalog  # noqa: E402
from run import percentile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOAD_CLASSES  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # op [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
        spans = [
            ("op", 0.0, 10.0, -1, 0),
            ("a", 1.0, 4.0, 0, 0),
            ("c", 2.0, 3.0, 1, 0),
            ("b", 5.0, 9.0, 0, 0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_and_protruding_children(self):
        # Children [1, 5] and [3, 7] overlap, [9, 12] sticks out of [0, 10]:
        # covered is [1, 7] plus [9, 10], so self time is 10 - 7 = 3.
        spans = [
            ("p", 0.0, 10.0, -1, 0),
            ("x", 1.0, 5.0, 0, 0),
            ("y", 3.0, 7.0, 0, 0),
            ("z", 9.0, 12.0, 0, 0),
        ]
        self.assertEqual(self_times(spans)[0], 3.0)

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(self_times([("op", 2.0, 2.5, -1, 0)]), [0.5])


class CalibrationTest(unittest.TestCase):
    def test_reference_time_scales_intervals(self):
        nominal = calibrate.NOMINAL_REF_S
        self.assertEqual(calibrate.calibrate(0.3, nominal, nominal), 0.3)
        # At half speed the reference takes twice as long, and so did the op.
        self.assertAlmostEqual(calibrate.calibrate(0.2, 2 * nominal, 2 * nominal), 0.1)
        # An op that slows by only sqrt(2) when the reference slows by 2.
        self.assertAlmostEqual(
            calibrate.calibrate(0.2, 2 * nominal, 2 * nominal, 0.5), 0.2 / 2**0.5
        )

    def test_clock_calibrates_each_call_by_the_units_around_it(self):
        clock = calibrate.Clock()
        for _ in range(3):
            result, raw = clock.time(lambda x: x + 1, 1)
            self.assertEqual(result, 2)
        failure, _ = clock.time(lambda: 1 / 0)
        self.assertIsInstance(failure, ZeroDivisionError)
        calibrated = clock.calibrated()
        self.assertEqual(len(calibrated), 4)
        # max_units before the first call, one after the last.
        self.assertEqual(len(clock.samples), clock.reference.max_units + 1)
        ref = math.exp(calibrate.trimmed_mean([math.log(s) for s in clock.samples]))
        for (_, raw), value in zip(clock.calls, calibrated):
            self.assertAlmostEqual(value, calibrate.calibrate(raw, ref, ref))

    def test_window_follows_a_slow_spell(self):
        # Units 3 s apart: each call sees only the units next to it.
        nominal = calibrate.NOMINAL_REF_S
        clock = calibrate.Clock()
        clock.sample_times = [0.0, 3.0, 6.0]
        clock.samples = [nominal, nominal, 2 * nominal]
        clock.calls = [(0.5, 0.2), (3.5, 0.4)]
        first, second = clock.calibrated()
        self.assertAlmostEqual(first, 0.2)
        self.assertAlmostEqual(second, 0.4 / 2**0.5)  # geometric mean of 1 and 2
        clock.sensitivity = 0.5
        self.assertAlmostEqual(clock.calibrated()[1], 0.4 / 2**0.25)

    def test_clock_uses_its_reference_unit_and_nominal(self):
        reference = calibrate.REFERENCES["quadrature"]
        clock = calibrate.Clock(1.0, reference)
        clock.time(lambda: None)
        calibrated = clock.calibrated()
        self.assertEqual(len(clock.samples), reference.max_units + 1)
        ref = math.exp(calibrate.trimmed_mean([math.log(s) for s in clock.samples]))
        expected = calibrate.calibrate(clock.calls[0][1], ref, ref, 1.0, reference.nominal_s)
        self.assertAlmostEqual(calibrated[0], expected)
        unit = calibrate.make_quadrature_unit()
        self.assertEqual(unit(), unit())

    def test_trimmed_mean_drops_the_outer_tenths(self):
        self.assertEqual(calibrate.trimmed_mean(list(range(19)) + [1000]), 9.5)
        self.assertEqual(calibrate.trimmed_mean([4.0, 6.0]), 5.0)

    def test_workload_sensitivities_are_exponents_below_one(self):
        for name, cls in WORKLOAD_CLASSES.items():
            self.assertTrue(0 < cls.sensitivity <= 1, name)
            self.assertIn(cls.reference, calibrate.REFERENCES, name)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(200, 0, -1))
        self.assertEqual(percentile(values, 95.0), (190, 10))
        self.assertEqual(percentile(values, 50.0), (100, 100))
        self.assertEqual(percentile([3.0], 99.0), (3.0, 0))

    def test_fixed_levels_leave_ten_ops_beyond(self):
        # Ops a 25-second run reaches on the machine the levels were set on.
        typical = {"sections": 350, "roundtrip": 30, "elimination": 70, "contour": 800}
        for name, cls in WORKLOAD_CLASSES.items():
            n = typical[name]
            self.assertGreaterEqual(percentile(range(n), cls.tail_percentile)[1], 10, name)


def _bindings():
    """Every attribute of every jetfact module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "jetfact" or name.startswith("jetfact.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


class RestoreTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import jetfact.cli  # noqa: F401

        cls.jf = sys.modules

    def traced(self, fn):
        tracer = Tracer(catalog.PACKAGE, catalog.SKIP_MODULES)
        before = _bindings()
        tracer.install(catalog.TARGETS)
        self.assertTrue(tracer.patches)
        try:
            tracer.run_op(0, fn)
        finally:
            tracer.uninstall()
            after = _bindings()
            self.assertEqual(before.keys(), after.keys())
            self.assertEqual([k for k in before if before[k] is not after[k]], [])
        return tracer.take()

    def test_wrappers_cover_every_binding_and_are_removed(self):
        jetalg = self.jf["jetfact.jetalg"]
        spans, counts, _ = self.traced(
            lambda: jetalg.AlgebraPresentation(["x", "y"], ["x*y"], 4).dims()
        )
        names = {s[0] for s in spans}
        # jetalg binds lc_mul by "from ._kernels import": the build's calls
        # must still be seen.
        self.assertIn("jetalg.build", names)
        self.assertIn("kernels.lc_mul", names)
        self.assertGreater(counts.get("scalars.mul", 0), 0)

    def test_restored_when_the_op_raises(self):
        jetalg = self.jf["jetfact.jetalg"]

        def broken():
            jetalg.AlgebraPresentation(["x", "x"], [], 4)

        with self.assertRaises(ValueError):
            self.traced(broken)


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_catalog(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(doc["paths"], ["perfbench"])
        self.assertEqual(
            {w["name"]: w["why"] for w in doc["workloads"]}, catalog.WORKLOADS
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]],
            [tuple(m) for m in catalog.END_TO_END],
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
            [m[:3] for m in catalog.PER_LAYER],
        )
        for w in doc["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)


class TracedRunsRepeatTest(unittest.TestCase):
    """Two traced runs of one seed: identical counts and digests."""

    def traced_run(self, workload):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        self.assertTrue(result["correct"])
        counts = {
            name: m["value"]
            for name, m in result["metrics"].items()
            if m["unit"] in ("count", "calls/pair") or name.endswith("hit_ratio")
        }
        return counts, detail["digest"]

    def test_repeat(self):
        for workload in ("sections", "contour"):
            first = self.traced_run(workload)
            second = self.traced_run(workload)
            self.assertEqual(first, second, workload)
            self.assertTrue(any(v for v in first[0].values()), workload)


if __name__ == "__main__":
    unittest.main()
