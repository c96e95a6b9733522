"""Smoke tests of the benchmark itself, at tiny sizes (about two minutes).

    python3 bench/smoke.py

They check that each workload prints exactly the metric names declared in
BENCHMARK.json, that a traced run gives byte-identical outputs to the
untraced one and restores every wrapped function, that exact counts repeat
between two traced processes with the same seed, that a wrong output fails
the run, that calibration takes its own time off the clock and leaves no
timer or handler behind, and that the benchmark refuses to run without the
jetcalc sources.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.5"
EXACT = ("linalg.nullspace.rows", "linalg.nullspace.cols", "linalg.nullspace.nnz",
         "linalg.nullspace.nullity")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", TINY_SECONDS, "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_every_workload_prints_the_declared_metrics(self):
        declared = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(declared, workloads.NAMES)
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in declared:
            with self.subTest(workload=name):
                plain = result(name, 3, 0)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertEqual({k: v["unit"] for k, v in plain["metrics"].items()},
                                 end_to_end)
                traced = [result(name, 3, 1) for _ in range(2)]
                for res in traced:
                    self.assertTrue(res["correct"])  # includes byte-identical outputs
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()},
                                     per_layer)
                exact = [k for k in per_layer if k.endswith(".calls") or k in EXACT]
                first, second = ({k: r["metrics"][k]["value"] for k in exact}
                                 for r in traced)
                self.assertEqual(first, second)


class Tracing(unittest.TestCase):
    def test_traced_outputs_identical_and_functions_restored(self):
        import jetcalc.cli  # noqa: F401  (every namespace the tracer patches)
        import jsonschema

        spaces = [jsonschema, *tracer._namespaces()]
        before = [dict(vars(space)) for space in spaces]
        workload, _ = workloads.make("route_agreement", 0.5)
        _, _, plain, failures = run.timed_phase([workload.build(5, 0)])
        self.assertEqual(failures, [])
        t = tracer.Tracer()
        t.install()
        try:
            self.assertFalse(t.restored())
            _, _, traced, failures = run.timed_phase([workload.build(5, 0)], t)
        finally:
            t.uninstall()
        self.assertEqual(failures, [])
        self.assertEqual(traced, plain)
        self.assertTrue(t.restored())
        after = [dict(vars(space)) for space in spaces]
        for old, new in zip(before, after):
            self.assertEqual({k: v for k, v in old.items() if new.get(k) is not v}, {})
        self.assertGreater(t.calls["hamiltonian.is_hamiltonian"], 0)


class Calibrating(unittest.TestCase):
    def test_kernel_time_is_off_the_clock_and_the_timer_is_stopped(self):
        handler = signal.getsignal(signal.SIGALRM)
        cal = calibration.Calibration()
        cal.start()
        try:
            start, clock_start = time.perf_counter(), cal.clock()
            while time.perf_counter() - start < 0.5:
                pass
            elapsed, clocked = time.perf_counter() - start, cal.clock() - clock_start
        finally:
            cal.stop()
        self.assertGreater(len(cal.samples), 5)
        self.assertAlmostEqual(clocked, elapsed - cal.stolen, delta=0.01)
        self.assertLess(clocked, elapsed)
        self.assertGreater(cal.factor(clock_start, clock_start + clocked), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


class Failures(unittest.TestCase):
    def test_a_wrong_reference_fails_the_case(self):
        workload, _ = workloads.make("corpus", 0.5)
        name = sorted(workload.reference)[0]
        workload.reference[name] += " "
        _, cases, _, failures = run.timed_phase([workload.build(1, 0)])
        self.assertEqual([label for label, _ in failures], [name])
        self.assertEqual(len(cases), len(workload.reference))

    def test_refuses_to_run_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "corpus", "--seed", "1", "--seconds", TINY_SECONDS,
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
