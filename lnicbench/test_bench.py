#!/usr/bin/env python3
"""Tests of the repository benchmark itself, at tiny sizes.

    python3 lnicbench/test_bench.py

Builds the benchmark binary the way run.py does, then checks that every workload
runs and passes its output checks, that a corrupted expected output is
caught, that traced runs reproduce the untraced simulated digest, that
spans nest with non-negative self time, that the digest is stable across
runs, that the metric names match BENCHMARK.json, and that run.py refuses
to report from a directory without the simulator sources.
"""
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
BINARY = None


def drive(workload, *extra, seed=1, trace=0):
    """Runs the binary at tiny size: (exit code, stdout lines, result)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True,
                          text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1])


def digest_of(lines):
    for line in lines:
        match = re.match(r"digest \S+ seed=\d+ ops=\d+ ([0-9a-f]{16}) \((\w+)",
                         line)
        if match:
            return match.group(1), match.group(2)
    raise AssertionError("no digest line")


def benchmark_names(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {entry["name"] for entry in spec[section]}


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()

    def test_every_workload_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = drive(workload)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]),
                                 benchmark_names("end_to_end"))
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_corrupted_expected_output_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = drive(workload, "--corrupt-expected")
                self.assertEqual(code, 1, "\n".join(lines))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_digest_stable_across_runs_and_seed_dependent(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, state = digest_of(drive(workload)[1])
                self.assertEqual(state, "identical")
                second, _ = digest_of(drive(workload)[1])
                other, _ = digest_of(drive(workload, seed=2)[1])
                self.assertEqual(first, second)
                self.assertNotEqual(first, other)

    def test_traced_run_matches_untraced_and_spans_nest(self):
        spans_dir = run.ROOT / ".bench_build" / "selftest"
        spans_dir.mkdir(parents=True, exist_ok=True)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                path = spans_dir / f"{workload}.json"
                code, lines, result = drive(workload, "--spans-out", str(path),
                                            trace=1)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertEqual(set(result["metrics"]),
                                 benchmark_names("per_layer"))
                traced, state = digest_of(lines)
                self.assertEqual(state, "identical")
                self.assertEqual(traced, digest_of(drive(workload)[1])[0])
                spans = json.loads(path.read_text())["spans"]
                names = {span["name"] for span in spans}
                for name in ("core.build", "sim.run_until", "loadgen.sink",
                             "op.complete"):
                    self.assertIn(name, names)
                for index, span in enumerate(spans):
                    self.assertGreaterEqual(span["self_ns"], 0)
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                    parent = span["parent"]
                    if parent < 0:
                        continue
                    self.assertLess(parent, index)
                    self.assertLessEqual(spans[parent]["start_ns"],
                                         span["start_ns"])
                    self.assertGreaterEqual(spans[parent]["end_ns"],
                                            span["end_ns"])

    def test_refuses_without_simulator_sources(self):
        bare = run.ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "web_open", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
