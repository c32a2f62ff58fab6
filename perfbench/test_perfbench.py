#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 perfbench/test_perfbench.py
The first test builds the benchmark program through run.py.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PROGRAM = ROOT / ".bench_build" / "cmake" / "vabi_perfbench"
SECONDS = "0.3"


def run_py(*args, env=None):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, env=env, timeout=600)


def program(workload, seed=5, trace=0, inject="none"):
    """Runs the built program directly; returns (exit code, result)."""
    work = ROOT / ".bench_build" / "work"
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(PROGRAM), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--tiny",
         "--workdir", str(work), "--inject", inject],
        capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        proc = run_py("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                      SECONDS, "--tiny")
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark run failed:\n{proc.stdout}\n{proc.stderr}")

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_py("--workload", "all", "--seed", "2", "--seconds",
                          SECONDS, "--trace", str(trace), "--tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            expected = {f"{w}/{m['name']}": m["unit"]
                        for w in WORKLOADS for m in SPEC[key]}
            self.assertEqual(set(line["metrics"]), set(expected))
            for name, unit in expected.items():
                self.assertEqual(line["metrics"][name]["unit"], unit, name)
                self.assertIsInstance(line["metrics"][name]["value"], (int, float))

    def test_single_workload_line_uses_plain_metric_names(self):
        proc = run_py("--workload", "eco_10k", "--seed", "3", "--seconds",
                      SECONDS, "--tiny")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line["metrics"]),
                         {m["name"] for m in SPEC["end_to_end"]})

    def test_every_ratio_carries_its_base(self):
        for workload in WORKLOADS:
            _, result = program(workload, trace=1)
            metrics = result["metrics"]
            ratios = [n for n, m in metrics.items() if m["unit"] == "ratio"]
            self.assertTrue(ratios)
            for name in ratios:
                base = metrics[name].get("base")
                self.assertIn(base, list(metrics) + ["attempted"], name)

    def test_spans_nest_and_self_time_is_nonnegative(self):
        for workload in WORKLOADS:
            _, result = program(workload, trace=1)
            spans = {s["id"]: s for s in result["spans"]}
            self.assertTrue(spans)
            for s in spans.values():
                self.assertGreaterEqual(s["dur_us"], 0.0)
                if s["parent"] < 0:
                    continue
                parent = spans[s["parent"]]
                self.assertLessEqual(parent["start_us"], s["start_us"])
                self.assertLessEqual(s["start_us"] + s["dur_us"],
                                     parent["start_us"] + parent["dur_us"] + 1e-3)
                self.assertEqual(parent["request"], s["request"])
            for name, (count, total, own) in run.self_times(result["spans"]).items():
                self.assertGreater(count, 0)
                self.assertGreaterEqual(own, -1e-9, name)
                self.assertLessEqual(own, total + 1e-9, name)

    def test_layers_a_workload_bypasses_read_zero(self):
        for workload in WORKLOADS:
            _, result = program(workload, trace=1)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if workload != "eco_10k":
                self.assertEqual(m["cache.hits"], 0, workload)
                self.assertEqual(m["tree.apply_edit_us"], 0, workload)
            if workload == "wid_20k":
                for name in ("prune.tiled_prunes", "prune.pairs_batched",
                             "prune.prefilter_ratio"):
                    self.assertEqual(m[name], 0, name)
            if workload != "batch_table1":
                self.assertEqual(m["journal.bytes"], 0, workload)

    def test_trace_overhead_counts_spans_inside_timed_calls(self):
        for workload in WORKLOADS:
            _, result = program(workload, trace=1)
            overhead = result["metrics"]["trace.overhead_s"]["value"]
            self.assertGreater(overhead, 0, workload)
            # One kept span costs well under a millisecond.
            self.assertLess(overhead, 1e-3, workload)

    def test_injected_hash_mismatch_fails(self):
        for workload in WORKLOADS:
            code, result = program(workload, inject="hash-mismatch")
            self.assertEqual(code, 1, workload)
            self.assertGreater(result["metrics"]["failed_share"]["value"], 0, workload)
        proc = run_py("--workload", "batch_table1", "--seed", "4", "--seconds",
                      SECONDS, "--tiny", "--inject", "hash-mismatch")
        self.assertEqual(proc.returncode, 1)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"], 0)

    def test_bad_seed_reference_fails(self):
        for workload in ("wid_20k", "conf90_table1"):
            code, result = program(workload, inject="bad-seed")
            self.assertEqual(code, 1, workload)
            self.assertGreater(result["metrics"]["failed_share"]["value"], 0, workload)

    def test_counters_repeat_at_the_same_seed(self):
        for workload in WORKLOADS:
            digests = [program(workload, seed=s)[1]["context"]["counts_digest"]
                       for s in (7, 7, 8)]
            self.assertEqual(digests[0], digests[1], workload)
            self.assertNotEqual(digests[0], digests[2], workload)

    def test_context_names_the_build(self):
        _, result = program("wid_20k")
        ctx = result["context"]
        self.assertEqual(ctx["build_type"], "Release")
        self.assertTrue(ctx["ndebug"])
        for key in ("git_sha", "isa", "nproc", "threads", "seed", "solve_samples"):
            self.assertIn(key, ctx)
        self.assertEqual(ctx["threads"], min(4, ctx["nproc"]))

    def test_forced_code_path_is_refused(self):
        env = dict(os.environ, VABI_FORCE_PRUNE="tiled")
        proc = run_py("--workload", "conf90_table1", "--seed", "1", "--seconds",
                      SECONDS, "--tiny", env=env)
        self.assertEqual(proc.returncode, 3)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_fails_without_the_library_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "wid_20k",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
