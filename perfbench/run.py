#!/usr/bin/env python3
"""Builds and runs the whole-solve benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload wid_20k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The library and the benchmark program are built from source into
.bench_build/ (Release). Each workload runs in its own process. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"} with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A traced run also writes a Chrome trace-event
file and a self-time table under .bench_build/trace/.

Exit codes: 0 all checks passed, 1 a correctness check failed, 2 build or
usage error, 3 measurement refused (non-Release build, or a VABI_FORCE_*,
VABI_THREADS or VABI_FAULT_SPEC variable set).
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
PROGRAM_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read BENCHMARK.json: {e}")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    cmake_dir = BUILD / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "vabi_perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(2, f"build failed (log: {log_path})")
    return cmake_dir / "vabi_perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_program(program, workload, args, sha):
    """Runs one workload in its own process; returns (exit code, result)."""
    work = BUILD / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work), "--git-sha", sha, "--inject", args.inject]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{workload} did not finish within {PROGRAM_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(proc.returncode or 2, f"{workload} produced no result")
    return proc.returncode, json.loads(lines[-1])


def self_times(spans):
    """Per span name: count, total and self time in seconds. A span's self
    time is its duration minus the time its child spans cover."""
    child_us = {}
    for s in spans:
        if s["parent"] >= 0:
            child_us[s["parent"]] = child_us.get(s["parent"], 0.0) + s["dur_us"]
    rows = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["dur_us"] / 1e6
        row[2] += (s["dur_us"] - child_us.get(s["id"], 0.0)) / 1e6
    return rows


def write_trace(result, seed):
    """Chrome trace-event JSON (opens in Perfetto) plus a self-time table."""
    out = BUILD / "trace"
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{result['workload']}-seed{seed}"
    events = [{"name": s["name"], "cat": s["name"].split(".")[0], "ph": "X",
               "ts": s["start_us"], "dur": s["dur_us"], "pid": 1, "tid": 1,
               "args": {"id": s["id"], "parent": s["parent"],
                        "request": s["request"]}}
              for s in result["spans"]]
    with open(f"{stem}.trace.json", "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": result["context"]}, f)
    rows = self_times(result["spans"])
    total_self = sum(r[2] for r in rows.values()) or 1.0
    lines = [f"{'span':34} {'count':>7} {'total_s':>10} {'self_s':>10} {'self%':>6}"]
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34} {count:7d} {total:10.4f} {own:10.4f} "
                     f"{100.0 * own / total_self:6.1f}")
    table = "\n".join(lines)
    with open(f"{stem}.selftime.txt", "w") as f:
        f.write(table + "\n")
    return f"{stem}.trace.json", table


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the self-tests")
    ap.add_argument("--inject", default="none",
                    choices=("none", "hash-mismatch", "bad-seed"),
                    help="corrupt an expected value, for the self-tests")
    args = ap.parse_args()
    if args.seed < 0:
        fail(2, "--seed must be >= 0")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(2, f"unknown workload {args.workload!r}; one of {names} or all")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    program = build()
    sha = git_sha()
    attempted = failed = 0
    metrics = {}
    exit_code = 0
    for workload in workloads:
        code, result = run_program(program, workload, args, sha)
        exit_code = max(exit_code, code)
        attempted += result["attempted"]
        failed += result["failed"]
        got = result["metrics"]
        print(f"== {workload}  context {json.dumps(result['context'])}")
        print(f"   failed_share {got['failed_share']['value']:.6g} "
              f"({result['failed']} of {result['attempted']} solves)")
        for failure in result["failures"]:
            print(f"   FAILED: {failure}")
        for m in wanted:
            value = got[m["name"]]
            base = f"  (base {value['base']})" if "base" in value else ""
            print(f"   {m['name']:26} {value['value']:.6g} {value['unit']}{base}")
            key = m["name"] if len(workloads) == 1 else f"{workload}/{m['name']}"
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
        if args.trace:
            path, table = write_trace(result, args.seed)
            print(f"   trace: {path}")
            print("\n".join("   " + line for line in table.splitlines()))
    print(json.dumps({"correct": exit_code == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
