#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (see README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      one run; the last stdout line is the result JSON
  python3 perfbench/run.py --steadiness W [--runs 10] [--first-seed 1] [--trace 0|1]
      runs W once per seed and prints each metric's median, quartiles and
      spread (interquartile range over median) against its bound
  python3 perfbench/run.py --self-test
      checks the benchmark's own arithmetic and classifier
  python3 perfbench/run.py --record W
      re-records perfbench/refs/W.tsv

The benchmark binary is built from source into .bench_build/ on first use.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rfp_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # let the next run configure afresh
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "rfp_perfbench", "-j", "4"]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0


def binary(*args, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary from the checkout root."""
    return subprocess.run([BINARY, *args], cwd=ROOT, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_args(workload, seed, seconds, trace):
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--refs", os.path.join("perfbench", "refs")]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        args += ["--trace-out", os.path.join(".bench_build", "traces",
                                             f"{workload}-seed{seed}.json")]
    return args


def steadiness(workload, runs, first_seed, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    units = {}
    for seed in range(first_seed, first_seed + runs):
        proc = binary(*run_args(workload, seed, spec["run_seconds"], trace), capture=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\nsteadiness of {workload} over {runs} runs (seeds {first_seed}.."
          f"{first_seed + runs - 1}), trace={trace}")
    print(f"{'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}      {'min':>12} {'max':>12}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:32} {units[name]:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {'' if bound is None else bound:>6} {flag:4} "
              f"{min(vals):12.6g} {max(vals):12.6g}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", metavar="WORKLOAD")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record", metavar="WORKLOAD")
    a = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        if a.self_test:
            return binary("self-test").returncode
        if a.record:
            return binary("record", "--workload", a.record, "--refs",
                          os.path.join("perfbench", "refs"), timeout=None).returncode
        if a.steadiness:
            return steadiness(a.steadiness, a.runs, a.first_seed, a.trace)
        if not a.workload:
            p.error("--workload is required")
        seconds = int(a.seconds) if float(a.seconds).is_integer() else a.seconds
        return binary(*run_args(a.workload, a.seed, seconds, a.trace)).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
