#!/usr/bin/env python3
"""Smoke test of the benchmark: tiny runs of every workload, fully checked.

Usage (from the repository root):
    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it runs through run.py with a tiny --seconds, so the
timed phase is its minimum of 1,024 rounds (enough for two filing crash-restarts and many
collections), and checks that:
  - the calibration line reports the paper's figures within tolerance;
  - the result is correct, with no failed op;
  - the untraced run prints exactly the end-to-end metrics and the traced run exactly
    the per-layer metrics, each with the unit BENCHMARK.json gives;
  - two runs with one seed print the same fingerprint and the same count metrics;
  - a held-out seed also passes every check.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "0.001"
SEED = "1"
HELD_OUT_SEED = "90210"


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", seed, "--seconds", SECONDS, "--trace", trace]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"FAIL {workload}: exit {result.returncode}\n{result.stderr}")
    lines = result.stdout.strip().splitlines()
    info = {line.split(":", 1)[0]: line for line in lines[:-1] if ":" in line}
    return info, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        sys.exit("FAIL " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {}
        for seed, trace in [(SEED, "0"), (SEED, "1"), (SEED, "1"), (HELD_OUT_SEED, "1")]:
            info, result = run(workload, seed, trace)
            tag = f"{workload} seed {seed} trace {trace}"
            check("-> ok;" in info.get("calibration", ""), f"{tag}: calibration drifted")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{tag}: {result['failed']} of {result['attempted']} ops failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: metric names or units differ from "
                  "BENCHMARK.json")
            runs.setdefault((seed, trace), []).append((info["fingerprint"], result))
        (first_fp, first), (second_fp, second) = runs[(SEED, "1")]
        check(first_fp == second_fp, f"{workload}: same-seed fingerprints differ:\n"
              f"  {first_fp}\n  {second_fp}")
        for name, unit in expected["1"].items():
            if unit == "count":
                check(first["metrics"][name] == second["metrics"][name],
                      f"{workload}: count metric {name} differs between same-seed runs")
        check(runs[(SEED, "0")][0][0] == first_fp,
              f"{workload}: traced and untraced runs reach different fingerprints")
        print(f"ok {workload}: {first_fp}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
