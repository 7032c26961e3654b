#!/usr/bin/env python3
"""Self-check of the benchmark itself (not of the simulator).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

Runs every workload briefly, untraced and traced, on a held-out seed
(seed 1 is the one the workloads were sized on) and fails unless:

  - each run exits 0 and ends with a result whose `correct` is true,
    `failed` is 0 and `attempted` is positive;
  - every metric BENCHMARK.json names for the mode is printed, in the
    metric table and in the result, with its unit;
  - in every traced pass the layer times attributed inside simulation
    spans sum, within 1 %, to those spans' steady_clock durations;
  - the traced pass reproduces the untraced reference pass's digest,
    and that digest equals the first pass of the separate untraced run.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 7
SECONDS = 1


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(HELD_OUT_SEED), "--seconds", str(SECONDS),
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def check_output(label, code, stdout, stderr, wanted):
    errors = []
    if code != 0:
        return [f"{label}: exit status {code}: {stderr.strip()[-500:]}"]
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    if result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result['attempted']}, "
                      f"failed {result['failed']}")
    table = "\n".join(lines[:-1])
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            errors.append(f"{label}: result lacks {name} [{unit}]")
        if not re.search(rf"^{re.escape(name)} +\S+ +{re.escape(unit)}$",
                         table, re.M):
            errors.append(f"{label}: table lacks {name} [{unit}]")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        code, out, err = run(workload, "0")
        errors += check_output(f"{workload} untraced", code, out, err,
                               spec["end_to_end"])
        first = re.search(r"^pass 1: .* digest ([0-9a-f]{16})$", out, re.M)

        code, out, err = run(workload, "1")
        errors += check_output(f"{workload} traced", code, out, err,
                               spec["per_layer"])
        sums = re.findall(r"over simulation spans \(.*\): (\w+)$", out,
                          re.M)
        if not sums or any(verdict != "sums" for verdict in sums):
            errors.append(f"{workload} traced: layer times do not sum "
                          f"to the clock-measured simulate time ({sums})")
        digest = re.search(r"digest ([0-9a-f]{16}) vs untraced reference "
                           r"([0-9a-f]{16}): (\w+)$", out, re.M)
        if digest is None or digest.group(3) != "reproduced":
            errors.append(f"{workload} traced: digest not reproduced")
        elif first is None or first.group(1) != digest.group(2):
            errors.append(f"{workload}: untraced run's first-pass digest "
                          f"differs from the traced run's reference")
        print(f"{workload}: {'ok' if not errors else 'see errors'}",
              flush=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
