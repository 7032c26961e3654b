#!/usr/bin/env python3
"""Build and run the simulator's host-performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: stamp-fig2, kv-readmostly, kv-saturated, oracle-sweep (see
perfbench/README.md). The first run configures and builds the benchmark
binary from the simulator's sources under .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs rebuild only what changed.

The binary prints a provenance header, one line per pass and a metric
table; its last line is a JSON object with every metric it measured.
This script passes its output through and ends with the same object
restricted to the metrics BENCHMARK.json names for the mode:
end_to_end with --trace 0, per_layer with --trace 1. It exits non-zero
without printing a result if the sources are missing, the build or the
run fails, or a named metric is absent or carries another unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git sha when the tree is a git checkout, plus a digest of the
    sources the binary is built from (a checkout without .git still
    identifies itself)."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    sha = "no-git"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"git={sha} tree-sha256={digest.hexdigest()[:16]}"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    started = time.monotonic()
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    print(f"# build: {time.monotonic() - started:.1f} s", file=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def wanted_metrics(traced):
    """(name, unit) pairs BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if traced else "end_to_end"
    return [(metric["name"], metric["unit"]) for metric in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    env = dict(os.environ, PERFBENCH_SOURCE=source_id())
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", args.trace]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        sys.stdout.write(expired.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0:
        fail(f"benchmark exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")

    wanted = wanted_metrics(args.trace == "1")
    measured = result["metrics"]
    for name, unit in wanted:
        if name not in measured:
            fail(f"metric {name} was not measured")
        if measured[name]["unit"] != unit:
            fail(f"metric {name} has unit {measured[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
    result["metrics"] = {name: measured[name] for name, _ in wanted}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
