#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload nekbone-n7 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py ... --record perfbench-runs/base

Builds perfbench/ (the solver sources of src/ plus the benchmark program) into
.bench_build/perfbench with CMake, runs one workload, and passes the
program's output through.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it carries the run's context (host, seed, sizes, source id).
With --record DIR, both lines are also appended to DIR/<workload>.jsonl,
the input format of perfbench/compare.py.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def source_id():
    """Digest of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append context and result to DIR/<workload>.jsonl")
    args = parser.parse_args()

    if not build():
        return 1
    binary = os.path.join(BUILD, "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id() + " git:" + git_sha()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("workload timed out after", RUN_TIMEOUT_S, "s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        log("perfbench exited with", proc.returncode)
        return 1
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1

    if args.record:
        os.makedirs(args.record, exist_ok=True)
        path = os.path.join(args.record, args.workload + ".jsonl")
        with open(path, "a") as f:
            f.write(json.dumps({"context": context["context"], "result": result}) + "\n")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
