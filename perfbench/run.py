#!/usr/bin/env python3
"""Builds and runs the OpenBG performance benchmark (see perfbench/README.md).

Usage, from the repository root:
  python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/ (the repository's libraries
plus the benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later runs rebuild only what changed. Build output goes to stderr,
so the last line of stdout is always the benchmark's JSON result. Exits
non-zero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("wire_mixed", "topk_uncached", "graph_rw", "train_kge")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")
    return args


def build(root, build_dir):
    """Configures (first time) and builds the benchmark; True on success."""
    out = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.call(cmd, stdout=out, stderr=out) == 0


def commit(root):
    """The source revision, when the tree is a git checkout."""
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", commit(root)]
    try:
        # The binary's last stdout line is the result; it passes through.
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
