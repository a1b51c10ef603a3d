#!/usr/bin/env python3
"""Builds the node benchmark from source and runs one workload.

    python3 nodebench/run.py --workload node_saturated|node_realtime|sim_postmortem
                             --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release tree under .bench_build/nodebench (the repository's src/ plus the
benchmark binary in this directory); later calls rebuild incrementally.
Build output goes to standard error, so the last line of standard output
is the binary's JSON result. The exit code is the binary's: 0 only when
every correctness check passed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nodebench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "nodebench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("nodebench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "nodebench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
