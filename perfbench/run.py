#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lpcta-serial|engine-disk|sharded-churn \
        --seed N --seconds S --trace 0|1

The kSPR library is compiled from the checkout's own sources (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs only re-check the build. Build output goes to stderr. The
benchmark binary's stdout is passed through, so the last line is its JSON
result. The exit code is the binary's, or 1 when the sources are missing or
the build fails.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lpcta-serial", "engine-disk", "sharded-churn")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = pathlib.Path(target)
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(out):
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: the kSPR sources (CMakeLists.txt, src/) are "
                 "not in this checkout; nothing to benchmark")
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(out), "-j", jobs]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return out / "kspr_perfbench"


def main():
    args = parse_args()
    target = build_dir()
    binary = build(target / "perfbench")
    out_dir = target / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
