#!/usr/bin/env python3
"""Builds the job benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 jobbench/run.py --workload wc-interrupt --seed 1 --seconds 25 --trace 0
    python3 jobbench/run.py --selftest

The first run configures and builds `jobbench/` (which compiles the runtime
from `src/`) into `$CARGO_TARGET_DIR/jobbench`, or `.bench_build/jobbench` when
that variable is unset; later runs rebuild incrementally. Build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "jobbench")


def clean_env():
    # The runtime reads ITASK_* knobs from the environment; the benchmark's
    # configuration lives in its workload table alone.
    return {k: v for k, v in os.environ.items() if not k.startswith("ITASK_")}


def build():
    out = build_dir()
    env = clean_env()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # Configure again next time.
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "jobbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(out, "jobbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the result checks reject perturbed results")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")

    binary = build()
    if binary is None:
        print("jobbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir(), "work-%d" % os.getpid())
    if args.selftest:
        cmd = [binary, "--selftest", "--workdir", workdir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        sys.stdout.flush()
        return subprocess.run(cmd, env=clean_env()).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
