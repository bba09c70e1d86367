#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
perfbench package (the dseq library from src/ plus the binary) under
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last stdout line is the binary's JSON result. With --trace 1
the traced batch's timeline (.bench_build/run/<workload>/trace.json) must
also pass tools/validate_trace.py, with worker spans required on the proc
backend. Exits non-zero, without a result line, when the checkout holds no
dseq sources or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
JOBS = str(min(4, os.cpu_count() or 1))
# Compiler and library temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
# A measured run must end within 180 s (the build before it may take longer).
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dist", "distributed.h")):
        sys.exit(f"perfbench: no dseq sources under {ROOT}/src")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=ENV, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS],
                   stdout=sys.stderr, env=ENV, check=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed: {e}")

    out_dir = os.path.join(BUILD, "run", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    run = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True, env=ENV, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        print(lines[-1])
        return run.returncode

    result = json.loads(lines[-1])
    if args.trace == "1":
        # The binary names the trace and how many worker processes it must
        # show: "trace: PATH require-workers K".
        trace = [l.split() for l in lines if l.startswith("trace: ")][-1]
        check = [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py")]
        if int(trace[3]) > 0:
            check += ["--require-workers", trace[3]]
        validated = subprocess.run(check + [trace[1]], stdout=subprocess.PIPE,
                                   text=True)
        print(validated.stdout.strip(), flush=True)
        if validated.returncode != 0:
            result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
