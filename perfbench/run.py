#!/usr/bin/env python3
"""Build and run the host-true benchmark of the registered workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mpdata-islands --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles src/) in
Release mode under $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Build output goes to stderr. The
benchmark's own output goes to stdout and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the spans are
also written to <build dir>/spans/<workload>-seed<N>.json.

Exits non-zero, without a result line, when the sources are missing, the
build fails or the benchmark fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no icores sources next to the benchmark ({ROOT}/src)")
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if os.path.realpath(home) != os.path.realpath(HERE):
            shutil.rmtree(out_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", out_dir, "--target", "icores_perfbench",
             "-j", jobs]]
    if not os.path.isfile(cache):
        # Later builds re-run the configure step themselves when a
        # CMakeLists.txt changed.
        cmds.insert(0, ["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "icores_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--quick", action="store_true",
                    help="tiny grids and short phases (the self-test)")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.quick:
        cmd.append("--quick")
    if args.trace == "1":
        spans = os.path.join(out_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
