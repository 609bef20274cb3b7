#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds `perfbench` (the library plus one
executable, Release) into $CARGO_TARGET_DIR or .bench_build; later runs only
re-check that build. Progress goes to stderr; the last line on stdout is the
result object the measuring program printed. A traced run also writes its
spans to <build dir>/trace_<workload>_<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("absentee_drill", "compas_drill")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} holds no source tree to build")
    log = build_dir / "perfbench_build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"configure failed, see {log}")
        jobs = str(min(4, os.cpu_count() or 1))
        result = subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                                 "-j", jobs], stdout=out, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed, see {log}")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed wants a non-negative and --seconds a positive integer")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(build_dir / f"trace_{args.workload}_{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {result.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result object")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{args.workload} printed a malformed result object")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
