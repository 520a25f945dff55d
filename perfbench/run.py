#!/usr/bin/env python3
"""Build the llsc-dbt end-to-end benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload guest-exec --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the emulator
libraries plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only rebuild
what changed. Build output goes to stderr. The binary's stdout is passed
through unchanged: its last line is the result object, the line before it
the host-noise diagnostics. Traced runs (--trace 1) also leave a Chrome
trace_event file per run in the build directory's traces/ folder.

Exits non-zero without printing a result when the build or the run fails,
for instance outside a checkout that holds the emulator's sources.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("guest-exec", "serve-snapshot-wire", "serve-cold-wire")
# A run measures for --seconds, plus set-up and, when traced, a profiled
# loop and the side probes; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (build_root / "perfbench").resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--out-dir", str(traces)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
