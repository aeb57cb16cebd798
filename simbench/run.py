#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build lands in
$CARGO_TARGET_DIR/simbench (default .bench_build/simbench); result files
(pass-0 rows, and for --trace 1 the span trace and the profile summary) go
to its results/ subdirectory. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the benchmark's:
0 when every row was checked correct, non-zero otherwise.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "simbench"


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    out = build_dir()
    if not build(out):
        print("simbench: build failed", file=sys.stderr)
        return 2
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "simbench"), *argv, "--out-dir", str(results)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"simbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
