#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Run from the repository root:

    python3 simbench/run.py --workload exp1_unreg --seed 1 --seconds 10 --trace 0

The first call configures and builds into .bench_build/simbench (the
simulator library from src/ plus the benchmark, RelWithDebInfo); later calls
only re-check the build. The last line of standard output is the result as
one JSON object; build output and a readable summary go to standard error.
See simbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "simbench"
WORKLOADS = ("exp1_unreg", "exp1_hw", "cpu_solo", "serving_defended")
# A run must end within 180 s; leave room for process start and one
# repetition past the measured span.
RUN_DEADLINE_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to simbench/")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "simbench",
                    "-j", jobs], check=True, stdout=sys.stderr, timeout=840)
    return BUILD / "simbench"


def source_sha():
    """Hash of the simulator and benchmark sources; stands in for the commit
    in a source tree exported without git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(HERE / "reference.txt"),
           "--commit", git_commit(), "--source-sha", source_sha()]
    if args.trace:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    # The building first call may overrun RUN_DEADLINE_S; its timed part
    # still gets the measured span plus slack.
    budget = max(RUN_DEADLINE_S - (time.monotonic() - start),
                 args.seconds + 30)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=budget)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if out.returncode != 0:
        fail(f"benchmark exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed benchmark result")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
