#!/usr/bin/env python3
"""Build and run the perfbench runner for one workload.

    python3 perfbench/run.py --workload suite|whatif|serve \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs one workload. The runner's last stdout line is the result JSON;
build output goes to stderr. Span and result files land in .bench_out/.
Exits nonzero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("suite", "whatif", "serve")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest(root):
    """Digest of every file the runner is built from, for the host context
    (the checkout the benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    paths.append(os.path.join(root, "bench", "kernel_suite.cpp"))
    paths.append(os.path.join(root, "bench", "kernel_suite.hpp"))
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def build(root, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        return 1

    env = dict(os.environ)
    env["PERFBENCH_COMMIT"] = git_commit(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    cmd = [os.path.join(build_dir, "pp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
