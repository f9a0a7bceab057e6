#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 bench_e2e/run.py --workload cold_query --seed 1 --seconds 15 --trace 0

Builds bench_e2e/ (which compiles the library from src/) into
.bench_build/ on first use, runs one measurement, and passes the
benchmark's output through: human-readable lines, then one JSON result
as the last line. Exits non-zero, without a result, when the sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
WORKLOADS = ("cold_query", "fig_sweep", "warm_service")
RUN_LIMIT_S = 170


def fail(msg):
    print("bench_e2e: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "bench_e2e"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configure once, then bring the benchmark binary up to date."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(len(os.sched_getaffinity(0)))
        cmd = ["cmake", "--build", build_dir, "--target", "seqpoint_e2e",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "seqpoint_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "experiment.hh")):
        fail("no library sources under %s/src" % ROOT)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    workdir = os.path.join(build_dir, "work", str(os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed)),
           "--source", source_digest(),
           "--commit", git_commit()]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("run exceeded %d s" % RUN_LIMIT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("# wall %.1fs, exit %d" % (time.monotonic() - start,
                                     proc.returncode))
    if proc.returncode != 0:
        sys.stdout.write(lines[-1] + "\n")
        fail("benchmark exited with %d" % proc.returncode)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
