#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload store-ycsb-a --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the store from ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr. The benchmark's own
stdout is passed through: human-readable lines, then one JSON result as the
last line. Full results (with their environment block) and trace spans are
written to .bench_out/. Exits nonzero on a build failure, a wrong value, a
lost acknowledged write or a timeout.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("store-ycsb-a", "served-ycsb-b", "served-repl-a")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def run_seconds():
    """The measured window BENCHMARK.json sets (run_seconds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then build incrementally. Returns True on success."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"]
        return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def run(cmd):
    # The shell must not change what is measured: the binary pins these
    # too, but they are dropped here as well.
    env = {k: v for k, v in os.environ.items()
           if k not in ("DSTORE_PMEM_NT", "DSTORE_REMOTE_ADDR")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the generator self-test instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no store sources at %s; run from the root of a checkout"
            % os.path.join(ROOT, "src"))
        return 2
    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 2
    if args.selftest:
        return run([os.path.join(bdir, "perfbench_selftest")])
    return run([os.path.join(bdir, "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out-dir", os.path.join(ROOT, ".bench_out"),
                "--commit", source_id()])


if __name__ == "__main__":
    sys.exit(main())
