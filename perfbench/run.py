#!/usr/bin/env python3
"""End-to-end synthesis benchmark: build, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload netsyn_list --seed 2021 \
        --seconds 15 --trace 0

Builds the netsyn library, synthd and the perfbench binary from the
checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR), then runs the
binary. Its last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. `--self-test` runs the
benchmark's arithmetic self-tests instead. Exits non-zero, without a result
line, when the sources are missing or the build fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("netsyn_list", "edit_islands", "service_durable")
RUN_TIMEOUT_S = 175


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds incrementally; build output goes to
    stderr so stdout carries only the benchmark's records."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        # The lane executor's AVX2 kernels compile in only with -mavx2; use
        # them when this CPU has AVX2 (results are identical either way).
        try:
            with open("/proc/cpuinfo") as f:
                if " avx2" in f.read():
                    cmd.append("-DCMAKE_CXX_FLAGS=-mavx2")
        except OSError:
            pass
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
           "synthd"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2021)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "core", "synthesizer.hpp")):
        log("netsyn sources not found under " + os.path.join(root, "src"))
        return 2
    os.chdir(root)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 2

    exe = os.path.join(build_dir, "perfbench")
    if args.self_test:
        return subprocess.run([exe, "--self-test"]).returncode
    cmd = [exe, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--synthd=" + os.path.join(build_dir, "synthd"),
           "--work-dir=" + os.path.join(build_root, "run-%d" % os.getpid())]
    # Its own process group, so the daemon the service workload spawns is
    # stopped with it even when the benchmark process dies.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        rc = 3
    stop_group(proc)
    return rc


def stop_group(proc):
    """Kills whatever is left in the benchmark's process group and waits until
    the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
