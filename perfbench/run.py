#!/usr/bin/env python3
"""Builds the CRFS benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <ckpt_blcr|restore_blcr|tier_burst> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
that is set, otherwise to .bench_build/; backend files live under
.bench_run/ and are removed after the run. Traced runs also leave a Chrome
trace at .bench_run/trace-<workload>-<seed>.json. The last line of standard
output is the result object; the exit code is the benchmark's own (0 only
when every call and every verification succeeded).
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ckpt_blcr", "restore_blcr", "tier_burst")
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def cached_source(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures once per checkout, then lets the build tool skip what is
    up to date. Tool output goes to stderr so stdout stays the report."""
    if cached_source(build_dir) not in (None, HERE):
        shutil.rmtree(build_dir)
    if cached_source(build_dir) is None:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    started = time.monotonic()
    if not build(build_dir):
        log("build failed")
        return 2
    log(f"build ready in {time.monotonic() - started:.1f} s")

    run_root = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_root, f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(run_root, f"trace-{args.workload}-{args.seed}.json")
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir, "--trace-out", trace_out]
    try:
        # subprocess.run kills and reaps the child when the timeout fires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"benchmark exited with {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
