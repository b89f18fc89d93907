#!/usr/bin/env python3
"""Build the benchmark and opald from source, then run one workload.

    python3 perfbench/run.py --workload fine --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Everything it builds or writes goes
under .bench_build/ there, including the Go build cache.  The last line of
standard output is the result JSON; WORKLOADS.md describes the workloads
and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")

BUILD_TIMEOUT = 840  # a cold build compiles the standard library too
RUN_TIMEOUT = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def build():
    """Build perfbench (its own module) and opald; exit non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "cmd", "opald")
    ):
        sys.exit("perfbench: no repository beside perfbench/ (go.mod, cmd/opald) to build")
    os.makedirs(BIN, exist_ok=True)
    steps = [
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", os.path.join(BIN, "opald"), "./cmd/opald"]),
    ]
    for cwd, cmd in steps:
        try:
            done = subprocess.run(
                cmd, cwd=cwd, env=go_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"perfbench: build failed: {e}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fine", "lod", "calibrate", "service"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "work"))
    cmd = [
        os.path.join(BIN, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-opald", os.path.join(BIN, "opald"),
        "-work", work,
    ]
    try:
        # The benchmark stops and waits for every process it starts; on a
        # timeout it is killed, and opald with it when it is mid-session.
        with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True) as p:
            try:
                code = p.wait(timeout=RUN_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.wait()
                sys.exit(f"perfbench: no result within {RUN_TIMEOUT}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
