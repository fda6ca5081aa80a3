#!/usr/bin/env python3
"""Build and run one Newtop benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program
(perfbench/, its own Cargo package) and the `newtop-exp` serve binary
from source into $CARGO_TARGET_DIR (default: .bench_build), runs the
workload, and prints the program's result line -- one JSON object -- as
the last line of stdout. Build output and notes go to stderr.

Every process the run starts is placed in its own process group, which
is killed and waited for before this script exits, so no serve process
outlives the run.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("host_sym", "host_asym_1k", "tcp_sym", "sim_churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "newtop-harness",
         "--bin", "newtop-exp"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)


def reap_group(pgid):
    """Kills every process left in the run's group and waits for it to empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("Cargo.toml", os.path.join("crates", "harness", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(root, target_dir)
    build(root, target_dir)

    cmd = [
        os.path.join(target_dir, "release", "newtop-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-bin", os.path.join(target_dir, "release", "newtop-exp"),
        "--out", os.path.join(root, "perfbench", "out"),
    ]
    child = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(child.pid)
        child.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        reap_group(child.pid)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} printed no result (exit {child.returncode})", 5)
    for line in lines:
        print(line)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
