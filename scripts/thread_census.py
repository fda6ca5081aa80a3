#!/usr/bin/env python3
"""Per-thread CPU share and context-switch rates of running Newtop processes.

    scripts/thread_census.py [--interval SECONDS] [--pid PID ...]

Samples every thread of each running `newtop-exp` and `newtop-perfbench`
process (or of the processes named with --pid) twice, SECONDS apart
(default 5), and prints for each thread its share of one CPU and its
voluntary and involuntary context switches per second over the interval.
Threads are listed per process, busiest first, with a line of totals per
process and one for all of them.

It only reads files under /proc/<pid>/task/: each thread's `comm`,
`schedstat` (nanoseconds on CPU) and `status` (the context-switch
counters). It needs no privileges, changes no setting and sends no
signal, so it can watch a benchmark run from a second shell, e.g.

    python3 perfbench/run.py --workload tcp_sym --seed 1 --seconds 50 --trace 0 &
    sleep 1 && scripts/thread_census.py --interval 2

A thread that starts or exits inside the interval is left out, so keep
the interval inside one phase of the run (perfbench's `tcp_sym` starts a
fresh set of processes for each of its five rounds). Kernel
scheduler statistics must be enabled for `schedstat` to be present (they
are on the stock kernels of the common distributions).
"""

import argparse
import os
import sys
import time

# A process's main thread is named after its binary, cut to 15 bytes.
NAMES = ("newtop-exp", "newtop-perfbench"[:15])


def read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def main_name(pid):
    comm = read(f"/proc/{pid}/task/{pid}/comm")
    return comm.strip() if comm else None


def find_pids():
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and main_name(entry) in NAMES:
            pids.append(int(entry))
    return sorted(pids)


def sample(pid):
    """{tid: (name, cpu_ns, voluntary, involuntary)} for one process."""
    out = {}
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        base = f"/proc/{pid}/task/{tid}"
        comm, sched, status = read(f"{base}/comm"), read(f"{base}/schedstat"), read(f"{base}/status")
        if comm is None or sched is None or status is None:
            continue
        switches = {}
        for line in status.splitlines():
            key, _, value = line.partition(":")
            if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                switches[key] = int(value)
        out[int(tid)] = (
            comm.strip(),
            int(sched.split()[0]),
            switches.get("voluntary_ctxt_switches", 0),
            switches.get("nonvoluntary_ctxt_switches", 0),
        )
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--interval", type=float, default=5.0, help="seconds between samples")
    ap.add_argument("--pid", type=int, action="append", help="process to watch (repeatable)")
    args = ap.parse_args()
    if args.interval <= 0:
        ap.error("--interval must be positive")

    pids = args.pid or find_pids()
    if not pids:
        print("no running newtop-exp or newtop-perfbench process", file=sys.stderr)
        return 1
    before = {pid: sample(pid) for pid in pids}
    t0 = time.monotonic()
    time.sleep(args.interval)
    after = {pid: sample(pid) for pid in pids}
    secs = time.monotonic() - t0

    header = f"{'pid':>7} {'tid':>7} {'thread':<16} {'cpu%':>7} {'vcsw/s':>9} {'ivcsw/s':>9}"
    print(f"# {secs:.2f} s interval")
    print(header)
    all_cpu = all_vol = all_invol = 0.0
    for pid in pids:
        if not after[pid]:
            print(f"# process {pid} exited during the interval", file=sys.stderr)
            continue
        rows = []
        for tid, (name, cpu1, vol1, invol1) in after[pid].items():
            if tid not in before[pid]:
                continue
            _, cpu0, vol0, invol0 = before[pid][tid]
            rows.append((tid, name, (cpu1 - cpu0) / 1e9 / secs * 100,
                         (vol1 - vol0) / secs, (invol1 - invol0) / secs))
        rows.sort(key=lambda r: -r[2])
        for tid, name, cpu, vol, invol in rows:
            print(f"{pid:>7} {tid:>7} {name:<16} {cpu:>7.1f} {vol:>9.0f} {invol:>9.0f}")
        cpu, vol, invol = (sum(r[k] for r in rows) for k in (2, 3, 4))
        print(f"{pid:>7} {'':>7} {'= ' + (main_name(pid) or '?'):<16} {cpu:>7.1f} {vol:>9.0f} {invol:>9.0f}")
        all_cpu, all_vol, all_invol = all_cpu + cpu, all_vol + vol, all_invol + invol
    print(f"{'all':>7} {'':>7} {'':<16} {all_cpu:>7.1f} {all_vol:>9.0f} {all_invol:>9.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
