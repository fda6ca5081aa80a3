#!/usr/bin/env bash
# Crash-recovery smoke test (gating in CI), in two acts.
#
# Act 1 — kill-9 / restart / rejoin. `newtop-exp load --supervise`
# spawns a 6-node / 2-group cluster over three serve processes and runs
# three seeded kill -9 / restart cycles against it, mid-traffic. After
# every kill the survivors must exclude the dead members (ViewChange at
# every surviving member); after every restart the victim must rejoin
# under a fresh incarnation through the §5.3 formation path (a NEW
# group id — a former member never re-enters the group it was excluded
# from, per §3 of the paper). The supervisor asserts each rejoin
# completes and that the final per-group delivery histories agree as
# prefixes across all members; any divergence or missed rejoin exits
# nonzero. Act 1 runs twice, each on its own port block: seed 1 kills
# peer 2 every cycle (victims [2, 2, 2]), seed 2 also kills peer 1
# (victims [2, 1, 2]).
#
# Act 2 — zero false exclusions under latency spikes. A 3-process
# cluster with the accrual suspicion detector enabled runs behind the
# chaos proxy configured for *delay only* (random per-record holds up
# to 10 ms, no drops, no partitions). Latency spikes must raise
# suspicion levels, not trigger exclusions: `load --expect-stable`
# exits nonzero if any view change occurs during the run. The proxy
# holds each record from its own arrival and reads on meanwhile, so a
# hold adds latency without delaying the records behind it: delivery
# p99 reads about 11 ms with 10 ms holds. The paper assumes Ω exceeds
# the transport's delay; Ω is 4 s, far above that, and half the 8 s
# run, so a false exclusion still has time to show.
#
# Usage: scripts/crash_smoke.sh [path-to-newtop-exp]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/newtop-exp}"
if [[ ! -x "$BIN" ]]; then
    echo "crash_smoke: $BIN not built (cargo build --release -p newtop-harness)" >&2
    exit 2
fi

# shellcheck source=scripts/smoke_cluster.sh
source scripts/smoke_cluster.sh

# ---------------------------------------------------------------- act 1
for seed in 1 2; do
    echo "crash_smoke: act 1 (seed $seed) — supervised kill -9 / restart / rejoin"
    "$BIN" load --supervise --nodes 6 --groups 2 --procs 3 --cycles 3 \
        --seed "$seed" --port-base "$(port_block)"
done
echo "crash_smoke: act 1 OK — 2×3 kill/restart cycles, rejoins green"

# ---------------------------------------------------------------- act 2
echo "crash_smoke: act 2 — accrual stability under latency spikes"
# Delay-only proxy on the links into peer 2: spikes, never loss. Any
# exclusion during the run is a false one: the only interference is
# delay, and every process stays up.
run_cluster crash_smoke "$(port_block)" \
    "--seed 11 --delay-ms 10 --secs 60" \
    "--omega-ms 10 --big-omega-ms 4000 --accrual" \
    "--secs 8 --window 8 --expect-stable"

echo "crash_smoke: OK — rejoins green, zero false exclusions under latency spikes"
