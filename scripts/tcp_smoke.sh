#!/usr/bin/env bash
# Multi-process smoke test of the real TCP host (gating in CI).
#
# Spawns three `newtop-exp serve` processes on loopback — a 6-node /
# 2-group cluster whose every group spans all three processes — with the
# frame-level chaos proxy interposed on the links into peer 2 (2% record
# drop, 1ms jitter, and a 1.5s partition window opening 4s in). Drives
# the cluster with the closed-loop load generator over the control
# plane, then asserts:
#
#   * the load run delivered traffic (the generator exits nonzero on a
#     silent cluster), i.e. the cluster survived the partition + heal;
#   * every serve process exits 0 after `--stop-peers` (clean
#     cluster-wide teardown through the control plane).
#
# All interference resolves through the runtime's sever-and-resume path,
# so drops/partitions must never lose or duplicate a delivery — the
# in-tree integration tests (crates/harness/tests/remote_cluster.rs)
# pin the exactness property; this script pins the real-process wiring.
#
# Usage: scripts/tcp_smoke.sh [path-to-newtop-exp]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/newtop-exp}"
if [[ ! -x "$BIN" ]]; then
    echo "tcp_smoke: $BIN not built (cargo build --release -p newtop-harness)" >&2
    exit 2
fi

# shellcheck source=scripts/smoke_cluster.sh
source scripts/smoke_cluster.sh

# Fresh port block per run so parallel CI jobs don't collide. The proxy
# in front of peer 2 drops, jitters, and opens a partition window
# mid-run that heals; the closed loop runs through the partition
# (4.0s..5.5s) and keeps going after the heal; --stop-peers tears the
# cluster down at the end.
run_cluster tcp_smoke "$(port_block)" \
    "--seed 7 --drop-pct 2 --delay-ms 1 --partition-at-ms 4000 --partition-for-ms 1500 --secs 60" \
    "--omega-ms 10 --big-omega-ms 30000" \
    "--secs 8 --window 8"

echo "tcp_smoke: OK — cluster delivered through drop+partition chaos and shut down clean"
