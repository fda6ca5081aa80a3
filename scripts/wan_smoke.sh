#!/usr/bin/env bash
# WAN network-model smoke test (gating in CI), in two acts.
#
# Act 1 — the WAN/geo chaos family. A short seeded sweep of
# `chaos --wan`: every seed expands into a multi-region topology with
# finite-capacity uplinks and trunks, asymmetric inter-region latency,
# a reorder knob and 1–2 mid-run congestion windows that
# slash a link to ~1/8 capacity and restore it. Every run's history
# goes through the full property checker (including liveness): a plan
# whose congestion causes a false exclusion, a lost delivery or an
# order divergence exits nonzero. A second sweep composes --wan with
# --churn (crash-heavy schedules over the same topologies).
#
# Act 2 — congestion is latency, never exclusion, on the real host. A
# three-process TCP cluster with the accrual detector enabled runs a
# closed loop behind the chaos proxy, whose token bucket caps each link
# into peer 2 at 200 KB/s (`proxy --rate-kbps`). The run must complete
# with ZERO view changes (`--expect-stable` exits nonzero otherwise):
# records stalling on the capped links raise latency and suspicion
# level, and that must never be mistaken for a crash.
#
# Usage: scripts/wan_smoke.sh [path-to-newtop-exp]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/newtop-exp}"
if [[ ! -x "$BIN" ]]; then
    echo "wan_smoke: $BIN not built (cargo build --release -p newtop-harness)" >&2
    exit 2
fi

# shellcheck source=scripts/smoke_cluster.sh
source scripts/smoke_cluster.sh

# ---------------------------------------------------------------- act 1
echo "wan_smoke: act 1 — WAN/geo chaos family sweep"
"$BIN" chaos --wan --seeds 0..300 --budget-secs 600
"$BIN" chaos --wan --churn --seeds 0..150 --budget-secs 600
echo "wan_smoke: act 1 OK — congested multi-region plans checker-green"

# ---------------------------------------------------------------- act 2
echo "wan_smoke: act 2 — capped-link TCP load run, accrual, zero exclusions"
run_cluster wan_smoke "$(port_block)" \
    "--rate-kbps 200 --secs 60" \
    "--accrual" \
    "--secs 3 --window 32 --expect-stable"

echo "wan_smoke: OK — WAN family green, congestion caused zero false exclusions"
