# Shared by tcp_smoke.sh, crash_smoke.sh and wan_smoke.sh (sourced, not
# run): the three-process TCP cluster behind a chaos proxy that the smoke
# tests drive, and the port blocks they run it on. Expects BIN (the
# newtop-exp binary) to be set.

# Every background process, killed on exit however the script ends.
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup EXIT

# The cluster run_cluster starts, given once to every serve process and
# once to the load run that drives them.
SHAPE=(--nodes 6 --groups 2)

# Ports one block spans: run_cluster takes 7, `load --supervise` takes
# 2·procs (6 for the three serve processes crash_smoke.sh runs).
PORT_BLOCK=16

# port_block
#
# Prints the first port of a fresh block of PORT_BLOCK loopback ports, so
# parallel CI jobs rarely collide. Every block lies below 32768, under
# the kernel's usual ephemeral range (32768–60999), where an outgoing
# connection may already hold a port the cluster wants to bind.
port_block() {
    echo $((10000 + RANDOM % ((32768 - 10000) / PORT_BLOCK) * PORT_BLOCK))
}

# run_cluster NAME BASE PROXY_ARGS SERVE_ARGS LOAD_ARGS [REPORT]
#
# Starts three `serve` processes of the SHAPE cluster (every group spans
# all three) on the seven loopback ports from BASE, with the chaos proxy
# in front of peer 2's data port: peers 0 and 1 reach peer 2 only
# through it, peer 2 dials direct. Then drives the cluster with
# `load --host tcp … --stop-peers` and waits for every serve process.
# PROXY_ARGS, SERVE_ARGS and LOAD_ARGS are word-split and passed to the
# proxy, to each serve process and to the load run; the group config
# goes in SERVE_ARGS, since the serve processes own it. The load report
# is printed and, given REPORT, also written there. Returns nonzero if a
# serve process exits nonzero; a failing load run fails the caller's
# `set -e` script directly.
run_cluster() {
    local name="$1" base="$2" report="${6:-/dev/null}" proxy_args serve_args load_args
    read -ra proxy_args <<<"$3"
    read -ra serve_args <<<"$4"
    read -ra load_args <<<"$5"
    local d0="127.0.0.1:$base" d1="127.0.0.1:$((base + 1))" d2="127.0.0.1:$((base + 2))"
    local c0="127.0.0.1:$((base + 3))" c1="127.0.0.1:$((base + 4))" c2="127.0.0.1:$((base + 5))"
    local px="127.0.0.1:$((base + 6))"

    "$BIN" proxy --route "$px=$d2" "${proxy_args[@]}" &
    local proxy_pid=$!
    PIDS+=("$proxy_pid")

    local serve_pids=() me view
    for me in 0 1 2; do
        if [[ "$me" == 2 ]]; then
            view="$d0,$d1,$d2"
        else
            view="$d0,$d1,$px"
        fi
        "$BIN" serve "${SHAPE[@]}" --peers "$view" --ctrl "$c0,$c1,$c2" \
            --me "$me" "${serve_args[@]}" &
        serve_pids+=("$!")
        PIDS+=("$!")
    done

    "$BIN" load --host tcp --peers "$c0,$c1,$c2" "${SHAPE[@]}" \
        "${load_args[@]}" --stop-peers | tee "$report"

    local status=0 pid
    for pid in "${serve_pids[@]}"; do
        if ! wait "$pid"; then
            echo "$name: serve process $pid exited nonzero" >&2
            status=1
        fi
    done
    kill "$proxy_pid" 2>/dev/null || true
    PIDS=()
    return "$status"
}
