#!/usr/bin/env bash
# Runs the criterion benches (hot_paths, runtime_load, experiments,
# baseline_protocols) and writes a {bench name -> ns/iter} JSON snapshot at
# the repo root. Committed snapshots (BENCH_PR2.json onwards) form the perf
# trajectory every later optimisation PR is judged against.
#
# Usage: scripts/bench_snapshot.sh OUTPUT.json   (relative to the repo root)
set -euo pipefail
if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUTPUT.json" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

out="$1"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

for bench in hot_paths runtime_load experiments baseline_protocols; do
    echo "== cargo bench --bench $bench" >&2
    cargo bench --bench "$bench" 2>/dev/null | tee /dev/stderr >>"$raw"
done

# The criterion shim prints one `<name> <ns> ns/iter` line per benchmark.
awk '
    / ns\/iter$/ {
        if (!first_done) { printf("{"); first_done = 1 } else { printf(",") }
        printf("\n  \"%s\": %s", $1, $(NF - 1))
    }
    END { if (first_done) print "\n}"; else print "{}" }
' "$raw" >"$out"

echo "wrote $(grep -c ':' "$out") benchmark entries to $out" >&2
