#!/usr/bin/env bash
# Compares a fresh run of the per-message (`hot_paths`) and end-to-end
# (`runtime_load`) benches against the committed BENCH_*.json snapshots
# (the perf trajectory scripts/bench_snapshot.sh records) and
# prints a regression table — into $GITHUB_STEP_SUMMARY when set (CI step
# summary), else to stdout.
#
# Snapshots are loaded in version order (BENCH_PR2.json < BENCH_PR10.json)
# and a later file overrides an earlier one row by row, so each row is
# compared against the newest snapshot that measured it, and the table
# names that snapshot.
#
# Non-gating by design: shared-runner timing noise must not fail a PR, so
# this script always exits 0 (except when the bench itself fails to run).
# Humans read the Δ column; anything beyond ±25% deserves a look.
#
# Usage: scripts/bench_check.sh [snapshot.json ...]   (default: every BENCH_*.json)
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "$#" -gt 0 ]]; then
    baselines=("$@")
else
    mapfile -t baselines < <(ls BENCH_*.json 2>/dev/null | sort -V)
fi
if [[ "${#baselines[@]}" -eq 0 ]]; then
    echo "bench_check: no BENCH_*.json baseline found, nothing to compare" >&2
    exit 0
fi
for f in "${baselines[@]}"; do
    [[ -f "$f" ]] || { echo "bench_check: no such snapshot: $f" >&2; exit 0; }
done

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
for bench in hot_paths runtime_load; do
    echo "== cargo bench --bench $bench (baselines: ${baselines[*]})" >&2
    cargo bench --bench "$bench" 2>/dev/null | tee /dev/stderr >>"$raw"
done

out="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
{
    echo "### Bench check vs the newest snapshot per row (non-gating)"
    echo ""
    echo "| benchmark | snapshot | baseline ns/iter | current ns/iter | Δ |"
    echo "|---|---|---:|---:|---:|"
    awk -v bases="${baselines[*]}" '
        # Load {name: ns} pairs from each snapshot in order, later files
        # overriding earlier ones (portable awk: snapshot lines look like
        # `  "bench/name": 123.4,`).
        BEGIN {
            nb = split(bases, files, " ")
            for (i = 1; i <= nb; i++) {
                while ((getline line < files[i]) > 0) {
                    if (index(line, "\"") > 0 && index(line, ":") > 0) {
                        n = split(line, a, "\"")
                        if (n >= 3) {
                            v = a[3]
                            gsub(/[:,{} \t]/, "", v)
                            if (a[2] != "" && v + 0 > 0) {
                                ref[a[2]] = v + 0
                                src[a[2]] = files[i]
                            }
                        }
                    }
                }
                close(files[i])
            }
        }
        # The criterion shim prints one `<name> <ns> ns/iter` line each.
        / ns\/iter$/ {
            name = $1
            cur = $(NF - 1)
            if (name in ref && ref[name] > 0) {
                delta = (cur - ref[name]) * 100.0 / ref[name]
                mark = (delta > 25) ? " :warning:" : ""
                printf("| %s | %s | %.1f | %s | %+.1f%%%s |\n", name, src[name], ref[name], cur, delta, mark)
            } else {
                printf("| %s | — | — | %s | new |\n", name, cur)
            }
        }
    ' "$raw"
    echo ""
} >>"$out"
echo "bench_check: table written to ${GITHUB_STEP_SUMMARY:+step summary}${GITHUB_STEP_SUMMARY:-stdout}" >&2
exit 0
