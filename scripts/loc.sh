#!/usr/bin/env bash
# Prints the workspace's non-test Rust lines, per crate and in total.
#
# The rule, so every count in the change log is comparable:
#   - every tracked `*.rs` under crates/, shims/ and src/ counts,
#     except files under a tests/, benches/ or examples/ directory;
#   - in each file, the non-blank lines count up to the first
#     `#[cfg(test)]` that is followed by a `mod` line: that attribute
#     line counts, the unit-test module and everything after it do not.
#
# A crate is `crates/<name>` or `shims/<name>`; `src` is the facade.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -- 'crates/*.rs' 'shims/*.rs' 'src/*.rs' \
    | grep -vE '(^|/)(tests|benches|examples)/' \
    | awk '
        {
            split($0, part, "/")
            crate = (part[1] == "src") ? "src" : part[1] "/" part[2]
            prev = ""
            while ((getline line < $0) > 0) {
                if (prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ \
                    && line ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/) break
                if (line ~ /[^[:space:]]/) lines[crate]++
                prev = line
            }
            close($0)
        }
        END { for (c in lines) print c, lines[c] }' \
    | sort \
    | awk '{ printf "%-20s %6d\n", $1, $2; total += $2 }
           END { printf "%-20s %6d\n", "total", total }'
