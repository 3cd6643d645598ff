#!/usr/bin/env bash
# Prints the line counts of the workspace crates' Rust sources: the library
# code under crates/*/src, everything under crates/ (tests and benches
# included), and crates/*/src without unit tests (each file counted only up
# to its first `#[cfg(test)]` line), so code moved into unit tests does not
# read as a reduction.  The first number is the one the roadmap tracks.
#
# Usage: scripts/loc.sh   (any working directory; resolves the repo root from
# its own location)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 | xargs -0 cat | wc -l | tr -d ' '
}

count_before_tests() {
    find "$@" -name '*.rs' -type f -print0 |
        xargs -0 awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

echo "crates/*/src: $(count crates/*/src) lines"
echo "crates/: $(count crates) lines"
echo "crates/*/src without unit tests: $(count_before_tests crates/*/src) lines"
