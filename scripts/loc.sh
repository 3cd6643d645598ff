#!/usr/bin/env bash
# Prints the line counts of the workspace crates' Rust sources: the library
# code under crates/*/src and everything under crates/ (tests and benches
# included).  The first number is the one the roadmap tracks.
#
# Usage: scripts/loc.sh   (any working directory; resolves the repo root from
# its own location)
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -type f -print0 | xargs -0 cat | wc -l | tr -d ' '
}

echo "crates/*/src: $(count crates/*/src) lines"
echo "crates/: $(count crates) lines"
