#!/usr/bin/env bash
# Builds the benchmark package and runs it from the repository root.
# Arguments go to the binary unchanged; `run.sh --help` lists them and
# README.md explains the ledger they print.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build() {
    cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
}

build
# A relative CARGO_TARGET_DIR is relative to the directory cargo ran in,
# which is this one.
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pom-benchmark"

echo "# pom-benchmark: $(rustc --version), $(nproc) cpu(s)," \
    "commit $(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
"$bin" "$@"
for arg in "$@"; do
    if [ "$arg" = "--relock" ]; then
        # The lock is compiled into the binary.
        build
    fi
done
