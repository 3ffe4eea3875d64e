#!/usr/bin/env bash
# The whole benchmark in one command: build, then all five workloads,
# untraced and traced, results as JSON under benchmark/out/.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs K]
#
# Exits non-zero if any operation failed its correctness check, or if more
# than 5 % of a job's wall time lies outside every span (the per-layer
# breakdown is then not to be trusted). See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
