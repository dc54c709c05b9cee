#!/usr/bin/env bash
# Build the benchmark from source (offline, release) and run one workload:
#
#   bash srmbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Cargo's output goes to stderr; the last line
# of stdout is the JSON result. The build honours CARGO_TARGET_DIR and falls
# back to srmbench/target.
#
# The run is pinned to one CPU when `taskset` is available: on a small
# shared host, letting the scheduler spread the node, hub and generator
# threads over CPUs makes flood throughput swing by up to 2x between runs,
# while on one CPU it repeats within a few percent. Throughput then reads
# as the per-ADU cost of the whole pipeline on one core.
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/srmbench"
if command -v taskset >/dev/null 2>&1; then
    allowed="$(taskset -cp $$ | sed 's/.*: *//')"
    exec taskset -c "${allowed%%[,-]*}" "$bin" "$@"
fi
exec "$bin" "$@"
