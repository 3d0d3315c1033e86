#!/usr/bin/env bash
# Build the benchmark offline and run one workload, or all four.
#
#   benchmark/run.sh                      # all four, untraced
#   benchmark/run.sh hosp_bulk --trace 1  # one workload, traced
#   benchmark/run.sh all --quick          # whole suite in under 30 s
#
# Everything after the workload name goes to the program unchanged
# (--seed N, --seconds S, --trace 0|1, --out DIR, --quick).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"

which="${1:-all}"
[ $# -gt 0 ] && shift
if [ "$which" = all ]; then
    workloads="hosp_bulk dblp_dup_plain hosp_net_entry dblp_net_delta"
else
    workloads="$which"
fi

status=0
for w in $workloads; do
    "$bin" --workload "$w" "$@" || status=$?
done
exit $status
