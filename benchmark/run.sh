#!/usr/bin/env bash
# Build the benchmark offline and run it. Everything it writes lands in
# benchmark/out/ (and the build in benchmark/target/ unless
# CARGO_TARGET_DIR says otherwise).
#
#   benchmark/run.sh                 one full set: the six workloads, untraced
#   benchmark/run.sh --smoke         the same at 1/20 length (< 15 s), for CI
#   benchmark/run.sh trace           the traced run of every workload (per-layer ledger)
#   benchmark/run.sh selfcheck       two full sets, compared under the bounds
#   benchmark/run.sh compare A B     compare two set files
#   benchmark/run.sh --workload cluster_p1024 --seed 3    one workload, as the driver runs it
#   benchmark/run.sh test            unit tests of the benchmark's own code
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "test" ]]; then
    exec cargo test --offline --manifest-path "$manifest"
fi

# No arguments, or only flags that do not name a workload: a full set.
if [[ $# -eq 0 || ( "$1" == --* && " $* " != *" --workload "* ) ]]; then
    set -- set "$@"
fi
exec cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
