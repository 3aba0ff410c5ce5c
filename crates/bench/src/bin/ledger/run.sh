#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the program under test and the
# benchmark from source, then runs one workload.
#
#   bash crates/bench/src/bin/ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. `ledger` is the autodiscovered
# `src/bin/ledger/main.rs` bin of wms-bench, so it builds from the
# workspace's own manifests and lockfile. Both builds go to the same
# cargo target directory (CARGO_TARGET_DIR, default `target`), because
# `ledger` looks for `pegasus` beside itself. The build output goes to
# standard error; the last line on standard output is the result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -f BENCHMARK.json ]; then
    echo "run.sh: run it from the root of a checkout (no Cargo.toml or BENCHMARK.json here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --locked -p blast2cap3-pegasus --bin pegasus >&2
cargo build --release --locked -p wms-bench --bin ledger >&2
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
