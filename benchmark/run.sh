#!/usr/bin/env bash
# Entry point of the benchmark: builds what a run needs, then runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh <name> [--seed <n>] [--seconds <s>] [--trace]
#   benchmark/run.sh --repeat-check        every workload twice, compared
#   benchmark/run.sh --test                the package's own tests
#
# Workloads: poisson_serial poisson_ranked strong_limit aniso_cheb
# service_batch. The last line of a run's standard output is its result as
# one JSON object; a traced run also writes benchmark/out/trace.<name>.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build output goes where the driver says, else beside it; absolute, since
# the two builds below run against different manifests.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# The proc-backend members run `spcg-rankd`, a binary of the root package.
# Without SPCG_RANKD the library would look for it next to the benchmark's
# executable, not find it, and quietly run those members on threads.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin spcg-rankd >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
export SPCG_RANKD="$target/release/spcg-rankd"

# The library binds each proc world's rendezvous socket under TMPDIR. Keep
# it inside the checkout unless that path is too long for a socket address
# (108 bytes with the file name).
sockets="$target/tmp"
if [ "${#sockets}" -gt 60 ]; then
    sockets="$(mktemp -d)"
    trap 'rm -rf "$sockets"' EXIT
fi
mkdir -p "$sockets"
export TMPDIR="$sockets"

if [ "${1:-}" = "--test" ]; then
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
else
    "$target/release/spcg-benchmark" "$@"
fi
