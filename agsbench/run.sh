#!/usr/bin/env bash
# Builds the benchmark (release) when its sources changed, then runs it
# with the given arguments:
#
#   bash agsbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
#
# `cargo run` is not used: outside a git checkout the ags-serve build
# script's watched file (.git/HEAD) is missing, so every cargo call
# rebuilds ags-serve, ags and agsbench, seconds of compiling before each
# run. The build is skipped while a fingerprint of the sources it reads
# matches the one recorded after the last build.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-agsbench/target}"
sources=(Cargo.toml Cargo.lock src crates vendor
         agsbench/Cargo.toml agsbench/Cargo.lock agsbench/src)
fingerprint=$(find "${sources[@]}" -type f -print0 | sort -z | xargs -0 sha1sum | sha1sum)
stamp="$target/agsbench.sources"
bin="$target/release/agsbench"

if [[ ! -x "$bin" || ! -f "$stamp" || "$(cat "$stamp")" != "$fingerprint" ]]; then
    cargo build --release --offline --quiet --manifest-path agsbench/Cargo.toml >&2
    printf '%s\n' "$fingerprint" > "$stamp"
fi
exec "$bin" "$@"
