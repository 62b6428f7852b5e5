#!/usr/bin/env bash
# Build eva-perfbench from the checkout this script sits in, then run it with
# the arguments given. The build is hermetic: the repository commits no
# lockfile and no vendored crates, and the crates.io registry cannot be
# reached from the benchmark's sandbox, so the eight external crates are
# replaced by the small stand-ins under shims/ (see README.md) and cargo runs
# with --offline. Where the registry resolves, plain
#   cargo run --release -p eva-perfbench -- <args>
# builds the same binary against the real crates.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
log="$target/perfbench-build.log"
if ! cargo build --release --offline --manifest-path Cargo.toml -p eva-perfbench \
    --config crates/perfbench/hermetic.toml >"$log" 2>&1; then
  cat "$log" >&2
  exit 1
fi
exec "$target/release/eva-perfbench" "$@"
