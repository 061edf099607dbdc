#!/usr/bin/env bash
# One-command gate: formatting, lints, static analysis, tier-1 build +
# tests, the end-to-end serving smoke tests, and a smoke run of the repo's
# one benchmark (benchmark/). Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== hublint (token + semantic rules, gated against the committed baseline) =="
# The baseline is committed empty; --diff makes any new finding — a fresh
# narrowing cast, a swallowed Result, a lock-order cycle, an unchecked
# allocation — fail the gate even if someone pads the baseline later.
cargo run -q --release -p hl-lint -- --baseline hublint-baseline.json --diff

echo "== cargo doc (no-deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1 build =="
# --workspace so every member's binaries land in target/release (the
# root package alone builds members as libs only, skipping e.g. the
# hl-shard and hlnp-fuzz bins the smokes below invoke).
cargo build --release --workspace

# The workspace suite is a strict superset of the root package's suite
# (root targets are workspace members), so one invocation covers tier-1.
echo "== workspace tests =="
cargo test --workspace -q

echo "== hlnp-fuzz (seeded, bounded) =="
# Protocol + store fuzz against a throwaway in-memory labeling: exits 1
# on any panic, wrong liveness answer, or silently-accepted corruption,
# 2 if its own wall-clock guard fires. `timeout` is the outer hang net.
timeout 240 ./target/release/hlnp-fuzz --seed 5 --iters 2000 --max-seconds 180

echo "== parallel-build smoke (~100k vertices, bounded) =="
# Exercises the hl-build batch/commit pipeline at a size the unit tests
# don't reach: a ~131k-vertex RMAT graph, 2 worker threads, degree
# order, flowing into the binary store and back out through stats.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
timeout 600 ./target/release/hubserve build "$SMOKE/parallel.hlbs" \
  --gen rmat --nodes 100000 --edges 400000 --seed 9 --threads 2 \
  --order degree
./target/release/hubserve stats "$SMOKE/parallel.hlbs" > "$SMOKE/stats.txt"
grep -q 'arena entries' "$SMOKE/stats.txt"

echo "== store format round-trip (v1 -> v2 -> v1, byte-identical) =="
# γ-coding is canonical and v2 is a verbatim arena dump, so converting
# there and back must reproduce the original file exactly — the property
# that makes `hubserve convert` safe to run on archival stores.
timeout 120 ./target/release/hubserve build "$SMOKE/rt-v1.hlbs" \
  --gen gnm --nodes 2000 --edges 6000 --seed 3
timeout 120 ./target/release/hubserve convert "$SMOKE/rt-v1.hlbs" "$SMOKE/rt-v2.hlbs" \
  --to v2 --verify-roundtrip
timeout 120 ./target/release/hubserve convert "$SMOKE/rt-v2.hlbs" "$SMOKE/rt-back.hlbs" \
  --to v1 --verify-roundtrip
cmp "$SMOKE/rt-v1.hlbs" "$SMOKE/rt-back.hlbs"
./target/release/hubserve stats "$SMOKE/rt-v2.hlbs" > "$SMOKE/rt-stats.txt"
grep -Eq 'format version +2' "$SMOKE/rt-stats.txt"
grep -q 'section offsets' "$SMOKE/rt-stats.txt"

echo "== sharded serving smoke (2 shards, routed == unsharded) =="
# Partition the round-trip store, serve each shard from its own daemon,
# and check the router's answers byte-for-byte against the unsharded
# query path — including cross-shard pairs (0 % 2 != 1 % 2).
timeout 120 ./target/release/hl-shard partition "$SMOKE/rt-v2.hlbs" "$SMOKE/shards" --shards 2
printf '0 1\n0 2\n1 3\n5 1999\n' > "$SMOKE/shard-pairs.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2.hlbs" "$SMOKE/shard-pairs.txt" \
  > "$SMOKE/unsharded.txt"
./target/release/hubserve serve "$SMOKE/shards/shard-0.hlbs" --addr 127.0.0.1:0 \
  > "$SMOKE/shard0.log" 2>&1 &
SHARD0_PID=$!
./target/release/hubserve serve "$SMOKE/shards/shard-1.hlbs" --addr 127.0.0.1:0 \
  > "$SMOKE/shard1.log" 2>&1 &
SHARD1_PID=$!
for log in "$SMOKE/shard0.log" "$SMOKE/shard1.log"; do
  for _ in $(seq 1 100); do
    grep -q '^listening on ' "$log" && break
    sleep 0.1
  done
done
ADDR0=$(sed -n 's/^listening on //p' "$SMOKE/shard0.log" | head -n 1)
ADDR1=$(sed -n 's/^listening on //p' "$SMOKE/shard1.log" | head -n 1)
timeout 120 ./target/release/hl-shard query --shard "$ADDR0" --shard "$ADDR1" \
  "$SMOKE/shard-pairs.txt" > "$SMOKE/routed.txt"
kill "$SHARD0_PID" "$SHARD1_PID"
wait "$SHARD0_PID" "$SHARD1_PID" 2>/dev/null || true
diff -u "$SMOKE/unsharded.txt" "$SMOKE/routed.txt"

echo "== compact arena smoke (v2c flavor, flat == compact answers) =="
# The v2c flavor delta-codes hub ids and narrows the distance lanes;
# converting there and back must lose nothing, and the query path must
# match the flat store line for line — on the shard pairs and on 2000
# seeded random pairs.
timeout 120 ./target/release/hubserve convert "$SMOKE/rt-v2.hlbs" "$SMOKE/rt-v2c.hlbs" \
  --to v2c --verify-roundtrip
./target/release/hubserve stats "$SMOKE/rt-v2c.hlbs" > "$SMOKE/v2c-stats.txt"
grep -q 'flavor v2c' "$SMOKE/v2c-stats.txt"
grep -q 'arena kind         compact' "$SMOKE/v2c-stats.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2c.hlbs" "$SMOKE/shard-pairs.txt" \
  > "$SMOKE/v2c-answers.txt"
diff -u "$SMOKE/unsharded.txt" "$SMOKE/v2c-answers.txt"
awk 'BEGIN { srand(7); for (i = 0; i < 2000; i++) print int(rand() * 2000), int(rand() * 2000) }' \
  > "$SMOKE/seeded-pairs.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2.hlbs" "$SMOKE/seeded-pairs.txt" \
  > "$SMOKE/seeded-v2.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2c.hlbs" "$SMOKE/seeded-pairs.txt" \
  > "$SMOKE/seeded-v2c.txt"
[ "$(wc -l < "$SMOKE/seeded-v2.txt")" -eq 2000 ]
diff -u "$SMOKE/seeded-v2.txt" "$SMOKE/seeded-v2c.txt"

echo "== benchmark smoke (the one benchmark, against this checkout's crates) =="
# benchmark/ is its own package with path dependencies on the product
# crates, so this is also the gate on the API it compiles against. The
# smoke set runs every workload briefly, checks answers against BFS and
# fails on any error; it does not compare timings.
CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke
CARGO_TARGET_DIR="$PWD/target" cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== kick-tires =="
bash scripts/kick-tires.sh

echo "check: OK"
