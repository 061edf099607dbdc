#!/usr/bin/env bash
# One-command gate: formatting, lints, static analysis, tier-1 build +
# tests, the end-to-end serving smoke tests, and a smoke run of the repo's
# one benchmark (benchmark/). Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the lint self-test and the serving smokes; any daemon
# a failed smoke leaves behind goes with it.
SMOKE=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== library invariants (stock lints, library targets only) =="
# The one place these are listed: library code never panics on purpose,
# never prints, never exits the process and never reaches for `unsafe`
# (bins, tests, benches and examples may). A justified exception is an
# `#[expect(<lint>, reason = "...")]` at its site; one that stops firing
# fails the all-targets run above as an unfulfilled expectation.
LIB_LINTS=(-D unsafe_code
  -D clippy::unwrap_used -D clippy::expect_used
  -D clippy::panic -D clippy::todo -D clippy::unimplemented
  -D clippy::print_stdout -D clippy::print_stderr -D clippy::dbg_macro
  -D clippy::exit)
cargo clippy --workspace --lib -- "${LIB_LINTS[@]}"

echo "== library invariants self-test (the same list rejects a violating crate) =="
mkdir -p "$SMOKE/lintcheck/src"
printf '[workspace]\n[package]\nname = "lintcheck"\nversion = "0.0.0"\nedition = "2021"\n' \
  > "$SMOKE/lintcheck/Cargo.toml"
cat > "$SMOKE/lintcheck/src/lib.rs" <<'RS'
pub fn panics(x: Option<u32>) -> u32 {
    x.unwrap()
}
pub fn prints() {
    println!("hello");
}
pub fn exits() {
    std::process::exit(2);
}
pub fn unsafe_block() {
    unsafe {}
}
RS
if CARGO_TARGET_DIR="$SMOKE/lintcheck/target" cargo clippy --offline \
  --manifest-path "$SMOKE/lintcheck/Cargo.toml" --lib -- "${LIB_LINTS[@]}" \
  2> "$SMOKE/lintcheck.err"; then
  echo "check: FAIL — the library lint list accepted unwrap/println/exit/unsafe" >&2
  exit 1
fi
for lint in unsafe-code clippy::unwrap-used clippy::print-stdout clippy::exit; do
  if ! grep -qF -- "\`-D $lint\`" "$SMOKE/lintcheck.err"; then
    echo "check: FAIL — the library lint list did not report $lint" >&2
    exit 1
  fi
done

echo "== hublint (the four decode-path dataflow rules) =="
cargo run -q --release -p hl-lint

echo "== connection purity (conn.rs: no socket, channel or clock read; server.rs: no protocol state) =="
# What a connection may do is decided in one socket-free file, so it can
# be enumerated and run on a virtual clock; the loop around it only
# moves bytes. Ten seconds here keeps both halves that way.
if sed '/^#\[cfg(test)\]/,$d' crates/net/src/conn.rs |
  grep -nE 'std::(net|io|os|thread|sync::mpsc)|Instant::now|SystemTime|hl_sys|sleep'; then
  echo "check: FAIL — crates/net/src/conn.rs must stay free of sockets, channels and clock reads" >&2
  exit 1
fi
if grep -nwE 'rbuf|pending|inflight|frame_started|write_stalled|close_after_flush|read_closed' \
  crates/net/src/server.rs; then
  echo "check: FAIL — per-connection protocol state belongs in crates/net/src/conn.rs" >&2
  exit 1
fi

echo "== one label representation (no nested type, no text label format) =="
# A labeling is the FlatLabeling arena, read through LabelingView; the
# per-vertex types and hl_core::io stay deleted.
if grep -rnE 'HubLabeling|\bHubLabel\b|core::io' crates src tests examples; then
  echo "check: FAIL — the nested label types / text label format are back" >&2
  exit 1
fi

echo "== PLL is written once (the pruned search lives in hl_core::pll only) =="
# hl-build and approx.rs drive hl_core::pll's kernel; a queue or a heap
# in either is a seventh copy of the search.
if grep -rnE 'VecDeque|BinaryHeap' crates/build/src crates/core/src/approx.rs ||
  ls crates/build/src/wave.rs crates/build/src/committed.rs 2>/dev/null; then
  echo "check: FAIL — a pruned search outside crates/core/src/pll.rs" >&2
  exit 1
fi

echo "== one served arena (every store mounts as FlatLabeling) =="
# v2c is a storage codec like v1 γ: its lanes expand at mount, and the
# engine joins the flat arena with no arena enum on the way.
if grep -rn 'ServedLabeling' crates src tests examples || [ -e crates/server/src/served.rs ]; then
  echo "check: FAIL — a second served arena is back" >&2
  exit 1
fi

echo "== docs/THEOREM_MAP.md cites files that exist =="
# The character class admits no shell syntax but the `{a,b}.rs` lists the
# map uses, which `eval echo` expands.
for cited in $(grep -oE 'crates/[A-Za-z0-9_./{},-]+' docs/THEOREM_MAP.md | sort -u); do
  for path in $(eval echo "$cited"); do
    if [ ! -e "$path" ]; then
      echo "check: FAIL — docs/THEOREM_MAP.md cites missing $path" >&2
      exit 1
    fi
  done
done

echo "== cargo doc (no-deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1 build (locked, offline: path dependencies only) =="
# A registry or git dependency shows up as a `source =` line in the lock
# file, and one not yet locked fails `--locked --offline`.
if grep -n '^source = ' Cargo.lock benchmark/Cargo.lock; then
  echo "check: FAIL — the workspace builds from path dependencies only" >&2
  exit 1
fi
# --workspace so every member's binaries land in target/release (the
# root package alone builds members as libs only, skipping e.g. the
# hl-shard and hlnp-fuzz bins the smokes below invoke).
cargo build --release --workspace --locked --offline
# benchmark/ is frozen and compiles against the product API: a break
# fails here, in seconds, not after the fuzz run and every smoke.
CARGO_TARGET_DIR="$PWD/target" cargo check --offline --manifest-path benchmark/Cargo.toml

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
# order, flowing into the binary store, back in through the AnyStore
# mount path against Dijkstra from 2 sources (a wrong answer exits 1),
# and out through stats.
timeout 600 ./target/release/hubserve build "$SMOKE/parallel.hlbs" \
  --gen rmat --nodes 100000 --edges 400000 --seed 9 --threads 2 \
  --order degree --verify 2
./target/release/hubserve stats "$SMOKE/parallel.hlbs" > "$SMOKE/stats.txt"
grep -q 'arena entries' "$SMOKE/stats.txt"

echo "== store format round-trip (built v2 -> v1 -> v2, byte-identical) =="
# v2 is a verbatim arena dump and γ-coding is canonical, so converting
# there and back must reproduce the built file exactly — the property
# that makes `hubserve convert` safe to run on archival stores. Two graph
# shapes: the gnm store also feeds the 2-shard and v2c smokes below, the
# grid store the 3-shard one.
roundtrip() { # roundtrip <name> <hubserve build --gen arguments...>
  local name=$1
  shift
  timeout 120 ./target/release/hubserve build "$SMOKE/$name-v2.hlbs" --gen "$@"
  timeout 120 ./target/release/hubserve convert "$SMOKE/$name-v2.hlbs" "$SMOKE/$name-v1.hlbs" \
    --to v1 --verify-roundtrip
  timeout 120 ./target/release/hubserve convert "$SMOKE/$name-v1.hlbs" "$SMOKE/$name-back.hlbs" \
    --to v2 --verify-roundtrip
  cmp "$SMOKE/$name-v2.hlbs" "$SMOKE/$name-back.hlbs"
}
roundtrip rt gnm --nodes 2000 --edges 6000 --seed 3
roundtrip grid grid --nodes 2500 --seed 13
./target/release/hubserve stats "$SMOKE/rt-v2.hlbs" > "$SMOKE/rt-stats.txt"
grep -Eq 'format version +2' "$SMOKE/rt-stats.txt"
grep -q 'section offsets' "$SMOKE/rt-stats.txt"

echo "== arena width (the served arena is 8 bytes an entry) =="
# offsets are 8 bytes a vertex (plus one), each entry a u32 hub and a u32
# distance; a distance lane widened back to u64 makes this 8(n+1) + 12e.
awk '/^  nodes /{n=$2} /^  arena entries /{e=$3} /^  arena heap bytes /{h=$4}
  END {
    if (e == 0 || h != 8 * (n + 1) + 8 * e) {
      printf "check: FAIL — arena heap bytes %s != 8(n+1) + 8e = %d\n", h, 8 * (n + 1) + 8 * e > "/dev/stderr"
      exit 1
    }
  }' "$SMOKE/rt-stats.txt"

echo "== sharded serving smoke (2 and 3 shards, routed == unsharded) =="
# Partition a round-trip store, serve each shard from its own daemon, and
# check the router's answers byte-for-byte against the unsharded query
# path — including cross-shard pairs (0 and 1 differ mod 2 and mod 3).
printf '0 1\n0 2\n1 3\n5 1999\n17 1003\n' > "$SMOKE/shard-pairs.txt"
for K in 2 3; do
  if [ "$K" -eq 2 ]; then store=rt; else store=grid; fi
  timeout 120 ./target/release/hl-shard partition "$SMOKE/$store-v2.hlbs" "$SMOKE/shards-$K" \
    --shards "$K"
  timeout 120 ./target/release/hubserve query "$SMOKE/$store-v2.hlbs" "$SMOKE/shard-pairs.txt" \
    > "$SMOKE/unsharded-$K.txt"
  pids=()
  shards=()
  for ((i = 0; i < K; i++)); do
    ./target/release/hubserve serve "$SMOKE/shards-$K/shard-$i.hlbs" --addr 127.0.0.1:0 \
      > "$SMOKE/shard-$K-$i.log" 2>&1 &
    pids+=("$!")
  done
  for ((i = 0; i < K; i++)); do
    for _ in $(seq 1 100); do
      grep -q '^listening on ' "$SMOKE/shard-$K-$i.log" && break
      sleep 0.1
    done
    shards+=(--shard "$(sed -n 's/^listening on //p' "$SMOKE/shard-$K-$i.log" | head -n 1)")
  done
  timeout 120 ./target/release/hl-shard query "${shards[@]}" "$SMOKE/shard-pairs.txt" \
    > "$SMOKE/routed-$K.txt"
  kill "${pids[@]}"
  wait "${pids[@]}" 2>/dev/null || true
  diff -u "$SMOKE/unsharded-$K.txt" "$SMOKE/routed-$K.txt"
done

echo "== v2c smoke (compact lanes mount as the v2 arena, same answers) =="
# The v2c flavor delta-codes hub ids and narrows the distance lanes;
# converting there and back must lose nothing, the mounted arena must be
# the v2 store's, and the query path must match the flat store line for
# line — on the shard pairs and on 2000 seeded random pairs.
timeout 120 ./target/release/hubserve convert "$SMOKE/rt-v2.hlbs" "$SMOKE/rt-v2c.hlbs" \
  --to v2c --verify-roundtrip
./target/release/hubserve stats "$SMOKE/rt-v2c.hlbs" > "$SMOKE/v2c-stats.txt"
grep -q 'flavor v2c' "$SMOKE/v2c-stats.txt"
grep -E 'arena (entries|heap bytes)' "$SMOKE/rt-stats.txt" > "$SMOKE/v2-arena.txt"
grep -E 'arena (entries|heap bytes)' "$SMOKE/v2c-stats.txt" > "$SMOKE/v2c-arena.txt"
[ "$(wc -l < "$SMOKE/v2-arena.txt")" -eq 2 ]
diff -u "$SMOKE/v2-arena.txt" "$SMOKE/v2c-arena.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2c.hlbs" "$SMOKE/shard-pairs.txt" \
  > "$SMOKE/v2c-answers.txt"
diff -u "$SMOKE/unsharded-2.txt" "$SMOKE/v2c-answers.txt"
awk 'BEGIN { srand(7); for (i = 0; i < 2000; i++) print int(rand() * 2000), int(rand() * 2000) }' \
  > "$SMOKE/seeded-pairs.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2.hlbs" "$SMOKE/seeded-pairs.txt" \
  > "$SMOKE/seeded-v2.txt"
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2c.hlbs" "$SMOKE/seeded-pairs.txt" \
  > "$SMOKE/seeded-v2c.txt"
[ "$(wc -l < "$SMOKE/seeded-v2.txt")" -eq 2000 ]
diff -u "$SMOKE/seeded-v2.txt" "$SMOKE/seeded-v2c.txt"

echo "== benchmark smoke (the one benchmark, against this checkout's crates) =="
# The smoke set runs every workload briefly, checks answers against BFS
# and fails on any error; it does not compare timings.
CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke
CARGO_TARGET_DIR="$PWD/target" cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== kick-tires =="
bash scripts/kick-tires.sh

echo "check: OK"
