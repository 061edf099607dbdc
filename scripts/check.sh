#!/usr/bin/env bash
# One-command gate: formatting, lints, structural greps, tier-1 build +
# tests, the end-to-end serving smoke tests, and a smoke run of the repo's
# one benchmark (benchmark/). Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the lint self-test, the experiments golden and the
# serving smokes; any daemon a failed smoke leaves behind goes with it.
SMOKE=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== library invariants (stock lints, library targets only) =="
# The one place these are listed: library code never panics on purpose,
# never prints, never exits the process, never reaches for `unsafe` and
# never drops a `Result` unread (bins, tests, benches and examples may).
# The decode-path modules also deny `clippy::cast_possible_truncation`
# in their own first lines (pinned below). A justified exception is an
# `#[expect(<lint>, reason = "...")]` at its site; one that stops firing
# fails the all-targets run above as an unfulfilled expectation.
LIB_LINTS=(-D unsafe_code -D unused_must_use -D clippy::let_underscore_must_use
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
pub fn returns_result() -> Result<(), ()> {
    Ok(())
}
pub fn swallows() {
    let _ = returns_result();
}
pub fn drops() {
    returns_result();
}
pub mod decode {
    #![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
    pub fn narrows(x: u32) -> u8 {
        x as u8
    }
}
RS
if CARGO_TARGET_DIR="$SMOKE/lintcheck/target" cargo clippy --offline \
  --manifest-path "$SMOKE/lintcheck/Cargo.toml" --lib -- "${LIB_LINTS[@]}" \
  2> "$SMOKE/lintcheck.err"; then
  echo "check: FAIL — the library lint list accepted a violating crate" >&2
  exit 1
fi
for lint in unsafe-code unused-must-use clippy::unwrap-used clippy::print-stdout clippy::exit; do
  if ! grep -qF -- "\`-D $lint\`" "$SMOKE/lintcheck.err"; then
    echo "check: FAIL — the library lint list did not report $lint" >&2
    exit 1
  fi
done
for lint in let_underscore_must_use cast_possible_truncation; do
  if ! grep -qF -- "#$lint" "$SMOKE/lintcheck.err"; then
    echo "check: FAIL — the library lints did not report $lint" >&2
    exit 1
  fi
done

echo "== decode-path modules (truncation denied, allocation sites pinned) =="
# Bytes from a store file or a peer are decoded in these modules. Each
# denies `cast_possible_truncation` in its first lines, and each of its
# allocations (`with_capacity`, `reserve(`, `vec![_; n]`) above
# `#[cfg(test)]` was reviewed to be sized by a count already checked
# against the bytes behind it. A new site fails here until it is
# reviewed and its file's pin moved.
while read -r file pinned; do
  if ! grep -qxF '#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]' "$file"; then
    echo "check: FAIL — $file lost its cast_possible_truncation deny" >&2
    exit 1
  fi
  found=$(sed '/^#\[cfg(test)\]/,$d' "$file" | grep -cE 'with_capacity|reserve\(|vec!\[[^]]*;' || true)
  if [ "$found" -ne "$pinned" ]; then
    echo "check: FAIL — $file has $found allocation sites, $pinned reviewed" >&2
    exit 1
  fi
done <<'PINS'
crates/core/src/compact.rs 2
crates/labeling/src/bits.rs 0
crates/labeling/src/full_vector.rs 2
crates/labeling/src/hub_scheme.rs 4
crates/labeling/src/packed.rs 0
crates/net/src/conn.rs 0
crates/net/src/wire.rs 6
crates/server/src/store.rs 4
crates/server/src/store_v2.rs 2
PINS

echo "== locks live in five files (DESIGN's lock table) =="
# Each of these takes its locks through hl_graph::sync and never holds
# one guard while taking another; a lock anywhere else is a new row for
# that table before it is a line of code.
LOCK_FILES='crates/graph/src/sync.rs
crates/net/src/mux.rs
crates/net/src/server.rs
crates/server/src/cache.rs
crates/server/src/engine.rs'
stray=$(find crates/*/src src -name '*.rs' ! -path '*/src/bin/*' ! -name main.rs -exec awk '
    FNR == 1 { body = 1 }
    /^#\[cfg\(test\)\]/ { body = 0 }
    body && /(^|[^[:alnum:]_])(Mutex|RwLock)([^[:alnum:]_]|$)/ { print FILENAME; nextfile }
  ' {} + | grep -vxF "$LOCK_FILES" || true)
if [ -n "$stray" ]; then
  echo "check: FAIL — a Mutex/RwLock outside DESIGN's lock table:" $stray >&2
  exit 1
fi

echo "== the point cache is flat sets (no hash map or linked list in cache.rs) =="
# A shard is two flat arrays scanned one set at a time, each set most
# recent first; a HashMap or prev/next links are the old LRU coming back.
if sed '/^#\[cfg(test)\]/,$d' crates/server/src/cache.rs | grep -nE 'HashMap|prev:|next:'; then
  echo "check: FAIL — crates/server/src/cache.rs keys a hash map or links a list above its tests" >&2
  exit 1
fi

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

echo "== the mux client starts no thread; a worker rings the loop once per turn =="
# A waiting caller reads its own responses, so a reader thread and its
# extra wake-up per round trip stay gone; a worker wakes the loop through
# `Inner::ring`, which writes the pipe only when no wake is pending.
if sed '/^#\[cfg(test)\]/,$d' crates/net/src/mux.rs | grep -nE 'thread::|spawn'; then
  echo "check: FAIL — crates/net/src/mux.rs starts a thread above its tests" >&2
  exit 1
fi
worker=$(sed -n '/^fn worker_loop/,/^}/p' crates/net/src/server.rs)
if grep -n 'inner\.wake()' <<<"$worker" || ! grep -q 'inner\.ring()' <<<"$worker"; then
  echo "check: FAIL — worker_loop must wake the loop through inner.ring(), never inner.wake()" >&2
  exit 1
fi

echo "== the batch path reads the clock once per share, the single path 1 in 16 (no clock in hl-core) =="
# The kernel joins and nothing else: hl-core reads no clock. The engine
# joins in exactly two places, the single path's `query` (timed one call
# in SAMPLE_EVERY) and the batch share's `query_many` (timed once around
# the share); a per-pair join in `answer` is a second `labeling.query(`.
# The share's read is the one unconditional `Instant::now()`; the single
# path's sits behind the SAMPLE_EVERY test on its own line.
clock=$(find crates/core/src -name '*.rs' -exec awk '
    FNR == 1 { body = 1 }
    /^#\[cfg\(test\)\]/ { body = 0 }
    body && /Instant|SystemTime/ { print FILENAME ":" FNR ": " $0 }
  ' {} +)
if [ -n "$clock" ]; then
  echo "$clock" >&2
  echo "check: FAIL — crates/core/src reads a clock outside its tests" >&2
  exit 1
fi
engine=$(sed '/^#\[cfg(test)\]/,$d' crates/server/src/engine.rs)
singles=$(grep -c 'labeling\.query(' <<<"$engine" || true)
shares=$(grep -c 'labeling\.query_many(' <<<"$engine" || true)
if [ "$singles" -ne 1 ] || [ "$shares" -ne 1 ]; then
  echo "check: FAIL — engine.rs joins through labeling.query( $singles times and labeling.query_many( $shares times; want 1 and 1" >&2
  exit 1
fi
reads=$(grep -c 'Instant::now' <<<"$engine" || true)
always=$(grep -c 'Instant::now()' <<<"$engine" || true)
sampled=$(grep -c '\.is_multiple_of(SAMPLE_EVERY)\.then(Instant::now)' <<<"$engine" || true)
if [ "$reads" -ne 2 ] || [ "$always" -ne 1 ] || [ "$sampled" -ne 1 ]; then
  grep -n 'Instant::now' <<<"$engine" >&2 || true
  echo "check: FAIL — engine.rs must read the clock once unconditionally (a batch share) and once behind SAMPLE_EVERY (the single path)" >&2
  exit 1
fi

echo "== one label representation (no nested type, no text label format) =="
# A labeling is the FlatLabeling arena, and every reader takes it as
# `&FlatLabeling`; the per-vertex types and hl_core::io stay deleted.
if grep -rnE 'HubLabeling|\bHubLabel\b|core::io' crates src tests examples; then
  echo "check: FAIL — the nested label types / text label format are back" >&2
  exit 1
fi

echo "== the paper half is written once (no view trait, one Sum-Index protocol, one join) =="
# FlatLabeling is the one labeling, so a trait over it is a second API;
# Theorem 1.6 is one type in hl_sumindex::protocol with a constructor per
# graph; fetched labels join in a FlatLabeling, not in a private loop.
if grep -rn 'trait LabelingView' crates src tests examples ||
  grep -rln 'fn referee' crates/sumindex/src | grep -vxE 'crates/sumindex/src/(protocol|naive)\.rs' ||
  grep -rn 'fn join_pairs' crates src tests examples; then
  echo "check: FAIL — a second copy of the paper's code is back" >&2
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

echo "== ground truth is computed once (one SSSP surface, one fan-out) =="
# Distances come from bfs_distances / dijkstra_distances; canonical tree
# parents and path counts are post-passes over shortest_path_distances,
# and per-source or per-root parallel work goes through
# hl_graph::sync::fan_out.
if grep -rnE 'fn (bfs_with_parents|bfs_count_paths|dijkstra_with_parents)\b|_bounded\(' crates/graph/src ||
  grep -rnE 'thread::scope|available_parallelism' crates/graph/src/apsp.rs crates/core/src/cover.rs crates/build/src; then
  echo "check: FAIL — a second shortest-path routine or a private fan-out is back" >&2
  exit 1
fi

echo "== EXPERIMENTS.md quotes the golden (each experiments table is a slice of it) =="
# A fenced block under a heading naming `experiments <x>` must appear
# line for line, contiguously, in the golden the step above pins.
awk 'NR == FNR { golden = golden $0 "\n"; next }
  !fenced && /^#/ { quoted = /\(`experiments / }
  /^```/ && fenced && quoted && !index(golden, block) { print "check: FAIL — EXPERIMENTS.md:" from " is not a slice of docs/experiments_reference.txt" > "/dev/stderr"; bad = 1 }
  /^```/ { fenced = !fenced; block = ""; from = FNR + 1; next }
  fenced { block = block $0 "\n" }
  END { exit bad }' docs/experiments_reference.txt EXPERIMENTS.md

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

echo "== experiments golden (the paper's tables, byte for byte) =="
# Every stdout cell of `experiments all` and `experiments big` is a
# function of fixed seeds (wall-clock cells go to stderr), so a changed
# construction, gadget, seed or encoding shows here as a diff. When a
# number is meant to move, regenerate the file from the same two commands
# and say which blocks moved and why.
if ! { timeout 120 ./target/release/experiments all && timeout 120 ./target/release/experiments big; } \
  > "$SMOKE/experiments.txt" 2> "$SMOKE/experiments.err"; then
  cat "$SMOKE/experiments.err" >&2
  echo "check: FAIL — experiments exited non-zero" >&2
  exit 1
fi
if ! diff -u docs/experiments_reference.txt "$SMOKE/experiments.txt"; then
  echo "check: FAIL — experiments stdout differs from docs/experiments_reference.txt" >&2
  exit 1
fi

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
