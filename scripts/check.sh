#!/usr/bin/env bash
# One-command gate: formatting, the source pins of scripts/pins.txt, lints,
# tier-1 build + tests, the end-to-end serving smoke tests, and a smoke run
# of the repo's one benchmark (benchmark/). Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the self-tests, the experiments golden and the
# serving smokes; any daemon a failed smoke leaves behind goes with it.
SMOKE=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== source pins (one loop over scripts/pins.txt, whose header says what a row means) =="
# A path that names nothing fails, never counts as no match, so a renamed
# file cannot void its pins.
pins() { # pins <table>: a FAIL line per broken row; status 1 if any
  local rows count scope paths re p f files n bad=0
  local -A own=()
  rows=$(grep -vE '^[[:space:]]*(#|$)' "$1" || true)
  while read -r count scope paths re; do
    for p in ${paths//,/ }; do [ -f "$p" ] && own["$re|$p"]=1; done
  done <<<"$rows"
  while read -r count scope paths re; do
    [[ $count =~ ^([0-9]+|\*)$ && $scope =~ ^(body|file)$ && -n $re ]] ||
      { echo "check: FAIL — $1 has a malformed row: $count $scope $paths" >&2; bad=1; continue; }
    for p in ${paths//,/ }; do
      files=$(find "$p" -type f 2>/dev/null || true)
      [ -n "$files" ] || { echo "check: FAIL — $1 names missing $p" >&2; bad=1; }
      for f in $files; do # a file reached through a directory defers to its own row
        [ "$count" = '*' ] || { [ "$f" != "$p" ] && [ -n "${own["$re|$f"]:-}" ]; } && continue
        if [ "$scope" = body ]; then
          n=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -cE -- "$re" || true)
        else
          n=$(grep -cE -- "$re" "$f" || true)
        fi
        [ "$n" = "$count" ] ||
          { echo "check: FAIL — $f: $n lines match /$re/ ($scope), $1 pins $count" >&2; bad=1; }
      done
    done
  done <<<"$rows"
  return "$bad"
}
# The loop's own wiring: a row that must fail and a missing path both fail.
printf '1 body crates/graph/src/lib.rs ^never-matches$\n0 file crates/graph/src/gone.rs x\n' \
  > "$SMOKE/pins.txt"
if pins "$SMOKE/pins.txt" 2> "$SMOKE/pins.err" || ! grep -qF 'lib.rs: 0 lines match' "$SMOKE/pins.err" ||
  ! grep -qF 'names missing crates/graph/src/gone.rs' "$SMOKE/pins.err"; then
  echo "check: FAIL — the pin loop passed a table that must fail" >&2
  exit 1
fi
pins scripts/pins.txt || exit 1

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== library invariants (stock lints, library targets only) =="
# The one place these are listed: library code never panics on purpose,
# never prints, never exits the process, never reaches for `unsafe` and
# never drops a `Result` unread (bins, tests, benches and examples may).
# The decode-path modules also deny `clippy::cast_possible_truncation`
# in their own first lines (a pin). A justified exception is an
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

echo "== EXPERIMENTS.md quotes the golden (each experiments table is a slice of it) =="
# A fenced block under a heading naming `experiments <x>` must appear
# line for line, contiguously, in the golden the experiments step diffs.
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
# A dependency not yet locked fails `--locked --offline`; a locked registry
# or git one is a `source =` line, which scripts/pins.txt forbids.
# --workspace so every member's binaries land in target/release (the
# root package alone builds members as libs only, skipping e.g. the
# hl-shard and hlnp-fuzz bins the smokes below invoke).
cargo build --release --workspace --locked --offline
# benchmark/ is frozen and compiles against the product API: a break
# fails here, in seconds, not after the fuzz run and every smoke. So does a
# product change that would rewrite benchmark/Cargo.lock (a new dependency
# edge of a crate it links): `--locked` refuses to update the lock.
CARGO_TARGET_DIR="$PWD/target" cargo check --offline --locked --manifest-path benchmark/Cargo.toml

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

echo "== join kernel tests in release (the build daemons serve) =="
# The scatter path's scratch hygiene and its two bounds, optimized as served.
cargo test --release --offline -q -p hl-core --lib label

echo "== hlnp-fuzz (seeded, bounded) =="
# Protocol + store fuzz against a throwaway in-memory labeling: exits 1
# on any panic, wrong liveness answer, or silently-accepted corruption,
# 2 if its own wall-clock guard fires. `timeout` is the outer hang net.
timeout 240 ./target/release/hlnp-fuzz --seed 5 --iters 2000 --max-seconds 180

echo "== parallel-build smoke (~100k vertices, bounded) =="
# Exercises PLL's batch/commit driver (hl_core::pll) at a size the unit tests
# don't reach: a ~131k-vertex RMAT graph, 2 worker threads, degree
# order, flowing into the binary store, back in through the AnyStore
# mount path against Dijkstra from 2 sources (a wrong answer exits 1),
# and out through stats.
timeout 600 ./target/release/hubserve build "$SMOKE/parallel.hlbs" \
  --gen rmat --nodes 100000 --edges 400000 --seed 9 --threads 2 \
  --order degree --verify 2
./target/release/hubserve stats "$SMOKE/parallel.hlbs" > "$SMOKE/stats.txt"
grep -q 'arena entries' "$SMOKE/stats.txt"

echo "== paper gadget store bytes (h:2,4 at 1 and 2 threads, one pinned digest) =="
# The weighted build path's output, byte for byte: the H_{2,4} gadget
# (Dijkstra waves, 1,046,720 entries) built at one thread and at two
# must be one store, and that store's sha256 the one pinned here. A
# change meant to move the labels updates the digest and says why.
H24_SHA256=ef6e1477a5ae3d647f3473cfe48ee09cfec87aff2cd209c1a09cbdb69a774129
timeout 60 ./target/release/experiments gadget h:2,4 > "$SMOKE/h24.txt"
for t in 1 2; do
  timeout 120 ./target/release/hubserve build "$SMOKE/h24.txt" "$SMOKE/h24-t$t.hlbs" --threads "$t"
done
cmp "$SMOKE/h24-t1.hlbs" "$SMOKE/h24-t2.hlbs"
h24=$(sha256sum < "$SMOKE/h24-t1.hlbs")
if [ "${h24%% *}" != "$H24_SHA256" ]; then
  echo "check: FAIL — the h:2,4 store's sha256 is ${h24%% *}, pinned $H24_SHA256" >&2
  exit 1
fi

echo "== store format round-trip (built v2 -> v1 -> v2, byte-identical) =="
# v2 is a verbatim arena dump and γ-coding is canonical, so converting
# there and back must reproduce the built file exactly — the property
# that makes `hubserve convert` safe to run on archival stores. Two graph
# shapes: the gnm store also feeds the 2-shard and v2c smokes below, the
# road store (a weighted grid with shortcuts) the 3-shard one.
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
roundtrip grid road --nodes 2500 --seed 13
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

echo "== a reader that stops early is a clean exit (hl_graph::exit) =="
# `head -n 0` reads nothing and exits at once; the sleep lets it go before
# hubserve starts, so every stdout write fails with EPIPE, and pipefail
# makes hubserve's exit code the pipeline's. A print macro put back in a
# bin panics here (101). Behind `| head -n 1` the same panic shows only
# when head happens to exit between two writes.
{
  sleep 0.2
  exec ./target/release/hubserve stats "$SMOKE/rt-v2.hlbs"
} | head -n 0

echo "== a live stdin client gets each answer before it closes stdin =="
# The coprocess keeps hubserve's stdin open, so the answer has to come
# from the flush before the next blocking read, not from the one at EOF.
coproc LIVE { exec ./target/release/hubserve query "$SMOKE/rt-v2.hlbs"; }
live_pid=$LIVE_PID live_in=${LIVE[1]}
echo '0 5' >&"$live_in"
if ! read -r -t 5 answer <&"${LIVE[0]}" || [[ $answer != "0 5 "* ]]; then
  echo "check: FAIL — hubserve query gave no answer within 5 s while stdin was open" >&2
  exit 1
fi
exec {live_in}>&-
wait "$live_pid"

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
# The file run above is one batch split across machine_workers() shares
# (a 1-CPU host runs it unsplit); stdin lines take the cached point path
# one at a time. Both must answer alike.
timeout 120 ./target/release/hubserve query "$SMOKE/rt-v2c.hlbs" < "$SMOKE/seeded-pairs.txt" \
  > "$SMOKE/seeded-point.txt"
diff -u "$SMOKE/seeded-v2c.txt" "$SMOKE/seeded-point.txt"

echo "== benchmark smoke (the one benchmark, against this checkout's crates) =="
# The smoke set runs every workload briefly, checks answers against BFS
# and fails on any error; it does not compare timings.
CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke
CARGO_TARGET_DIR="$PWD/target" cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== kick-tires =="
bash scripts/kick-tires.sh

echo "check: OK"
