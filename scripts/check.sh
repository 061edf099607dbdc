#!/usr/bin/env bash
# One-command gate: formatting, the source pins of scripts/pins.txt, lints
# and their self-test, the EXPERIMENTS.md and THEOREM_MAP checks, docs, the
# release build and the frozen benchmark's compile check, tier-1's tests
# (the experiments golden, the h:2,4 store digest and every CLI smoke are
# among them), the join kernels in release, a seeded hlnp-fuzz run, a
# ~100k-vertex parallel build, a smoke run of the repo's one benchmark
# (benchmark/) and kick-tires. Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch space for the self-tests and the parallel-build smoke.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

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
# line for line, contiguously, in the golden crates/bench/tests/cli.rs
# holds `experiments all` and `experiments big` to.
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
# The root's `default-members` name every member, so their binaries (the
# hubserve and hlnp-fuzz bins the smokes below invoke) land in
# target/release.
cargo build --release --locked --offline
# benchmark/ is frozen and compiles against the product API: a break
# fails here, in seconds, not after the fuzz run and every smoke. So does a
# product change that would rewrite benchmark/Cargo.lock (a new dependency
# edge of a crate it links): `--locked` refuses to update the lock.
CARGO_TARGET_DIR="$PWD/target" cargo check --offline --locked --manifest-path benchmark/Cargo.toml

echo "== tier-1 tests (every workspace member: default-members) =="
cargo test -q

echo "== join kernel tests in release (the build daemons serve) =="
# The scatter path's scratch hygiene and its two bounds, and the dense
# table's vectorized lane fold, optimized as served.
cargo test --release --offline -q -p hl-core --lib -- label dense

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

echo "== benchmark smoke (the one benchmark, against this checkout's crates) =="
# The smoke set runs every workload briefly, checks answers against BFS
# and fails on any error; it does not compare timings.
CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke
CARGO_TARGET_DIR="$PWD/target" cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== kick-tires =="
bash scripts/kick-tires.sh

echo "check: OK"
