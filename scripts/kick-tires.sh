#!/usr/bin/env bash
# Offline end-to-end smoke test of the serving pipeline:
#   hubtool gen       -> plain-text graph
#   hubtool build     -> v2 label store (ground-truth path: sequential PLL)
#   hubtool verify    -> its labels are exact against the graph
#   hubserve build    -> v2 label store (parallel builder)
#   hubserve stats    -> store reports the flat arena it decodes into
#   hubserve query    -> answers from either store
#   diff              -> served answers == ground-truth label answers
#   hubserve serve    -> TCP daemon on an ephemeral loopback port
#   hubserve convert  -> v2 store migrated to v1, round-trip verified
#   hubserve reload   -> live daemon hot-swaps onto the v1 store; a
#                        reload from a missing path must fail without
#                        evicting the healthy epoch
#                        (`reload` speaks protocol v1 to the daemon)
#   hl-shard query    -> the live daemon as a one-shard fleet over the
#                        protocol-v2 multiplexed client; its answers must
#                        equal the ground truth line for line
#   hubtool gen h:2,3 -> the paper's hard instance, built by hubtool,
#                        verified, and answered by a second daemon
# Graceful exit 0 on a Shutdown frame is pinned by crates/net/tests/e2e.rs;
# throughput and latency are measured by benchmark/, not here.
# Exits nonzero on the first mismatch or failure.
set -euo pipefail
cd "$(dirname "$0")/.."

NODES=${NODES:-400}
SEED=${SEED:-1}
SAMPLE=${SAMPLE:-8}   # diff all pairs over the first SAMPLE vertices

echo "== kick-tires: building binaries =="
cargo build --release -p hl-bench -p hl-net -p hl-shard >/dev/null

echo "== hublint: workspace must lint clean =="
cargo run -q --release -p hl-lint

HUBTOOL=target/release/hubtool
HUBSERVE=target/release/hubserve
HLSHARD=target/release/hl-shard
TMP=$(mktemp -d)
SERVE_PIDS=()
cleanup() {
  [ ${#SERVE_PIDS[@]} -gt 0 ] && kill "${SERVE_PIDS[@]}" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# serve <store> <log>: starts a daemon on an ephemeral loopback port and
# sets ADDR to what it announced.
serve() {
  "$HUBSERVE" serve "$1" --addr 127.0.0.1:0 > "$2" 2>&1 &
  SERVE_PIDS+=($!)
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$2" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "kick-tires: FAIL — daemon never announced its address" >&2
    cat "$2" >&2
    exit 1
  fi
  echo "daemon is listening on $ADDR"
}

echo "== generating a ${NODES}-node grid =="
"$HUBTOOL" gen grid "$NODES" "$SEED" "$TMP/graph.txt"

echo "== ground truth: sequential PLL labels, verified exact =="
"$HUBTOOL" build "$TMP/graph.txt" "$TMP/labels.hlbs" pll
"$HUBTOOL" verify "$TMP/graph.txt" "$TMP/labels.hlbs"

echo "== serving path: binary store (parallel build, 2 threads) =="
"$HUBSERVE" build "$TMP/graph.txt" "$TMP/store.hlbs" --threads 2

echo "== store stats report the flat arena =="
"$HUBSERVE" stats "$TMP/store.hlbs" | tee "$TMP/stats.txt"
grep -q 'arena entries' "$TMP/stats.txt"
grep -q 'arena heap bytes' "$TMP/stats.txt"

echo "== diffing store answers against ground truth on ${SAMPLE}x${SAMPLE} pairs =="
: > "$TMP/pairs.txt"
for ((u = 0; u < SAMPLE; u++)); do
  for ((v = 0; v < SAMPLE; v++)); do
    echo "$u $v" >> "$TMP/pairs.txt"
  done
done
"$HUBSERVE" query "$TMP/labels.hlbs" "$TMP/pairs.txt" > "$TMP/expected.txt"
"$HUBSERVE" query "$TMP/store.hlbs" "$TMP/pairs.txt" > "$TMP/served.txt"
if ! diff -u "$TMP/expected.txt" "$TMP/served.txt"; then
  echo "kick-tires: FAIL — served distances disagree with ground truth" >&2
  exit 1
fi
echo "all $((SAMPLE * SAMPLE)) sampled distances agree"

echo "== corruption check: a damaged store must refuse to serve =="
cp "$TMP/store.hlbs" "$TMP/bad.hlbs"
size=$(wc -c < "$TMP/bad.hlbs")
printf '\xff' | dd of="$TMP/bad.hlbs" bs=1 seek=$((size / 2)) conv=notrunc status=none
if "$HUBSERVE" query "$TMP/bad.hlbs" "$TMP/pairs.txt" > /dev/null 2> "$TMP/bad.err"; then
  echo "kick-tires: FAIL — corrupt store served answers" >&2
  exit 1
fi
grep -qi 'checksum\|corrupt\|truncated' "$TMP/bad.err"
echo "corrupt store rejected: $(cat "$TMP/bad.err")"

echo "== network serving: daemon on loopback =="
serve "$TMP/store.hlbs" "$TMP/serve.log"

echo "== hot reload: swap the live daemon onto a v1 store =="
"$HUBSERVE" convert "$TMP/store.hlbs" "$TMP/store-v1.hlbs" --to v1 --verify-roundtrip
"$HUBSERVE" reload "$ADDR" "$TMP/store-v1.hlbs" | tee "$TMP/reload.txt"
grep -q 'epoch 1' "$TMP/reload.txt"
if "$HUBSERVE" reload "$ADDR" "$TMP/does-not-exist.hlbs" 2> "$TMP/reload-bad.err"; then
  echo "kick-tires: FAIL — reload from a missing store reported success" >&2
  exit 1
fi
echo "bad reload rejected: $(cat "$TMP/reload-bad.err")"
# The failed reload must not have evicted the healthy epoch: the queries
# below hit the daemon post-swap and it must still answer exactly.

echo "== mux client: the live daemon answers the ground-truth pairs over HLNP v2 =="
"$HLSHARD" query --shard "$ADDR" "$TMP/pairs.txt" > "$TMP/networked.txt"
if ! diff -u "$TMP/expected.txt" "$TMP/networked.txt"; then
  echo "kick-tires: FAIL — the daemon's answers disagree with ground truth" >&2
  exit 1
fi
echo "all $((SAMPLE * SAMPLE)) sampled distances agree over the wire"

echo "== the paper's hard instance: H(2,3) from hubtool to a daemon =="
"$HUBTOOL" gen h:2,3 0 0 "$TMP/h23.txt"
"$HUBTOOL" build "$TMP/h23.txt" "$TMP/h23.hlbs" pll
"$HUBTOOL" verify "$TMP/h23.txt" "$TMP/h23.hlbs"
serve "$TMP/h23.hlbs" "$TMP/serve-h23.log"
"$HUBSERVE" query "$TMP/h23.hlbs" "$TMP/pairs.txt" > "$TMP/h23-expected.txt"
"$HLSHARD" query --shard "$ADDR" "$TMP/pairs.txt" > "$TMP/h23-networked.txt"
if ! diff -u "$TMP/h23-expected.txt" "$TMP/h23-networked.txt"; then
  echo "kick-tires: FAIL — the H(2,3) daemon disagrees with its own store" >&2
  exit 1
fi
echo "H(2,3) served exactly"

echo "kick-tires: OK"
