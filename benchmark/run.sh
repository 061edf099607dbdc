#!/usr/bin/env bash
# The repo's benchmark, one command. Builds hubserve (the daemon under
# test) and hlbench (the driver) in release, offline; pins daemons to one
# CPU and the driver to another; runs; always cleans up.
#
#   benchmark/run.sh                     every workload, untraced then traced
#   benchmark/run.sh --record            ... and append the rows to history.jsonl
#   benchmark/run.sh --no-trace          end-to-end metrics only
#   benchmark/run.sh --smoke             0.2 s rounds, small store everywhere
#   benchmark/run.sh aa [--seed N]       the untraced set twice, cell by cell
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one workload; last line is its JSON result
#   benchmark/run.sh --build-only
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# One target directory for both builds, absolute so that cargo and this
# script agree on it wherever they are started from.
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"
HUBSERVE="$TARGET/release/hubserve"
HLBENCH="$TARGET/release/hlbench"
OUT="$HERE/out"

if ! command -v taskset >/dev/null; then
    echo "run.sh: taskset not found; CPU placement is part of the method, refusing to run" >&2
    exit 3
fi
if pgrep -f "$HUBSERVE serve" >/dev/null; then
    echo "run.sh: a '$HUBSERVE serve' daemon from an earlier run is still alive; kill it first:" >&2
    pgrep -af "$HUBSERVE serve" >&2
    exit 3
fi

cleanup() {
    pkill -KILL -f "$HUBSERVE serve" 2>/dev/null || true
    rm -rf "$OUT"/tmp-*
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" -p hl-net --bin hubserve
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml"
[ "${1:-}" = "--build-only" ] && exit 0
mkdir -p "$OUT"

# The CPUs this shell may use: daemons get the first, the driver the
# second when there is one. With a single CPU everything shares it and
# every row says nproc 1; rows only compare at equal nproc.
CPUS=()
for c in $(seq 0 $(($(nproc --all) - 1))); do
    if taskset -c "$c" true 2>/dev/null; then CPUS+=("$c"); fi
done
DRIVER_CPU="${CPUS[1]:-${CPUS[0]}}"

export HLBENCH_HUBSERVE="$HUBSERVE"
export HLBENCH_OUT="$OUT"
export HLBENCH_SPEC="$ROOT/BENCHMARK.json"
export HLBENCH_CPUS="$(IFS=,; echo "${CPUS[*]}")"
export HLBENCH_GIT_REV="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

ARGS=()
MODE=all
for a in "$@"; do
    case "$a" in
        --workload) MODE=run; ARGS+=("$a") ;;
        aa) MODE=aa ;;
        --record) ARGS+=(--record "$HERE/history.jsonl") ;;
        *) ARGS+=("$a") ;;
    esac
done

set +e
taskset -c "$DRIVER_CPU" "$HLBENCH" "$MODE" ${ARGS[@]+"${ARGS[@]}"}
STATUS=$?
set -e
exit "$STATUS"
