#!/usr/bin/env bash
# Records the >=4-core parallel-scaling evidence for the thread-sweep
# benches (theorem 10 / theorem 41), plus the throughput and linalg
# micro series, as a curated snapshot (BENCH_multicore.json).
#
# On a single-core host every pool size executes the same serial
# instruction stream, so a snapshot recorded there can only ever show
# parity — honest multicore numbers must come from a machine with real
# cores. This script is the recipe: it refuses to run on fewer than 4
# cores, and it refuses to bless a snapshot unless each thread sweep's
# widest pool that fits the host clears 1.0x at the lower quartile of
# its per-trial speedup over pool 1.
# CI runs it on the 4-vCPU runner with --reuse after the bench smoke and
# uploads the snapshot; run it locally on any >=4-core box to reproduce.
#
# Usage: scripts/run_multicore_bench.sh [--reuse]
#   --reuse    snapshot the series already in $BUILD_DIR/bench-out/
#              instead of rebuilding and re-running the benches
# Env:
#   BUILD_DIR  build tree to use (default: build-multicore)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-multicore}"
SNAPSHOT="$BUILD_DIR/BENCH_multicore.json"
REUSE=0
[ "${1:-}" = "--reuse" ] && REUSE=1

cores="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
if [ "$cores" -lt 4 ]; then
  echo "error: only $cores core(s) online; multicore scaling evidence" >&2
  echo "needs >=4 cores. Run this on a >=4-core machine (CI's Release" >&2
  echo "leg does) instead of recording a parity snapshot here." >&2
  exit 2
fi

if [ "$REUSE" -eq 0 ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$cores"
  # The thread-sweep benches write their series into bench-out/ relative
  # to the working directory; keep everything inside the build tree.
  (cd "$BUILD_DIR" \
    && ./bench/bench_theorem10 \
    && ./bench/bench_theorem41 \
    && ./bench/bench_throughput \
    && ./bench/bench_linalg_micro \
    && ./bench/bench_serving)
fi

if [ -z "$(ls "$BUILD_DIR"/bench-out/BENCH_*.json 2>/dev/null)" ]; then
  echo "error: no BENCH_*.json under $BUILD_DIR/bench-out/ to snapshot" >&2
  exit 1
fi

python3 scripts/compare_bench.py --write-snapshot "$SNAPSHOT" \
  "$BUILD_DIR/bench-out"

# Honesty gate: each theorem-10/41 sweep's widest pool that fits the
# host's cores must clear 1.0x at the lower quartile of its per-trial
# speedup over pool 1 (the `speedup_q1` the benches record). A snapshot
# whose sweeps do not scale there is not multicore evidence, whatever
# machine stamped it.
python3 - "$SNAPSHOT" <<'PY'
import sys
import tempfile

sys.path.insert(0, "scripts")
import compare_bench

with tempfile.TemporaryDirectory() as tmp:
    exploded = compare_bench.snapshot_as_baseline(sys.argv[1], tmp)
    records = compare_bench.load_records(exploded)
failed = False
for sweep, verdict in compare_bench.sweep_verdicts(records).items():
    if verdict is None:
        print(f"error: {sweep}: no pool above 1 that fits the host's cores")
        failed = True
        continue
    pool, q1, passed = verdict
    print(f"{sweep}: pool {pool} speedup q1 {q1:.2f}x (needs >= 1.00x)")
    failed = failed or not passed
if failed:
    sys.exit(
        "error: honesty gate — a thread sweep does not scale at its widest "
        "pool; this snapshot is not multicore scaling evidence"
    )
PY

echo "multicore snapshot recorded: $SNAPSHOT"
