#!/usr/bin/env bash
# Run the deterministic bench suite and merge the per-bench reports into one
# BENCH_RESULTS.json (schema diesel.bench.suite/v1).
#
# Usage: scripts/run_bench_suite.sh [-B build_dir] [-o out_dir] [bench ...]
#
#   -B build_dir   CMake build tree holding bench/ and src/tools/dlcmd
#                  (default: build)
#   -o out_dir     where per-bench *.report.json / *.metrics.json, the
#                  merged BENCH_RESULTS.json and host_seconds.tsv land
#                  (default: bench_out)
#   bench ...      bench binary names to run (default: every bench_* in
#                  <build_dir>/bench)
#
# Every bench is virtual-time deterministic, so two runs of this script on
# any machine produce byte-identical reports (bench_micro_core's wall-clock
# numbers are carried as non-gated info metrics only). The host wall-clock
# seconds each bench took go to host_seconds.tsv (bench, seconds at ms
# resolution, then a total row); it is not a *.json, so byte-identity checks
# of two suite runs skip it.
set -euo pipefail

BUILD_DIR=build
OUT_DIR=bench_out
while getopts "B:o:h" opt; do
  case "$opt" in
    B) BUILD_DIR=$OPTARG ;;
    o) OUT_DIR=$OPTARG ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

BENCH_DIR="$BUILD_DIR/bench"
DLCMD="$BUILD_DIR/src/tools/dlcmd"
[ -x "$DLCMD" ] || { echo "error: $DLCMD not built" >&2; exit 1; }

if [ $# -gt 0 ]; then
  BENCHES=("$@")
else
  BENCHES=()
  for b in "$BENCH_DIR"/bench_*; do
    [ -x "$b" ] && BENCHES+=("$(basename "$b")")
  done
fi
[ ${#BENCHES[@]} -gt 0 ] || { echo "error: no benches found in $BENCH_DIR" >&2; exit 1; }

mkdir -p "$OUT_DIR"
export DIESEL_BENCH_DIR=$OUT_DIR
export DIESEL_METRICS_DIR=$OUT_DIR

# Milliseconds as seconds with three decimals.
fmt_ms() { printf '%d.%03d' $(($1 / 1000)) $(($1 % 1000)); }

HOST_TSV="$OUT_DIR/host_seconds.tsv"
printf 'bench\thost_s\n' > "$HOST_TSV"
total_ms=0
for b in "${BENCHES[@]}"; do
  echo "=== $b ==="
  t0=$(date +%s%N)
  "$BENCH_DIR/$b" > "$OUT_DIR/$b.log"
  ms=$((($(date +%s%N) - t0) / 1000000))
  total_ms=$((total_ms + ms))
  printf '%s\t%s\n' "$b" "$(fmt_ms $ms)" >> "$HOST_TSV"
  echo "    done in $(fmt_ms $ms)s"
done
printf 'total\t%s\n' "$(fmt_ms $total_ms)" >> "$HOST_TSV"
echo "host seconds: $HOST_TSV (total $(fmt_ms $total_ms)s)"

"$DLCMD" perf merge "$OUT_DIR" -o "$OUT_DIR/BENCH_RESULTS.json"
echo "merged suite report: $OUT_DIR/BENCH_RESULTS.json"
