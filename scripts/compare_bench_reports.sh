#!/usr/bin/env bash
# Check that two runs of the deterministic bench suite agree byte for byte.
#
# Usage: scripts/compare_bench_reports.sh [-B build_dir] <parent_out> <change_out>
#
#   parent_out, change_out   output dirs of scripts/run_bench_suite.sh, one
#                            run on the parent commit and one on the change
#   -B build_dir             build tree holding src/tools/dlcmd (default: build)
#
# Every *.report.json and *.metrics.json must exist in both dirs and be
# byte-identical. The one tolerated difference: the wall-clock rows
# (direction "info") of the micro_core and ablation_snapshot reports, which
# are compared with those rows removed. Then `dlcmd perf diff` gates the two
# BENCH_RESULTS.json files. Exits 1 on any other difference, 2 on bad usage.
set -euo pipefail

BUILD_DIR=build
while getopts "B:h" opt; do
  case "$opt" in
    B) BUILD_DIR=$OPTARG ;;
    h) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ $# -ne 2 ]; then
  echo "usage: $0 [-B build_dir] <parent_out> <change_out>" >&2
  exit 2
fi
PARENT=$1
CHANGE=$2
DLCMD="$BUILD_DIR/src/tools/dlcmd"
[ -x "$DLCMD" ] || { echo "error: $DLCMD not built" >&2; exit 2; }
for d in "$PARENT" "$CHANGE"; do
  if [ ! -f "$d/BENCH_RESULTS.json" ]; then
    echo "error: $d/BENCH_RESULTS.json missing" >&2
    exit 2
  fi
done

# Exit 0 when two reports match once their "info" metric rows are dropped.
same_without_info_rows() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        report = json.load(f)
    report["metrics"] = [m for m in report.get("metrics", [])
                         if m.get("direction") != "info"]
    return report

sys.exit(0 if load(sys.argv[1]) == load(sys.argv[2]) else 1)
EOF
}

failed=0
compared=0
tolerated=0
while IFS= read -r name; do
  if [ ! -f "$PARENT/$name" ] || [ ! -f "$CHANGE/$name" ]; then
    echo "only in one run: $name"
    failed=1
  elif cmp -s "$PARENT/$name" "$CHANGE/$name"; then
    compared=$((compared + 1))
  elif { [ "$name" = micro_core.report.json ] ||
         [ "$name" = ablation_snapshot.report.json ]; } &&
       same_without_info_rows "$PARENT/$name" "$CHANGE/$name"; then
    echo "info rows differ (tolerated): $name"
    compared=$((compared + 1))
    tolerated=$((tolerated + 1))
  else
    echo "differs: $name"
    failed=1
  fi
done < <(for d in "$PARENT" "$CHANGE"; do
           (cd "$d" && ls -1 -- *.report.json *.metrics.json 2>/dev/null)
         done | sort -u)
echo "$compared files identical ($tolerated apart from info rows)"

if diff_out=$("$DLCMD" perf diff "$PARENT/BENCH_RESULTS.json" \
                "$CHANGE/BENCH_RESULTS.json"); then
  printf '%s\n' "$diff_out" | tail -n 1
else
  printf '%s\n' "$diff_out"
  failed=1
fi
exit $failed
