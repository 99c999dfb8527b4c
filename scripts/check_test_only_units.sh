#!/usr/bin/env bash
# Fail when a library header is reachable only from tests.
#
# Usage: scripts/check_test_only_units.sh   (from anywhere inside the repo)
#
# A header src/<dir>/<name>.h counts as used when some file in src/ other
# than its own src/<dir>/<name>.cc includes it as "<dir>/<name>.h", or when
# any file in bench/, examples/ or perfbench/ does. Headers no such file
# includes are listed and the script exits 1.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

unused=()
while IFS= read -r header; do
  rel=${header#src/}
  own_cc=${header%.h}.cc
  users=$(git grep -lF "#include \"$rel\"" -- src bench examples perfbench |
          grep -vxF -e "$header" -e "$own_cc" || true)
  [ -n "$users" ] || unused+=("$header")
done < <(git ls-files -- 'src/**.h')

if [ ${#unused[@]} -gt 0 ]; then
  echo "headers included only by their own .cc or by tests:" >&2
  printf '  %s\n' "${unused[@]}" >&2
  exit 1
fi
echo "every src/ header has a non-test includer"
