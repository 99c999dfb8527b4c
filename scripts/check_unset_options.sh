#!/usr/bin/env bash
# Fail when an option field has only one value in use: its default.
#
# Usage: scripts/check_unset_options.sh   (from anywhere inside the repo)
#
# Scans every `struct ...Options` / `struct ...Config` in src/**.h. A data
# member of such a struct counts as set when some file in src/, bench/,
# examples/, perfbench/ or tests/ other than the struct's own .h/.cc assigns
# it (`.field =` or `.field.sub =`, which covers designated initializers),
# or when any file under tests/ names it. Members neither of these finds
# are listed as <header>: <struct>::<field> and the script exits 1; such a
# field should be a constant in the code that reads it.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# Print "<struct> <field>" for each data member of the option structs in $1.
# Members are one declaration per line; lines that declare functions (a `(`
# outside template brackets) are skipped.
option_fields() {
  awk '
    /^[[:space:]]*struct [A-Za-z_0-9]*(Options|Config)[[:space:]]*\{/ {
      name = $2; depth = 1; next
    }
    depth > 0 {
      line = $0
      sub(/\/\/.*/, "", line)
      opens = gsub(/\{/, "{", line); closes = gsub(/\}/, "}", line)
      if (depth == 1 && line ~ /;[[:space:]]*$/) {
        sub(/[[:space:]]*=.*/, "", line)
        sub(/\{[^}]*\}[[:space:]]*;[[:space:]]*$/, "", line)
        sub(/;[[:space:]]*$/, "", line)
        while (gsub(/<[^<>]*>/, "", line) > 0) {}
        if (line !~ /\(/ && match(line, /[A-Za-z_][A-Za-z_0-9]*[[:space:]]*$/)) {
          field = substr(line, RSTART, RLENGTH)
          sub(/[[:space:]]+$/, "", field)
          print name, field
        }
      }
      depth += opens - closes
    }
  ' "$1"
}

unset_fields=()
while IFS= read -r header; do
  own_cc=${header%.h}.cc
  while read -r struct field; do
    assigned=$(git grep -lE "\.${field}(\.[A-Za-z_][A-Za-z_0-9]*)?[[:space:]]*=([^=]|$)" \
                 -- src bench examples perfbench tests |
               grep -vxF -e "$header" -e "$own_cc" || true)
    [ -z "$assigned" ] || continue
    git grep -qw -- "$field" tests && continue
    unset_fields+=("$header: $struct::$field")
  done < <(option_fields "$header")
done < <(git ls-files -- 'src/**.h')

if [ ${#unset_fields[@]} -gt 0 ]; then
  echo "option fields no caller sets and no test names:" >&2
  printf '  %s\n' "${unset_fields[@]}" >&2
  exit 1
fi
echo "every option field is set by a caller or named by a test"
