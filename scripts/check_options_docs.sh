#!/usr/bin/env bash
# check_options_docs.sh — fail the build when the mount-option table
# (kMountOptionTable in src/crfs/mount_options.h) and README.md's
# "Mount options" table drift apart.
#
# Every row's key and alias must appear in the README table. Every name
# the README table gives must be a key, an alias, or no_<key> of a bool
# row. README names are the backticked tokens of each row's first
# column, cut at '='.
set -euo pipefail
cd "$(dirname "$0")/.."

src=src/crfs/mount_options.h
doc=README.md
fail=0

mapfile -t keys < <(grep -oE '\.key = "[a-z0-9_]+"' "$src" | cut -d'"' -f2 | sort -u)
mapfile -t aliases < <(grep -oE '\.alias = "[a-z0-9_]+"' "$src" | cut -d'"' -f2 | sort -u)
mapfile -t bools < <(grep -oE '\.key = "[a-z0-9_]+", \.kind = kBool' "$src" | cut -d'"' -f2)
mapfile -t documented < <(
  awk '/^## Mount options/ { on = 1; next } on && /^## / { exit } on && /^\| `/' "$doc" |
    sed 's/\\|/ /g' | cut -d'|' -f2 | grep -oE '`[a-z0-9_]+' | tr -d '`' | sort -u
)

if [[ ${#keys[@]} == 0 || ${#documented[@]} == 0 ]]; then
  echo "check_options_docs: found no option rows in $src or no table in $doc"
  exit 1
fi

in_set() { # needle, then haystack items
  local needle=$1; shift
  local x
  for x in "$@"; do [[ $x == "$needle" ]] && return 0; done
  return 1
}

for name in "${keys[@]}" "${aliases[@]}"; do
  if ! in_set "$name" "${documented[@]}"; then
    echo "UNDOCUMENTED option: $name (in $src, missing from the $doc \"Mount options\" table)"
    fail=1
  fi
done

for name in "${documented[@]}"; do
  if ! in_set "$name" "${keys[@]}" "${aliases[@]}" &&
     ! { [[ $name == no_* ]] && in_set "${name#no_}" "${bools[@]}"; }; then
    echo "STALE doc entry: $name (in $doc, not an option in $src)"
    fail=1
  fi
done

if [[ $fail == 0 ]]; then
  echo "check_options_docs: ${#keys[@]} options and ${#aliases[@]} aliases all documented," \
    "${#documented[@]} documented names all parse."
fi
exit $fail
