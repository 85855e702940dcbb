#!/bin/sh
# Runs each command line of scripts/cli_lines.txt twice, in fresh
# interpreters with different hash seeds, in JSON and in CSV, and fails
# unless the two artifacts are byte-identical.  Run from the repository root:
#   sh scripts/check_determinism.sh
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
while read -r sub args; do
  case $sub in ''|'#'*) continue ;; esac
  for fmt in json csv; do
    for h in 1 2; do
      # $args is split into words on purpose.
      PYTHONHASHSEED=$h PYTHONPATH=src python3 -m csikey.cli $sub $args \
        --seed 3 --format $fmt > "$tmp/run_$h.$fmt"
    done
    cmp "$tmp/run_1.$fmt" "$tmp/run_2.$fmt"
    echo "$sub $args ($fmt): byte-identical"
  done
done < scripts/cli_lines.txt
