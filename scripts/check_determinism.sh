#!/bin/sh
# Runs each command line below twice, in fresh interpreters with different
# hash seeds, in JSON and in CSV, and fails unless the two artifacts are
# byte-identical.  Run from the repository root:
#   sh scripts/check_determinism.sh
set -eu
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
while read -r sub args; do
  for fmt in json csv; do
    for h in 1 2; do
      # $args is split into words on purpose.
      PYTHONHASHSEED=$h PYTHONPATH=src python3 -m csikey.cli $sub $args \
        --seed 3 --format $fmt > "$tmp/run_$h.$fmt"
    done
    cmp "$tmp/run_1.$fmt" "$tmp/run_2.$fmt"
    echo "$sub $args ($fmt): byte-identical"
  done
done <<'LINES'
params-table --n 8,16,80
ber --n 4 --trials 40
ber --n 4 --trials 70
key-agreement --n 8 --eta 32
ber --n 16 --m-rx 16 --log2m 8 --k 0.002 --alpha 1.68e-05 --trials 2
key-agreement --n 8 --eta 32 --noise-scale 0
key-agreement --n 8 --eta 32 --coder none
cipher --n 8 --trials 20
cipher --n 8 --trials 20 --noise-scale 0
reduction-demo --n 3 --trials 2
decision-to-search --n 2 --log2m 2 --trials 2
LINES
