#!/bin/sh
# Compares the CLI's output with that of an earlier revision: runs each
# command line of scripts/cli_lines.txt on seeds 0-3, in JSON and in CSV,
# with this checkout's src and with REV's, and fails on the first artifact,
# stderr or exit code that differs.  JSON's git_describe is masked.  Each
# run is a fresh interpreter, REV's with hash seed 1 and this checkout's
# with hash seed 2, so on a clean checkout REV = HEAD checks that the
# artifacts do not depend on the process.  Run from the repository root:
#   sh scripts/compare_artifacts.sh REV
set -eu
rev=${1:?usage: sh scripts/compare_artifacts.sh REV}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/old"
git archive "$rev" src | tar -x -C "$tmp/old"

run() {  # run SIDE SRC HASHSEED ARGS...: SIDE.out and SIDE.err, exit code appended
  side=$1 src=$2 hashseed=$3
  shift 3
  rc=0
  PYTHONHASHSEED=$hashseed PYTHONPATH=$src python3 -m csikey.cli "$@" \
    > "$tmp/$side.out" 2> "$tmp/$side.err" || rc=$?
  echo "exit $rc" >> "$tmp/$side.err"
  sed 's/"git_describe": ".*"/"git_describe": "-"/' "$tmp/$side.out" \
    > "$tmp/$side.masked"
}

while read -r sub args; do
  case $sub in ''|'#'*) continue ;; esac
  for seed in 0 1 2 3; do
    for fmt in json csv; do
      # $args is split into words on purpose.
      run new src 2 $sub $args --seed $seed --format $fmt
      run old "$tmp/old/src" 1 $sub $args --seed $seed --format $fmt
      if ! cmp "$tmp/old.masked" "$tmp/new.masked" \
          || ! cmp "$tmp/old.err" "$tmp/new.err"; then
        echo "differs from $rev: $sub $args --seed $seed --format $fmt" >&2
        exit 1
      fi
    done
  done
  echo "$sub $args (seeds 0-3, json and csv): identical to $rev"
done < scripts/cli_lines.txt
