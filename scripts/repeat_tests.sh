#!/usr/bin/env bash
# Run the workspace test suite N times (default 20) and fail, listing every
# test that failed at least once with its failure count, if any run failed.
# A test that fails 1 time in 30 passes most single CI runs; repetition is
# what surfaces it.
#
#   ./scripts/repeat_tests.sh [runs]
set -uo pipefail
cd "$(dirname "$0")/.."
runs="${1:-20}"
log="$(mktemp -d)"
trap 'rm -rf "$log"' EXIT
cargo test -q --offline --workspace --no-run || exit 1
bad_runs=0
for i in $(seq 1 "$runs"); do
    if ! cargo test -q --offline --workspace --no-fail-fast >"$log/run$i.txt" 2>&1; then
        bad_runs=$((bad_runs + 1))
        echo "run $i/$runs: failed"
    else
        echo "run $i/$runs: ok"
    fi
done
# libtest prints "---- <test> stdout ----" for each failed test; a test
# binary that dies without that report is named by cargo's rerun hint.
failed="$(cat "$log"/run*.txt \
    | sed -n -e 's/^---- \(.*\) stdout ----$/\1/p' \
             -e 's/^error: test failed, to rerun pass `\(.*\)`$/binary \1/p' \
    | sort | uniq -c | sort -rn)"
if [ "$bad_runs" -gt 0 ]; then
    echo "$bad_runs of $runs runs failed. Failures per test (count, test):"
    echo "$failed"
    exit 1
fi
echo "all $runs runs passed"
