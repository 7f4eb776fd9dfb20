#!/usr/bin/env bash
# Pins the schedule: runs casbench once per workload at seed 1 with the
# tracer on, and fails unless every run reports "correct": true and a
# records_digest (plain and traced) equal to the pin in
# ci/casbench_digests.txt.
#
# Usage, from the repository root: ci/check_digests.sh [PINS_FILE]
set -euo pipefail

pins="${1:-ci/casbench_digests.txt}"
bench=(cargo run --release --quiet --offline --manifest-path casbench/Cargo.toml --)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
while read -r workload want _; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    if ! "${bench[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        >"$tmp/out" 2>"$tmp/err"; then
        echo "FAIL $workload: casbench exited non-zero" >&2
        tail -n 5 "$tmp/err" >&2
        status=1
        continue
    fi
    if ! tail -n 1 "$tmp/out" | grep -q '"correct": true'; then
        echo "FAIL $workload: result is not \"correct\": true" >&2
        status=1
    fi
    read -r plain traced < <(sed -n 's/^records_digest plain \([0-9a-f]*\) traced \([0-9a-f]*\)$/\1 \2/p' "$tmp/err")
    if [[ "${plain:-}" == "$want" && "${traced:-}" == "$want" ]]; then
        echo "ok   $workload: records_digest $want"
    else
        echo "FAIL $workload: records_digest plain ${plain:-none} traced ${traced:-none}, pinned $want" >&2
        status=1
    fi
done <"$pins"
exit "$status"
