#!/usr/bin/env bash
# Setup and report-write errors fail cleanly: for every bad path below
# mpos_bench must exit 2 -- not die by a signal, not exit 0 -- and say
# what went wrong on stderr, prefixed "mpos_bench: ".
#
# Cases: a foreign file and a version 1 journal under --resume; the
# --journal, --snapshot-dir, --golden-dir and --obs-dir directories
# under a regular file; a --json report under a regular file, both in
# the plain and the journaled report writer; and, where /dev/full
# exists, a --json report and a golden file whose writes fail with
# "no space left".
#
# Usage: bad_paths.sh <mpos_bench binary>

set -u

BENCH="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mpos_bad_paths.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

# The report cases simulate one small sweep first.
export MPOS_CYCLES=20000 MPOS_WARMUP=10000 MPOS_SEED=7 MPOS_JOBS=1
FLAGS="--only table01_workloads"

touch plain
mkdir foreign v1
echo "this is not a journal" > foreign/sweep.mpj
# The right magic with version 1: this build reads version 2.
printf 'MPOSJRN1\001\000\000\000' > v1/sweep.mpj

failures=0
cases=0

# expect <label> <stderr pattern> <mpos_bench args...>
expect() {
    local label="$1" pattern="$2"
    shift 2
    cases=$((cases + 1))
    "$BENCH" $FLAGS "$@" > out.txt 2> err.txt
    local rc=$?
    if [ "$rc" -gt 128 ]; then
        echo "FAIL [$label]: died by signal $((rc - 128))"
    elif [ "$rc" -ne 2 ]; then
        echo "FAIL [$label]: exit $rc, expected 2"
    elif ! grep -q -- "^mpos_bench: .*$pattern" err.txt; then
        echo "FAIL [$label]: no 'mpos_bench: ...$pattern' on stderr"
    elif grep -q -- "results in" err.txt; then
        echo "FAIL [$label]: claims a report was written"
    else
        echo "ok [$label]: exit 2: $(grep -m1 '^mpos_bench: ' err.txt)"
        return
    fi
    tail -n 5 err.txt
    failures=$((failures + 1))
}

expect "foreign journal" "is not a sweep journal" \
    --resume --journal foreign --json out.json
expect "version 1 journal" "has version 1, this build reads 2" \
    --resume --journal v1 --json out.json
expect "--journal under a file" "plain/sub" \
    --journal plain/sub --json out.json
expect "--snapshot-dir under a file" "plain/sub" \
    --snapshot-dir plain/sub --json out.json
expect "--golden-dir under a file" "plain/sub" \
    --golden-dir plain/sub --json out.json
expect "--obs-dir under a file" "plain/sub" \
    --trace --obs-dir plain/sub --json out.json
expect "--json under a file" "cannot write plain/out.json" \
    --json plain/out.json
expect "journaled --json under a file" "cannot write plain/out.json" \
    --journal jd --json plain/out.json

if [ -w /dev/full ]; then
    ln -s /dev/full full.json
    mkdir gold
    ln -s /dev/full gold/table01_workloads.json
    expect "--json on a full device" "cannot write full.json" \
        --json full.json
    expect "golden file on a full device" \
        "cannot write gold/table01_workloads.json" \
        --golden-dir gold --json out.json
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures of $cases bad-path case(s) failed"
    exit 1
fi
echo "all $cases bad-path cases exit 2 with a message"
