#!/usr/bin/env bash
# --keep-going end-to-end: a sweep with one sabotaged standard run
# (std/Multpgm trips the watchdog) must fail -- a non-zero exit, not a
# death by signal -- while every other job still runs: the JSON report
# must name std/Multpgm as the only job whose status is not "ok".
#
# Usage: keep_going.sh <mpos_bench binary> <json report path>
# Extra MPOS_* settings (cycles, jobs) pass through the environment.

set -u

bench="${1:?usage: keep_going.sh <mpos_bench> <json>}"
json="${2:?usage: keep_going.sh <mpos_bench> <json>}"

err="$(mktemp)"
trap 'rm -f "$err"' EXIT

rm -f "$json"
"$bench" --smoke --keep-going --fault-job std/Multpgm --json "$json" \
    > /dev/null 2> "$err"
rc=$?

if [ "$rc" -eq 0 ]; then
    echo "FAIL: the sabotaged sweep exited 0"
    exit 1
fi
if [ "$rc" -gt 128 ]; then
    echo "FAIL: mpos_bench died by signal $((rc - 128))"
    tail -n 20 "$err"
    exit 1
fi
if [ ! -s "$json" ]; then
    echo "FAIL: no JSON report at $json"
    tail -n 20 "$err"
    exit 1
fi

# The report writes one job object per line inside the "jobs" array.
jobs="$(sed -n '/^  "jobs": \[/,/^  \],/p' "$json" | grep '"name": ')"
if [ -z "$jobs" ]; then
    echo "FAIL: $json lists no jobs"
    exit 1
fi
not_ok="$(printf '%s\n' "$jobs" | grep -v '"status": "ok"' |
          sed -E 's/.*"name": "([^"]*)".*/\1/')"
if [ "$not_ok" != "std/Multpgm" ]; then
    echo "FAIL: jobs not ok are [$(printf '%s' "$not_ok" | tr '\n' ' ')]," \
         "expected only std/Multpgm"
    exit 1
fi
echo "ok: exit $rc, std/Multpgm the only failed job of" \
     "$(printf '%s\n' "$jobs" | wc -l)"
