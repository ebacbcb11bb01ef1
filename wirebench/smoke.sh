#!/usr/bin/env bash
# Smoke test: every workload, untraced and traced, at tiny scale, with all
# of its guards. Run from the repository root; exits non-zero on the first
# failure.
set -euo pipefail
for workload in read ingest mixed mine; do
    for trace in 0 1; do
        last=$(bash wirebench/run.sh --workload "$workload" --seed 7 --seconds 1 \
            --trace "$trace" --scale tiny 2>/dev/null | tail -n 1) || true
        case "$last" in
            '{"correct":true,'*) echo "ok   $workload trace=$trace" ;;
            *) echo "FAIL $workload trace=$trace: $last" >&2; exit 1 ;;
        esac
    done
done
