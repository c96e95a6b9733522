#!/bin/sh
# Run every workload once, each in its own process, and exit non-zero if any
# case failed.  Usage: sh bench/all.sh [seed] [seconds] [trace]
seed=${1:-1}
seconds=${2:-20}
trace=${3:-0}
status=0
for workload in corpus solve_evolution solve_nonevolution route_agreement; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
