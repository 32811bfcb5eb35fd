#!/usr/bin/env bash
# The checks of the installed `macnet` entry point that every CI job runs.
#
# - the exact max/min tail (scipy.special.owens_t), two-sided; the Monte Carlo mode it
#   replaced is a usage error (exit 1);
# - a grid point that passes the domain check a few ulps inside its boundary, where
#   LAPACK finds no Cholesky factor: exit 3 with a JSON NotPositiveDefinite;
# - a sample size past int64: exit 2;
# - the collinear fixture (collinear_fixture.sh).
#
# Each expected failure's status is tested explicitly, since CI runs steps under
# `bash -e`.
#
# Usage: entry_point.sh DIR   (DIR receives every output)
set -euo pipefail
dir="$1"
mkdir -p "$dir"

# expect CODE NAME ARGS...: run `macnet ARGS...`, which must exit CODE; its stderr
# goes to DIR/NAME.err
expect() {
    local want="$1" name="$2" code=0
    shift 2
    macnet "$@" 2> "$dir/$name.err" || code=$?
    if [ "$code" -ne "$want" ]; then
        echo "macnet $* exited $code, expected $want" >&2
        cat "$dir/$name.err" >&2
        exit 1
    fi
}

macnet simulate --grid 0:0 --reps 50 --scenarios 3,4 --two-sided --pvalue-mode exact \
    --out "$dir/sim_exact"
expect 1 montecarlo simulate --grid 0:0 --reps 50 --scenarios 3,4 --pvalue-mode montecarlo \
    --out "$dir/sim_mc"

for scenarios in 1,2 5; do
    expect 3 "boundary_$scenarios" simulate --grid=-0.5:0.29372539331937714 \
        --scenarios "$scenarios" --reps 10 --out "$dir/sim_boundary"
    python - "$dir/boundary_$scenarios.err" <<'PY'
import json
import sys

lines = open(sys.argv[1]).read().strip().splitlines()
assert len(lines) == 1, lines
assert json.loads(lines[0])["error"] == "NotPositiveDefinite", lines
PY
done

expect 2 huge_n simulate --grid 0:0 --n 1000000000000000000000 --reps 5 --out "$dir/sim_huge_n"

bash "$(dirname "$0")/collinear_fixture.sh" "$dir/collinear"
echo "entry point: all checks passed"
