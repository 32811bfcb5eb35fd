#!/usr/bin/env bash
# The checks of the installed `macnet` entry point that every CI job runs.
#
# - the exact max/min tail (scipy.special.owens_t), two-sided; the Monte Carlo mode it
#   replaced is a usage error (exit 1);
# - a grid point that passes the domain check a few ulps inside its boundary, where
#   LAPACK finds no Cholesky factor: exit 3 with a JSON NotPositiveDefinite;
# - a sample size past int64: exit 2;
# - one malformed file per CSV reader, each exit 2 with one line of JSON that names the
#   fault, file, line and column: an attribute CSV with a short row after a blank line
#   (infer), an edge CSV with a non-numeric p (classify) and a node class CSV that
#   repeats a node id once stripped (enrich);
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

# expect_error NAME ERROR PATH LINE COLUMN ARGS...: run `macnet ARGS...`, which must exit
# 2 with one line of JSON on stderr naming ERROR at PATH, LINE and COLUMN ("" for none)
expect_error() {
    local name="$1" error="$2" path="$3" line="$4" column="$5"
    shift 5
    expect 2 "$name" "$@"
    python - "$dir/$name.err" "$error" "$path" "$line" "$column" <<'PY'
import json
import sys

err, *want = sys.argv[1:]
lines = open(err).read().strip().splitlines()
assert len(lines) == 1, lines
payload = json.loads(lines[0])
got = [str(payload.get(key, "")) for key in ("error", "path", "line", "column")]
assert got == want, (got, want, payload)
PY
}

printf 'node_id,s1,s2,s3\nv0,1,2,3\n\nv1,4,5\n' > "$dir/short_row.csv"
expect_error short_row SchemaMismatch "$dir/short_row.csv" 4 "" \
    infer "$dir/short_row.csv" --out "$dir/short_row"
mkdir -p "$dir/bad_p"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\na,b,cca,0.9,30,1,oops,0.01,1\n' \
    > "$dir/bad_p/edges.csv"
expect_error bad_p NonNumericCell "$dir/bad_p/edges.csv" 2 7 \
    classify "$dir/bad_p/edges.csv" --out "$dir/bad_p/out"
printf 'node_id,label\nv1,protein\n v1 ,gene\n' > "$dir/repeated_id.csv"
printf 'set_one\tdesc\tv1\n' > "$dir/sets.gmt"
expect_error repeated_id DuplicateNodeId "$dir/repeated_id.csv" 3 1 \
    enrich "$dir/repeated_id.csv" "$dir/sets.gmt" --universe 10 --out "$dir/repeated_id"

expect 2 huge_n simulate --grid 0:0 --n 1000000000000000000000 --reps 5 --out "$dir/sim_huge_n"

bash "$(dirname "$0")/collinear_fixture.sh" "$dir/collinear"
echo "entry point: all checks passed"
