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
#   (infer), edge CSVs with a non-numeric p, a NaN p and a df past int64 (classify),
#   a max edge CSV that carries contributions (netstat) and a node class CSV that
#   repeats a node id once stripped (enrich);
# - the simple-graph rule of edge CSVs: an edge that gives a node pair again, reversed,
#   a self-loop, and an endpoint missing from the meta.json's node ids each make netstat
#   exit 2 with one line of JSON naming the line (and, but for the repeat, the column);
# - an infer input that is a directory: exit 2 with one line of JSON naming the path;
# - classify's method rule: a max edge CSV exits 2 with one line of JSON naming
#   MissingContribution, and a header-only pearson edge CSV with its meta.json exits 0
#   with every node unclassified;
# - the homogeneity check is cca's: infer --method max writes "reject_fraction": null;
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
mkdir -p "$dir/nan_p"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\na,b,cca,0.9,30,1,nan,0.01,1\n' \
    > "$dir/nan_p/edges.csv"
expect_error nan_p NonNumericCell "$dir/nan_p/edges.csv" 2 7 \
    classify "$dir/nan_p/edges.csv" --out "$dir/nan_p/out"
mkdir -p "$dir/huge_df"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\na,b,cca,0.9,30,99999999999999999999999,0.001,0.01,1\n' \
    > "$dir/huge_df/edges.csv"
expect_error huge_df NonNumericCell "$dir/huge_df/edges.csv" 2 6 \
    classify "$dir/huge_df/edges.csv" --out "$dir/huge_df/out"
mkdir -p "$dir/max_contrib"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1,contrib_2\na,b,max,0.9,30,,0.001,0.01,0.5,0.5\n' \
    > "$dir/max_contrib/edges.csv"
expect_error max_contrib NonNumericCell "$dir/max_contrib/edges.csv" 2 9 \
    netstat "$dir/max_contrib/edges.csv" --out "$dir/max_contrib/out"
mkdir -p "$dir/repeated_pair"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\na,b,max,0.9,30,,0.001,0.01,\nb,a,max,0.9,30,,0.001,0.01,\nb,c,max,0.9,30,,0.001,0.01,\n' \
    > "$dir/repeated_pair/edges.csv"
expect_error repeated_pair SchemaMismatch "$dir/repeated_pair/edges.csv" 3 "" \
    netstat "$dir/repeated_pair/edges.csv" --out "$dir/repeated_pair/out"
mkdir -p "$dir/self_loop"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\na,b,max,0.9,30,,0.001,0.01,\nc,c,max,0.9,30,,0.001,0.01,\n' \
    > "$dir/self_loop/edges.csv"
expect_error self_loop SchemaMismatch "$dir/self_loop/edges.csv" 3 2 \
    netstat "$dir/self_loop/edges.csv" --out "$dir/self_loop/out"
mkdir -p "$dir/missing_end"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1,contrib_2\na,b,max,0.9,30,,0.001,0.01,,\nz,c,max,0.9,30,,0.001,0.01,,\n' \
    > "$dir/missing_end/edges.csv"
printf '{"method": "max", "gamma": 0.05, "n_samples": 10, "node_ids": ["a", "b", "c"], "attribute_names": ["x", "y"]}\n' \
    > "$dir/missing_end/meta.json"
expect_error missing_end SchemaMismatch "$dir/missing_end/edges.csv" 3 1 \
    netstat "$dir/missing_end/edges.csv" --out "$dir/missing_end/out"
printf 'node_id,label\nv1,protein\n v1 ,gene\n' > "$dir/repeated_id.csv"
printf 'set_one\tdesc\tv1\n' > "$dir/sets.gmt"
expect_error repeated_id DuplicateNodeId "$dir/repeated_id.csv" 3 1 \
    enrich "$dir/repeated_id.csv" "$dir/sets.gmt" --universe 10 --out "$dir/repeated_id"

mkdir -p "$dir/input_dir"
expect_error input_dir SchemaMismatch "$dir/input_dir" "" "" \
    infer "$dir/input_dir" --out "$dir/input_dir_out"

mkdir -p "$dir/max_edges"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1,contrib_2\na,b,max,0.9,30,,0.001,0.01,,\n' \
    > "$dir/max_edges/edges.csv"
expect_error max_edges MissingContribution "" "" "" \
    classify "$dir/max_edges/edges.csv" --out "$dir/max_edges/out"
mkdir -p "$dir/no_edges"
printf 'node_i,node_j,method,similarity,statistic,df,p,q,contrib_1\n' > "$dir/no_edges/edges.csv"
printf '{"method": "pearson", "gamma": 0.05, "n_samples": 10, "node_ids": ["a", "b", "c"], "attribute_names": ["x"]}\n' \
    > "$dir/no_edges/meta.json"
macnet classify "$dir/no_edges/edges.csv" --out "$dir/no_edges/out"
python - "$dir/no_edges/out/node_classes.csv" <<'PY'
import csv
import sys

with open(sys.argv[1], newline="", encoding="utf-8") as handle:
    rows = [(row["node_id"], row["label"]) for row in csv.DictReader(handle)]
assert rows == [("a", "unclassified"), ("b", "unclassified"), ("c", "unclassified")], rows
PY

mkdir -p "$dir/max_meta"
python - "$dir/max_meta" <<'PY'
import os
import sys

import numpy as np

x = np.random.default_rng(3).standard_normal((2, 5, 12))
for name, block in zip(("a", "b"), x):
    rows = ["node_id," + ",".join(f"s{t}" for t in range(12))]
    rows += [f"v{v}," + ",".join(map(str, row.tolist())) for v, row in enumerate(block)]
    with open(os.path.join(sys.argv[1], name + ".csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
PY
macnet infer "$dir/max_meta/a.csv" "$dir/max_meta/b.csv" --method max --out "$dir/max_meta/out"
grep -q '"reject_fraction": null' "$dir/max_meta/out/meta.json" \
    || { echo "infer --method max wrote a homogeneity verdict" >&2; exit 1; }

expect 2 huge_n simulate --grid 0:0 --n 1000000000000000000000 --reps 5 --out "$dir/sim_huge_n"

bash "$(dirname "$0")/collinear_fixture.sh" "$dir/collinear"
echo "entry point: all checks passed"
