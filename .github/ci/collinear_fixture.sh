#!/usr/bin/env bash
# The collinear-fixture check of the installed `macnet` entry point.
#
# Node v1's attributes are a linear copy of v0's, 2 v0 + 1.  Under cca their joint
# correlation matrix is singular, the pair's roots come from the two node blocks,
# its p is 0, and netstat and classify read the edge back.  Under max the pair's
# per-attribute |r| is 1, so infer exits 2 and names both nodes.
#
# Usage: collinear_fixture.sh DIR   (DIR receives the fixture and every output)
set -euo pipefail
dir="$1"
mkdir -p "$dir"

python - "$dir" <<'PY'
import os
import sys

import numpy as np

rng = np.random.default_rng(7)
x = rng.standard_normal((2, 8, 30))
x[:, 1] = 2.0 * x[:, 0] + 1.0
for name, block in zip(("a", "b"), x):
    rows = ["node_id," + ",".join(f"s{t}" for t in range(30))]
    rows += [f"v{v}," + ",".join(map(str, row.tolist())) for v, row in enumerate(block)]
    with open(os.path.join(sys.argv[1], name + ".csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
PY

macnet infer "$dir/a.csv" "$dir/b.csv" --method cca --out "$dir/infer"
python - "$dir/infer" <<'PY'
import csv
import json
import os
import sys

out = sys.argv[1]
meta = json.load(open(os.path.join(out, "meta.json")))
n = len(meta["node_ids"])
assert meta["skipped_pairs"] == [], meta
assert meta["floored_pairs"] == [], meta
assert ["v0", "v1"] in meta["singular_pairs"], meta
assert meta["tested_pairs"] == n * (n - 1) // 2, meta
rows = [row for row in csv.DictReader(open(os.path.join(out, "edges.csv")))
        if (row["node_i"], row["node_j"]) == ("v0", "v1")]
assert len(rows) == 1 and float(rows[0]["p"]) == 0.0, rows
PY
macnet netstat "$dir/infer/edges.csv" --out "$dir/netstat"
macnet classify "$dir/infer/edges.csv" --out "$dir/classify"

code=0
macnet infer "$dir/a.csv" "$dir/b.csv" --method max --out "$dir/infer_max" 2> "$dir/max.err" || code=$?
if [ "$code" -ne 2 ]; then
    echo "infer --method max exited $code, expected 2" >&2
    cat "$dir/max.err" >&2
    exit 1
fi
python - "$dir/max.err" <<'PY'
import json
import sys

err = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
assert err["error"] == "DegenerateCorrelation", err
assert "'v0'" in err["message"] and "'v1'" in err["message"], err
PY
echo "collinear fixture: all checks passed"
