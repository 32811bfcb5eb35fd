"""Output checks against recomputations that share no code with macnet.

Each check takes the run directory, the stage and the workload's generated
truth, and returns a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.stats import chi2, hypergeom

from workloads import EXCLUDE, FDR, THRESHOLD, UNIVERSE

RTOL = 1e-9
P_RTOL = 1e-6


def _rows(path: Path):
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, [row for row in reader if row]


def _close(a, b, rtol=RTOL, atol=1e-12) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def bh_reject(p: np.ndarray, gamma: float) -> np.ndarray:
    """Benjamini-Hochberg step-up rejections as a boolean mask."""
    m = p.size
    order = np.argsort(p, kind="stable")
    passed = np.flatnonzero(p[order] <= gamma * np.arange(1, m + 1) / m)
    mask = np.zeros(m, dtype=bool)
    if passed.size:
        mask[order[: passed[-1] + 1]] = True
    return mask


def _pair_index(node_ids):
    return {v: i for i, v in enumerate(node_ids)}


def _edges_by_pair(run_dir: Path, stage, node_ids):
    _, rows = _rows(run_dir / stage.out / "edges.csv")
    index = _pair_index(node_ids)
    edges = {}
    problems = []
    for row in rows:
        i, j = index.get(row[0]), index.get(row[1])
        if i is None or j is None or i == j:
            problems.append(f"edge {row[:2]} names an unknown node")
            continue
        key = (min(i, j), max(i, j))
        if key in edges:
            problems.append(f"edge {row[:2]} is declared twice")
        edges[key] = row
    return edges, problems


def _standardised(samples: np.ndarray) -> np.ndarray:
    centred = samples - samples.mean(axis=-1, keepdims=True)
    return centred / np.linalg.norm(centred, axis=-1, keepdims=True)


def check_cca(run_dir: Path, stage, truth) -> list:
    """Canonical roots by whitened SVD, Bartlett's chi-squared, BH over all pairs."""
    node_ids, samples = truth["node_ids"], truth["samples"]
    count, k, n = samples.shape
    # orthonormal basis of each node's centred sample block: canonical
    # correlations are the singular values of Q_i' Q_j (Bjorck and Golub)
    q, _ = np.linalg.qr(np.swapaxes(samples - samples.mean(axis=-1, keepdims=True), 1, 2))
    iu, ju = np.triu_indices(count, 1)
    roots = np.linalg.svd(np.einsum("pna,pnb->pab", q[iu], q[ju]), compute_uv=False)
    roots = np.clip(roots, 0.0, 1.0)
    statistic = -((n - 1) - (k + 0.5)) * np.sum(np.log1p(-roots * roots), axis=1)
    p = chi2.sf(statistic, k * k)

    meta = json.loads((run_dir / stage.out / "meta.json").read_text(encoding="utf-8"))
    index = _pair_index(node_ids)
    skipped = {(min(index[s["node_i"]], index[s["node_j"]]), max(index[s["node_i"]], index[s["node_j"]]))
               for s in meta["skipped_pairs"]}
    tested = np.array([(i, j) not in skipped for i, j in zip(iu, ju)])
    expected = np.zeros(iu.size, dtype=bool)
    expected[tested] = bh_reject(p[tested], FDR)

    edges, problems = _edges_by_pair(run_dir, stage, node_ids)
    declared = {(int(i), int(j)) for i, j in zip(iu[expected], ju[expected])}
    if set(edges) != declared:
        problems.append(f"cca edge set differs from BH over recomputed p-values: "
                        f"{len(set(edges) - declared)} extra, {len(declared - set(edges))} missing")
    if meta["tested_pairs"] != int(tested.sum()):
        problems.append(f"meta.json tested_pairs {meta['tested_pairs']} != {int(tested.sum())}")
    position = {(int(i), int(j)): t for t, (i, j) in enumerate(zip(iu, ju))}
    for key, row in edges.items():
        t = position[key]
        if not (_close(float(row[3]), roots[t, 0]) and _close(float(row[4]), statistic[t])
                and row[5] == str(k * k) and _close(float(row[6]), p[t], P_RTOL, 1e-300)):
            problems.append(f"cca edge {row[:2]}: (similarity, statistic, df, p) = {row[3:7]}, "
                            f"expected ({roots[t, 0]!r}, {statistic[t]!r}, {k * k}, {p[t]!r})")
            break
    return problems


def check_max(run_dir: Path, stage, truth) -> list:
    """Similarity is the larger per-attribute correlation, statistic the larger Fisher z.

    p-values are not checked: the seed's two-sided max tail is known to be wrong.
    """
    node_ids, samples = truth["node_ids"], truth["samples"]
    n = samples.shape[2]
    z = _standardised(samples)
    corr = np.einsum("ian,jan->aij", z, z)
    edges, problems = _edges_by_pair(run_dir, stage, node_ids)
    for (i, j), row in edges.items():
        best = float(np.max(corr[:, i, j]))
        fisher = math.sqrt(n - 3) * math.atanh(best)
        if not (_close(float(row[3]), best) and _close(float(row[4]), fisher, RTOL, 1e-10)):
            problems.append(f"max edge {row[:2]}: (similarity, statistic) = {row[3:5]}, "
                            f"expected ({best!r}, {fisher!r})")
            break
    return problems


def _graph(run_dir: Path, edges_path: str):
    """Node ids (from a sibling meta.json, else from edge order) and edge pairs."""
    path = run_dir / edges_path
    _, rows = _rows(path)
    meta = path.parent / "meta.json"
    if meta.exists():
        node_ids = json.loads(meta.read_text(encoding="utf-8"))["node_ids"]
    else:
        node_ids = list(dict.fromkeys(v for row in rows for v in row[:2]))
    index = _pair_index(node_ids)
    pairs = [(index[row[0]], index[row[1]]) for row in rows]
    return node_ids, pairs


def check_netstat(run_dir: Path, stage, truth) -> list:
    """Summary counts, density, LCC and average degree/clustering via scipy.sparse.csgraph."""
    summary = json.loads((run_dir / stage.out / "summary.json").read_text(encoding="utf-8"))
    inputs = [a for a in stage.argv[1:] if a.endswith(".csv")]
    problems = []
    edge_sets = {}
    for edges_path in inputs:
        node_ids, pairs = _graph(run_dir, edges_path)
        count = len(node_ids)
        rows = np.array([i for i, _ in pairs] + [j for _, j in pairs], dtype=np.int64)
        cols = np.array([j for _, j in pairs] + [i for i, _ in pairs], dtype=np.int64)
        adj = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(count, count))
        degree = np.asarray(adj.sum(axis=1)).ravel()
        triangles = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel() / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            local = np.where(degree > 1, 2.0 * triangles / (degree * (degree - 1)), 0.0)
        _, labels = connected_components(adj, directed=False)
        expected = {
            "nodes": count,
            "edges": len(pairs),
            "density": 2.0 * len(pairs) / (count * (count - 1)),
            "lcc": int(np.bincount(labels).max()),
            "avg_degree": float(degree.mean()),
            "avg_clustering": float(local.mean()),
        }
        got = summary.get(edges_path)
        if got is None:
            problems.append(f"summary.json has no entry for {edges_path}")
            continue
        for key, value in expected.items():
            if not _close(float(got[key]), value):
                problems.append(f"{edges_path}: {key} = {got[key]!r}, expected {value!r}")
        edge_sets[edges_path] = {frozenset((node_ids[i], node_ids[j])) for i, j in pairs}
    if len(inputs) > 1:
        _, rows = _rows(run_dir / stage.out / "jaccard.csv")
        for a, b, value, shared in rows:
            both = edge_sets[a] & edge_sets[b]
            union = edge_sets[a] | edge_sets[b]
            expected = len(both) / len(union) if union else 1.0
            if int(shared) != len(both) or not _close(float(value), expected):
                problems.append(f"jaccard({a}, {b}) = ({value}, {shared}), "
                                f"expected ({expected!r}, {len(both)})")
    return problems


def check_classify(run_dir: Path, stage, truth) -> list:
    """One row per edge and per node; each edge label follows the threshold rule."""
    edges_path = stage.argv[1]
    header, edges = _rows(run_dir / edges_path)
    meta = (run_dir / edges_path).parent / "meta.json"
    attributes = json.loads(meta.read_text(encoding="utf-8"))["attribute_names"]
    node_ids, _ = _graph(run_dir, edges_path)
    _, edge_classes = _rows(run_dir / stage.out / "edge_classes.csv")
    _, node_classes = _rows(run_dir / stage.out / "node_classes.csv")
    problems = []
    if len(edge_classes) != len(edges) or len(node_classes) != len(node_ids):
        problems.append(f"{len(edge_classes)} edge / {len(node_classes)} node classes for "
                        f"{len(edges)} edges / {len(node_ids)} nodes")
        return problems
    first = header.index("contrib_1")
    for edge, got in zip(edges, edge_classes):
        contrib = [float(c) for c in edge[first:]]
        top = int(np.argmax(contrib))
        label = attributes[top] if contrib[top] >= 1.0 - THRESHOLD else "mixed"
        if got[:3] != [edge[0], edge[1], label]:
            problems.append(f"edge class {got[:3]}, expected {[edge[0], edge[1], label]}")
            break
    return problems


def check_enrich(run_dir: Path, stage, truth) -> list:
    """Overlaps recounted, p-values from scipy's hypergeometric law, BH decisions redone."""
    _, classes = _rows(run_dir / stage.argv[1])
    # a node counts as annotated if any set in the file names it, excluded sets included
    annotated = set().union(*truth["sets"].values())
    sets = {name: set(members) for name, members in truth["sets"].items() if EXCLUDE not in name}
    members = {}
    for node, label, *_ in classes:
        if node in annotated and label != "unclassified":
            members.setdefault(label, set()).add(node)
    expected_rows = {(label, name) for label in members for name in sets}
    _, rows = _rows(run_dir / stage.out / "enrichment.csv")
    problems = []
    if {(r[0], r[1]) for r in rows} != expected_rows or len(rows) != len(expected_rows):
        return [f"{len(rows)} enrichment rows, expected {len(expected_rows)}"]
    overlap = np.array([len(members[r[0]] & sets[r[1]]) for r in rows])
    set_size = np.array([len(sets[r[1]]) for r in rows])
    class_size = np.array([len(members[r[0]]) for r in rows])
    got = np.array([[int(r[2]), int(r[3]), int(r[4])] for r in rows])
    if not np.array_equal(got, np.stack([overlap, set_size, class_size], axis=1)):
        problems.append("enrichment overlap, set or class sizes differ from a recount")
    p = np.where(overlap > 0, hypergeom.sf(overlap - 1, UNIVERSE, set_size, class_size), 1.0)
    got_p = np.array([float(r[5]) for r in rows])
    if not np.all(np.abs(got_p - p) <= 1e-300 + P_RTOL * np.abs(p)):
        problems.append("enrichment p-values differ from scipy.stats.hypergeom")
    enriched = np.array([r[7] == "1" for r in rows])
    if not np.array_equal(enriched, bh_reject(p, FDR)):
        problems.append("enriched flags differ from BH over recomputed p-values")
    return problems


def check_power(run_dir: Path, stage, truth) -> list:
    """Row count, power within [0, 1] and mc_se = sqrt(p(1-p)/reps)."""
    header, rows = _rows(run_dir / stage.out / "power.csv")
    problems = []
    if len(rows) != truth["points"] * 5:
        problems.append(f"{len(rows)} power rows, expected {truth['points'] * 5}")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        power, se, reps = float(row[col["power"]]), float(row[col["mc_se"]]), int(row[col["reps"]])
        if not (0.0 <= power <= 1.0) or reps != truth["reps"] or int(row[col["n"]]) != truth["n"]:
            problems.append(f"power row {row} is out of range")
            break
        if not _close(se, math.sqrt(power * (1.0 - power) / reps), 1e-12, 1e-15):
            problems.append(f"power row {row}: mc_se is not sqrt(p(1-p)/reps)")
            break
    return problems


CHECKS = {
    "cca": check_cca,
    "max": check_max,
    "netstat": check_netstat,
    "classify": check_classify,
    "enrich": check_enrich,
    "power": check_power,
}
