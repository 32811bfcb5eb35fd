"""CSV/JSON ingestion and serialization for the command-line pipeline.

One CSV per attribute on the way in (``node_id,s1,...,sn``); edge lists,
run metadata, summaries and simulation output on the way out.  Floats are
written with 17 significant digits so every file re-parses to the exact
values, and files are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .classify import EdgeClass, NodeClass, simplex_xy
from .enrichment import EnrichmentReport
from .errors import DuplicateNodeId, NonNumericCell, SchemaMismatch
from .network import AttributeDataset, EdgeRecord, InferredNetwork, NetworkSummary, SkippedPair
from .simulation import PowerResult

META_FILENAME = "meta.json"


def fmt(value) -> str:
    """Serialize one cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def atomic_write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows_to_csv(rows) -> str:
    import io as _io

    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _number(cell: str, path, lineno: int, col: int, convert=float):
    try:
        return convert(cell)
    except ValueError:
        raise NonNumericCell(f"{path}:{lineno}: column {col} is not numeric: {cell!r}",
                             path=str(path), line=lineno, column=col)


def _header(reader, path) -> list:
    try:
        return next(reader)
    except StopIteration:
        raise SchemaMismatch(f"{path}: file is empty", path=str(path), line=1)


# --- attribute ingestion ------------------------------------------------------


def _read_attribute_csv(path):
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = _header(reader, path)
        if not header or header[0].strip() != "node_id":
            raise SchemaMismatch(
                f"{path}: first header cell must be 'node_id'", path=str(path), line=1, column=1
            )
        n = len(header) - 1
        if n < 3:
            raise SchemaMismatch(
                f"{path}: need at least 3 sample columns, found {n}", path=str(path), line=1
            )
        ids = []
        rows = []
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 1:
                raise SchemaMismatch(
                    f"{path}:{lineno}: expected {n + 1} cells, found {len(row)}",
                    path=str(path),
                    line=lineno,
                )
            node_id = row[0].strip()
            if not node_id:
                raise SchemaMismatch(f"{path}:{lineno}: empty node id", path=str(path), line=lineno, column=1)
            if node_id in seen:
                raise DuplicateNodeId(f"{path}:{lineno}: duplicate node id {node_id!r}")
            seen.add(node_id)
            values = []
            for col, cell in enumerate(row[1:], start=2):
                value = _number(cell, path, lineno, col)
                if not np.isfinite(value):
                    raise NonNumericCell(
                        f"{path}:{lineno}: column {col} is not finite: {cell!r}",
                        path=str(path),
                        line=lineno,
                        column=col,
                    )
                values.append(value)
            ids.append(node_id)
            rows.append(values)
    if not ids:
        raise SchemaMismatch(f"{path}: no data rows", path=str(path), line=2)
    return ids, np.asarray(rows, dtype=float)


def ingest(paths: Sequence, attribute_names: Optional[Sequence[str]] = None) -> AttributeDataset:
    """Build a dataset from one CSV per attribute, aligned by node id.

    All files must cover the same node ids with the same sample count; rows
    are aligned to the first file's order.  Attribute order follows file
    order, named after the file stems unless names are supplied.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise SchemaMismatch("no attribute files supplied")
    if attribute_names is None:
        attribute_names = [p.stem for p in paths]
    if len(attribute_names) != len(paths):
        raise SchemaMismatch(
            f"{len(attribute_names)} attribute names for {len(paths)} files"
        )
    first_ids, first_block = _read_attribute_csv(paths[0])
    n = first_block.shape[1]
    blocks = [first_block]
    for path in paths[1:]:
        ids, block = _read_attribute_csv(path)
        if block.shape[1] != n:
            raise SchemaMismatch(
                f"{path}: {block.shape[1]} sample columns but {paths[0]} has {n}",
                path=str(path),
            )
        if set(ids) != set(first_ids):
            missing = sorted(set(first_ids) ^ set(ids))
            raise SchemaMismatch(
                f"{path}: node ids differ from {paths[0]} (first difference: {missing[0]!r})",
                path=str(path),
            )
        index = {v: i for i, v in enumerate(ids)}
        blocks.append(block[[index[v] for v in first_ids]])
    samples = np.stack(blocks, axis=1)
    return AttributeDataset(tuple(first_ids), tuple(attribute_names), samples)


# --- inferred network ----------------------------------------------------------

EDGE_FIELDS = ("node_i", "node_j", "method", "similarity", "statistic", "df", "p", "q")


def write_edges_csv(net: InferredNetwork, path):
    k = len(net.attribute_names)
    header = list(EDGE_FIELDS) + [f"contrib_{i + 1}" for i in range(k)]
    rows = [header]
    for edge in net.edges:
        contrib = list(edge.contrib) if edge.contrib is not None else [None] * k
        rows.append(
            [edge.node_i, edge.node_j, edge.method, fmt(edge.similarity), fmt(edge.statistic),
             fmt(edge.df), fmt(edge.p), fmt(edge.q)] + [fmt(c) for c in contrib]
        )
    atomic_write_text(path, _rows_to_csv(rows))


def network_meta(net: InferredNetwork) -> dict:
    from .inference import HOMOGENEITY_DF_FORMULA
    from .network import HOMOGENEITY_ALPHA

    return {
        "method": net.method,
        "gamma": net.gamma,
        "pvalue_mode": net.pvalue_mode,
        "n_samples": net.n_samples,
        "node_ids": list(net.node_ids),
        "attribute_names": list(net.attribute_names),
        "tested_pairs": net.tested_pairs,
        "n_edges": net.n_edges,
        "skipped_pairs": [
            {"node_i": s.node_i, "node_j": s.node_j, "reason": s.reason} for s in net.skipped
        ],
        "floored_pairs": [list(pair) for pair in net.floored],
        "homogeneity": {
            "reject_fraction": net.homogeneity_reject_fraction,
            "singular_pairs": net.homogeneity_singular_pairs,
            "alpha": HOMOGENEITY_ALPHA,
            "df_formula": HOMOGENEITY_DF_FORMULA,
        },
    }


def write_meta_json(net: InferredNetwork, path):
    atomic_write_text(path, json.dumps(network_meta(net), indent=2, sort_keys=True) + "\n")


def read_network(edges_path) -> InferredNetwork:
    """Re-build an inferred network from its CSV (and sibling metadata, if present)."""
    edges_path = Path(edges_path)
    meta_path = edges_path.parent / META_FILENAME
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else None

    with edges_path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = _header(reader, edges_path)
        if header[: len(EDGE_FIELDS)] != list(EDGE_FIELDS):
            raise SchemaMismatch(
                f"{edges_path}: unexpected edge header {header[:8]}", path=str(edges_path), line=1
            )
        edges = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaMismatch(
                    f"{edges_path}:{lineno}: expected {len(header)} cells, found {len(row)}",
                    path=str(edges_path),
                    line=lineno,
                )
            contrib = None
            if any(row[len(EDGE_FIELDS):]):
                contrib = tuple(_number(row[col], edges_path, lineno, col + 1)
                                for col in range(len(EDGE_FIELDS), len(row)))
            edges.append(
                EdgeRecord(
                    node_i=row[0],
                    node_j=row[1],
                    method=row[2],
                    similarity=_number(row[3], edges_path, lineno, 4),
                    statistic=_number(row[4], edges_path, lineno, 5),
                    df=_number(row[5], edges_path, lineno, 6, int) if row[5] != "" else None,
                    p=_number(row[6], edges_path, lineno, 7),
                    q=_number(row[7], edges_path, lineno, 8),
                    contrib=contrib,
                )
            )

    if meta is not None:
        node_ids = tuple(meta["node_ids"])
        attribute_names = tuple(meta["attribute_names"])
        skipped = tuple(
            SkippedPair(s["node_i"], s["node_j"], s["reason"]) for s in meta.get("skipped_pairs", [])
        )
        homogeneity = meta.get("homogeneity", {})
        return InferredNetwork(
            node_ids=node_ids,
            attribute_names=attribute_names,
            method=meta["method"],
            gamma=float(meta["gamma"]),
            n_samples=int(meta["n_samples"]),
            edges=tuple(edges),
            tested_pairs=int(meta.get("tested_pairs", 0)),
            skipped=skipped,
            floored=tuple(tuple(pair) for pair in meta.get("floored_pairs", [])),
            homogeneity_reject_fraction=homogeneity.get("reject_fraction"),
            homogeneity_singular_pairs=int(homogeneity.get("singular_pairs", 0)),
            pvalue_mode=meta.get("pvalue_mode", "formula"),
        )

    # no metadata: fall back to the nodes seen on edges, in first-seen order
    node_ids = list(dict.fromkeys(v for edge in edges for v in (edge.node_i, edge.node_j)))
    contrib_count = max((len(e.contrib) for e in edges if e.contrib is not None), default=1)
    method = edges[0].method if edges else "unknown"
    return InferredNetwork(
        node_ids=tuple(node_ids),
        attribute_names=tuple(f"attr_{i + 1}" for i in range(contrib_count)),
        method=method,
        gamma=float("nan"),
        n_samples=0,
        edges=tuple(edges),
        tested_pairs=len(edges),
    )


# --- summaries, classification, enrichment, power -------------------------------


def summary_dict(s: NetworkSummary) -> dict:
    return {
        "nodes": s.n_nodes,
        "edges": s.n_edges,
        "density": s.density,
        "lcc": s.lcc_size,
        "avg_correlation": s.avg_abs_similarity,
        "avg_degree": s.avg_degree,
        "avg_clustering": s.avg_clustering,
        "avg_betweenness": s.avg_betweenness,
    }


def write_summary_json(summaries: dict, path):
    atomic_write_text(path, json.dumps(summaries, indent=2, sort_keys=True) + "\n")


def write_jaccard_csv(rows, path):
    out = [["network_a", "network_b", "jaccard", "shared_edges"]]
    for a, b, value, shared in rows:
        out.append([a, b, fmt(value), fmt(shared)])
    atomic_write_text(path, _rows_to_csv(out))


def write_distribution_csv(net: InferredNetwork, degrees, clustering, betweenness, path):
    rows = [["node_id", "degree", "clustering", "betweenness"]]
    for v, d, c, b in zip(net.node_ids, degrees, clustering, betweenness):
        rows.append([v, fmt(d), fmt(c), fmt(b)])
    atomic_write_text(path, _rows_to_csv(rows))


def write_edge_classes_csv(edge_classes: Sequence[EdgeClass], attribute_names, path):
    rows = [["node_i", "node_j", "label", "threshold"] + [f"contrib_{a}" for a in attribute_names]]
    for ec in edge_classes:
        rows.append([ec.pair[0], ec.pair[1], ec.label, fmt(ec.threshold)] + [fmt(c) for c in ec.contrib])
    atomic_write_text(path, _rows_to_csv(rows))


def read_node_classes(path) -> dict:
    """Node id -> class label from a node class CSV written by ``classify``."""
    classes = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        if _header(reader, path)[:2] != ["node_id", "label"]:
            raise SchemaMismatch(f"{path}: expected node class CSV starting with node_id,label",
                                 path=str(path), line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise SchemaMismatch(f"{path}:{lineno}: expected at least 2 cells, found {len(row)}",
                                     path=str(path), line=lineno)
            classes[row[0]] = row[1]
    return classes


def write_node_classes_csv(node_classes: Sequence[NodeClass], attribute_names, path):
    rows = [["node_id", "label"] + [f"p_{a}" for a in attribute_names] + ["p_mixed"]]
    for nc in node_classes:
        rows.append([nc.node_id, nc.label] + [fmt(p) for p in nc.proportions])
    atomic_write_text(path, _rows_to_csv(rows))


def write_simplex_csv(node_classes: Sequence[NodeClass], attribute_names, path):
    """Barycentric coordinates per node; adds triangle x/y when there are 3 classes."""
    triangle = len(attribute_names) == 2
    header = ["node_id", "label"] + [f"p_{a}" for a in attribute_names] + ["p_mixed"]
    if triangle:
        header += ["x", "y"]
    rows = [header]
    for nc in node_classes:
        row = [nc.node_id, nc.label] + [fmt(p) for p in nc.proportions]
        if triangle:
            x, y = simplex_xy(nc.proportions)
            row += [fmt(x), fmt(y)]
        rows.append(row)
    atomic_write_text(path, _rows_to_csv(rows))


def write_histogram_csv(counts, path):
    edges = np.linspace(0.0, 1.0, len(counts) + 1)
    rows = [["bin_low", "bin_high", "count"]]
    for i, count in enumerate(counts):
        rows.append([fmt(edges[i]), fmt(edges[i + 1]), fmt(int(count))])
    atomic_write_text(path, _rows_to_csv(rows))


def write_enrichment_csv(report: EnrichmentReport, path):
    rows = [["class", "set", "overlap", "set_size", "class_size", "p", "q", "enriched"]]
    for r in report.results:
        rows.append(
            [r.class_label, r.set_name, fmt(r.overlap), fmt(r.set_size), fmt(r.class_size),
             fmt(r.p), fmt(r.q), "1" if r.enriched else "0"]
        )
    atomic_write_text(path, _rows_to_csv(rows))


def write_power_csv(result: PowerResult, path):
    spec = result.spec
    rows = [["r", "b", "rho1", "rho2", "n", "reps", "alpha", "scenario", "power", "mc_se"]]
    for cell in result.cells:
        rows.append(
            [fmt(cell.r), fmt(cell.b), fmt(spec.rho1), fmt(spec.rho2), fmt(spec.n),
             fmt(spec.reps), fmt(spec.alpha), fmt(cell.scenario), fmt(cell.power), fmt(cell.mc_se)]
        )
    atomic_write_text(path, _rows_to_csv(rows))
