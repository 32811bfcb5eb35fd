"""CSV/JSON ingestion and serialization for the command-line pipeline.

One CSV per attribute on the way in (``node_id,s1,...,sn``); edge lists,
run metadata, summaries and simulation output on the way out.  Floats are
written with 17 significant digits so every file re-parses to the exact
values, and files are written atomically (temp file + rename).  A CSV is
formatted and written ``BLOCK_ROWS`` rows at a time, so writing one holds a
block's cell strings, not the whole file's.
"""

from __future__ import annotations

import csv
import json
import os
import re
import tempfile
from collections import Counter
from dataclasses import replace
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .classify import EdgeClasses, NodeClasses, simplex_xy
from .enrichment import EnrichmentReport
from .errors import DuplicateNodeId, NonNumericCell, SchemaMismatch
from .network import AttributeDataset, EdgeTable, InferredNetwork, NetworkSummary
from .simulation import PowerResult

META_FILENAME = "meta.json"

#: rows of a CSV formatted and written at a time
BLOCK_ROWS = 65536

#: a text cell holding one of these characters may need quoting, and goes through the
#: csv module, which decides whether and how
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    """Serialize one cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _cells(values, blank=None) -> list:
    """One column's cells by the rule of ``fmt``, formatted in one pass; cells where
    ``blank`` is true are left empty and are not formatted."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        text = str
    else:
        text, values = "%.17g".__mod__, values.astype(float)
    if blank is None:
        return list(map(text, values.tolist()))
    cells = np.full(len(values), "", dtype=object)
    keep = ~np.asarray(blank, dtype=bool)
    cells[keep] = list(map(text, values[keep].tolist()))
    return cells.tolist()


def _csv_cell(cell: str) -> str:
    """One text cell as ``csv.writer(lineterminator="\\n")`` writes it within a row."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([cell])
    return buffer.getvalue()[:-1]


def _text_cells(cells: list) -> list:
    """Text cells quoted as csv.writer quotes them; a block with no special character
    is returned as it is."""
    if not _CSV_SPECIAL.search("".join(cells)):
        return cells
    return [_csv_cell(c) if _CSV_SPECIAL.search(c) else c for c in cells]


def _block_cells(part) -> list:
    """The cells of one block of a column: a numeric array is formatted by ``_cells``,
    with its masked cells (``np.ma``) left empty; any other sequence holds text."""
    if isinstance(part, np.ndarray) and part.dtype.kind in "iuf":
        return _cells(np.ma.getdata(part), np.ma.getmask(part) if np.ma.is_masked(part) else None)
    return _text_cells(part.tolist() if isinstance(part, np.ndarray) else list(part))


def atomic_write_text(path, blocks: Iterable[str]):
    """Write the strings of ``blocks``, in order, to a temp file beside ``path``, then
    rename it over ``path``; a failed write leaves ``path`` as it was.  The file gets
    the mode ``open`` would give it, 0o666 less the umask, not mkstemp's 0o600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(blocks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_blocks(header, columns):
    """The text of a CSV, one block of rows at a time; the rows are the bytes that
    ``csv.writer(lineterminator="\\n")`` writes for them."""
    yield ",".join(_text_cells(list(header))) + "\n"
    rows = len(columns[0])
    for lo in range(0, rows, BLOCK_ROWS):
        cells = [_block_cells(c[lo:lo + BLOCK_ROWS]) for c in columns]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def _write_columns(path, header, columns):
    """A CSV of one header row and two or more equal-length columns.  A column is a
    numeric array, whose cells are written as ``fmt`` writes them and whose masked
    cells (``np.ma``) are left empty, or a sequence of text cells."""
    atomic_write_text(path, _csv_blocks(header, columns))


def _read_rows(path, check_header, keyed: bool = False, min_cells: int | None = None):
    """The header of the CSV at ``path``, its data rows and their line numbers, blank
    rows skipped.  ``check_header(header)`` raises unless the header is the file's.  A
    row whose cell count is not the header's (with ``min_cells``: is below it) is
    rejected with its line.  With ``keyed`` its first cell is a node id, stripped; a
    blank id, or one given before, is rejected at column 1.  Rows are checked in file
    order, each row's cell count before its node id, so the first faulty row is reported."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaMismatch(f"{path}: file is empty", path=str(path), line=1)
        check_header(header)
        want = f"at least {min_cells}" if min_cells else len(header)
        rows, lines, seen = [], [], set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < min_cells if min_cells else len(row) != len(header):
                raise SchemaMismatch(f"{path}:{lineno}: expected {want} cells, found {len(row)}",
                                     path=str(path), line=lineno)
            if keyed:  # the node id: stripped, and neither blank nor given before
                row[0] = row[0].strip()
                if not row[0]:
                    raise SchemaMismatch(f"{path}:{lineno}: empty node id", path=str(path),
                                         line=lineno, column=1)
                if row[0] in seen:
                    raise DuplicateNodeId(f"{path}:{lineno}: duplicate node id {row[0]!r}",
                                          path=str(path), line=lineno, column=1)
                seen.add(row[0])
            rows.append(row)
            lines.append(lineno)
    return header, rows, lines


def _first_bad_cell(path, rows, lines, cells, finite: bool = False):
    """Raise ``NonNumericCell`` at the first cell, in file order, that is not a number
    (with ``finite``: not a finite one).  ``cells(row)`` gives the (index, type) of the
    cells of a row to parse, in the order to check them.  Run after a whole-column
    parse has failed, so that the error names the bad cell's line and column."""
    for lineno, row in zip(lines, rows):
        for col, convert in cells(row):
            try:
                value = convert(row[col])
            except ValueError:
                problem = "numeric"
            else:
                problem = "finite" if finite and not np.isfinite(value) else ""
            if problem:
                raise NonNumericCell(
                    f"{path}:{lineno}: column {col + 1} is not {problem}: {row[col]!r}",
                    path=str(path), line=lineno, column=col + 1)


# --- attribute ingestion ------------------------------------------------------


def _read_attribute_csv(path):
    def check_header(header):
        if not header or header[0].strip() != "node_id":
            raise SchemaMismatch(f"{path}: first header cell must be 'node_id'", path=str(path),
                                 line=1, column=1)
        if len(header) < 4:
            raise SchemaMismatch(f"{path}: need at least 3 sample columns, found {len(header) - 1}",
                                 path=str(path), line=1)

    _, rows, lines = _read_rows(path, check_header, keyed=True)
    if not rows:
        raise SchemaMismatch(f"{path}: no data rows", path=str(path), line=2)
    try:
        block = np.array([row[1:] for row in rows], dtype=float)
    except ValueError:
        block = None
    if block is None or not np.isfinite(block).all():
        _first_bad_cell(path, rows, lines, lambda row: [(col, float) for col in range(1, len(row))],
                        finite=True)
    return [row[0] for row in rows], block


def ingest(paths: Sequence) -> AttributeDataset:
    """Build a dataset from one CSV per attribute, aligned by node id.

    All files must cover the same node ids with the same sample count; rows
    are aligned to the first file's order.  Attribute order follows file
    order, named after the file stems; two files with one stem are rejected.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise SchemaMismatch("no attribute files supplied")
    attribute_names = [p.stem for p in paths]
    first_path = {}
    for path, name in zip(paths, attribute_names):
        if name in first_path:
            raise SchemaMismatch(f"{first_path[name]} and {path} both give attribute {name!r}",
                                 path=str(path))
        first_path[name] = path
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
    table = net.table
    k = len(net.attribute_names)
    header = list(EDGE_FIELDS) + [f"contrib_{i + 1}" for i in range(k)]
    names = np.array(net.node_ids, dtype=object)
    no_contrib = np.isnan(table.contrib).all(axis=1)
    columns = [names[table.ends[:, 0]], names[table.ends[:, 1]], [net.method] * len(table),
               table.similarity, table.statistic, np.ma.masked_array(table.df, np.isnan(table.df)),
               table.p, table.q]
    columns += [np.ma.masked_array(c, no_contrib) for c in table.contrib.T]
    _write_columns(path, header, columns)


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
        # infer tests every pair and floors no eigenvalue, so none is skipped or floored;
        # the keys stay for readers that look them up
        "skipped_pairs": [],
        "floored_pairs": [],
        "singular_pairs": [list(pair) for pair in net.singular_pairs],
        "homogeneity": {
            "reject_fraction": net.homogeneity_reject_fraction,
            "singular_pairs": net.homogeneity_singular_pairs,
            "alpha": HOMOGENEITY_ALPHA,
            "df_formula": HOMOGENEITY_DF_FORMULA,
        },
    }


def write_meta_json(net: InferredNetwork, path):
    atomic_write_text(path, [json.dumps(network_meta(net), indent=2, sort_keys=True) + "\n"])


def _optional_column(columns, m: int, dtype) -> np.ndarray:
    """Cells of c columns of m rows parsed as an (m, c) float array; a row whose
    cells are all empty reads as NaN."""
    if all("" not in c for c in columns):
        return np.array(columns, dtype=dtype).reshape(len(columns), m).T.astype(float)
    cells = np.array(columns, dtype=str).reshape(len(columns), m).T
    given = (cells != "").any(axis=1)
    values = np.full(cells.shape, np.nan)
    values[given] = cells[given].astype(dtype)
    return values


def _edge_table(rows, width: int, index: dict, path, lines) -> EdgeTable:
    """The edge table of an edge CSV's rows of ``width`` cells, endpoints looked up in
    ``index``; numeric columns are parsed whole."""
    columns = list(zip(*rows)) or [()] * width
    ends = np.array([[index.get(v, -1) for v in columns[x]] for x in (0, 1)],
                    dtype=np.intp).T.reshape(-1, 2)
    bad = (ends < 0).any(axis=1) | (ends[:, 0] == ends[:, 1])
    if bad.any():
        x = int(np.argmax(bad))
        if (ends[x] >= 0).all():
            problem, column = f"self-loop on {rows[x][0]!r}", 2
        else:
            column = 1 if ends[x, 0] < 0 else 2
            problem = f"endpoint {rows[x][column - 1]!r} is not among the node ids of {META_FILENAME}"
        raise SchemaMismatch(f"{path}:{lines[x]}: {problem}", path=str(path), line=lines[x],
                             column=column)
    fields = len(EDGE_FIELDS)
    try:
        return EdgeTable(ends=ends, similarity=np.array(columns[3], dtype=float),
                         statistic=np.array(columns[4], dtype=float),
                         df=_optional_column(columns[5:6], len(rows), np.int64)[:, 0],
                         p=np.array(columns[6], dtype=float), q=np.array(columns[7], dtype=float),
                         contrib=_optional_column(columns[fields:width], len(rows), float))
    except (ValueError, OverflowError):
        # a row's contribution cells (unless all empty) first, then columns 4-8 (df may be empty)
        _first_bad_cell(path, rows, lines, lambda row: (
            [(col, float) for col in range(fields, width) if any(row[fields:])]
            + [(col, int if col == 5 else float) for col in range(3, fields)
               if col != 5 or row[col]]))
        raise


def _read_meta(path) -> dict:
    """The ``InferredNetwork`` fields that a meta.json written by ``infer`` holds; a file
    that is not JSON, lacks or mistypes a field (node ids and attribute names must be
    lists of strings), or repeats a node id, is rejected with its path."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
        homogeneity = meta.get("homogeneity", {})
        for field in ("node_ids", "attribute_names"):
            if not isinstance(meta[field], list):
                raise TypeError(f"{field} is not a list")
            if not all(isinstance(v, str) for v in meta[field]):
                raise TypeError(f"{field} holds a value that is not a string")
        node_ids = tuple(meta["node_ids"])
        repeated = [v for v, count in Counter(node_ids).items() if count > 1]
        if repeated:
            raise ValueError(f"node_ids repeats {repeated[0]!r}")
        return {
            "node_ids": node_ids,
            "attribute_names": tuple(meta["attribute_names"]),
            "method": meta["method"],
            "gamma": float(meta["gamma"]),
            "n_samples": int(meta["n_samples"]),
            "tested_pairs": int(meta.get("tested_pairs", 0)),
            "singular_pairs": tuple(tuple(pair) for pair in meta.get("singular_pairs", [])),
            "homogeneity_reject_fraction": homogeneity.get("reject_fraction"),
            "homogeneity_singular_pairs": int(homogeneity.get("singular_pairs", 0)),
            "pvalue_mode": meta.get("pvalue_mode", "formula"),
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON too
        raise SchemaMismatch(f"{path}: not network metadata ({type(exc).__name__}: {exc})",
                             path=str(path)) from None


def read_network(edges_path) -> InferredNetwork:
    """Re-build an inferred network from its CSV and sibling meta.json.

    Without a meta.json the nodes are those seen on edges, in first-seen order, the
    method is the first edge's, every edge counts as a tested pair, and the attributes
    are named attr_1, attr_2, ... after the contribution columns.  A header whose
    contribution columns do not match the meta.json's attribute count is rejected with
    line 1; an edge whose endpoint is missing from the node ids, a self-loop, and an
    edge whose method is not the network's are rejected with their line.
    """
    edges_path = Path(edges_path)
    meta_path = edges_path.parent / META_FILENAME
    meta = _read_meta(meta_path) if meta_path.exists() else None

    def check_header(header):
        if header[: len(EDGE_FIELDS)] != list(EDGE_FIELDS):
            raise SchemaMismatch(f"{edges_path}: unexpected edge header {header[:8]}",
                                 path=str(edges_path), line=1)
        contrib_columns = len(header) - len(EDGE_FIELDS)
        if meta is not None and contrib_columns != len(meta["attribute_names"]):
            raise SchemaMismatch(f"{edges_path}:1: {contrib_columns} contribution columns, but "
                                 f"{META_FILENAME} names {len(meta['attribute_names'])} attributes",
                                 path=str(edges_path), line=1)

    header, rows, lines = _read_rows(edges_path, check_header)
    if meta is None:
        meta = {"node_ids": tuple(dict.fromkeys(v for row in rows for v in row[:2])),
                "method": rows[0][2] if rows else "unknown", "gamma": float("nan"),
                "n_samples": 0, "tested_pairs": len(rows)}
    for row, lineno in zip(rows, lines):
        if row[2] != meta["method"]:
            raise SchemaMismatch(f"{edges_path}:{lineno}: method {row[2]!r} is not the "
                                 f"network's {meta['method']!r}", path=str(edges_path),
                                 line=lineno, column=3)
    table = _edge_table(rows, len(header), {v: x for x, v in enumerate(meta["node_ids"])},
                        edges_path, lines)
    no_contrib = np.isnan(table.contrib).all()
    count = 1 if no_contrib else table.contrib.shape[1]
    meta.setdefault("attribute_names", tuple(f"attr_{i + 1}" for i in range(count)))
    if no_contrib:
        # one empty contribution cell per attribute, as infer writes them
        table = replace(table, contrib=np.full((len(table), len(meta["attribute_names"])), np.nan))
    return InferredNetwork(table=table, **meta)


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
    atomic_write_text(path, [json.dumps(summaries, indent=2, sort_keys=True) + "\n"])


def write_jaccard_csv(rows, path):
    a, b, value, shared = zip(*rows) if rows else ((),) * 4
    _write_columns(path, ["network_a", "network_b", "jaccard", "shared_edges"],
                   [a, b, np.array(value, dtype=float), np.array(shared, dtype=int)])


def write_distribution_csv(net: InferredNetwork, degrees, clustering, betweenness, path):
    _write_columns(path, ["node_id", "degree", "clustering", "betweenness"],
                   [net.node_ids, np.asarray(degrees), np.asarray(clustering),
                    np.asarray(betweenness)])


def write_edge_classes_csv(edge_classes: EdgeClasses, attribute_names, path):
    names = np.array(edge_classes.node_ids, dtype=object)
    _write_columns(path, ["node_i", "node_j", "label", "threshold"]
                   + [f"contrib_{a}" for a in attribute_names],
                   [names[edge_classes.ends[:, 0]], names[edge_classes.ends[:, 1]],
                    np.array(edge_classes.labels, dtype=object)[edge_classes.code],
                    [fmt(edge_classes.threshold)] * len(edge_classes),
                    *edge_classes.contrib.T])


def read_node_classes(path) -> dict:
    """Node id -> class label from a node class CSV written by ``classify``.

    Node ids are stripped, as attribute CSVs' and GMT members' are; a blank node id,
    or one given twice, is rejected with its line."""
    def check_header(header):
        if header[:2] != ["node_id", "label"]:
            raise SchemaMismatch(f"{path}: expected node class CSV starting with node_id,label",
                                 path=str(path), line=1)

    _, rows, _ = _read_rows(path, check_header, keyed=True, min_cells=2)
    return {row[0]: row[1] for row in rows}


def _node_class_columns(node_classes: NodeClasses, attribute_names):
    """Header and columns shared by the node class and simplex files."""
    header = ["node_id", "label"] + [f"p_{a}" for a in attribute_names] + ["p_mixed"]
    return header, [node_classes.node_ids,
                    np.array(node_classes.labels, dtype=object)[node_classes.code],
                    *node_classes.proportions.T]


def write_node_classes_csv(node_classes: NodeClasses, attribute_names, path):
    _write_columns(path, *_node_class_columns(node_classes, attribute_names))


def write_simplex_csv(node_classes: NodeClasses, attribute_names, path):
    """Barycentric coordinates per node; adds triangle x/y when there are 3 classes."""
    header, columns = _node_class_columns(node_classes, attribute_names)
    if len(attribute_names) == 2:
        header += ["x", "y"]
        columns += list(simplex_xy(node_classes.proportions))
    _write_columns(path, header, columns)


def write_histogram_csv(counts, path):
    edges = np.linspace(0.0, 1.0, len(counts) + 1)
    _write_columns(path, ["bin_low", "bin_high", "count"],
                   [edges[:-1], edges[1:], np.asarray(counts, dtype=int)])


def write_enrichment_csv(report: EnrichmentReport, path):
    classes, sets = len(report.class_labels), len(report.set_names)
    _write_columns(path, ["class", "set", "overlap", "set_size", "class_size", "p", "q", "enriched"],
                   [[label for label in report.class_labels for _ in range(sets)],
                    report.set_names * classes, report.overlap.ravel(),
                    np.tile(report.set_size, classes), np.repeat(report.class_size, sets),
                    report.p.ravel(), report.q.ravel(), report.enriched.ravel().astype(int)])


def write_power_csv(result: PowerResult, path):
    """One row per (grid point, scenario), grid point major."""
    spec, rows = result.spec, result.rejections.size
    scenarios = len(spec.scenarios)
    r, b = np.array(spec.grid).T
    constants = [[fmt(value)] * rows
                 for value in (spec.rho1, spec.rho2, spec.n, spec.reps, spec.alpha)]
    _write_columns(path, ["r", "b", "rho1", "rho2", "n", "reps", "alpha", "scenario", "power", "mc_se"],
                   [np.repeat(r, scenarios), np.repeat(b, scenarios), *constants,
                    np.tile(spec.scenarios, len(spec.grid)), result.power.ravel(),
                    result.mc_se.ravel()])
