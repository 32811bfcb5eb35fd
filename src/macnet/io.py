"""CSV/JSON ingestion and serialization for the command-line pipeline.

One CSV per attribute on the way in (``node_id,s1,...,sn``); edge lists,
run metadata, summaries and simulation output on the way out.  Floats are
written with 17 significant digits so every file re-parses to the exact
values, NaN is an empty cell, and files are written atomically (temp file +
rename).  A CSV is formatted and written ``BLOCK_ROWS`` rows at a time, so
writing one holds a block's cell strings, not the whole file's.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from collections import Counter
from io import StringIO
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .classify import EdgeClasses, NodeClasses, simplex_xy
from .enrichment import EnrichmentReport
from .errors import DuplicateNodeId, NonNumericCell, SchemaMismatch
from .inference import HOMOGENEITY_DF_FORMULA
from .network import HOMOGENEITY_ALPHA, AttributeDataset, InferredNetwork, NetworkSummary
from .simulation import PowerResult

META_FILENAME = "meta.json"

#: rows of a CSV formatted and written at a time
BLOCK_ROWS = 65536


def _cells(values) -> list:
    """One numeric column's cells, formatted in one pass: integers with ``str``, other
    numbers with 17 significant digits; NaN is an empty cell and is not formatted."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    values = values.astype(float)
    given = ~np.isnan(values)
    if given.all():
        return list(map("%.17g".__mod__, values.tolist()))
    cells = np.full(len(values), "", dtype=object)
    cells[given] = list(map("%.17g".__mod__, values[given].tolist()))
    return cells.tolist()


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


def _csv_text(rows) -> str:
    """Rows of text cells as ``csv.writer(lineterminator="\\n")`` writes them."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _csv_blocks(header, columns):
    """The text of a CSV, one block of rows at a time."""
    yield _csv_text([header])
    numeric = [isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns]
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        parts = [c[lo:lo + BLOCK_ROWS] for c in columns]
        yield _csv_text(zip(*(_cells(part) if is_numeric else part
                              for part, is_numeric in zip(parts, numeric))))


def _write_columns(path, header, columns):
    """A CSV of one header row and two or more equal-length columns, each of one of two
    kinds: a numeric array (integer or float dtype), whose cells ``_cells`` writes, so a
    NaN is an empty cell; or a sequence of text cells, which ``csv.writer`` quotes where
    they need it."""
    atomic_write_text(path, _csv_blocks(header, columns))


def _read_rows(path, check_header, keyed: bool = False, min_cells: int | None = None):
    """The header of the CSV at ``path``, its data rows and their line numbers, blank
    rows skipped.  ``check_header(header)`` raises unless the header is the file's.  A
    row whose cell count is not the header's (with ``min_cells``: is below it) is
    rejected with its line.  With ``keyed`` its first cell is a node id, stripped; a
    blank id, one holding a carriage return (which ``csv.writer`` would write unquoted),
    or one given before, is rejected at column 1.  Rows are checked in file order, each
    row's cell count before its node id, so the first faulty row is reported.  A path
    that cannot be opened, a directory say, is rejected with its path."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise SchemaMismatch(f"{path}: cannot read: {exc.strerror}", path=str(path)) from None
    with handle:
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
                if "\r" in row[0]:
                    raise SchemaMismatch(f"{path}:{lineno}: node id {row[0]!r} holds a carriage "
                                         "return", path=str(path), line=lineno, column=1)
                if row[0] in seen:
                    raise DuplicateNodeId(f"{path}:{lineno}: duplicate node id {row[0]!r}",
                                          path=str(path), line=lineno, column=1)
                seen.add(row[0])
            rows.append(row)
            lines.append(lineno)
    return header, rows, lines


#: what a parsed cell's value must be: a test of one value or of an array of them, and
#: the fault that names a cell failing it
_FINITE = (np.isfinite, "is not finite")
_NOT_NAN = (lambda value: ~np.isnan(value), "is NaN")
_NON_NEGATIVE = (lambda value: value >= 0.0, "is not in [0, inf]")
_EMPTY = (lambda value: value == "", "is not empty")
_CORRELATION = (lambda value: np.abs(value) <= 1.0, "is not in [-1, 1]")
_PROBABILITY = (lambda value: (value >= 0.0) & (value <= 1.0), "is not in [0, 1]")


def _first_bad_cell(path, rows, lines, cells):
    """Raise ``NonNumericCell`` at the first bad cell in file order: one that does not
    parse as its type, or whose value fails its rule (a pair such as ``_FINITE``).
    ``cells(row)`` gives the (index, type, rule) of the cells of a row to check, in the
    order to check them.  Run after a whole-column parse or check has failed, so that
    the error names the bad cell's line and column; that some cell is bad is asserted, so
    a column check and this cell pass that disagree never return the columns."""
    for lineno, row in zip(lines, rows):
        for col, convert, (test, fault) in cells(row):
            try:
                value = convert(row[col])
            except (ValueError, OverflowError):  # np.int64 overflows past int64
                problem = "is not numeric"
            else:
                problem = "" if test(value) else fault
            if problem:
                raise NonNumericCell(f"{path}:{lineno}: column {col + 1} {problem}: {row[col]!r}",
                                     path=str(path), line=lineno, column=col + 1)
    raise AssertionError(f"{path}: a column failed its check, but none of its cells does")


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
        _first_bad_cell(path, rows, lines,
                        lambda row: [(col, float, _FINITE) for col in range(1, len(row))])
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
    """One row per edge: a cca edge's df is k^2; another method's df and contributions are empty."""
    k, m = len(net.attribute_names), net.n_edges
    header = list(EDGE_FIELDS) + [f"contrib_{i + 1}" for i in range(k)]
    names = np.array(net.node_ids, dtype=object)
    empty = [""] * m
    _write_columns(path, header, [
        names[net.ends[:, 0]], names[net.ends[:, 1]], [net.method] * m,
        net.similarity, net.statistic, np.full(m, k * k) if net.method == "cca" else empty,
        net.p, net.q, *([empty] * k if net.contrib is None else net.contrib.T)])


def network_meta(net: InferredNetwork) -> dict:
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
            "singular_pairs": len(net.singular_pairs),
            "alpha": HOMOGENEITY_ALPHA,
            "df_formula": HOMOGENEITY_DF_FORMULA,
        },
    }


def write_meta_json(net: InferredNetwork, path):
    atomic_write_text(path, [json.dumps(network_meta(net), indent=2, sort_keys=True) + "\n"])


def _edge_table(rows, width: int, index: dict, path, lines, method: str) -> dict:
    """The ``InferredNetwork`` edge columns of an edge CSV's rows of ``width`` cells, all of
    ``method``, endpoints looked up in ``index``.  The first edge breaking the simple-graph
    rule is rejected before any cell is parsed, then the first cell, in file order, that
    does not parse as its type or breaks its column's rule."""
    columns = list(zip(*rows)) or [()] * width
    ends = np.array([[index.get(v, -1) for v in columns[x]] for x in (0, 1)],
                    dtype=np.intp).T.reshape(-1, 2)
    bad = InferredNetwork.first_non_simple_edge(ends, len(index))
    if bad is not None:
        x, first = bad
        if (ends[x] < 0).any():
            column = 1 if ends[x, 0] < 0 else 2
            problem = f"endpoint {rows[x][column - 1]!r} is not among the node ids of {META_FILENAME}"
        elif ends[x, 0] == ends[x, 1]:
            problem, column = f"self-loop on {rows[x][0]!r}", 2
        else:
            problem, column = (f"edge {rows[x][0]!r}-{rows[x][1]!r} repeats the node pair of "
                               f"line {lines[first]}"), None
        raise SchemaMismatch(f"{path}:{lines[x]}: {problem}", path=str(path), line=lines[x],
                             column=column)
    m, k = len(rows), width - len(EDGE_FIELDS)
    # the type and rule of each cell from column 4 on, as infer writes them: similarity,
    # statistic (inf for a singular cca pair), df, p, q and k contributions; a cca row
    # gives df = k^2 and every contribution, any other method's leaves them empty
    if method == "cca":
        df_cell = (np.int64, (lambda value: value == k * k, f"is not {k * k}"))
        cells = [(float, _CORRELATION), (float, _NON_NEGATIVE), df_cell, (float, _PROBABILITY),
                 (float, _PROBABILITY)] + [(float, _NOT_NAN)] * k
    else:
        cells = [(float, _CORRELATION), (float, _NOT_NAN), (str, _EMPTY), (float, _PROBABILITY),
                 (float, _PROBABILITY)] + [(str, _EMPTY)] * k
    cells = [(col, *cell) for col, cell in enumerate(cells, 3)]
    try:
        parsed = [np.array(columns[col], dtype=convert) for col, convert, _ in cells]
    except (ValueError, OverflowError):  # np.int64 overflows past int64
        parsed = None
    if parsed is None or not all(np.all(test(values)) for values, (*_, (test, _)) in zip(parsed, cells)):
        _first_bad_cell(path, rows, lines, lambda row: cells)
    similarity, statistic, _, p, q, *contrib = parsed
    return dict(ends=ends, similarity=similarity, statistic=statistic, p=p, q=q,
                contrib=np.array(contrib, dtype=float).reshape(k, m).T if method == "cca" else None)


def _read_meta(path) -> dict | None:
    """The ``InferredNetwork`` fields that a meta.json written by ``infer`` holds, or None
    where there is no file at ``path``.  A file that cannot be read or is not JSON, lacks
    or mistypes a field (node ids and attribute names must be lists of strings), or
    repeats a node id, is rejected with its path."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
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
            "homogeneity_reject_fraction": meta.get("homogeneity", {}).get("reject_fraction"),
            "pvalue_mode": meta.get("pvalue_mode", "formula"),
        }
    except (FileNotFoundError, NotADirectoryError):  # no meta.json: the edges alone are read
        return None
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:  # ValueError: bad JSON too
        raise SchemaMismatch(f"{path}: not network metadata ({type(exc).__name__}: {exc})",
                             path=str(path)) from None


def read_network(edges_path) -> InferredNetwork:
    """Re-build an inferred network from its CSV and sibling meta.json.

    Without a meta.json the nodes are those seen on edges, in first-seen order, the
    method is the first edge's, every edge counts as a tested pair, and the attributes
    are named attr_1, attr_2, ... after the contribution columns.  A header whose
    contribution columns do not match the meta.json's attribute count is rejected with
    line 1; an edge whose endpoint is missing from the node ids, a self-loop, an edge
    whose node pair an earlier edge gave (in either order), and an edge whose method is
    not the network's are rejected with their line.  A cca edge gives df = k^2 and every
    contribution; any other method's leaves both empty.
    """
    edges_path = Path(edges_path)
    meta = _read_meta(edges_path.parent / META_FILENAME)

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
                "attribute_names": tuple(f"attr_{i + 1}"
                                         for i in range(len(header) - len(EDGE_FIELDS))),
                "method": rows[0][2] if rows else "unknown", "gamma": float("nan"),
                "n_samples": 0, "tested_pairs": len(rows)}
    for row, lineno in zip(rows, lines):
        if row[2] != meta["method"]:
            raise SchemaMismatch(f"{edges_path}:{lineno}: method {row[2]!r} is not the "
                                 f"network's {meta['method']!r}", path=str(edges_path),
                                 line=lineno, column=3)
    columns = _edge_table(rows, len(header), {v: x for x, v in enumerate(meta["node_ids"])},
                          edges_path, lines, meta["method"])
    return InferredNetwork(**columns, **meta)


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
                    _cells([edge_classes.threshold]) * len(edge_classes),
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
    constants = [_cells([value]) * rows
                 for value in (spec.rho1, spec.rho2, spec.n, spec.reps, spec.alpha)]
    _write_columns(path, ["r", "b", "rho1", "rho2", "n", "reps", "alpha", "scenario", "power", "mc_se"],
                   [np.repeat(r, scenarios), np.repeat(b, scenarios), *constants,
                    np.tile(spec.scenarios, len(spec.grid)), result.power.ravel(),
                    result.mc_se.ravel()])
