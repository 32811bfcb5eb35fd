"""The contract that macnet's three CSV readers share: attribute CSVs (``ingest``), edge
CSVs (``read_network``) and node class CSVs (``read_node_classes``) report the same
faults with the same type, message, path, line and column."""

import json

import pytest

from macnet import io as io_mod
from macnet.errors import DuplicateNodeId, NonNumericCell, SchemaMismatch

#: each reader's file: name, header, a data row for a node id (``{}``), a row one cell
#: short and one a cell long
ATTRIBUTE = ("protein.csv", "node_id,s1,s2,s3", "{},1,2,3", "c,1,2", "c,1,2,3,4")
EDGE = ("edges.csv", "node_i,node_j,method,similarity,statistic,df,p,q,contrib_p,contrib_g",
        "{},z,cca,0.5,12,4,0.001,0.01,0.6,0.8", "a,z,cca,0.5,12,4,0.001,0.01,0.6",
        "a,z,cca,0.5,12,4,0.001,0.01,0.6,0.8,1")
NODE_CLASS = ("node_classes.csv", "node_id,label,p_p,p_g,p_mixed", "{},p,1,0,0", "c",
              "c,q,1,0,0,extra")
META = {"method": "cca", "gamma": 0.05, "n_samples": 10, "node_ids": ["a", "z", "x,y"],
        "attribute_names": ["p", "g"]}


def read(kind, tmp_path, lines):
    """Write ``lines`` as the file of ``kind`` and read it back with its reader: the node
    ids read (edges: the first endpoint of each edge), and the labels of node classes."""
    name = kind[0]
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if kind is ATTRIBUTE:
        return list(io_mod.ingest([path]).node_ids)
    if kind is EDGE:
        (tmp_path / "meta.json").write_text(json.dumps(META), encoding="utf-8")
        net = io_mod.read_network(path)
        return [net.node_ids[x] for x in net.table.ends[:, 0]]
    return io_mod.read_node_classes(path)


def body(kind, *nodes):
    return [kind[1]] + [kind[2].format(node) for node in nodes]


def not_among_node_ids(node):
    return f"endpoint {node!r} is not among the node ids of meta.json"


CASES = [
    # an empty file: no header
    (ATTRIBUTE, "empty", [], (SchemaMismatch, ": file is empty", 1, None)),
    (EDGE, "empty", [], (SchemaMismatch, ": file is empty", 1, None)),
    (NODE_CLASS, "empty", [], (SchemaMismatch, ": file is empty", 1, None)),
    # a blank row before a short row: the line count includes the blank row
    (ATTRIBUTE, "blank_then_short", body(ATTRIBUTE, "a") + ["", ATTRIBUTE[3]],
     (SchemaMismatch, ":4: expected 4 cells, found 3", 4, None)),
    (EDGE, "blank_then_short", body(EDGE, "a") + ["", EDGE[3]],
     (SchemaMismatch, ":4: expected 10 cells, found 9", 4, None)),
    (NODE_CLASS, "blank_then_short", body(NODE_CLASS, "a") + ["", NODE_CLASS[3]],
     (SchemaMismatch, ":4: expected at least 2 cells, found 1", 4, None)),
    # a long row: node class rows need only their first two cells
    (ATTRIBUTE, "long", body(ATTRIBUTE, "a") + [ATTRIBUTE[4]],
     (SchemaMismatch, ":3: expected 4 cells, found 5", 3, None)),
    (EDGE, "long", body(EDGE, "a") + [EDGE[4]],
     (SchemaMismatch, ":3: expected 10 cells, found 11", 3, None)),
    (NODE_CLASS, "long", body(NODE_CLASS, "a") + [NODE_CLASS[4]], {"a": "p", "c": "q"}),
    # a blank node id; edge endpoints are not node ids of the file, and are not stripped
    (ATTRIBUTE, "blank_id", body(ATTRIBUTE, "a", "  "),
     (SchemaMismatch, ":3: empty node id", 3, 1)),
    (EDGE, "blank_id", body(EDGE, "a", "  "),
     (SchemaMismatch, ":3: " + not_among_node_ids("  "), 3, 1)),
    (NODE_CLASS, "blank_id", body(NODE_CLASS, "a", ""),
     (SchemaMismatch, ":3: empty node id", 3, 1)),
    # an id that repeats only once stripped
    (ATTRIBUTE, "stripped_duplicate", body(ATTRIBUTE, "a", " a "),
     (DuplicateNodeId, ":3: duplicate node id 'a'", 3, 1)),
    (EDGE, "stripped_duplicate", body(EDGE, "a", " a "),
     (SchemaMismatch, ":3: " + not_among_node_ids(" a "), 3, 1)),
    (NODE_CLASS, "stripped_duplicate", body(NODE_CLASS, "a", " a "),
     (DuplicateNodeId, ":3: duplicate node id 'a'", 3, 1)),
    # a quoted id holding a comma reads back unchanged
    (ATTRIBUTE, "quoted_comma", body(ATTRIBUTE, "a", '"x,y"'), ["a", "x,y"]),
    (EDGE, "quoted_comma", body(EDGE, "a", '"x,y"'), ["a", "x,y"]),
    (NODE_CLASS, "quoted_comma", body(NODE_CLASS, "a", '"x,y"'), {"a": "p", "x,y": "p"}),
    # two faulty rows: the earlier row is reported, although the later row's fault is
    # checked first within a row (cell count before node id; an edge's similarity
    # before its p)
    (ATTRIBUTE, "earlier_row_wins", body(ATTRIBUTE, "a", "a") + [ATTRIBUTE[3]],
     (DuplicateNodeId, ":3: duplicate node id 'a'", 3, 1)),
    (EDGE, "earlier_row_wins",
     [EDGE[1], "a,z,cca,0.5,12,4,oops,0.01,0.6,0.8", "a,z,cca,bad,12,4,0.001,0.01,0.6,0.8"],
     (NonNumericCell, ":2: column 7 is not numeric: 'oops'", 2, 7)),
    (NODE_CLASS, "earlier_row_wins", body(NODE_CLASS, "a", "a") + [NODE_CLASS[3]],
     (DuplicateNodeId, ":3: duplicate node id 'a'", 3, 1)),
]


@pytest.mark.parametrize("kind,lines,expected", [
    pytest.param(kind, lines, expected, id=f"{kind[0].split('.')[0]}-{fault}")
    for kind, fault, lines, expected in CASES])
def test_readers_share_one_row_contract(tmp_path, kind, lines, expected):
    if not isinstance(expected, tuple):
        assert read(kind, tmp_path, lines) == expected
        return
    error, message, line, column = expected
    with pytest.raises(SchemaMismatch) as caught:
        read(kind, tmp_path, lines)
    path = str(tmp_path / kind[0])
    assert type(caught.value) is error
    assert (str(caught.value), caught.value.path, caught.value.line, caught.value.column) == (
        path + message, path, line, column)
