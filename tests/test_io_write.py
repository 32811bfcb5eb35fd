"""The block-at-a-time CSV writer writes exactly the bytes csv.writer writes."""

import csv
import io
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import csv_cell, edge_pairs
from macnet import io as io_mod
from macnet.classify import classify_network
from test_network import toy_network

#: cells that stress quoting: delimiters, quotes, line breaks, edge spaces, non-ASCII
TEXT = st.text(alphabet=st.sampled_from(list(',"\r\n \tab\x1c\xe9\u20ac\u2003')), max_size=6)


def reference_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


@st.composite
def text_tables(draw):
    width = draw(st.integers(2, 4))
    rows = draw(st.integers(0, 8))
    header = draw(st.lists(TEXT, min_size=width, max_size=width))
    columns = [draw(st.lists(TEXT, min_size=rows, max_size=rows)) for _ in range(width)]
    return header, columns


@settings(max_examples=300, deadline=None)
@given(table=text_tables(), block=st.integers(1, 4))
def test_text_cells_are_quoted_as_csv_writer_quotes_them(table, block, tmp_path_factory):
    header, columns = table
    path = tmp_path_factory.getbasetemp() / "text.csv"
    original = io_mod.BLOCK_ROWS
    io_mod.BLOCK_ROWS = block
    try:
        io_mod._write_columns(path, header, columns)
    finally:
        io_mod.BLOCK_ROWS = original
    assert path.read_bytes() == reference_bytes(header, zip(*columns))


@pytest.mark.parametrize("rows", [0, 1, 3, 4, 7])
def test_rows_cross_block_boundaries_unchanged(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(io_mod, "BLOCK_ROWS", 3)
    names = np.resize(np.array(["plain", "a,b", 'x"y', "line\nbreak"], dtype=object), rows)
    floats = np.array([-0.0, np.inf, np.nan, 1e-310, 1 / 3, -2.5, 1e17])[:rows]
    ints = np.array([0, -7, 2**40, 3, 5, -1, 9])[:rows]
    blanked = np.where(np.arange(rows) % 2 == 1, np.nan, floats)
    header = ["name", "float", "int", "blanked", "constant"]
    io_mod._write_columns(tmp_path / "t.csv", header, [names, floats, ints, blanked, ["c"] * rows])
    expected = [[n, csv_cell(f), csv_cell(i), csv_cell(b), "c"]
                for n, f, i, b in zip(names, floats, ints, blanked)]
    assert (tmp_path / "t.csv").read_bytes() == reference_bytes(header, expected)


def test_edges_and_node_classes_round_trip_awkward_names(tmp_path):
    ids = ("n,1", 'n"2', "n 3 ", "ñ4")
    attributes = ("a,b", 'x"y')
    net = toy_network(ids, [(ids[0], ids[1]), (ids[2], ids[3])], method="cca",
                      attribute_names=attributes, contrib=[[0.9, 0.1], [0.2, 0.8]])
    io_mod.write_edges_csv(net, tmp_path / "edges.csv")
    io_mod.write_meta_json(net, tmp_path / "meta.json")
    back = io_mod.read_network(tmp_path / "edges.csv")
    assert back.node_ids == ids and back.attribute_names == attributes
    assert edge_pairs(back) == edge_pairs(net)
    np.testing.assert_array_equal(back.contrib, net.contrib)

    _, node_classes = classify_network(back, 0.25)
    io_mod.write_node_classes_csv(node_classes, attributes, tmp_path / "node_classes.csv")
    labels = np.array(node_classes.labels, dtype=object)[node_classes.code]
    # node class ids are read stripped, as GMT members are, so 'n 3 ' comes back as 'n 3'
    assert io_mod.read_node_classes(tmp_path / "node_classes.csv") == dict(
        zip([node_id.strip() for node_id in ids], labels))
    assert list(labels) == ["a,b", "a,b", 'x"y', 'x"y']
    with open(tmp_path / "node_classes.csv", newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
    assert header == ["node_id", "label", "p_a,b", 'p_x"y', "p_mixed"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_written_file_takes_the_umask_mode(tmp_path, umask, mode):
    # mkstemp creates the temp file 0o600, which the rename used to carry over
    old = os.umask(umask)
    try:
        io_mod.atomic_write_text(tmp_path / "out.csv", ["a\n"])
        reference = tmp_path / "reference.csv"
        with open(reference, "w") as handle:
            handle.write("a\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == mode
    assert stat.S_IMODE(reference.stat().st_mode) == mode


def test_a_block_that_raises_mid_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def blocks():
        yield "new,"
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        io_mod.atomic_write_text(path, blocks())
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
