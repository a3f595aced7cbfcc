import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorforge.graphio import (
    load_graph,
    load_graph_text,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from minorforge.graphs import Graph, complete_graph, cycle_graph, empty_graph

from .test_graphs import graphs


def test_known_encodings():
    # reference strings from the standard graph6 test vectors
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(cycle_graph(5)) == "Dhc"
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("Dhc") == cycle_graph(5)


def test_zero_and_one_vertex():
    assert to_graph6(empty_graph(0)) == "?"
    assert parse_graph6("?") == empty_graph(0)
    assert parse_graph6(to_graph6(empty_graph(1))) == empty_graph(1)


def test_optional_header_accepted():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)


def test_large_order_long_form():
    G = empty_graph(100)
    text = to_graph6(G)
    assert text.startswith("~")
    assert parse_graph6(text) == G


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=12))
def test_graph6_roundtrip(G):
    assert parse_graph6(to_graph6(G)) == G


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=10))
def test_edge_list_roundtrip(G):
    assert parse_edge_list(to_edge_list(G)) == G


def test_edge_list_format():
    G = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert to_edge_list(G) == "3 2\n0 1\n1 2\n"


def test_edge_list_header_mismatch():
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")


def test_bad_graph6_rejected():
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(30))
    with pytest.raises(ValueError):
        parse_graph6("Bww")


def test_load_graph_text_dispatch():
    assert load_graph_text("Bw") == complete_graph(3)
    assert load_graph_text("3 2\n0 1\n1 2\n") == Graph.from_edges(3, [(0, 1), (1, 2)])


def test_load_graph_reads_a_path_or_the_value_itself(tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    assert load_graph(str(path)) == complete_graph(3)
    assert load_graph("Bw") == complete_graph(3)
    with pytest.raises(ValueError, match="empty"):
        load_graph("")


def test_load_graph_takes_inline_graph6_longer_than_a_file_name():
    # K80 in graph6 is 795 characters, past the usual 255-byte name limit
    text = to_graph6(complete_graph(80))
    assert len(text) > 255
    assert load_graph(text) == complete_graph(80)
