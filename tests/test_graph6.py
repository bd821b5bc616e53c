"""graph6 encoding: format examples, round trips, and malformed inputs."""

import numpy as np
import pytest

from ectf import (
    CapacityError,
    Graph,
    Graph6ParseError,
    decode_graph6,
    encode_graph6,
    erdos_hypercube,
    read_graph6_file,
    write_graph6_file,
)

from helpers import random_graph


def test_single_edge_is_A_underscore():
    # hand-encoded: n=2 -> chr(2+63)='A'; upper triangle bit 1 padded to
    # 100000 -> 32+63 = 95 = '_'
    g = Graph.from_edges(2, [(0, 1)])
    assert encode_graph6(g) == b"A_"
    assert decode_graph6(b"A_").same_adjacency(g)


def test_empty_graph_header_only():
    g = Graph([])
    assert encode_graph6(g) == b"?"
    assert decode_graph6(b"?").order == 0


def test_nonedge_pair():
    g = Graph.from_edges(2, [])
    assert encode_graph6(g) == b"A?"


def test_clebsch_roundtrip():
    g = erdos_hypercube(1)
    assert decode_graph6(encode_graph6(g)).same_adjacency(g)


def test_header_prefix_accepted():
    g = Graph.from_edges(2, [(0, 1)])
    assert decode_graph6(b">>graph6<<A_").same_adjacency(g)


def test_long_size_header():
    g = random_graph(63, 0.2, seed=1)
    data = encode_graph6(g)
    assert data[0] == 126
    assert decode_graph6(data).same_adjacency(g)


@pytest.mark.parametrize("seed", range(50))
def test_roundtrip_random_small(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    for case in range(20):
        n = int(rng.integers(1, 65))
        g = random_graph(n, float(rng.random()), seed * 1000 + case)
        assert decode_graph6(encode_graph6(g)).same_adjacency(g)


class TestMalformed:
    def test_empty(self):
        with pytest.raises(Graph6ParseError) as exc:
            decode_graph6(b"")
        assert exc.value.offset == 0

    def test_bad_byte_offset(self):
        with pytest.raises(Graph6ParseError) as exc:
            decode_graph6(bytes([64, 30]))
        assert exc.value.offset == 1

    def test_truncated_body(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6(b"D")  # n=5 needs adjacency bytes

    def test_trailing_garbage(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6(b"A_?")

    def test_nonzero_padding(self):
        # n=2: only the top bit of the 6-bit group may be set
        with pytest.raises(Graph6ParseError):
            decode_graph6(bytes([65, 63 + 0b010000]))

    def test_oversize_header(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6(b"~~??????")

    def test_truncated_size_header(self):
        with pytest.raises(Graph6ParseError):
            decode_graph6(b"~?")

    def test_capacity_from_header_alone(self):
        # n = 40000 > 2^15 with a full-length body: the size header settles
        # it, before any pass over the ~800 million adjacency bits
        n = 40000
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
        nbytes = (n * (n - 1) // 2 + 5) // 6
        with pytest.raises(CapacityError, match="40000"):
            decode_graph6(head.ljust(4 + nbytes, b"?"))


def test_file_roundtrip(tmp_path):
    graphs = [random_graph(n, 0.4, seed=n) for n in (1, 5, 17, 40)]
    path = tmp_path / "corpus.g6"
    write_graph6_file(path, graphs)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    assert len(data.splitlines()) == 4
    back = read_graph6_file(path)
    assert len(back) == len(graphs)
    for g, h in zip(graphs, back):
        assert g.same_adjacency(h)
