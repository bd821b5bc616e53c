"""graph6 encoding: format examples, round trips, and malformed inputs."""

from functools import cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ectf import (
    CapacityError,
    Graph,
    Graph6ParseError,
    albert_cycles,
    albert_matrix,
    canonical_tournaments,
    circular,
    decode_graph6,
    encode_graph6,
    erdos_hypercube,
    hypercube_ckj,
    hypercube_layers,
    random_matrix,
    read_graph6_file,
    twisted_four,
    twisted_tournament,
    twisted_tournament_hypercube,
    write_graph6_file,
)
from ectf import graph6

from helpers import MASTER_SEED, random_graph, ref_decode_graph6_rows, ref_encode_graph6


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


def _with(data: bytes, at: int, byte: int) -> bytes:
    return data[:at] + bytes([byte]) + data[at + 1 :]


# n = 100: a 4-byte size header and 4950 bits in 825 body bytes
_G100 = ref_encode_graph6(random_graph(100, 0.5, seed=7))
# n = 65: 2080 bits, the last of the 347 body bytes ends in 2 padding bits
_G65 = ref_encode_graph6(random_graph(65, 0.5, seed=8))

PINNED_ERRORS = {
    "truncated body": (b"D", "need 2 adjacency bytes for n = 5, found 0", 1),
    "truncated long body": (_G100[:500], "need 825 adjacency bytes for n = 100, found 496", 500),
    "truncated after prefix": (b">>graph6<<D", "need 2 adjacency bytes for n = 5, found 0", 11),
    "trailing bytes": (b"A_?", "trailing bytes after adjacency data", 2),
    "trailing long body": (_G100 + b"??", "trailing bytes after adjacency data", 829),
    "nonzero padding": (bytes([65, 63 + 0b010000]), "nonzero padding bits", 1),
    "nonzero padding long body": (_G65[:-1] + bytes([_G65[-1] + 1]), "nonzero padding bits", 350),
    "bad byte deep in body": (_with(_G100, 700, 200), "byte 200 outside graph6 range 63..126", 700),
    "low byte deep in body": (_with(_G100, 700, 62), "byte 62 outside graph6 range 63..126", 700),
    "first of two bad bytes": (
        _with(_with(_G100, 800, 10), 700, 200), "byte 200 outside graph6 range 63..126", 700,
    ),
    "bad byte before a short body": (
        _with(_G100, 400, 0)[:500], "byte 0 outside graph6 range 63..126", 400,
    ),
    "bad byte before trailing bytes": (
        _with(_G100, 10, 127) + b"?", "byte 127 outside graph6 range 63..126", 10,
    ),
    "bad byte after prefix": (
        b">>graph6<<" + _with(_G100, 300, 32), "byte 32 outside graph6 range 63..126", 310,
    ),
    "bad byte in long size header": (b"~?\x20?", "byte 32 outside graph6 range 63..126", 2),
    "bad last size header byte": (b"~?A\x7f", "byte 127 outside graph6 range 63..126", 3),
    "bad short size header": (bytes([40]), "byte 40 outside graph6 range 63..126", 0),
    "oversize header": (b"~~??????", "graph6 sizes above 258047 not supported", 1),
    "truncated size header": (b"~?", "truncated size header", 2),
    "empty": (b"", "empty graph6 string", 0),
    "newline only": (b"\n", "empty graph6 string", 0),
    "prefix only": (b">>graph6<<", "empty graph6 string", 10),
}


@pytest.mark.parametrize("case", sorted(PINNED_ERRORS))
def test_pinned_error_offset_and_message(case):
    data, message, offset = PINNED_ERRORS[case]
    with pytest.raises(Graph6ParseError) as exc:
        decode_graph6(data)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (byte offset {offset})"


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


# -- the block codec against the bit-at-a-time reference and networkx ----------

FAMILY_MEMBERS = {
    "albert_cycles(6)": lambda: albert_cycles(6),
    "albert_matrix(8x8)": lambda: albert_matrix(random_matrix(8, 8, MASTER_SEED)),
    "erdos_hypercube(3)": lambda: erdos_hypercube(3),
    "hypercube_ckj(2,2)": lambda: hypercube_ckj(2, 2),
    "hypercube_layers(2,4)": lambda: hypercube_layers(2, 4),
    "circular(22)": lambda: circular(22),
    "twisted_four(2,3,2,4)": lambda: twisted_four(2, 3, 2, 4),
    "twisted_tournament(t4',3)": lambda: twisted_tournament(canonical_tournaments()[1], 3),
    "twisted_tournament_hypercube(t4,2,2)": lambda: twisted_tournament_hypercube(
        canonical_tournaments()[0], 2, 2
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_family_member_matches_reference(family):
    g = FAMILY_MEMBERS[family]()
    assert g.order <= 1024
    data = encode_graph6(g)
    assert data == ref_encode_graph6(g)
    assert decode_graph6(data).rows == tuple(ref_decode_graph6_rows(data)) == g.rows


@pytest.mark.parametrize("block", [1, 64, 1000])
def test_block_layout_does_not_change_bytes(monkeypatch, block):
    # a small block cuts graphs above 24 vertices into blocks of 24 rows,
    # so the bit stream and the mirrored columns cross block boundaries
    monkeypatch.setattr(graph6, "_BLOCK", block)
    for n in (0, 1, 2, 7, 23, 24, 25, 47, 48, 49, 62, 63, 64, 65, 130):
        g = random_graph(n, 0.5, seed=MASTER_SEED + n)
        data = encode_graph6(g)
        assert data == ref_encode_graph6(g)
        assert decode_graph6(data).rows == g.rows


def _networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


@pytest.mark.parametrize("n", range(131))
def test_matches_networkx(n):
    # n = 0..130 crosses the 62/63 size-header switch and every nbits % 6
    g = random_graph(n, (0.1, 0.5, 0.9)[n % 3], seed=MASTER_SEED + n)
    expected = nx.to_graph6_bytes(_networkx(g), header=False)
    assert encode_graph6(g) + b"\n" == expected
    assert decode_graph6(expected).same_adjacency(g)
    back = nx.from_graph6_bytes(encode_graph6(g))
    assert sorted(back.edges()) == list(g.edges())


def test_family_member_2048_matches_networkx():
    g = hypercube_ckj(3, 2)
    assert g.order == 2048
    data = encode_graph6(g)
    assert data + b"\n" == nx.to_graph6_bytes(_networkx(g), header=False)
    assert decode_graph6(data).rows == g.rows


def test_roundtrip_8192():
    g = erdos_hypercube(4)
    h = decode_graph6(encode_graph6(g))
    assert h.rows == g.rows
    assert np.array_equal(h.packed(), g.packed())


# -- malformed input, fuzzed -------------------------------------------------------


@cache
def _valid(n: int) -> bytes:
    return encode_graph6(random_graph(n, 0.5, seed=MASTER_SEED + n))


# half the drawn bytes are in range, so that mutants also reach the length,
# padding and capacity checks behind the range check
_BYTES = st.integers(63, 126) | st.integers(0, 255)


@st.composite
def mutated_graph6(draw) -> bytes:
    data = bytearray(_valid(draw(st.integers(0, 80))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate", "append"]))
        at = draw(st.integers(0, max(0, len(data) - 1)))
        if kind == "set" and data:
            data[at] = draw(_BYTES)
        elif kind == "insert":
            data.insert(at, draw(_BYTES))
        elif kind == "delete" and data:
            del data[at]
        elif kind == "truncate":
            del data[at:]
        elif kind == "append":
            data += bytes(draw(st.lists(_BYTES, min_size=1, max_size=4)))
    prefix = draw(st.sampled_from([b"", graph6.HEADER]))
    return prefix + bytes(data)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(mutated_graph6())
def test_fuzzed_input_fails_cleanly(data):
    try:
        g = decode_graph6(data)
    except Graph6ParseError as exc:
        assert 0 <= exc.offset <= len(data)
    except CapacityError:
        pass
    else:
        assert np.array_equal(g.packed(), Graph(g.rows).packed())
        assert decode_graph6(encode_graph6(g)).same_adjacency(g)
