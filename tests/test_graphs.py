"""Core graph type, Cayley construction, and neighborhood operations."""

import re
from collections import Counter

import numpy as np
import pytest

from ectf import (
    CapacityError,
    DistanceSetSpec,
    Graph,
    ParameterError,
    build_cayley,
    common_neighbors,
    degree_stats,
)
from ectf import graphs
from ectf.graphs import bit_indices, iter_bits

from helpers import MASTER_SEED, random_maximal_triangle_free


def five_cycle() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


class TestGraphType:
    def test_from_edges_basic(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.order == 3
        assert g.edge_count == 2
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])
        with pytest.raises(ParameterError):
            Graph([1, 0])  # bit 0 set on row 0

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ParameterError):
            Graph([0b010, 0b000, 0b000])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ParameterError):
            g.row(2)
        with pytest.raises(ParameterError):
            g.row(-1)

    def test_labels_must_be_distinct_and_match_order(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 1)], labels=[(0,), (0,)])
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 1)], labels=[(0,)])
        g = Graph.from_edges(2, [(0, 1)], labels=[(0,), (1,)])
        assert g.labels == ((0,), (1,))

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            Graph.from_edges((1 << 15) + 1, [])

    def test_relabel(self):
        g = five_cycle()
        h = g.relabel([2, 0, 4, 1, 3])
        assert h.edge_count == g.edge_count
        assert h.adjacent(2, 0)  # image of edge (0, 1)
        assert sorted(h.degrees()) == sorted(g.degrees())

    @pytest.mark.parametrize("block", [1, 1 << 22])
    def test_relabel_moves_labels_with_vertices(self, monkeypatch, block):
        monkeypatch.setattr(graphs, "_BLOCK", block)
        g = Graph.from_edges(3, [(0, 1)], labels=[("a",), ("b",), ("c",)])
        h = g.relabel([2, 0, 1])
        assert h.labels == (("b",), ("c",), ("a",))
        assert h.rows == (0b100, 0b000, 0b001)
        g = random_maximal_triangle_free(70, MASTER_SEED)
        g = Graph(g.rows, labels=[(v,) for v in range(70)])
        perm = [(37 * v + 11) % 70 for v in range(70)]
        h = g.relabel(perm)
        for u in range(70):
            assert h.labels[perm[u]] == g.labels[u]
            assert h.row(perm[u]) == sum(1 << perm[v] for v in iter_bits(g.row(u)))

    def test_packed_is_read_only(self):
        g = random_maximal_triangle_free(70, MASTER_SEED)
        for h in (g, Graph(g.rows), Graph.from_edges(3, [(0, 1)]), g.relabel(list(range(70))),
                  build_cayley(DistanceSetSpec(3, {1}))):
            with pytest.raises(ValueError):
                h.packed()[0, 0] = 1

    def test_packed_matches_rows(self):
        g = random_maximal_triangle_free(70, MASTER_SEED)
        packed = g.packed()
        assert packed.shape == (70, 2)
        for v in range(70):
            val = int(packed[v, 0]) | int(packed[v, 1]) << 64
            assert val == g.row(v)

    def test_bit_helpers(self):
        assert bit_indices(0b101001) == [0, 3, 5]
        assert list(iter_bits(0)) == []


def _ref_first_offence(rows):
    """The message Graph(rows) raises, found row by row and bit by bit."""
    n = len(rows)
    for u, row in enumerate(rows):
        if row >> n:
            return f"adjacency row {u} has bits beyond vertex {n - 1}"
        if (row >> u) & 1:
            return f"self-loop at vertex {u}"
        for v in iter_bits(row):
            if not (rows[v] >> u) & 1:
                return f"adjacency not symmetric at ({u},{v})"
    return None


class TestValidationPins:
    """Exception types and messages, including which offender is named first."""

    @pytest.mark.parametrize("rows, message", [
        ([0b1000, 0, 0], "adjacency row 0 has bits beyond vertex 2"),
        ([0, -1], "adjacency row 1 has bits beyond vertex 1"),
        ([0b1001, 0], "adjacency row 0 has bits beyond vertex 1"),
        ([0b10, 0b111], "adjacency row 1 has bits beyond vertex 1"),
        ([0b010, 0b000, 0b1000], "adjacency not symmetric at (0,1)"),
        ([0b010, 0b101, 0b110], "self-loop at vertex 2"),
        ([0b110, 0b001, 0b000], "adjacency not symmetric at (0,2)"),
        ([0b011, 0b001], "self-loop at vertex 0"),
        ([0b001, 0b010], "self-loop at vertex 0"),
        ([0b100, 0b100], "adjacency row 0 has bits beyond vertex 1"),
    ])
    def test_graph_rows_first_offender(self, rows, message):
        assert _ref_first_offence(rows) == message
        with pytest.raises(ParameterError) as info:
            Graph(rows)
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    @pytest.mark.parametrize("block", [1, 1 << 22])
    @pytest.mark.parametrize("seed", range(6))
    def test_first_offender_in_a_large_graph(self, monkeypatch, seed, block):
        # three defects of a 300-vertex graph at seeded places: whichever
        # comes first is named, as by a row-by-row walk, in blocks of 64 rows
        # or in one
        monkeypatch.setattr(graphs, "_BLOCK", block)
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED + seed))
        rows = list(random_maximal_triangle_free(300, MASTER_SEED + seed).rows)
        u, v, w = (int(x) for x in rng.integers(0, 300, size=3))
        rows[u] |= 1 << 300 + int(rng.integers(0, 70))
        rows[v] |= 1 << v
        x = int(rng.integers(0, 300))
        rows[w] ^= 1 << x if x != w else 0
        message = _ref_first_offence(rows)
        with pytest.raises(ParameterError, match=re.escape(message)):
            Graph(rows)

    def test_packed_padding_and_asymmetry_are_named(self):
        packed = np.zeros((3, 1), dtype=np.uint64)
        packed[1:, 0] = 1 << 40
        with pytest.raises(ParameterError, match=r"^adjacency row 1 has bits beyond vertex 2$"):
            Graph._from_packed(packed)._check_invariants()
        packed = np.zeros((3, 1), dtype=np.uint64)
        packed[2, 0] = 0b001
        with pytest.raises(ParameterError, match=r"^adjacency not symmetric at \(2,0\)$"):
            Graph._from_packed(packed)._check_invariants()
        packed = np.array([[0b000], [0b010], [0b100]], dtype=np.uint64)
        with pytest.raises(ParameterError, match=r"^self-loop at vertex 1$"):
            Graph._from_packed(packed)._check_invariants()

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (-1, 0)], "edge (-1,0) out of range for order 3"),
        ([(0, 1), (0, 3)], "edge (0,3) out of range for order 3"),
        ([(0, 1), (2**64, 0)], "edge (18446744073709551616,0) out of range for order 3"),
        ([(0, 2**63)], "edge (0,9223372036854775808) out of range for order 3"),
        ([(0, 1), (-(2**70), 1)], f"edge ({-(2**70)},1) out of range for order 3"),
        ([(0, 1), (1, 1), (5, 0)], "self-loop at vertex 1"),
        ([(2, 2), (0, 5)], "self-loop at vertex 2"),
    ])
    def test_from_edges_first_offender(self, edges, message):
        with pytest.raises(ParameterError) as info:
            Graph.from_edges(3, edges)
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    @pytest.mark.parametrize("edges", [[(0.5, 1)], [(1.0, 2)], [("1", 2)]])
    def test_from_edges_rejects_non_integer_vertices(self, edges):
        with pytest.raises(TypeError):
            Graph.from_edges(3, edges)


class TestBuildCayley:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            DistanceSetSpec(0, {1})
        with pytest.raises(ParameterError):
            DistanceSetSpec(3, set())
        with pytest.raises(ParameterError):
            DistanceSetSpec(3, {0})
        with pytest.raises(ParameterError):
            DistanceSetSpec(3, {4})

    def test_single_edge(self):
        g = build_cayley(DistanceSetSpec(1, {1}))
        assert g.order == 2
        assert g.edge_count == 1
        assert g.labels == ((0,), (1,))

    def test_clebsch_parameters(self):
        g = build_cayley(DistanceSetSpec(4, {1, 4}))
        assert g.order == 16
        assert set(g.degrees()) == {5}
        assert g.edge_count == 40

    def test_distance_three_four_same_degrees(self):
        g = build_cayley(DistanceSetSpec(4, {3, 4}))
        assert g.order == 16
        assert set(g.degrees()) == {5}

    def test_capacity_error_names_limit(self):
        with pytest.raises(CapacityError, match="32768"):
            build_cayley(DistanceSetSpec(16, {1}))

    @pytest.mark.parametrize("dim,dists", [
        (1, {1}),
        (3, {1, 3}),
        (5, {2, 5}),
        (6, {3}),
        (8, {5, 6, 7, 8}),
    ])
    def test_against_naive_popcount_oracle(self, dim, dists):
        g = build_cayley(DistanceSetSpec(dim, dists))
        n = 1 << dim
        for x in range(n):
            for y in range(n):
                expected = (x != y) and (x ^ y).bit_count() in dists
                assert g.adjacent(x, y) == expected

    def test_labels_are_bit_vectors_in_numbering_order(self):
        g = build_cayley(DistanceSetSpec(3, {1}))
        assert g.labels[5] == (1, 0, 1)  # 5 = 101, coordinate 1 first
        assert g.labels[0] == (0, 0, 0)


class TestCommonNeighbors:
    def test_cycle_midpoint(self):
        g = five_cycle()
        assert common_neighbors(g, {0, 2}) == 1 << 1

    def test_clebsch_nonadjacent_pair_has_two(self):
        g = build_cayley(DistanceSetSpec(4, {1, 4}))
        pair = (0, 0b0011)  # distance 2, nonadjacent
        assert not g.adjacent(*pair)
        assert common_neighbors(g, pair).bit_count() == 2

    def test_edge_endpoints_have_none_in_triangle_free(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert common_neighbors(g, {0, 1}) == 0

    def test_empty_set_gives_all_vertices(self):
        g = five_cycle()
        assert common_neighbors(g, set()) == g.full_mask

    def test_out_of_range_vertex(self):
        with pytest.raises(ParameterError):
            common_neighbors(five_cycle(), {0, 7})


class TestDegreeStats:
    def test_five_cycle(self):
        assert degree_stats(five_cycle()) == (2, 2, Counter({2: 5}))

    def test_path(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert degree_stats(g) == (1, 2, Counter({1: 2, 2: 1}))


class TestConstructedInvariants:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_satisfy_row_invariants(self, seed):
        g = random_maximal_triangle_free(20, MASTER_SEED + seed)
        for u in range(g.order):
            assert not g.adjacent(u, u)
            for v in range(g.order):
                assert g.adjacent(u, v) == g.adjacent(v, u)
