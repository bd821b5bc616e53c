"""Family constructors: orders, degrees, identities, and preconditions."""

import time
from math import comb

import numpy as np
import pytest

from ectf import (
    CapacityError,
    DistanceSetSpec,
    Graph,
    ParameterError,
    albert_cycles,
    albert_matrix,
    are_isomorphic,
    build_cayley,
    canonical_tournaments,
    circular,
    erdos_hypercube,
    hypercube_ckj,
    hypercube_layers,
    is_triangle_free,
    is_twin_free,
    multiplicity,
    random_matrix,
    random_tournament,
    twist,
    twist_inv,
    twisted_four,
    twisted_tournament,
    twisted_tournament_hypercube,
)
from ectf import families
from ectf.shattered import BitMatrix

from helpers import (
    ref_albert_cycles_rows,
    ref_albert_matrix_rows,
    ref_circular_rows,
    ref_hypercube_layers_rows,
    ref_twisted_tournament_hypercube_rows,
    ref_twisted_z4_rows,
)

T4, T4P = canonical_tournaments()


class TestAlbertCycles:
    def test_clebsch_case(self):
        g = albert_cycles(4)
        assert g.order == 16
        assert set(g.degrees()) == {5}
        assert are_isomorphic(g, build_cayley(DistanceSetSpec(4, {1, 4}))) is not None

    def test_n5(self):
        g = albert_cycles(5)
        assert g.order == 20
        assert set(g.degrees()) == {6}

    def test_rejects_small_n(self):
        with pytest.raises(ParameterError):
            albert_cycles(3)

    def test_edge_structure(self):
        g = albert_cycles(4)
        lab = {label: v for v, label in enumerate(g.labels)}
        assert g.adjacent(lab[(1, 0)], lab[(1, 1)])
        assert g.adjacent(lab[(1, 3)], lab[(1, 0)])  # wraps mod 4
        assert g.adjacent(lab[(1, 0)], lab[(2, 2)])  # antipode across cycles
        assert not g.adjacent(lab[(1, 0)], lab[(2, 1)])
        assert not g.adjacent(lab[(1, 0)], lab[(1, 2)])

    def test_label_order_lexicographic(self):
        g = albert_cycles(5)
        assert list(g.labels) == sorted(g.labels)
        assert g.labels[0] == (1, 0)


class TestAlbertMatrix:
    def test_identity_four_is_clebsch(self):
        g = albert_matrix(BitMatrix.identity(4))
        assert g.order == 16
        assert are_isomorphic(g, build_cayley(DistanceSetSpec(4, {1, 4}))) is not None

    def test_identity_five_matches_cycles(self):
        assert are_isomorphic(albert_matrix(BitMatrix.identity(5)), albert_cycles(5))

    def test_all_ones_builds_but_is_triangle_free(self):
        g = albert_matrix(BitMatrix.filled(4, 5, 1))
        assert g.order == 2 * 4 + 2 * 5
        assert is_triangle_free(g)[0]

    def test_any_matrix_triangle_free(self):
        m = BitMatrix(
            tuple(tuple((i * j + i + j) % 2 for j in range(5)) for i in range(4))
        )
        assert is_triangle_free(albert_matrix(m))[0]

    def test_rejects_small_dimensions(self):
        with pytest.raises(ParameterError):
            albert_matrix(BitMatrix.filled(3, 4, 0))
        with pytest.raises(ParameterError):
            albert_matrix(BitMatrix.filled(4, 3, 0))

    def test_degrees_for_rectangular(self):
        # 4x8: the 16 matching vertices on the column side have degree 5,
        # the 8 on the row side have degree 9
        from collections import Counter

        m = BitMatrix(tuple(tuple((i + j) % 2 for j in range(8)) for i in range(4)))
        g = albert_matrix(m)
        assert Counter(g.degrees()) == Counter({5: 16, 9: 8})

    def test_wiring(self):
        m = BitMatrix.identity(4)
        g = albert_matrix(m)
        lab = {label: v for v, label in enumerate(g.labels)}
        assert g.adjacent(lab[("a", 1)], lab[("b", 1)])
        assert g.adjacent(lab[("c", 2)], lab[("d", 2)])
        assert g.adjacent(lab[("a", 1)], lab[("c", 1)])  # entry 1
        assert g.adjacent(lab[("b", 1)], lab[("d", 1)])
        assert g.adjacent(lab[("a", 1)], lab[("d", 2)])  # entry 0
        assert g.adjacent(lab[("b", 1)], lab[("c", 2)])
        assert not g.adjacent(lab[("a", 1)], lab[("a", 2)])


class TestErdosHypercube:
    def test_k1_is_clebsch(self):
        g = erdos_hypercube(1)
        assert g.order == 16
        assert set(g.degrees()) == {5}
        assert g.same_adjacency(build_cayley(DistanceSetSpec(4, {3, 4})))
        assert are_isomorphic(g, build_cayley(DistanceSetSpec(4, {1, 4}))) is not None

    def test_k2_degree_binomial_sum(self):
        g = erdos_hypercube(2)
        assert g.order == 128
        assert set(g.degrees()) == {comb(7, 5) + comb(7, 6) + comb(7, 7)}  # 29

    def test_k3_order(self):
        assert erdos_hypercube(3).order == 1024

    def test_capacity(self):
        with pytest.raises(CapacityError):
            erdos_hypercube(5)  # dimension 16

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            erdos_hypercube(0)


class TestHypercubeLayers:
    def test_k1_m4_matches_erdos_via_parity_blocks(self):
        g = hypercube_layers(1, 4)
        assert g.order == 16
        assert set(g.degrees()) == {5}
        assert are_isomorphic(g, erdos_hypercube(1)) is not None

    def test_k1_m5_distance_sets(self):
        g = hypercube_layers(1, 5)
        assert g.order == 20
        lab = {label: v for v, label in enumerate(g.labels)}
        # within a part: distance exactly 1
        assert g.adjacent(lab[(1, 0b00)], lab[(1, 0b01)])
        assert not g.adjacent(lab[(1, 0b00)], lab[(1, 0b11)])
        # across parts: distance exactly 2
        assert g.adjacent(lab[(1, 0b00)], lab[(2, 0b11)])
        assert not g.adjacent(lab[(1, 0b00)], lab[(2, 0b01)])

    def test_k2_m4_isomorphic_to_erdos(self):
        g = hypercube_layers(2, 4)
        assert g.order == 128
        assert are_isomorphic(g, erdos_hypercube(2)) is not None

    def test_k2_m4_explicit_parity_relabelling(self):
        # part and first-two-coordinate data determine the embedding:
        # (i, v) -> (x1, x2, v) with x1, x2 solved from the parity class
        g = hypercube_layers(2, 4)
        target = erdos_hypercube(2)
        perm = []
        for i, v in g.labels:
            p = bin(v).count("1") % 2
            if i == 1:
                x1 = x2 = p
            elif i == 2:
                x1 = x2 = 1 - p
            elif i == 3:
                x1, x2 = 1 - p, p
            else:
                x1, x2 = p, 1 - p
            perm.append(x1 | (x2 << 1) | (v << 2))
        assert g.relabel(perm).same_adjacency(target)

    def test_rejects_small_m(self):
        with pytest.raises(ParameterError):
            hypercube_layers(1, 3)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            hypercube_layers(5, 4)  # 4 * 2^14 = 65536 exceeds the limit


class TestHypercubeCkj:
    def test_k1_j1_equals_complemented_clebsch(self):
        g = hypercube_ckj(1, 1)
        assert g.same_adjacency(build_cayley(DistanceSetSpec(4, {3, 4})))
        assert are_isomorphic(g, erdos_hypercube(1)) is not None

    def test_k2_j1_identical_to_erdos(self):
        assert hypercube_ckj(2, 1).same_adjacency(erdos_hypercube(2))

    def test_k2_j2_odd_distance_replacement(self):
        # complementing the odd-parity vertices swaps each odd distance d
        # with 8-d, giving the {1,3,8} distance graph
        g = hypercube_ckj(2, 2)
        alt = build_cayley(DistanceSetSpec(8, {1, 3, 8}))
        perm = [v ^ 0xFF if bin(v).count("1") % 2 else v for v in range(256)]
        assert g.relabel(perm).same_adjacency(alt)

    def test_rejects_bad_j(self):
        with pytest.raises(ParameterError):
            hypercube_ckj(2, 0)
        with pytest.raises(ParameterError):
            hypercube_ckj(2, 3)


class TestCircular:
    def test_n2_is_five_cycle(self):
        g = circular(2)
        assert g.order == 5
        assert set(g.degrees()) == {2}
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert are_isomorphic(g, c5) is not None

    def test_n1_is_single_edge(self):
        g = circular(1)
        assert g.order == 2
        assert g.edge_count == 1

    def test_n3_cubic_triangle_free(self):
        g = circular(3)
        assert g.order == 8
        assert set(g.degrees()) == {3}
        assert is_triangle_free(g)[0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            circular(0)


class TestTwist:
    def test_displayed_example(self):
        assert twist(0b00, 2) == 0b10  # (0,0) -> (0,1)

    def test_order_four(self):
        for x in range(16):
            y = x
            for _ in range(4):
                y = twist(y, 4)
            assert y == x

    def test_inverse_exhaustive_dim3(self):
        for x in range(8):
            assert twist_inv(twist(x, 3), 3) == x
            assert twist(twist_inv(x, 3), 3) == x

    def test_rejects_small_dimension(self):
        with pytest.raises(ParameterError):
            twist(0, 1)
        with pytest.raises(ParameterError):
            twist_inv(0, 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            twist(4, 2)


class TestTwistedFour:
    def test_2222(self):
        g = twisted_four(2, 2, 2, 2)
        assert g.order == 32
        assert set(g.degrees()) == {9}
        assert is_triangle_free(g)[0]

    def test_2223(self):
        g = twisted_four(2, 2, 2, 3)
        assert g.order == 36
        assert set(g.degrees()) == {10}

    def test_rejects_part_of_size_one(self):
        with pytest.raises(ParameterError):
            twisted_four(1, 2, 2, 2)


class TestTwistedTournament:
    def test_t4_matches_twisted_four(self):
        assert twisted_tournament(T4, 2).same_adjacency(twisted_four(2, 2, 2, 2))
        assert twisted_tournament(T4, 3).same_adjacency(twisted_four(3, 3, 3, 3))

    def test_t4_reversed(self):
        g = twisted_tournament(T4P, 2)
        assert g.order == 32
        assert set(g.degrees()) == {9}

    def test_six_vertex_tournament_degree(self):
        from ectf import random_tournament

        t = random_tournament(6, 123)
        g = twisted_tournament(t, 2)
        assert g.order == 48
        assert set(g.degrees()) == {13}

    def test_rejects_m1(self):
        with pytest.raises(ParameterError):
            twisted_tournament(T4, 1)


class TestTwistedTournamentHypercube:
    @pytest.mark.parametrize("t", [T4, T4P], ids=["t4", "t4p"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_k1_isomorphic_to_plain_twisted(self, t, m):
        g = twisted_tournament_hypercube(t, m, 1)
        h = twisted_tournament(t, m)
        assert g.order == h.order
        assert are_isomorphic(g, h) is not None

    def test_k2_order_and_regularity(self):
        g = twisted_tournament_hypercube(T4, 2, 2)
        assert g.order == 4 * 2 * 32
        assert set(g.degrees()) == {53}
        assert is_triangle_free(g)[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            twisted_tournament_hypercube(T4, 1, 1)
        with pytest.raises(ParameterError):
            twisted_tournament_hypercube(T4, 2, 0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            twisted_tournament_hypercube(T4, 2, 5)


def test_all_family_labels_sorted():
    graphs = [
        albert_cycles(4),
        albert_matrix(BitMatrix.identity(4)),
        hypercube_layers(1, 4),
        twisted_four(2, 2, 2, 2),
        twisted_tournament(T4, 2),
        twisted_tournament_hypercube(T4, 2, 1),
        circular(3),
    ]
    for g in graphs:
        assert list(g.labels) == sorted(g.labels)
        assert len(set(g.labels)) == g.order


# one member of each of the nine families, plus the layered constructions
# at a second block size (4 and 256 vertices per copy)
FAMILY_MEMBERS = {
    "albert_cycles(6)": lambda: albert_cycles(6),
    "albert_matrix(8x8)": lambda: albert_matrix(random_matrix(8, 8, 20260811)),
    "erdos_hypercube(2)": lambda: erdos_hypercube(2),
    "hypercube_ckj(2,1)": lambda: hypercube_ckj(2, 1),
    "hypercube_layers(2,5)": lambda: hypercube_layers(2, 5),
    "hypercube_layers(1,6)": lambda: hypercube_layers(1, 6),
    "circular(13)": lambda: circular(13),
    "twisted_four(2,3,2,4)": lambda: twisted_four(2, 3, 2, 4),
    "twisted_tournament(t4',3)": lambda: twisted_tournament(T4P, 3),
    "twisted_tournament_hypercube(t4',3,1)": lambda: twisted_tournament_hypercube(T4P, 3, 1),
    "twisted_tournament_hypercube(t4,2,3)": lambda: twisted_tournament_hypercube(T4, 2, 3),
}


@pytest.mark.parametrize("k, m", [(1, 4), (1, 7), (2, 4), (2, 5)])
def test_hypercube_layers_match_reference(k, m):
    g = hypercube_layers(k, m)
    assert list(g.rows) == ref_hypercube_layers_rows(k, m)
    assert g.labels == tuple((i, x) for i in range(1, m + 1) for x in range(1 << (3 * k - 1)))


@pytest.mark.parametrize("m", [5, 9, 64, 129])
def test_hypercube_layers_four_per_copy_match_reference(m):
    # 4 vertices per copy: two copies share each packed byte, and an odd m
    # leaves the last byte half filled
    g = hypercube_layers(1, m)
    assert list(g.rows) == ref_hypercube_layers_rows(1, m)


@pytest.mark.parametrize("block_bytes", [1, 100, 1 << 22])
def test_copies_block_layout_does_not_change_rows(monkeypatch, block_bytes):
    monkeypatch.setattr(families, "_BLOCK_BYTES", block_bytes)
    assert list(hypercube_layers(1, 33).rows) == ref_hypercube_layers_rows(1, 33)
    assert list(hypercube_layers(2, 5).rows) == ref_hypercube_layers_rows(2, 5)
    t = random_tournament(5, 20260811)
    assert list(twisted_tournament_hypercube(t, 3, 1).rows) == (
        ref_twisted_tournament_hypercube_rows(t, 3, 1)
    )
    # unequal copy counts: odd and even parts, two copies to a packed byte
    for sizes in ([3, 2, 5, 4], [2, 7, 2, 3]):
        assert list(twisted_four(*sizes).rows) == ref_twisted_z4_rows(sizes, T4.arcs())


@pytest.mark.parametrize(
    "t, m, k",
    [(T4, 2, 1), (T4P, 3, 1), (T4, 2, 2), (random_tournament(5, 20260811), 2, 1)],
)
def test_twisted_tournament_hypercube_matches_reference(t, m, k):
    g = twisted_tournament_hypercube(t, m, k)
    assert list(g.rows) == ref_twisted_tournament_hypercube_rows(t, m, k)
    assert g.labels == tuple(
        (i, j, x) for i in range(t.order) for j in range(1, m + 1) for x in range(1 << (3 * k - 1))
    )


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_member_holds_no_int_rows_until_read(family):
    """The packed words are the one adjacency: reading degrees, the edge
    count, twins or a relabelled copy derives no Python-int rows."""
    g = FAMILY_MEMBERS[family]()
    h = g.relabel(list(reversed(range(g.order))))
    g.degrees(), g.edge_count, is_twin_free(g), g.same_adjacency(h), multiplicity(g, 1)
    assert g._rows is None and h._rows is None
    assert g.rows[0] == g.row(0) and g._rows is not None


@pytest.mark.parametrize("family", sorted(FAMILY_MEMBERS))
def test_member_passes_graph_invariants(family):
    """Constructors that skip validation still build symmetric, irreflexive
    rows with distinct labels, and a packed view that matches the rows."""
    g = FAMILY_MEMBERS[family]()
    g._check_invariants()
    assert np.array_equal(g.packed(), Graph(g.rows).packed())


def test_capacity_is_checked_before_any_work():
    # one step past 2^15 vertices: each would build a matrix of about 2^30
    # bits, or hundreds of millions of edge tuples, if asked
    for build in (
        lambda: albert_cycles(8193),
        lambda: circular(10924),
        lambda: twisted_four(2049, 2048, 2048, 2048),
        lambda: twisted_tournament(T4, 2049),
    ):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="32768"):
            build()
        assert time.perf_counter() - start < 0.25


def test_albert_cycles_match_reference():
    for n in range(4, 101):
        g = albert_cycles(n)
        assert list(g.rows) == ref_albert_cycles_rows(n), n
        assert g.labels == tuple((i, x) for i in range(1, n + 1) for x in range(4))


@pytest.mark.parametrize("shape", [(4, 4), (5, 9), (9, 5), (32, 32), (17, 70)])
def test_albert_matrix_matches_reference(shape):
    for seed in range(3):
        m = random_matrix(*shape, 20260811 + seed)
        assert list(albert_matrix(m).rows) == ref_albert_matrix_rows(m)
    for m in (BitMatrix.identity(shape[0]), BitMatrix.filled(*shape, 1)):
        assert list(albert_matrix(m).rows) == ref_albert_matrix_rows(m)


def test_circular_matches_reference():
    # the pair-by-pair reference grows as n^2: every order up to 60, then
    # a spread of larger ones up to 200
    for n in list(range(1, 61)) + [64, 85, 100, 128, 150, 171, 199, 200]:
        g = circular(n)
        assert list(g.rows) == ref_circular_rows(n), n
        assert g.labels == tuple((t,) for t in range(3 * n - 1))


@pytest.mark.parametrize("sizes", [(2, 3, 2, 4), (5, 2, 3, 2), (2, 2, 2, 7), (6, 5, 4, 3)])
def test_twisted_four_matches_reference(sizes):
    g = twisted_four(*sizes)
    assert list(g.rows) == ref_twisted_z4_rows(sizes, T4.arcs())
    assert g.labels == tuple(
        (i, j, x) for i in range(4) for j in range(1, sizes[i] + 1) for x in range(4)
    )


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize(
    "t",
    [T4, T4P, random_tournament(7, 20260811), random_tournament(9, 20260812)],
    ids=["t4", "t4p", "seeded7", "seeded9"],
)
def test_twisted_tournament_matches_reference(t, m):
    g = twisted_tournament(t, m)
    assert list(g.rows) == ref_twisted_z4_rows([m] * t.order, t.arcs())
    assert g.labels == tuple(
        (i, j, x) for i in range(t.order) for j in range(1, m + 1) for x in range(4)
    )
