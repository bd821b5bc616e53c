"""Property checkers, multiplicities, circular recognition, and the center
construction: unit examples plus cross-checks against reference oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ectf import (
    DistanceSetSpec,
    Graph,
    ParameterError,
    albert_cycles,
    albert_matrix,
    build_cayley,
    canonical_tournaments,
    circular,
    common_neighbors,
    erdos_hypercube,
    has_anti_triangle,
    hypercube_layers,
    is_3ectf,
    is_triangle_free,
    is_twin_free,
    mu2_hypercube_formula,
    multiplicity,
    recognize_circular,
    satisfies_adj_k,
    satisfies_e_k,
    satisfies_e_k_prime,
    triangle_center,
    twisted_four,
)
from ectf.shattered import BitMatrix
from ectf import verify
from ectf.verify import (
    _Counts,
    _e_k_prime_generic,
    _first_unrealized,
    _first_unrealized_among,
    _mu_generic,
    certify,
)

from helpers import (
    MASTER_SEED,
    bipartite_circulant,
    center_exists_bruteforce,
    circulant,
    nbrs,
    random_graph,
    random_maximal_triangle_free,
    ref_first_independent_triple,
    ref_first_triangle,
    ref_recognize_circular,
    ref_multiplicity_witness,
    ref_satisfies_adj_k,
    ref_satisfies_e_k,
    ref_satisfies_e_k_prime,
)


def five_cycle():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def k3():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def k22():
    return Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def clebsch():
    return build_cayley(DistanceSetSpec(4, {1, 4}))


class TestTriangleFree:
    def test_clebsch(self):
        assert is_triangle_free(clebsch()) == (True, None)

    def test_k3_witness(self):
        ok, w = is_triangle_free(k3())
        assert not ok and w == (0, 1, 2)

    def test_albert_matrix_always(self):
        for m in (BitMatrix.identity(5), BitMatrix.filled(4, 5, 1)):
            assert is_triangle_free(albert_matrix(m))[0]

    def test_witness_revalidates(self):
        g = Graph.from_edges(6, [(0, 3), (3, 5), (0, 5), (1, 2)])
        ok, (a, b, c) = is_triangle_free(g)
        assert not ok
        assert g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(a, c)

    def test_matches_reference_on_random_graphs(self):
        free = 0
        for n in range(41):
            for i, p in enumerate((0.05, 0.15, 0.4)):
                g = random_graph(n, p, MASTER_SEED + 1300 + 10 * n + i)
                triangle = ref_first_triangle(g)
                assert is_triangle_free(g) == (triangle is None, triangle)
                free += triangle is None
        assert 20 <= free <= 100


class TestTwinFree:
    def test_clebsch(self):
        assert is_twin_free(clebsch()) == (True, None)

    def test_isolated_pair(self):
        ok, w = is_twin_free(Graph.from_edges(2, []))
        assert not ok and w == (0, 1)

    def test_complete_bipartite(self):
        ok, w = is_twin_free(k22())
        assert not ok and w == (0, 1)


class TestAntiTriangle:
    def test_five_cycle_has_none(self):
        assert has_anti_triangle(five_cycle()) == (False, None)

    def test_single_edge_has_none(self):
        assert has_anti_triangle(Graph.from_edges(2, [(0, 1)])) == (False, None)

    def test_clebsch_has_one(self):
        ok, w = has_anti_triangle(clebsch())
        assert ok
        a, b, c = w
        g = clebsch()
        assert not (g.adjacent(a, b) or g.adjacent(a, c) or g.adjacent(b, c))

    def test_matches_reference_on_random_graphs(self):
        none_found = 0
        for n in range(16):
            for i, p in enumerate((0.2, 0.5, 0.9)):
                g = random_graph(n, p, MASTER_SEED + 1100 + 10 * n + i)
                triple = ref_first_independent_triple(g)
                assert has_anti_triangle(g) == (triple is not None, triple)
                none_found += n >= 3 and triple is None
        assert none_found >= 3


class TestAdjK:
    def test_five_cycle_k2(self):
        assert satisfies_adj_k(five_cycle(), 2) == (True, None)

    def test_circular_eight_k3(self):
        assert satisfies_adj_k(circular(3), 3) == (True, None)

    def test_path_endpoints_witness(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        ok, w = satisfies_adj_k(g, 2)
        assert not ok and w == (0, 3)

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        ok, w = satisfies_adj_k(g, 1)
        assert not ok and w == (2,)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            satisfies_adj_k(five_cycle(), 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference_on_random_corpus(self, seed):
        g = random_maximal_triangle_free(5 + seed, MASTER_SEED + seed)
        for k in (1, 2, 3, 4, 5):
            assert satisfies_adj_k(g, k) == ref_satisfies_adj_k(g, k)


class TestEK:
    def test_clebsch_k3_true(self):
        assert satisfies_e_k(clebsch(), 3) == (True, None)

    def test_circular_eight_k3_false(self):
        ok, witness = satisfies_e_k(circular(3), 3)
        assert not ok
        a_set, b_set = witness
        assert len(a_set) <= 3 and set(b_set) <= set(a_set)

    def test_erdos_k2_true(self):
        assert satisfies_e_k(erdos_hypercube(2), 3)[0]

    def test_five_cycle_k2_false(self):
        assert not satisfies_e_k(five_cycle(), 2)[0]

    def test_single_edge_k2_false(self):
        assert not satisfies_e_k(Graph.from_edges(2, [(0, 1)]), 2)[0]

    def test_clebsch_k4_false(self):
        # a triple with a unique common neighbor blocks the k=4 extension
        assert not satisfies_e_k(clebsch(), 4)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_random_corpus(self, seed):
        g = random_maximal_triangle_free(5 + seed, MASTER_SEED + 100 + seed)
        for k in (1, 2, 3, 4):
            assert satisfies_e_k(g, k) == ref_satisfies_e_k(g, k)

    def test_witness_revalidates(self):
        g = circular(3)
        _, (a_set, b_set) = satisfies_e_k(g, 3)
        avoid = [v for v in a_set if v not in b_set]
        for cand in range(g.order):
            if cand in a_set:
                continue
            assert not (
                all(g.adjacent(cand, b) for b in b_set)
                and not any(g.adjacent(cand, c) for c in avoid)
            )


class TestVectorizedAgreesWithGeneric:
    """The count kernel's size-3 scan against the set-by-set enumeration
    that sizes 4 and up use."""

    @pytest.mark.parametrize("seed", range(8))
    def test_maximal_triangle_free_90(self, seed):
        g = random_maximal_triangle_free(90, MASTER_SEED + 200 + seed)
        generic = _first_unrealized_among(g, combinations(range(g.order), 3))
        vector = _first_unrealized(_Counts(g), 3, independent=False)
        assert generic == vector

    def test_sparse_failing_case(self):
        g = Graph.from_edges(
            90, [(i, i + 1) for i in range(89)] + [(89, 0)]
        )  # big cycle: plenty of failures
        generic = _first_unrealized_among(g, combinations(range(g.order), 3))
        vector = _first_unrealized(_Counts(g), 3, independent=False)
        assert generic == vector


def oracle_graphs(n):
    """Seeded graphs on n vertices: two random ones (with triangles once n
    allows), a maximal triangle-free one, the n-cycle, and circular(m) when
    n = 3m - 1 (those pass every size-2 check and fail e_3)."""
    graphs = [random_graph(n, p, MASTER_SEED + 700 + 10 * n + i) for i, p in enumerate((0.3, 0.6))]
    graphs.append(random_maximal_triangle_free(n, MASTER_SEED + 900 + n))
    if n >= 3:
        graphs.append(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    if n % 3 == 2:
        graphs.append(circular((n + 1) // 3))
    return graphs


class TestKernelAgreesWithOracle:
    """Verdicts and first witnesses of every size-<=3 scan against the
    plain-set references in helpers."""

    @pytest.mark.parametrize("n", range(21))
    def test_scans(self, n):
        for g in oracle_graphs(n):
            for k in (1, 2, 3):
                assert satisfies_adj_k(g, k) == ref_satisfies_adj_k(g, k)
                assert satisfies_e_k(g, k) == ref_satisfies_e_k(g, k)
            for k in (2, 3):
                assert satisfies_e_k_prime(g, k) == ref_satisfies_e_k_prime(g, k)
                res = multiplicity(g, k)
                assert (res.value, res.witness) == ref_multiplicity_witness(g, k)

    def test_corpus_reaches_size_three(self):
        graphs = [g for n in range(21) for g in oracle_graphs(n)]
        assert any(g.order and not is_triangle_free(g)[0] for g in graphs)
        e3_first = [g for g in graphs if satisfies_e_k(g, 2)[0] and not satisfies_e_k(g, 3)[0]]
        adj3_first = [
            g for g in graphs if satisfies_adj_k(g, 2)[0] and not satisfies_adj_k(g, 3)[0]
        ]
        assert len(e3_first) >= 5 and adj3_first

    @pytest.mark.parametrize("block, dense_max", [(64, 1 << 13), (200, 0), (1 << 20, 0)])
    def test_block_layout_does_not_change_results(self, monkeypatch, block, dense_max):
        graphs = [
            random_graph(37, 0.3, MASTER_SEED + 1000),
            random_maximal_triangle_free(41, MASTER_SEED + 1001),
            circular(13),
        ]
        checks = [
            lambda g: satisfies_adj_k(g, 3),
            lambda g: satisfies_e_k(g, 3),
            lambda g: satisfies_e_k_prime(g, 3),
            lambda g: multiplicity(g, 2),
            lambda g: multiplicity(g, 3),
        ]
        expected = [check(g) for g in graphs for check in checks]
        monkeypatch.setattr(verify, "_BLOCK", block)
        monkeypatch.setattr(verify, "_DENSE_MAX", dense_max)
        assert [check(g) for g in graphs for check in checks] == expected


# family members whose k = 4 scans reach an "attach" witness, a failure of
# e_4 at |A| = 4 and a passing adj_4
SIZE_FOUR_FAMILIES = {
    "clebsch": clebsch,
    "albert_cycles(5)": lambda: albert_cycles(5),
    "erdos_hypercube(1)": lambda: erdos_hypercube(1),
    "circular(5)": lambda: circular(5),
    "hypercube_layers(1,4)": lambda: hypercube_layers(1, 4),
}


class TestSizeFourAgreesWithOracle:
    """Verdicts and first witnesses of the k = 4 scans against the
    plain-set references in helpers."""

    @pytest.mark.parametrize("name", sorted(SIZE_FOUR_FAMILIES))
    def test_scans(self, name):
        g = SIZE_FOUR_FAMILIES[name]()
        assert satisfies_adj_k(g, 4) == ref_satisfies_adj_k(g, 4)
        assert satisfies_e_k(g, 4) == ref_satisfies_e_k(g, 4)
        assert satisfies_e_k_prime(g, 4) == ref_satisfies_e_k_prime(g, 4)
        res = multiplicity(g, 4)
        assert (res.value, res.witness) == ref_multiplicity_witness(g, 4)

    def test_families_reach_size_four(self):
        graphs = [make() for make in SIZE_FOUR_FAMILIES.values()]
        assert any(satisfies_e_k_prime(g, 4)[1][0] == "attach" for g in graphs)
        assert any(len(satisfies_e_k(g, 4)[1][0]) == 4 for g in graphs)
        assert any(satisfies_adj_k(g, 4)[0] for g in graphs)


class TestEKPrime:
    def test_clebsch_k3(self):
        assert satisfies_e_k_prime(clebsch(), 3) == (True, None)

    def test_five_cycle_k2_false(self):
        ok, witness = satisfies_e_k_prime(five_cycle(), 2)
        assert not ok
        assert witness[0] == "attach"

    def test_requires_k_at_least_two(self):
        with pytest.raises(ParameterError):
            satisfies_e_k_prime(five_cycle(), 1)

    def test_extension_clause_failure(self):
        # complete bipartite graphs have no independent 3-set spanning parts;
        # here a star has no independent 2-set containing the hub... the hub
        # extends, but K3 has no independent pair at all
        ok, witness = satisfies_e_k_prime(k3(), 2)
        assert not ok
        assert witness == ("extend", ())

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", (2, 3))
    def test_equivalent_to_e_k_on_random_corpus(self, k, seed):
        g = random_maximal_triangle_free(6 + seed, MASTER_SEED + 300 + seed)
        assert satisfies_e_k_prime(g, k)[0] == satisfies_e_k(g, k)[0]

    # these reach "extend" witnesses of sizes 0, 1 and 2, which the
    # SIZE_FOUR_FAMILIES members do not
    @pytest.mark.parametrize("seed", range(6))
    def test_k4_matches_reference(self, seed):
        g = random_maximal_triangle_free(6 + seed, MASTER_SEED + 450 + seed)
        assert satisfies_e_k_prime(g, 4) == ref_satisfies_e_k_prime(g, 4)

    def test_vectorized_route_matches_small_route(self):
        # the count kernel against the set-by-set route of k >= 4
        g = random_maximal_triangle_free(90, MASTER_SEED + 400)
        assert satisfies_e_k_prime(g, 3) == _e_k_prime_generic(g, 3)


class TestRecognizeCircular:
    def test_five_cycle(self):
        assert recognize_circular(five_cycle()) == 2

    def test_relabelled_circular_eleven(self):
        g = circular(4)
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED))
        h = g.relabel([int(x) for x in rng.permutation(g.order)])
        assert recognize_circular(h) == 4

    def test_clebsch_absent_by_size(self):
        assert recognize_circular(clebsch()) is None

    def test_wrong_regularity(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert recognize_circular(g) is None

    def test_single_edge(self):
        assert recognize_circular(Graph.from_edges(2, [(0, 1)])) == 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_circulant_of_that_degree_matches_networkx(self, n):
        """Every symmetric n-subset S of Z_(3n-1) gives an n-regular
        Cay(Z_(3n-1), S) of the order of circular(n); that graph and a
        seeded relabelled copy get the networkx answer."""
        m = 3 * n - 1
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED + m))
        answers = []
        for half in combinations(range(1, m // 2 + 1), (n + 1) // 2):
            offsets = set(half) | {m - d for d in half}
            if len(offsets) != n:
                continue
            g = circulant(m, offsets)
            h = g.relabel([int(x) for x in rng.permutation(m)])
            answers.append(ref_recognize_circular(g))
            assert recognize_circular(g) == recognize_circular(h) == answers[-1], sorted(offsets)
        assert len(answers) == {2: 2, 3: 3, 4: 10, 5: 15, 6: 56}[n]
        assert n in answers and (n == 2 or None in answers)

    def test_bipartite_circulant_602(self):
        """Same order and degree as circular(201), not circular: the walk
        stops early and is_3ectf fails on adj_3."""
        g = bipartite_circulant(201)
        assert recognize_circular(g) is None
        reason = is_3ectf(g).witness("is_3ectf")
        assert reason == ("uncovered", (0, 201))
        _assert_witness_holds(g, "is_3ectf", reason)


class TestIs3ECTF:
    def test_albert_six(self):
        report = is_3ectf(albert_cycles(6))
        assert report.is_3ectf

    def test_circular_eight_reason(self):
        report = is_3ectf(circular(3))
        assert not report.is_3ectf
        assert report.verdict("adj_3")
        assert report.is_circular == 3
        assert report.witness("is_3ectf") == ("circular", 3)

    def test_twins_reason(self):
        report = is_3ectf(k22())
        assert not report.is_3ectf
        assert report.witness("is_3ectf")[0] == "twins"

    def test_triangle_short_circuit(self):
        report = is_3ectf(k3())
        assert not report.is_3ectf
        assert report.witness("is_3ectf") == ("triangle", (0, 1, 2))
        assert "adj_3" not in report

    @pytest.mark.parametrize(
        "g",
        [albert_cycles(6), circular(13), erdos_hypercube(2), hypercube_layers(1, 6)],
        ids=["albert_cycles(6)", "circular(13)", "erdos_hypercube(2)", "hypercube_layers(1,6)"],
    )
    def test_derives_no_int_rows(self, g):
        """The fast path reads only the packed words of a packed-built graph."""
        assert g._rows is None
        is_3ectf(g)
        assert g._rows is None

    def test_matches_definitional_oracle_on_small_corpus(self):
        for seed in range(30):
            g = random_maximal_triangle_free(4 + seed % 12, MASTER_SEED + 500 + seed)
            assert is_3ectf(g).is_3ectf == satisfies_e_k(g, 3)[0]


class TestCertifyReport:
    def test_full_battery_fields(self):
        report = certify(circular(3), k_max=3)
        for name in (
            "triangle_free",
            "twin_free",
            "anti_triangle",
            "adj_1",
            "adj_2",
            "adj_3",
            "maximal_triangle_free",
            "e_1",
            "e_2",
            "e_3",
            "is_circular",
            "is_3ectf",
        ):
            assert name in report
        assert report.verdict("e_2") and not report.verdict("e_3")

    def test_text_and_json_render(self):
        report = certify(five_cycle(), k_max=2)
        text = report.to_text()
        assert "triangle_free\ttrue" in text
        assert "ms" in text
        js = report.to_json()
        assert js.endswith("\n")
        import json

        payload = json.loads(js)
        assert payload["order"] == 5
        assert payload["checks"]["anti_triangle"]["verdict"] is False

    def test_json_stable_across_runs_and_threads(self):
        # one code path now: the same call twice gives the same bytes
        g = random_maximal_triangle_free(40, MASTER_SEED)
        a = certify(g, k_max=3).to_json()
        b = certify(g, k_max=3).to_json()
        assert a == b


class TestMultiplicity:
    def test_clebsch_values(self):
        g = clebsch()
        assert multiplicity(g, 2).value == 2
        assert multiplicity(g, 3).value == 1

    def test_erdos_k2(self):
        assert multiplicity(erdos_hypercube(2), 2).value == 6

    def test_albert_values(self):
        for g in (albert_cycles(5), albert_matrix(BitMatrix.identity(6))):
            assert multiplicity(g, 2).value == 2
            assert multiplicity(g, 3).value == 1

    def test_witness_revalidates(self):
        g = twisted_four(2, 2, 2, 2)
        res = multiplicity(g, 3)
        a, b, c = res.witness
        assert not (g.adjacent(a, b) or g.adjacent(a, c) or g.adjacent(b, c))
        assert common_neighbors(g, res.witness).bit_count() == res.value

    def test_no_independent_set_marker(self):
        res = multiplicity(k3(), 2)
        assert res.value is None and res.no_independent_set

    def test_k1_is_min_degree(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        res = multiplicity(g, 1)
        assert res.value == 1 and res.witness == (0,)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed):
        g = random_maximal_triangle_free(6 + seed, MASTER_SEED + 600 + seed)
        for k in (1, 2, 3, 4):
            res = multiplicity(g, k)
            assert (res.value, res.witness) == ref_multiplicity_witness(g, k)

    def test_sampled_mode_upper_bound_and_flags(self):
        g = erdos_hypercube(2)
        exact = multiplicity(g, 2).value
        sampled = multiplicity(g, 2, mode="sampled", trials=500, seed=3)
        assert not sampled.exact
        assert sampled.rng == "PCG64"
        assert sampled.value >= exact
        again = multiplicity(g, 2, mode="sampled", trials=500, seed=3)
        assert again.value == sampled.value and again.witness == sampled.witness

    def test_numpy_route_matches_python_route(self):
        # the count kernel against the set-by-set enumeration of k >= 4
        g = random_maximal_triangle_free(100, MASTER_SEED + 1)
        fast = multiplicity(g, 3)
        assert (fast.value, fast.witness) == _mu_generic(g, 3)


class TestTriangleCenter:
    def test_degenerate(self):
        assert triangle_center(9, 9, 9, 0, 0, 0) == 9

    def test_unit_vectors(self):
        assert triangle_center(0b100, 0b010, 0b001, 1, 1, 1) == 0

    def test_premise_violation_named(self):
        with pytest.raises(ParameterError, match=r"d\(x,y\)"):
            triangle_center(0b111, 0b000, 0b000, 1, 1, 3)
        with pytest.raises(ParameterError, match=r"d\(x,z\)"):
            triangle_center(0b111, 0b111, 0b000, 1, 1, 1)
        with pytest.raises(ParameterError, match=r"d\(y,z\)"):
            triangle_center(0b000, 0b111, 0b000, 3, 1, 1)
        with pytest.raises(ParameterError, match="radius"):
            triangle_center(0, 0, 0, -1, 0, 0)

    def test_weight_reduction_branch(self):
        # x far from the majority vector forces the excess-trimming step
        x, y, z = 0b1111, 0b0000, 0b0000
        v = triangle_center(x, y, z, 2, 2, 2)
        assert v == 0b0011  # two lowest-index bits of the violator kept
        assert (v ^ x).bit_count() <= 2
        assert (v ^ y).bit_count() <= 2
        assert (v ^ z).bit_count() <= 2

    def test_random_instances_meet_bounds(self):
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED))
        done = 0
        while done < 3000:
            dim = int(rng.integers(1, 25))
            x, y, z = (int(v) for v in rng.integers(0, 1 << dim, size=3))
            a, b, c = (int(v) for v in rng.integers(0, dim + 1, size=3))
            if (
                (x ^ y).bit_count() > a + b
                or (x ^ z).bit_count() > a + c
                or (y ^ z).bit_count() > b + c
            ):
                continue
            v = triangle_center(x, y, z, a, b, c)
            assert (v ^ x).bit_count() <= a
            assert (v ^ y).bit_count() <= b
            assert (v ^ z).bit_count() <= c
            done += 1

    def test_small_dimension_against_bruteforce(self):
        for dim in (1, 2, 3):
            for x in range(1 << dim):
                for y in range(1 << dim):
                    for z in range(1 << dim):
                        for a in range(dim + 1):
                            for b in range(dim + 1):
                                for c in range(dim + 1):
                                    premises = (
                                        (x ^ y).bit_count() <= a + b
                                        and (x ^ z).bit_count() <= a + c
                                        and (y ^ z).bit_count() <= b + c
                                    )
                                    if not premises:
                                        continue
                                    assert center_exists_bruteforce(
                                        dim, x, y, z, a, b, c
                                    )
                                    v = triangle_center(x, y, z, a, b, c)
                                    assert (v ^ x).bit_count() <= a
                                    assert (v ^ y).bit_count() <= b
                                    assert (v ^ z).bit_count() <= c


class TestMu2Formula:
    def test_frozen_values(self):
        assert mu2_hypercube_formula(2, 2, "even") == 6
        assert mu2_hypercube_formula(2, 1, "even") == 10
        assert mu2_hypercube_formula(1, 1, "odd") == 2
        assert mu2_hypercube_formula(1, 1, "even") == 2
        # 2 * C(6,1) * C(1,1) and 2 * C(4,0) * C(3,2); the odd-case minimum
        # at t = k again lands on the central binomial coefficient
        assert mu2_hypercube_formula(2, 1, "odd") == 12
        assert mu2_hypercube_formula(2, 2, "odd") == 6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            mu2_hypercube_formula(2, 3, "even")
        with pytest.raises(ParameterError):
            mu2_hypercube_formula(2, 0, "odd")
        with pytest.raises(ParameterError):
            mu2_hypercube_formula(2, 1, "both")

    @pytest.mark.parametrize("k", (1, 2))
    def test_lower_bounds_hold_in_hypercube_graph(self, k):
        g = erdos_hypercube(k)
        n = g.order
        mins = {}
        for x in range(n):
            for y in range(x + 1, n):
                if g.adjacent(x, y):
                    continue
                d = (x ^ y).bit_count()
                cnt = common_neighbors(g, (x, y)).bit_count()
                mins[d] = min(mins.get(d, cnt), cnt)
        from math import comb

        for d, lowest in mins.items():
            if d % 2 == 0:
                assert lowest >= mu2_hypercube_formula(k, d // 2, "even")
            else:
                assert lowest >= mu2_hypercube_formula(k, (d + 1) // 2, "odd")
        assert min(mins.values()) == comb(2 * k, k)

    @pytest.mark.parametrize("k", (1, 2))
    def test_disjoint_support_triple_has_all_ones_center(self, k):
        g = erdos_hypercube(k)
        mask = (1 << k) - 1
        triple = (mask, mask << k, mask << (2 * k))
        cn = common_neighbors(g, triple)
        assert cn == 1 << (g.order - 1)  # exactly the all-ones vector



def _assert_witness_holds(g, name, witness):
    """A witness certify or is_3ectf returned for g, checked on plain sets."""
    nb = [nbrs(g, v) for v in range(g.order)]
    independent = lambda s: all(v not in nb[u] for u, v in combinations(s, 2))
    if name == "is_3ectf":
        reason, witness = witness
        names = {"triangle": "triangle_free", "uncovered": "adj_3", "twins": "twin_free"}
        name = names.get(reason, reason)
    if name == "triangle_free":
        a, b, c = witness
        assert b in nb[a] and c in nb[a] and c in nb[b]
    elif name == "twin_free":
        u, v = witness
        assert u != v and nb[u] == nb[v]
    elif name == "anti_triangle":
        assert len(set(witness)) == 3 and independent(witness)
    elif name.startswith("adj_"):
        assert independent(witness) and not set.intersection(*(nb[v] for v in witness))
    elif name.startswith("e_"):
        a_set, b_set = witness
        assert set(b_set) <= set(a_set) and independent(b_set)
        avoid = set(a_set) - set(b_set)
        assert not any(
            set(b_set) <= nb[v] and not nb[v] & avoid for v in range(g.order) if v not in a_set
        )
    elif name == "circular":
        # the verdict is the n of circular(n): 3n - 1 vertices, arcs of n
        assert ref_recognize_circular(g) == witness
    else:
        raise AssertionError(f"no witness expected from {name}")


_SMALL_GRAPHS = st.one_of(
    st.tuples(st.integers(0, 24), st.floats(0.0, 1.0), st.integers(0, 2**32)).map(
        lambda c: random_graph(*c)
    ),
    st.tuples(st.integers(0, 24), st.integers(0, 2**32)).map(
        lambda c: random_maximal_triangle_free(*c)
    ),
    st.sampled_from([(circular, 3), (circular, 8), (albert_cycles, 4), (albert_cycles, 6)]).map(
        lambda c: c[0](c[1])
    ),
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_SMALL_GRAPHS.flatmap(lambda g: st.tuples(st.just(g), st.permutations(range(g.order)))))
def test_verdicts_unchanged_under_relabel(case):
    """certify(g, 3) and is_3ectf give the same verdicts on a relabelled
    copy, and every witness on the copy holds there."""
    g, perm = case
    h = g.relabel(list(perm))
    for before, after in ((certify(g, 3), certify(h, 3)), (is_3ectf(g), is_3ectf(h))):
        assert list(after.checks) == list(before.checks)
        for name, res in after.checks.items():
            assert res.verdict == before.verdict(name), name
            if name == "is_circular":
                if res.verdict is not None:
                    _assert_witness_holds(h, "circular", res.verdict)
            elif res.witness is not None:
                _assert_witness_holds(h, name, res.witness)
