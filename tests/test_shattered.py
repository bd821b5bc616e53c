"""Shattered matrices and tournaments: checks, witnesses, randomness, files."""

from functools import cache
from itertools import combinations, permutations

import numpy as np
import pytest

from ectf import (
    BitMatrix,
    ParameterError,
    Tournament,
    canonical_tournaments,
    is_shattered_matrix,
    is_shattered_tournament,
    random_matrix,
    random_tournament,
    shattered_fraction,
)
from ectf import shattered
from ectf.shattered import (
    matrix_from_text,
    matrix_to_text,
    read_matrix_file,
    read_tournament_file,
    tournament_from_text,
    tournament_to_text,
    trial_seeds,
    write_matrix_file,
    write_tournament_file,
)

from helpers import (
    MASTER_SEED,
    SHATTERED_8X8_SEEDS,
    ref_one_two_path_per_pair,
    ref_shattered_witness,
)

T4, T4P = canonical_tournaments()


class TestBitMatrix:
    def test_entry_bounds(self):
        m = BitMatrix.identity(4)
        assert m.entry(2, 2) == 1
        assert m.entry(2, 3) == 0
        with pytest.raises(ParameterError):
            m.entry(4, 0)

    def test_rejects_bad_entries(self):
        with pytest.raises(ParameterError):
            BitMatrix(((0, 2),))
        with pytest.raises(ParameterError):
            BitMatrix(((0, 1), (1,)))

    def test_transpose(self):
        m = BitMatrix(((1, 0, 0), (1, 1, 0)))
        assert m.transpose().bits == ((1, 1), (0, 1), (0, 0))


class TestShatteredMatrix:
    def test_identity_four_shattered(self):
        ok, witness = is_shattered_matrix(BitMatrix.identity(4))
        assert ok and witness is None

    def test_all_zeros_witness(self):
        ok, witness = is_shattered_matrix(BitMatrix.filled(4, 4, 0))
        assert not ok
        axis, triple, pair = witness
        assert axis == "rows"
        assert triple == (0, 1, 2)
        assert pair == ((0, 0, 1), (1, 1, 0))

    def test_all_ones_witness(self):
        ok, witness = is_shattered_matrix(BitMatrix.filled(4, 5, 1))
        assert not ok
        assert witness[1] == (0, 1, 2)
        assert witness[2] == ((0, 0, 1), (1, 1, 0))

    def test_rejects_small(self):
        with pytest.raises(ParameterError):
            is_shattered_matrix(BitMatrix.filled(2, 5, 0))

    def test_witness_revalidates(self):
        m = random_matrix(6, 6, MASTER_SEED)
        ok, witness = is_shattered_matrix(m)
        if ok:
            pytest.skip("seeded matrix happened to be shattered")
        axis, triple, (pat, comp) = witness
        rows = m.bits if axis == "rows" else m.transpose().bits
        cols = len(rows[0])
        observed = {
            tuple(rows[i][c] for i in triple) for c in range(cols)
        }
        assert pat not in observed and comp not in observed

    def test_matches_bruteforce_oracle_on_seeded_randoms(self):
        for s in trial_seeds(MASTER_SEED + 1, 300):
            m = random_matrix(8, 8, s)
            expected = _oracle_shattered(m)
            assert is_shattered_matrix(m)[0] == expected

    def test_vector_path_agrees_with_naive(self):
        for s in trial_seeds(MASTER_SEED + 2, 60):
            m = random_matrix(16, 17, s)
            arr_verdict = is_shattered_matrix(m)[0]
            assert arr_verdict == _oracle_shattered(m)

    def test_transpose_symmetry(self):
        for s in trial_seeds(MASTER_SEED + 3, 100):
            m = random_matrix(5, 7, s)
            assert is_shattered_matrix(m)[0] == is_shattered_matrix(m.transpose())[0]

    def test_permutation_and_complement_invariance(self):
        rng = np.random.Generator(np.random.PCG64(MASTER_SEED))
        for s in trial_seeds(MASTER_SEED + 4, 60):
            m = random_matrix(5, 5, s)
            base = is_shattered_matrix(m)[0]
            assert is_shattered_matrix(m.complement())[0] == base
            rperm = rng.permutation(5)
            cperm = rng.permutation(5)
            shuffled = BitMatrix(
                tuple(tuple(m.bits[i][j] for j in cperm) for i in rperm)
            )
            assert is_shattered_matrix(shuffled)[0] == base


def _late_failures(m: BitMatrix) -> list[BitMatrix]:
    """Edits of a shattered m whose first uncovered triple lies late: the
    last row made a copy or the complement of the one before it (the first
    failure is (0, m-2, m-1), missing pair 1 or 0), the last row set to
    r ^ (~(r ^ s) & z) from the two before it and another row z (pair 3
    missing there), and the same edits on the columns, met only after every
    row triple has been scanned."""
    out = []
    for edit_cols in (False, True):
        rows = [list(r) for r in (m.transpose() if edit_cols else m).bits]
        r, s, z = rows[-3], rows[-2], rows[1]
        for last in (
            list(s),
            [1 - x for x in s],
            [a ^ ((1 - (a ^ b)) & c) for a, b, c in zip(r, s, z)],
        ):
            edited = BitMatrix(tuple(map(tuple, rows[:-1] + [last])))
            out.append(edited.transpose() if edit_cols else edited)
    return out


@cache
def _kernel_corpus() -> list[BitMatrix]:
    """Seeded matrices: every square side 3..20, the sides 15/16/17 mixed,
    non-square shapes and 63/64/65/130 columns or rows (several words per
    packed row), the frozen shattered 8x8 seeds, shattered 32x32, 64x64 and
    65x66 draws, and late-failing edits of shattered matrices."""
    shapes = [(n, n) for n in range(3, 21)]
    shapes += [(a, b) for a in (15, 16, 17) for b in (15, 16, 17) if a != b]
    shapes += [(3, 9), (9, 3), (4, 12), (12, 5), (7, 20), (20, 6)]
    shapes += [(r, w) for w in (63, 64, 65, 130) for r in (5, 20)]
    shapes += [(w, 20) for w in (63, 64, 65, 130)]
    corpus = [
        random_matrix(m, n, s)
        for k, (m, n) in enumerate(shapes)
        for s in trial_seeds(MASTER_SEED + 100 + k, 4)
    ]
    hits = [random_matrix(8, 8, s) for s in SHATTERED_8X8_SEEDS[:6]]
    hits.append(next(
        m for m in (random_matrix(32, 32, s) for s in trial_seeds(MASTER_SEED, 100))
        if ref_shattered_witness(m)[0]
    ))
    hits += [random_matrix(64, 64, MASTER_SEED), random_matrix(65, 66, MASTER_SEED)]
    corpus += hits
    for m in hits:
        corpus += _late_failures(m)
    return corpus


@cache
def _reference() -> list:
    return [ref_shattered_witness(m) for m in _kernel_corpus()]


class TestShatteredKernel:
    """The packed-word triple kernel against the former pure-Python scan
    and the direct restatement of the definition."""

    def test_witness_matches_reference_scan(self):
        for m, expected in zip(_kernel_corpus(), _reference()):
            assert is_shattered_matrix(m) == expected, m.bits

    def test_verdict_matches_oracle(self):
        for m in _kernel_corpus():
            if m.nrows * m.ncols <= 20 * 130:
                assert is_shattered_matrix(m)[0] == _oracle_shattered(m), m.bits

    def test_corpus_reaches_every_outcome(self):
        failures = [(m, w) for m, (ok, w) in zip(_kernel_corpus(), _reference()) if not ok]
        assert len(_kernel_corpus()) - len(failures) >= 9
        assert {axis for _, (axis, _, _) in failures} == {"rows", "cols"}
        assert {shattered.PATTERN_PAIRS.index(p) for _, (_, _, p) in failures} == {0, 1, 2, 3}
        # late: a row failure past the first 1800 triples of a 64-row
        # matrix, and column failures after all of its row triples passed
        assert any(m.nrows >= 64 and t[1] >= 62 for m, (axis, t, _) in failures if axis == "rows")
        assert any(m.nrows >= 64 for m, (axis, _, _) in failures if axis == "cols")
        assert {m.ncols for m in _kernel_corpus()} >= {63, 64, 65, 130}

    def test_trial_verdict_matches_matrix_check(self):
        for m, n in ((3, 3), (4, 4), (5, 130), (17, 16), (32, 32), (65, 20)):
            for s in trial_seeds(MASTER_SEED + m * n, 8):
                expected = ref_shattered_witness(random_matrix(m, n, s))[0]
                assert shattered.trial_is_shattered(m, n, s) == expected

    @pytest.mark.parametrize("budget", [1, 97, 1 << 16])
    def test_block_budget_does_not_change_witness(self, monkeypatch, budget):
        # one triple per block is slow on the 64-row matrices: up to 32x32
        monkeypatch.setattr(shattered, "_BLOCK_WORDS", budget)
        for m, expected in zip(_kernel_corpus(), _reference()):
            if budget > 1 or m.nrows * m.ncols <= 32 * 32:
                assert is_shattered_matrix(m) == expected, m.bits


def _oracle_shattered(m: BitMatrix) -> bool:
    # direct restatement: every 3 rows and 3 columns exhibit all four
    # complement-pairs of patterns among their columns/rows
    for mat in (m.bits, m.transpose().bits):
        nr = len(mat)
        nc = len(mat[0])
        for triple in combinations(range(nr), 3):
            classes = set()
            for c in range(nc):
                p = tuple(mat[i][c] for i in triple)
                classes.add(min(p, tuple(1 - x for x in p)))
            if len(classes) < 4:
                return False
    return True


class TestTournamentType:
    def test_invariants(self):
        with pytest.raises(ParameterError):
            Tournament((0b10, 0b01))  # both directions
        with pytest.raises(ParameterError):
            Tournament((0b01, 0b00))  # self-loop
        with pytest.raises(ParameterError):
            Tournament((0b00, 0b00))  # missing orientation

    def test_reverse_involution(self):
        assert T4.reverse().reverse() == T4
        assert T4P == T4.reverse()

    def test_random_tournament_valid_and_deterministic(self):
        for v in (2, 5, 9):
            t1 = random_tournament(v, MASTER_SEED)
            t2 = random_tournament(v, MASTER_SEED)
            assert t1 == t2
            for i in range(v):
                for j in range(v):
                    if i != j:
                        assert t1.dominates(i, j) != t1.dominates(j, i)

    def test_arcs_roundtrip(self):
        t = random_tournament(6, 3)
        assert Tournament.from_arcs(6, t.arcs()) == t


class TestCanonicalTournaments:
    def test_arc_list(self):
        assert set(T4.arcs()) == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)}

    def test_restriction_is_directed_three_cycle(self):
        sub = T4.induced((1, 2, 3))
        assert set(sub.arcs()) == {(0, 1), (1, 2), (2, 0)}

    def test_exactly_one_two_path_per_unordered_pair(self):
        for t in (T4, T4P):
            for u, w in combinations(range(4), 2):
                paths = 0
                for z in range(4):
                    if z in (u, w):
                        continue
                    paths += t.dominates(u, z) and t.dominates(z, w)
                    paths += t.dominates(w, z) and t.dominates(z, u)
                assert paths == 1

    def test_two_path_property_characterizes_the_pair(self):
        # over all 64 labeled 4-vertex tournaments, the one-2-path property
        # holds exactly for the copies of the two canonical tournaments
        from ectf.shattered import _is_doubly_regular_4

        for bits in range(64):
            arcs = []
            idx = 0
            for i in range(4):
                for j in range(i + 1, 4):
                    arcs.append((i, j) if (bits >> idx) & 1 else (j, i))
                    idx += 1
            t = Tournament.from_arcs(4, arcs)
            is_copy = any(
                {(perm[a], perm[b]) for a, b in t.arcs()} == set(target.arcs())
                for target in (T4, T4P)
                for perm in permutations(range(4))
            )
            assert _is_doubly_regular_4(t, (0, 1, 2, 3)) == is_copy

    def test_score_test_matches_two_path_count(self):
        # a 4-set qualifies exactly when its squared in-quad scores sum to
        # 12; checked against the 2-path count on all 64 labelled
        # 4-tournaments and every order of the quad
        qualifying = 0
        for bits in range(64):
            arcs = []
            idx = 0
            for i in range(4):
                for j in range(i + 1, 4):
                    arcs.append((i, j) if (bits >> idx) & 1 else (j, i))
                    idx += 1
            t = Tournament.from_arcs(4, arcs)
            expected = ref_one_two_path_per_pair(t, (0, 1, 2, 3))
            qualifying += expected
            for quad in permutations(range(4)):
                assert shattered._is_doubly_regular_4(t, quad) == expected
        assert qualifying == 16


class TestShatteredTournament:
    def test_canonical_pair_shattered(self):
        assert is_shattered_tournament(T4) == (True, None)
        assert is_shattered_tournament(T4P) == (True, None)

    def test_transitive_four_not_shattered(self):
        t = Tournament.from_arcs(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        ok, witness = is_shattered_tournament(t)
        assert not ok
        assert witness == (0, 1, 2)

    def test_rejects_small(self):
        with pytest.raises(ParameterError):
            is_shattered_tournament(random_tournament(3, 1))

    def test_matches_two_path_reference(self):
        for v in (4, 5, 6, 7, 8):
            for s in trial_seeds(MASTER_SEED + 7 + v, 60):
                t = random_tournament(v, s)
                expected = next(
                    (
                        (False, triple)
                        for triple in combinations(range(v), 3)
                        if not any(
                            ref_one_two_path_per_pair(t, tuple(sorted(triple + (w,))))
                            for w in range(v)
                            if w not in triple
                        )
                    ),
                    (True, None),
                )
                assert is_shattered_tournament(t) == expected

    def test_reversal_invariance(self):
        for s in trial_seeds(MASTER_SEED + 5, 80):
            t = random_tournament(6, s)
            assert (
                is_shattered_tournament(t)[0]
                == is_shattered_tournament(t.reverse())[0]
            )

    def test_witness_revalidates(self):
        for s in trial_seeds(MASTER_SEED + 6, 40):
            t = random_tournament(6, s)
            ok, witness = is_shattered_tournament(t)
            if ok:
                continue
            from ectf.shattered import _is_doubly_regular_4

            assert not any(
                _is_doubly_regular_4(t, tuple(sorted(witness + (w,))))
                for w in range(6)
                if w not in witness
            )


class TestRandomness:
    def test_matrix_determinism(self):
        assert random_matrix(4, 4, 99) == random_matrix(4, 4, 99)
        assert random_matrix(4, 4, 99) != random_matrix(4, 4, 100)

    def test_trial_seeds_prefix_stable(self):
        assert trial_seeds(7, 10) == trial_seeds(7, 1000)[:10]


class TestShatteredFraction:
    def test_three_by_three_is_exactly_zero(self):
        # three columns cannot exhibit four pattern classes
        assert shattered_fraction(3, 3, 200, seed=1) == 0.0

    def test_four_by_four_strictly_between(self):
        frac = shattered_fraction(4, 4, 1000, seed=MASTER_SEED)
        assert 0.0 < frac < 1.0

    def test_deterministic_and_thread_independent(self):
        # single-threaded now: two runs on one seed agree
        a = shattered_fraction(4, 4, 400, seed=5)
        b = shattered_fraction(4, 4, 400, seed=5)
        assert a == b

    def test_matches_per_trial_matrices(self):
        trials = 50
        seeds = trial_seeds(11, trials)
        expected = sum(
            is_shattered_matrix(random_matrix(5, 5, s))[0] for s in seeds
        ) / trials
        assert shattered_fraction(5, 5, trials, seed=11) == expected


class TestFileFormats:
    def test_matrix_text_format(self):
        m = BitMatrix(((1, 0), (0, 1), (1, 1)))
        text = matrix_to_text(m)
        assert text == "3 2\n10\n01\n11\n"
        assert matrix_from_text(text) == m

    def test_matrix_file_roundtrip(self, tmp_path):
        m = random_matrix(6, 9, 42)
        path = tmp_path / "m.txt"
        write_matrix_file(path, m)
        assert read_matrix_file(path) == m

    def test_matrix_bad_header(self):
        with pytest.raises(ParameterError):
            matrix_from_text("x y\n01\n")
        with pytest.raises(ParameterError):
            matrix_from_text("2 2\n01\n")
        with pytest.raises(ParameterError):
            matrix_from_text("1 2\n0x\n")

    def test_tournament_text_format(self):
        text = tournament_to_text(T4)
        lines = text.splitlines()
        assert lines[0] == "4"
        assert len(lines) == 1 + 6
        assert tournament_from_text(text) == T4

    def test_tournament_file_roundtrip(self, tmp_path):
        t = random_tournament(7, 4)
        path = tmp_path / "t.txt"
        write_tournament_file(path, t)
        assert read_tournament_file(path) == t

    def test_tournament_incomplete_rejected(self):
        with pytest.raises(ParameterError):
            tournament_from_text("3\n0 1\n1 2\n")
