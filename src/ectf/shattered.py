"""Zero-one matrices and tournaments carrying the "shattered" predicate.

A matrix is shattered when every three rows (and every three columns)
exhibit, among the columns (rows), a representative of each of the four
complement-pairs of 3-bit patterns.  A tournament is shattered when every
vertex triple extends to one of the two 4-vertex tournaments in which each
unordered vertex pair lies on exactly one directed 2-path.

Randomness comes from a fixed, named 64-bit generator (PCG64) so that
seeded instances are bit-identical across runs; trial seeds are derived
from the master seed up front, which keeps Monte-Carlo results independent
of scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .graphs import ParameterError, bit_indices

RNG_ALGORITHM = "PCG64"

# the four complement-pairs of 3-bit patterns, indexed by min(p, 7-p)
PATTERN_PAIRS = tuple(
    (
        tuple((p >> k) & 1 for k in (2, 1, 0)),
        tuple(((7 - p) >> k) & 1 for k in (2, 1, 0)),
    )
    for p in range(4)
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class BitMatrix:
    """An m x n zero-one matrix, rows as tuples of 0/1 ints."""

    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.bits or not self.bits[0]:
            raise ParameterError("matrix must have at least one row and one column")
        width = len(self.bits[0])
        for r in self.bits:
            if len(r) != width:
                raise ParameterError("ragged matrix rows")
            for x in r:
                if x not in (0, 1):
                    raise ParameterError(f"matrix entry {x!r} is not 0/1")

    @property
    def nrows(self) -> int:
        return len(self.bits)

    @property
    def ncols(self) -> int:
        return len(self.bits[0])

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise ParameterError(f"entry ({i},{j}) out of range for {self.nrows}x{self.ncols}")
        return self.bits[i][j]

    def transpose(self) -> "BitMatrix":
        return BitMatrix(tuple(zip(*self.bits)))

    def complement(self) -> "BitMatrix":
        return BitMatrix(tuple(tuple(1 - x for x in r) for r in self.bits))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def filled(cls, m: int, n: int, value: int) -> "BitMatrix":
        return cls(tuple(tuple(value for _ in range(n)) for _ in range(m)))


@dataclass(frozen=True)
class Tournament:
    """Orientation of a complete graph; beats[i] is the bitset of j with i -> j."""

    beats: tuple[int, ...]

    def __post_init__(self):
        v = len(self.beats)
        if v < 1:
            raise ParameterError("tournament needs at least one vertex")
        for i in range(v):
            if self.beats[i] >> v:
                raise ParameterError(f"arc target out of range at vertex {i}")
            if (self.beats[i] >> i) & 1:
                raise ParameterError(f"self-loop at vertex {i}")
            for j in range(i + 1, v):
                fwd = (self.beats[i] >> j) & 1
                bwd = (self.beats[j] >> i) & 1
                if fwd + bwd != 1:
                    raise ParameterError(
                        f"pair ({i},{j}) must have exactly one orientation"
                    )

    @property
    def order(self) -> int:
        return len(self.beats)

    def dominates(self, i: int, j: int) -> bool:
        return bool((self.beats[i] >> j) & 1)

    def arcs(self) -> list[tuple[int, int]]:
        """All directed arcs, ordered by underlying pair (i < j)."""
        out = []
        for i in range(self.order):
            for j in range(i + 1, self.order):
                out.append((i, j) if self.dominates(i, j) else (j, i))
        return out

    def reverse(self) -> "Tournament":
        v = self.order
        rev = [0] * v
        for i in range(v):
            for j in bit_indices(self.beats[i]):
                rev[j] |= 1 << i
        return Tournament(tuple(rev))

    def induced(self, verts: tuple[int, ...]) -> "Tournament":
        """Subtournament on verts, relabeled 0..len(verts)-1 in given order."""
        idx = {v: k for k, v in enumerate(verts)}
        beats = [0] * len(verts)
        for v in verts:
            for w in bit_indices(self.beats[v]):
                if w in idx:
                    beats[idx[v]] |= 1 << idx[w]
        return Tournament(tuple(beats))

    @classmethod
    def from_arcs(cls, order: int, arcs: Iterable[tuple[int, int]]) -> "Tournament":
        beats = [0] * order
        for i, j in arcs:
            if not (0 <= i < order and 0 <= j < order):
                raise ParameterError(f"arc ({i},{j}) out of range for order {order}")
            beats[i] |= 1 << j
        return cls(tuple(beats))


def canonical_tournaments() -> tuple[Tournament, Tournament]:
    """The two 4-vertex tournaments with exactly one 2-path per vertex pair.

    The first has arcs {0->1, 0->2, 0->3, 1->2, 2->3, 3->1}; the second is
    its full reversal.
    """
    t4 = Tournament.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)])
    return t4, t4.reverse()


def _is_doubly_regular_4(t: Tournament, quad: tuple[int, int, int, int]) -> bool:
    # exactly one directed 2-path (in either direction) per unordered pair;
    # equivalent to being a copy of one of the two canonical tournaments
    for u, w in combinations(quad, 2):
        paths = 0
        for z in quad:
            if z == u or z == w:
                continue
            if t.dominates(u, z) and t.dominates(z, w):
                paths += 1
            if t.dominates(w, z) and t.dominates(z, u):
                paths += 1
        if paths != 1:
            return False
    return True


def is_shattered_tournament(
    t: Tournament,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether every vertex triple extends to a 4-set inducing one of the
    two canonical tournaments; on failure, the lexicographically first
    uncovered triple."""
    v = t.order
    if v < 4:
        raise ParameterError(f"tournament order {v} < 4")
    for triple in combinations(range(v), 3):
        if not any(
            _is_doubly_regular_4(t, tuple(sorted(triple + (w,))))
            for w in range(v)
            if w not in triple
        ):
            return False, triple
    return True, None


ShatterWitness = tuple[str, tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...]]]


_VECTOR_MIN_SIDE = 16

_triple_index_cache: dict[int, np.ndarray] = {}


def _triple_index(nrows: int) -> np.ndarray:
    idx = _triple_index_cache.get(nrows)
    if idx is None:
        idx = np.array(list(combinations(range(nrows), 3)), dtype=np.intp)
        _triple_index_cache[nrows] = idx
    return idx


def _all_triples_covered(mat: np.ndarray) -> bool:
    """Vectorized verdict: every 3-row submatrix hits all four pattern pairs."""
    sub = mat[_triple_index(mat.shape[0])]  # (triples, 3, width)
    pat = (sub[:, 0] << 2) | (sub[:, 1] << 1) | sub[:, 2]
    np.minimum(pat, 7 - pat, out=pat)
    for c in range(4):
        if not (pat == c).any(axis=1).all():
            return False
    return True


def _rows_covered_lists(mat: list[list[int]]) -> bool:
    """Early-exit verdict over row triples of a small list-of-lists matrix."""
    width = len(mat[0])
    for r1, r2, r3 in combinations(mat, 3):
        seen = 0
        for c in range(width):
            p = r1[c] << 2 | r2[c] << 1 | r3[c]
            seen |= 1 << min(p, 7 - p)
            if seen == 0b1111:
                break
        if seen != 0b1111:
            return False
    return True


def _shattered_verdict_array(arr: np.ndarray) -> bool:
    """Verdict only, on a uint8 array; picks the batched or early-exit path."""
    if min(arr.shape) >= _VECTOR_MIN_SIDE:
        return _all_triples_covered(arr) and _all_triples_covered(
            np.ascontiguousarray(arr.T)
        )
    rows = arr.tolist()
    cols = arr.T.tolist()
    return _rows_covered_lists(rows) and _rows_covered_lists(cols)


def is_shattered_matrix(m: BitMatrix) -> tuple[bool, Optional[ShatterWitness]]:
    """Whether every 3 rows and every 3 columns of m hit all four
    complement-pairs of 3-bit patterns.

    On failure returns ("rows"|"cols", triple, (pattern, complement)) for the
    lexicographically first violation, rows scanned before columns, the
    missing pair being the smallest-index one.
    """
    if m.nrows < 3 or m.ncols < 3:
        raise ParameterError(
            f"shattered check needs at least 3 rows and 3 columns, got {m.nrows}x{m.ncols}"
        )
    if min(m.nrows, m.ncols) >= _VECTOR_MIN_SIDE:
        # batched verdict first; fall through for the witness only on failure
        if _shattered_verdict_array(np.array(m.bits, dtype=np.uint8)):
            return True, None
    for axis, mat in (("rows", m.bits), ("cols", m.transpose().bits)):
        width = len(mat[0])
        for triple in combinations(range(len(mat)), 3):
            r1, r2, r3 = (mat[i] for i in triple)
            seen = 0
            for c in range(width):
                p = r1[c] << 2 | r2[c] << 1 | r3[c]
                seen |= 1 << min(p, 7 - p)
                if seen == 0b1111:
                    break
            if seen != 0b1111:
                missing = next(k for k in range(4) if not (seen >> k) & 1)
                return False, (axis, triple, PATTERN_PAIRS[missing])
    return True, None


def random_matrix(m: int, n: int, seed: int) -> BitMatrix:
    """Uniform i.i.d. zero-one matrix; same seed gives a bit-identical matrix."""
    if m < 1 or n < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got {m}x{n}")
    bits = _rng(seed).integers(0, 2, size=(m, n), dtype=np.uint8)
    return BitMatrix(tuple(tuple(int(x) for x in row) for row in bits))


def random_tournament(v: int, seed: int) -> Tournament:
    """Uniform i.i.d. edge orientations; same seed gives an identical tournament."""
    if v < 1:
        raise ParameterError(f"tournament order must be >= 1, got {v}")
    flips = _rng(seed).integers(0, 2, size=v * (v - 1) // 2, dtype=np.uint8)
    beats = [0] * v
    idx = 0
    for i in range(v):
        for j in range(i + 1, v):
            if flips[idx]:
                beats[i] |= 1 << j
            else:
                beats[j] |= 1 << i
            idx += 1
    return Tournament(tuple(beats))


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial 63-bit seeds derived from a master seed."""
    return [int(s) for s in _rng(seed).integers(0, 1 << 63, size=trials)]


def trial_is_shattered(m: int, n: int, seed: int) -> bool:
    """Whether random_matrix(m, n, seed) is shattered, from the same draws
    but without building the BitMatrix or a witness; a matrix with fewer
    than 3 rows or columns cannot exhibit all four pattern pairs and counts
    as not shattered."""
    if m < 3 or n < 3:
        return False
    return _shattered_verdict_array(_rng(seed).integers(0, 2, size=(m, n), dtype=np.uint8))


def shattered_fraction(m: int, n: int, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the probability that a uniform m x n matrix
    is shattered: the share of trial_seeds(seed, trials) that pass
    trial_is_shattered.  Deterministic given the seed."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if m < 1 or n < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got {m}x{n}")
    return sum(trial_is_shattered(m, n, s) for s in trial_seeds(seed, trials)) / trials


# -- file formats ----------------------------------------------------------


def matrix_to_text(m: BitMatrix) -> str:
    """First line "m n", then m lines of n characters '0'/'1'."""
    head = f"{m.nrows} {m.ncols}\n"
    return head + "".join("".join(str(x) for x in row) + "\n" for row in m.bits)


def matrix_from_text(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ParameterError("empty matrix file")
    try:
        m, n = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ParameterError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ParameterError(f"expected {m} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ParameterError(f"bad matrix row {ln!r}")
        rows.append(tuple(int(ch) for ch in ln))
    return BitMatrix(tuple(rows))


def tournament_to_text(t: Tournament) -> str:
    """First line "v", then one line "i j" per arc i -> j."""
    return f"{t.order}\n" + "".join(f"{i} {j}\n" for i, j in t.arcs())


def tournament_from_text(text: str) -> Tournament:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines:
        raise ParameterError("empty tournament file")
    try:
        v = int(lines[0])
    except ValueError as exc:
        raise ParameterError(f"bad tournament header {lines[0]!r}") from exc
    arcs = []
    for ln in lines[1:]:
        try:
            i, j = (int(tok) for tok in ln.split())
        except ValueError as exc:
            raise ParameterError(f"bad arc line {ln!r}") from exc
        arcs.append((i, j))
    return Tournament.from_arcs(v, arcs)


def write_matrix_file(path: str | os.PathLike, m: BitMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(matrix_to_text(m))


def read_matrix_file(path: str | os.PathLike) -> BitMatrix:
    with open(path, encoding="ascii") as fh:
        return matrix_from_text(fh.read())


def write_tournament_file(path: str | os.PathLike, t: Tournament) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(tournament_to_text(t))


def read_tournament_file(path: str | os.PathLike) -> Tournament:
    with open(path, encoding="ascii") as fh:
        return tournament_from_text(fh.read())
