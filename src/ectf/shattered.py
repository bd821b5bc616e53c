"""Zero-one matrices and tournaments carrying the "shattered" predicate.

A matrix is shattered when every three rows (and every three columns)
exhibit, among the columns (rows), a representative of each of the four
complement-pairs of 3-bit patterns.  A tournament is shattered when every
vertex triple extends to one of the two 4-vertex tournaments in which each
unordered vertex pair lies on exactly one directed 2-path.

Every matrix check runs one kernel on rows packed into uint64 words: for
rows a < b < c, x = r_a ^ r_b and y = r_a ^ r_c, and a column with pattern
p shows the pair min(p, 7 - p) = 2x + y, so pairs 0..3 are present when
~x & ~y, ~x & y, x & ~y and x & y are nonzero.  Triples are scanned in
lexicographic order, a bounded block at a time, rows before columns.

Randomness comes from a fixed, named 64-bit generator (PCG64) so that
seeded instances are bit-identical across runs; trial seeds are derived
from the master seed up front, which keeps Monte-Carlo results independent
of scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache
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
    # one directed 2-path per unordered pair: a copy of a canonical
    # tournament, scores (3,1,1,1) or (2,2,2,0), the only 4-tournament score
    # sequences whose squares sum to 12 ((3,2,1,0) gives 14, (2,2,1,1) 10)
    inside = (1 << quad[0]) | (1 << quad[1]) | (1 << quad[2]) | (1 << quad[3])
    return sum((t.beats[v] & inside).bit_count() ** 2 for v in quad) == 12


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
            _is_doubly_regular_4(t, triple + (w,))
            for w in range(v)
            if w not in triple
        ):
            return False, triple
    return True, None


ShatterWitness = tuple[str, tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...]]]


# triple-scan words of x (and as many of y) per block
_BLOCK_WORDS = 1 << 16


@cache
def _triple_index(nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """For the triples a < b < c of nrows rows in lexicographic order, the
    flat pair indices a * nrows + b and a * nrows + c."""
    a, b, c = np.array(list(combinations(range(nrows), 3)), dtype=np.intp).reshape(-1, 3).T
    return a * nrows + b, a * nrows + c


def _first_uncovered(arr: np.ndarray) -> Optional[tuple[str, tuple[int, int, int], int]]:
    """("rows"|"cols", triple, smallest missing pair index) for the first
    triple of rows, then of columns, of the 0/1 array arr in lexicographic
    order that misses a pattern pair; None when arr is shattered."""
    for axis, mat in (("rows", arr), ("cols", arr.T)):
        nrows, ncols = mat.shape
        words = -(-ncols // 64)
        # padding columns repeat the last one, so they show no new pattern
        mat = mat[:, np.minimum(np.arange(64 * words), ncols - 1)]
        packed = np.packbits(mat, axis=1, bitorder="little")
        cols = np.ascontiguousarray(packed).view("<u8").T
        # word w of r_a ^ r_b at diff[w, a * nrows + b]
        diff = (cols[:, :, None] ^ cols[:, None, :]).reshape(words, -1)
        ab, ac = _triple_index(nrows)
        step = max(1, _BLOCK_WORDS // words)
        for lo in range(0, len(ab), step):
            i, j = ab[lo : lo + step], ac[lo : lo + step]
            present = np.zeros((4, len(i)), dtype=bool)
            for w in range(words):
                x, y = diff[w].take(i), diff[w].take(j)
                u = x | y
                present[0] |= u != 2**64 - 1  # ~x & ~y
                present[1] |= u != x  # ~x & y
                present[2] |= u != y  # x & ~y
                present[3] |= (x & y) != 0
            covered = present.all(axis=0)
            if not covered.all():
                t = int(covered.argmin())
                a, b = divmod(int(i[t]), nrows)
                return axis, (a, b, int(j[t]) % nrows), int(present[:, t].argmin())
    return None


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
    hit = _first_uncovered(np.array(m.bits, dtype=np.uint8))
    if hit is None:
        return True, None
    axis, triple, missing = hit
    return False, (axis, triple, PATTERN_PAIRS[missing])


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
    but without building the BitMatrix; a matrix with fewer than 3 rows or
    columns cannot exhibit all four pattern pairs and counts as not
    shattered."""
    if m < 3 or n < 3:
        return False
    return _first_uncovered(_rng(seed).integers(0, 2, size=(m, n), dtype=np.uint8)) is None


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
