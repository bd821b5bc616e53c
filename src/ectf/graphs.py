"""Packed-word undirected graphs and Hamming-metric Cayley construction.

Vertices are integers 0..n-1.  A graph stores its adjacency once, as a
read-only (n, ceil(n/64)) uint64 array: bit v of row u (word v >> 6,
position v & 63) is set iff u ~ v.  Every constructor writes these words
directly, in row blocks.  The same rows as Python-int bitsets, which the
set-by-set checks intersect and count, are derived on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

# Largest explicit graph we materialize: a 2^15 x 2^15 bit matrix (128 MiB).
MAX_VERTICES = 1 << 15
# matrix entries unpacked at once by the row-block operations
_BLOCK = 1 << 22


class ParameterError(ValueError):
    """A construction or operation parameter is out of its admissible range."""


class CapacityError(ValueError):
    """The requested object exceeds the explicit-representation limit."""


def check_capacity(order: int, count: str) -> None:
    """CapacityError, before any work, if a graph on `order` vertices
    (spelled out as `count` in the message) exceeds MAX_VERTICES."""
    if order > MAX_VERTICES:
        raise CapacityError(
            f"{count} vertices exceeds the representation "
            f"limit of {MAX_VERTICES} (= 2^15) vertices"
        )


def bit_indices(x: int) -> list[int]:
    """Indices of set bits of x, in increasing order."""
    return list(iter_bits(x))


def iter_bits(x: int) -> Iterator[int]:
    """Yield indices of set bits of x, in increasing order."""
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


class Graph:
    """Immutable undirected graph over packed adjacency words.

    `packed()` is the one adjacency a graph stores: symmetric and
    irreflexive, read-only.  `rows`, the same adjacency as Python-int
    bitsets, is derived from it on first use and cached.  Optional vertex
    labels are family-specific tuples, pairwise distinct, one per vertex.
    All read operations are safe under concurrent use.
    """

    __slots__ = ("order", "labels", "_packed", "_rows")

    def __init__(self, rows: Sequence[int], labels: Optional[Sequence[tuple]] = None):
        n = len(rows)
        check_capacity(n, f"graph on {n}")
        full, size = (1 << n) - 1, 8 * max(1, (n + 63) // 64)
        # bits from n up (all of them in a negative row) are cut off here and
        # reported by the check, with the first row that had any
        buf = b"".join((r & full).to_bytes(size, "little") for r in rows)
        self._keep(np.frombuffer(buf, dtype="<u8").reshape(n, size // 8), labels)
        self._check_invariants(next((u for u, r in enumerate(rows) if r >> n), n))

    @classmethod
    def _from_packed(
        cls, packed: np.ndarray, labels: Optional[Sequence[tuple]] = None
    ) -> "Graph":
        """Graph over a symmetric, irreflexive packed adjacency in the
        layout of `packed()`, kept as it is (made read-only)."""
        g = cls.__new__(cls)
        g._keep(packed, labels)
        return g

    def _keep(self, packed: np.ndarray, labels: Optional[Sequence[tuple]]) -> None:
        packed.flags.writeable = False
        self.order, self._packed, self._rows = packed.shape[0], packed, None
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def from_edges(
        cls,
        order: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[tuple]] = None,
    ) -> "Graph":
        if order < 0:
            raise ParameterError(f"vertex count must be >= 0, got {order}")
        check_capacity(order, f"graph on {order}")
        pairs = list(edges)
        e = np.array(pairs).reshape(len(pairs), 2) if pairs else np.zeros((0, 2), dtype=np.int64)
        if e.dtype.kind not in "biu":  # not all integers, or some beyond int64
            e = np.array(pairs, dtype=object).reshape(len(pairs), 2)
            if not all(isinstance(x, (int, np.integer)) for x in e.flat):
                raise TypeError("edge endpoints must be integers")
        bad = np.flatnonzero(((e < 0) | (e >= order)).any(axis=1) | (e[:, 0] == e[:, 1]))
        if len(bad):
            u, v = pairs[bad[0]]
            if 0 <= u < order and 0 <= v < order:
                raise ParameterError(f"self-loop at vertex {u}")
            raise ParameterError(f"edge ({u},{v}) out of range for order {order}")
        e = e.astype(np.int64)
        # bit v of row u is bit u * width + v of the flattened words
        width = 64 * max(1, (order + 63) // 64)
        bit = np.concatenate([e[:, 0] * width + e[:, 1], e[:, 1] * width + e[:, 0]])
        words = np.zeros(order * width // 64, dtype=np.uint64)
        np.bitwise_or.at(words, bit >> 6, np.uint64(1) << (bit & 63).astype(np.uint64))
        g = cls._from_packed(words.reshape(order, width // 64), labels)
        g._check_labels()
        return g

    def _check_labels(self) -> None:
        if self.labels is None:
            return
        if len(self.labels) != self.order:
            raise ParameterError(
                f"{len(self.labels)} labels for {self.order} vertices"
            )
        if len(set(self.labels)) != self.order:
            raise ParameterError("vertex labels are not pairwise distinct")

    def _check_invariants(self, beyond: Optional[int] = None) -> None:
        """ParameterError naming the first row u with bits beyond vertex
        n - 1, else a self-loop, else a neighbour v whose row lacks u (the
        first such v); then the labels are checked.  `beyond` is the first
        row that had bits beyond n - 1 before it was packed (None: read them
        from the padding of the last word)."""
        n, packed = self.order, self._packed
        first = lambda mask: int(np.argmax(mask)) if mask.any() else n
        if beyond is None:
            beyond = first(packed[:, -1] >> np.uint64(n % 64)) if n % 64 else n
        v = np.arange(n)
        loop = first(packed[v, v >> 6] >> (v & 63).astype(np.uint64) & np.uint64(1))
        end = min(beyond, loop)
        # rows before `end`, a block at a time, against the same columns read
        # as rows: bit lo + i of row v is bit i % 8 of byte (lo + i) // 8
        shifts = np.arange(8, dtype=np.uint8)[:, None]
        step = 64 * max(1, _BLOCK // max(n, 1) // 64)
        for lo in range(0, end, step):
            hi = min(end, lo + step)
            cols = np.ascontiguousarray(packed.view(np.uint8)[:, lo // 8 : (hi + 7) // 8].T)
            mirror = (cols[:, None, :] >> shifts & 1).reshape(-1, n)[: hi - lo]
            bad = unpack_rows(packed[lo:hi], n) > mirror
            if bad.any():
                u, v = divmod(int(np.argmax(bad)), n)
                raise ParameterError(f"adjacency not symmetric at ({lo + u},{v})")
        if beyond == end < n:
            raise ParameterError(f"adjacency row {beyond} has bits beyond vertex {n - 1}")
        if end < n:
            raise ParameterError(f"self-loop at vertex {end}")
        self._check_labels()

    # -- basic accessors -------------------------------------------------

    def row(self, v: int) -> int:
        """Neighborhood of v as a bitset."""
        if not (0 <= v < self.order):
            raise ParameterError(f"vertex {v} out of range for order {self.order}")
        return self.rows[v]

    @property
    def rows(self) -> tuple[int, ...]:
        """The adjacency as Python-int bitsets (bit v of rows[u] set iff
        u ~ v), derived from the packed words on first use."""
        if self._rows is None:
            self._rows = tuple(packed_rows(self._packed))
        return self._rows

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= v < self.order):
            raise ParameterError(f"vertex {v} out of range for order {self.order}")
        return bool((self.row(u) >> v) & 1)

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def degrees(self) -> list[int]:
        return np.bitwise_count(self._packed).sum(axis=1).tolist()

    @property
    def edge_count(self) -> int:
        return int(np.bitwise_count(self._packed).sum()) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u, row in enumerate(self.rows):
            for v in iter_bits(row >> (u + 1)):
                yield (u, u + 1 + v)

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed to perm[v] (labels follow)."""
        n = self.order
        if sorted(perm) != list(range(n)):
            raise ParameterError("relabeling is not a permutation")
        # row perm[u] of the image is row u with column v moved to perm[v]
        inv = np.argsort(np.asarray(perm, dtype=np.intp))
        labels = None if self.labels is None else [self.labels[u] for u in inv]
        moved = lambda lo, hi: unpack_rows(self._packed[inv[lo:hi]], n).take(inv, axis=1)
        return Graph._from_packed(pack_blocks(n, moved), labels)

    def same_adjacency(self, other: "Graph") -> bool:
        return self.order == other.order and np.array_equal(self._packed, other._packed)

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"

    def packed(self) -> np.ndarray:
        """Adjacency as a read-only (n, ceil(n/64)) uint64 array,
        little-endian words: bit v of row u lives in word v >> 6 at
        position v & 63."""
        return self._packed


def packed_rows(packed: np.ndarray) -> list[int]:
    """Bitset rows of an (n, words) uint64 adjacency with little-endian
    words, the layout of `Graph.packed()`."""
    buf = memoryview(np.ascontiguousarray(packed, dtype="<u8").reshape(-1).view(np.uint8))
    size = 8 * packed.shape[1]
    return [
        int.from_bytes(buf[i : i + size], "little") for i in range(0, len(buf), size)
    ]


def unpack_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """0/1 (uint8) matrix of the first n bits of each row of packed words."""
    words = np.ascontiguousarray(packed).view(np.uint8)
    return np.unpackbits(words, axis=1, count=n, bitorder="little")


def pack_blocks(n: int, adjacency: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Packed adjacency (layout of `Graph.packed()`) whose rows lo..hi-1 are
    the 0/1 or boolean (hi - lo, n) matrix adjacency(lo, hi), asked for in
    row blocks of at most about _BLOCK entries."""
    out = np.zeros((n, 8 * max(1, (n + 63) // 64)), dtype=np.uint8)
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        out[lo:hi, : (n + 7) // 8] = np.packbits(adjacency(lo, hi), axis=1, bitorder="little")
    return out.view("<u8")


@dataclass(frozen=True)
class DistanceSetSpec:
    """Implicit Cayley graph on Z_2^dim: x ~ y iff hamming(x, y) in dists."""

    dim: int
    dists: frozenset[int]

    def __init__(self, dim: int, dists: Iterable[int]):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "dists", frozenset(dists))
        if dim < 1:
            raise ParameterError(f"dimension must be >= 1, got {dim}")
        if not self.dists:
            raise ParameterError("distance set must be nonempty")
        for d in self.dists:
            if not (1 <= d <= dim):
                raise ParameterError(
                    f"distance {d} outside [1, {dim}] for dimension {dim}"
                )


def hamming_packed(dim: int, dists: Iterable[int]) -> np.ndarray:
    """Packed adjacency (layout of `Graph.packed()`) of the Cayley graph on
    Z_2^dim with x ~ y iff hamming(x, y) in dists; distances outside
    1..dim are ignored, so an empty or out-of-range set gives no edges."""
    member = np.zeros(dim + 1, dtype=bool)
    member[[d for d in set(dists) if 1 <= d <= dim]] = True
    ids = np.arange(1 << dim, dtype=np.uint32)
    return pack_blocks(1 << dim, lambda lo, hi: member[np.bitwise_count(ids[lo:hi, None] ^ ids)])


def build_cayley(spec: DistanceSetSpec) -> Graph:
    """Materialize the Cayley graph of a DistanceSetSpec.

    Vertex i is the bit-vector i (LSB = coordinate 1); labels are the
    bit-vectors as 0/1 tuples in coordinate order.
    """
    n = 1 << spec.dim
    check_capacity(n, f"2^{spec.dim} = {n}")
    labels = [tuple((v >> i) & 1 for i in range(spec.dim)) for v in range(n)]
    return Graph._from_packed(hamming_packed(spec.dim, spec.dists), labels)


def common_neighbors(g: Graph, s: Iterable[int]) -> int:
    """Bitset of vertices adjacent to every vertex of s (all vertices if s is empty)."""
    members = list(s)
    acc = g.full_mask
    for v in members:
        acc &= g.row(v)
    return acc


def degree_stats(g: Graph) -> tuple[int, int, Counter]:
    """(min degree, max degree, degree multiset) of g."""
    degs = g.degrees()
    if not degs:
        return (0, 0, Counter())
    return (min(degs), max(degs), Counter(degs))
