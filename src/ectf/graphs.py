"""Bitset-backed undirected graphs and Hamming-metric Cayley construction.

Vertices are integers 0..n-1.  Each adjacency row is a Python int used as a
bitset (bit v of row u set iff u ~ v), which keeps neighborhood intersection
and popcount operations cheap even at the 2^15-vertex representation limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Largest explicit graph we materialize: a 2^15 x 2^15 bit matrix (128 MiB).
MAX_VERTICES = 1 << 15


class ParameterError(ValueError):
    """A construction or operation parameter is out of its admissible range."""


class CapacityError(ValueError):
    """The requested object exceeds the explicit-representation limit."""


def bit_indices(x: int) -> list[int]:
    """Indices of set bits of x, in increasing order."""
    out = []
    while x:
        lsb = x & -x
        out.append(lsb.bit_length() - 1)
        x ^= lsb
    return out


def iter_bits(x: int) -> Iterator[int]:
    """Yield indices of set bits of x, in increasing order."""
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


class Graph:
    """Immutable undirected graph with bitset adjacency rows.

    Rows are symmetric and irreflexive; optional vertex labels are
    family-specific tuples, pairwise distinct, one per vertex.
    All read operations are safe under concurrent use.
    """

    __slots__ = ("order", "_rows", "labels", "_packed", "_degrees")

    def __init__(
        self,
        rows: Sequence[int],
        labels: Optional[Sequence[tuple]] = None,
        validate: bool = True,
    ):
        self.order = len(rows)
        if self.order > MAX_VERTICES:
            raise CapacityError(
                f"graph on {len(rows)} vertices exceeds the representation "
                f"limit of {MAX_VERTICES} (= 2^15) vertices"
            )
        self._rows = tuple(rows)
        self.labels = tuple(labels) if labels is not None else None
        self._packed = None
        self._degrees = None
        if validate:
            self._check_invariants()

    @classmethod
    def from_edges(
        cls,
        order: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[tuple]] = None,
    ) -> "Graph":
        if order < 0:
            raise ParameterError(f"vertex count must be >= 0, got {order}")
        if order > MAX_VERTICES:
            raise CapacityError(
                f"graph on {order} vertices exceeds the representation "
                f"limit of {MAX_VERTICES} (= 2^15) vertices"
            )
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ParameterError(f"edge ({u},{v}) out of range for order {order}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        # rows are symmetric and irreflexive by construction
        g = cls(rows, labels=labels, validate=False)
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

    def _check_invariants(self) -> None:
        n = self.order
        for u in range(n):
            row = self._rows[u]
            if row >> n:
                raise ParameterError(f"adjacency row {u} has bits beyond vertex {n - 1}")
            if (row >> u) & 1:
                raise ParameterError(f"self-loop at vertex {u}")
            x = row
            while x:
                lsb = x & -x
                v = lsb.bit_length() - 1
                if not (self._rows[v] >> u) & 1:
                    raise ParameterError(f"adjacency not symmetric at ({u},{v})")
                x ^= lsb
        self._check_labels()

    # -- basic accessors -------------------------------------------------

    def row(self, v: int) -> int:
        """Neighborhood of v as a bitset."""
        if not (0 <= v < self.order):
            raise ParameterError(f"vertex {v} out of range for order {self.order}")
        return self._rows[v]

    @property
    def rows(self) -> tuple[int, ...]:
        return self._rows

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= v < self.order):
            raise ParameterError(f"vertex {v} out of range for order {self.order}")
        return bool((self.row(u) >> v) & 1)

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def degrees(self) -> list[int]:
        if self._degrees is None:
            self._degrees = [r.bit_count() for r in self._rows]
        return list(self._degrees)

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.order):
            x = self._rows[u] >> (u + 1)
            while x:
                lsb = x & -x
                yield (u, u + 1 + lsb.bit_length() - 1)
                x ^= lsb

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed to perm[v] (labels follow)."""
        n = self.order
        if sorted(perm) != list(range(n)):
            raise ParameterError("relabeling is not a permutation")
        rows = [0] * n
        for u in range(n):
            r = 0
            for v in iter_bits(self._rows[u]):
                r |= 1 << perm[v]
            rows[perm[u]] = r
        labels = None
        if self.labels is not None:
            labels = [None] * n
            for u in range(n):
                labels[perm[u]] = self.labels[u]
        return Graph(rows, labels=labels, validate=False)

    def same_adjacency(self, other: "Graph") -> bool:
        return self.order == other.order and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"

    # -- packed numpy view ------------------------------------------------

    def packed(self) -> np.ndarray:
        """Adjacency as an (n, ceil(n/64)) uint64 array, little-endian words.

        Bit v of row u lives in word v >> 6 at position v & 63.  Cached.
        """
        if self._packed is None:
            n = self.order
            words = max(1, (n + 63) // 64)
            buf = b"".join(r.to_bytes(words * 8, "little") for r in self._rows)
            arr = np.frombuffer(buf, dtype="<u8").reshape(n if n else 0, words)
            self._packed = arr
        return self._packed

    @classmethod
    def _from_packed(
        cls, packed: np.ndarray, labels: Optional[Sequence[tuple]] = None
    ) -> "Graph":
        """Graph over a symmetric, irreflexive packed adjacency in the
        layout of `packed()`, which is kept as the cache of that view."""
        g = cls(packed_rows(packed), labels=labels, validate=False)
        packed.flags.writeable = False
        g._packed = packed
        return g


def packed_rows(packed: np.ndarray) -> list[int]:
    """Bitset rows of an (n, words) uint64 adjacency with little-endian
    words, the layout of `Graph.packed()`."""
    buf = memoryview(np.ascontiguousarray(packed, dtype="<u8").reshape(-1).view(np.uint8))
    size = 8 * packed.shape[1]
    return [
        int.from_bytes(buf[i : i + size], "little") for i in range(0, len(buf), size)
    ]


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
    n = 1 << dim
    member = np.zeros(dim + 1, dtype=bool)
    member[[d for d in set(dists) if 1 <= d <= dim]] = True
    ids = np.arange(n, dtype=np.uint32)
    words = max(1, (n + 63) // 64)
    out = np.zeros((n, words * 8), dtype=np.uint8)
    chunk = max(1, min(n, (1 << 22) // n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        adj = member[np.bitwise_count(ids[lo:hi, None] ^ ids[None, :])]
        out[lo:hi, : (n + 7) // 8] = np.packbits(adj, axis=1, bitorder="little")
    return out.view("<u8")


def build_cayley(spec: DistanceSetSpec) -> Graph:
    """Materialize the Cayley graph of a DistanceSetSpec.

    Vertex i is the bit-vector i (LSB = coordinate 1); labels are the
    bit-vectors as 0/1 tuples in coordinate order.
    """
    n = 1 << spec.dim
    if n > MAX_VERTICES:
        raise CapacityError(
            f"2^{spec.dim} = {n} vertices exceeds the representation "
            f"limit of {MAX_VERTICES} (= 2^15) vertices"
        )
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
