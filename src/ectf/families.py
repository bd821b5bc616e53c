"""Deterministic constructors for every triangle-free graph family.

Each constructor returns a labeled Graph; vertices are enumerated
lexicographically by their label tuples (part index, then copy index,
then the Z_4 or hypercube coordinate as an integer), so graph6 output and
witnesses are stable across runs.  Shatteredness of matrix or tournament
inputs is deliberately not checked here; certification lives in `verify`.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .graphs import (
    MAX_VERTICES,
    CapacityError,
    DistanceSetSpec,
    Graph,
    ParameterError,
    build_cayley,
    hamming_packed,
)
from .shattered import BitMatrix, Tournament, canonical_tournaments

# packed adjacency bytes assembled at once by the layered constructions
_BLOCK_BYTES = 1 << 22


def albert_cycles(n: int) -> Graph:
    """Disjoint 4-cycles (i, 0..3), i = 1..n, each vertex also joined to the
    antipode of every other cycle; (n+1)-regular on 4n vertices."""
    if n < 4:
        raise ParameterError(f"albert_cycles needs n >= 4, got {n}")
    labels = [(i, x) for i in range(1, n + 1) for x in range(4)]
    idx = lambda i, x: (i - 1) * 4 + x % 4
    edges = []
    for i in range(1, n + 1):
        for x in range(4):
            edges.append((idx(i, x), idx(i, x + 1)))
            for ip in range(i + 1, n + 1):
                edges.append((idx(i, x), idx(ip, x + 2)))
    return Graph.from_edges(4 * n, set(map(lambda e: tuple(sorted(e)), edges)), labels)


def albert_matrix(m: BitMatrix) -> Graph:
    """Two matchings a_i~b_i and c_j~d_j wired through the matrix entries:
    entry 1 joins a_i~c_j and b_i~d_j, entry 0 joins a_i~d_j and b_i~c_j."""
    nr, nc = m.nrows, m.ncols
    if nr < 4 or nc < 4:
        raise ParameterError(
            f"albert_matrix needs at least a 4x4 matrix, got {nr}x{nc}"
        )
    labels = (
        [("a", i) for i in range(1, nr + 1)]
        + [("b", i) for i in range(1, nr + 1)]
        + [("c", j) for j in range(1, nc + 1)]
        + [("d", j) for j in range(1, nc + 1)]
    )
    a = lambda i: i
    b = lambda i: nr + i
    c = lambda j: 2 * nr + j
    d = lambda j: 2 * nr + nc + j
    edges = []
    for i in range(nr):
        edges.append((a(i), b(i)))
    for j in range(nc):
        edges.append((c(j), d(j)))
    for i in range(nr):
        for j in range(nc):
            if m.bits[i][j]:
                edges.append((a(i), c(j)))
                edges.append((b(i), d(j)))
            else:
                edges.append((a(i), d(j)))
                edges.append((b(i), c(j)))
    return Graph.from_edges(2 * nr + 2 * nc, edges, labels)


def erdos_hypercube(k: int) -> Graph:
    """Cayley graph on Z_2^(3k+1) with Hamming distances 2k+1 .. 3k+1."""
    if k < 1:
        raise ParameterError(f"erdos_hypercube needs k >= 1, got {k}")
    dim = 3 * k + 1
    return build_cayley(DistanceSetSpec(dim, range(2 * k + 1, dim + 1)))


def hypercube_ckj(k: int, j: int) -> Graph:
    """Cayley graph on Z_2^(3k+j) with the odd distances 2k+1, 2k+3, ...,
    2k+2j-1 together with 2(k+j) .. 3k+j."""
    if k < 1:
        raise ParameterError(f"hypercube_ckj needs k >= 1, got {k}")
    if not (1 <= j <= k):
        raise ParameterError(f"hypercube_ckj needs 1 <= j <= k, got j={j}, k={k}")
    dim = 3 * k + j
    dists = set(range(2 * k + 1, 2 * k + 2 * j, 2)) | set(range(2 * (k + j), dim + 1))
    return build_cayley(DistanceSetSpec(dim, dists))


def hypercube_layers(k: int, m: int) -> Graph:
    """m layered copies of Z_2^(3k-1): inside a layer the distances are
    {2k-1} and 2k+1 .. 3k-1, across layers 2k .. 3k-1."""
    if k < 1:
        raise ParameterError(f"hypercube_layers needs k >= 1, got {k}")
    if m < 4:
        raise ParameterError(f"hypercube_layers needs m >= 4, got {m}")
    dim = 3 * k - 1
    block = 1 << dim
    order = m * block
    if order > MAX_VERTICES:
        raise CapacityError(
            f"{m} * 2^{dim} = {order} vertices exceeds the representation "
            f"limit of {MAX_VERTICES} (= 2^15) vertices"
        )
    labels = [(i, x) for i in range(1, m + 1) for x in range(block)]
    packed = _copies_packed(np.ones((1, 1), dtype=np.intp), m, np.stack(_layer_blocks(k)))
    return Graph._from_packed(packed, labels)


def _layer_blocks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 adjacency of Z_2^(3k-1) inside a layer (distances {2k-1} and
    2k+1 .. 3k-1) and across layers (2k .. 3k-1)."""
    dim = 3 * k - 1
    within = {2 * k - 1} | set(range(2 * k + 1, dim + 1))
    cross = set(range(2 * k, dim + 1))
    return tuple(
        np.unpackbits(
            hamming_packed(dim, dists).view(np.uint8), axis=1, count=1 << dim, bitorder="little"
        )
        for dists in (within, cross)
    )


def _copies_packed(parts: np.ndarray, copies: int, blocks: np.ndarray) -> np.ndarray:
    """Packed adjacency (layout of `Graph.packed()`) of a graph made of
    parts, each of `copies` copies of one vertex set: a copy's rows against
    its own columns are the 0/1 block blocks[0], and against a copy in parts
    i, i' (the same part or not) blocks[parts[i, i']].  The copy size is a
    power of two of at least 4, so the runs below end on the last byte."""
    total, size = parts.shape[0] * copies, blocks.shape[1]
    n = total * size
    # `group` consecutive copies fill whole bytes: the blocks are packed once,
    # `group` side by side per table entry, the all-zero kind `zero` padding
    group, zero = max(1, 8 // size), blocks.shape[0]
    blocks = np.concatenate([blocks, np.zeros_like(blocks[:1])])
    runs = np.array(list(product(range(zero + 1), repeat=group)))
    run_bytes = size * group // 8
    table = blocks[runs].transpose(0, 2, 1, 3).reshape(len(runs), -1)
    table = np.packbits(table, axis=1, bitorder="little").view(f"V{size * run_bytes}")[:, 0]
    weight = (zero + 1) ** np.arange(group - 1, -1, -1)
    # table entries of a row copy by its part, as if it met no copy of itself
    kinds = np.full((len(parts), -(-total // group) * group), zero)
    kinds[:, :total] = np.repeat(parts, copies, axis=1)
    by_part = kinds.reshape(len(parts), -1, group) @ weight
    width = by_part.shape[1] * run_bytes
    out = np.zeros((n, 8 * max(1, (n + 63) // 64)), dtype=np.uint8)
    step = max(1, _BLOCK_BYTES // (size * width))
    for lo in range(0, total, step):
        copy = np.arange(lo, min(total, lo + step))
        entry = by_part[copy // copies]
        # a copy meets itself through blocks[0], not its part's own kind
        own = parts[copy // copies, copy // copies]
        entry[np.arange(len(copy)), copy // group] -= own * weight[copy % group]
        rows = table[entry].view(np.uint8).reshape(len(copy), -1, size, run_bytes)
        rows = rows.transpose(0, 2, 1, 3).reshape(len(copy) * size, width)
        out[lo * size : lo * size + len(rows), :width] = rows
    return out.view("<u8")


def circular(n: int) -> Graph:
    """Arcs of n consecutive elements of Z_(3n-1), adjacent when disjoint."""
    if n < 1:
        raise ParameterError(f"circular needs n >= 1, got {n}")
    size = 3 * n - 1
    edges = []
    for t, s in combinations(range(size), 2):
        if (s - t) % size >= n and (t - s) % size >= n:
            edges.append((t, s))
    return Graph.from_edges(size, edges, [(t,) for t in range(size)])


def twist(x: int, dim: int) -> int:
    """Swap the two lowest coordinates of x and flip the new second one:
    (x1, x2, rest) -> (x2, x1 + 1, rest).  Order 4."""
    if dim < 2:
        raise ParameterError(f"twist needs dimension >= 2, got {dim}")
    if not (0 <= x < 1 << dim):
        raise ParameterError(f"vector {x} out of range for dimension {dim}")
    return (x & ~3) | ((x >> 1) & 1) | (((x & 1) ^ 1) << 1)


def twist_inv(y: int, dim: int) -> int:
    """Inverse of twist: (y1, y2, rest) -> (y2 + 1, y1, rest)."""
    if dim < 2:
        raise ParameterError(f"twist needs dimension >= 2, got {dim}")
    if not (0 <= y < 1 << dim):
        raise ParameterError(f"vector {y} out of range for dimension {dim}")
    return (y & ~3) | (((y >> 1) & 1) ^ 1) | ((y & 1) << 1)


def _twisted_z4(sizes: list[int], arcs: set[tuple[int, int]]) -> Graph:
    """Shared builder for the Z_4-based twisted graphs.

    Vertices (i, j, x) with i a part, 1 <= j <= sizes[i], x in Z_4; edges
    x ~ x+1 inside a 4-cycle, x ~ x+2 across copies of the same part, and
    x ~ x+3 from part i to part i' whenever (i, i') is an arc.
    """
    nparts = len(sizes)
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += 4 * s
    idx = lambda i, j, x: offsets[i] + (j - 1) * 4 + x % 4
    labels = [
        (i, j, x) for i in range(nparts) for j in range(1, sizes[i] + 1) for x in range(4)
    ]
    edges = []
    for i in range(nparts):
        for j in range(1, sizes[i] + 1):
            for x in range(4):
                edges.append((idx(i, j, x), idx(i, j, x + 1)))
                for jp in range(j + 1, sizes[i] + 1):
                    edges.append((idx(i, j, x), idx(i, jp, x + 2)))
    for i, ip in arcs:
        for j in range(1, sizes[i] + 1):
            for jp in range(1, sizes[ip] + 1):
                for x in range(4):
                    edges.append((idx(i, j, x), idx(ip, jp, x + 3)))
    return Graph.from_edges(total, set(map(lambda e: tuple(sorted(e)), edges)), labels)


def twisted_four(m0: int, m1: int, m2: int, m3: int) -> Graph:
    """Four-part twisted graph on 4*(m0+m1+m2+m3) vertices, parts wired by
    the arcs {(0,1), (0,2), (0,3), (1,2), (2,3), (3,1)}."""
    sizes = [m0, m1, m2, m3]
    for mi in sizes:
        if mi < 2:
            raise ParameterError(
                f"twisted_four needs every part size >= 2, got {tuple(sizes)}"
            )
    t4, _ = canonical_tournaments()
    return _twisted_z4(sizes, set(t4.arcs()))


def twisted_tournament(t: Tournament, m: int) -> Graph:
    """Twisted graph over an arbitrary tournament, every part of size m."""
    if m < 2:
        raise ParameterError(f"twisted_tournament needs m >= 2, got {m}")
    if t.order < 4:
        raise ParameterError(f"twisted_tournament needs |T| >= 4, got {t.order}")
    return _twisted_z4([m] * t.order, set(t.arcs()))


def twisted_tournament_hypercube(t: Tournament, m: int, k: int) -> Graph:
    """Tournament-twisted layered hypercube graph on |T| * m * 2^(3k-1)
    vertices; cross-part adjacency applies the twist isometry first."""
    if m < 2:
        raise ParameterError(f"twisted_tournament_hypercube needs m >= 2, got {m}")
    if k < 1:
        raise ParameterError(f"twisted_tournament_hypercube needs k >= 1, got {k}")
    if t.order < 4:
        raise ParameterError(
            f"twisted_tournament_hypercube needs |T| >= 4, got {t.order}"
        )
    dim = 3 * k - 1
    block = 1 << dim
    order = t.order * m * block
    if order > MAX_VERTICES:
        raise CapacityError(
            f"{t.order} * {m} * 2^{dim} = {order} vertices exceeds the "
            f"representation limit of {MAX_VERTICES} (= 2^15) vertices"
        )
    within, cross = _layer_blocks(k)
    # cross-part rule for an arc i -> i': x in part i sees x' with
    # hamming(x, twist(x')) in the cross distances; the arc's reverse sees
    # the transpose
    tw = [twist(x, dim) for x in range(block)]
    blocks = np.stack([within, cross, cross[:, tw], cross[tw, :]])
    # blocks between parts: cross within a part, then along or against an arc
    parts = np.array(
        [[1 if i == ip else 2 if t.dominates(i, ip) else 3 for ip in range(t.order)]
         for i in range(t.order)],
        dtype=np.intp,
    )
    labels = [(i, j, x) for i in range(t.order) for j in range(1, m + 1) for x in range(block)]
    return Graph._from_packed(_copies_packed(parts, m, blocks), labels)
