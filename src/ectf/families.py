"""Deterministic constructors for every triangle-free graph family.

Each constructor returns a labeled Graph; vertices are enumerated
lexicographically by their label tuples (part index, then copy index,
then the Z_4 or hypercube coordinate as an integer), so graph6 output and
witnesses are stable across runs.  Shatteredness of matrix or tournament
inputs is deliberately not checked here; certification lives in `verify`.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .graphs import (
    DistanceSetSpec,
    Graph,
    ParameterError,
    build_cayley,
    check_capacity,
    hamming_packed,
    pack_blocks,
    unpack_rows,
)
from .shattered import BitMatrix, Tournament, canonical_tournaments

# packed adjacency bytes assembled at once by the layered constructions
_BLOCK_BYTES = 1 << 22

# 0/1 blocks between Z_4 copies, x ~ y iff y - x mod 4 is: 1 or 3 inside a
# copy (the 4-cycle), 2 across copies of one part (the antipode), 3 along
# an arc and 1 against it
_Z4_BLOCKS = np.stack(
    [np.isin((np.arange(4) - np.arange(4)[:, None]) % 4, d) for d in ((1, 3), 2, 3, 1)]
).astype(np.uint8)


def albert_cycles(n: int) -> Graph:
    """Disjoint 4-cycles (i, 0..3), i = 1..n, each vertex also joined to the
    antipode of every other cycle; (n+1)-regular on 4n vertices."""
    if n < 4:
        raise ParameterError(f"albert_cycles needs n >= 4, got {n}")
    check_capacity(4 * n, f"4 * {n} = {4 * n}")
    labels = [(i, x) for i in range(1, n + 1) for x in range(4)]
    packed = _copies_packed(np.ones((1, 1), dtype=np.intp), [n], _Z4_BLOCKS)
    return Graph._from_packed(packed, labels)


def albert_matrix(m: BitMatrix) -> Graph:
    """Two matchings a_i~b_i and c_j~d_j wired through the matrix entries:
    entry 1 joins a_i~c_j and b_i~d_j, entry 0 joins a_i~d_j and b_i~c_j."""
    nr, nc = m.nrows, m.ncols
    if nr < 4 or nc < 4:
        raise ParameterError(
            f"albert_matrix needs at least a 4x4 matrix, got {nr}x{nc}"
        )
    check_capacity(2 * nr + 2 * nc, f"graph on {2 * nr + 2 * nc}")
    labels = (
        [("a", i) for i in range(1, nr + 1)]
        + [("b", i) for i in range(1, nr + 1)]
        + [("c", j) for j in range(1, nc + 1)]
        + [("d", j) for j in range(1, nc + 1)]
    )
    one = np.array(m.bits, dtype=bool)
    swap = np.array([[0, 1], [1, 0]], dtype=bool)
    # rows a, b against columns c, d
    cross = np.block([[one, ~one], [~one, one]])
    adj = np.block([
        [np.kron(swap, np.eye(nr, dtype=bool)), cross],
        [cross.T, np.kron(swap, np.eye(nc, dtype=bool))],
    ])
    return Graph._from_packed(pack_blocks(len(adj), lambda lo, hi: adj[lo:hi]), labels)


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
    check_capacity(m * block, f"{m} * 2^{dim} = {m * block}")
    labels = [(i, x) for i in range(1, m + 1) for x in range(block)]
    packed = _copies_packed(np.ones((1, 1), dtype=np.intp), [m], np.stack(_layer_blocks(k)))
    return Graph._from_packed(packed, labels)


def _layer_blocks(k: int) -> tuple[np.ndarray, np.ndarray]:
    """0/1 adjacency of Z_2^(3k-1) inside a layer (distances {2k-1} and
    2k+1 .. 3k-1) and across layers (2k .. 3k-1)."""
    dim = 3 * k - 1
    within = {2 * k - 1} | set(range(2 * k + 1, dim + 1))
    cross = set(range(2 * k, dim + 1))
    return tuple(unpack_rows(hamming_packed(dim, dists), 1 << dim) for dists in (within, cross))


def _copies_packed(parts: np.ndarray, copies: list[int], blocks: np.ndarray) -> np.ndarray:
    """Packed adjacency (layout of `Graph.packed()`) of a graph made of
    parts, part i of copies[i] copies of one vertex set: a copy's rows
    against its own columns are the 0/1 block blocks[0], and against a copy
    in parts i, i' (the same part or not) blocks[parts[i, i']].  The copy
    size is a power of two of at least 4, so the runs below end on the last
    byte."""
    part = np.repeat(np.arange(len(parts)), copies)  # the part of each copy
    total, size = len(part), blocks.shape[1]
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
    kinds[:, :total] = parts[:, part]
    by_part = kinds.reshape(len(parts), -1, group) @ weight
    width = by_part.shape[1] * run_bytes
    out = np.zeros((n, 8 * max(1, (n + 63) // 64)), dtype=np.uint8)
    step = max(1, _BLOCK_BYTES // (size * width))
    for lo in range(0, total, step):
        copy = np.arange(lo, min(total, lo + step))
        entry = by_part[part[copy]]
        # a copy meets itself through blocks[0], not its part's own kind
        own = parts[part[copy], part[copy]]
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
    check_capacity(size, f"3 * {n} - 1 = {size}")
    ids = np.arange(size)

    def disjoint(lo: int, hi: int) -> np.ndarray:
        # arcs t.. and s.. are disjoint iff s - t mod 3n-1 lies in n .. 2n-1
        diff = (ids - ids[lo:hi, None]) % size
        return (diff >= n) & (diff < 2 * n)

    return Graph._from_packed(pack_blocks(size, disjoint), [(t,) for t in range(size)])


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


def _twisted_z4(t: Tournament, sizes: list[int]) -> Graph:
    """Shared builder for the Z_4-based twisted graphs.

    Vertices (i, j, x) with i a vertex of t, 1 <= j <= sizes[i], x in Z_4;
    edges x ~ x+1 inside a 4-cycle, x ~ x+2 across copies of the same part,
    and x ~ x+3 from part i to part i' whenever i -> i' is an arc.
    """
    order = 4 * sum(sizes)
    check_capacity(order, f"4 * {sum(sizes)} = {order}")
    labels = [
        (i, j, x) for i in range(len(sizes)) for j in range(1, sizes[i] + 1) for x in range(4)
    ]
    return Graph._from_packed(_copies_packed(_arc_kinds(t), sizes, _Z4_BLOCKS), labels)


def _arc_kinds(t: Tournament) -> np.ndarray:
    """Block kind between parts i and i' of a twisted graph: 1 inside a
    part, 2 along an arc i -> i', 3 against it."""
    return np.array(
        [[1 if i == ip else 2 if t.dominates(i, ip) else 3 for ip in range(t.order)]
         for i in range(t.order)],
        dtype=np.intp,
    )


def twisted_four(m0: int, m1: int, m2: int, m3: int) -> Graph:
    """Four-part twisted graph on 4*(m0+m1+m2+m3) vertices, parts wired by
    the arcs {(0,1), (0,2), (0,3), (1,2), (2,3), (3,1)}."""
    sizes = [m0, m1, m2, m3]
    for mi in sizes:
        if mi < 2:
            raise ParameterError(
                f"twisted_four needs every part size >= 2, got {tuple(sizes)}"
            )
    return _twisted_z4(canonical_tournaments()[0], sizes)


def twisted_tournament(t: Tournament, m: int) -> Graph:
    """Twisted graph over an arbitrary tournament, every part of size m."""
    if m < 2:
        raise ParameterError(f"twisted_tournament needs m >= 2, got {m}")
    if t.order < 4:
        raise ParameterError(f"twisted_tournament needs |T| >= 4, got {t.order}")
    return _twisted_z4(t, [m] * t.order)


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
    check_capacity(order, f"{t.order} * {m} * 2^{dim} = {order}")
    within, cross = _layer_blocks(k)
    # cross-part rule for an arc i -> i': x in part i sees x' with
    # hamming(x, twist(x')) in the cross distances; the arc's reverse sees
    # the transpose
    tw = [twist(x, dim) for x in range(block)]
    blocks = np.stack([within, cross, cross[:, tw], cross[tw, :]])
    labels = [(i, j, x) for i in range(t.order) for j in range(1, m + 1) for x in range(block)]
    return Graph._from_packed(_copies_packed(_arc_kinds(t), [m] * t.order, blocks), labels)
