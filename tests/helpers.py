"""Shared test utilities: independent reference oracles and seeded corpora.

The reference checkers here deliberately avoid the library's bitset
machinery (plain sets and loops) so that agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np

from ectf import Graph, random_matrix, random_tournament
from ectf.shattered import trial_seeds

# Master seed for every scan in the test suite.
MASTER_SEED = 20260811

# Seeds s with random_matrix(8, 8, s) shattered: the first 20 hits scanning
# trial_seeds(MASTER_SEED, 8_000_000) in order (indices up to 4_499_049).
# The --runslow suite re-derives this list from scratch.
SHATTERED_8X8_SEEDS = [
    8277782952878632743,
    7888506647780196367,
    3910471174486607536,
    3078312236809924171,
    5367074658485941089,
    7222694599864055688,
    8767717875357847975,
    7703941028338675928,
    2007108085477319884,
    4993212412157669368,
    6570155318820246809,
    8151670001512012773,
    6992104350383569522,
    4842649741815428955,
    2459054690219597769,
    3350906517953602927,
    6800835807504466877,
    3442871416249689529,
    3196929416071494103,
    6209752921142250045,
]


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p): each pair is an edge with probability p."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    )


def random_maximal_triangle_free(n: int, seed: int) -> Graph:
    """Greedy completion of a seeded random edge order: an edge is added
    whenever its endpoints have no current common neighbor, which yields a
    maximal triangle-free graph."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = list(combinations(range(n), 2))
    rows = [0] * n
    for idx in rng.permutation(len(pairs)):
        u, v = pairs[idx]
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(rows)


def maximal_triangle_free_corpus(count: int = 500, max_n: int = 24) -> list[Graph]:
    """Deterministic corpus: orders cycle over 4..max_n."""
    orders = list(range(4, max_n + 1))
    return [
        random_maximal_triangle_free(orders[i % len(orders)], MASTER_SEED + i)
        for i in range(count)
    ]


def scan_shattered_tournaments(count: int, orders=(5, 6, 7), limit: int = 100000):
    """First `count` shattered tournaments scanning seeded random tournaments
    whose order cycles over `orders`."""
    from ectf import is_shattered_tournament

    found = []
    for i, s in enumerate(trial_seeds(MASTER_SEED, limit)):
        v = orders[i % len(orders)]
        if v < 4:
            continue
        t = random_tournament(v, s)
        if is_shattered_tournament(t)[0]:
            found.append(t)
            if len(found) == count:
                return found
    raise AssertionError(f"only {len(found)} shattered tournaments in {limit} scans")


def shattered_8x8_matrices():
    return [random_matrix(8, 8, s) for s in SHATTERED_8X8_SEEDS]


def circulant(m: int, offsets) -> Graph:
    """Cay(Z_m, S) for a symmetric set S of nonzero residues, edge by edge."""
    return Graph.from_edges(m, {tuple(sorted((u, (u + d) % m))) for u in range(m) for d in offsets})


def bipartite_circulant(n: int) -> Graph:
    """The n-regular bipartite Cay(Z_(3n-1), {(3n-1)/2} and +-1, +-3, ...,
    +-(n-2)), n odd: same order and degree as circular(n), but not circular."""
    m = 3 * n - 1
    return circulant(m, [m // 2] + [d for j in range(1, n - 1, 2) for d in (j, m - j)])


# -- plain-set reference implementations ------------------------------------


def nbrs(g: Graph, v: int) -> set[int]:
    return {u for u in range(g.order) if g.adjacent(v, u)}


def ref_satisfies_e_k(g: Graph, k: int):
    """Reference existential-completeness check with sets and loops.  The
    empty A needs some vertex, so only the empty graph fails at size 0."""
    n = g.order
    verts = range(n)
    for size in range(0, k + 1):
        for a_set in combinations(verts, size):
            for bmask in range(1 << size):
                b_set = [a_set[i] for i in range(size) if (bmask >> i) & 1]
                if any(
                    g.adjacent(u, v) for u, v in combinations(b_set, 2)
                ):
                    continue
                avoid = [v for v in a_set if v not in b_set]
                ok = False
                for cand in verts:
                    if cand in a_set:
                        continue
                    if all(g.adjacent(cand, b) for b in b_set) and not any(
                        g.adjacent(cand, c) for c in avoid
                    ):
                        ok = True
                        break
                if not ok:
                    return False, (a_set, tuple(b_set))
    return True, None


def ref_satisfies_adj_k(g: Graph, k: int):
    n = g.order
    for size in range(1, k + 1):
        for s_set in combinations(range(n), size):
            if any(g.adjacent(u, v) for u, v in combinations(s_set, 2)):
                continue
            if not any(
                all(g.adjacent(w, v) for v in s_set)
                for w in range(n)
                if w not in s_set
            ):
                return False, s_set
    return True, None


def ref_first_triangle(g: Graph):
    """The first edge (u, v), u < v, in lexicographic order with a common
    neighbour, sorted together with the smallest such neighbour w; None if
    g is triangle-free."""
    nb = [nbrs(g, v) for v in range(g.order)]
    for u, v in combinations(range(g.order), 2):
        if v in nb[u] and nb[u] & nb[v]:
            return tuple(sorted((u, v, min(nb[u] & nb[v]))))
    return None


def ref_recognize_circular(g: Graph):
    """n such that networkx finds g isomorphic to circular(n), the circulant
    on Z_(3n-1) with offsets n..2n-1; None otherwise."""
    m = g.order
    if m < 2 or (m + 1) % 3:
        return None
    n = (m + 1) // 3
    plain = nx.empty_graph(m)
    plain.add_edges_from(g.edges())
    return n if nx.is_isomorphic(plain, nx.circulant_graph(m, range(n, 2 * n))) else None


def ref_first_independent_triple(g: Graph):
    """The first pairwise nonadjacent triple in lexicographic order, or None."""
    for triple in combinations(range(g.order), 3):
        if not any(g.adjacent(u, v) for u, v in combinations(triple, 2)):
            return triple
    return None


def ref_multiplicity_witness(g: Graph, k: int):
    """(minimum common-neighbor count over independent k-sets, the first
    such set in lexicographic order attaining it); (None, None) if none."""
    best = (None, None)
    for s_set in combinations(range(g.order), k):
        if any(g.adjacent(u, v) for u, v in combinations(s_set, 2)):
            continue
        cnt = len(set.intersection(*(nbrs(g, v) for v in s_set)))
        if best[0] is None or cnt < best[0]:
            best = (cnt, s_set)
    return best


def ref_satisfies_e_k_prime(g: Graph, k: int):
    """Reference exactly-k check: every independent set of fewer than k
    vertices lies in an independent k-set ("extend" witness), then every
    independent k-set A realizes every B inside it ("attach" witness)."""
    n = g.order

    def independent(s):
        return not any(g.adjacent(u, v) for u, v in combinations(s, 2))

    k_sets = [set(s) for s in combinations(range(n), k) if independent(s)]
    for size in range(k):
        for s_set in combinations(range(n), size):
            if independent(s_set) and not any(set(s_set) <= t for t in k_sets):
                return False, ("extend", s_set)
    for a_set in combinations(range(n), k):
        if not independent(a_set):
            continue
        for bmask in range(1 << k):
            b_set = tuple(a_set[i] for i in range(k) if (bmask >> i) & 1)
            if not any(
                all(g.adjacent(v, b) for b in b_set)
                and not any(g.adjacent(v, c) for c in a_set if c not in b_set)
                for v in range(n)
                if v not in a_set
            ):
                return False, ("attach", a_set, b_set)
    return True, None


def center_exists_bruteforce(dim, x, y, z, a, b, c) -> bool:
    """Exhaustive search over all 2^dim candidate centers."""
    for v in range(1 << dim):
        if (
            (v ^ x).bit_count() <= a
            and (v ^ y).bit_count() <= b
            and (v ^ z).bit_count() <= c
        ):
            return True
    return False


# -- plain-Python graph6 reference -------------------------------------------


def ref_encode_graph6(g: Graph) -> bytes:
    """graph6 bytes of g, one adjacency bit at a time: the upper triangle
    column by column, big-endian 6-bit groups plus 63, zero-padded."""
    n = g.order
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    bits = [(g.rows[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = bytearray()
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return head + bytes(body)


def ref_decode_graph6_rows(data: bytes) -> list[int]:
    """Bitset rows of a well-formed graph6 string (no prefix, no newline),
    one adjacency bit at a time."""
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n, pos = data[0] - 63, 1
    rows = [0] * n
    bit = 0
    for v in range(1, n):
        for u in range(v):
            if (data[pos + bit // 6] - 63) >> (5 - bit % 6) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    return rows


def _ref_hamming_rows(dim: int, dists) -> list[int]:
    """Bitset rows of the Cayley graph on Z_2^dim, x ~ y iff the Hamming
    distance of x and y is in dists, pair by pair."""
    return [
        sum(1 << y for y in range(1 << dim) if bin(x ^ y).count("1") in dists)
        for x in range(1 << dim)
    ]


def _ref_layer_rows(k: int) -> tuple[list[int], list[int]]:
    dim = 3 * k - 1
    within = {2 * k - 1} | set(range(2 * k + 1, dim + 1))
    cross = set(range(2 * k, dim + 1))
    return _ref_hamming_rows(dim, within), _ref_hamming_rows(dim, cross)


def ref_hypercube_layers_rows(k: int, m: int) -> list[int]:
    """Rows of hypercube_layers(k, m), assembled by shifting each layer's
    within- or cross-layer row into place (the former construction)."""
    block = 1 << (3 * k - 1)
    wrows, crows = _ref_layer_rows(k)
    return [
        sum((wrows[x] if ip == i else crows[x]) << (ip * block) for ip in range(m))
        for i in range(m)
        for x in range(block)
    ]


def ref_twisted_tournament_hypercube_rows(t, m: int, k: int) -> list[int]:
    """Rows of twisted_tournament_hypercube(t, m, k), assembled per vertex
    (the former construction)."""
    from ectf import twist

    dim = 3 * k - 1
    block = 1 << dim
    wrows, crows = _ref_layer_rows(k)
    # x in part i sees x' in part i' along an arc iff twist(x') is a
    # cross-layer neighbour of x; against the arc, iff x'' is one of twist(x)
    fwd = [sum(1 << xp for xp in range(block) if (crows[twist(xp, dim)] >> x) & 1) for x in range(block)]
    bwd = [crows[twist(x, dim)] for x in range(block)]
    pos = lambda i, j: (i * m + j) * block
    rows = []
    for i in range(t.order):
        for j in range(m):
            for x in range(block):
                row = 0
                for ip in range(t.order):
                    for jp in range(m):
                        if ip == i:
                            part = wrows[x] if jp == j else crows[x]
                        else:
                            part = fwd[x] if t.dominates(i, ip) else bwd[x]
                        row |= part << pos(ip, jp)
                rows.append(row)
    return rows


def _ref_rows_from_edges(order: int, edges) -> list[int]:
    rows = [0] * order
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def ref_albert_cycles_rows(n: int) -> list[int]:
    """Rows of albert_cycles(n), edge by edge (the former construction)."""
    idx = lambda i, x: (i - 1) * 4 + x % 4
    edges = []
    for i in range(1, n + 1):
        for x in range(4):
            edges.append((idx(i, x), idx(i, x + 1)))
            for ip in range(i + 1, n + 1):
                edges.append((idx(i, x), idx(ip, x + 2)))
    return _ref_rows_from_edges(4 * n, edges)


def ref_albert_matrix_rows(m) -> list[int]:
    """Rows of albert_matrix(m), edge by edge (the former construction):
    matchings a_i~b_i and c_j~d_j, then a_i~c_j and b_i~d_j for a 1 entry,
    a_i~d_j and b_i~c_j for a 0 entry."""
    nr, nc = m.nrows, m.ncols
    edges = [(i, nr + i) for i in range(nr)] + [(2 * nr + j, 2 * nr + nc + j) for j in range(nc)]
    for i in range(nr):
        for j in range(nc):
            c, d = 2 * nr + j, 2 * nr + nc + j
            edges += [(i, c), (nr + i, d)] if m.bits[i][j] else [(i, d), (nr + i, c)]
    return _ref_rows_from_edges(2 * nr + 2 * nc, edges)


def ref_circular_rows(n: int) -> list[int]:
    """Rows of circular(n), pair by pair (the former construction): arcs
    of n consecutive elements of Z_(3n-1), adjacent when disjoint."""
    size = 3 * n - 1
    return _ref_rows_from_edges(size, [
        (t, s) for t, s in combinations(range(size), 2)
        if (s - t) % size >= n and (t - s) % size >= n
    ])


def ref_twisted_z4_rows(sizes, arcs) -> list[int]:
    """Rows of the Z_4 twisted graph with parts of the given sizes wired
    along the arcs (i, i'), edge by edge (the former construction)."""
    offsets = [4 * sum(sizes[:i]) for i in range(len(sizes))]
    idx = lambda i, j, x: offsets[i] + (j - 1) * 4 + x % 4
    edges = []
    for i, size in enumerate(sizes):
        for j in range(1, size + 1):
            for x in range(4):
                edges.append((idx(i, j, x), idx(i, j, x + 1)))
                for jp in range(j + 1, size + 1):
                    edges.append((idx(i, j, x), idx(i, jp, x + 2)))
    for i, ip in arcs:
        for j in range(1, sizes[i] + 1):
            for jp in range(1, sizes[ip] + 1):
                for x in range(4):
                    edges.append((idx(i, j, x), idx(ip, jp, x + 3)))
    return _ref_rows_from_edges(4 * sum(sizes), edges)


def ref_shattered_witness(m):
    """is_shattered_matrix(m) by the former pure-Python scan: rows before
    columns, triples in lexicographic order, each column's pattern p folded
    to min(p, 7 - p); the witness names the smallest missing pair."""
    for axis, mat in (("rows", m.bits), ("cols", tuple(zip(*m.bits)))):
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
                k = next(k for k in range(4) if not (seen >> k) & 1)
                pattern = tuple((k >> b) & 1 for b in (2, 1, 0))
                return False, (axis, triple, (pattern, tuple(1 - x for x in pattern)))
    return True, None


def ref_one_two_path_per_pair(t, quad) -> bool:
    """Whether every unordered pair of quad lies on exactly one directed
    2-path (in either direction) inside quad: the defining property of the
    two canonical 4-tournaments, counted path by path."""
    for u, w in combinations(quad, 2):
        paths = 0
        for z in quad:
            if z in (u, w):
                continue
            paths += t.dominates(u, z) and t.dominates(z, w)
            paths += t.dominates(w, z) and t.dominates(z, u)
        if paths != 1:
            return False
    return True
