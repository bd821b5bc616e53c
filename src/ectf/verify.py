"""Certification engine for triangle-free extension properties.

Implements the definitional checkers (triangle-freeness, twin-freeness,
anti-triangles, common-neighbor properties for independent sets up to a
given size, and the two equivalent existential-extension formulations),
multiplicity computation, circular-graph recognition, and the hypercube
majority-vote center construction.

All checkers operate on the explicit Graph: the 3ECTF fast path
(triangles, adj_3, twins, circular recognition) on its packed words alone,
while the anti-triangle, k >= 4 and sampled scans derive its rows.
Enumeration of candidate sets proceeds lexicographically (sizes ascending,
then tuples, then subset membership masks), and reported witnesses are
always the first violation in that order.  Sets of at most three vertices
are scanned by one count kernel (common-neighbour counts as float32 matrix
products, taken in row blocks); each block is reduced in that same order,
so the witness does not depend on the block size.  Larger sets, and the
anti-triangle, come from one depth-first enumerator of independent sets in
lexicographic order, which carries each set's common neighbours as a
bitset; the realizer checks of e_k and e_k' for k >= 4 walk the sets it
(or `combinations`) gives them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .families import circular
from .graphs import Graph, ParameterError, common_neighbors, iter_bits, unpack_rows

# float32 elements in one working block of the count kernel (4 MiB)
_BLOCK = 1 << 20
# largest order whose dense adjacency and pair counts are held whole
_DENSE_MAX = 1 << 13
# rows b of one triple-scan block: every block also computes its entries
# with c <= b, which small blocks keep few
_TRIPLE_ROWS = 128


# ---------------------------------------------------------------------------
# count kernel for the scans over sets of at most three vertices
# ---------------------------------------------------------------------------


class _Block(NamedTuple):
    """One block of a pair or triple scan.

    Entry (i, j) stands for the vertices u = lo + i and v = lo + j (after a,
    in a triple scan); only entries with j > i, marked by `upper`, are sets.
    `adj` is the 0/1 adjacency of u and v and `common` the number of common
    neighbours of the set.  In a triple scan `au` and `av` are the 0/1
    adjacency of a to u (a column) and to v (a row).
    """

    lo: int
    adj: np.ndarray
    common: np.ndarray
    upper: np.ndarray
    a: int = -1
    au: np.ndarray = np.zeros((1, 1), dtype=np.float32)
    av: np.ndarray = np.zeros((1, 1), dtype=np.float32)

    @property
    def hi(self) -> int:
        return self.lo + self.adj.shape[0]

    def independent(self) -> np.ndarray:
        return self.upper & (self.adj == 0) & (self.au == 0) & (self.av == 0)

    def members(self, i: int, j: int) -> tuple[int, ...]:
        pair = (self.lo + i, self.lo + j)
        return pair if self.a < 0 else (self.a,) + pair


class _Counts:
    """Common-neighbour counts of a graph for the size-1..3 scans.

    M is the 0/1 adjacency matrix in float32.  It is symmetric, so the
    number of vertices of a set S adjacent to both u and v is (Y^T Y)[u, v]
    with Y = M[S]: S is every vertex for the pair counts |N(u) & N(v)|, and
    S = N(a) for the triple counts |N(a) & N(b) & N(c)|.  Sums of 0/1
    products are exact in float32 below 2^24 vertices.  Products are taken
    in blocks of at most _BLOCK elements.  M and the whole pair matrix are
    held only up to _DENSE_MAX vertices; above that, rows are unpacked from
    the bitset adjacency when a block needs them.
    """

    def __init__(self, g: Graph):
        self.n = g.order
        self.graph = g
        self.deg = np.array(g.degrees(), dtype=np.float32)
        self._dense: Optional[np.ndarray] = None
        self._pairs: Optional[np.ndarray] = None
        self._paired = 0  # rows of _pairs filled so far

    def take(self, index, start: int = 0) -> np.ndarray:
        """Rows `index` (a slice or an index array) of M, columns start.."""
        if self._dense is None and self.n <= _DENSE_MAX:
            self._dense = self._unpack(slice(None), 0)
        if self._dense is not None:
            return self._dense[index, start:]
        return self._unpack(index, start)

    def _unpack(self, index, start: int) -> np.ndarray:
        word = start >> 6
        bits = unpack_rows(self.graph.packed()[index, word:], self.n - 64 * word)
        return bits[:, start - 64 * word :].astype(np.float32)

    def common(self, among: Optional[np.ndarray], lo: int, hi: int, start: int) -> np.ndarray:
        """For u in lo..hi-1 and v >= start (start <= lo): the number of
        vertices in `among` (an index array; None for all) adjacent to both."""
        size = self.n if among is None else len(among)
        step = max(1, _BLOCK // (self.n - start))
        out = np.zeros((hi - lo, self.n - start), dtype=np.float32)
        for s in range(0, size, step):
            part = slice(s, s + step) if among is None else among[s : s + step]
            y = self.take(part, start)
            out += y[:, lo - start : hi - start].T @ y
        return out

    def pairs(self, lo: int, hi: int, start: int) -> np.ndarray:
        """|N(u) & N(v)| for u in lo..hi-1 and v >= start.  Up to
        _DENSE_MAX vertices rows are kept once computed: the triple scans
        revisit them for every a."""
        if self.n > _DENSE_MAX:
            return self.common(None, lo, hi, start)
        if self._pairs is None:
            self._pairs = np.empty((self.n, self.n), dtype=np.float32)
        step = max(1, _BLOCK // self.n)
        while self._paired < hi:
            top = min(self.n, self._paired + step)
            self._pairs[self._paired : top] = self.common(None, self._paired, top, 0)
            self._paired = top
        return self._pairs[lo:hi, start:]

    def pair_blocks(self) -> Iterator[_Block]:
        """The pairs (u, v), u < v, in lexicographic order, by row blocks."""
        n = self.n
        step = max(1, _BLOCK // max(n, 1))
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            yield _Block(
                lo, self.take(slice(lo, hi), lo), self.common(None, lo, hi, lo), _upper(hi - lo, n - lo)
            )

    def triple_blocks(self) -> Iterator[_Block]:
        """The triples (a, b, c), a < b < c, in lexicographic order: a in
        turn, b by row blocks; `common` counts N(a) & N(b) & N(c)."""
        n = self.n
        for a in range(n - 2):
            arow = self.take(slice(a, a + 1))[0]
            nbrs = np.flatnonzero(arow)
            step = max(1, min(_TRIPLE_ROWS, _BLOCK // (n - a - 1)))
            for lo in range(a + 1, n - 1, step):
                hi = min(n - 1, lo + step)
                yield _Block(
                    lo,
                    self.take(slice(lo, hi), lo),
                    self.common(nbrs, lo, hi, lo),
                    _upper(hi - lo, n - lo),
                    a,
                    arow[lo:hi, None],
                    arow[None, lo:],
                )


def _upper(rows: int, cols: int) -> np.ndarray:
    return np.arange(cols) > np.arange(rows)[:, None]


def _first(bad: np.ndarray) -> Optional[tuple[int, ...]]:
    """Index of the first true entry of bad in C (lexicographic) order."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _first_zero(counts: list, valid: list) -> Optional[tuple[int, ...]]:
    """First (index..., mask) in C order with valid[mask] and counts[mask] == 0."""
    bad = [(c == 0) & v for c, v in zip(counts, valid)]
    if not any(b.any() for b in bad):
        return None
    return _first(np.stack(bad, axis=-1))


def _first_uncovered(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """First independent set of 1..k <= 3 vertices without a common neighbor."""
    cnt = _Counts(g)
    hit = _first(cnt.deg == 0)
    if hit is not None:
        return hit
    for scan in (cnt.pair_blocks, cnt.triple_blocks)[: k - 1]:
        for blk in scan():
            hit = _first(blk.independent() & (blk.common == 0))
            if hit is not None:
                return blk.members(*hit)
    return None


def _first_unrealized(cnt: _Counts, size: int, independent: bool) -> Optional[tuple]:
    """First (A, B), |A| = size <= 3 and B an independent subset of A, such
    that no vertex outside A is adjacent to exactly the members B of A; A
    ranges over all (or, with `independent`, the independent) size-sets.
    B is indexed by its membership mask within A (bit i for the i-th
    member), so (A, mask) pairs are reduced in lexicographic order."""
    n, deg = cnt.n, cnt.deg
    if size == 1:
        hit = _first_zero([n - 1 - deg, deg], [True, True])
        if hit is None:
            return None
        v, mask = hit
        return (v,), ((v,) if mask else ())
    scan = cnt.pair_blocks if size == 2 else cnt.triple_blocks
    for blk in scan():
        if size == 2:
            counts = _pair_realizers(cnt, blk)
            valid = [blk.upper] * 3 + [blk.upper & (blk.adj == 0)]
        else:
            counts = _triple_realizers(cnt, blk)
            if counts is None:
                continue
            valid = [blk.upper] * 8
            for mask, indep in ((3, blk.au == 0), (5, blk.av == 0), (6, blk.adj == 0)):
                valid[mask] = blk.upper & indep
            valid[7] = blk.independent()
        if independent:
            valid = [blk.independent()] * len(counts)
        hit = _first_zero(counts, valid)
        if hit is not None:
            a_set = blk.members(hit[0], hit[1])
            return a_set, tuple(v for i, v in enumerate(a_set) if hit[2] >> i & 1)
    return None


def _pair_realizers(cnt: _Counts, blk: _Block) -> list:
    """Per mask of B within A = (u, v): the vertices outside A adjacent to
    exactly B, by inclusion-exclusion over |N(u)|, |N(v)|, |N(u) & N(v)|."""
    n, lo, hi = cnt.n, blk.lo, blk.hi
    d_u, d_v, c, uv = cnt.deg[lo:hi, None], cnt.deg[None, lo:], blk.common, blk.adj
    return [n - d_u - d_v + c - 2 * (1 - uv), d_u - c - uv, d_v - c - uv, c]


# most members of A = (a, u, v) with exactly B as their neighbours in A, by
# the membership mask of B, where counting them takes more than one product
_MEMBERS_AT_MOST = {0: 3, 1: 2, 2: 2, 4: 2}
# added to a count whose B is not independent, to keep it off the minimum
_BIG = np.float32(1 << 20)


def _triple_realizers(cnt: _Counts, blk: _Block) -> Optional[list]:
    """Per mask of B within A = (a, u, v), bit 0 for a: the vertices outside
    A adjacent to exactly B.  None when no count can be zero.

    Inclusion-exclusion over |N(S)| for S within A counts every vertex
    whose neighbours in A are exactly B; the members of A with that pattern
    are then taken off.  For four masks only a bound on those members is
    used first: a block where every count of an independent B exceeds its
    bound has no failure, and only the other blocks pay for the rest."""
    n, lo, hi, a = cnt.n, blk.lo, blk.hi, blk.a
    d_a, d_u, d_v = cnt.deg[a], cnt.deg[lo:hi, None], cnt.deg[None, lo:]
    ca = cnt.pairs(a, a + 1, 0)[0]
    ca_u, ca_v = ca[lo:hi, None], ca[None, lo:]
    au, av, uv, t = blk.au, blk.av, blk.adj, blk.common
    only_uv = cnt.pairs(lo, hi, lo) - t  # adjacent to u and v, not to a
    every = [
        (n - d_a - d_u + ca_u) - (d_v - ca_v) + only_uv,
        (d_a - ca_u) - ca_v + t,
        (d_u - ca_u) - only_uv,
        ca_u - t,
        (d_v - ca_v) - only_uv,
        ca_v - t,
        only_uv,
        t,
    ]
    members = {3: av * uv, 5: au * uv, 6: au * av, 7: 0}
    dependent = _BIG * uv
    penalty = {3: _BIG * au, 5: _BIG * av, 6: dependent, 7: dependent + _BIG * (au + av)}
    low = None
    for mask, count in enumerate(every):
        slack = count - members.get(mask, _MEMBERS_AT_MOST.get(mask)) + penalty.get(mask, 0)
        low = slack if low is None else np.minimum(low, slack, out=low)
    if not (blk.upper & (low <= 0)).any():
        return None
    nau, nav, nuv = 1 - au, 1 - av, 1 - uv
    members.update({
        0: nau * nav + nau * nuv + nav * nuv,
        1: nuv * (au + av),
        2: nav * (au + uv),
        4: nau * (av + uv),
    })
    return [count - members[mask] for mask, count in enumerate(every)]


def _first_unextendable(cnt: _Counts, k: int) -> Optional[tuple[int, ...]]:
    """First independent set of fewer than k <= 3 vertices (sizes ascending)
    that lies in no independent k-set."""
    n = cnt.n
    pair = None
    if k == 2:
        extends = cnt.deg < n - 1
    else:
        extends = np.zeros(n, dtype=bool)
        for blk in cnt.pair_blocks():
            lo, hi = blk.lo, blk.hi
            indep = blk.independent()
            # vertices outside the pair adjacent to neither end
            free = n - cnt.deg[lo:hi, None] - cnt.deg[None, lo:] + blk.common - 2
            ok = indep & (free > 0)
            extends[lo:hi] |= ok.any(axis=1)
            extends[lo:] |= ok.any(axis=0)
            if pair is None:
                hit = _first(indep & (free == 0))
                pair = None if hit is None else blk.members(*hit)
    if not extends.any():
        return ()
    if not extends.all():
        return (int(np.argmin(extends)),)
    return pair


# ---------------------------------------------------------------------------
# basic checkers
# ---------------------------------------------------------------------------


def is_triangle_free(g: Graph) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """No three mutually adjacent vertices; witness is the first triangle
    found scanning edges (u, v), u < v, lexicographically (w the smallest
    common neighbour of u and v)."""
    packed = g.packed()
    step = max(1, _BLOCK // packed.shape[1])  # gathers of at most _BLOCK words
    for u in range(g.order):
        later = u + 1 + np.flatnonzero(unpack_rows(packed[u : u + 1], g.order)[0, u + 1 :])
        for lo in range(0, len(later), step):
            common = packed[later[lo : lo + step]] & packed[u]
            hit = _first(common != 0)
            if hit is not None:
                i, word = hit
                w = 64 * word + next(iter_bits(int(common[i, word])))
                return False, tuple(sorted((u, int(later[lo + i]), w)))
    return True, None


def is_twin_free(g: Graph) -> tuple[bool, Optional[tuple[int, int]]]:
    """No two vertices with identical neighborhoods; the witness is the
    first vertex v whose row repeats an earlier one, after the first u with
    that row."""
    packed = g.packed()
    keys = packed.view(np.dtype((np.void, packed.itemsize * packed.shape[1]))).reshape(-1)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    first = first[which]
    twins = np.flatnonzero(first != np.arange(g.order))
    if not len(twins):
        return True, None
    return False, (int(first[twins[0]]), int(twins[0]))


def has_anti_triangle(g: Graph) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether some three vertices are pairwise nonadjacent; on success the
    witness is the first such triple in lexicographic order."""
    first = next(_independent_sets(g, 3), None)
    return (False, None) if first is None else (True, first[0])


def satisfies_adj_k(g: Graph, k: int) -> tuple[bool, Optional[tuple]]:
    """Every independent set of cardinality 1..k has a common neighbor;
    on failure returns the first uncovered independent set."""
    if k < 1:
        raise ParameterError(f"adjacency property needs k >= 1, got {k}")
    w = _first_uncovered(g, min(k, 3))
    if w is not None:
        return False, w
    for size in range(4, k + 1):
        for s_set, common in _independent_sets(g, size):
            if not common:
                return False, s_set
    return True, None


def _independent_sets(
    g: Graph, size: int, cand: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The independent `size`-sets inside the bitset `cand` (default: every
    vertex) in lexicographic order, each with the bitset of its common
    neighbours.  Depth-first over an explicit stack; a branch is cut when
    fewer candidates remain than members are still missing."""
    rows = g.rows
    full = g.full_mask
    if size == 0:
        yield (), full
        return
    last = size - 1
    members = [0] * size
    # per depth: candidates still to try there, common neighbours of the
    # members above it
    cands = [full if cand is None else cand] + [0] * last
    inters = [full] + [0] * last
    depth = 0
    while depth >= 0:
        c = cands[depth]
        if c.bit_count() < size - depth:
            depth -= 1
            continue
        low = c & -c
        v = low.bit_length() - 1
        c ^= low
        cands[depth] = c
        members[depth] = v
        if depth == last:
            yield tuple(members), inters[depth] & rows[v]
        else:
            depth += 1
            cands[depth] = c & ~rows[v]
            inters[depth] = inters[depth - 1] & rows[v]


# ---------------------------------------------------------------------------
# existential extension properties
# ---------------------------------------------------------------------------


def _independent(rows: tuple[int, ...], verts: tuple[int, ...]) -> bool:
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if (rows[u] >> v) & 1:
                return False
    return True


def _first_unrealized_among(
    g: Graph, a_sets: Iterable[tuple[int, ...]]
) -> Optional[tuple[tuple, tuple]]:
    """First (A, B), A from the iterable `a_sets` in its order and B an
    independent subset of A by membership mask, such that no vertex outside
    A is adjacent to exactly the members B of A."""
    rows = g.rows
    for a_set in a_sets:
        # parts[mask]: vertices outside A whose neighbours in A are the
        # members selected by mask (bit i for a_set[i])
        parts = [g.full_mask & ~sum(1 << v for v in a_set)]
        for v in a_set:
            parts = [p & ~rows[v] for p in parts] + [p & rows[v] for p in parts]
        if all(parts):
            continue
        for mask, part in enumerate(parts):
            if not part:
                b_set = tuple(v for i, v in enumerate(a_set) if mask >> i & 1)
                if _independent(rows, b_set):
                    return a_set, b_set
    return None


def satisfies_e_k(g: Graph, k: int) -> tuple[bool, Optional[tuple[tuple, tuple]]]:
    """Definitional existential completeness check.

    For every A of at most k vertices and every independent B inside A there
    must be a vertex outside A adjacent to all of B and to none of A minus B.
    Returns the first failing (A, B) otherwise; A scanned lexicographically
    by size then tuple, B by membership mask within A.
    """
    if k < 1:
        raise ParameterError(f"existential completeness needs k >= 1, got {k}")
    if g.order == 0:
        return False, ((), ())
    cnt = _Counts(g)
    for size in range(1, min(k, 3) + 1):
        witness = _first_unrealized(cnt, size, independent=False)
        if witness is not None:
            return False, witness
    for size in range(4, k + 1):
        witness = _first_unrealized_among(g, combinations(range(g.order), size))
        if witness is not None:
            return False, witness
    return True, None


def satisfies_e_k_prime(g: Graph, k: int) -> tuple[bool, Optional[tuple]]:
    """The exactly-k variant: every independent A of cardinality exactly k
    realizes all subsets B (witness ("attach", A, B) on failure), and every
    independent set of fewer than k vertices extends to an independent
    k-set (witness ("extend", S) on failure).

    The extension clause is checked first (sizes ascending, sets in
    lexicographic order), then the realization clause.
    """
    if k < 2:
        raise ParameterError(f"exactly-k completeness needs k >= 2, got {k}")
    if g.order == 0:
        return False, ("extend", ())
    if k > 3:
        return _e_k_prime_generic(g, k)
    cnt = _Counts(g)
    s_set = _first_unextendable(cnt, k)
    if s_set is not None:
        return False, ("extend", s_set)
    witness = _first_unrealized(cnt, k, independent=True)
    return (True, None) if witness is None else (False, ("attach",) + witness)


def _e_k_prime_generic(g: Graph, k: int) -> tuple[bool, Optional[tuple]]:
    """satisfies_e_k_prime by enumerating the sets one by one."""
    rows = g.rows
    for size in range(k):
        for s_set, _ in _independent_sets(g, size):
            outside = g.full_mask
            for v in s_set:
                outside &= ~rows[v] & ~(1 << v)
            if next(_independent_sets(g, k - size, outside), None) is None:
                return False, ("extend", s_set)
    witness = _first_unrealized_among(g, (a_set for a_set, _ in _independent_sets(g, k)))
    return (True, None) if witness is None else (False, ("attach",) + witness)


# ---------------------------------------------------------------------------
# circular recognition and the 3ECTF verdict
# ---------------------------------------------------------------------------


def recognize_circular(g: Graph) -> Optional[int]:
    """n such that g is isomorphic to the circular graph on 3n-1 vertices
    (arcs of n consecutive elements, adjacent when disjoint), else None.
    In it only t - 1 and t + 1 share n - 1 neighbours with t, so a walk from
    vertex 0 to such unvisited vertices reads off the order to compare."""
    nv = g.order
    if nv < 2 or (nv + 1) % 3:
        return None
    n = (nv + 1) // 3
    if g.degrees().count(n) != nv:
        return None
    packed, order = g.packed(), [0]
    unvisited = np.arange(nv) > 0
    while len(order) < nv:
        shared = np.bitwise_count(packed & packed[order[-1]]).sum(axis=1)
        step = np.flatnonzero((shared == n - 1) & unvisited)
        if not len(step):
            return None
        order.append(int(step[0]))
        unvisited[order[-1]] = False
    return n if circular(n).relabel(order).same_adjacency(g) else None


@dataclass
class CheckResult:
    verdict: object
    witness: object = None
    millis: float = 0.0


@dataclass
class PropertyReport:
    """Ordered per-property verdicts with witnesses and timings.

    The text rendering includes per-check milliseconds; the JSON rendering
    is canonical (sorted keys, no timings) so identical inputs produce
    byte-identical machine-readable reports.
    """

    order: int
    edges: int
    checks: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, name: str, verdict, witness=None, millis: float = 0.0) -> None:
        self.checks[name] = CheckResult(verdict, witness, millis)

    def verdict(self, name: str):
        return self.checks[name].verdict

    def witness(self, name: str):
        return self.checks[name].witness

    def __contains__(self, name: str) -> bool:
        return name in self.checks

    @property
    def is_3ectf(self) -> bool:
        return bool(self.checks["is_3ectf"].verdict)

    @property
    def is_circular(self) -> Optional[int]:
        return self.checks["is_circular"].verdict

    def to_text(self) -> str:
        lines = [f"order {self.order}", f"edges {self.edges}"]
        for name, res in self.checks.items():
            if name == "is_circular":
                verdict = "absent" if res.verdict is None else f"n={res.verdict}"
            else:
                verdict = "true" if res.verdict else "false"
            witness = "-" if res.witness is None else repr(res.witness)
            lines.append(f"{name}\t{verdict}\t{witness}\t{res.millis:.3f}ms")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "order": self.order,
            "edges": self.edges,
            "checks": {
                name: {"verdict": res.verdict, "witness": res.witness}
                for name, res in self.checks.items()
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _timed(report: PropertyReport, name: str, fn: Callable[[], tuple]) -> tuple:
    start = time.perf_counter()
    verdict, witness = fn()
    report.add(name, verdict, witness, (time.perf_counter() - start) * 1e3)
    return verdict, witness


def _triangle_gate(g: Graph) -> tuple[PropertyReport, bool]:
    """A report holding the triangle check; with a triangle the 3ECTF
    verdict is settled there."""
    report = PropertyReport(g.order, g.edge_count)
    tf, triangle = _timed(report, "triangle_free", lambda: is_triangle_free(g))
    if not tf:
        report.add("is_3ectf", False, ("triangle", triangle))
    return report, tf


def _add_3ectf_verdict(report: PropertyReport) -> None:
    """The 3ECTF verdict from adj_3, twin_free and is_circular, with the
    first failing one as the reason."""
    reason = None
    if not report.verdict("adj_3"):
        reason = ("uncovered", report.witness("adj_3"))
    elif not report.verdict("twin_free"):
        reason = ("twins", report.witness("twin_free"))
    elif report.is_circular is not None:
        reason = ("circular", report.is_circular)
    report.add("is_3ectf", reason is None, reason)


def is_3ectf(g: Graph) -> PropertyReport:
    """Fast-path 3ECTF verdict: triangle-free, all independent sets of at
    most 3 vertices have common neighbors, twin-free, and not circular."""
    report, tf = _triangle_gate(g)
    if tf:
        _timed(report, "adj_3", lambda: satisfies_adj_k(g, 3))
        _timed(report, "twin_free", lambda: is_twin_free(g))
        _timed(report, "is_circular", lambda: (recognize_circular(g), None))
        _add_3ectf_verdict(report)
    return report


def certify(g: Graph, k_max: int = 3) -> PropertyReport:
    """Full property battery through the requested k.

    Computes triangle-freeness, twin-freeness, anti-triangle existence,
    the common-neighbor properties and existential completeness for
    k = 1..k_max, maximality, circular recognition, and the combined 3ECTF
    verdict when k_max >= 3.
    """
    if k_max < 1:
        raise ParameterError(f"certify needs k_max >= 1, got {k_max}")
    report, tf = _triangle_gate(g)
    if not tf:
        return report
    _timed(report, "twin_free", lambda: is_twin_free(g))
    _timed(report, "anti_triangle", lambda: has_anti_triangle(g))
    for k in range(1, k_max + 1):
        _timed(report, f"adj_{k}", lambda k=k: satisfies_adj_k(g, k))
    adj2 = report.verdict("adj_2") if k_max >= 2 else satisfies_adj_k(g, 2)[0]
    report.add("maximal_triangle_free", adj2)
    for k in range(1, k_max + 1):
        _timed(report, f"e_{k}", lambda k=k: satisfies_e_k(g, k))
    _timed(report, "is_circular", lambda: (recognize_circular(g), None))
    if k_max >= 3:
        _add_3ectf_verdict(report)
    return report


# ---------------------------------------------------------------------------
# multiplicities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityResult:
    """Minimum common-neighbor count over independent k-sets.

    value is None when no independent k-set exists (exact mode) or none was
    sampled; in sampled mode the value is only an upper bound for the true
    minimum and the generator name and trial count are recorded.
    """

    k: int
    value: Optional[int]
    witness: Optional[tuple]
    exact: bool
    trials: Optional[int] = None
    seed: Optional[int] = None
    rng: Optional[str] = None

    @property
    def no_independent_set(self) -> bool:
        return self.value is None


def multiplicity(
    g: Graph,
    k: int,
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
) -> MultiplicityResult:
    """Smallest number of common neighbors over independent k-sets.

    Exact mode scans all independent k-sets (lexicographically; the witness
    is the first achieving the minimum).  Sampled mode draws uniform k-sets
    with a seeded PCG64 generator, discards dependent ones, and reports the
    sample minimum as an upper bound.
    """
    if k < 1:
        raise ParameterError(f"multiplicity needs k >= 1, got {k}")
    if mode not in ("exact", "sampled"):
        raise ParameterError(f"multiplicity mode must be exact or sampled, got {mode}")
    if mode == "sampled":
        return _multiplicity_sampled(g, k, trials, seed)
    value_witness = _multiplicity_exact(g, k)
    if value_witness is None:
        return MultiplicityResult(k, None, None, exact=True)
    value, witness = value_witness
    return MultiplicityResult(k, value, witness, exact=True)


def _multiplicity_exact(g: Graph, k: int) -> Optional[tuple[int, tuple]]:
    if k == 1:
        degrees = g.degrees()
        if not degrees:
            return None
        v = int(np.argmin(degrees))
        return degrees[v], (v,)
    if k > 3:
        return _mu_generic(g, k)
    cnt = _Counts(g)
    best = None
    for blk in (cnt.pair_blocks() if k == 2 else cnt.triple_blocks()):
        counts = np.where(blk.independent(), blk.common, np.inf)
        pos = np.unravel_index(int(np.argmin(counts)), counts.shape)
        if counts[pos] < np.inf and (best is None or counts[pos] < best[0]):
            best = (int(counts[pos]), blk.members(*(int(i) for i in pos)))
            if best[0] == 0:
                break
    return best


def _mu_generic(g: Graph, k: int) -> Optional[tuple[int, tuple]]:
    best: Optional[tuple[int, tuple]] = None
    for s_set, common in _independent_sets(g, k):
        count = common.bit_count()
        if best is None or count < best[0]:
            best = (count, s_set)
            if count == 0:
                break
    return best


def _multiplicity_sampled(
    g: Graph, k: int, trials: int, seed: int
) -> MultiplicityResult:
    if trials < 1:
        raise ParameterError(f"sampled multiplicity needs trials >= 1, got {trials}")
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = g.rows
    n = g.order
    best = None
    if n >= k:
        for _ in range(trials):
            pick = tuple(sorted(int(v) for v in rng.choice(n, size=k, replace=False)))
            if not _independent(rows, pick):
                continue
            cnt = common_neighbors(g, pick).bit_count()
            if best is None or cnt < best[0]:
                best = (cnt, pick)
    value, witness = best or (None, None)
    return MultiplicityResult(
        k, value, witness, exact=False, trials=trials, seed=seed, rng="PCG64"
    )


# ---------------------------------------------------------------------------
# hypercube center construction and common-neighbor count formula
# ---------------------------------------------------------------------------


def triangle_center(x: int, y: int, z: int, a: int, b: int, c: int) -> int:
    """A vector within distance a of x, b of y, and c of z, built from the
    coordinate-wise majority vote with a weight-reduction step.

    Requires d(x,y) <= a+b, d(x,z) <= a+c, d(y,z) <= b+c; the violated
    inequality is named otherwise.
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if val < 0:
            raise ParameterError(f"radius {name} must be >= 0, got {val}")
    dxy, dxz, dyz = (x ^ y).bit_count(), (x ^ z).bit_count(), (y ^ z).bit_count()
    if dxy > a + b:
        raise ParameterError(f"d(x,y) = {dxy} exceeds a+b = {a + b}")
    if dxz > a + c:
        raise ParameterError(f"d(x,z) = {dxz} exceeds a+c = {a + c}")
    if dyz > b + c:
        raise ParameterError(f"d(y,z) = {dyz} exceeds b+c = {b + c}")
    maj = (x & y) | (x & z) | (y & z)
    shifted = [x ^ maj, y ^ maj, z ^ maj]
    bounds = [a, b, c]
    over = [i for i in range(3) if shifted[i].bit_count() > bounds[i]]
    if not over:
        return maj
    # the premises leave room for at most one violated bound
    i = over[0]
    excess = shifted[i].bit_count() - bounds[i]
    v = 0
    rest = shifted[i]
    for _ in range(excess):
        lsb = rest & -rest
        v |= lsb
        rest ^= lsb
    return v ^ maj


def mu2_hypercube_formula(k: int, t: int, parity_case: str) -> int:
    """Lower bound for the number of common neighbors of two vertices of the
    (3k+1)-dimensional construction at distance 2t (even) or 2t-1 (odd):
    flip 2k+1-t of the agreeing coordinates (2k+2-t in the odd case, with a
    factor 2 for the uneven split) and divide the disagreeing ones evenly.
    """
    if not (1 <= t <= k):
        raise ParameterError(f"need 1 <= t <= k, got t={t}, k={k}")
    if parity_case == "even":
        return comb(3 * k + 1 - 2 * t, k - t) * comb(2 * t, t)
    if parity_case == "odd":
        return 2 * comb(3 * k + 1 - (2 * t - 1), k - t) * comb(2 * t - 1, t)
    raise ParameterError(f"parity_case must be 'even' or 'odd', got {parity_case!r}")
