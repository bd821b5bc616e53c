"""Graph isomorphism by individualization and refinement.

`are_isomorphic` follows the scheme of McKay & Piperno, "Practical graph
isomorphism II" (J. Symb. Comput. 60, 2014), without automorphism pruning
or a canonical form.  The two graphs are coloured jointly, so that a colour
means the same thing in both:

* the initial colour of a vertex is its degree and, up to
  `_PROFILE_MAX_ORDER` vertices, the sorted multiset of its common-neighbour
  counts with every other vertex, read off one product M·M;
* refinement splits colours by the multiset of neighbour colours until the
  partition is equitable (1-WL), and gives up on the branch as soon as the
  colour-class sizes of the two graphs differ;
* while a class holds more than one vertex, the first g-vertex of the
  smallest such class (lowest colour on ties) is individualized against
  each h-vertex of that class in increasing order, and both graphs are
  refined again.

A discrete partition pairs each vertex of g with one of h; that bijection
is checked against every arc before it is returned.  The search is
deterministic: for fixed inputs the same bijection is returned every time.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .graphs import Graph, unpack_rows

_PROFILE_MAX_ORDER = 600

# adjacency bits unpacked at once when listing arcs
_BLOCK_BITS = 1 << 20


def _initial_colours(g: Graph, h: Graph) -> np.ndarray:
    """Joint colours 0..k-1 of g's vertices then h's: the degree plus, on
    small graphs, the sorted common-neighbour counts with every other vertex."""
    n = g.order
    if n > _PROFILE_MAX_ORDER:
        return _rank_rows(np.array(g.degrees() + h.degrees())[:, None])
    profiles = []
    for graph in (g, h):
        m = unpack_rows(graph.packed(), n).astype(np.float32)
        # exact: every count is at most n < 2^24; the diagonal holds the degree
        common = (m @ m).astype(np.int64)
        others = np.sort(common[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=1)
        profiles.append(np.column_stack([np.diagonal(common), others]))
    return _rank_rows(np.vstack(profiles))


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Index of each row of a non-negative integer matrix among its
    distinct rows, in lexicographic order.  Rows are compared as big-endian
    byte strings, which sorts them as numbers and much faster than
    `np.unique(..., axis=0)`."""
    data = np.ascontiguousarray(rows, dtype=">u4")
    keys = data.view(np.dtype((np.void, data.itemsize * data.shape[1]))).reshape(-1)
    return np.unique(keys, return_inverse=True)[1].reshape(-1)


def _balanced(colours: np.ndarray, n: int) -> bool:
    """Whether g's vertices (the first n) and h's have equal colour-class sizes."""
    k = int(colours.max()) + 1
    return np.array_equal(np.bincount(colours[:n], minlength=k), np.bincount(colours[n:], minlength=k))


class _Joint:
    """The arcs of g and h on one vertex set: g is 0..n-1, h is n..2n-1."""

    def __init__(self, g: Graph, h: Graph):
        self.n = n = g.order
        step = max(1, _BLOCK_BITS // n)
        src, dst = [], []
        for offset, graph in ((0, g), (n, h)):
            for lo in range(0, n, step):
                s, d = np.nonzero(unpack_rows(graph.packed()[lo : lo + step], n))
                src.append(s + (lo + offset))
                dst.append(d + offset)
        # sorted by source, then target
        self.src = np.concatenate(src).astype(np.int64)
        self.dst = np.concatenate(dst).astype(np.int64)
        deg = np.bincount(self.src, minlength=2 * n)
        self.width = 1 + int(deg.max(initial=0))
        # column of each arc in its source's signature row
        self.slot = np.arange(len(self.src)) - (np.cumsum(deg) - deg)[self.src] + 1

    def refine(self, colours: np.ndarray) -> Optional[np.ndarray]:
        """The coarsest equitable partition finer than `colours` (0..k-1),
        renumbered 0..k'-1; None as soon as the two graphs' colour-class
        sizes differ."""
        count = int(colours.max()) + 1
        while True:
            # each vertex's own colour, then its neighbours' colours (plus
            # one, after zero padding) sorted; same-coloured vertices have
            # the same degree, so their rows align
            keys = self.src * count + colours[self.dst]
            keys.sort()
            sig = np.zeros((2 * self.n, self.width), dtype=np.int64)
            sig[:, 0] = colours
            sig[self.src, self.slot] = keys % count + 1
            new = _rank_rows(sig)
            if not _balanced(new, self.n):
                return None
            k = int(new.max()) + 1
            if k == count:
                return new
            colours, count = new, k

    def children(self, colours: np.ndarray) -> Iterator[np.ndarray]:
        """Refined colourings with the first g-vertex of the target class
        individualized against each h-vertex of that class in turn."""
        n = self.n
        sizes = np.bincount(colours[:n])
        target = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        v = int(np.flatnonzero(colours[:n] == target)[0])
        for w in np.flatnonzero(colours[n:] == target):
            split = colours.copy()
            split[v] = split[n + w] = len(sizes)
            refined = self.refine(split)
            if refined is not None:
                yield refined

    def is_isomorphism(self, pi: np.ndarray) -> bool:
        """Whether pi maps g's arcs exactly onto h's."""
        n, in_g = self.n, self.src < self.n
        mapped = np.sort(pi[self.src[in_g]] * n + pi[self.dst[in_g]])
        return np.array_equal(mapped, (self.src[~in_g] - n) * n + self.dst[~in_g] - n)


def are_isomorphic(g: Graph, h: Graph) -> Optional[list[int]]:
    """A vertex bijection pi with adj_g(u,v) <=> adj_h(pi(u),pi(v)), or None.

    pi is returned as a list: pi[u] is the image of u.
    """
    if g.order != h.order:
        return None
    n = g.order
    if n == 0:
        return []
    if g.edge_count != h.edge_count:
        return None
    if sorted(g.degrees()) != sorted(h.degrees()):
        return None
    colours = _initial_colours(g, h)
    if not _balanced(colours, n):
        return None
    joint = _Joint(g, h)
    root = joint.refine(colours)
    if root is None:
        return None

    # depth-first over individualizations, with an explicit stack so that
    # deep searches (large symmetric graphs) need no recursion
    stack = [iter([root])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif int(node.max()) + 1 == n:
            image = np.empty(n, dtype=np.int64)
            image[node[n:]] = np.arange(n)
            pi = image[node[:n]]
            if joint.is_isomorphism(pi):
                return pi.tolist()
        else:
            stack.append(joint.children(node))
    return None
