"""Correctness gate: independent re-checks of every answer the benchmark gets.

Nothing here calls into `ectf`.  Graphs are turned into plain adjacency
sets once, and every verdict, value, witness and bijection is checked with
plain-set code or, for whole-structure facts (graph6 bytes, shattered
matrices and tournaments), with a separate numpy formulation.  Each check
returns a list of problems; an empty list means the answer is correct.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np


class Neighbours:
    """Neighbour sets of a graph given by bitset rows (bit v of rows[u] set
    iff u ~ v), built per vertex on demand, so that the gate holds no more
    memory than the program's own rows."""

    def __init__(self, rows):
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def profile(self) -> list:
        """An isomorphism invariant: for each vertex, its sorted
        common-neighbour counts with every vertex, and these rows sorted."""
        nbrs = [self[u] for u in range(len(self))]
        return sorted(tuple(sorted(len(a & b) for b in nbrs)) for a in nbrs)

    def __getitem__(self, u: int) -> frozenset:
        r, v, nbrs = self.rows[u], 0, set()
        while r:
            if r & 1:
                nbrs.add(v)
            r >>= 1
            v += 1
        return frozenset(nbrs)


def _independent(adj, verts) -> bool:
    return all(v not in adj[u] for u, v in combinations(verts, 2))


def _common(adj, verts) -> set:
    verts = list(verts)
    if not verts:
        return set(range(len(adj)))
    acc = set(adj[verts[0]])
    for v in verts[1:]:
        acc &= adj[v]
    return acc


def _valid_vertices(adj, verts) -> bool:
    return all(isinstance(v, int) and 0 <= v < len(adj) for v in verts) and len(set(verts)) == len(
        verts
    )


# -- witnesses of the certification battery --------------------------------


def check_witness(adj, check: str, witness) -> list[str]:
    """Re-validate the witness a named check returned (failing checks give
    a violation, anti_triangle and is_3ectf give their own kinds)."""
    bad = [f"{check}: witness {witness!r} does not show a violation"]
    if check == "triangle_free":
        u, v, w = witness
        return [] if v in adj[u] and w in adj[u] and w in adj[v] else bad
    if check == "twin_free":
        u, v = witness
        return [] if u != v and adj[u] == adj[v] else bad
    if check == "anti_triangle":
        return [] if _valid_vertices(adj, witness) and _independent(adj, witness) else bad
    if check.startswith("adj_"):
        k = int(check[4:])
        ok = (
            1 <= len(witness) <= k
            and _valid_vertices(adj, witness)
            and _independent(adj, witness)
            and not _common(adj, witness)
        )
        return [] if ok else bad
    if check.startswith("e_") and not check.endswith("_prime"):
        k = int(check[2:])
        a_set, b_set = witness
        return [] if len(a_set) <= k and _unattached(adj, a_set, b_set) else bad
    raise ValueError(f"no witness check for {check}")


def _unattached(adj, a_set, b_set) -> bool:
    """B inside A is independent and no vertex outside A is adjacent to all
    of B and to none of A minus B."""
    a_set, b_set = list(a_set), list(b_set)
    if not _valid_vertices(adj, a_set) or not set(b_set) <= set(a_set):
        return False
    if not _independent(adj, b_set):
        return False
    rest = set(a_set) - set(b_set)
    for z in range(len(adj)):
        if z in a_set:
            continue
        if set(b_set) <= adj[z] and not (rest & adj[z]):
            return False
    return True


def check_e_prime(adj, k: int, verdict: bool, witness, expected: bool) -> list[str]:
    problems = [] if verdict == expected else [f"e_{k}': verdict {verdict}, expected {expected}"]
    if verdict:
        return problems
    kind, *rest = witness
    if kind == "attach":
        a_set, b_set = rest
        ok = len(a_set) == k and _independent(adj, a_set) and _unattached(adj, a_set, b_set)
    elif kind == "extend":
        (s_set,) = rest
        ok = len(s_set) < k and _valid_vertices(adj, s_set) and _independent(adj, s_set)
        ok = ok and not _extends(adj, set(s_set), k - len(s_set))
    else:
        ok = False
    return problems + ([] if ok else [f"e_{k}': witness {witness!r} does not show a violation"])


def _extends(adj, chosen: set, need: int) -> bool:
    if need == 0:
        return True
    blocked = set(chosen)
    for v in chosen:
        blocked |= adj[v]
    for v in range(len(adj)):
        if v not in blocked and _extends(adj, chosen | {v}, need - 1):
            return True
    return False


def check_report(adj, payload: dict, expected: dict) -> list[str]:
    """Gate one `ectf check --format json` report.

    `expected` maps check names to known verdicts; every returned witness
    is re-validated, and e_3 must agree with is_3ectf.
    """
    problems = []
    checks = payload["checks"]
    if payload["order"] != len(adj) or payload["edges"] != sum(map(len, adj)) // 2:
        problems.append(f"order/edges {payload['order']}/{payload['edges']} disagree with the input")
    for name, want in expected.items():
        got = checks.get(name, {}).get("verdict")
        if got != want:
            problems.append(f"{name}: verdict {got!r}, expected {want!r}")
    for name, res in checks.items():
        if res["witness"] is None or name in ("is_3ectf", "maximal_triangle_free", "is_circular"):
            continue
        if name == "anti_triangle" or not res["verdict"]:
            problems += check_witness(adj, name, res["witness"])
    if "e_3" in checks and checks["e_3"]["verdict"] != checks["is_3ectf"]["verdict"]:
        problems.append("e_3 disagrees with is_3ectf")
    reason = checks.get("is_3ectf", {}).get("witness")
    if reason is not None:
        kind, detail = reason
        source = {"uncovered": "adj_3", "twins": "twin_free", "triangle": "triangle_free"}.get(kind)
        if kind == "circular":
            ok = detail == checks["is_circular"]["verdict"]
        else:
            ok = source is not None and checks[source]["witness"] == detail
        if not ok:
            problems.append(f"is_3ectf: reason {reason!r} does not match the reports")
    return problems


# -- multiplicities ------------------------------------------------------------


def check_mu(adj, payload: dict, k: int, value: int) -> list[str]:
    """The value must be the known one, and the witness an independent k-set
    with exactly that many common neighbours."""
    problems = []
    if payload.get("k") != k or payload.get("value") != value or payload.get("exact") is not True:
        problems.append(f"mu_{k}: got {payload!r}, expected value {value}")
    w = payload.get("witness") or []
    if not (len(w) == k and _valid_vertices(adj, w) and _independent(adj, w)):
        problems.append(f"mu_{k}: witness {w!r} is not an independent {k}-set")
    elif len(_common(adj, w)) != payload.get("value"):
        problems.append(f"mu_{k}: witness {w!r} has {len(_common(adj, w))} common neighbours")
    return problems


# -- isomorphism ---------------------------------------------------------------


def check_bijection(adj_g, adj_h, pi) -> list[str]:
    n = len(adj_g)
    if pi is None or sorted(pi) != list(range(n)) or len(adj_h) != n:
        return [f"isomorphism: {pi!r} is not a bijection"]
    for u in range(n):
        if {pi[v] for v in adj_g[u]} != set(adj_h[pi[u]]):
            return [f"isomorphism: bijection breaks at vertex {u}"]
    return []


def check_isomorphism(adj_g, adj_h, pi, expect_isomorphic: bool) -> list[str]:
    """A found bijection is re-checked edge by edge; a 'distinct' answer
    must match the pinned one and be confirmed by an invariant that differs."""
    if pi is not None:
        problems = check_bijection(adj_g, adj_h, pi)
        if not expect_isomorphic:
            problems.append("isomorphism: found a bijection for a pair pinned as distinct")
        return problems
    if expect_isomorphic:
        return ["isomorphism: no bijection for a pair pinned as isomorphic"]
    if adj_g.profile == adj_h.profile:
        return ["isomorphism: 'distinct' not confirmed, the common-neighbour profiles agree"]
    return []


# -- graph6 ------------------------------------------------------------------


def cayley_matrix(dim: int, dists) -> np.ndarray:
    """Adjacency of the Cayley graph on Z_2^dim: x ~ y iff the Hamming
    distance of x and y lies in dists (built in row blocks to bound memory)."""
    n = 1 << dim
    ids = np.arange(n, dtype=np.uint32)
    member = np.zeros(dim + 1, dtype=bool)
    member[sorted(dists)] = True
    adj = np.empty((n, n), dtype=bool)
    for lo in range(0, n, 256):
        adj[lo : lo + 256] = member[np.bitwise_count(ids[lo : lo + 256, None] ^ ids[None, :])]
    return adj


def matrix_rows(adj: np.ndarray) -> tuple:
    """Bitset rows of a boolean adjacency matrix."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def graph6_bytes(adj: np.ndarray) -> bytes:
    """graph6 encoding of a boolean adjacency matrix (n < 258048): size
    header, then the upper triangle column by column, six bits per byte."""
    n = adj.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    pad = np.zeros(-(n * (n - 1) // 2) % 6, dtype=bool)
    bits = np.concatenate([adj[:v, v] for v in range(1, n)] + [pad]).reshape(-1, 6).astype(np.uint8)
    body = bits @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return head + body.tobytes()


# -- shattered structures -------------------------------------------------------


def trial_seeds(seed: int, trials: int) -> list[int]:
    """The documented per-trial seeds of a Monte-Carlo run (PCG64 draws)."""
    return [int(s) for s in np.random.Generator(np.random.PCG64(seed)).integers(0, 1 << 63, size=trials)]


def seeded_matrix(m: int, n: int, seed: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=(m, n), dtype=np.uint8)


def _triples_cover(mat: np.ndarray) -> bool:
    """Every 3 rows show all four complement-pair classes of 3-bit column
    patterns (class of p is min(p, 7 - p))."""
    rows = mat.shape[0]
    idx = np.array(list(combinations(range(rows), 3)), dtype=np.intp)
    pat = 4 * mat[idx[:, 0]] + 2 * mat[idx[:, 1]] + mat[idx[:, 2]]
    cls = np.minimum(pat, 7 - pat)
    seen = np.zeros((len(idx), 4), dtype=bool)
    for c in range(4):
        seen[:, c] = (cls == c).any(axis=1)
    return bool(seen.all())


def matrix_shattered(mat: np.ndarray) -> bool:
    return min(mat.shape) >= 3 and _triples_cover(mat) and _triples_cover(mat.T.copy())


def seeded_tournament(v: int, seed: int) -> list[set]:
    """beats[i]: the vertices i dominates; pair (i, j), i < j, in order,
    points i -> j when its draw is 1."""
    flips = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=v * (v - 1) // 2, dtype=np.uint8)
    beats = [set() for _ in range(v)]
    for (i, j), f in zip(combinations(range(v), 2), flips.tolist()):
        if f:
            beats[i].add(j)
        else:
            beats[j].add(i)
    return beats


def tournament_shattered(beats: list[set]) -> bool:
    """Every vertex triple extends to a 4-set in which each unordered pair
    lies on exactly one directed 2-path."""
    v = len(beats)

    def one_path_each(quad) -> bool:
        for x, y in combinations(quad, 2):
            paths = sum(
                (z in beats[x] and y in beats[z]) + (z in beats[y] and x in beats[z])
                for z in quad
                if z not in (x, y)
            )
            if paths != 1:
                return False
        return True

    return all(
        any(one_path_each(triple + (w,)) for w in range(v) if w not in triple)
        for triple in combinations(range(v), 3)
    )


def matrix_text(mat: np.ndarray) -> str:
    return f"{mat.shape[0]} {mat.shape[1]}\n" + "".join("".join(map(str, r)) + "\n" for r in mat.tolist())


def tournament_text(beats: list[set]) -> str:
    v = len(beats)
    arcs = [(i, j) if j in beats[i] else (j, i) for i, j in combinations(range(v), 2)]
    return f"{v}\n" + "".join(f"{i} {j}\n" for i, j in arcs)
