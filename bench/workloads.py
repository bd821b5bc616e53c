"""The benchmark's workloads: seeded inputs, the operations of one round,
and the known answer each operation is gated against.

The benchmark picks a workload's inputs from the seed (untimed); the
workload's set-up builds them through the library, as a user would, and
returns the operations of one round.  Every operation calls into
`ectf` through a module attribute looked up at call time, so the traced run
sees it, and carries a gate from `gate` that re-checks its output.

`small=True` shrinks every instance for the benchmark's own tests; the
benchmark itself always runs the full size.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Optional

import gate
from ectf import cli, families, graph6, isomorphism, shattered, verify

# Frozen inputs: seeds s with random_matrix(8, 8, s) shattered, keyed by
# their position (#01, #02, ...) among the first twenty hits of the scan
# trial_seeds(20260811, 8_000_000) that the acceptance suite pins.
FROZEN_8X8 = {
    1: 7888506647780196367,
    2: 3910471174486607536,
    3: 3078312236809924171,
    9: 4993212412157669368,
}
# Pinned answers.  (#01, #09) is distinct too, but its search backtracks for
# about 20 s, too long to repeat in a round, so it is left out.
FROZEN_PAIRS = (((1, 3), True), ((2, 9), True))

CERTIFIED = {
    "triangle_free": True, "twin_free": True, "adj_1": True, "adj_2": True, "adj_3": True,
    "e_1": True, "e_2": True, "e_3": True, "is_circular": None, "is_3ectf": True,
}
# mu_3 of the certified hypercube members: the witness shows at most one
# common neighbour, and adj_3 (which they satisfy) gives at least one
MU3 = 1
# the family table at --max-size 1100: every row at its smallest parameters
TABLE = {
    "albert-cycles": (16, 2), "albert-matrix": (16, 2), "erdos-hypercube": (16, 2),
    "hypercube-layers": (16, 2), "hypercube-ckj": (16, 2), "twisted-four": (32, 2),
    "twisted-tournament-hypercube": (32, 2),
}


@dataclass
class Op:
    """One timed call; `check` returns the problems found in its output."""

    name: str
    stage: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Optional[Callable[[], None]] = None


def run_cli(*argv) -> tuple[int, str]:
    """`ectf ARGV` in this process; returns the exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def seed_stream(seed: int, label: str):
    """Endless 63-bit input seeds, determined by the run's seed and a label."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.getrandbits(63)


def _expect_code(out, code: int) -> list:
    return [] if out[0] == code else [f"exit code {out[0]}, expected {code}"]


# -- certify-corpus -------------------------------------------------------------


def matrix_seeds(seed: int, label: str, hits_needed: int, misses_needed: int):
    """Seeds s of the first seeded 32x32 matrices (random_matrix(32, 32, s)
    draws) that the gate's own check finds shattered and not shattered.
    The benchmark picks its inputs; the program only builds them."""
    hits, misses = [], []
    for s in seed_stream(seed, label):
        (hits if gate.matrix_shattered(gate.seeded_matrix(32, 32, s)) else misses).append(s)
        if len(hits) >= hits_needed and len(misses) >= misses_needed:
            return hits[:hits_needed], misses[:misses_needed]


def certify_inputs(seed: int, small: bool):
    return matrix_seeds(seed, "certify-corpus", 1, 1)


def certify_setup(work: str, inputs, small: bool) -> list:
    t4 = shattered.canonical_tournaments()[0]
    (hit,), (miss,) = ([shattered.random_matrix(32, 32, s) for s in seeds] for seeds in inputs)
    circ_n = 5 if small else 40
    circular = {"triangle_free": True, "adj_3": True, "e_2": True, "e_3": False,
                "is_circular": circ_n, "is_3ectf": False}
    not_shattered = {"triangle_free": True, "e_3": False, "is_3ectf": False}
    corpus = [
        ("albert_cycles", families.albert_cycles(4 if small else 8), CERTIFIED),
        ("erdos_hypercube", families.erdos_hypercube(1 if small else 2), CERTIFIED),
        ("hypercube_layers", families.hypercube_layers(1 if small else 2, 4), CERTIFIED),
        ("hypercube_ckj", families.hypercube_ckj(1 if small else 2, 1), CERTIFIED),
        ("twisted_tournament_hypercube", families.twisted_tournament_hypercube(t4, 2, 1), CERTIFIED),
        ("circular", families.circular(circ_n), circular),
        ("albert_matrix_shattered", families.albert_matrix(hit), CERTIFIED),
        ("albert_matrix_not_shattered", families.albert_matrix(miss), not_shattered),
    ]
    ops = []
    for name, g, expected in corpus:
        path = os.path.join(work, f"{name}.g6")
        graph6.write_graph6_file(path, [g])
        ops += _certify_ops(name, g, path, expected)
    ops.append(Op("table", "table", lambda: run_cli("table", "--max-size", 1100, "--format", "json"),
                  _check_table))
    return ops


def _certify_ops(name, g, path, expected) -> list:
    adj = gate.Neighbours(g.rows)
    holds = expected["is_3ectf"]

    def check_report(out) -> list:
        return _expect_code(out, 0 if holds else 1) + gate.check_report(adj, json.loads(out[1]), expected)

    def check_e_prime(res) -> list:
        return gate.check_e_prime(adj, 3, res[0], res[1], holds)

    return [
        Op(f"check {name}", "check", lambda: run_cli("check", path, "--format", "json"), check_report),
        Op(f"e_3' {name}", "e3_prime", lambda: verify.satisfies_e_k_prime(g, 3), check_e_prime),
    ]


def _check_table(out) -> list:
    result = json.loads(out[1])
    problems = _expect_code(out, 0) + ([] if result["all_pass"] else ["table: a row fails"])
    measured = {
        row["name"]: (row["cells"]["vertices"]["measured"], row["cells"]["mu2"]["measured"])
        for row in result["rows"]
        if not row["skipped"]
    }
    if measured != TABLE:
        problems.append(f"table: measured {measured}, expected {TABLE}")
    return problems


# -- hypercube-scale -------------------------------------------------------------


def hypercube_setup(work: str, inputs, small: bool) -> list:
    # fixed family members: nothing comes from the seed
    if small:
        spec, dim, dists = ("erdos-hypercube", "k=2"), 7, (5, 6, 7)
        mu2_k, scan_graph, mu3_graph = 1, families.hypercube_layers(1, 4), families.hypercube_layers(1, 4)
    else:
        spec, dim, dists = ("hypercube-ckj", "k=3", "j=2"), 11, (7, 9, 10, 11)
        mu2_k, scan_graph, mu3_graph = 3, families.hypercube_layers(2, 16), families.hypercube_layers(2, 8)
    mu2_graph = families.erdos_hypercube(mu2_k)
    out_path = os.path.join(work, "construct.g6")
    mu2_path = os.path.join(work, "mu2.g6")
    mu3_path = os.path.join(work, "mu3.g6")
    graph6.write_graph6_file(mu2_path, [mu2_graph])
    graph6.write_graph6_file(mu3_path, [mu3_graph])

    @cache
    def expected_graph():
        matrix = gate.cayley_matrix(dim, dists)
        return gate.graph6_bytes(matrix) + b"\n", gate.matrix_rows(matrix)

    def remove_output():
        for p in (out_path, out_path + ".labels"):
            if os.path.exists(p):
                os.remove(p)

    def check_construct(out) -> list:
        n, degree = 1 << dim, sum(comb(dim, d) for d in dists)
        stats = json.loads(out[1])
        problems = _expect_code(out, 0)
        if (stats["vertices"], stats["edges"], stats["degrees"]) != (n, n * degree // 2, {str(degree): n}):
            problems.append(f"construct: stats {stats} disagree with the formulas")
        with open(out_path, "rb") as fh:
            if fh.read() != expected_graph()[0]:
                problems.append("construct: graph6 output differs from the reference encoding")
        return problems

    state = {}

    def read_back():
        state["g"] = graph6.read_graph6_file(out_path)[0]
        return state["g"]

    def check_read(g) -> list:
        return [] if g.rows == expected_graph()[1] else ["read: decoded adjacency differs from the graph written"]

    scan_adj = gate.Neighbours(scan_graph.rows)
    mu2_adj = gate.Neighbours(mu2_graph.rows)
    mu3_adj = gate.Neighbours(mu3_graph.rows)
    fast_path = {"triangle_free": True, "adj_3": True, "twin_free": True, "is_circular": None, "is_3ectf": True}
    return [
        Op(f"construct {' '.join(spec)}", "construct",
           lambda: run_cli("construct", *spec, "--out", out_path, "--format", "json"), check_construct,
           prepare=remove_output),
        Op("read back", "read", read_back, check_read),
        Op("triangle_free", "verify", lambda: verify.is_triangle_free(state["g"]),
           lambda res: [] if res == (True, None) else [f"triangle_free: {res!r}"]),
        Op("is_3ectf", "verify", lambda: verify.is_3ectf(scan_graph),
           lambda rep: gate.check_report(scan_adj, json.loads(rep.to_json()), fast_path)),
        Op("mu --k 2", "mu", lambda: run_cli("mu", mu2_path, "--k", 2, "--format", "json"),
           lambda out: _expect_code(out, 0) + gate.check_mu(mu2_adj, json.loads(out[1]), 2,
                                                            comb(2 * mu2_k, mu2_k))),
        Op("mu --k 3", "mu", lambda: run_cli("mu", mu3_path, "--k", 3, "--format", "json"),
           lambda out: _expect_code(out, 0) + gate.check_mu(mu3_adj, json.loads(out[1]), 3, MU3)),
    ]


# -- search-dedupe -----------------------------------------------------------------


def search_inputs(seed: int, small: bool):
    hits, _ = matrix_seeds(seed, "search-dedupe", 3 if small else 20, 0)
    shatter = seed_stream(seed, "shatter")
    return hits, [next(shatter) for _ in range(3)]


def search_setup(work: str, inputs, small: bool) -> list:
    hits, shatter_seeds = inputs
    # each graph with its neighbour sets, whose invariant the gate caches
    distinct = [_with_neighbours(families.albert_matrix(shattered.random_matrix(32, 32, s))) for s in hits]
    frozen = {i: _with_neighbours(families.albert_matrix(shattered.random_matrix(8, 8, s)))
              for i, s in FROZEN_8X8.items()}
    # A failed trial takes the slow witness scan, whose cost varies tenfold
    # with the matrix: 48x48 (a fifth of trials fail) is left out and the
    # trial counts kept small, so that the seed does not swing the round
    runs = (
        [("matrix", "32x32", 4), ("matrix", "64x64", 1), ("tournament", "7", 50)]
        if small
        else [("matrix", "32x32", 30), ("matrix", "64x64", 10), ("tournament", "7", 1000)]
    )
    ops = [_shatter_op(work, kind, dims, trials, s) for (kind, dims, trials), s in zip(runs, shatter_seeds)]
    pairs = [(g, h, False, f"32x32 #{i} #{i + 1}") for i, (g, h) in enumerate(zip(distinct, distinct[1:]))]
    pairs += [(frozen[a], frozen[b], iso, f"8x8 #{a:02d} #{b:02d}") for (a, b), iso in FROZEN_PAIRS]
    for (g, adj_g), (h, adj_h), iso, label in pairs:
        ops.append(Op(f"isomorphic {label}", "dedupe",
                      lambda g=g, h=h: isomorphism.are_isomorphic(g, h),
                      lambda pi, a=adj_g, b=adj_h, iso=iso: gate.check_isomorphism(a, b, pi, iso)))
    return ops


def _with_neighbours(g):
    return g, gate.Neighbours(g.rows)


def _shatter_op(work: str, kind: str, dims: str, trials: int, seed: int) -> Op:
    out_path = os.path.join(work, f"shatter-{kind}-{dims}.txt")

    @cache
    def expected():
        """(fraction, first hit seed, its file text) from the gate's own checks."""
        texts = []
        for s in gate.trial_seeds(seed, trials):
            if kind == "matrix":
                m, n = map(int, dims.split("x"))
                mat = gate.seeded_matrix(m, n, s)
                if gate.matrix_shattered(mat):
                    texts.append((s, gate.matrix_text(mat)))
            else:
                beats = gate.seeded_tournament(int(dims), s)
                if gate.tournament_shattered(beats):
                    texts.append((s, gate.tournament_text(beats)))
        first = texts[0] if texts else (None, None)
        return len(texts) / trials, first[0], first[1]

    def remove_output():
        if os.path.exists(out_path):
            os.remove(out_path)

    def check(out) -> list:
        payload = json.loads(out[1])
        fraction, first_seed, text = expected()
        problems = _expect_code(out, 0)
        if payload["fraction"] != fraction or payload["emitted_seed"] != first_seed:
            problems.append(f"shatter {kind} {dims}: {payload} disagrees with fraction {fraction}, "
                            f"first hit {first_seed}")
        written = open(out_path, encoding="ascii").read() if os.path.exists(out_path) else None
        if written != text:
            problems.append(f"shatter {kind} {dims}: written instance differs from the first hit")
        return problems

    return Op(f"shatter {kind} {dims} x{trials}", "shatter",
              lambda: run_cli("shatter", kind, "--dims", dims, "--trials", trials, "--seed", seed,
                              "--out", out_path, "--format", "json"),
              check, prepare=remove_output)


# name -> (inputs(seed, small), set-up(work directory, inputs, small) -> the
# operations of a round); only the set-up is timed
WORKLOADS = {
    "certify-corpus": (certify_inputs, certify_setup),
    "hypercube-scale": (lambda seed, small: None, hypercube_setup),
    "search-dedupe": (search_inputs, search_setup),
}
