"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each `ectf` module from outside
the package.  A function is replaced at every module attribute that refers
to it, so calls between modules are caught too: `ectf.verify.are_isomorphic`
is wrapped where `recognize_circular` looks it up, and `ectf.cli.certify`
where the command line looks it up.  Hot helpers (bit iteration, the twist
map, Graph methods) stay unwrapped: a span around each of their calls would
cost more than the call.

Spans are kept in memory (name, layer, start, end, parent, phase and a few
counters read off the arguments and the result) and written out when the
run ends.  A span's self time is its duration minus the time its direct
children cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import comb
from statistics import median

LAYERS = ("cli", "families", "graphs", "graph6", "verify", "isomorphism", "shattered", "table")

TRACED = {
    "cli": ("main", "build_family", "cmd_construct", "cmd_check", "cmd_mu", "cmd_table", "cmd_shatter"),
    "families": (
        "albert_cycles", "albert_matrix", "circular", "erdos_hypercube", "hypercube_ckj",
        "hypercube_layers", "twisted_four", "twisted_tournament", "twisted_tournament_hypercube",
    ),
    "graphs": ("build_cayley", "common_neighbors", "degree_stats"),
    "graph6": ("encode_graph6", "decode_graph6", "read_graph6_file", "write_graph6_file"),
    "verify": (
        "is_triangle_free", "is_twin_free", "has_anti_triangle", "satisfies_adj_k", "satisfies_e_k",
        "satisfies_e_k_prime", "recognize_circular", "certify", "is_3ectf", "multiplicity",
    ),
    "isomorphism": ("are_isomorphic",),
    "shattered": (
        "random_matrix", "random_tournament", "is_shattered_matrix", "is_shattered_tournament",
        "trial_seeds", "canonical_tournaments", "shattered_fraction", "read_matrix_file",
        "write_matrix_file", "read_tournament_file", "write_tournament_file",
    ),
    "table": ("run_table", "table_rows", "table_to_json", "table_to_text"),
}

# span names of the verify checks, by function; "{k}" is the size argument
_VERIFY_NAMES = {
    "is_triangle_free": "triangle_free",
    "is_twin_free": "twin_free",
    "satisfies_adj_k": "adj_{k}",
    "satisfies_e_k": "e_{k}",
    "satisfies_e_k_prime": "e_{k}_prime",
    "multiplicity": "mu_{k}",
}
# checks whose (verdict, witness) result is a scan that stops at a violation
_CHECKS = ("is_triangle_free", "is_twin_free", "satisfies_adj_k", "satisfies_e_k", "satisfies_e_k_prime")
VERIFY_TIMED = (
    "triangle_free", "twin_free", "adj_2", "adj_3", "e_2", "e_3", "e_3_prime", "mu_2", "mu_3",
    "recognize_circular",
)


def _k_arg(args, kwargs):
    return kwargs["k"] if "k" in kwargs else args[1]


def candidate_sets(func: str, n: int, k: int) -> int:
    """Candidate sets a full scan visits, computed from n and k (not counted
    inside the program): all sets of size 1..k for adj_k and e_k, the k-sets
    plus the smaller sets to extend for e_k', and the k-sets for mu_k."""
    if func == "multiplicity":
        return comb(n, k)
    if func == "satisfies_e_k_prime":
        return sum(comb(n, s) for s in range(k + 1))
    return sum(comb(n, s) for s in range(1, k + 1))


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[dict] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ectf.{layer}")
            for fname in TRACED[layer]:
                fn = getattr(mod, fname)
                targets[id(fn)] = (fn, self._wrap(layer, fname, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ectf" or modname.startswith("ectf.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def _wrap(self, layer: str, fname: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = fname
            if fname in _VERIFY_NAMES:
                name = _VERIFY_NAMES[fname]
                if "{k}" in name:
                    name = name.format(k=_k_arg(args, kwargs))
            span = {
                "id": len(spans),
                "parent": stack[-1]["id"] if stack else None,
                "name": f"{layer}.{name}",
                "layer": layer,
                "func": fname,
                "phase": self.phase,
                "outer": not any(s["layer"] == layer for s in stack),
                "child_s": 0.0,
            }
            spans.append(span)
            stack.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]
            _annotate(span, fname, args, kwargs, result)
            return result

        return traced

    # -- output ---------------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per line; times in seconds from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                rec = {k: v for k, v in s.items() if k not in ("start", "end", "child_s")}
                rec["start_s"] = s["start"] - t0
                rec["end_s"] = s["end"] - t0
                rec["self_s"] = s["end"] - s["start"] - s["child_s"]
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _annotate(span: dict, fname: str, args, kwargs, result) -> None:
    """Counters taken from outside: the graph order, the size argument and
    what the result says."""
    g = args[0] if args else None
    if hasattr(g, "order") and isinstance(g.order, int):
        span["n"] = g.order
    if fname in ("satisfies_adj_k", "satisfies_e_k", "satisfies_e_k_prime", "multiplicity"):
        span["k"] = _k_arg(args, kwargs)
    if fname in _CHECKS:
        span["ok"] = bool(result[0])
    elif fname == "encode_graph6":
        span["bytes"] = len(result)
    elif fname == "decode_graph6":
        span["bytes"] = len(args[0])
    elif fname == "are_isomorphic":
        span["found"] = result is not None
    elif fname in ("is_shattered_matrix", "is_shattered_tournament"):
        span["hit"] = bool(result[0])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def round_summary(spans: list[dict], wall_s: float) -> dict:
    """Per-layer figures for the spans of one round of `wall_s` seconds."""
    out: dict[str, float] = {}
    dur = lambda s: s["end"] - s["start"]
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        self_s = sum(dur(s) - s["child_s"] for s in mine)
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.s"] = sum(dur(s) for s in mine if s["outer"])
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_pct"] = 100.0 * _ratio(self_s, wall_s)

    named = lambda name: [s for s in spans if s["name"] == name]
    for key in VERIFY_TIMED:
        out[f"verify.{key}_s"] = sum(dur(s) for s in named(f"verify.{key}"))
    checks = [s for s in spans if s["func"] in _CHECKS]
    out["verify.early_exits"] = sum(1 for s in checks if not s["ok"])
    scans = [s for s in spans if "k" in s and s.get("ok", True)]
    sets = sum(candidate_sets(s["func"], s["n"], s["k"]) for s in scans)
    out["verify.sets"] = sets
    out["verify.sets_per_s"] = _ratio(sets, sum(dur(s) for s in scans))

    enc = [s for s in spans if s["func"] == "encode_graph6"]
    dec = [s for s in spans if s["func"] == "decode_graph6"]
    enc_bytes = sum(s["bytes"] for s in enc)
    dec_bytes = sum(s["bytes"] for s in dec)
    out["graph6.encode_s"] = sum(dur(s) for s in enc)
    out["graph6.decode_s"] = sum(dur(s) for s in dec)
    out["graph6.bytes"] = enc_bytes + dec_bytes
    out["graph6.encode_mb_per_s"] = _ratio(enc_bytes / 1e6, out["graph6.encode_s"])
    out["graph6.decode_mb_per_s"] = _ratio(dec_bytes / 1e6, out["graph6.decode_s"])

    iso = [s for s in spans if s["func"] == "are_isomorphic"]
    out["isomorphism.max_call_s"] = max((dur(s) for s in iso), default=0.0)
    out["isomorphism.found_ratio"] = _ratio(sum(s["found"] for s in iso), len(iso))

    trials = [s for s in spans if "hit" in s]
    out["shattered.trials"] = len(trials)
    out["shattered.hits"] = sum(s["hit"] for s in trials)
    out["shattered.hit_ratio"] = _ratio(out["shattered.hits"], len(trials))
    out["shattered.trials_per_s"] = _ratio(len(trials), out["shattered.s"])

    out["families.build_s"] = out["families.s"]
    out["graphs.build_cayley_s"] = sum(dur(s) for s in spans if s["func"] == "build_cayley")
    return out


def median_summary(summaries: list[dict]) -> dict:
    """Per-key median over the traced rounds."""
    return {key: median(s[key] for s in summaries) for key in summaries[0]}
