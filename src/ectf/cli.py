"""Command-line front end: construct families, certify graphs, compute
multiplicities, generate shattered structures, and run the family table.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or parse
error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import families
from .graph6 import Graph6ParseError, read_graph6_file, write_graph6_file
from .graphs import CapacityError, Graph, ParameterError, degree_stats
from .shattered import (
    RNG_ALGORITHM,
    canonical_tournaments,
    is_shattered_tournament,
    random_matrix,
    random_tournament,
    read_matrix_file,
    read_tournament_file,
    trial_is_shattered,
    trial_seeds,
    write_matrix_file,
    write_tournament_file,
)
from .table import run_table, table_to_json, table_to_text
from .verify import certify, multiplicity

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


class SpecError(ValueError):
    """Malformed family-spec string."""


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecError(f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        out[key] = value
    return out


def _int_param(kv: dict[str, str], key: str) -> int:
    if key not in kv:
        raise SpecError(f"missing parameter {key}")
    try:
        return int(kv.pop(key))
    except ValueError as exc:
        raise SpecError(f"parameter {key} must be an integer") from exc


def _tournament_param(kv: dict[str, str], key: str = "T"):
    if key not in kv:
        raise SpecError(f"missing parameter {key}")
    value = kv.pop(key)
    t4, t4p = canonical_tournaments()
    if value == "t4":
        return t4
    if value == "t4p":
        return t4p
    return read_tournament_file(value)


def build_family(tokens: list[str]) -> Graph:
    """Build a graph from a "family-name key=value ..." spec string."""
    if not tokens:
        raise SpecError("empty family spec")
    name, kv = tokens[0], _parse_kv(tokens[1:])
    if name == "albert-cycles":
        g = families.albert_cycles(_int_param(kv, "n"))
    elif name == "albert-matrix":
        if "M" not in kv:
            raise SpecError("missing parameter M (path to a matrix file)")
        g = families.albert_matrix(read_matrix_file(kv.pop("M")))
    elif name == "erdos-hypercube":
        g = families.erdos_hypercube(_int_param(kv, "k"))
    elif name == "hypercube-layers":
        g = families.hypercube_layers(_int_param(kv, "k"), _int_param(kv, "m"))
    elif name == "hypercube-ckj":
        g = families.hypercube_ckj(_int_param(kv, "k"), _int_param(kv, "j"))
    elif name == "circular":
        g = families.circular(_int_param(kv, "n"))
    elif name == "twisted-four":
        g = families.twisted_four(
            _int_param(kv, "m0"),
            _int_param(kv, "m1"),
            _int_param(kv, "m2"),
            _int_param(kv, "m3"),
        )
    elif name == "twisted-tournament":
        t = _tournament_param(kv)
        g = families.twisted_tournament(t, _int_param(kv, "m"))
    elif name == "twisted-tournament-hypercube":
        t = _tournament_param(kv)
        g = families.twisted_tournament_hypercube(
            t, _int_param(kv, "m"), _int_param(kv, "k")
        )
    else:
        raise SpecError(f"unknown family {name!r}")
    if kv:
        raise SpecError(f"unused parameters: {', '.join(sorted(kv))}")
    return g


def _load_graph(path: str) -> Graph:
    graphs = read_graph6_file(path)
    if not graphs:
        raise Graph6ParseError("no graphs in file", 0)
    return graphs[0]


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_construct(args) -> int:
    g = build_family(args.spec)
    write_graph6_file(args.out, [g])
    if g.labels is not None:
        with open(str(args.out) + ".labels", "w", encoding="ascii") as fh:
            for label in g.labels:
                fh.write(repr(label) + "\n")
    dmin, dmax, multiset = degree_stats(g)
    stats = {
        "vertices": g.order,
        "edges": g.edge_count,
        "min_degree": dmin,
        "max_degree": dmax,
        "degrees": {str(k): v for k, v in sorted(multiset.items())},
        "out": str(args.out),
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(stats, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        degrees = ", ".join(f"{d} (x{c})" for d, c in sorted(multiset.items()))
        sys.stdout.write(
            f"wrote {args.out}: {g.order} vertices, {g.edge_count} edges, "
            f"degrees {degrees}\n"
        )
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graph(args.input)
    report = certify(g, k_max=args.k)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    if args.k >= 3:
        holds = "is_3ectf" in report and bool(report.verdict("is_3ectf"))
    else:
        name = f"e_{args.k}"
        holds = name in report and bool(report.verdict(name))
    return EXIT_OK if holds else EXIT_PROPERTY


def cmd_mu(args) -> int:
    g = _load_graph(args.input)
    mode = "sampled" if args.mode == "sample" else "exact"
    res = multiplicity(g, args.k, mode=mode, trials=args.trials, seed=args.seed)
    payload = {
        "k": res.k,
        "value": res.value,
        "witness": list(res.witness) if res.witness is not None else None,
        "exact": res.exact,
    }
    if not res.exact:
        payload.update({"trials": res.trials, "seed": res.seed, "rng": res.rng})
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", args.out)
    else:
        if res.value is None:
            body = f"mu_{res.k}: no independent {res.k}-set"
        elif res.exact:
            body = f"mu_{res.k} = {res.value}, witness {res.witness}"
        else:
            body = (
                f"mu_{res.k} <= {res.value} (upper bound; sampled, {res.trials} "
                f"trials, seed {res.seed}, rng {res.rng}), witness {res.witness}"
            )
        _emit(body + "\n", args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    result = run_table(max_size=args.max_size)
    _emit(
        table_to_json(result) if args.format == "json" else table_to_text(result),
        args.out,
    )
    return EXIT_OK if result["all_pass"] else EXIT_PROPERTY


def cmd_shatter(args) -> int:
    if args.kind == "matrix":
        try:
            m, n = (int(tok) for tok in args.dims.lower().split("x"))
        except ValueError as exc:
            raise SpecError(f"matrix dims must look like 16x16, got {args.dims!r}") from exc
        if m < 1 or n < 1:
            raise ParameterError(f"matrix dimensions must be >= 1, got {m}x{n}")
        make = lambda s: random_matrix(m, n, s)
        hit = lambda s: trial_is_shattered(m, n, s)
        write = write_matrix_file
    else:
        try:
            v = int(args.dims)
        except ValueError as exc:
            raise SpecError(f"tournament dims must be an order, got {args.dims!r}") from exc
        if v < 1:
            raise ParameterError(f"tournament order must be >= 1, got {v}")
        make = lambda s: random_tournament(v, s)
        hit = lambda s: v >= 4 and is_shattered_tournament(make(s))[0]
        write = write_tournament_file
    if args.trials < 1:
        raise SpecError(f"trials must be >= 1, got {args.trials}")
    hits = 0
    emitted = None
    for s in trial_seeds(args.seed, args.trials):
        if hit(s):
            hits += 1
            if emitted is None:
                emitted = s
                if args.out:
                    write(args.out, make(s))
    fraction = hits / args.trials
    payload = {
        "kind": args.kind,
        "dims": args.dims,
        "trials": args.trials,
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "fraction": fraction,
        "emitted_seed": emitted,
        "out": args.out,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        msg = f"shattered fraction {fraction:.4f} over {args.trials} trials (rng {RNG_ALGORITHM}, seed {args.seed})"
        if emitted is not None:
            msg += f"; first hit seed {emitted}"
            if args.out:
                msg += f" written to {args.out}"
        sys.stdout.write(msg + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ectf",
        description="Construct and certify triangle-free extension-property graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family instance, write graph6")
    p.add_argument("spec", nargs="+", help='family spec, e.g. "albert-cycles n=5"')
    p.add_argument("--out", required=True, help="output graph6 path (labels sidecar beside it)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("check", help="certify a graph6 file")
    p.add_argument("input", help="graph6 file (first graph is used)")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("mu", help="minimum common neighbors over independent k-sets")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("table", help="family parameter table regression")
    p.add_argument("--max-size", type=int, default=1100)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("shatter", help="random shattered structures")
    p.add_argument("kind", choices=("matrix", "tournament"))
    p.add_argument("--dims", required=True, help="matrix: MxN; tournament: order")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_shatter)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (SpecError, ParameterError, Graph6ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
