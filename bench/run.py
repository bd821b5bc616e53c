"""Benchmark of the ectf toolkit, driven from outside through its command
line and library calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload, single-threaded.  It sets the workload up
several times (the median is `setup_s`), then repeats rounds -- one pass
over the workload's operations -- until S seconds of operations have been
measured.  Every output is checked by the gate; a wrong answer or a raised
error counts as a failed operation.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics.

With --trace 0 the metrics are the end-to-end ones: `wall_s` (time of a
round, as the sum of each operation's median), `setup_s` (median over the
set-ups of `import ectf` in a fresh interpreter plus the set-up itself) and
`peak_rss_mb` (through set-up and the first round).
The CPU speed of a shared machine can drift by tens of percent within a
minute, so a fixed pure-Python reference loop is timed before and after
every operation, and operation times are reported at reference speed:
each is scaled by REFERENCE_S over the mean of the two reference times
around it.  Set-up is not scaled: the import does not slow as the loop
does, and scaling made `setup_s` noisier.  The raw seconds are kept in
the result file.  With --trace 1
the rounds alternate untraced and traced; the metrics are per-layer
medians over the traced rounds, and the tracing overhead is the traced
minus the untraced round time.

Results go to bench/results/: `<workload>-seed<N>.json` for an untraced
run; `<workload>-seed<N>-traced.json` (per-layer summary and overhead) and
`<workload>-seed<N>-spans.jsonl` (every span) for a traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import LAYERS, Tracer, median_summary, round_summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
SETUP_REPEATS = 5
# operation times are scaled to the speed at which reference_s() takes this long
REFERENCE_S = 0.005
WORKLOAD_NAMES = ("certify-corpus", "hypercube-scale", "search-dedupe")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics on the result line, with units: none of them is a
# time that a workload which bypasses the layer would read as zero
PER_LAYER_UNITS = {
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "verify.sets": "count",
    "verify.early_exits": "count",
    "verify.sets_per_s": "1/s",
    "graph6.bytes": "B",
    "graph6.encode_mb_per_s": "MB/s",
    "graph6.decode_mb_per_s": "MB/s",
    "isomorphism.found_ratio": "ratio",
    "shattered.trials": "count",
    "shattered.hits": "count",
    "shattered.hit_ratio": "ratio",
    "shattered.trials_per_s": "1/s",
}


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def reference_s() -> float:
    """Seconds this fixed pure-Python loop takes; it is timed around every
    operation to follow the machine's speed.  Never change it: it sets the
    scale of every reported operation time."""
    start = time.perf_counter()
    acc = 0
    seen = {}
    for i in range(40000):
        acc += (i * i) & 7
        seen[i & 255] = acc
    return time.perf_counter() - start


def import_seconds() -> float:
    """Seconds `import ectf` takes in a fresh interpreter: the import is
    part of set-up, and one import per process would be a single noisy sample."""
    code = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "t = time.perf_counter(); import ectf; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def scaled(elapsed: float, ref_before: float, ref_after: float) -> float:
    """`elapsed` at reference speed: as if the reference loop took REFERENCE_S."""
    return elapsed * 2 * REFERENCE_S / (ref_before + ref_after)


def run_rounds(ops, seconds: float, tracer) -> tuple[list[dict], float]:
    """Repeat rounds until `seconds` of operations are measured.  With a
    tracer, odd rounds are traced; there is at least one of each kind.

    Outputs are gated after each round, and the peak resident set size (MB)
    is read after the first round's operations, before any gate has run:
    the gate's own allocations would otherwise show in it."""
    rounds = []
    measured = 0.0
    peak_rss_mb = 0.0
    while measured < seconds or len(rounds) < (2 if tracer else 1):
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.phase = len(rounds)
            tracer.install()
        raw = 0.0
        op_s = []
        refs = [reference_s()]
        outputs = []
        try:
            for op in ops:
                if op.prepare:
                    op.prepare()
                start = time.perf_counter()
                try:
                    outputs.append((op, op.run(), None))
                except Exception as exc:  # counted as a failed operation
                    outputs.append((op, None, exc))
                elapsed = time.perf_counter() - start
                refs.append(reference_s())
                raw += elapsed
                op_s.append(scaled(elapsed, refs[-2], refs[-1]))
        finally:
            if traced:
                tracer.uninstall()
        if not rounds:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = []
        failed = 0
        for op, out, error in outputs:
            try:
                found = [f"raised {error!r}"] if error else op.check(out)
            except Exception as exc:  # malformed output
                found = [f"gate raised {exc!r}"]
            if found:
                failed += 1
                problems += [f"{op.name}: {p}" for p in found]
        rounds.append({"traced": traced, "op_s": op_s, "raw_s": raw, "reference_s": median(refs),
                       "attempted": len(ops), "failed": failed, "problems": problems})
        measured += raw
    return rounds, peak_rss_mb


def op_medians(rounds: list[dict]) -> list[float]:
    """Each operation's median time over the rounds; their sum is the
    round time, robust to a speed change that one operation's scaling missed."""
    return [median(times) for times in zip(*(r["op_s"] for r in rounds))]


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    from workloads import WORKLOADS  # imports ectf, so src/ must be on sys.path first

    make_inputs, setup = WORKLOADS[name]
    inputs = make_inputs(seed, small)
    tracer = Tracer() if trace else None
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    import_raw, setup_raw = [], []
    try:
        if tracer:
            tracer.install()
        for rep in range(SETUP_REPEATS):
            import_raw.append(import_seconds())
            rep_dir = work / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            start = time.perf_counter()
            ops = setup(str(rep_dir), inputs, small)
            setup_raw.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
        rounds, peak_rss_mb = run_rounds(ops, seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    plain_ops = op_medians(plain)
    untraced_wall = sum(plain_ops)
    stages: dict[str, float] = {}
    for op, t in zip(ops, plain_ops):
        stages[f"{op.stage}_s"] = stages.get(f"{op.stage}_s", 0.0) + t
    result = {
        "workload": name,
        "env": environment(seed),
        "trace": trace,
        "seconds": seconds,
        "reference_s": REFERENCE_S,
        "rounds": [{k: v for k, v in r.items() if k != "problems"} for r in rounds],
        "stages_s": stages,
        "raw_wall_s": median(r["raw_s"] for r in plain),
        "import_raw_s": import_raw,
        "setup_raw_s": setup_raw,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": sorted({p for r in rounds for p in r["problems"]})[:50],
    }
    if not trace:
        result["metrics"] = {
            "wall_s": untraced_wall,
            "setup_s": median(map(sum, zip(import_raw, setup_raw))),
            "peak_rss_mb": peak_rss_mb,
        }
        return result
    traced = [(i, r) for i, r in enumerate(rounds) if r["traced"]]
    layers = median_summary([round_summary([s for s in tracer.spans if s["phase"] == i], r["raw_s"])
                             for i, r in traced])
    traced_wall = sum(op_medians([r for _, r in traced]))
    result["layers"] = layers
    result["setup_layers"] = round_summary([s for s in tracer.spans if s["phase"] == "setup"],
                                           sum(setup_raw))
    result["overhead"] = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "spans": len(tracer.spans),
    }
    result["metrics"] = {key: layers[key] for key in PER_LAYER_UNITS}
    result["tracer"] = tracer
    return result


def write_results(result: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{result['workload']}-seed{result['env']['seed']}"
    tracer = result.pop("tracer", None)
    if tracer:
        tracer.write(f"{stem}-spans.jsonl")
        result["spans_file"] = f"{stem.name}-spans.jsonl"
        stem = Path(f"{stem}-traced")
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def report_line(result: dict) -> str:
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ectf" / "__init__.py").is_file():
        print(f"bench: no ectf package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_results(result)
    summary = {k: result[k] for k in ("env", "stages_s", "raw_wall_s", "import_raw_s", "setup_raw_s", "error_rate")}
    summary["rounds"] = len(result["rounds"])
    print("bench:", json.dumps(summary, sort_keys=True))
    if args.trace:
        print("bench: tracing overhead", json.dumps(result["overhead"], sort_keys=True))
        print("bench: layers", json.dumps(result["layers"], sort_keys=True))
    for problem in result["problems"]:
        print("bench: FAILED", problem)
    print(report_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
