"""Regression harness for the family parameter table.

For each construction family this instantiates the smallest admissible
parameters within a size budget and compares measured vertex counts, exact
degree multisets (via binomial-sum oracles where the family is only
asymptotically regular), and exact pair multiplicity against the expected
formulas, reporting PASS/FAIL per cell.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

from . import families
from .graphs import Graph
from .shattered import BitMatrix, canonical_tournaments
from .verify import multiplicity


def _hypercube_degree(k: int) -> int:
    dim = 3 * k + 1
    return sum(comb(dim, d) for d in range(2 * k + 1, dim + 1))


def _layer_degrees(k: int, m: int) -> tuple[int, int]:
    """(same-layer, cross-layer) neighbor counts for one layer pair."""
    dim = 3 * k - 1
    same = comb(dim, 2 * k - 1) + sum(comb(dim, d) for d in range(2 * k + 1, dim + 1))
    cross = sum(comb(dim, d) for d in range(2 * k, dim + 1))
    return same, cross


def _layered_degree(k: int, m: int) -> int:
    same, cross = _layer_degrees(k, m)
    return same + (m - 1) * cross


def _twisted_hypercube_degree(t_order: int, m: int, k: int) -> int:
    same, cross = _layer_degrees(k, m)
    return same + (m - 1) * cross + (t_order - 1) * m * cross


def _ckj_degree(k: int, j: int) -> int:
    dim = 3 * k + j
    dists = set(range(2 * k + 1, 2 * k + 2 * j, 2)) | set(range(2 * (k + j), dim + 1))
    return sum(comb(dim, d) for d in dists)


@dataclass
class TableRow:
    name: str
    params: dict
    build: Callable[[], Graph]
    expected_order: int
    expected_degrees: dict[int, int]  # degree -> count
    expected_mu2: int


def table_rows() -> list[TableRow]:
    """One row per family at its smallest admissible parameters."""
    t4, _ = canonical_tournaments()
    return [
        TableRow(
            "albert-cycles",
            {"n": 4},
            lambda: families.albert_cycles(4),
            16,
            {5: 16},
            2,
        ),
        TableRow(
            "albert-matrix",
            {"m": 4, "n": 4, "matrix": "identity"},
            lambda: families.albert_matrix(BitMatrix.identity(4)),
            16,
            {5: 16},
            2,
        ),
        TableRow(
            "erdos-hypercube",
            {"k": 1},
            lambda: families.erdos_hypercube(1),
            16,
            {_hypercube_degree(1): 16},
            comb(2, 1),
        ),
        TableRow(
            "hypercube-layers",
            {"k": 1, "m": 4},
            lambda: families.hypercube_layers(1, 4),
            16,
            {_layered_degree(1, 4): 16},
            comb(2, 1),
        ),
        TableRow(
            "hypercube-ckj",
            {"k": 1, "j": 1},
            lambda: families.hypercube_ckj(1, 1),
            16,
            {_ckj_degree(1, 1): 16},
            2 * comb(1, 0),
        ),
        TableRow(
            "twisted-four",
            {"m0": 2, "m1": 2, "m2": 2, "m3": 2},
            lambda: families.twisted_four(2, 2, 2, 2),
            32,
            {9: 32},
            2,
        ),
        TableRow(
            "twisted-tournament-hypercube",
            {"T": "t4", "m": 2, "k": 1},
            lambda: families.twisted_tournament_hypercube(t4, 2, 1),
            32,
            {_twisted_hypercube_degree(4, 2, 1): 32},
            comb(2, 1),
        ),
    ]


def run_table(max_size: int = 1100) -> dict:
    """Measure every row fitting the size budget and compare each cell."""
    rows_out = []
    all_pass = True
    for row in table_rows():
        if row.expected_order > max_size:
            rows_out.append(
                {"name": row.name, "params": row.params, "skipped": True}
            )
            continue
        g = row.build()
        measured_degrees = dict(sorted(Counter(g.degrees()).items()))
        mu2 = multiplicity(g, 2)
        cells = {
            "vertices": {
                "expected": row.expected_order,
                "measured": g.order,
                "pass": g.order == row.expected_order,
            },
            "degrees": {
                "expected": dict(sorted(row.expected_degrees.items())),
                "measured": measured_degrees,
                "pass": measured_degrees == dict(sorted(row.expected_degrees.items())),
            },
            "mu2": {
                "expected": row.expected_mu2,
                "measured": mu2.value,
                "pass": mu2.value == row.expected_mu2,
            },
        }
        row_pass = all(cell["pass"] for cell in cells.values())
        all_pass = all_pass and row_pass
        rows_out.append(
            {
                "name": row.name,
                "params": row.params,
                "skipped": False,
                "cells": cells,
                "pass": row_pass,
            }
        )
    return {"max_size": max_size, "rows": rows_out, "all_pass": all_pass}


def table_to_text(result: dict) -> str:
    lines = [f"family table (max size {result['max_size']})"]
    for row in result["rows"]:
        params = " ".join(f"{k}={v}" for k, v in row["params"].items())
        if row.get("skipped"):
            lines.append(f"{row['name']} [{params}]  SKIPPED (over size budget)")
            continue
        cells = row["cells"]
        parts = []
        for cell in ("vertices", "degrees", "mu2"):
            state = "PASS" if cells[cell]["pass"] else "FAIL"
            parts.append(
                f"{cell}={cells[cell]['measured']} ({state}, expected {cells[cell]['expected']})"
            )
        lines.append(f"{row['name']} [{params}]  " + "  ".join(parts))
    lines.append("ALL PASS" if result["all_pass"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


def table_to_json(result: dict) -> str:
    def keyfix(obj):
        if isinstance(obj, dict):
            return {str(k): keyfix(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [keyfix(x) for x in obj]
        return obj

    return json.dumps(keyfix(result), sort_keys=True, separators=(",", ":")) + "\n"
