"""Family parameter table: expected cells and report determinism."""

import json

from ectf import run_table, table_to_json, table_to_text


def test_all_rows_pass():
    result = run_table(max_size=1100)
    assert result["all_pass"]
    names = [row["name"] for row in result["rows"]]
    assert names == [
        "albert-cycles",
        "albert-matrix",
        "erdos-hypercube",
        "hypercube-layers",
        "hypercube-ckj",
        "twisted-four",
        "twisted-tournament-hypercube",
    ]
    for row in result["rows"]:
        assert not row["skipped"]
        for cell in row["cells"].values():
            assert cell["pass"], (row["name"], cell)


def test_known_cells():
    result = run_table(max_size=1100)
    by_name = {row["name"]: row for row in result["rows"]}
    assert by_name["albert-cycles"]["cells"]["vertices"]["measured"] == 16
    assert by_name["albert-cycles"]["cells"]["degrees"]["measured"] == {5: 16}
    assert by_name["twisted-four"]["cells"]["degrees"]["measured"] == {9: 32}
    for row in result["rows"]:
        assert row["cells"]["mu2"]["measured"] == 2


def test_size_budget_skips_rows():
    result = run_table(max_size=20)
    by_name = {row["name"]: row for row in result["rows"]}
    assert not by_name["albert-cycles"]["skipped"]
    assert by_name["twisted-four"]["skipped"]
    assert result["all_pass"]  # skipped rows do not fail


def test_json_byte_identical_across_runs_and_threads():
    # one code path now: the same run twice gives the same bytes
    a = table_to_json(run_table(max_size=1100))
    b = table_to_json(run_table(max_size=1100))
    assert a == b
    assert a.endswith("\n")
    json.loads(a)


def test_text_render():
    text = table_to_text(run_table(max_size=1100))
    assert "ALL PASS" in text
    assert "erdos-hypercube" in text
