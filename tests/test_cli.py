"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from ectf import (
    Graph,
    circular,
    decode_graph6,
    encode_graph6,
    erdos_hypercube,
    is_shattered_matrix,
    is_shattered_tournament,
    read_graph6_file,
)
from ectf.cli import main
from ectf.shattered import (
    random_matrix,
    read_matrix_file,
    read_tournament_file,
    shattered_fraction,
    trial_seeds,
    write_matrix_file,
)


def write_g6(path, g):
    path.write_bytes(encode_graph6(g) + b"\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_albert_cycles(self, tmp_path, capsys):
        out = tmp_path / "a5.g6"
        code, stdout, _ = run(capsys, "construct", "albert-cycles", "n=5", "--out", str(out))
        assert code == 0
        assert "20 vertices" in stdout
        assert "6 (x20)" in stdout
        g = read_graph6_file(out)[0]
        assert g.order == 20
        labels = (tmp_path / "a5.g6.labels").read_text().splitlines()
        assert len(labels) == 20
        assert labels[0] == "(1, 0)"

    def test_erdos_hypercube(self, tmp_path, capsys):
        out = tmp_path / "c7.g6"
        code, stdout, _ = run(capsys, "construct", "erdos-hypercube", "k=2", "--out", str(out))
        assert code == 0
        assert "128 vertices" in stdout and "29" in stdout

    def test_circular(self, tmp_path, capsys):
        out = tmp_path / "o8.g6"
        code, stdout, _ = run(capsys, "construct", "circular", "n=3", "--out", str(out))
        assert code == 0
        g = read_graph6_file(out)[0]
        assert g.order == 8 and set(g.degrees()) == {3}

    def test_matrix_family_from_file(self, tmp_path, capsys):
        from ectf import BitMatrix

        mpath = tmp_path / "m.txt"
        write_matrix_file(mpath, BitMatrix.identity(4))
        out = tmp_path / "am.g6"
        code, _, _ = run(capsys, "construct", "albert-matrix", f"M={mpath}", "--out", str(out))
        assert code == 0
        assert read_graph6_file(out)[0].order == 16

    def test_tournament_literals(self, tmp_path, capsys):
        out = tmp_path / "gt.g6"
        code, _, _ = run(
            capsys, "construct", "twisted-tournament", "T=t4p", "m=2", "--out", str(out)
        )
        assert code == 0
        assert read_graph6_file(out)[0].order == 32

    def test_bad_family_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "no-such-family", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "no-such-family" in err

    def test_bad_parameter_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "construct", "albert-cycles", "n=3", "--out", str(tmp_path / "x"))
        assert code == 2
        code, _, _ = run(capsys, "construct", "albert-cycles", "n=5", "k=2", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_capacity_exit_code(self, tmp_path, capsys):
        code, _, err = run(capsys, "construct", "erdos-hypercube", "k=5", "--out", str(tmp_path / "x"))
        assert code == 3
        assert "capacity" in err

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "c.g6"
        code, stdout, _ = run(
            capsys, "construct", "circular", "n=2", "--out", str(out), "--format", "json"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["vertices"] == 5 and payload["edges"] == 5


class TestCheck:
    def test_clebsch_passes(self, tmp_path, capsys):
        path = tmp_path / "c4.g6"
        write_g6(path, erdos_hypercube(1))
        code, stdout, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "is_3ectf\ttrue" in stdout

    def test_circular_eight_fails_with_reason(self, tmp_path, capsys):
        path = tmp_path / "o8.g6"
        write_g6(path, circular(3))
        code, stdout, _ = run(capsys, "check", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(stdout)
        assert payload["checks"]["adj_3"]["verdict"] is True
        assert payload["checks"]["e_3"]["verdict"] is False
        assert payload["checks"]["is_circular"]["verdict"] == 3
        assert payload["checks"]["is_3ectf"]["verdict"] is False

    def test_triangle_witness(self, tmp_path, capsys):
        path = tmp_path / "k3.g6"
        write_g6(path, Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        code, stdout, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "triangle_free\tfalse\t(0, 1, 2)" in stdout

    def test_k2_exit_uses_e2(self, tmp_path, capsys):
        path = tmp_path / "o8.g6"
        write_g6(path, circular(3))
        code, _, _ = run(capsys, "check", str(path), "--k", "2")
        assert code == 0  # circular graphs satisfy the k=2 property

    def test_malformed_graph6_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"A_?\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "offset" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent/z.g6")
        assert code == 2

    def test_json_byte_identical_across_threads(self, tmp_path, capsys):
        # one code path now: the same command three times gives the same bytes
        path = tmp_path / "g.g6"
        write_g6(path, erdos_hypercube(1))
        outputs = set()
        for _ in range(3):
            _, stdout, _ = run(capsys, "check", str(path), "--format", "json")
            outputs.add(stdout)
        assert len(outputs) == 1

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "g.g6"
        write_g6(path, circular(2))
        report = tmp_path / "report.json"
        _, stdout, _ = run(
            capsys, "check", str(path), "--format", "json", "--out", str(report)
        )
        assert report.read_text() == stdout


class TestMu:
    def test_exact(self, tmp_path, capsys):
        path = tmp_path / "c7.g6"
        write_g6(path, erdos_hypercube(2))
        code, stdout, _ = run(capsys, "mu", str(path), "--k", "2")
        assert code == 0
        assert "mu_2 = 6" in stdout

    def test_sampled_labelled_upper_bound(self, tmp_path, capsys):
        path = tmp_path / "c7.g6"
        write_g6(path, erdos_hypercube(2))
        code, stdout, _ = run(
            capsys, "mu", str(path), "--k", "2", "--mode", "sample",
            "--trials", "200", "--seed", "9",
        )
        assert code == 0
        assert "upper bound" in stdout and "PCG64" in stdout

    def test_json(self, tmp_path, capsys):
        path = tmp_path / "c4.g6"
        write_g6(path, erdos_hypercube(1))
        code, stdout, _ = run(capsys, "mu", str(path), "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["value"] == 1 and payload["exact"] is True


class TestTable:
    def test_exit_zero_and_all_pass(self, capsys):
        code, stdout, _ = run(capsys, "table")
        assert code == 0
        assert "ALL PASS" in stdout

    def test_json_byte_identical(self, capsys):
        _, a, _ = run(capsys, "table", "--format", "json")
        _, b, _ = run(capsys, "table", "--format", "json")
        assert a == b
        assert json.loads(a)["all_pass"] is True


class TestShatter:
    def test_matrix_small_fraction_zero(self, capsys):
        code, stdout, _ = run(
            capsys, "shatter", "matrix", "--dims", "3x3", "--trials", "50", "--seed", "1"
        )
        assert code == 0
        assert "0.0000" in stdout

    def test_matrix_emits_instance(self, tmp_path, capsys):
        out = tmp_path / "hit.txt"
        code, stdout, _ = run(
            capsys, "shatter", "matrix", "--dims", "4x4", "--trials", "1000",
            "--seed", "20260811", "--out", str(out), "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["fraction"] > 0
        assert payload["rng"] == "PCG64"
        assert is_shattered_matrix(read_matrix_file(out))[0]

    def test_tournament_emits_instance(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, stdout, _ = run(
            capsys, "shatter", "tournament", "--dims", "6", "--trials", "300",
            "--seed", "20260811", "--out", str(out), "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["fraction"] > 0
        assert is_shattered_tournament(read_tournament_file(out))[0]

    def test_bad_dims(self, capsys):
        code, _, _ = run(capsys, "shatter", "matrix", "--dims", "4by4", "--trials", "5", "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "m, n, trials",
        # list path at 8x8, vectorized from 20x20 on; 32x32 has hits
        [(3, 3, 50), (8, 8, 60), (20, 20, 40), (32, 32, 30)],
    )
    def test_matrix_fraction_matches_library(self, tmp_path, capsys, m, n, trials):
        out = tmp_path / "hit.txt"
        seed = 20260811
        code, stdout, _ = run(
            capsys, "shatter", "matrix", "--dims", f"{m}x{n}", "--trials", str(trials),
            "--seed", str(seed), "--out", str(out), "--format", "json",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["fraction"] == shattered_fraction(m, n, trials, seed)
        # the first hit, as the witness-producing check finds it
        first = next(
            (s for s in trial_seeds(seed, trials) if is_shattered_matrix(random_matrix(m, n, s))[0]),
            None,
        )
        assert payload["emitted_seed"] == first
        assert out.exists() == (first is not None)
        if first is not None:
            assert read_matrix_file(out) == random_matrix(m, n, first)

    def test_zero_trials_usage_error(self, capsys):
        code, _, err = run(capsys, "shatter", "matrix", "--dims", "4x4", "--trials", "0", "--seed", "1")
        assert code == 2
        assert "trials" in err


def test_entry_point_runs_as_module(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "e.g6"
    proc = subprocess.run(
        [sys.executable, "-m", "ectf.cli", "construct", "circular", "n=1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert decode_graph6(out.read_bytes()).order == 2
