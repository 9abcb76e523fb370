import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from anyonlat.cli import (
    UsageError,
    dump_matrix_file,
    load_matrix_file,
    main,
    parse_spec,
    parse_spec_factors,
)
from anyonlat.gluing import GLUE_SEARCH_NODE_BUDGET
from anyonlat.lattices import e8_gram
from anyonlat.metric_groups import central_charge_gauss

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParseSpec:
    def test_single_factor(self):
        g = parse_spec("B[3]")
        assert g.orders == (3,)
        assert str(g.q((1,))) == "1/3"

    def test_product(self):
        g = parse_spec("E[2]*A[2]")
        assert g.size == 8
        assert central_charge_gauss(g) == 1

    def test_caret_form(self):
        factors = parse_spec_factors("A[5^3]")
        assert (factors[0].p, factors[0].r) == (5, 3)
        assert parse_spec_factors("E[4]")[0].r == 2

    def test_invalid(self):
        with pytest.raises(UsageError):
            parse_spec("C[2]")
        with pytest.raises(UsageError):
            parse_spec("B[12]")
        with pytest.raises(UsageError):
            parse_spec("Q[3]")
        with pytest.raises(UsageError):
            parse_spec("B3")


class TestMatrixFiles:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        gram, target, _ = load_matrix_file(str(path))
        assert gram == [[2, 1], [1, 2]]
        assert target == "B[3]"

    def test_plain_autodetect(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n1 12\n")
        gram, target, _ = load_matrix_file(str(path))
        assert gram == [[2, 1], [1, 12]]
        assert target is None

    def test_rejects_nonsymmetric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 2\n")
        with pytest.raises(UsageError):
            load_matrix_file(str(path))

    def test_missing_file(self):
        with pytest.raises(UsageError):
            load_matrix_file("/nonexistent/nowhere.json")

    @pytest.mark.parametrize("text", [
        '{"gram": [[2.9, 1], [1, 2]]}',
        '{"gram": [[2, 1.0], [1.0, 2]]}',
        '{"gram": [[2, true], [true, 2]]}',
        '{"gram": [[2, "1"], ["1", 2]]}',
        '{"gram": [[2, null], [null, 2]]}',
        '{"gram": 5}',
        '{"gram": ["21", "12"]}',
    ])
    def test_rejects_non_integer_json_entries(self, tmp_path, capsys, text):
        # Each would read as [[2, 1], [1, 2]] (or crash) if entries were coerced.
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(UsageError):
            load_matrix_file(str(path))
        assert main(["verify", str(path), "--target", "B[3]"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestCommands:
    def test_model_exit_code(self, capsys):
        assert main(["model", "B[3]"]) == 0
        out = capsys.readouterr().out
        assert "closed form 2, Gauss sum 2" in out

    def test_model_usage_error(self, capsys):
        assert main(["model", "C[2]"]) == 2

    def test_model_large_cyclic(self, capsys):
        # Gauss sums run far past the enumeration budget.
        assert main(["model", "A[23^3]"]) == 0
        assert "closed form 2, Gauss sum 2" in capsys.readouterr().out

    def test_kmatrix_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "k.json"
        for spec in ("A[2]", "B[3]", "D[4]", "E[4]", "F[2]", "B[3]*A[2]"):
            assert main(["kmatrix", spec, "--out", str(out_file)]) == 0
            assert main(["verify", str(out_file)]) == 0

    def test_kmatrix_positive_definite(self, tmp_path, capsys):
        out_file = tmp_path / "k.json"
        for spec in ("A[2]", "A[3]", "B[2]", "C[4]", "A[4]", "B[5]"):
            assert main(["kmatrix", spec, "--positive-definite", "--out", str(out_file)]) == 0
            payload = json.loads(out_file.read_text())
            gram = payload["gram"]
            assert all(gram[i][i] > 0 for i in range(len(gram)))
            assert main(["verify", str(out_file)]) == 0
        capsys.readouterr()

    def test_kmatrix_smallest_family(self, tmp_path):
        out_file = tmp_path / "semion.json"
        assert main(["kmatrix", "A[2]", "--positive-definite", "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text())["gram"] == [[2]]

    def test_output_determinism(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["kmatrix", "B[7]", "--out", str(f1)]) == 0
        assert main(["kmatrix", "B[7]", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        capsys.readouterr()

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        path = tmp_path / "su3.json"
        path.write_text(dump_matrix_file([[2, 1], [1, 2]]))
        assert main(["verify", str(path), "--target", "B[3]"]) == 0
        assert main(["verify", str(path), "--target", "A[3]"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_needs_target(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n")
        assert main(["verify", str(path)]) == 2

    def test_complement_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "su3.json"
        out = tmp_path / "comp.json"
        src.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        assert main(["complement", str(src), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["target"] == "A[3]"
        assert len(payload["gram"]) == 14
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()

    def test_weights_output(self, tmp_path, capsys):
        path = tmp_path / "a23.txt"
        path.write_text("2 1\n1 12\n")
        assert main(["weights", str(path)]) == 0
        out = capsys.readouterr().out
        assert "min nonzero h = 1/23" in out
        assert "signature: 2" in out

    @pytest.mark.parametrize("gram, header, score", [
        ([[2]], "rank 1, |A| = 2, invariant factors [2]", "extremality score = 0"),
        ([[2, 0], [0, 4]], "rank 2, |A| = 8, invariant factors [2, 4]", "extremality score = 17"),
        ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
         "rank 4, |A| = 4, invariant factors [2, 2]", "extremality score = 1"),
        (e8_gram().gram, "rank 8, |A| = 1, invariant factors []", "extremality score = 2"),
    ])
    def test_weights_header_and_score(self, tmp_path, capsys, gram, header, score):
        path = tmp_path / "k.json"
        path.write_text(dump_matrix_file(gram))
        assert main(["weights", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == header
        assert out[-1] == score

    def test_plain_format_output(self, tmp_path):
        out = tmp_path / "k.txt"
        assert main(["kmatrix", "E[2]", "--format", "plain", "--out", str(out)]) == 0
        assert out.read_text() == "0 2\n2 0\n"

    def test_usage_error_exit_2(self):
        assert main(["kmatrix"]) == 2
        assert main(["nonsense"]) == 2


def test_complement_over_glue_budget_exits_2(tmp_path):
    """D = Z2 x Z6 puts 12^8 elements in D^8, past the glue search's node
    budget: one `error:` line and exit 2, before anything is listed.  The
    child runs under a 1 GiB address-space cap, so a search that allocates
    first fails this test instead of exhausting the machine's memory."""
    path = tmp_path / "z2z6.json"
    path.write_text(dump_matrix_file([[4, 2], [2, 4]]))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from anyonlat.cli import main; sys.exit(main(sys.argv[1:]))",
         "complement", str(path)],
        capture_output=True, text=True, timeout=300, env=env, preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: glue search")
    assert str(12**8) in line and str(GLUE_SEARCH_NODE_BUDGET) in line
