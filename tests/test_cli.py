import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import anyonlat.linalg
from anyonlat import cli
from anyonlat.cli import (
    UsageError,
    dump_matrix_file,
    load_matrix_file,
    main,
    parse_spec,
    parse_spec_factors,
)
from anyonlat.gluing import GLUE_SEARCH_NODE_BUDGET, GlueSearchError
from anyonlat.lattices import cartan_d, e8_gram
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
        for text in ("A[0^-1]", "A[2^0]", "A[-2^2]", "A[0]", "A[1]"):
            # "A[0^-1]" once raised ZeroDivisionError from 0 ** -1.
            with pytest.raises(UsageError):
                parse_spec(text)

    @pytest.mark.parametrize("text", ["A[1_1]", "A[\u0663]", "A[ 3]", "A[3^ 2]", "A[+3]"])
    def test_only_ascii_digits(self, capsys, text):
        # int() reads "1_1" as 11, the Arabic-Indic digit three as 3, and
        # surrounding spaces and signs.
        assert main(["model", text]) == 2
        assert "expected the digits 0-9 only" in capsys.readouterr().err

    @pytest.mark.parametrize("text, limit", [
        ("A[1000000016000000063]", "the limit is 9"),  # 10^9+7 times 10^9+9
        ("A[3^1000000000]", "the limit is 9"),
        ("A[3^38]", "exceeds the limit 10^18"),
        ("B[999999937^3]", "exceeds the limit 10^18"),
    ])
    def test_sizes_are_bounded_before_any_arithmetic(self, capsys, text, limit):
        start = time.perf_counter()
        assert main(["model", text]) == 2
        assert time.perf_counter() - start < 1.0
        assert limit in capsys.readouterr().err


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

    @pytest.mark.parametrize("data", [
        b"\xff\xfe2 1\n1 2\n",  # not UTF-8
        b"[" * 100000 + b"]" * 100000,  # nesting past the recursion limit
        b'{"gram": [[' + b"2" * 5000 + b"]]}",  # an integer past the digit limit
    ], ids=["not-utf8", "deep-json", "long-int-json"])
    def test_rejects_undecodable_files(self, tmp_path, capsys, data):
        # Each escaped load_matrix_file as another exception; the deep JSON's
        # RecursionError left main as a traceback.
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(UsageError):
            load_matrix_file(str(path))
        assert main(["verify", str(path), "--target", "B[3]"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_plain_rank_one_file_loads(self, tmp_path, capsys):
        # "2" also parses as a JSON number; only a JSON object is structured.
        path = tmp_path / "semion.txt"
        path.write_text("2\n")
        assert main(["weights", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:4] == ["rank 1, |A| = 2, invariant factors [2]", "signature: 1",
                           "  h[0] = 0", "  h[1] = 1/4"]
        path.write_text("[[2]]\n")
        assert main(["weights", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("extra", ['"target": 3', '"target": null', '"target": ["B[3]"]',
                                       '"comment": 7'])
    def test_rejects_non_string_target_and_comment(self, tmp_path, capsys, extra):
        path = tmp_path / "bad.json"
        path.write_text('{"gram": [[2, 1], [1, 2]], ' + extra + "}")
        for argv in (["verify", str(path)], ["verify", str(path), "--target", "B[3]"]):
            assert main(argv) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and "must be a string" in line


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


@pytest.mark.parametrize("message", [
    "no glue group found within the budget",
    "E_4 gluing failed verification:\n[FAIL] discriminant_form: no isometry",
])
def test_internal_error_exits_3_with_one_line(tmp_path, monkeypatch, capsys, message):
    def fail(*args, **kwargs):
        raise GlueSearchError(message)

    monkeypatch.setattr("anyonlat.cli.glue_selfdual_8", fail)
    path = tmp_path / "su3.json"
    path.write_text(dump_matrix_file([[2, 1], [1, 2]]))
    assert main(["complement", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: " + message.replace("\n", "; ")]


def _count_kernel_calls(monkeypatch, names):
    """Count calls of `linalg` kernels, wherever the package binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "anyonlat"]
    for name in names:
        original = getattr(anyonlat.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_verify_runs_each_kernel_once_and_solves_nothing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "d7.json"
    path.write_text(dump_matrix_file(cartan_d(7).gram))
    counts = _count_kernel_calls(
        monkeypatch, ["determinant", "solve_columns", "congruence", "smith_normal_form"])
    assert main(["verify", str(path), "--target", "B[4]"]) == 0
    assert counts == {"determinant": 1, "solve_columns": 0, "congruence": 1, "smith_normal_form": 1}


def test_continued_fraction_kmatrix_factors_k_once(monkeypatch, capsys):
    """K = W^-1 comes from the Wall continuants, not a rational solve: the
    oracle's one congruence and one SNF are all `kmatrix` runs, and the
    closed-form F matrix solves nothing either."""
    names = ["solve_columns", "congruence", "smith_normal_form"]
    counts = _count_kernel_calls(monkeypatch, names)
    assert main(["kmatrix", "B[7]"]) == 0
    assert counts == {"solve_columns": 0, "congruence": 1, "smith_normal_form": 1}
    counts.update(dict.fromkeys(names, 0))
    assert main(["kmatrix", "F[4]"]) == 0
    assert counts["solve_columns"] == 0


def test_budget_flag_reaches_the_gauss_sum_of_kmatrix(capsys):
    """`--budget` raises the Gauss sum's budget in `kmatrix` (and `verify`,
    `complement`) as it does in `model`: at least the 10^6 default.  Before,
    the target's Gauss sum kept the default and |A| = 3^13 exited 2."""
    assert main(["kmatrix", "A[3^13]", "--budget", "2000000"]) == 0
    assert "signature_mod_8: signature -2 vs central charge 6" in capsys.readouterr().out


@pytest.mark.parametrize("argv, layer, size, budget", [
    (["model", "A[3^13]"], "Gauss sum", 3**13, 10**6),
    (["kmatrix", "A[3^13]", "--budget", "5000"], "Gauss sum", 3**13, 10**6),
    (["kmatrix", "E[2^7]"], "isometry search", 4**7, 4096),
    (["weights", "z23.json", "--budget", "20"], "coset enumeration", 23, 20),
])
def test_budget_errors_name_layer_size_budget_and_flag(tmp_path, monkeypatch, capsys, argv, layer, size, budget):
    # [[2, 1], [1, 12]] has discriminant group Z23: 23 cosets.
    (tmp_path / "z23.json").write_text(json.dumps({"gram": [[2, 1], [1, 12]]}))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {layer} (")
    excess = f"{size} cosets exceed" if layer == "coset enumeration" else f"group of order {size} exceeds"
    assert f"{excess} budget {budget}; raise it with --budget" in line


def test_weights_rank_limit_names_its_layer_and_that_no_flag_raises_it(tmp_path, capsys):
    from anyonlat.weights import RANK_LIMIT

    rank = RANK_LIMIT + 1
    gram = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gram": gram}))
    assert main(["weights", str(path), "--budget", "10000000"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: coset enumeration (coset_minima): rank {rank} exceeds the fixed limit "
                    f"RANK_LIMIT = {RANK_LIMIT}; no flag raises it")


def test_model_counts_aut_of_toric_code_cubed_without_an_element_table(monkeypatch, capsys):
    """|Aut| = 40320 comes from the stabilizer chain alone: no rule names that
    order, so the closure that would build the element table never runs."""
    import anyonlat.symmetry

    def refuse(*args):
        raise AssertionError("element table built")

    monkeypatch.setattr(anyonlat.symmetry, "_subgroup_generated", refuse)
    assert main(["model", "E[2]*E[2]*E[2]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "|Aut| = 40320  [brute force]"


@pytest.mark.parametrize("spec", ["B[5]", "D[2^4]"])
def test_positive_definite_kmatrix_runs_one_smith_normal_form(monkeypatch, capsys, spec):
    """The constructor's own check takes positive definiteness and det from
    one congruence pass; only the oracle's discriminant form runs an SNF."""
    counts = _count_kernel_calls(monkeypatch, ["smith_normal_form"])
    assert main(["kmatrix", spec, "--positive-definite"]) == 0
    assert counts == {"smith_normal_form": 1}


@pytest.mark.parametrize("argv, size", [
    (["kmatrix", "E[2^30]", "--positive-definite"], 4**30),
    (["kmatrix", "F[2^21]", "--positive-definite"], 4**21),
    (["kmatrix", "B[3^30]", "--positive-definite"], 3**30),
    (["kmatrix", "A[3^13]", "--budget", "5000"], 3**13),
])
def test_kmatrix_refuses_an_over_budget_target_before_building_a_block(monkeypatch, capsys, argv, size):
    """The Gauss-budget refusal comes before any construction: E[2^30] used to
    scan 2^30 odd multipliers and B[3^30] to list a rank-(3^30 - 1) Cartan
    matrix, only to end on this same line."""
    def refuse(*args, **kwargs):
        raise AssertionError("kmatrix_for called")

    monkeypatch.setattr("anyonlat.cli.kmatrix_for", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: Gauss sum (central_charge_gauss): group of order {size} exceeds budget {10**6}; "
        "raise it with --budget"
    ]


def test_cached_parser_leaves_no_options_behind(monkeypatch):
    """`main` reuses one parser; each call still starts from the defaults."""
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "kmatrix", lambda args: seen.append(vars(args)) or 0)
    assert main(["kmatrix", "B[7]", "--positive-definite", "--budget", "9", "--format", "plain"]) == 0
    assert main(["kmatrix", "B[7]"]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert seen[0]["positive_definite"] and seen[0]["budget"] == 9 and seen[0]["format"] == "plain"
    assert seen[1] == {"command": "kmatrix", "spec": "B[7]", "positive_definite": False,
                       "out": None, "format": "structured", "budget": 4096}
