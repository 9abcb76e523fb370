import dataclasses
import errno
import io
import json
import random
import sys
import time

import pytest

import anyonlat.lattices
import anyonlat.linalg
from anyonlat import cli, realize
from anyonlat.cli import (
    UsageError,
    dump_matrix_file,
    load_matrix_file,
    main,
    parse_spec,
    parse_spec_factors,
)
from anyonlat.gluing import (
    GLUE_SEARCH_NODE_BUDGET,
    GlueSearchError,
    conjugate_realization,
    glue_selfdual_8,
    orthogonal_complement,
)
from anyonlat.lattices import CheckResult, cartan_a, cartan_d, e8_gram
from anyonlat.metric_groups import central_charge_gauss
from anyonlat.realize import ROUTE_RANK_LIMIT


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

    def test_fold_from_the_first_factor_matches_the_fold_from_the_trivial_group(self):
        """parse_spec folds from the first factor's group.  The group, with its
        generator numerators and its nondegenerate flag, equals the fold from
        the trivial group on every A/B instance at odd p <= 23 with r <= 3,
        every A-F instance at p = 2 with r <= 6, and every product of two or
        three catalog factors with |A| <= 4096 and at most two invariant
        factors."""
        from itertools import combinations_with_replacement

        from anyonlat.metric_groups import build_prime, direct_sum, trivial_group

        def trivial_fold(text):
            group = trivial_group()
            for spec in parse_spec_factors(text):
                group = direct_sum(group, build_prime(spec))
            return group

        def key(g):
            return g.orders, g.level, g.gen_q_num, g.gen_bil_num, g._nondegenerate

        def label(family, p, r):
            return f"{family}[{p}^{r}]" if r > 1 else f"{family}[{p}]"

        texts = [label(f, p, r) for p in (3, 5, 7, 11, 13, 17, 19, 23) for r in (1, 2, 3) for f in "AB"]
        texts += [label(f, 2, r) for f in "ABCDEF" for r in range(2 if f in "CD" else 1, 7)]
        catalog = ("A[3]", "B[3]", "A[5]", "B[5]", "A[7]", "B[7]", "A[11]", "B[13]", "A[3^2]", "A[2]",
                   "B[2]", "A[2^2]", "B[2^2]", "C[2^2]", "D[2^2]", "A[2^3]", "D[2^3]", "E[2]", "F[2]",
                   "E[2^2]", "F[2^2]")
        cases = [(text, trivial_fold(text)) for text in texts]
        for k in (2, 3):
            for combo in combinations_with_replacement(catalog, k):
                text = "*".join(combo)
                want = trivial_fold(text)
                if want.size <= 4096 and len(want.orders) <= 2:
                    cases.append((text, want))
        assert len(cases) == 1280
        for text, want in cases:
            assert key(parse_spec(text)) == key(want), text


class TestMatrixFiles:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        gram, target = load_matrix_file(str(path))
        assert gram == [[2, 1], [1, 2]]
        assert target == "B[3]"
        # A string comment is accepted and ignored.
        path.write_text(json.dumps({"comment": "any text", "gram": [[2, 1], [1, 2]], "target": "B[3]"}))
        assert load_matrix_file(str(path)) == ([[2, 1], [1, 2]], "B[3]")

    def test_plain_autodetect(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 1\n1 12\n")
        gram, target = load_matrix_file(str(path))
        assert gram == [[2, 1], [1, 12]]
        assert target is None

    def test_rejects_nonsymmetric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 2\n")
        with pytest.raises(UsageError):
            load_matrix_file(str(path))

    def test_structured_writer_matches_json_dumps(self):
        """The writer's joins give json.dumps(sort_keys=True, indent=2)'s text
        byte for byte: empty and rank-1 grams, 60-digit and negative entries,
        the target present or absent, strings that need escapes."""
        rng = random.Random(14)
        strings = ["B[3]*E[4]", "", 'say "hi"', "back\\slash\\", "caf\u00e9 \u2603 \U0001f600", "tab\tnl\n\x00"]
        for _ in range(300):
            n = rng.choice([0, 1, 1, 2, 3, 5])
            big = rng.randrange(10**59, 10**60)
            gram = [[rng.choice([0, 2, -1, -big, big, rng.randint(-99, 99)]) for _ in range(n)] for _ in range(n)]
            payload = {"gram": gram}
            if rng.random() < 0.5:
                payload["target"] = rng.choice(strings)
            expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            assert dump_matrix_file(gram, payload.get("target")) == expected

    def test_missing_file(self):
        with pytest.raises(UsageError):
            load_matrix_file("/nonexistent/nowhere.json")

    @pytest.mark.parametrize("text", [
        '{"gram": [[2.9, 1], [1, 2]]}',
        '{"gram": [[2, 1.0], [1.0, 2]]}',
        '{"gram": [[2, true], [true, 2]]}',
        '{"gram": [[2, "1"], ["1", 2]]}',
        '{"gram": [[2, 1], [true, 2]]}',
        '{"gram": [[2, 1], [1, 2.0]]}',
        '{"gram": [[2, 1], [1, "2"]]}',
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
        b"2 " + b"2" * 5000 + b"\n" + b"2" * 5000 + b" 2\n",  # the same in plain rows
    ], ids=["not-utf8", "deep-json", "long-int-json", "long-int-plain"])
    def test_rejects_undecodable_files(self, tmp_path, capsys, data):
        # Each escaped load_matrix_file as another exception; the deep JSON's
        # RecursionError left main as a traceback.
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(UsageError):
            load_matrix_file(str(path))
        assert main(["verify", str(path), "--target", "B[3]"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(path) in line

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

    @pytest.mark.parametrize("entry", ["-1_0", "1_0", "\u0662", "+\u0662", "--1", "+-1", "-", "+", "1.0", "0x2"])
    def test_plain_entries_take_a_sign_and_ascii_digits_only(self, tmp_path, capsys, entry):
        """int() reads "-1_0" as -10 and the Arabic-Indic digit two as 2, so
        `2 -1_0` and a file of "\u0662" loaded (the latter passed against
        B[3]); a plain entry is an optional sign and the digits 0-9 only."""
        path = tmp_path / "bad.txt"
        path.write_text(f"2 {entry}\n{entry} 2\n", encoding="utf-8")
        with pytest.raises(UsageError):
            load_matrix_file(str(path))
        path.write_text(f"{entry}\n", encoding="utf-8")
        assert main(["verify", str(path), "--target", "B[3]"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"error: {path}: not a JSON object, and {entry!r} is not an integer in the digits 0-9"

    def test_plain_entries_keep_their_signs(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("+2 -1 0\n-1 +2 -1\n0 -1 002\n")
        assert load_matrix_file(str(path))[0] == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]

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

    @pytest.mark.parametrize("command", ["kmatrix", "complement"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, where):
        # open() raised FileNotFoundError or IsADirectoryError past main,
        # a traceback with exit code 1, the verification-failure code; an
        # empty path failed only after the oracle ran and its lines printed.
        # The path is now refused before any elimination runs or anything
        # prints.
        out = {"missing-directory": tmp_path / "missing" / "x.json", "directory": tmp_path, "empty": ""}[where]
        if command == "kmatrix":
            argv = ["kmatrix", "A[3]", "--out", str(out)]
        else:
            src = tmp_path / "su3.json"
            src.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
            argv = ["complement", str(src), "--out", str(out)]
        counts = _count_kernel_calls(monkeypatch, ["congruence", "local_smith_form"])
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        if where == "empty":
            assert line == "error: cannot write an empty --out path"
        else:
            assert line.startswith(f"error: cannot write {out}: "), line
        assert captured.out == ""
        assert counts == {"congruence": 0, "local_smith_form": 0}
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["model", "kmatrix", "verify", "complement", "weights"])
    @pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                       OSError(errno.ENOSPC, "No space left on device")],
                             ids=["broken-pipe", "full-device"])
    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_failed_stdout_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, error, failing):
        # A write to stdout raised past main: a traceback with exit code 1,
        # the verification-failure code.  A stdout with no descriptor, as
        # here, is left as it is; a failed flush counts as a failed write.
        class FailingStdout(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise error
                return super().write(text)

            def flush(self):
                if failing == "flush":
                    raise error

        path = tmp_path / "su3.json"
        path.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        argv = {"model": ["model", "A[3]"], "kmatrix": ["kmatrix", "A[3]"],
                "verify": ["verify", str(path)], "complement": ["complement", str(path)],
                "weights": ["weights", str(path)]}[command]
        stdout = FailingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write to stdout: {error}"]
        assert sys.stdout is stdout

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

    @pytest.mark.parametrize("target", ["", " "])
    def test_verify_reads_an_empty_target_flag_not_the_embedded_one(self, tmp_path, capsys, target):
        """`--target ""` used to fall back to the file's embedded "B[3]" and
        pass; an empty --target is the spec given, refused as an embedded
        empty one is."""
        path = tmp_path / "su3.json"
        path.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        assert main(["verify", str(path), "--target", target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: empty factor at position 0 in {target!r}"]
        path.write_text(dump_matrix_file([[2, 1], [1, 2]], target=""))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: empty factor at position 0 in ''"]

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

    def test_complement_writes_nothing_on_a_failed_oracle(self, tmp_path, monkeypatch, capsys):
        """A FAIL report writes no file and prints no matrix, as in kmatrix."""
        monkeypatch.setattr(cli, "verify_realization", _fail_one_more_check(cli.verify_realization))
        src = tmp_path / "su3.json"
        out = tmp_path / "comp.json"
        src.write_text(dump_matrix_file([[2, 1], [1, 2]], target="B[3]"))
        assert main(["complement", str(src), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out.splitlines()[-2:] == ["[FAIL] forced: failed", "verdict: FAIL"]
        assert main(["complement", str(src)]) == 1
        assert '"gram"' not in capsys.readouterr().out

    def test_complement_refuses_a_wrong_embedded_target(self, tmp_path, capsys):
        """The file's target is conjugated into the output only when it names
        the model of its Gram matrix; A_2 realizes B[3], not A[5]."""
        src = tmp_path / "su3.json"
        out = tmp_path / "comp.json"
        src.write_text(dump_matrix_file([[2, -1], [-1, 2]], target="A[5]"))
        assert main(["complement", str(src), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "[FAIL] target: A[5], the conjugate of the file's A[5], is not the complement's model",
            "verdict: FAIL",
        ]

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


def _fail_one_more_check(real):
    """`real` with one failed check added to the report it returns."""
    def report(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, checks=result.checks + (CheckResult("forced", False, "failed"),))
    return report


@pytest.mark.parametrize("argv, code, forced", [
    (["model", "A[3]"], 0, None),
    (["model", "A[3]"], 1, "central_charge_closed"),
    (["model", "X[3]"], 2, None),
    (["kmatrix", "A[3]"], 0, None),
    (["kmatrix", "A[3]"], 1, "verify_realization"),
    (["kmatrix", "X[3]"], 2, None),
    (["verify", "{su3}", "--target", "B[3]"], 0, None),
    (["verify", "{su3}", "--target", "A[3]"], 1, None),
    (["verify", "{su3}", "--target", "X[3]"], 2, None),
    (["complement", "{su3}"], 0, None),
    (["complement", "{su3}"], 1, "verify_realization"),
    (["complement", "{missing}"], 2, None),
    (["weights", "{su3}"], 0, None),
    (["weights", "{missing}"], 2, None),
])
def test_one_elapsed_line_after_a_pass_or_a_failure_and_none_after_a_usage_error(
        tmp_path, monkeypatch, capsys, argv, code, forced):
    """main prints the `elapsed:` line once, after the subcommand returns,
    whatever its verdict; a usage error exits 2 with no time line.  (weights
    has no failing verdict.)"""
    path = tmp_path / "su3.json"
    path.write_text(dump_matrix_file([[2, 1], [1, 2]]))
    if forced == "central_charge_closed":
        real = cli.central_charge_closed
        monkeypatch.setattr(cli, forced, lambda spec: real(spec) + 1)
    elif forced:
        monkeypatch.setattr(cli, forced, _fail_one_more_check(cli.verify_realization))
    files = {"su3": path, "missing": tmp_path / "missing.json"}
    assert main([arg.format(**files) for arg in argv]) == code
    elapsed = [line for line in capsys.readouterr().err.splitlines() if line.startswith("elapsed: ")]
    assert len(elapsed) == (code != 2), elapsed


def test_glue_budget_error_names_its_layer_and_that_no_flag_raises_it(tmp_path, capsys):
    """D = Z2 x Z4 puts 8^8 elements in D^8; `--budget` does not reach the
    glue search, and the message says so in the package's budget form."""
    path = tmp_path / "z2z4.json"
    path.write_text(dump_matrix_file([[2, 0], [0, 4]]))
    assert main(["complement", str(path), "--budget", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: glue search (glue_selfdual_8): D^8 with |D| = 8: {8**8} elements exceed node budget "
        f"{GLUE_SEARCH_NODE_BUDGET}; no flag raises it"]


def test_complement_of_e8_names_the_empty_witness(tmp_path, capsys):
    """E8 is unimodular: its complement has the trivial discriminant group,
    whose isometry is the empty tuple, and the check line prints it."""
    path = tmp_path / "e8.txt"
    path.write_text(dump_matrix_file(e8_gram().gram, fmt="plain"))
    assert main(["complement", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "[pass] discriminant_form: invariants (), q2(gens) = [], witness ()" in out
    assert out[-1] == "verdict: pass"


def test_complement_runs_the_oracle_past_the_enumeration_budget(tmp_path, capsys):
    """|D| = 10^4 is past the default `--budget` of 4096, but the oracle
    settles a cyclic D in closed form, so `complement` runs it in full."""
    path = tmp_path / "z10000.txt"
    path.write_text("10000\n")
    assert main(["complement", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "[pass] discriminant_form: invariants (10000,), q2(gens) = ['9631/10000'], witness ((2287,),)" in out
    assert out[-1] == "verdict: pass"


def test_complement_past_the_gauss_budget_exits_2_and_writes_nothing(tmp_path, capsys):
    """|D| = 2 * 10^6 is past the Gauss sum's default budget of 10^6: exit 2
    on its budget line, as `verify` does, and no `--out` file."""
    path = tmp_path / "z2000000.txt"
    path.write_text("2000000\n")
    out = tmp_path / "comp.json"
    assert main(["complement", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: Gauss sum (central_charge_gauss): group of order 2000000 exceeds budget 1000000; "
        "raise it with --budget"]
    assert not out.exists()


def test_complement_refuses_a_group_past_the_gauss_budget_before_factoring_it(tmp_path, monkeypatch, capsys):
    """[[2 (10^20 + 39)]] has |D| = 2 (10^20 + 39): the glue's anti-isometry
    factors |D| by trial division, which ran for minutes, and only then did
    the oracle's Gauss sum refuse it.  The glue now asks the Gauss budget
    right after its Smith form, and nothing is factored."""
    import anyonlat.numtheory

    original = anyonlat.numtheory.factorize

    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    for mod in [mod for name, mod in sys.modules.items() if name.split(".")[0] == "anyonlat"]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, refuse)
    order = 2 * (10**20 + 39)
    path = tmp_path / "big.txt"
    path.write_text(f"{order}\n")
    assert main(["complement", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: Gauss sum (central_charge_gauss): group of order {order} exceeds budget 1000000; "
        "raise it with --budget"]


def test_complement_of_a_noncyclic_group_past_the_budget_exits_2(tmp_path, capsys):
    """D_4 has D = Z2 x Z2; with `--budget 2` the isometry search refuses it."""
    path = tmp_path / "d4.json"
    path.write_text(dump_matrix_file(cartan_d(4).gram))
    assert main(["complement", str(path), "--budget", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: isometry search (is_isomorphic): group of order 4 exceeds budget 2; raise it with --budget"]


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


def _count_kernel_calls(monkeypatch, names, source=anyonlat.linalg):
    """Count calls of `source`'s functions (`linalg` kernels by default),
    wherever the package binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "anyonlat"]
    for name in names:
        original = getattr(source, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_verify_runs_each_kernel_once_and_solves_nothing(tmp_path, monkeypatch, capsys):
    """The oracle's `determinant` and `inertia` each read one congruence
    elimination of the Gram matrix: two in all, until `verify_realization`
    reads both off one (ROADMAP item 1).  Its discriminant form is one
    elimination mod 2^3 (|det| = 4), and no Smith normal form."""
    path = tmp_path / "d7.json"
    path.write_text(dump_matrix_file(cartan_d(7).gram))
    counts = _count_kernel_calls(
        monkeypatch, ["determinant", "solve_columns", "congruence", "smith_normal_form", "local_smith_form"])
    assert main(["verify", str(path), "--target", "B[4]"]) == 0
    assert counts == {"determinant": 1, "solve_columns": 0, "congruence": 2, "smith_normal_form": 0,
                      "local_smith_form": 1}


def test_continued_fraction_kmatrix_factors_k_once(monkeypatch, capsys):
    """K = W^-1 comes from the Wall continuants, not a rational solve: the
    oracle's two congruence eliminations (its `determinant` and `inertia`;
    one once ROADMAP item 1 lands) and one elimination mod 7^2 for its
    discriminant form are all `kmatrix` runs, with no SNF, and the
    closed-form F matrix solves nothing either."""
    names = ["solve_columns", "congruence", "smith_normal_form", "local_smith_form"]
    counts = _count_kernel_calls(monkeypatch, names)
    assert main(["kmatrix", "B[7]"]) == 0
    assert counts == {"solve_columns": 0, "congruence": 2, "smith_normal_form": 0, "local_smith_form": 1}
    counts.update(dict.fromkeys(names, 0))
    assert main(["kmatrix", "F[4]"]) == 0
    assert counts["solve_columns"] == 0


def test_complement_eliminates_each_matrix_once(monkeypatch):
    """The gluing checks unimodularity and primitivity on the HNF of its basis
    and of the pairing with the first copy, whose kernel is the complement:
    no determinant of the glued Gram matrix and no SNF of the first copy's
    coordinates, only the discriminant form's one SNF.  Only the complement
    reads an HNF transform: the glue reads H alone, so its logged row
    operations are never replayed, and the complement replays its one."""
    names = ["determinant", "smith_normal_form", "hermite_normal_form"]
    counts = _count_kernel_calls(monkeypatch, names)
    replays = []
    replay = anyonlat.linalg.HnfResult.t
    monkeypatch.setattr(anyonlat.linalg.HnfResult, "t",
                        property(lambda hnf: replays.append(len(hnf.h)) or replay.fget(hnf)))
    glued = glue_selfdual_8(cartan_a(6).gram)
    assert replays == []
    orthogonal_complement(glued)
    assert replays == [8 * 6]  # the pairing of the glued basis with the first copy
    assert counts == {"determinant": 0, "smith_normal_form": 1, "hermite_normal_form": 2}


def test_each_op_checks_a_gram_matrix_at_its_boundary_and_once_in_the_oracle(tmp_path, monkeypatch, capsys):
    """(symmetry checks, evenness checks) per op, besides the kernels' own
    entry checks.  A file's matrix is checked for symmetry by its loader; a
    built one by its named builder (`cartan_a`'s `Lattice`), or not at all
    (the complement of (8) under E[2^3]).  Evenness is checked where an
    input enters the gluing or the coset search, and the oracle checks both
    once.  `weights` runs no oracle."""
    path = tmp_path / "a6.json"
    path.write_text(dump_matrix_file(cartan_a(6).gram))
    names = ["is_symmetric", "has_even_diagonal"]
    counts = _count_kernel_calls(monkeypatch, names)
    ops = {
        "verify": ["verify", str(path), "--target", "B[7]"],
        "complement": ["complement", str(path)],
        "weights": ["weights", str(path)],
        "kmatrix A[7]": ["kmatrix", "A[7]", "--positive-definite"],
        "kmatrix E[2^3]": ["kmatrix", "E[2^3]", "--positive-definite"],
    }
    seen = {}
    for label, argv in ops.items():
        counts.update(dict.fromkeys(names, 0))
        assert main(argv) == 0
        seen[label] = (counts["is_symmetric"], counts["has_even_diagonal"])
    capsys.readouterr()
    assert seen == {"verify": (2, 1), "complement": (2, 2), "weights": (1, 1),
                    "kmatrix A[7]": (2, 2), "kmatrix E[2^3]": (1, 2)}


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


def test_weights_refuses_an_odd_matrix_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(dump_matrix_file([[2, 1], [1, 3]]))
    assert main(["weights", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Gram matrix must be even (all diagonal entries even)"]


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
def test_positive_definite_kmatrix_runs_one_local_smith_form(monkeypatch, capsys, spec):
    """The constructors run no elimination of their own: the oracle's two
    congruence eliminations give its determinant and definiteness (one
    once ROADMAP item 1 lands), and its discriminant form one elimination
    modulo a power of the one prime of |det|, with no SNF."""
    counts = _count_kernel_calls(monkeypatch, ["smith_normal_form", "local_smith_form", "congruence"])
    assert main(["kmatrix", spec, "--positive-definite"]) == 0
    assert counts == {"smith_normal_form": 0, "local_smith_form": 1, "congruence": 2}


def test_positive_definite_f_kmatrix_runs_the_oracle_once(monkeypatch, capsys):
    """build_ef_positive leaves its output to the oracle `kmatrix` runs, so
    F[2^3] is verified once: one oracle run, whose `determinant` is the
    only one, a read of the congruence elimination."""
    oracle = _count_kernel_calls(monkeypatch, ["verify_realization"], source=anyonlat.lattices)
    kernels = _count_kernel_calls(monkeypatch, ["determinant"])
    assert main(["kmatrix", "F[2^3]", "--positive-definite"]) == 0
    assert (oracle, kernels) == ({"verify_realization": 1}, {"determinant": 1})


def test_direct_f_kmatrix_runs_one_local_smith_form(monkeypatch, capsys):
    """direct_ef_k leaves the cokernel of the closed-form F matrix to the
    oracle's discriminant form: one elimination mod 2^5 in the op, and no
    SNF."""
    counts = _count_kernel_calls(monkeypatch, ["smith_normal_form", "local_smith_form"])
    assert main(["kmatrix", "F[2^2]"]) == 0
    assert counts == {"smith_normal_form": 0, "local_smith_form": 1}


def test_positive_definite_kmatrix_refuses_an_indefinite_route(monkeypatch, capsys):
    """[[0, 2], [2, 0]] realizes E[2] with signature 0: the oracle passes it,
    and `kmatrix --positive-definite` refuses it as an internal error."""
    monkeypatch.setattr("anyonlat.cli.kmatrix_for", lambda spec, positive_definite: ([[0, 2], [2, 0]], "patched"))
    assert main(["kmatrix", "E[2]", "--positive-definite"]) == 3
    captured = capsys.readouterr()
    assert "verdict" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("internal error: ") and "signature 0 at rank 2" in line
    assert main(["kmatrix", "E[2]"]) == 0  # without the flag, the same matrix passes


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command, operand", [
    ("model", "A[3]"), ("kmatrix", "A[3]"), ("verify", "k.json"), ("complement", "k.json"), ("weights", "k.json"),
])
def test_budget_below_one_is_a_usage_error(capsys, command, operand, budget):
    """`model "A[3]" --budget -5` used to exit 0 without its brute-force |Aut|
    line, and `kmatrix --budget 0` to pass: the parser refuses both."""
    assert main([command, operand, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"anyonlat {command}: error: argument --budget: invalid positive_int value: {budget!r}"]


@pytest.mark.parametrize("budget", ["1_0", " 5", "+7", "\u0663"])
@pytest.mark.parametrize("command, operand", [
    ("model", "A[3]"), ("kmatrix", "A[3]"), ("verify", "k.json"), ("complement", "k.json"), ("weights", "k.json"),
])
def test_budget_not_in_ascii_digits_is_a_usage_error(capsys, command, operand, budget):
    """int() reads each of these ("\u0663" is the Arabic-Indic digit three),
    and `model "A[3]" --budget 1_0` used to exit 0: the parser takes the
    ASCII digits 0-9 only, as spec numbers do."""
    assert main([command, operand, "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0].startswith(f"usage: anyonlat {command} ")
    assert lines[-1] == f"anyonlat {command}: error: argument --budget: invalid positive_int value: {budget!r}"


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


@pytest.mark.parametrize("argv, label, rank", [
    (["kmatrix", "B[3^9]", "--positive-definite"], "B[3^9]", 3**9 - 1),
    (["kmatrix", "A[5]*A[3^5]", "--positive-definite", "--budget", "10000000"], "A[3^5]", 8 * (3**5 - 1)),
])
def test_kmatrix_refuses_an_oversized_route_before_building_a_block(monkeypatch, capsys, argv, label, rank):
    """B[3^9] passes the Gauss budget but routes to a rank-19682 Cartan
    matrix; A[3^5] to the complement of A_242, whose gluing has 1936 rows.
    Both are refused before any factor is built, whatever --budget says."""
    def refuse(*args, **kwargs):
        raise AssertionError("kmatrix_for called")

    monkeypatch.setattr("anyonlat.cli.kmatrix_for", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: positive-definite route (positive_definite_realization): {label} builds a matrix of rank "
        f"{rank}, past the rank limit {ROUTE_RANK_LIMIT}; no flag raises it"
    ]


@pytest.mark.parametrize("spec", ["A[3]", "B[3]", "A[7]", "B[7^2]", "A[5]", "B[5]", "B[13^2]", "A[17]",
                                  "A[2]", "B[2^3]", "C[2^4]", "C[2^5]", "D[2^3]", "E[2^2]", "E[2^3]",
                                  "F[2]", "F[2^2]", "F[2^3]"])
def test_route_rank_bounds_every_matrix_the_route_builds(monkeypatch, spec):
    """route_rank is read off the routing table; the ranks of the Gram
    matrices the route actually glues or returns never pass it, and the
    Cartan, complement and K'' routes reach it exactly."""
    built = []
    glue = realize.conjugate_realization

    def traced_glue(gram):
        built.append(8 * len(gram))
        return glue(gram)

    monkeypatch.setattr(realize, "conjugate_realization", traced_glue)
    monkeypatch.setattr("anyonlat.gluing.conjugate_realization", traced_glue)
    factor = parse_spec_factors(spec)[0]
    built.append(len(realize.positive_definite_realization(factor)))
    bound = realize.route_rank(factor)
    assert max(built) <= bound
    if factor.p != 2:
        assert max(built) == bound


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
