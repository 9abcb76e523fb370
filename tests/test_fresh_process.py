"""The CLI's exit-code and output contract, each command in a fresh process.

Every check runs `python -m anyonlat.cli ...` (or a `-c` wrapper around
`cli.main`) as a child of one runner, `run`, with `src/` first on its
path.  The table `ROWS` holds the checks that are an input, an argv, an exit
code and the lines, patterns or `--out` digest the output must show; the
tests after it need more than a row: a stdout that fails (a closed pipe, a
full device), an address-space cap, a test of the file written, or a
pattern that holds the test's own directory.  A line is matched whole:
exactly, or by `re.fullmatch`.
"""

import hashlib
import importlib.util
import json
import os
import random
import re
import resource
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from anyonlat.cli import dump_matrix_file
from anyonlat.gluing import GLUE_SEARCH_NODE_BUDGET
from anyonlat.lattices import cartan_d, e8_gram
from anyonlat.linalg import block_diagonal
from anyonlat.metric_groups import PrimeFamilySpec
from anyonlat.realize import kmatrix_for

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
CLI = ["-m", "anyonlat.cli"]
# The package on the standard library alone: `import mpmath` fails.
NO_MPMATH = ["-c", 'import sys; sys.modules["mpmath"] = None; from anyonlat import cli; sys.exit(cli.main(sys.argv[1:]))']
LIMIT_S = 20


def run(args, timeout=LIMIT_S, **kwargs):
    """`python *args` in a fresh process; stdout and stderr are captured as
    text unless `kwargs` redirects them, and a child still running after
    `timeout` seconds is killed and fails the test."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *args], text=True, timeout=timeout, env=ENV, **kwargs)


def _load_workloads():
    """The benchmark's input generators, read from their file and left as
    they are; the module imports nothing from the package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def plain(gram) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in gram)


def structured(gram) -> str:
    return json.dumps({"gram": gram})


def disguised(gram, bits: int) -> str:
    """The benchmark's own dense U K U^T of `gram`, seed 1."""
    return structured(workloads.disguise(gram, random.Random(1), bits))


# Inputs that a passing and a failing row share.
A70D10 = {"a70d10.json": lambda: disguised(workloads.cartan_a(70), 10)}
A150D10 = {"a150d10.json": lambda: disguised(workloads.cartan_a(150), 10)}
A40E8D10 = {"a40e8d10.json": lambda: disguised(
    block_diagonal([workloads.cartan_a(40), [[-x for x in row] for row in e8_gram().gram]]), 10)}
F8D10 = {"f8d10.json": lambda: disguised(kmatrix_for(PrimeFamilySpec("F", 2, 3), positive_definite=True)[0], 10)}
ABCD10 = {"abcd10.json": lambda: disguised(block_diagonal(
    [kmatrix_for(PrimeFamilySpec(*spec))[0] for spec in (("A", 5, 1), ("B", 7, 1), ("C", 2, 2))]), 10)}
A40U100 = {"a40u100.json": lambda: structured(block_diagonal([workloads.cartan_a(40)] + [[[0, 1], [1, 0]]] * 100))}


class Row(NamedTuple):
    id: str
    args: list                      # python's arguments; "{tmp}" is the test's directory
    code: int
    files: dict[str, Callable[[], str]] = {}
    lines: tuple = ()               # each is a whole line of stdout
    patterns: tuple = ()            # each fullmatches a line of stdout
    err_patterns: tuple = ()        # each fullmatches a line of stderr
    digest: tuple | None = None     # (file name, sha256 of its bytes)


ROWS = [
    # kmatrix refuses a target past the Gauss-sum budget before it builds any
    # block, so E[2^30] exits 2 at once.
    Row("kmatrix-gauss-budget-first", [*CLI, "kmatrix", "E[2^30]", "--positive-definite"], 2),
    # The glue search refuses D = Z2 x Z4 (8^8 elements of D^8) before it
    # lists anything.
    Row("complement-glue-budget-first", [*CLI, "complement", "{tmp}/z2z4.txt"], 2,
        files={"z2z4.txt": lambda: "2 0\n0 4\n"}),
    # complement runs the same oracle as verify at every size.  |D| = 10^4 is
    # past the default --budget, which the oracle's closed-form cyclic
    # isometry does not need; |D| = 2 * 10^6 is past the Gauss sum's default
    # budget of 10^6.
    Row("complement-oracle-past-budget", [*CLI, "complement", "{tmp}/z10000.txt"], 0,
        files={"z10000.txt": lambda: "10000\n"}, patterns=(r"\[pass\] discriminant_form: .*",)),
    Row("complement-past-gauss-budget", [*CLI, "complement", "{tmp}/z2000000.txt"], 2,
        files={"z2000000.txt": lambda: "2000000\n"}),
    # E8 is unimodular: its complement's discriminant group is trivial, whose
    # isometry is the empty tuple.  No benchmark workload reaches this group.
    Row("complement-e8-empty-witness", [*CLI, "complement", "{tmp}/e8.txt"], 0,
        files={"e8.txt": lambda: plain(e8_gram().gram)},
        lines=("[pass] discriminant_form: invariants (), q2(gens) = [], witness ()",)),
    # Two of the heaviest glue searches: D = Z2 x Z2 with the toric-code form,
    # whose generators have q = (1/2, 0) for D_8 and q = (0, 0) for the
    # positive-definite E[2], take 7293505 and 7555649 of the 10^7 nodes.
    Row("complement-d8-digest", [*CLI, "complement", "{tmp}/d8.txt", "--out", "{tmp}/d8c.json"], 0,
        files={"d8.txt": lambda: plain(cartan_d(8).gram)}, lines=("complement rank 56, |det| 4", "verdict: pass"),
        digest=("d8c.json", "c5a89023402686fd5ea6df8925b5929a1a3f02986fabc5e2a0eef5dbd2bdf0fd")),
    Row("complement-posdef-e2-digest", [*CLI, "complement", "{tmp}/e2.json", "--out", "{tmp}/e2c.json"], 0,
        files={"e2.json": lambda: dump_matrix_file(
            kmatrix_for(PrimeFamilySpec("E", 2, 1), positive_definite=True)[0], target="E[2]")},
        lines=("complement rank 112, |det| 4", "verdict: pass"),
        digest=("e2c.json", "81d9398e0b2d5633aa67e4b8b645a06a4235b5e47e029d3804682bf0659444de")),
    # Eight copies of the Cartan A_78, 3.5 times the largest base the
    # benchmark glues (A_22); the file written keeps its recorded bytes.
    Row("complement-a78-digest", [*CLI, "complement", "{tmp}/a78.txt", "--out", "{tmp}/a78c.json"], 0,
        files={"a78.txt": lambda: plain(workloads.cartan_a(78))},
        lines=("complement rank 546, |det| 79", "verdict: pass"),
        digest=("a78c.json", "5dd1ed89008760536a69335dfb0a8c797fbf61150b1700b4a33eb286169a27ec")),
    # Rank 528, past the largest rank the benchmark's workloads reach (360).
    Row("verify-cartan-a528", [*CLI, "verify", "{tmp}/a528.txt", "--target", "B[23^2]"], 0,
        files={"a528.txt": lambda: plain(workloads.cartan_a(528))}, patterns=(r"verdict: pass .*",)),
    # B[3^9] passes the Gauss budget, but its Cartan route would list a
    # 19682 x 19682 matrix; the route's rank is refused before anything is built.
    Row("kmatrix-route-rank-first", [*CLI, "kmatrix", "B[3^9]", "--positive-definite"], 2),
    # The largest route the rank limit admits: the complement of eight
    # copies of A_120 (960 glue rows, rank 840).  The benchmark leaves it out.
    Row("kmatrix-a11sq-largest-route", [*CLI, "kmatrix", "A[11^2]", "--positive-definite"], 0,
        lines=("verdict: pass",)),
    # A_10 disguised to 16-bit entries: so badly reduced a basis that the
    # search would run for minutes; the node budget stops it within seconds.
    Row("weights-node-budget", [*CLI, "weights", "{tmp}/a10d16.json"], 2,
        files={"a10d16.json": lambda: disguised(workloads.cartan_a(10), 16)},
        err_patterns=(r"error: lattice search \(coset_minima\): [0-9]* nodes exceed the fixed node budget"
                      r" NODE_BUDGET = [0-9]*; no flag raises it",)),
    # Dense positive-definite disguises, whose congruence elimination meets
    # no vanishing pivot; rank 150 is past the benchmark's largest (70).
    Row("verify-a70-disguise-pass", [*CLI, "verify", "{tmp}/a70d10.json", "--target", "B[71]"], 0,
        files=A70D10,
        lines=("[pass] discriminant_form: invariants (71,), q2(gens) = ['56/71'], witness ((2,),)",)),
    Row("verify-a70-disguise-fail", [*CLI, "verify", "{tmp}/a70d10.json", "--target", "A[71]"], 1,
        files=A70D10),
    # The discriminant form of a dense disguise is read off its local Smith
    # forms, whose V columns pick the generators: F[2^3]'s rank-52 lattice
    # (a non-cyclic 2-group, every unit pivot off the even diagonal) and the
    # rank-31 default K-matrix of three primes (a shared pass mod 2^3 5^2 7^2).
    Row("verify-f8-disguise-pass", [*CLI, "verify", "{tmp}/f8d10.json", "--target", "F[2^3]"], 0,
        files=F8D10,
        lines=("[pass] discriminant_form: invariants (8, 8), q2(gens) = ['3/4', '5/4'], witness ((1, 1), (1, 4))",)),
    Row("verify-three-prime-disguise-pass", [*CLI, "verify", "{tmp}/abcd10.json", "--target", "A[5]*B[7]*C[2^2]"],
        0, files=ABCD10,
        lines=("[pass] discriminant_form: invariants (140,), q2(gens) = ['127/140'], witness ((1,),)",)),
    Row("verify-a150-disguise-pass", [*CLI, "verify", "{tmp}/a150d10.json", "--target", "B[151]"], 0,
        files=A150D10, patterns=(r"verdict: pass .*",)),
    Row("verify-a150-disguise-fail", [*CLI, "verify", "{tmp}/a150d10.json", "--target", "A[151]"], 1,
        files=A150D10),
    # A_40 + (-E_8) disguised: dense, indefinite, so the in-order pivots
    # meet negative ones.
    Row("verify-indefinite-disguise-pass", [*CLI, "verify", "{tmp}/a40e8d10.json", "--target", "A[41]"], 0,
        files=A40E8D10,
        lines=("[pass] inertia: (n+, n-, n0) = (40, 8, 0)",)),
    Row("verify-indefinite-disguise-fail", [*CLI, "verify", "{tmp}/a40e8d10.json", "--target", "B[41]"], 1,
        files=A40E8D10),
    # A_40 + U^100, U = [[0, 1], [1, 0]], no disguise: the static order puts
    # the 200 hyperbolic rows first, so the elimination meets 100 vanishing
    # pivots, each made nonzero by an x_p + x_k step.
    Row("verify-hyperbolic-planes-pass", [*CLI, "verify", "{tmp}/a40u100.json", "--target", "A[41]"], 0,
        files=A40U100,
        lines=("[pass] inertia: (n+, n-, n0) = (140, 100, 0)",)),
    Row("verify-hyperbolic-planes-fail", [*CLI, "verify", "{tmp}/a40u100.json", "--target", "B[41]"], 1,
        files=A40U100),
    # An enumeration budget below 1, or not in ASCII digits (int() alone
    # would read "1_0" as 10), is a usage error.
    Row("model-budget-below-1", [*CLI, "model", "A[3]", "--budget", "0"], 2),
    Row("model-budget-not-ascii-digits", [*CLI, "model", "A[3]", "--budget", "1_0"], 2),
    # The Gauss sum of A[3^12] (N = 531441, F = 72 fractional bits) runs near
    # its default budget, through the paired histogram and the sqrt(N)
    # blocks, and must match the closed form, with mpmath and without it.
    Row("model-gauss-near-budget", [*CLI, "model", "A[3^12]"], 0,
        lines=("central charge: closed form 0, Gauss sum 0",)),
    Row("model-gauss-without-mpmath", [*NO_MPMATH, "model", "A[3^12]"], 0,
        lines=("central charge: closed form 0, Gauss sum 0",)),
    Row("kmatrix-oracle-without-mpmath", [*NO_MPMATH, "kmatrix", "B[23^3]"], 0, lines=("verdict: pass",)),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_cli_row(tmp_path, row):
    for name, build in row.files.items():
        (tmp_path / name).write_text(build(), encoding="utf-8")
    proc = run([arg.format(tmp=tmp_path) for arg in row.args])
    assert proc.returncode == row.code, proc.stderr
    out, err = proc.stdout.splitlines(), proc.stderr.splitlines()
    for line in row.lines:
        assert line in out, proc.stdout
    for pattern in row.patterns:
        assert any(re.fullmatch(pattern, line) for line in out), proc.stdout
    for pattern in row.err_patterns:
        assert any(re.fullmatch(pattern, line) for line in err), proc.stderr
    if row.digest:
        name, sha256 = row.digest
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256


def test_out_path_in_a_missing_directory_exits_2_before_any_output(tmp_path):
    """An --out path in a missing directory is one error line and exit code
    2, not a traceback, refused before anything is built or printed."""
    out = tmp_path / "missing" / "x.json"
    proc = run([*CLI, "kmatrix", "A[3]", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    pattern = f"error: cannot write {re.escape(str(out))}: .*"
    assert any(re.fullmatch(pattern, line) for line in proc.stderr.splitlines()), proc.stderr


def test_out_file_is_the_text_json_dumps_gives(tmp_path):
    """The structured writer joins the text itself; the file must be exactly
    what json.dumps(sort_keys=True, indent=2) gives."""
    out = tmp_path / "f.json"
    proc = run([*CLI, "kmatrix", "F[2^5]", "--positive-definite", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_reader_closing_early_exits_2():
    """A reader that closes the pipe after 10 bytes is a usage error: one
    `error:` line and exit code 2, not a traceback with exit code 1 (the
    verification-failure code).  A[23]'s 216 KB of output is more than a
    pipe holds, so the writer is still writing when the reader closes."""
    deadline = time.monotonic() + LIMIT_S
    with subprocess.Popen([sys.executable, *CLI, "kmatrix", "A[23]", "--positive-definite"], env=ENV,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            assert select.select([proc.stdout], [], [], LIMIT_S)[0], "no output within the limit"
            os.read(proc.stdout.fileno(), 10)
            proc.stdout.close()
            _, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            proc.kill()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert sum(line.startswith("error: ") for line in err.splitlines()) == 1, err


def test_full_device_on_stdout_exits_2():
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run([*CLI, "model", "A[3]"], stdout=full)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize("command", [["model", "A[3]"], ["kmatrix", "A[11]", "--positive-definite"]])
def test_closed_pipe_on_stdout_exits_2_in_a_fresh_process(command):
    """A fresh process whose stdout is a pipe with no reader exits 2 with
    one `error:` line, and its shutdown prints no "Exception ignored" and
    does not turn the exit code into 120.  The pipe's read end is closed
    before the child starts, so every write to it fails, whatever the size
    of the output."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run([*CLI, *command], timeout=120, stdout=write_end)
    finally:
        os.close(write_end)
    err = [line for line in proc.stderr.splitlines() if not line.startswith("elapsed: ")]
    assert (proc.returncode, err) == (2, ["error: cannot write to stdout: [Errno 32] Broken pipe"]), proc.stderr


def test_complement_over_glue_budget_exits_2(tmp_path):
    """D = Z2 x Z6 puts 12^8 elements in D^8, past the glue search's node
    budget: one `error:` line and exit 2, before anything is listed.  The
    child runs under a 1 GiB address-space cap, so a search that allocates
    first fails this test instead of exhausting the machine's memory."""
    path = tmp_path / "z2z6.json"
    path.write_text(structured([[4, 2], [2, 4]]))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run(["-c", "import sys; from anyonlat.cli import main; sys.exit(main(sys.argv[1:]))",
                "complement", str(path)], timeout=300, preexec_fn=cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: glue search")
    assert str(12**8) in line and str(GLUE_SEARCH_NODE_BUDGET) in line


def test_import_leaves_mpmath_precision_alone():
    """In a fresh process, `import anyonlat.cli` loads nothing but the
    standard library and the package itself (the modules `site` loaded
    before it do not count), and a Gauss sum leaves mpmath's precision as
    it was."""
    code = (
        "import sys\n"
        "loaded = set(sys.modules)\n"
        "import anyonlat.cli\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - loaded}\n"
        "outside = sorted(new - set(sys.stdlib_module_names) - {'anyonlat'})\n"
        "assert not outside, outside\n"
        "import mpmath\n"
        "from anyonlat import build_prime, central_charge_gauss, PrimeFamilySpec\n"
        "before = mpmath.mp.prec\n"
        "assert central_charge_gauss(build_prime(PrimeFamilySpec('B', 3, 1))) == 2\n"
        "print(before, mpmath.mp.prec)\n"
    )
    proc = run(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["53", "53"]


def test_workflow_runs_no_cli_command():
    """CI runs tier-1 and the benchmark only: a new CLI check is a row here,
    so `python -m pytest` runs it, and the workflow names the package
    nowhere (not `-m anyonlat.cli`, nor a `-c` that imports it)."""
    assert "anyonlat" not in (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
