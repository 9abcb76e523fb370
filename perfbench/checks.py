"""Run one CLI op in-process and check its result.

An op fails when it raises, exits with another code than expected, prints
another verdict, writes an `--out` file (or, for `weights`, prints a table)
whose SHA-256 differs from the digest recorded at the seed, or, for `model`,
prints a closed-form central charge or |Aut| that the Gauss sum or the
brute-force search contradicts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import time

_VERDICT = re.compile(r"^verdict: (pass|FAIL)\b", re.M)
_CHARGE = re.compile(r"^central charge: closed form (\d+), Gauss sum (\d+)$", re.M)
_AUT_CLOSED = re.compile(r"^\|Aut \S+\| = (\d+).*\[closed form\]$", re.M)
_AUT_BRUTE = re.compile(r"^\|Aut\| = (\d+).*\[brute force\]$", re.M)
AUT_BUDGET = 4096  # the CLI's default --budget: brute force runs up to this |A|


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(main, argv):
    """(exit code or None, stdout, error text or None, seconds) of main(argv).

    Any exception is caught here, because one failing op must not stop the
    run: it is reported as that op's failure.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception as exc:  # noqa: BLE001 - reported as the op's failure
        error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error, time.perf_counter() - started


def read_out(path: str | None) -> bytes | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def check(op: dict, code, stdout: str, error: str | None, out_bytes: bytes | None,
          digests: dict) -> list[str]:
    """Problems with one op's result; empty when the op is correct."""
    expect = op["expect"]
    if error is not None:
        return [f"raised {error}"]
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit {code}, expected {expect['exit']}")
    if expect["verdict"] is not None:
        found = _VERDICT.findall(stdout)
        got = found[-1] if found else None
        if got != expect["verdict"]:
            problems.append(f"verdict {got}, expected {expect['verdict']}")
    if expect["digest"] is not None:
        want = digests.get(expect["digest"])
        data = stdout.encode("utf-8") if op["out"] is None else out_bytes
        if want is None:
            problems.append(f"no digest recorded for {expect['digest']!r}")
        elif data is None:
            problems.append(f"no output file {op['out']}")
        elif sha256(data) != want:
            problems.append(f"digest of {op['out'] or 'stdout'} differs from the recorded one")
    if expect["model"]:
        problems += _check_model(op, stdout)
    return problems


def _check_model(op: dict, stdout: str) -> list[str]:
    charge = _CHARGE.search(stdout)
    if charge is None:
        return ["no central charge line"]
    problems = []
    if charge.group(1) != charge.group(2):
        problems.append(f"closed-form central charge {charge.group(1)} != Gauss sum {charge.group(2)}")
    spec = op["argv"][1]
    if "*" not in spec and op["order"] <= AUT_BUDGET:
        closed, brute = _AUT_CLOSED.findall(stdout), _AUT_BRUTE.findall(stdout)
        if len(closed) != 1 or len(brute) != 1:
            problems.append("missing closed-form or brute-force |Aut| line")
        elif closed[0] != brute[0]:
            problems.append(f"closed-form |Aut| {closed[0]} != brute force {brute[0]}")
    return problems
