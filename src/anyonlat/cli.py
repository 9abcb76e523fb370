"""Command-line surface.

Subcommands:
  model      SPEC                    group data, q table, central charges, |Aut|
  kmatrix    SPEC [--positive-definite]   synthesize a K-matrix, run the oracle once on it
  verify     FILE --target SPEC      run the full realization oracle
  complement FILE                    glue 8 copies, emit the complement Gram
  weights    FILE                    conformal weights h_a and extremality score

Model specs name prime families with `*`-products: B[3], A[5^3], E[4]*A[2].
Matrix files are a JSON object ({"gram": [[...]], "target": "...", "comment":
"..."}, target and comment strings, the comment ignored) or, for any other
content, plain whitespace-separated integer rows, each entry an optional sign
and the ASCII digits 0-9.  All rationals print as p/q in lowest terms,
q-values reduced into [0, 1).  Exit codes: 0 pass, 1 verification failure,
2 usage or input errors, an exceeded budget or output that cannot be written
(an --out path, or stdout), 3 internal errors (a failed internal consistency
check, reported on one `internal error:` line).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from itertools import chain

from .gluing import glue_selfdual_8, orthogonal_complement
from .lattices import verify_realization
from .linalg import block_diagonal, is_symmetric
from .metric_groups import (
    BUDGET_DEFAULT,
    GAUSS_BUDGET_DEFAULT,
    InternalError,
    MetricGroup,
    PrimeFamilySpec,
    build_prime,
    central_charge_closed,
    central_charge_gauss,
    check_gauss_budget,
    conjugate,
    direct_sum,
    is_isomorphic,
)
from .realize import check_route_rank, kmatrix_for
from .symmetry import aut_bruteforce, aut_order_closed
from .weights import coset_minima, score_of_minima

__all__ = ["main", "parse_spec", "parse_spec_factors", "load_matrix_file", "dump_matrix_file"]


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# model spec grammar


# Bounds checked before any trial division or power: a bare n is factored by
# trial division, and p^r is formed before its family is built.
SPEC_DIGITS_LIMIT = 9
SPEC_ORDER_LIMIT = 10**18


def _spec_number(text: str, name: str, part: str) -> int:
    """A run of ASCII digits 0-9, at most SPEC_DIGITS_LIMIT of them; int()
    alone would also read signs, spaces, "_" and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise UsageError(f"bad {name} {text!r} in factor {part!r}: expected the digits 0-9 only")
    if len(text) > SPEC_DIGITS_LIMIT:
        raise UsageError(f"{name} in factor {part!r} has {len(text)} digits; the limit is {SPEC_DIGITS_LIMIT}")
    return int(text)


def parse_spec_factors(text: str) -> list[PrimeFamilySpec]:
    """`FAMILY[p^r]` factors joined by `*`, e.g. "B[3]*E[4]" or "A[5^3]"."""
    from .numtheory import prime_power_split

    factors = []
    for pos, chunk in enumerate(text.split("*")):
        part = chunk.strip()
        if not part:
            raise UsageError(f"empty factor at position {pos} in {text!r}")
        if len(part) < 4 or part[0] not in "ABCDEF" or part[1] != "[" or part[-1] != "]":
            raise UsageError(f"cannot parse factor {part!r} (expected FAMILY[p^r])")
        family = part[0]
        body = part[2:-1]
        if "^" in body:
            p_text, r_text = body.split("^", 1)
            p, r = _spec_number(p_text, "p", part), _spec_number(r_text, "r", part)
            # r is bounded first, so p ** r stays small even when it is refused.
            if p > 1 and (r > SPEC_ORDER_LIMIT.bit_length() or p**r > SPEC_ORDER_LIMIT):
                raise UsageError(f"p^r = {p}^{r} in factor {part!r} exceeds the limit 10^18")
        else:
            n = _spec_number(body, "n", part)
            try:
                p, r = prime_power_split(n)
            except ValueError as exc:
                raise UsageError(f"bad prime power {body!r} in factor {part!r}: {exc}") from exc
        try:
            factors.append(PrimeFamilySpec(family, p, r))
        except ValueError as exc:
            raise UsageError(f"invalid factor {part!r}: {exc}") from exc
    return factors


def parse_spec(text: str) -> MetricGroup:
    """The metric group named by a spec string (direct sums folded)."""
    return _fold(parse_spec_factors(text))


def _fold(factors: list[PrimeFamilySpec]) -> MetricGroup:
    """The direct sum of the factors' groups, folded from the first one (a
    spec has at least one factor, and a sum with the trivial group would only
    canonicalize it again)."""
    group = build_prime(factors[0])
    for spec in factors[1:]:
        group = direct_sum(group, build_prime(spec))
    return group


# ---------------------------------------------------------------------------
# matrix files


def load_matrix_file(path: str) -> tuple[list[list[int]], str | None]:
    """(gram, target spec or None); JSON or plain rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    target = None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    except (ValueError, RecursionError) as exc:
        # JSON the decoder still refuses: an integer past Python's digit
        # limit, or nesting past the recursion limit.
        raise UsageError(f"{path}: cannot decode JSON: {exc}") from exc
    # A plain rank-1 file such as "4" parses as a JSON number, not an object.
    if isinstance(payload, dict):
        if "gram" not in payload:
            raise UsageError(f"{path}: JSON matrix files need a 'gram' field")
        gram = payload["gram"]
        if not isinstance(gram, list) or not all(isinstance(row, list) for row in gram):
            raise UsageError(f"{path}: 'gram' must be a list of rows")
        # Exact type test: bool is an int subclass, and JSON true is no entry.
        if not set(map(type, chain.from_iterable(gram))) <= {int}:
            raise UsageError(f"{path}: matrix entries must be JSON integers")
        for key in ("target", "comment"):
            if key in payload and not isinstance(payload[key], str):
                raise UsageError(f"{path}: '{key}' must be a string")
        target = payload.get("target")
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()]
        gram = [[_plain_entry(x, path) for x in row] for row in rows]
    if not gram or any(len(row) != len(gram) for row in gram):
        raise UsageError(f"{path}: matrix must be square and nonempty")
    if not is_symmetric(gram):
        raise UsageError(f"{path}: matrix must be symmetric")
    return gram, target


def _plain_entry(text: str, path: str) -> int:
    """An entry of a plain-row file: an optional sign and the ASCII digits
    0-9; int() alone would also read "_" and non-ASCII digits."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):
        raise UsageError(f"{path}: not a JSON object, and {text!r} is not an integer in the digits 0-9")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise UsageError(f"{path}: {exc}") from exc


def dump_matrix_file(gram, target: str | None = None, fmt: str = "structured") -> str:
    """Plain rows, or the text of json.dumps(payload, sort_keys=True,
    indent=2) + "\n" built by joins: one int per line, keys in sorted order,
    strings through json.dumps."""
    if fmt == "plain":
        return "\n".join(" ".join(str(x) for x in row) for row in gram) + "\n"
    rows = ["[\n      " + ",\n      ".join(map(str, row)) + "\n    ]" for row in gram]
    fields = ['"gram": ' + ("[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]")]
    if target is not None:
        fields.append('"target": ' + json.dumps(target))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _check_out(path: str | None) -> None:
    """Refuse an --out path that is empty or a directory, or whose directory
    does not exist, before any work is done for it."""
    if path is None:
        return
    if not path:
        raise UsageError("cannot write an empty --out path")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {path}: no directory {folder}")


def _write_out(path: str | None, content: str) -> None:
    """Write to `path`, or to stdout for None; a path that still cannot be
    written (no permission, say) is a usage error."""
    if path is None:
        sys.stdout.write(content)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _frac(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_model(args) -> int:
    factors = parse_spec_factors(args.spec)
    group = _fold(factors)
    print(f"model {args.spec}")
    print(f"invariant factors: {list(group.orders)}  (|A| = {group.size})")
    closed = sum(central_charge_closed(f) for f in factors) % 8
    # The Gauss sum scales far beyond the enumeration budget; never shrink it.
    gauss = central_charge_gauss(group, budget=max(args.budget, GAUSS_BUDGET_DEFAULT))
    print(f"central charge: closed form {closed}, Gauss sum {gauss}")
    if closed != gauss:
        print("MISMATCH between closed form and Gauss sum")
        return 1
    if group.size <= 64:
        print("q values:")
        for x, q in sorted(group.q_values().items()):
            print(f"  {x} -> {_frac(q)}")
    for f in factors:
        order, name = aut_order_closed(f)
        label = f" ({name})" if name else ""
        print(f"|Aut {f.label()}| = {order}{label}  [closed form]")
    if group.size <= args.budget:
        aut = aut_bruteforce(group, budget=args.budget)
        label = f" ({aut.structure_name})" if aut.structure_name else ""
        print(f"|Aut| = {aut.order}{label}  [brute force]")
    return 0


def _cmd_kmatrix(args) -> int:
    _check_out(args.out)
    factors = parse_spec_factors(args.spec)
    target = _fold(factors)
    # The oracle's Gauss sum refusal, before any block (they grow with |A|).
    check_gauss_budget(target.size, max(args.budget, GAUSS_BUDGET_DEFAULT))
    if args.positive_definite:
        for f in factors:
            check_route_rank(f)
    blocks = []
    routes = []
    for f in factors:
        gram, route = kmatrix_for(f, positive_definite=args.positive_definite)
        blocks.append(gram)
        routes.append(f"{f.label()}: {route} (rank {len(gram)})")
    gram = block_diagonal(blocks)
    report = verify_realization(gram, target, iso_budget=args.budget)
    # The routes leave definiteness to this one oracle run.
    if args.positive_definite and report.passed and report.signature != len(gram):
        raise InternalError(
            f"positive-definite route gave signature {report.signature} at rank {len(gram)} for {args.spec}"
        )
    for line in report.lines():
        print(line)
    for route in routes:
        print(route)
    if not report.passed:
        print("verdict: FAIL")
        return 1
    _write_out(args.out, dump_matrix_file(gram, target=args.spec, fmt=args.format))
    if args.out:
        print(f"wrote {args.out}")
    print("verdict: pass")
    return 0


def _cmd_verify(args) -> int:
    gram, embedded_target = load_matrix_file(args.file)
    spec_text = args.target if args.target is not None else embedded_target
    if spec_text is None:
        raise UsageError("no --target given and the file embeds none")
    target = parse_spec(spec_text)
    report = verify_realization(gram, target, iso_budget=args.budget)
    for line in report.lines():
        print(line)
    print(f"verdict: {'pass' if report.passed else 'FAIL'} ({args.file} vs {spec_text})")
    return 0 if report.passed else 1


def _cmd_complement(args) -> int:
    _check_out(args.out)
    gram, embedded_target = load_matrix_file(args.file)
    # A target that does not parse is a usage error before any work, as in verify.
    factors = None if embedded_target is None else parse_spec_factors(embedded_target)
    glued = glue_selfdual_8(gram, gauss_budget=max(args.budget, GAUSS_BUDGET_DEFAULT))
    comp = orthogonal_complement(glued)
    model = conjugate(glued.base_disc.group)
    report = verify_realization(comp, model, iso_budget=args.budget)
    print(f"complement rank {len(comp)}, |det| {abs(report.det)}")
    for line in report.lines():
        print(line)
    passed = report.passed
    out_target = None
    if factors and passed:
        # The label is copied into the output, so it must name the model
        # the oracle just matched.
        conjugates = [_conjugate_spec(f) for f in factors]
        out_target = "*".join(f.label() for f in conjugates)
        if is_isomorphic(_fold(conjugates), model, budget=args.budget) is None:
            print(f"[FAIL] target: {out_target}, the conjugate of the file's {embedded_target}, "
                  "is not the complement's model")
            passed = False
    if not passed:
        print("verdict: FAIL")
        return 1
    _write_out(args.out, dump_matrix_file(comp, target=out_target, fmt=args.format))
    if args.out:
        print(f"wrote {args.out}")
    print("verdict: pass")
    return 0


def _conjugate_spec(spec: PrimeFamilySpec) -> PrimeFamilySpec:
    """The prime family of the conjugate model.

    E and F are self-conjugate; at p = 2 conjugation swaps A/B and C/D; at odd
    p it swaps A/B exactly when -1 is a non-residue (p = 3 mod 4), since
    negating q multiplies the defining character by (-1/p).
    """
    fam = spec.family
    if fam in "EF" or (fam in "AB" and spec.p % 4 == 1):
        return spec
    swap = {"A": "B", "B": "A", "C": "D", "D": "C"}
    return PrimeFamilySpec(swap[fam], spec.p, spec.r)


def _cmd_weights(args) -> int:
    gram, _ = load_matrix_file(args.file)
    minima = coset_minima(gram, budget=args.budget)
    # coset_minima accepts only positive-definite K, so the signature is the
    # rank; its keys run over range(n_1) x range(n_2) x ..., so the largest
    # key is (n_1 - 1, n_2 - 1, ...).
    factors = [c + 1 for c in max(minima)]
    print(f"rank {len(gram)}, |A| = {len(minima)}, invariant factors {factors}")
    print(f"signature: {len(gram)}")
    for coeffs in sorted(minima):
        print(f"  h{list(coeffs)} = {_frac(minima[coeffs])}")
    nonzero = sorted(v for v in minima.values() if v)
    if nonzero:
        print(f"min nonzero h = {_frac(nonzero[0])}")
    print(f"extremality score = {_frac(score_of_minima(minima, len(gram)))}")
    return 0


# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    """An int >= 1 written in the ASCII digits 0-9 only, the rule
    `_spec_number` applies to specs; int() alone would also read signs,
    spaces, "_" and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"invalid positive_int value: {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonlat",
        description="Exact construction and verification of abelian anyon models and their K-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--budget", type=positive_int, default=BUDGET_DEFAULT,
                       help="enumeration budget (group order), at least 1")

    p_model = sub.add_parser("model", help="describe a model: q table, central charges, symmetries")
    p_model.add_argument("spec")
    add_common(p_model)

    p_km = sub.add_parser("kmatrix", help="synthesize a K-matrix for a model spec")
    p_km.add_argument("spec")
    p_km.add_argument("--positive-definite", action="store_true")
    p_km.add_argument("--out", default=None)
    p_km.add_argument("--format", choices=("structured", "plain"), default="structured")
    add_common(p_km)

    p_ver = sub.add_parser("verify", help="verify a Gram matrix file against a model spec")
    p_ver.add_argument("file")
    p_ver.add_argument("--target", default=None)
    add_common(p_ver)

    p_comp = sub.add_parser("complement", help="glue 8 copies and emit the conjugate realization")
    p_comp.add_argument("file")
    p_comp.add_argument("--out", default=None)
    p_comp.add_argument("--format", choices=("structured", "plain"), default="structured")
    add_common(p_comp)

    p_w = sub.add_parser("weights", help="conformal weights and extremality score")
    p_w.add_argument("file")
    add_common(p_w)

    return parser


_HANDLERS = {
    "model": _cmd_model,
    "kmatrix": _cmd_kmatrix,
    "verify": _cmd_verify,
    "complement": _cmd_complement,
    "weights": _cmd_weights,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print("internal error: " + "; ".join(str(exc).splitlines()), file=sys.stderr)
        return 3
    except OSError as exc:
        # stdout failed: a closed pipe or a full device.
        _drop_stdout()
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def _drop_stdout() -> None:
    """Point stdout's descriptor at os.devnull once a write to it failed, so
    the interpreter's last flush of what is left in its buffer neither fails
    again nor prints; a stdout with no descriptor, such as an in-process
    caller's buffer, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
