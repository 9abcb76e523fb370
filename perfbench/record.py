"""Write perfbench/data.json: the inputs and digests the benchmark checks against.

    python3 perfbench/record.py

Runs every op any seed can draw whose output is a file (`kmatrix`,
`complement`) or a table (`weights`) and stores the SHA-256 of that output,
along with the matrices the workloads read: the non-cyclic glue bases, the
`weights` lattices and the sources of the disguised Gram matrices.  Run it
only when outputs are meant to change; the CLI promises byte-identical
output files, and the benchmark fails every op whose output differs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from anyonlat import cli  # noqa: E402
from anyonlat.lattices import cartan_d, e6_gram, e7_gram, e8_gram, k_e, k_o  # noqa: E402
from anyonlat.linalg import determinant  # noqa: E402

import workloads as wl  # noqa: E402
from checks import read_out, run_cli, sha256  # noqa: E402

WEIGHTS_RANK_LIMIT = 9  # weights on A_10 takes 0.5 s, A_11 0.9 s and A_16 37 s


def _run(argv, out=None):
    code, stdout, error, _ = run_cli(cli.main, argv)
    if error is not None or code != 0:
        raise SystemExit(f"{' '.join(argv)} failed: exit {code}, {error}")
    return stdout, read_out(out)


def _kmatrix(spec, positive_definite, work):
    out = os.path.join(work, "k.json")
    argv = ["kmatrix", spec, "--out", out] + (["--positive-definite"] if positive_definite else [])
    _, data = _run(argv, out)
    return data


def main() -> int:
    digests, weights_inputs, sources = {}, {}, {}
    glue_inputs = {"z2xz2": [[2, 0], [0, 2]], "d4": cartan_d(4).gram}
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for spec in wl.acceptance_instances() + wl.product_pool():
            digests[f"kmatrix {spec}"] = sha256(_kmatrix(spec, False, work))
        for spec in wl.posdef_pool():
            data = _kmatrix(spec, True, work)
            digests[f"posdef {spec}"] = sha256(data)
            if spec in wl.WEIGHTS_POSDEF:
                weights_inputs[f"pd_{spec}"] = json.loads(data)["gram"]
        for source in wl.DISGUISED_SOURCES:
            kind, spec = source.split(" ", 1)
            sources[source] = json.loads(_kmatrix(spec, kind == "posdef", work))["gram"]

        bases = {f"a{n}": wl.cartan_a(n) for n in
                 sorted({wl.COMPLEMENT_FIXED, *wl.COMPLEMENT_SEEDED})}
        bases.update(glue_inputs)
        for name, gram in bases.items():
            path, out = os.path.join(work, "in.json"), os.path.join(work, "out.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(wl.matrix_file(gram))
            _, data = _run(["complement", path, "--out", out], out)
            digests[f"complement {name}"] = sha256(data)

        lattices = {f"a{n}": wl.cartan_a(n) for n in range(1, WEIGHTS_RANK_LIMIT + 1)}
        lattices.update({f"d{n}": cartan_d(n).gram for n in range(3, WEIGHTS_RANK_LIMIT + 1)})
        lattices.update(e6=e6_gram().gram, e7=e7_gram().gram, e8=e8_gram().gram)
        lattices.update({f"ke{r}": k_e(r).gram for r in (2, 4, 6)})
        lattices["ko3"] = k_o(3).gram
        weights_inputs.update(lattices)
        entries = {}
        for name, gram in sorted(weights_inputs.items()):
            path = os.path.join(work, "w.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(wl.matrix_file(gram))
            stdout, _ = _run(["weights", path])
            digests[f"weights {name}"] = sha256(stdout.encode("utf-8"))
            entries[name] = {"gram": gram, "order": abs(determinant(gram))}

    data = {"digests": dict(sorted(digests.items())), "glue_inputs": glue_inputs,
            "weights_inputs": entries, "disguised_sources": sources}
    with open(wl.DATA_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {wl.DATA_PATH}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
