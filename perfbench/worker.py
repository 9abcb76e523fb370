"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR
    python3 perfbench/worker.py ... --setup-only     # time set-up, run nothing
    python3 perfbench/worker.py --probe --work DIR   # the [[4,2],[2,4]] complement

`run.py` starts this in a fresh process for every run, so peak RSS belongs to
one workload.  Ops run in-process through `anyonlat.cli.main` with one
closed-loop client: the next op starts when the previous one has returned.

Untraced (`--trace 0`): passes run until `--seconds` have gone by; the
first pass always runs to its end.

Traced (`--trace 1`): one pass in which every unit runs twice, once
untraced and once with the layer wrappers of `tracing.py` installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import workloads
from speed import SETUP_PROBES, probe_seconds
from checks import check, read_out, run_cli
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_cli():
    """anyonlat.cli from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import anyonlat.cli

    if not os.path.abspath(anyonlat.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"anyonlat was imported from {anyonlat.cli.__file__}, not {SRC}")
    return anyonlat.cli


def setup(workload: str, seed: int, work: str):
    """Import the program and write the run's input files; (cli, units, seconds)."""
    started = time.perf_counter()
    cli = _import_cli()
    units, files = workloads.build(workload, seed)
    os.makedirs(work, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return cli, units, time.perf_counter() - started


def run_pass(cli, units, digests, tracer=None):
    """Run every op of the given units; a list of per-op records."""
    records = []
    for unit in units:
        for op in unit:
            if op["out"] is not None and os.path.exists(op["out"]):
                os.remove(op["out"])
            before = tracer.begin_op() if tracer is not None else None
            code, stdout, error, seconds = run_cli(cli.main, op["argv"])
            out_bytes = read_out(op["out"])
            problems = check(op, code, stdout, error, out_bytes, digests)
            size = op["size"]
            if size is None and out_bytes is not None:
                size = workloads.matrix_size(json.loads(out_bytes)["gram"])
            record = {"argv": op["argv"], "ms": seconds * 1000.0, "ok": not problems,
                      "problems": problems, "order": op["order"], "size": size}
            if tracer is not None:
                layers = tracer.op_self(before)
                record["self_s"] = layers
                record["other_s"] = seconds - sum(layers.values())
            records.append(record)
    return records


def run(args) -> dict:
    cli, units, setup_s = setup(args.workload, args.seed, args.work)
    result = {"setup_s": setup_s,
              "setup_reference": [probe_seconds() for _ in range(SETUP_PROBES)]}
    if args.setup_only:
        return result
    digests = workloads.load_data()["digests"]
    os.chdir(args.work)
    if not args.trace:
        # the first pass runs to its end, so every op has a timing
        records, reference, started, index = [], [], time.perf_counter(), 0
        deadline = started + args.seconds
        while index == 0 or time.perf_counter() < deadline:
            for unit in workloads.pass_order(units, args.seed, index):
                if index and time.perf_counter() >= deadline:
                    break
                reference.append((len(records), probe_seconds()))
                records += run_pass(cli, [unit], digests)
            if index == 0:
                # the first pass is whole in every run; how many more fit varies
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            index += 1
        reference.append((len(records), probe_seconds()))
        result.update(wall_s=time.perf_counter() - started, passes=index, reference=reference)
    else:
        tracer = Tracer()
        tracer.install()
        problems = tracer.alias_problems()
        tracer.uninstall()
        started = time.perf_counter()
        records, traced = [], []
        # Each unit runs twice, untraced and traced, which goes first
        # alternating, so warm caches favour neither side of the overhead ratio.
        for index, unit in enumerate(workloads.pass_order(units, args.seed, 0)):
            for with_trace in ((False, True) if index % 2 else (True, False)):
                if with_trace:
                    tracer.install()
                    traced += run_pass(cli, [unit], digests, tracer)
                    tracer.uninstall()
                else:
                    records += run_pass(cli, [unit], digests)
        # self times plus `other` make up each op's wall time; spans never overlap
        problems += [f"{' '.join(r['argv'])}: other = {r['other_s']:.6f} s < 0"
                     for r in traced if r["other_s"] < -1e-6]
        other_s = sum(r["other_s"] for r in traced)
        traced_s = sum(r["ms"] for r in traced) / 1000.0
        untraced_s = sum(r["ms"] for r in records) / 1000.0
        records += traced
        result.update(layers=tracer.metrics(other_s, traced_s, untraced_s), trace_problems=problems,
                      wall_s=time.perf_counter() - started, passes=2)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(records=records, peak_rss_mb=peak_kb / 1024.0)
    return result


def probe(work: str) -> int:
    """Complement of [[4,2],[2,4]]; exits with the CLI's code or dies."""
    cli = _import_cli()
    os.makedirs(work, exist_ok=True)
    os.chdir(work)
    with open("probe.json", "w", encoding="utf-8") as fh:
        fh.write(workloads.matrix_file(workloads.PROBE_GRAM))
    return cli.main(["complement", "probe.json", "--out", "probe_out.json"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        return probe(args.work)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
