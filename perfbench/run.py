"""The anyonlat benchmark.

    python3 perfbench/run.py --workload catalog|posdef|disguised|all \
        --seed N --seconds S --trace 0|1

Prints a table of the metrics, each with its unit, then, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones.  Exits with 2, printing no result, when the checkout has no
`src/anyonlat`, and with 1 when a run breaks down.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import mpmath

from checks import check, read_out
from speed import NOMINAL_S, host_scale, record_scales
from tracing import per_layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_SAMPLES = 5          # the run's own set-up plus four set-up-only processes
WORKER_TIMEOUT_S = 170     # a run must end within 180 s
PROBE_AS_LIMIT = 1 << 30   # address-space cap of the probe process only
PROBE_TIMEOUT_S = 60


class RunError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float, limit_as: int | None = None):
    """Run worker.py to completion; (exit code, stdout, stderr)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))

    try:
        proc = subprocess.run([sys.executable, WORKER, *args], capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT, preexec_fn=cap if limit_as else None)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(args)} ran past {timeout} s") from exc
    return proc.returncode, proc.stdout, proc.stderr


def _worker_json(args: list[str]) -> dict:
    code, stdout, stderr = _worker(args, WORKER_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        raise RunError(f"worker {' '.join(args)} exited {code}:\n{stderr[-2000:]}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  Where op
    times leave gaps, a single order statistic jumps across them from run
    to run; this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def op_latencies(records, scales) -> list[float]:
    """Each distinct op's typical latency in ms: the median of its timings,
    each times its record's scale, over the passes of the run."""
    times: dict[tuple, list[float]] = {}
    for r, scale in zip(records, scales):
        times.setdefault(tuple(r["argv"]), []).append(r["ms"] * scale)
    return [statistics.median(ms) for ms in times.values()]


def latency_metrics(records, scales, ok_ops: int) -> dict:
    latencies = op_latencies(records, scales)
    return {
        # one pass of every op at its typical latency, correct ops only
        "ops_per_s": ok_ops / (sum(latencies) / 1000.0),
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
    }


def run_probe(work: str) -> dict:
    """Complement of [[4,2],[2,4]] under the address-space cap; its expected
    result is a passing complement, as for any other even positive-definite
    input.  At the seed the glue search runs out of memory instead."""
    code, stdout, stderr = _worker(["--probe", "--work", work], PROBE_TIMEOUT_S, PROBE_AS_LIMIT)
    op = {"out": "probe_out.json", "order": 12,
          "expect": {"exit": 0, "verdict": "pass", "digest": None, "model": False}}
    problems = check(op, code, stdout, None, read_out(os.path.join(work, "probe_out.json")), {})
    error = stderr.strip().splitlines()[-1:] if code else []
    return {"ok": not problems, "problems": problems + error}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    base = ["--workload", workload, "--seed", str(seed), "--work", work]
    try:
        setups = [_worker_json(base + ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)]
        shutil.rmtree(work, ignore_errors=True)
        result = _worker_json(base + ["--seconds", str(seconds), "--trace", str(trace)])
        probe = run_probe(work) if workload == "posdef" and not trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result)
    records = result["records"]
    failed = [r for r in records if not r["ok"]]
    attempted = len(records)
    problems = [f"{' '.join(r['argv'])}: {'; '.join(r['problems'])}" for r in failed]
    report = {"workload": workload, "seed": seed, "passes": result["passes"], "ops": attempted,
              "wall_s": result["wall_s"], "setup_samples_s": [s["setup_s"] for s in setups],
              "failed_ops": problems, "records": records, "reference": result.get("reference")}
    if trace:
        metrics = result["layers"]
        problems += result["trace_problems"]
        report["trace_problems"] = result["trace_problems"]
    else:
        distinct = len({tuple(r["argv"]) for r in records})
        ok_ops = distinct - len({tuple(r["argv"]) for r in failed})
        probe_ok = probe is None or probe["ok"]
        metrics = {
            "setup_s": statistics.median(s["setup_s"] * host_scale(s["setup_reference"])
                                         for s in setups),
            **latency_metrics(records, record_scales(result["reference"], attempted), ok_ops),
            # per distinct op, as the number of passes varies; the probe is
            # attempted once per run and counts here
            "ok_ratio": (ok_ops + (probe is not None and probe_ok)) / (distinct + (probe is not None)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        # the same metrics in wall time, not scaled to the nominal host speed
        report["wall_metrics"] = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            **latency_metrics(records, [1.0] * attempted, ok_ops),
        }
        report["host_probe_ms"] = 1000.0 * statistics.median(s for _, s in result["reference"])
        report["probe"] = probe
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload}-seed{seed}{'-trace' if trace else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return {"correct": not problems, "attempted": attempted, "failed": len(problems),
            "metrics": metrics, "report": report}


def print_table(res: dict, trace: int) -> None:
    report = res["report"]
    units = per_layer_metrics() if trace else END_TO_END
    print(f"workload {report['workload']}  seed {report['seed']}  {report['ops']} ops in "
          f"{report['passes']} pass(es), {report['wall_s']:.2f} s")
    for name, value in res["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {units[name][0]}")
    if "wall_metrics" in report:
        print(f"  in wall time (reference kernel {report['host_probe_ms']:.3f} ms, "
              f"nominal {NOMINAL_S * 1000:.3f} ms):")
        for name, value in report["wall_metrics"].items():
            print(f"    {name:<46} {value:>14.6g} {units[name][0]}")
    probe = report.get("probe")
    if probe is not None:
        print(f"  probe complement [[4,2],[2,4]]: {'pass' if probe['ok'] else 'FAIL'} "
              f"{'; '.join(probe['problems'])}")
    for line in report["failed_ops"][:10] + report.get("trace_problems", [])[:10]:
        print(f"  FAILED {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description="anyonlat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "anyonlat", "cli.py")):
        print(f"error: no anyonlat source under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(results[name], args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = per_layer_metrics() if args.trace else END_TO_END
    summary = {
        name: {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
               "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in res["metrics"].items()}}
        for name, res in results.items()
    }
    print(json.dumps(summary[args.workload] if args.workload != "all" else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
