"""Benchmark of dea-mpss whole-dataset sweeps, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's inputs from
the seed, times cold starts of the package (set-up), runs the workload in a
worker process for about ``S`` seconds of whole rounds, checks the outputs
in a third process, and prints one JSON object as its last line of output.
With ``--trace 0`` that object holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run and its overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = (4, 5)      # before and after the worker; set-up is their median
COLD_START = ("import sys; from dea_mpss import load_dataset; "
              "load_dataset(sys.argv[1], sys.argv[2])")
COLD_START_TIMEOUT = 30
WORKER_TIMEOUT = 150
CHECK_TIMEOUT = 90


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _python(args, *, timeout, capture=False):
    try:
        return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, env=_env(),
                              timeout=timeout, check=True, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not end within {timeout} s") from None
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{args[0]} exited with status {exc.returncode}") from None


def cold_starts(plan, count):
    """Seconds for fresh interpreters to import the package and load the inputs.

    Each start is awaited by a blocking wait.  ``subprocess.run`` with a
    timeout polls for the exit in sleeps of up to 50 ms, which would round
    every time up to the next poll and make the figure jump in 50 ms steps.
    """
    argv = [sys.executable, "-c", COLD_START, str(plan.data), str(plan.topology)]
    env = _env()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr)
        timer = threading.Timer(COLD_START_TIMEOUT, proc.kill)
        timer.start()
        try:
            status = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if status != 0:
            raise BenchError(f"a cold start exited with status {status}")
    return times


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def bench(args):
    layout = [ROOT / "src" / "dea_mpss" / "cli.py", inputs.INSURERS,
              inputs.INSURER_REFERENCE, inputs.RDVC_REFERENCE]
    missing = [str(p.relative_to(ROOT)) for p in layout if not p.is_file()]
    if missing:
        raise BenchError(f"not a dea-mpss checkout, missing {', '.join(missing)}")
    d = inputs.generate(args.workload, args.seed)
    plan = workloads.plan(args.workload, d, args.seed)
    runs = inputs.WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out = runs / f"{args.workload}-{os.getpid()}.json"
    try:
        setup = [] if args.trace else cold_starts(plan, COLD_STARTS[0])
        _python([HERE / "worker.py", "--workload", args.workload, "--inputs", d,
                 "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
                 "--out", out], timeout=WORKER_TIMEOUT)
        if not args.trace:
            setup += cold_starts(plan, COLD_STARTS[1])
        checked = _python([HERE / "checks.py", "--workload", args.workload, "--inputs", d,
                           "--result", out, "--seed", args.seed],
                          timeout=CHECK_TIMEOUT, capture=True)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
    verdict = json.loads(checked.stdout.strip().splitlines()[-1])
    for problem in verdict["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, why in sorted(verdict["failed"].items()):
        print(f"failed operation {key}: {why}", file=sys.stderr)

    if args.trace:
        metrics = result["trace"]
    else:
        def latency(key):
            return [ms for op, ms in result[key] if op not in verdict["failed"]]

        scaled = latency("latency_ms")
        metrics = {
            # cold starts are too short to scale by a probe; the median of nine
            # taken around the worker is steadier than any scaled figure
            "setup_s": metric(statistics.median(setup), "s"),
            "dmu_per_s": metric(statistics.median(result["sweep_rates"]), "DMU/s"),
            "one_dmu_ms_p50": metric(statistics.median(scaled), "ms"),
            "one_dmu_ms_p95": metric(percentile(scaled, 95), "ms"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        raw = latency("raw_latency_ms")
        print(f"{result['rounds']} rounds, {len(scaled)} latency samples; unscaled: "
              f"dmu_per_s {statistics.median(result['raw_sweep_rates']):.4g}, one_dmu_ms_p50 "
              f"{statistics.median(raw):.4g}, one_dmu_ms_p95 {percentile(raw, 95):.4g}; "
              f"probe median {statistics.median(result['probe_ms']):.4g} ms", file=sys.stderr)
    return {
        "correct": not verdict["problems"],
        "attempted": result["rounds"] * result["ops_per_round"],
        "failed": result["rounds"] * len(verdict["failed"]),
        "metrics": metrics,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        report = bench(args)
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
