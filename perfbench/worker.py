"""Runs one workload's rounds in this process and writes timings and outputs.

``run.py`` starts it with ``PYTHONPATH`` set to the checkout's ``src``.  It
drives the program through ``dea_mpss.cli.run`` with stdout captured, so
every layer from CSV parsing to rendering is on the timed path.  It never
imports scipy: its peak resident memory is the program's own.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import CLI_WRAPS, Tracer  # noqa: E402
from speed import SpeedLog  # noqa: E402
from workloads import DMU, SWEEP  # noqa: E402

WARMUP_DMU_CALLS = 5


class Runner:
    """Executes the operations of a plan against the imported package."""

    def __init__(self, package):
        self.pkg = package
        self.tracer = None

    def execute(self, op):
        """Run ``op``; returns (seconds, status, stdout, stderr).

        ``status`` is the exit code, or the name of an exception that escaped.
        """
        if self.tracer:
            self.tracer.new_invocation()
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span("cli") if self.tracer else nullcontext()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                with span:
                    status = self.pkg.cli.run(list(op.argv))
            except Exception as exc:  # a fault the CLI does not report; counted as failed
                status = type(exc).__name__
                print(f"{status}: {exc}", file=err)
        return time.perf_counter() - start, status, out.getvalue(), err.getvalue()


class Record:
    """What the timed rounds produced."""

    def __init__(self):
        self.rounds = 0
        self.timed = []          # (op, round, start, seconds) of every operation
        self.outputs = {}        # op key -> first (status, stdout, stderr)
        self.mismatch = []       # op keys whose later output differed from the first

    def note(self, op, status, stdout, stderr):
        first = self.outputs.setdefault(op.key, (status, stdout, stderr))
        if first[:2] != (status, stdout) and op.key not in self.mismatch:
            self.mismatch.append(op.key)

    def figures(self, speed):
        """Per-round sweep rates and per-call latencies, raw and speed-scaled."""
        swept = {r: [0, 0.0, 0.0] for r in range(self.rounds)}   # DMUs, raw s, scaled s
        raw_ms, scaled_ms = [], []
        smoothed = speed.smoothed()
        for op, r, start, spent in self.timed:
            scaled = spent * speed.factor(start, start + spent, smoothed)
            if op.kind == DMU:
                raw_ms.append((op.key, spent * 1e3))
                scaled_ms.append((op.key, scaled * 1e3))
            else:
                swept[r][0] += op.dmus
                swept[r][1] += spent
                swept[r][2] += scaled
        return {
            "raw_sweep_rates": [n / s for n, s, _ in swept.values()],
            "sweep_rates": [n / s for n, _, s in swept.values()],
            "raw_latency_ms": raw_ms,
            "latency_ms": scaled_ms,
        }


def warm_up(runner, plan):
    """Let lazy imports and caches settle on the cheap operations of a round."""
    dmu_ops = [op for op in plan.ops if op.kind == DMU][:WARMUP_DMU_CALLS]
    small = [op for op in plan.ops if op.kind == SWEEP and op.dmus <= 100]
    for op in small + dmu_ops:
        runner.execute(op)


def run_rounds(runner, plan, seconds, record, min_dmu_calls, speed, tracer=None):
    """Whole rounds until ``seconds`` and ``min_dmu_calls`` are reached.

    With a ``tracer``, rounds alternate untraced and traced, and the last
    round is a traced one, so both kinds run equally often.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        traced = tracer is not None and record.rounds % 2 == 1
        if traced:
            tracer.install(runner.pkg)
            runner.tracer = tracer
        try:
            for op in plan.ops:
                speed.maybe_probe()
                began, paused = time.perf_counter(), speed.paused
                spent, status, stdout, stderr = runner.execute(op)
                record.timed.append((op, record.rounds, began, spent - (speed.paused - paused)))
                record.note(op, status, stdout, stderr)
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        record.rounds += 1
        calls += plan.dmu_calls() if tracer is None or traced else 0
        if (time.perf_counter() - start >= seconds and calls >= min_dmu_calls
                and (tracer is None or traced)):
            speed.probe()
            return


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import dea_mpss
    import dea_mpss.cli

    src = HERE.parent / "src"
    if src.resolve() not in Path(dea_mpss.__file__).resolve().parents:
        sys.exit(f"dea_mpss imported from {dea_mpss.__file__}, not from {src}")
    plan = workloads.plan(args.workload, args.inputs, args.seed)
    runner = Runner(dea_mpss)
    warm_up(runner, plan)
    record = Record()
    speed = SpeedLog()
    # probe inside whole-file sweeps too, between one unit's evaluation and the next
    for attr, _, dmu_arg in CLI_WRAPS:
        if dmu_arg is not None:
            speed.hook(dea_mpss.cli, attr)
    result = {}
    if args.trace:
        tracer = Tracer(paused=lambda: speed.paused)
        run_rounds(runner, plan, args.seconds, record, workloads.MIN_DMU_CALLS // 2, speed,
                   tracer)
        # rounds 0, 2, .. ran untraced and 1, 3, .. traced, so the two kinds
        # share the machine's swings; the rates are speed-scaled
        rates = record.figures(speed)["sweep_rates"]
        plain, traced = statistics.median(rates[0::2]), statistics.median(rates[1::2])
        result["trace"] = tracer.metrics(record.rounds // 2, speed.median_factor(),
                                         (plain / traced - 1.0) * 100.0)
    else:
        run_rounds(runner, plan, args.seconds, record, workloads.MIN_DMU_CALLS, speed)
        result.update(record.figures(speed))
    result.update(
        rounds=record.rounds,
        ops_per_round=len(plan.ops),
        probe_ms=[t * 1e3 for t in speed.took],
        outputs={k: {"status": s, "stdout": o, "stderr": e}
                 for k, (s, o, e) in record.outputs.items()},
        mismatch=record.mismatch,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
