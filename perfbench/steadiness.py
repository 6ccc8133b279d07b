"""Two sets of benchmark runs on one commit, compared metric by metric.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --report

Each of the two sets runs every workload of ``BENCHMARK.json`` ten times,
each time with another seed (set k uses seeds 100k+1 .. 100k+10).
Runs are appended to ``.perfbench/steadiness.jsonl`` as they finish;
``--report`` prints the table from that file without running anything.

For every workload and end-to-end metric the table gives each set's median
and quartiles, the spread (quartile distance over the median) against the
metric's bound, and whether the second set's median is worse than the
first's by more than the bound.  The failed share must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LOG = ROOT / ".perfbench" / "steadiness.jsonl"
RUNS = 10
SETS = (1, 2)


def run_once(spec, workload, seed):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    unscaled = [ln for ln in proc.stderr.splitlines() if "unscaled" in ln]
    return json.loads(proc.stdout.strip().splitlines()[-1]), unscaled[-1:]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def report(spec, rows):
    by = defaultdict(lambda: defaultdict(list))
    for r in rows:
        by[r["workload"]][r["set"]].append(r["result"])
    steady = True
    for workload, sets in by.items():
        runs = [r for k in SETS for r in sets[k]]
        print(f"\n{workload}: runs per set {[len(sets[k]) for k in SETS]}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"  correct in every run: {correct}; failed shares seen: {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"  {name:16s} bound {bound:.2f}"
            medians = []
            for k in SETS:
                q1, med, q3, s = spread([r["metrics"][name]["value"] for r in sets[k]])
                medians.append(med)
                steady &= s <= bound
                line += f" | set {k}: {med:.4g} [{q1:.4g}, {q3:.4g}] spread {s:.3f}"
                line += "" if s <= bound / 3 else (" (>bound/3)" if s <= bound else " (>bound)")
            change = (medians[1] - medians[0]) / medians[0]
            worse = change > bound if m["better"] == "lower" else -change > bound
            steady &= not worse
            line += f" | change {change:+.3f} {'WORSE than bound' if worse else 'agrees'}"
            print(line)
    print(f"\nsteady: {steady}")
    return steady


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", action="store_true", help="only print the saved runs")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not args.report:
        LOG.parent.mkdir(parents=True, exist_ok=True)
        LOG.write_text("", encoding="utf-8")
        for k in SETS:
            for i in range(1, RUNS + 1):
                for w in spec["workloads"]:
                    result, note = run_once(spec, w["name"], 100 * k + i)
                    with LOG.open("a", encoding="utf-8") as fh:
                        fh.write(json.dumps({"workload": w["name"], "set": k,
                                             "seed": 100 * k + i, "result": result,
                                             "stderr": note}) + "\n")
                    print(f"set {k} run {i} {w['name']}: " + ", ".join(
                        f"{n} {v['value']:.4g}" for n, v in result["metrics"].items()),
                        flush=True)
    rows = [json.loads(line) for line in LOG.read_text(encoding="utf-8").splitlines() if line]
    sys.exit(0 if report(spec, rows) else 1)


if __name__ == "__main__":
    main()
