"""Shows that the output checks catch doctored outputs.

    python3 perfbench/selftest.py

Runs one round of each workload on small inputs (40 units instead of 300),
confirms that the genuine outputs pass, then doctors one output at a time
and confirms that the checks flag it: a score scaled by 1 + 1e-4, a
flipped gap sign, a dropped row, a wrong Kruskal-Wallis H, a doctored score
beside an operation that failed (which must count as failed without hiding
the doctored score), and a log-spread score off its certified reference,
which must count as a failed operation.
Exits 1 if any doctored output goes unnoticed.
"""

from __future__ import annotations

import copy
import csv
import io
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dea_mpss  # noqa: E402
import dea_mpss.cli  # noqa: E402,F401

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from speed import SpeedLog  # noqa: E402

SEED = 1
UNITS = 40


def one_round(workload, d):
    plan = workloads.plan(workload, d, SEED)
    record = worker.Record()
    worker.run_rounds(worker.Runner(dea_mpss), plan, 0.0, record, 0, SpeedLog())
    return {"outputs": {k: {"status": s, "stdout": o, "stderr": e}
                        for k, (s, o, e) in record.outputs.items()},
            "mismatch": record.mismatch}


def edit_table(text, table, edit):
    """Apply ``edit(rows)`` to one table of a raw CSV report, keeping the rest."""
    parts = text.strip("\n").split("\n\n")
    rows = list(csv.reader(io.StringIO(parts[table])))
    edit(rows)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    parts[table] = out.getvalue().strip("\n")
    return "\n\n".join(parts) + "\n"


def scale_score(rows):
    col = rows[0].index("score")
    row = next(r for r in rows[1:] if abs(float(r[col])) > 1e-3)
    row[col] = repr(float(row[col]) * (1 + 1e-4))


def flip_gap(rows):
    col = next(k for k, h in enumerate(rows[0]) if h.endswith("_gap"))
    row = next(r for r in rows[1:] if abs(float(r[col])) > 1e-3)
    row[col] = repr(-float(row[col]))


def drop_row(rows):
    del rows[len(rows) // 2]


def wrong_h(rows):
    col = rows[0].index("h_statistic")
    rows[1][col] = repr(float(rows[1][col]) + 0.01)


def nudge_passing_spread_score(result, failed):
    """Move the score of a log-spread unit that passes by 1e-4 of itself."""
    key = next(k for k in result["outputs"] if k.startswith("dmu:") and k not in failed
               and result["outputs"][k]["status"] == 0)

    def edit(rows):
        c = {h: k for k, h in enumerate(rows[0])}
        r = rows[1]
        delta = float(r[c["score"]]) * 1e-4
        r[c["score"]] = repr(float(r[c["score"]]) + delta)
        r[c["stage2_outputs"]] = repr(float(r[c["stage2_outputs"]]) + delta)

    out = result["outputs"][key]
    out["stdout"] = edit_table(out["stdout"], 0, edit)
    return key


def main() -> None:
    root = inputs.WORK / "selftest"
    dirs = {}
    for workload, write in (("pinned-stages-300", inputs.write_two_stage),
                            ("chain-300", inputs.write_chain)):
        d = dirs[workload] = root / workload
        d.mkdir(parents=True, exist_ok=True)
        write(d, np.random.default_rng(SEED), UNITS)
    dirs["small-cli"] = inputs.generate("small-cli", SEED, root)

    results = {w: one_round(w, d) for w, d in dirs.items()}
    ok = True
    baseline = {}
    for w, d in dirs.items():
        v = checks.check(w, d, results[w], SEED)
        baseline[w] = set(v.failed)
        print(f"genuine {w}: {len(v.problems)} problems, {len(v.failed)} failed operations")
        ok &= not v.problems

    cases = (
        ("score scaled by 1 + 1e-4", "small-cli", "network-variable", 0, scale_score),
        ("score scaled by 1 + 1e-4", "chain-300", "chain-mpss", 0, scale_score),
        ("flipped gap sign", "chain-300", "chain-mpss", 1, flip_gap),
        ("dropped row", "pinned-stages-300", "network-stages", 0, drop_row),
        ("dropped row", "small-cli", "network-variable", 0, drop_row),
        ("wrong Kruskal-Wallis H", "small-cli", "kruskal-wallis", 0, wrong_h),
    )
    for label, w, key, table, edit in cases:
        doctored = copy.deepcopy(results[w])
        out = doctored["outputs"][key]
        out["stdout"] = edit_table(out["stdout"], table, edit)
        v = checks.check(w, dirs[w], doctored, SEED)
        caught = bool(v.problems)
        ok &= caught
        first = v.problems[0] if caught else "NOT CAUGHT"
        print(f"{label} in {w} {key}: {first}")

    # a failed operation is counted, and the other outputs are still checked
    doctored = copy.deepcopy(results["chain-300"])
    doctored["outputs"]["chain-eff"]["status"] = 2
    out = doctored["outputs"]["chain-mpss"]
    out["stdout"] = edit_table(out["stdout"], 0, scale_score)
    v = checks.check("chain-300", dirs["chain-300"], doctored, SEED)
    caught = "chain-eff" in v.failed and bool(v.problems)
    ok &= caught
    print(f"failed chain-eff beside a doctored chain-mpss score: "
          f"{v.problems[0] if caught else 'NOT CAUGHT'}")

    doctored = copy.deepcopy(results["small-cli"])
    key = nudge_passing_spread_score(doctored, baseline["small-cli"])
    v = checks.check("small-cli", dirs["small-cli"], doctored, SEED)
    caught = key in v.failed and not v.problems
    ok &= caught
    print(f"log-spread score off its reference ({key}): "
          f"{v.failed.get(key, 'NOT COUNTED AS FAILED')}")
    print("self-test passed" if ok else "self-test FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
