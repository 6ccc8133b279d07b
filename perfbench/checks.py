"""Checks of a run's outputs, made outside every timed interval.

Each output is checked against a computation made apart from the program
(HiGHS on a separately assembled program, scipy, numpy, the published
insurer table) or against a property the method must have (a score is the
difference of its own factors, a unit can always evaluate itself, a gap is
appropriate minus current).  None compares with a stored copy of the
program's output.  Checks that compare one invocation's output with
another's (a ``--dmu`` row with its sweep row) only test that the program
agrees with itself.

Run as ``python3 perfbench/checks.py --workload W --inputs DIR --result FILE
--seed N``; it prints a JSON verdict ``{"problems": [...], "failed": {...}}``.
``failed`` lists operations that failed or, on the log-spread units, returned
a score the certified reference contradicts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference  # noqa: E402
from workloads import plan, unit_ids  # noqa: E402

IDENTITY_TOL = 1e-9   # arithmetic the program does in floating point
REFERENCE_TOL = 1e-6  # agreement with an independently solved program
CHAIN_SAMPLE = 15     # units of each run checked against a certified reference
STAGES_SAMPLE = 10
INSURER_TOL = 1e-3
INSURER_UNVERIFIED = {"23"}   # profit cells not confirmed against the source
INSURER_MPSS = {"2", "5", "12", "22"}
NETWORK_HEADER = ["dmu", "score", "stage1_inputs", "stage1_outputs",
                  "stage2_inputs", "stage2_outputs", "mpss"]


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def csv_tables(text):
    """The tables of a raw CSV report (blank-line separated) as lists of dicts."""
    return [list(csv.DictReader(io.StringIO(t))) for t in text.strip("\n").split("\n\n")]


def markdown_rows(text):
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    cells = [[c.strip() for c in ln.strip("|").split("|")] for ln in lines]
    header, body = cells[0], cells[2:]
    return [dict(zip(header, row)) for row in body]


class Verdict:
    def __init__(self):
        self.problems = []
        self.failed = {}   # op key -> why it counts as failed

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def as_json(self):
        return {"problems": self.problems, "failed": self.failed}


def _sample(ids, seed, k):
    order = np.random.default_rng([seed, 11]).permutation(len(ids))
    return [ids[j] for j in order[: 2 * k]]




def dmu_reports(out):
    """(operation key, unit, report) of every ``--dmu`` call that exited 0."""
    return [(key, key[4:], text) for key, text in out.items() if key.startswith("dmu:")]


def dmu_calls_agree(v, out, sweep):
    """Each --dmu report repeats its unit's rows of the whole-file report.

    ``sweep`` holds one {dmu: row} dict per table of the whole-file report.
    """
    for key, dmu, text in dmu_reports(out):
        got = csv_tables(text)
        v.require(len(got) == len(sweep) and all(len(t) == 1 for t in got)
                  and [t[0] for t in got] == [s.get(dmu) for s in sweep],
                  f"{key}: report differs from the unit's rows in the whole-file report")


# -- two-stage network sweeps ------------------------------------------------


def network_rows(v, rows, ids, what, *, stages=False):
    """Score identities of a raw ``network-mpss`` table; returns rows by DMU."""
    header = NETWORK_HEADER + (["stage1_score", "stage2_score"] if stages else [])
    v.require(rows and list(rows[0]) == header, f"{what}: header is not {header}")
    v.require([r.get("dmu") for r in rows] == list(ids),
              f"{what}: {len(rows)} rows, expected one per unit in data order ({len(ids)})")
    for r in rows:
        try:
            score = float(r["score"])
            factors = float(r["stage2_outputs"]) - float(r["stage1_inputs"])
        except (KeyError, TypeError, ValueError):
            v.require(False, f"{what}: unreadable row {r}")
            continue
        v.require(abs(score - factors) <= IDENTITY_TOL * max(1.0, abs(score)),
                  f"{what}: {r['dmu']} score {score!r} is not stage2_outputs - "
                  f"stage1_inputs = {factors!r}")
        v.require(score >= -IDENTITY_TOL,
                  f"{what}: {r['dmu']} score {score!r} is negative, but a unit "
                  "evaluating itself scores 0")
        v.require(r["mpss"] == ("yes" if abs(score) <= 1e-6 else "no"),
                  f"{what}: {r['dmu']} mpss flag {r['mpss']} disagrees with score {score!r}")
    return {r.get("dmu"): r for r in rows}


def two_stage_matrices(path):
    """Unit ids and the X1, Z, Y1, X2, Y2 blocks of a generated two-stage file."""
    layout = inputs.TWO_STAGE
    ids, m = reference.read_matrix(path, inputs.two_stage_measures(layout))
    widths = [len(layout[k]) for k in ("x1", "z", "y1", "x2", "y2")]
    parts = np.split(m, np.cumsum(widths)[:-1], axis=1)
    return ids, parts


def reference_sample(v, ids, seed, k, solve, compare):
    """Compare ``k`` seeded units whose reference certifies."""
    done = 0
    for dmu in _sample(ids, seed, k):
        if done == k:
            break
        try:
            ref = solve(ids.index(dmu))
        except reference.Uncertified:
            continue
        compare(dmu, ref)
        done += 1
    v.require(done == k, f"only {done} of {k} sampled references certified")


def check_pinned_stages(v, d, out, seed):
    key = "network-stages"
    ids = unit_ids(d / "data.csv")
    for k, dmu, text in dmu_reports(out):
        network_rows(v, csv_tables(text)[0], [dmu], k, stages=True)
    if key not in out:
        return
    rows = network_rows(v, csv_tables(out[key])[0], ids, key, stages=True)
    dmu_calls_agree(v, out, [rows])
    _, parts = two_stage_matrices(d / "data.csv")
    columns = {"system": "score", "stage1": "stage1_score", "stage2": "stage2_score"}

    def compare(dmu, ref):
        for part, value in ref.items():
            got = float(rows[dmu][columns[part]]) if dmu in rows else float("nan")
            v.require(close(got, value, REFERENCE_TOL),
                      f"{key}: {dmu} {part} {got!r}, certified reference {value!r}")

    reference_sample(v, ids, seed, STAGES_SAMPLE,
                     lambda o: reference.two_stage_scores(*parts, o, radial=True, lex=True),
                     compare)


# -- value chain -------------------------------------------------------------


def chain_tables(v, tables, ids, level, what):
    """Identities of a ``chain-mpss --targets`` report on units ``ids``.

    Returns its chain and target tables as {dmu: row}.
    """
    if not v.require(len(tables) == 2, f"{what}: expected two tables"):
        return {}, {}
    chain, targets = tables
    v.require([r["dmu"] for r in chain] == ids and [r["dmu"] for r in targets] == ids,
              f"{what}: expected one row per unit in data order in both tables")
    for r in chain:
        s, tm, to, tr = (float(r[k]) for k in ("score", "theta_market", "theta_operation",
                                                "theta_rd"))
        v.require(abs(s - (tm - to - tr)) <= IDENTITY_TOL * max(1.0, abs(s)),
                  f"{what}: {r['dmu']} score {s!r} is not theta_market - theta_operation"
                  f" - theta_rd")
        # the unit evaluating itself (all factors 1) scores 1 - 1 - 1
        v.require(s >= -1.0 - IDENTITY_TOL,
                  f"{what}: {r['dmu']} score {s!r} is below the self-evaluation's -1")
    for r in targets:
        moves = []
        for mname in inputs.CHAIN["zo"] + inputs.CHAIN["zr"]:
            cur, app, gap = (float(r[f"{mname}_{k}"]) for k in ("current", "appropriate", "gap"))
            v.require(cur == level[(r["dmu"], mname)],
                      f"{what}: {r['dmu']} {mname} current {cur!r} is not the data level")
            v.require(abs(gap - (app - cur)) <= IDENTITY_TOL * max(1.0, abs(app), abs(cur)),
                      f"{what}: {r['dmu']} {mname} gap {gap!r} is not appropriate - current")
            if abs(gap) > 1e-6 * abs(cur):
                moves.append(f"{mname}{'↑' if gap > 0 else '↓'}")
        want = ", ".join(moves) or "maintain"
        v.require(r["strategy"] == want,
                  f"{what}: {r['dmu']} strategy {r['strategy']!r}, gap signs give {want!r}")
    return {r["dmu"]: r for r in chain}, {r["dmu"]: r for r in targets}


def check_chain(v, d, out, seed):
    ids = unit_ids(d / "data.csv")
    c = inputs.CHAIN
    names = c["xo"] + c["zo"] + c["xr"] + c["zr"] + c["y"]
    _, m = reference.read_matrix(d / "data.csv", names)
    level = {(ids[j], name): m[j, i] for j in range(len(ids)) for i, name in enumerate(names)}
    for k, dmu, text in dmu_reports(out):
        chain_tables(v, csv_tables(text), [dmu], level, k)

    if "chain-mpss" in out:
        chain, targets = chain_tables(v, csv_tables(out["chain-mpss"]), ids, level,
                                      "chain-mpss --targets")
        dmu_calls_agree(v, out, [chain, targets])
        parts = np.split(m, np.cumsum([len(c[k]) for k in ("xo", "zo", "xr", "zr")]), axis=1)

        def compare(dmu, ref):
            got = float(chain[dmu]["score"]) if dmu in chain else float("nan")
            v.require(close(got, ref, REFERENCE_TOL),
                      f"chain-mpss: {dmu} score {got!r}, certified reference {ref!r}")

        reference_sample(v, ids, seed, CHAIN_SAMPLE,
                         lambda o: reference.chain_score(*parts, o), compare)

    if "chain-eff" in out:
        eff = csv_tables(out["chain-eff"])[0]
        v.require([r["dmu"] for r in eff] == ids, "chain-eff: expected one row per unit")
        for r in eff:
            e = {k: float(r[k]) for k in ("operation", "rd", "marketability", "objective")}
            v.require(all(0.0 < e[k] <= 1.0 + IDENTITY_TOL
                          for k in ("operation", "rd", "marketability")),
                      f"chain-eff: {r['dmu']} efficiencies {e} outside (0, 1]")
            want = e["operation"] + e["rd"] - 1.0 / e["marketability"]
            v.require(close(e["objective"], want, IDENTITY_TOL),
                      f"chain-eff: {r['dmu']} objective {e['objective']!r} is not "
                      f"operation + rd - 1/marketability = {want!r}")


# -- small-cli ---------------------------------------------------------------


def log_spread(v, d, out):
    """A log-spread score the certified reference contradicts counts as failed."""
    spread_ids, parts = two_stage_matrices(d / "log_spread.csv")
    for key, dmu, text in dmu_reports(out):
        own = Verdict()
        (row,) = network_rows(own, csv_tables(text)[0], [dmu], key).values()
        if own.problems:
            v.failed[key] = own.problems[0]
            continue
        try:
            ref = reference.two_stage_scores(*parts, spread_ids.index(dmu))["system"]
        except reference.Uncertified as exc:
            v.require(False, f"{key}: reference not certified ({exc})")
            continue
        if not close(float(row["score"]), ref, REFERENCE_TOL):
            v.failed[key] = f"score {row['score']}, certified reference {ref!r}"


def check_small_cli(v, d, out, seed):
    log_spread(v, d, out)
    ids = unit_ids(inputs.INSURERS)
    with open(inputs.INSURERS, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")[1:]
    _, m = reference.read_matrix(inputs.INSURERS, names)
    with open(inputs.INSURER_REFERENCE, encoding="utf-8", newline="") as fh:
        published = {r["dmu"]: r for r in csv.DictReader(fh)}

    if "validate" in out:
        validate = {r["check"]: r["value"] for r in markdown_rows(out["validate"])}
        v.require(validate.get("dmus") == str(len(ids)) and validate.get("status") == "ok"
                  and validate.get("shape") == "two_stage_general",
                  f"validate: unexpected report {validate}")

    if "summary" in out:
        summary = csv_tables(out["summary"])[0]
        v.require([r["measure"] for r in summary] == list(names),
                  "summary: measures out of order")
        for i, r in enumerate(summary):
            col = m[:, i]
            want = {"mean": np.mean(col), "sd": np.std(col, ddof=1), "min": col.min(),
                    "max": col.max()}
            for k, value in want.items():
                v.require(close(float(r[k]), float(value), IDENTITY_TOL),
                          f"summary: {r['measure']} {k} {r[k]}, numpy gives {value!r}")

    blackbox = {}
    if "blackbox" in out:
        rows = markdown_rows(out["blackbox"])
        v.require([r["dmu"] for r in rows] == ids, "blackbox-mpss: expected every insurer")
        blackbox = {r["dmu"]: float(r["score"]) for r in rows}
        mpss = set()
        for r in rows:
            if r["dmu"] in INSURER_UNVERIFIED:
                continue
            want = float(published[r["dmu"]]["blackbox"])
            v.require(abs(float(r["score"]) - want) <= INSURER_TOL,
                      f"blackbox-mpss: insurer {r['dmu']} {r['score']}, published {want}")
            if r["mpss"] == "yes":
                mpss.add(r["dmu"])
        v.require(mpss == INSURER_MPSS,
                  f"blackbox-mpss: MPSS insurers {sorted(mpss)}, published {sorted(INSURER_MPSS)}")

    nets = {key: network_rows(v, csv_tables(out[key])[0], ids, key, stages=stages)
            for key, stages in (("network-variable", False), ("network-radial", False),
                                ("network-stages", True)) if key in out}
    variable, radial, staged = (nets.get(k, {}) for k in ("network-variable", "network-radial",
                                                          "network-stages"))
    for dmu in ids:
        # the black-box optimum embeds in the free-intermediate system program
        if dmu in variable and dmu in blackbox:
            v.require(float(variable[dmu]["score"]) >= blackbox[dmu] - INSURER_TOL,
                      f"network-variable: insurer {dmu} scores below its black-box score")
        if dmu in radial and dmu in staged:
            v.require(all(staged[dmu][k] == radial[dmu][k] for k in NETWORK_HEADER),
                      f"network-stages: insurer {dmu} radial columns differ from the radial run")

    if "decompose" in out:
        rows = csv_tables(out["decompose"])[0]
        v.require([r["dmu"] for r in rows] == list(published),
                  "decompose: expected one row per row of the scores file")
        for r in rows:
            p1, p2, s1, s2, t = (float(r[k]) for k in ("process1", "process2", "stage1",
                                                       "stage2", "tandem"))
            src = published.get(r["dmu"], {})
            v.require((p1, p2) == (float(src.get("process1", "nan")),
                                   float(src.get("process2", "nan"))),
                      f"decompose: {r['dmu']} process scores are not the input's")
            v.require(close(s1, 0.5 * p1, IDENTITY_TOL) and close(s2, 0.5 * p2, IDENTITY_TOL)
                      and close(t, s1 + s2, IDENTITY_TOL),
                      f"decompose: {r['dmu']} stage != 0.5 x process or tandem != stage1 + stage2")

    if "kruskal-wallis" in out:
        groups = [np.loadtxt(d / f"kw_{p}.csv", skiprows=1, ndmin=1) for p in ("2014", "2015")]
        want = stats.kruskal(*groups)
        (kw,) = csv_tables(out["kruskal-wallis"])[0]
        v.require(close(float(kw["h_statistic"]), float(want.statistic), IDENTITY_TOL)
                  and close(float(kw["p_value"]), float(want.pvalue), IDENTITY_TOL)
                  and kw["df"] == "1" and kw["tie_corrected"] == "yes",
                  f"kruskal-wallis: {kw}, scipy gives H {want.statistic!r} p {want.pvalue!r}")


CHECKS = {
    "pinned-stages-300": check_pinned_stages,
    "chain-300": check_chain,
    "small-cli": check_small_cli,
}


def check(workload, d: Path, result: dict, seed: int) -> Verdict:
    """All checks of one run's ``result`` (as written by the worker).

    An operation that exited non-zero counts as failed; only its own output
    goes unchecked.
    """
    v = Verdict()
    expected = {op.key for op in plan(workload, d, seed).ops}
    v.require(set(result["outputs"]) == expected, "outputs do not cover the round's operations")
    for key in result.get("mismatch", []):
        v.require(False, f"{key}: output changed between rounds")
    out = {}
    for key, o in result["outputs"].items():
        if o["status"] == 0:
            out[key] = o["stdout"]
        else:
            v.failed[key] = f"{o['status']}: {o['stderr'].strip()}"
    try:
        CHECKS[workload](v, d, out, seed)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        v.require(False, f"unreadable output: {type(exc).__name__}: {exc}")
    return v


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    result = json.loads(args.result.read_text(encoding="utf-8"))
    print(json.dumps(check(args.workload, args.inputs, result, args.seed).as_json()))


if __name__ == "__main__":
    main()
