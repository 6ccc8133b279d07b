"""Fingerprint a fixed set of simplex solves, to compare two checkouts.

Each solve gives one JSON line: a label, and either the error it raised as
``Name: message`` or the solution's status, the repr of its objective
value, its iteration count, ``started`` and the sha256 of the whole
``LpSolution``.  An optimal line whose problem is at hand (every line but
the sweep lines) also records its certificate (``certificate``): whether
it passes, the worst relative row residual, by the rule ``lp._holding``
checks a basic point by, and the worst reduced-cost sign, from the
solution's own dual values.  Such a line also records how many candidate
columns its problem prices first (``lp.StandardForm.candidates``): null or
0 for none.  The digest covers those four fields, the final basis and
the bytes of the variable values, the dual values, the reduced costs and
the ``basic`` flags (hashed as booleans, whatever their dtype), so two
lines agree only when the two solutions are bit for bit the same.  A line
also holds a short sha256 per ``LpSolution`` field; a float array's is
followed by the sha256 of the array with each -0.0 read as 0.0, so a change
in the sign of zeros alone can be told apart.  The set is:

* 3,000 problems from ``tests/gen.random_lp`` (seed 2024), and for every
  fifth optimal one a crash start from the basis ``tests/gen.crash_start``
  finds at its optimum, a warm start after an appended row that optimum
  satisfies, the crash basis, if any, at the point one below that optimum
  in every variable (seldom a feasible vertex; without a basis the solve is
  cold), and a cold solve with its first row appended twice as an
  equality.  ``tests/gen.lp_problem`` builds each of these problems in
  the standard form the solver takes;
* every model solve of the seed's ``pinned-stages-300`` units under
  ``evaluate_stages``, ``network_mpss_variable`` and ``blackbox_mpss``;
* every model solve of its ``chain-300`` units under ``chain_efficiency``
  with weights (1, 1, 1) and (1, 1, 0), ``chain_mpss``, and
  ``profitability_mpss`` at the ``chain_mpss`` score, and every
  ``chain_efficiency`` program (weights (1, 1, 1)) solved again with no
  start: phase ones of 14 to 117 pivots (median 21) on a 15 × 924
  program, two of which refactor on the way;
* every model solve of the 60 log-spread units (``tests/fixtures``) under
  ``evaluate_stages``, ``network_mpss_variable`` and ``network_mpss_radial``,
  and, on the chain view the tests read those units through
  (``tests/test_sweep.py::log_spread``), under the four started chain
  calls above: ill-conditioned chain programs, some of whose optima do
  not certify, where every ``chain-300`` one does;
* every outcome ``network._handed`` hands on in whole-file sweeps, batched
  or solved alone: of the ``pinned-stages-300`` units under
  ``stages_sweep``, ``network_variable_sweep`` and ``blackbox_sweep``; of
  the ``chain-300`` units under ``chain_efficiency_sweep`` with weights
  (1, 1, 1) and (1, 1, 0) and ``chain_mpss_sweep``; and of the log-spread
  units under ``network_variable_sweep``, ``network_radial_sweep`` and
  ``stages_sweep``, which stops at its first failure, and on their chain
  view under the three chain sweeps.  A sweep line's
  label is the per-unit call's with ``sweep`` in front, and a failure is
  recorded with the message the sweep raises for it.

On the seed-1 inputs that is 10,148 solves, 2,729 of them sweep outcomes.

Per-unit model solves are caught where ``network`` calls ``solve_lp`` (and
``chain``, for a checkout whose profitability split calls it there), so a
solve that raises is recorded with the solver's own message.  The package
comes from ``PYTHONPATH``.

``--compare A B`` reads two such files, A the parent's and B the change's,
and applies the parity rule for a change that moves pivots.  A solve whose
error, status or ``started`` changed, or that is made on one side only,
fails it.  A solve whose digest changed is accepted in two cases only:
both sides certify and the objective moved by at most 1e-9 relative, or
the old side failed its certificate; the second kind is listed.  A verdict
with no point (infeasible, unbounded) may change its pivot count alone.  A solve
of a problem with no candidate columns (the random problems) must keep its
digest.  Every sweep line of B must have the digest of its per-unit line
(its label without ``sweep``), a solve it shares with the per-unit loop.
It prints every solve that fails the rule, then the counts, and exits 1
when any solve fails it, and 0 otherwise.  From the repository root::

    python3 perfbench/inputs.py --seed 1
    PYTHONPATH=<parent checkout>/src python3 scripts/lp_parity.py > parent.jsonl
    PYTHONPATH=src python3 scripts/lp_parity.py > change.jsonl
    PYTHONPATH=src python3 scripts/lp_parity.py --compare parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from dea_mpss import chain, lp, network
from dea_mpss.chain import ChainWeights
from dea_mpss.data import load_dataset
from dea_mpss.errors import DeaMpssError
from dea_mpss.lp import solve_lp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from gen import crash_start, lp_problem, random_lp  # noqa: E402
from test_sweep import log_spread  # noqa: E402

RANDOM_SEED = 2024
RANDOM_PROBLEMS = 3000
OBJECTIVE_RTOL = 1e-9  # relative move of a certified objective that --compare accepts
# the worst relative reduced cost of the wrong sign a certified optimum may
# show: the solver's own least improvement, PIVOT_TOL
DUAL_TOL = 1e-9
SCALARS = ("status", "objective_value", "iterations", "started", "_basis")
ARRAYS = ("variable_values", "dual_values", "reduced_costs")


def digest(sol) -> str:
    h = hashlib.sha256()
    h.update(f"{sol.status}|{sol.objective_value!r}|{sol.iterations}|{sol.started}|"
             f"{sol._basis!r}".encode())
    for a in (sol.variable_values, sol.dual_values, sol.reduced_costs, sol.basic.astype(bool)):
        h.update(a.tobytes())
    return h.hexdigest()


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def field_digests(sol) -> dict:
    """A short sha256 per field; a float array's, then its own with zeros unsigned."""
    fields = {name: _short(repr(getattr(sol, name)).encode()) for name in SCALARS}
    for name in ARRAYS:
        a = getattr(sol, name)
        fields[name] = f"{_short(a.tobytes())} {_short((a + 0.0).tobytes())}"  # -0.0 + 0.0 is 0.0
    fields["basic"] = _short(sol.basic.astype(bool).tobytes())
    return fields


def certificate(problem, sol) -> dict:
    """Whether the optimum ``sol`` of ``problem`` certifies, with its worst relative row
    residual and its worst relative reduced cost of the wrong sign.

    A row's residual is scaled as ``lp._holding`` scales it, by
    ``max(1, |a|·|x| + |b|)``; it certifies within ``lp.FEASIBILITY_TOL``.
    The reduced costs are those of every column, slacks included, in the
    solver's minimisation, from the solution's dual values, each scaled by
    ``max(1, |c| + |a|·|y|)``; none may lie below ``-DUAL_TOL``.
    """
    S, b, sign = problem.standard_form[:3]
    x = sol.variable_values
    A = S[:, :x.size]
    resid = b - A @ x
    missed = np.where(sign != 0.0, np.maximum(-resid * sign, 0.0), np.abs(resid))
    residual = float((missed / np.maximum(1.0, np.abs(A) @ np.abs(x) + np.abs(b))).max(
        initial=0.0))
    flip = -1.0 if problem.objective_sense == lp.MAXIMIZE else 1.0
    cost = np.zeros(S.shape[1])
    cost[:x.size] = flip * problem.objective
    y = flip * sol.dual_values  # the minimisation's multipliers
    red = cost - S.T @ y
    dual = float((-red / np.maximum(1.0, np.abs(cost) + np.abs(S).T @ np.abs(y))).max(
        initial=0.0))
    return {"pass": residual <= lp.FEASIBILITY_TOL and x.min(initial=0.0) >= 0.0
            and dual <= DUAL_TOL, "residual": residual, "dual": max(dual, 0.0)}


def record(label: str, outcome, problem=None) -> None:
    """Print the line of one solve: its ``LpSolution``, with its certificate when its
    ``problem`` is given and it is optimal, or the error it raised."""
    if isinstance(outcome, DeaMpssError):
        print(json.dumps({"case": label, "error": f"{type(outcome).__name__}: {outcome}"}))
        return
    line = {"case": label, "status": outcome.status, "objective": repr(outcome.objective_value),
            "iterations": outcome.iterations, "started": outcome.started,
            "sha256": digest(outcome), "fields": field_digests(outcome)}
    if problem is not None:
        candidates = getattr(problem.standard_form, "candidates", None)  # none in older checkouts
        line["candidates"] = None if candidates is None else int(candidates.size)
        if outcome.status == "optimal":
            line["certificate"] = certificate(problem, outcome)
    print(json.dumps(line))


def emit(label: str, solve, problem=None):
    """Run ``solve`` and print its line, certified on ``problem`` if given; an error is
    printed, then raised again."""
    try:
        sol = solve()
    except DeaMpssError as exc:
        record(label, exc)
        raise
    record(label, sol, problem)
    return sol


def random_solves() -> None:
    rng = np.random.default_rng(RANDOM_SEED)
    optimal = 0
    for k in range(RANDOM_PROBLEMS):
        prob, sol = random_lp(rng), None
        with suppress(DeaMpssError):
            sol = emit(f"random {k}", lambda: solve_lp(prob), prob)
            if sol.status == "optimal":
                optimal += 1
        if sol is None or sol.status != "optimal" or optimal % 5:
            continue
        x = sol.variable_values
        a = rng.integers(-5, 6, size=prob.n_variables).astype(float)
        rel = str(rng.choice(["<=", ">="]))
        rhs = float(a @ x) + (1.0 if rel == "<=" else -1.0) * float(rng.integers(2))
        extended = lp_problem(prob.objective_sense, prob.objective,
                              [*prob.constraints, (a, rel, rhs)])
        # the first row, tight at the optimum, twice more as an equality:
        # phase one must drop a redundant row
        tight = (prob.constraints[0][0], "=", float(prob.constraints[0][0] @ x))
        redundant = lp_problem(prob.objective_sense, prob.objective,
                               [*prob.constraints, tight, tight])
        for name, problem, start in (("crash", prob, crash_start(prob, x)),
                                     ("warm", extended, sol),
                                     ("outside", prob, crash_start(prob, x - 1.0)),
                                     ("redundant", redundant, None)):
            with suppress(DeaMpssError):
                emit(f"random {k} {name}", lambda: solve_lp(problem, start=start), problem)


def model_solves(load, label: str, calls, cold: bool = False) -> None:
    """Every solve of each model call in ``calls`` on each unit of the data ``load()`` gives.

    With ``cold``, each solve is given no start, so it runs phase one.
    """
    dataset, topo = load()

    def recorder(original):
        def solve(problem, start=None):
            return emit(f"{label} {dmu} {name} {next(count)}",
                        lambda: original(problem, start=None if cold else start), problem)
        return solve

    originals = network.solve_lp, chain.solve_lp
    network.solve_lp, chain.solve_lp = recorder(originals[0]), recorder(originals[1])
    try:
        for dmu in dataset.dmu_ids:
            for name, call in calls:
                count = itertools.count()  # numbers the call's solves
                with suppress(DeaMpssError):
                    call(dataset, topo, dmu)
    finally:
        network.solve_lp, chain.solve_lp = originals


def sweep_solves(load, label: str, sweeps) -> None:
    """Every outcome ``network._handed`` hands on in each whole-file sweep of ``sweeps`` on
    the data ``load()`` gives.

    A unit's outcomes are numbered in the order they are handed on.  A
    sweep that raises stops there.
    """
    dataset, topo = load()
    original = network._handed

    def recording(dmus, outcomes):
        handed = original(dmus, outcomes)
        for dmu, outcome in handed:
            record(f"sweep {label} {dmu} {name} {next(counts[dmu])}", outcome)
        return handed

    network._handed = recording
    try:
        for name, sweep in sweeps:
            counts = collections.defaultdict(itertools.count)
            with suppress(DeaMpssError):
                list(sweep(dataset, topo, dataset.dmu_ids))
    finally:
        network._handed = original


def chain_split(dataset, topo, dmu):
    score = chain.chain_mpss(dataset, topo, dmu).score
    return chain.profitability_mpss(dataset, topo, dmu, score)


STAGE_CALLS = [
    ("stages", network.evaluate_stages),
    ("variable", network.network_mpss_variable),
    ("blackbox", lambda d, t, u: network.blackbox_mpss(d, u, topology=t)),
]
CHAIN_CALLS = [
    ("efficiency", chain.chain_efficiency),
    ("efficiency w3=0", lambda d, t, u: chain.chain_efficiency(d, t, u, ChainWeights(1, 1, 0))),
    ("mpss", chain.chain_mpss),
    ("split", chain_split),
]
COLD_CALLS = [("efficiency cold", chain.chain_efficiency)]
SPREAD_CALLS = [
    ("stages", network.evaluate_stages),
    ("variable", network.network_mpss_variable),
    ("radial", network.network_mpss_radial),
]

STAGE_SWEEPS = [
    ("stages", network.stages_sweep),
    ("variable", network.network_variable_sweep),
    ("blackbox", lambda d, t, us: network.blackbox_sweep(d, us, topology=t)),
]
CHAIN_SWEEPS = [
    ("efficiency", chain.chain_efficiency_sweep),
    ("efficiency w3=0",
     lambda d, t, us: chain.chain_efficiency_sweep(d, t, us, ChainWeights(1, 1, 0))),
    ("mpss", chain.chain_mpss_sweep),
]
SPREAD_SWEEPS = [
    ("variable", network.network_variable_sweep),
    ("radial", network.network_radial_sweep),
    ("stages", network.stages_sweep),
]


def changes(old: dict, new: dict) -> list:
    """What differs between two lines of one solve that the parity rule never accepts: its
    error, status or ``started``."""
    return [f"{k} {old.get(k)} -> {new.get(k)}" for k in ("error", "status", "started")
            if old.get(k) != new.get(k)]


def certifies(line: dict) -> bool:
    return bool(line.get("certificate", {}).get("pass"))


def moved(old: dict, new: dict) -> str | None:
    """Why the parity rule accepts a solve whose digest changed, or None when it does not.

    A solve of a problem with no candidate columns is never accepted.
    """
    if not new.get("candidates"):
        return None
    if old["status"] != "optimal":  # a verdict with no point: only its pivots may change
        return "same verdict, other pivots" if differing_fields(old, new) == "iterations" else None
    if not certifies(old):
        return "old side fails its certificate"
    close = math.isclose(float(old["objective"]), float(new["objective"]),
                         rel_tol=OBJECTIVE_RTOL)
    return "both certify" if certifies(new) and close else None


def differing_fields(old: dict, new: dict) -> str:
    """The fields whose digests differ between two lines of one solve."""
    a, b = old.get("fields"), new.get("fields")
    if a is None or b is None:
        return "fields not recorded"
    names = []
    for name in a.keys() | b.keys():
        x, y = a.get(name, ""), b.get(name, "")
        if x != y:
            zeros = name in ARRAYS and x.split()[-1] == y.split()[-1]
            names.append(f"{name} (signs of zeros only)" if zeros else name)
    return ", ".join(sorted(names))


def compare(old_path: Path, new_path: Path) -> bool:
    """Print every solve of two output files that fails the parity rule, the solves it
    accepts because the old side failed its certificate, and the counts.

    Returns whether every solve passes the rule.  Lines pair up by label; a
    solve made on one side only (a model call that raised earlier or later)
    fails it.
    """
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return {r["case"]: r for r in map(json.loads, fh)}

    old, new = read(old_path), read(new_path)
    failed, accepted, by_fields = 0, collections.Counter(), collections.Counter()
    for case in [*old, *(c for c in new if c not in old)]:
        a, b = old.get(case), new.get(case)
        if a is None or b is None:
            diff = [f"only in {new_path if a is None else old_path}"]
        else:
            diff = changes(a, b)
            if not diff and a.get("sha256") != b.get("sha256"):
                twin = old.get(case.removeprefix("sweep ")) if case.startswith("sweep ") else a
                why = moved(twin, new.get(case.removeprefix("sweep "), b)) if twin else None
                if why is None:
                    diff = [f"digest differs in {differing_fields(a, b)}"]
                else:
                    accepted[why] += 1
                    by_fields[differing_fields(a, b)] += 1
                    if why.startswith("old"):
                        print(f"{case}: accepted, {why}: objective {a['objective']} -> "
                              f"{b['objective']}")
        if b is not None and case.startswith("sweep ") and "sha256" in b:
            twin = new.get(case.removeprefix("sweep "))
            if twin is None or twin.get("sha256") != b["sha256"]:
                diff.append("digest is not its per-unit line's")
        if diff:
            failed += 1
            print(f"{case}: " + "; ".join(diff))
    print(f"{len(old)} and {len(new)} solves: {failed} fail the parity rule; "
          f"{sum(accepted.values())} changed digests accepted")
    for why, count in accepted.most_common():
        print(f"  {count} accepted: {why}")
    for fields, count in by_fields.most_common():
        print(f"  {count} differ in {fields}")
    return not failed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, default=ROOT / ".perfbench" / "inputs" / "seed-1",
                    help="directory written by perfbench/inputs.py (default: seed 1)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                    help="compare two output files instead of solving")
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    inputs = args.inputs.resolve()

    def files(name):  # each call a fresh load of one input pair
        return lambda: load_dataset(inputs / name / "data.csv", inputs / name / "topology.json")

    stages, chains = files("pinned-stages-300"), files("chain-300")
    spread, view = log_spread()

    def spread_chain():  # the log-spread units on their chain view, each call a fresh load
        return spread()[0], view

    random_solves()
    model_solves(stages, "pinned-stages-300", STAGE_CALLS)
    model_solves(chains, "chain-300", CHAIN_CALLS)
    model_solves(chains, "chain-300", COLD_CALLS, cold=True)
    model_solves(spread, "log-spread", SPREAD_CALLS)
    model_solves(spread_chain, "log-spread chain", CHAIN_CALLS)
    sweep_solves(stages, "pinned-stages-300", STAGE_SWEEPS)
    sweep_solves(chains, "chain-300", CHAIN_SWEEPS)
    sweep_solves(spread, "log-spread", SPREAD_SWEEPS)
    sweep_solves(spread_chain, "log-spread chain", CHAIN_SWEEPS)


if __name__ == "__main__":
    main()
