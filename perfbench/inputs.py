"""Seeded inputs of the benchmark workloads.

Every file the program reads during a run is written here from the run's
seed, except the bundled insurer and R&D value-chain tables, which are read
in place from ``tests/fixtures``.  The log-spread set of ``small-cli`` uses a
fixed seed (``LOG_SPREAD_SEED``), not the run's: its units exercise known
solver faults, and the share of operations that fail must not depend on the
seed.

Run ``python3 perfbench/inputs.py --seed N`` from the repository root to
regenerate every workload's inputs into ``.perfbench/inputs/seed-N``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
INSURERS = FIXTURES / "insurers_24.csv"
INSURER_REFERENCE = FIXTURES / "insurance_mpss_reference.csv"
RDVC_REFERENCE = FIXTURES / "rdvc_mpss_reference.csv"
WORK = ROOT / ".perfbench"

WORKLOADS = ("pinned-stages-300", "chain-300", "small-cli")
# the random stream of each generated workload: numpy.random.default_rng([seed, k])
STREAMS = {"pinned-stages-300": 1, "chain-300": 2}

LOG_SPREAD_SEED = 5
LOG_SPREAD_UNITS = 60
LOG_SPREAD_DECADES = 8.0

# two-stage layout 2-1-1-1-1: stage-1 inputs, intermediate, stage-1 final
# output, stage-2 input, stage-2 output
TWO_STAGE = {
    "x1": ["x1a", "x1b"], "z": ["z"], "y1": ["y1"], "x2": ["x2"], "y2": ["y2"],
}
# R&D value chain: operation and research each turn two inputs into one
# intermediate, the market process turns both intermediates into one output
CHAIN = {
    "xo": ["op_staff", "op_capital"], "zo": ["op_revenue"],
    "xr": ["rd_staff", "rd_spend"], "zr": ["rd_patents"], "y": ["market_value"],
}
# the insurer fixture's two-stage split (service feeds investment)
INSURER_LAYOUT = {
    "x1": ["service_expense"], "z": ["direct_premiums", "reinsurance_premiums"],
    "y1": ["underwriting_profit"], "x2": ["investment_expense"],
    "y2": ["investment_profit"],
}
# outputs grow with these powers of the unit size, in turn; fixed, so that a
# seed changes the noise but not the shape of the frontier
OUTPUT_POWERS = (0.8, 1.2, 1.0)
# pairs of period columns of the R&D value-chain table, one drawn per seed
KW_PAIRS = ("operation", "rd", "profitability", "marketability", "chain")


def two_stage_topology(layout) -> dict:
    return {
        "shape": "two_stage_general",
        "processes": [
            {"name": "upstream", "stage": 1, "exogenous_inputs": layout["x1"],
             "intermediate_outputs": layout["z"], "intermediate_inputs": [],
             "final_outputs": layout["y1"], "importance_weight": 1.0},
            {"name": "downstream", "stage": 2, "exogenous_inputs": layout["x2"],
             "intermediate_outputs": [], "intermediate_inputs": layout["z"],
             "final_outputs": layout["y2"], "importance_weight": 1.0},
        ],
        "links": [{"from": "upstream", "to": "downstream", "measure": m}
                  for m in layout["z"]],
    }


def chain_topology() -> dict:
    c = CHAIN
    return {
        "shape": "series_parallel_chain",
        "processes": [
            {"name": "operation", "stage": 1, "exogenous_inputs": c["xo"],
             "intermediate_outputs": c["zo"], "intermediate_inputs": [],
             "final_outputs": [], "importance_weight": 0.5},
            {"name": "research", "stage": 1, "exogenous_inputs": c["xr"],
             "intermediate_outputs": c["zr"], "intermediate_inputs": [],
             "final_outputs": [], "importance_weight": 0.5},
            {"name": "market", "stage": 2, "exogenous_inputs": [],
             "intermediate_outputs": [], "intermediate_inputs": c["zo"] + c["zr"],
             "final_outputs": c["y"], "importance_weight": 1.0},
        ],
        "links": [{"from": "operation", "to": "market", "measure": m} for m in c["zo"]]
        + [{"from": "research", "to": "market", "measure": m} for m in c["zr"]],
    }


def lognormal_units(rng, n, inputs, outputs) -> dict:
    """Positive measures around a common unit size, so that units differ in scale.

    Inputs grow with the size, outputs with a power of it drawn per measure
    (below and above 1), which gives both increasing and decreasing returns.
    """
    size = np.exp(rng.normal(0.0, 0.8, n))
    cols = {}
    for m in inputs:
        cols[m] = 10.0 * size * np.exp(rng.normal(0.0, 0.3, n))
    for k, m in enumerate(outputs):
        power = OUTPUT_POWERS[k % len(OUTPUT_POWERS)]
        cols[m] = 20.0 * size ** power * np.exp(rng.normal(0.0, 0.3, n))
    return cols


def log_spread_units(rng, n, names) -> dict:
    """Every measure log-uniform over ``LOG_SPREAD_DECADES`` decades."""
    return {m: 10.0 ** rng.uniform(0.0, LOG_SPREAD_DECADES, n) for m in names}


def write_csv(path: Path, cols: dict) -> None:
    """Units ``u1 .. un`` with every measure printed to 6 significant digits."""
    names = list(cols)
    lines = ["dmu," + ",".join(names)]
    for j in range(len(cols[names[0]])):
        lines.append(f"u{j + 1}," + ",".join(f"{cols[m][j]:.6g}" for m in names))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def two_stage_measures(layout) -> tuple:
    return tuple(layout["x1"] + layout["z"] + layout["y1"] + layout["x2"] + layout["y2"])


def write_two_stage(out: Path, rng, n: int) -> None:
    L = TWO_STAGE
    cols = lognormal_units(rng, n, L["x1"] + L["x2"], L["z"] + L["y1"] + L["y2"])
    write_csv(out / "data.csv", {m: cols[m] for m in two_stage_measures(L)})
    (out / "topology.json").write_text(json.dumps(two_stage_topology(L), indent=1))


def write_chain(out: Path, rng, n: int) -> None:
    c = CHAIN
    cols = lognormal_units(rng, n, c["xo"] + c["xr"], c["zo"] + c["zr"] + c["y"])
    write_csv(out / "data.csv", cols)
    (out / "topology.json").write_text(json.dumps(chain_topology(), indent=1))


def _write_small_cli(out: Path, seed: int) -> None:
    (out / "insurers_topology.json").write_text(
        json.dumps(two_stage_topology(INSURER_LAYOUT), indent=1))
    spread = log_spread_units(np.random.default_rng(LOG_SPREAD_SEED), LOG_SPREAD_UNITS,
                              two_stage_measures(TWO_STAGE))
    write_csv(out / "log_spread.csv", spread)
    (out / "log_spread_topology.json").write_text(
        json.dumps(two_stage_topology(TWO_STAGE), indent=1))
    measure = KW_PAIRS[seed % len(KW_PAIRS)]
    table = RDVC_REFERENCE.read_text(encoding="utf-8").splitlines()
    header = table[0].split(",")
    for period in ("2014", "2015"):
        k = header.index(f"{measure}_{period}")
        values = [row.split(",")[k] for row in table[1:] if row.strip()]
        (out / f"kw_{period}.csv").write_text(
            f"{measure}_{period}\n" + "\n".join(values) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, root: Path = WORK / "inputs") -> Path:
    """Write ``workload``'s inputs for ``seed`` and return their directory."""
    out = root / f"seed-{seed}" / workload
    out.mkdir(parents=True, exist_ok=True)
    if workload == "pinned-stages-300":
        write_two_stage(out, np.random.default_rng([seed, STREAMS[workload]]), 300)
    elif workload == "chain-300":
        write_chain(out, np.random.default_rng([seed, STREAMS[workload]]), 300)
    elif workload == "small-cli":
        _write_small_cli(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    for w in WORKLOADS:
        print(generate(w, args.seed))


if __name__ == "__main__":
    main()
