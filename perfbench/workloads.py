"""The operations of one round of each workload.

A run repeats whole rounds, so every run attempts the same operations in the
same proportions.  An operation is one ``dea-mpss`` invocation: a whole-file
sweep, or a ``--dmu`` call for one unit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# --dmu calls per round on the 300-unit workloads: enough units that the p95
# does not hang on a few of them, few enough that a run holds three rounds
DMU_CALLS = 150
# with at least this many --dmu calls per run, ten samples lie beyond the p95
MIN_DMU_CALLS = 200

SWEEP = "sweep"  # whole-file subcommand; reports ``dmus`` rows
DMU = "dmu"      # one --dmu invocation; its latency is sampled


@dataclass(frozen=True)
class Op:
    key: str
    kind: str
    argv: tuple = ()
    dmus: int = 0


@dataclass
class Plan:
    inputs: Path
    ops: list = field(default_factory=list)
    data: Path | None = None      # the data/topology pair set-up loads
    topology: Path | None = None

    def dmu_calls(self) -> int:
        return sum(op.kind == DMU for op in self.ops)


def unit_ids(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row["dmu"] for row in csv.DictReader(fh)]


def _drawn(ids, k, seed):
    """``k`` units in a seeded order."""
    order = np.random.default_rng([seed, 7]).permutation(len(ids))
    return [ids[j] for j in order[:k]]


def _pair(d: Path):
    return ["--data", str(d / "data.csv"), "--topology", str(d / "topology.json")]


CSV = ("--format", "csv", "--raw")


def plan(workload: str, d: Path, seed: int) -> Plan:
    """One round of ``workload`` over the inputs in ``d``."""
    p = Plan(d, data=d / "data.csv", topology=d / "topology.json")
    if workload == "small-cli":
        return _small_cli(p, seed)
    ids = unit_ids(d / "data.csv")
    if workload == "pinned-stages-300":
        cmd = ["network-mpss", *_pair(d), "--intermediates", "radial", "--stages", *CSV]
        p.ops.append(Op("network-stages", SWEEP, tuple(cmd), len(ids)))
    elif workload == "chain-300":
        cmd = ["chain-mpss", *_pair(d), "--targets", *CSV]
        p.ops.append(Op("chain-mpss", SWEEP, tuple(cmd), len(ids)))
        p.ops.append(Op("chain-eff", SWEEP, ("chain-eff", *_pair(d), *CSV), len(ids)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for dmu in _drawn(ids, DMU_CALLS, seed):
        p.ops.append(Op(f"dmu:{dmu}", DMU, (*p.ops[0].argv, "--dmu", dmu)))
    return p


def _small_cli(p: Plan, seed: int) -> Plan:
    d = p.inputs
    ins = ["--data", str(inputs.INSURERS), "--topology", str(d / "insurers_topology.json")]
    p.data, p.topology = inputs.INSURERS, d / "insurers_topology.json"
    n = len(unit_ids(inputs.INSURERS))
    p.ops += [
        Op("validate", SWEEP, ("validate", *ins)),
        Op("summary", SWEEP, ("summary", "--data", str(inputs.INSURERS), *CSV)),
        Op("blackbox", SWEEP, ("blackbox-mpss", *ins), n),
        Op("network-variable", SWEEP, ("network-mpss", *ins, "--intermediates", "variable", *CSV), n),
        Op("network-radial", SWEEP, ("network-mpss", *ins, "--intermediates", "radial", *CSV), n),
        Op("network-stages", SWEEP,
           ("network-mpss", *ins, "--intermediates", "radial", "--stages", *CSV), n),
        Op("decompose", SWEEP, ("decompose", "--scores", str(inputs.INSURER_REFERENCE), *CSV),
           len(unit_ids(inputs.INSURER_REFERENCE))),
        Op("kruskal-wallis", SWEEP,
           ("kruskal-wallis", "--groups", f"{d / 'kw_2014.csv'},{d / 'kw_2015.csv'}", *CSV)),
    ]
    spread = ["network-mpss", "--data", str(d / "log_spread.csv"),
              "--topology", str(d / "log_spread_topology.json"), *CSV]
    ids = unit_ids(d / "log_spread.csv")
    for dmu in _drawn(ids, len(ids), seed):
        p.ops.append(Op(f"dmu:{dmu}", DMU, (*spread, "--dmu", dmu)))
    return p
