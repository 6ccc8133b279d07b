"""The in-process cost of each benchmark sweep: wall time, lockstep steps, traced memory.

For every whole-file sweep the benchmark workloads run (``perfbench/workloads.py``),
on the inputs ``perfbench/inputs.py`` writes for ``--seed``, it prints one line:

* ``ms``: the median wall time of ``--repeat`` sweeps, each on a freshly
  loaded ``Dataset``, so the program is compiled inside the timing as a
  command compiles it;
* ``steps`` and ``live``: the lockstep steps one sweep makes (a batch
  calls ``lp._entering`` once a step) and the mean number of units stepping
  in them;
* ``alone``: the units of one sweep solved by ``solve_lp`` (``network``
  calls it for a unit the lockstep hands back and for a lone unit), one
  per model solve;
* ``full``: the pricing passes over every column that one sweep's phase
  twos make, in the lockstep and alone (a unit priced by ``lp._priced``
  with no candidate columns), per model solve handed on: one a solve
  certifies its optimum, and each one more is a step whose candidate
  columns held no entering column.  A checkout from before the two solve
  paths shared these rules is counted by its own names (``_counted``);
* ``cand``: the columns each of the sweep's programs prices first
  (``lp.StandardForm.candidates``), out of all its columns;
* ``peak_mb``: the ``tracemalloc`` peak of one sweep above what was traced
  before it, the results consumed one at a time as a command's loop does.
  A peak above ``BUDGET_MB`` is flagged ``over``, and the script then exits
  1 once every sweep is printed; it exits 0 when every peak is within it.

The package comes from ``PYTHONPATH``, so two checkouts can be compared on
the same inputs.  ``--against OTHER_SRC`` compares them directly: it
writes the seed's inputs once, then runs ``--repeat`` pairs of
subprocesses, this package's and the one in the ``src`` directory
``OTHER_SRC``, in turn, the first of a pair alternating.  Each subprocess
runs every sweep once to warm it, then times it once on a freshly loaded
``Dataset``.  It also times the ``--dmu`` calls of ``DMU_CALLS``, the
benchmark's per-unit commands, through ``cli.run`` with the output
captured, as the benchmark's worker runs them: the first ``DMU_UNITS``
units of the file each, after one call to warm, and takes the median ms of
a call.  For each sweep and each such command it prints the median ms of
each side and the ratio of this side's ms to the other's in the same pair:
its median and quartiles.  A ratio below 1 means this package is faster.
From the repository root::

    PYTHONPATH=src python3 scripts/sweep_cost.py --seed 1
    PYTHONPATH=src python3 scripts/sweep_cost.py --seed 1 --against ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from dea_mpss import _lockstep, chain, cli, lp, network
from dea_mpss.data import load_dataset

ROOT = Path(__file__).resolve().parent.parent
# the traced peak, in MB, that no sweep may exceed (tests/test_sweep.py checks two of them)
BUDGET_MB = 1.5


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# workload -> (data file, topology file) under its inputs, and its sweeps by name
SWEEPS = {
    "pinned-stages-300": (("data.csv", "topology.json"), {
        "stages": network.stages_sweep,
    }),
    "chain-300": (("data.csv", "topology.json"), {
        "chain-mpss": chain.chain_mpss_sweep,
        "chain-eff": chain.chain_efficiency_sweep,
    }),
    "small-cli": ((None, "insurers_topology.json"), {
        "blackbox": lambda d, t, us: network.blackbox_sweep(d, us, topology=t),
        "variable": network.network_variable_sweep,
        "radial": network.network_radial_sweep,
        "stages": network.stages_sweep,
    }),
}
# workload -> (name, argv) of the --dmu commands --against times, its data and topology
# files written in after the subcommand, the unit after --dmu
DMU_CALLS = {
    "pinned-stages-300": ("stages", ["network-mpss", "--intermediates", "radial", "--stages"]),
    "chain-300": ("chain-mpss", ["chain-mpss", "--targets"]),
}
DMU_UNITS = 40


def _counted():
    """Patch the solver and ``network`` to count, in order: lockstep steps and live units,
    units solved alone (``network.solve_lp``), full pricing passes and model solves handed
    on (``network._handed``); return the counts and what restores every patch.

    A step is a batch's call of the shared ``lp._entering`` (its columns a ``_Lockstep``),
    and a full pass a unit priced over every column by ``lp._priced``, in a batch or alone.
    A checkout from before the two solve paths shared their rules has its own names for
    them: a step is a ``_Lockstep._entering`` call, a full pass a unit priced by
    ``_Lockstep._priced`` with no candidate columns or an ``lp._entering`` call over every
    column; one whose ``lp`` has no ``_entering`` prices every column in every scalar step,
    and its solves alone are not counted among the full passes."""
    counts = [0] * 5
    shared = not hasattr(_lockstep._Lockstep, "_priced")

    def stepped(*args):
        columns, units = (args[3], args[2]) if shared else (args[0], args[2])
        if isinstance(columns, _lockstep._Lockstep):
            counts[0] += 1
            counts[1] += len(units[0])
        return original["stepped"](*args)

    def alone(*args, **kwargs):
        counts[2] += 1
        return original["alone"](*args, **kwargs)

    def full(*args):
        units, columns = args[1], args[3:]  # lp._priced's, or _Lockstep._priced's with self
        if not columns or columns[0] is None:
            counts[3] += 1 if units[0] is None else len(units[0])
        return original["full"](*args)

    def full_alone(red, columns, *args):
        if columns is None:
            counts[3] += 1
        return original["full_alone"](red, columns, *args)

    def solves(dmus, outcomes):
        counts[4] += len(outcomes)
        return original["solves"](dmus, outcomes)

    if shared:
        patches = {"stepped": (lp, "_entering", stepped), "full": (lp, "_priced", full)}
    else:
        patches = {"stepped": (_lockstep._Lockstep, "_entering", stepped),
                   "full": (_lockstep._Lockstep, "_priced", full),
                   "full_alone": (lp, "_entering", full_alone)}
    patches.update(alone=(network, "solve_lp", alone), solves=(network, "_handed", solves))
    original = {key: getattr(owner, name) for key, (owner, name, _) in patches.items()
                if hasattr(owner, name)}

    def restore():
        for key, (owner, name, _) in patches.items():
            if key in original:
                setattr(owner, name, original[key])

    for key, (owner, name, patch) in patches.items():
        if key in original:
            setattr(owner, name, patch)
    return counts, restore


def _paths(inputs, seed: int, root: Path):
    """Each workload's (data file, topology file) and its sweeps by name, its inputs written
    under ``root`` if they are not there yet."""
    for workload, ((data, topology), sweeps) in SWEEPS.items():
        d = root / f"seed-{seed}" / workload
        if not d.is_dir():
            d = inputs.generate(workload, seed, root)
        yield workload, (inputs.INSURERS if data is None else d / data), d / topology, sweeps


def _swept(sweep, dataset, topology) -> None:
    for _ in sweep(dataset, topology, dataset.dmu_ids):
        pass


def measure(data: Path, topology: Path, sweep, repeat: int) -> dict:
    times = []
    for _ in range(repeat):
        dataset, topo = load_dataset(data, topology)
        start = time.perf_counter()
        _swept(sweep, dataset, topo)
        times.append(time.perf_counter() - start)
    dataset, topo = load_dataset(data, topology)
    counts, restore = _counted()
    try:
        _swept(sweep, dataset, topo)
    finally:
        restore()
    cand = " ".join(f"{getattr(p, '_candidates', p._S[0, :0]).size}/{p._S.shape[1]}"
                    for p in dataset._compiled.values())
    dataset, topo = load_dataset(data, topology)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _swept(sweep, dataset, topo)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"ms": 1e3 * statistics.median(times), "steps": counts[0],
            "live": counts[1] / counts[0] if counts[0] else 0.0, "alone": counts[2],
            "full": counts[3] / counts[4] if counts[4] else 0.0, "cand": cand,
            "peak_mb": peak / 1e6}


def _called(argv) -> float:
    """The seconds one CLI call takes, its output captured; a call that fails raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        status = cli.run(argv)
        seconds = time.perf_counter() - start
    if status != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {status}")
    return seconds


def times(inputs, seed: int, root: Path) -> dict:
    """The ms of one sweep of each kind, each run once before to warm it, by
    ``"workload sweep"``, and the median ms of each ``--dmu`` command's call, by
    ``"workload name --dmu"``."""
    out = {}
    for workload, data, topology, sweeps in _paths(inputs, seed, root):
        for name, sweep in sweeps.items():
            _swept(sweep, *load_dataset(data, topology))
            dataset, topo = load_dataset(data, topology)
            start = time.perf_counter()
            _swept(sweep, dataset, topo)
            out[f"{workload} {name}"] = 1e3 * (time.perf_counter() - start)
        if workload in DMU_CALLS:
            name, (command, *options) = DMU_CALLS[workload]
            argv = [command, "--data", str(data), "--topology", str(topology), *options,
                    "--format", "csv", "--raw", "--dmu"]
            units = load_dataset(data, topology)[0].dmu_ids[:DMU_UNITS]
            _called([*argv, units[0]])
            calls = [_called([*argv, unit]) for unit in units]
            out[f"{workload} {name} --dmu"] = 1e3 * statistics.median(calls)
    return out


def against(inputs, other: Path, seed: int, pairs: int, root: Path) -> None:
    """Print each sweep's median ms on this side and in ``other``, and this side's ratio."""
    for _ in _paths(inputs, seed, root):  # written before any subprocess runs
        pass
    sides = [Path(network.__file__).resolve().parents[1], other.resolve()]
    got = [[], []]
    for k in range(pairs):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            env = {**os.environ, "PYTHONPATH": str(sides[side])}
            run = subprocess.run([sys.executable, __file__, "--seed", str(seed), "--times",
                                  str(root)], env=env, capture_output=True, text=True, check=True)
            got[side].append(json.loads(run.stdout))
    print(f"{'workload':<18} {'sweep':<16} {'this_ms':>8} {'other_ms':>8} {'ratio':>6} "
          f"{'q1':>6} {'q3':>6}")
    for key in got[0][0]:
        mine, theirs = ([t[key] for t in side] for side in got)
        ratio = [a / b for a, b in zip(mine, theirs)]
        q1, _, q3 = statistics.quantiles(ratio, n=4) if pairs > 1 else ratio * 3
        workload, name = key.split(" ", 1)
        print(f"{workload:<18} {name:<16} {statistics.median(mine):>8.2f} "
              f"{statistics.median(theirs):>8.2f} {statistics.median(ratio):>6.3f} "
              f"{q1:>6.3f} {q3:>6.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=7,
                    help="sweeps a median is taken of; with --against, pairs of subprocesses")
    ap.add_argument("--against", type=Path, metavar="OTHER_SRC",
                    help="the src directory of another checkout to time against this one")
    ap.add_argument("--times", type=Path, help=argparse.SUPPRESS)  # an --against subprocess
    args = ap.parse_args()
    inputs = _inputs()
    if args.times is not None:
        print(json.dumps(times(inputs, args.seed, args.times)))
        return
    if args.against is not None:
        with tempfile.TemporaryDirectory() as tmp:
            against(inputs, args.against, args.seed, args.repeat, Path(tmp))
        return
    print(f"{'workload':<18} {'sweep':<10} {'ms':>8} {'steps':>6} {'live':>6} {'alone':>6} "
          f"{'full':>6} {'peak_mb':>8}  cand")
    over = []
    with tempfile.TemporaryDirectory() as tmp:
        for workload, data, topology, sweeps in _paths(inputs, args.seed, Path(tmp)):
            for name, sweep in sweeps.items():
                got = measure(data, topology, sweep, args.repeat)
                flag = ""
                if got["peak_mb"] > BUDGET_MB:
                    flag = "  over"
                    over.append(f"{workload} {name}")
                print(f"{workload:<18} {name:<10} {got['ms']:>8.1f} {got['steps']:>6} "
                      f"{got['live']:>6.1f} {got['alone']:>6} {got['full']:>6.2f} "
                      f"{got['peak_mb']:>8.2f}  {got['cand']}{flag}")
    if over:
        print(f"traced peak above {BUDGET_MB} MB: {', '.join(over)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
