"""A sweep reuses each model's compiled program; no unit may see another's.

Every model compiles its program once per dataset and copies it per unit.
A patch that leaked from one unit into the next, or a pin left in the
shared template, would make a unit's solves depend on the units evaluated
before it.  These tests compare every solve of a sweep, bit for bit, with
the same unit evaluated in the other order and on a freshly loaded dataset.
"""

import contextlib

import numpy as np
import pytest

from dea_mpss import chain, lp, network
from dea_mpss.chain import ChainWeights
from dea_mpss.data import Dataset, NetworkTopology, ProcessSpec, load_dataset, parse_data_csv
from dea_mpss.errors import SolverError, UnsupportedTopologyError
from dea_mpss.program import Program, Unit

from conftest import FIXTURES
from gen import crash_start
from test_acceptance import insurance_views


def chain_view(operation, research, finals):
    """A series-parallel chain over existing measures: (input, intermediate) per branch."""
    procs = [
        ProcessSpec("operation", 1, exogenous_inputs=[operation[0]],
                    intermediate_outputs=[operation[1]], importance_weight=0.5),
        ProcessSpec("research", 1, exogenous_inputs=[research[0]],
                    intermediate_outputs=[research[1]], importance_weight=0.5),
        ProcessSpec("market", 2, intermediate_inputs=[operation[1], research[1]],
                    final_outputs=finals),
    ]
    links = [("operation", "market", operation[1]), ("research", "market", research[1])]
    return NetworkTopology(procs, links, "series_parallel_chain")


def log_spread():
    def load():
        return load_dataset(FIXTURES / "log_spread.csv", FIXTURES / "log_spread_topology.json")

    return load, chain_view(("x1a", "z"), ("x1b", "y1"), ["y2"])


def insurers():
    def load():
        with open(FIXTURES / "insurers_24.csv", encoding="utf-8") as fh:
            return parse_data_csv(fh.read()), insurance_views()[1]

    return load, chain_view(("service_expense", "direct_premiums"),
                            ("investment_expense", "reinsurance_premiums"),
                            ["underwriting_profit", "investment_profit"])


def split(dataset, topology, dmu):
    score = chain.chain_mpss(dataset, topology, dmu).score
    return chain.profitability_mpss(dataset, topology, dmu, score)


# builder -> (whether it reads the chain view, the call)
BUILDERS = {
    "blackbox": (False, lambda d, t, u: network.blackbox_mpss(d, u, topology=t)),
    "variable": (False, network.network_mpss_variable),
    "radial": (False, network.network_mpss_radial),
    "stages": (False, network.evaluate_stages),
    "chain-efficiency": (True, chain.chain_efficiency),
    "chain-efficiency w3=0": (True, lambda d, t, u: chain.chain_efficiency(
        d, t, u, ChainWeights(1.0, 1.0, 0.0))),
    "chain-mpss": (True, chain.chain_mpss),
    "chain-split": (True, split),
}


def solves(monkeypatch, calls):
    """Each unit's solutions, or the error it raised, from ``calls``: (unit, thunk) pairs."""
    record = []
    for module in (network, chain):
        def recording(problem, *args, solve=module.solve_lp, **kwargs):
            sol = solve(problem, *args, **kwargs)
            record.append(sol)
            return sol

        monkeypatch.setattr(module, "solve_lp", recording)
    out = {}
    for unit, call in calls:
        record.clear()
        try:
            call()
            out[unit] = list(record)
        except SolverError as exc:
            out[unit] = (list(record), str(exc))
    monkeypatch.undo()
    return out


def fingerprint(sol):
    return (sol.status, repr(sol.objective_value), sol.iterations, sol.started, sol._basis,
            *(getattr(sol, k).dtype.str + getattr(sol, k).tobytes().hex()
              for k in ("variable_values", "dual_values", "reduced_costs", "basic")))


def fingerprints(outcome):
    if isinstance(outcome, tuple):
        return [fingerprint(s) for s in outcome[0]], outcome[1]
    return [fingerprint(s) for s in outcome]


@pytest.mark.parametrize("source", [log_spread, insurers])
@pytest.mark.parametrize("builder", list(BUILDERS))
def test_sweep_matches_fresh_evaluations(monkeypatch, source, builder):
    """Every ``LpSolution`` field of every solve agrees across three orders of evaluation."""
    load, chain_topology = source()
    reads_chain, call = BUILDERS[builder]

    def topology_of(loaded):
        return chain_topology if reads_chain else loaded[1]

    shared = load()
    dataset, topology = shared[0], topology_of(shared)
    units = dataset.dmu_ids
    forward = solves(monkeypatch, [(u, lambda u=u: call(dataset, topology, u)) for u in units])
    backward = solves(monkeypatch,
                      [(u, lambda u=u: call(dataset, topology, u)) for u in reversed(units)])

    def fresh(u):
        loaded = load()
        return call(loaded[0], topology_of(loaded), u)

    alone = solves(monkeypatch, [(u, lambda u=u: fresh(u)) for u in units])
    assert any(not isinstance(o, tuple) and o for o in forward.values())
    for u in units:
        want = fingerprints(alone[u])
        assert fingerprints(forward[u]) == want, u
        assert fingerprints(backward[u]) == want, u


def test_earlier_results_and_problems_never_change():
    """A unit's problems and weights stay as solved while later units are evaluated."""
    dataset, topology = insurance_views()
    problems = []
    original = network.solve_lp

    def keep(problem, *args, **kwargs):
        problems.append(problem)
        return original(problem, *args, **kwargs)

    network.solve_lp = keep
    try:
        first = network.evaluate_stages(dataset, topology, dataset.dmu_ids[0])
    finally:
        network.solve_lp = original
    assert len(problems) == 3

    def snapshot():
        arrays = [a for p in problems for a in (p.A, p.row_sign, p.b, p.objective,
                                                *p.standard_form)]
        arrays += [w for res in first for w in res.reference_weights.values()]
        return [a.tobytes() for a in arrays]

    before = snapshot()
    for dmu in dataset.dmu_ids[1:]:
        network.evaluate_stages(dataset, topology, dmu)
        network.network_mpss_variable(dataset, topology, dmu)
    assert snapshot() == before
    programs = list(dataset._compiled.values())
    assert len(programs) == 2  # one radial and one variable program for the whole sweep
    for prog in programs:
        for a in prog.template():
            assert not a.flags.writeable


def test_compiled_once_per_model_and_dataset():
    """A new dataset compiles afresh; a failed compile keeps nothing."""
    dataset, topology = insurance_views()
    network.network_mpss_radial(dataset, topology, dataset.dmu_ids[0])
    (prog,) = dataset._compiled.values()
    network.evaluate_stages(dataset, topology, dataset.dmu_ids[1])
    assert list(dataset._compiled.values()) == [prog]
    twin = Dataset(dataset.dmu_ids, dataset.measures)
    network.network_mpss_radial(twin, topology, dataset.dmu_ids[0])
    assert twin._compiled[topology, network.SYSTEM_RADIAL] is not prog
    with pytest.raises(UnsupportedTopologyError, match="unsupported topology"):
        chain.chain_mpss(twin, topology, dataset.dmu_ids[0])
    assert len(twin._compiled) == 1
    assert np.array_equal(prog._S, twin._compiled[topology, network.SYSTEM_RADIAL]._S)


# the models whose one solve starts from the unit's compiled crash basis
UNPINNED = ("blackbox", "variable", "radial", "chain-efficiency", "chain-mpss")


def own_point(unit, dataset):
    """The evaluated unit against itself: every factor 1, all weight on itself,
    every target at its own level, the unit's value of the measure it names."""
    p = unit.program
    x = np.zeros(p.width)
    x[:len(p.factor)] = 1.0
    for start in p.block.values():
        x[start + unit.own] = 1.0
    x[list(p.target.values())] = dataset.matrix(list(p.target))[unit.own]
    return x


@pytest.mark.parametrize("source", [log_spread, insurers])
@pytest.mark.parametrize("builder", UNPINNED)
def test_compiled_crash_basis_is_each_units_own(monkeypatch, source, builder):
    """The basis a program finds once, on its signs, is the one each unit's own point gives."""
    load, chain_topology = source()
    dataset, topology = load()
    reads_chain, call = BUILDERS[builder]
    handed = []
    crash_basis = Unit.crash_basis

    def recording(unit):
        basis = crash_basis(unit)
        handed.append((unit, basis))
        return basis

    monkeypatch.setattr(Unit, "crash_basis", recording)
    for dmu in dataset.dmu_ids:
        call(dataset, chain_topology if reads_chain else topology, dmu)
    assert [unit.own for unit, _ in handed] == list(range(dataset.n_dmus))
    for unit, basis in handed:
        found = crash_start(unit.problem("maximize", {}), own_point(unit, dataset))
        assert found is not None and basis.tolist() == found.tolist(), unit.own


@pytest.mark.parametrize("source", [log_spread, insurers])
def test_crash_search_runs_once_per_program(monkeypatch, source):
    """A sweep of every model reads a crash basis once per compiled program, and the
    solver holds no search for one (the Gram-Schmidt search is ``gen.crash_basis``)."""
    load, chain_topology = source()
    dataset, topology = load()
    calls = []
    own_basis = Program._own_basis

    def counted(*args):
        calls.append(args)
        return own_basis(*args)

    monkeypatch.setattr(Program, "_own_basis", counted)
    for reads_chain, call in BUILDERS.values():
        for dmu in dataset.dmu_ids:
            with contextlib.suppress(SolverError):
                call(dataset, chain_topology if reads_chain else topology, dmu)
    assert len(dataset._compiled) == 6
    assert len(calls) == len(dataset._compiled)
    assert not any(hasattr(lp, name) for name in ("_crash_basis", "_independent_rows"))
