"""A sweep reuses each model's compiled program; no unit may see another's.

Every model compiles its program once per dataset and copies it per unit.
A patch that leaked from one unit into the next, or a pin left in the
shared template, would make a unit's solves depend on the units evaluated
before it.  These tests compare every solve of a sweep, bit for bit, with
the same unit evaluated in the other order and on a freshly loaded dataset.

The sweep forms solve a batch of units in lockstep (``lp.solve_lockstep``),
form its solutions a group at a time, and hand a unit that leaves the
started path back to ``solve_lp``; the tests at the end compare each of
their solves, and their first failure, with the per-unit calls'.
"""

import contextlib
import functools
import importlib.util
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dea_mpss import _lockstep, chain, cli, lp, network, program
from dea_mpss.chain import ChainWeights
from dea_mpss.data import Dataset, NetworkTopology, ProcessSpec, load_dataset, parse_data_csv
from dea_mpss.errors import SolverError, UnsupportedTopologyError, ValidationError
from dea_mpss.lp import LpSolution
from dea_mpss.program import Program

from conftest import FIXTURES
from files import topology_to_json
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
    # one unit asked for its problem at two pins: the first problem keeps its band
    unit = network._program(dataset, topology, network.SYSTEM_RADIAL,
                            network._system_program).unit(0)
    low = unit.problem("maximize", network.STAGE_GAP[1], [0.25])
    b = low.b.tobytes()
    high = unit.problem("maximize", network.STAGE_GAP[1], [-0.5])
    assert low.b.tobytes() == b != high.b.tobytes()
    assert low.A.tobytes() == high.A.tobytes()
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


def own_point(p, own, dataset):
    """Unit ``own`` of program ``p`` against itself: every factor 1, all weight on
    itself, every target at its own level, the unit's value of the measure it names."""
    x = np.zeros(p.width)
    x[:len(p.factor)] = 1.0
    for start in p.block.values():
        x[start + own] = 1.0
    x[list(p.target.values())] = dataset.matrix(list(p.target))[own]
    return x


@pytest.mark.parametrize("source", [log_spread, insurers])
@pytest.mark.parametrize("builder", UNPINNED)
def test_compiled_crash_basis_is_each_units_own(monkeypatch, source, builder):
    """The basis a program finds once, on its signs, is the one each unit's own point gives."""
    load, chain_topology = source()
    dataset, topology = load()
    reads_chain, call = BUILDERS[builder]
    handed = []
    crash_bases = Program.crash_bases

    def recording(prog, owns):
        bases = crash_bases(prog, owns)
        handed.extend(zip([prog] * len(owns), owns, bases))
        return bases

    monkeypatch.setattr(Program, "crash_bases", recording)
    for dmu in dataset.dmu_ids:
        call(dataset, chain_topology if reads_chain else topology, dmu)
    assert [own for _, own, _ in handed] == list(range(dataset.n_dmus))
    for prog, own, basis in handed:
        found = crash_start(prog.unit(own).problem("maximize", {}, ()),
                            own_point(prog, own, dataset))
        assert found is not None and basis.tolist() == found.tolist(), own


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


# -- sweeps: the units of a batch in lockstep, each solve the per-unit call's ----------

# builder -> its sweep form, called as (dataset, topology, dmus); the profitability
# split, which no command sweeps, has none
SWEEPS = {
    "blackbox": lambda d, t, us: network.blackbox_sweep(d, us, topology=t),
    "variable": network.network_variable_sweep,
    "radial": network.network_radial_sweep,
    "stages": network.stages_sweep,
    "chain-efficiency": chain.chain_efficiency_sweep,
    "chain-efficiency w3=0": lambda d, t, us: chain.chain_efficiency_sweep(
        d, t, us, ChainWeights(1.0, 1.0, 0.0)),
    "chain-mpss": chain.chain_mpss_sweep,
}
TWO_STAGE_SWEEPS = ("blackbox", "variable", "radial", "stages")
CHAIN_SWEEPS = ("blackbox", "chain-efficiency", "chain-efficiency w3=0", "chain-mpss")


def benchmark_set(name):
    """The seed-1 300-unit two-stage or chain set, as ``perfbench/inputs.py`` writes it."""
    def load():
        path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        write = inputs.write_two_stage if name == "pinned-stages-300" else inputs.write_chain
        with tempfile.TemporaryDirectory() as tmp:
            write(Path(tmp), np.random.default_rng([1, inputs.STREAMS[name]]), 300)
            return load_dataset(Path(tmp) / "data.csv", Path(tmp) / "topology.json")

    return load


def first_units(k):
    """The first ``k`` units of the log-spread fixture, as a data file of their own.

    Their programs are narrower than ``program.HEAD_COLUMNS``, or barely
    wider, so a unit's heads are its whole matrix or take slack columns.
    """
    def load():
        lines = (FIXTURES / "log_spread.csv").read_text(encoding="utf-8").splitlines(True)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "data.csv").write_text("".join(lines[:k + 1]), encoding="utf-8")
            return load_dataset(Path(tmp) / "data.csv",
                                FIXTURES / "log_spread_topology.json")

    return load


FIRST_UNITS = {f"log-spread first {k}": k for k in (1, 3, 5, 13)}
# (source, builder): every fixture and small file under every sweep, each 300-unit
# set under its own
SWEPT = [(source, builder) for source in ("log-spread", "insurers", *FIRST_UNITS)
         for builder in SWEEPS]
SWEPT += [("pinned-stages-300", b) for b in TWO_STAGE_SWEEPS]
SWEPT += [("chain-300", b) for b in CHAIN_SWEEPS]


@functools.lru_cache(maxsize=None)
def loaded(source):
    """The dataset and the two-stage and chain views of ``source``, loaded once."""
    if source in ("log-spread", "insurers"):
        load, chain_topology = (log_spread if source == "log-spread" else insurers)()
        dataset, topology = load()
        return dataset, topology, chain_topology
    if source in FIRST_UNITS:
        dataset, topology = first_units(FIRST_UNITS[source])()
        return dataset, topology, log_spread()[1]
    dataset, topology = benchmark_set(source)()
    return dataset, topology, topology


def per_unit(source, builder):
    """Each unit's solves by the per-unit call, as ``fingerprints``, with the first failure."""
    dataset, topology, chain_topology = loaded(source)
    reads_chain, call = BUILDERS[builder]
    view = chain_topology if reads_chain else topology
    with pytest.MonkeyPatch.context() as mp:
        outcome = solves(mp, [(u, lambda u=u: call(dataset, view, u)) for u in dataset.dmu_ids])
    first = next((o[1] for o in outcome.values() if isinstance(o, tuple)), None)
    # a failed solve is seen in a sweep by its message alone
    outcome = {u: (o[0][:-1], o[1]) if isinstance(o, tuple) and o[0][-1:] and
               o[0][-1].status != "optimal" else o for u, o in outcome.items()}
    return {u: fingerprints(o) for u, o in outcome.items()}, first


_per_unit = functools.lru_cache(maxsize=None)(per_unit)


def swept(source, builder, dmus=None, kept=None):
    """Each unit's solves in the sweep of ``dmus`` (all units), as ``fingerprints``, and
    the error it raised.

    The solves are caught as ``network._handed`` hands them on, batched or
    handed back, so a unit solved after the raised failure, in a group
    handed on whole, is caught too.  ``kept``, a list, gets every solution.
    """
    dataset, topology, chain_topology = loaded(source)
    view = chain_topology if BUILDERS[builder][0] else topology
    caught = {}
    original = network._handed

    def recording(part, outcomes):
        handed = original(part, outcomes)
        for dmu, sol in handed:
            caught.setdefault(dmu, []).append(sol)
        return handed

    error = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_handed", recording)
        try:
            list(SWEEPS[builder](dataset, view, dataset.dmu_ids if dmus is None else dmus))
        except SolverError as exc:
            error = str(exc)
    if kept is not None:
        kept.extend(s for sols in caught.values() for s in sols
                    if not isinstance(s, SolverError))
    out = {}
    for dmu, sols in caught.items():
        done = [s for s in sols if not isinstance(s, SolverError)]
        failed = [str(s) for s in sols if isinstance(s, SolverError)]
        out[dmu] = ([fingerprint(s) for s in done], failed[0]) if failed else \
            [fingerprint(s) for s in done]
    return out, error


@pytest.mark.parametrize("source,builder", SWEPT)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(width=st.integers(1, 300), chunk=st.integers(1, 48))
@example(width=300, chunk=network.SWEEP_CHUNK)
@example(width=network.SWEEP_WIDTH, chunk=network.SWEEP_CHUNK)
def test_sweep_solves_as_the_per_unit_calls(source, builder, width, chunk):
    """Whatever the loop width, up to a whole 300-unit set, and whatever the group of
    solutions formed at once, every solve of a sweep is the per-unit call's, bit for bit,
    and a failing sweep raises the per-unit loop's first failure."""
    want, first = _per_unit(source, builder)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "SWEEP_WIDTH", width)
        mp.setattr(network, "SWEEP_CHUNK", chunk)
        got, error = swept(source, builder)
    assert error == first
    assert got, "the sweep solved nothing"
    for dmu, outcome in got.items():
        assert outcome == want[dmu], dmu


@pytest.mark.parametrize("source,builder", [(source, builder) for source in (
    "log-spread", "insurers", "log-spread first 3") for builder in SWEEPS])
def test_a_sweep_priced_over_candidates_solves_as_the_per_unit_calls(monkeypatch, source,
                                                                      builder):
    """Small programs, given a candidate set as a wide program's is (``program.CANDIDATE_UNITS``
    at 0), on freshly loaded data: every solve of the sweep, the units the lockstep hands
    back and those whose candidates' optimum does not hold included, is the per-unit
    call's, and a failing sweep raises its first failure."""
    monkeypatch.setattr(program, "CANDIDATE_UNITS", 0)
    fresh = loaded.__wrapped__(source)
    monkeypatch.setattr(sys.modules[__name__], "loaded", lambda _: fresh)
    want, first = per_unit(source, builder)
    got, error = swept(source, builder)
    assert all(p._candidates.size for p in fresh[0]._compiled.values())
    assert error == first
    assert got, "the sweep solved nothing"
    for dmu, outcome in got.items():
        assert outcome == want[dmu], dmu


@pytest.mark.parametrize("source,builder", [
    ("log-spread", "stages"), ("log-spread", "variable"), ("insurers", "stages"),
    ("insurers", "chain-efficiency"), ("pinned-stages-300", "stages"),
    ("chain-300", "chain-mpss")])
def test_every_pivoting_unit_is_handed_back_at_a_refactor(monkeypatch, source, builder):
    """With a refactor after every pivot, a unit leaves the lockstep at its first pivot;
    solved alone from the same start, it gets the per-unit call's solution.  The loop
    runs a group wide and ``SWEEP_WIDTH`` wide."""
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    solve_lockstep = network.solve_lockstep

    def counted(*args):
        for sol in solve_lockstep(*args):
            (handed if sol is None else batched).append(sol)
            yield sol

    monkeypatch.setattr(network, "solve_lockstep", counted)
    want, first = per_unit(source, builder)
    for width in (network.SWEEP_CHUNK, network.SWEEP_WIDTH):
        batched, handed = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "SWEEP_WIDTH", width)
            got, error = swept(source, builder)
        assert error == first
        assert all(sol.iterations == 0 for sol in batched)
        assert handed
        for dmu, outcome in got.items():
            assert outcome == want[dmu], dmu


# Pivots between refactors a source's sweep runs at below: every chain-300 w3=0 unit is
# optimal within the default 96, and at 18 the lockstep hands back the slower ones.
HANDING_BACK = {"chain-300": 18}


@pytest.mark.parametrize("source,builder", [("log-spread", "variable"),
                                            ("chain-300", "chain-efficiency w3=0"),
                                            ("insurers", "chain-efficiency w3=0")])
def test_a_unit_handed_back_inside_a_group_keeps_its_place(monkeypatch, source, builder):
    """A unit the lockstep hands back between two units of its group whose solutions it
    forms is solved alone in its place: every solve is the per-unit call's."""
    if source in HANDING_BACK:
        monkeypatch.setattr(lp, "REFACTOR_EVERY", HANDING_BACK[source])
    outcomes = []
    solve_lockstep = network.solve_lockstep

    def recorded(*args):
        for sol in solve_lockstep(*args):
            outcomes.append(sol)
            yield sol

    monkeypatch.setattr(network, "solve_lockstep", recorded)
    want, first = (per_unit if source in HANDING_BACK else _per_unit)(source, builder)
    got, error = swept(source, builder)
    assert error == first
    chunk = network.SWEEP_CHUNK
    inside = [k for k, sol in enumerate(outcomes) if sol is None and 0 < k % chunk < chunk - 1
              and outcomes[k - 1] is not None and outcomes[k + 1] is not None]
    assert inside, "no unit was handed back inside a group"
    for dmu, outcome in got.items():
        assert outcome == want[dmu], dmu


def test_an_unknown_unit_in_a_wide_batch_is_raised_after_the_units_before_it():
    """The units before an unknown DMU in a batch wider than a group are handed on, each
    the per-unit call's result, and then its ``ValidationError`` is raised."""
    dataset, topology, _ = loaded("chain-300")
    ids = dataset.dmu_ids
    before = network.SWEEP_CHUNK * 4 + 5
    assert before < network.SWEEP_WIDTH
    handed = []
    with pytest.raises(ValidationError, match="nope"):
        for res in chain.chain_mpss_sweep(dataset, topology, [*ids[:before], "nope", *ids]):
            handed.append(res)
    assert [res.dmu for res in handed] == list(ids[:before])
    for res in handed:
        alone = chain.chain_mpss(dataset, topology, res.dmu)
        assert (res.score, res.theta_operation, res.theta_rd, res.theta_market) == \
            (alone.score, alone.theta_operation, alone.theta_rd, alone.theta_market)


def test_a_stage_failure_beyond_the_first_group_is_raised_in_unit_order():
    """The log-spread units in an order whose first failing stage unit lies beyond the
    first group: the sweep hands on the units before it as the per-unit calls give
    them, then raises that unit's error."""
    dataset, topology, _ = loaded("log-spread")
    want, _ = _per_unit("log-spread", "stages")
    failing = [u for u in dataset.dmu_ids if isinstance(want[u], tuple)]
    fine = [u for u in dataset.dmu_ids if u not in failing]
    ahead = 2 * network.SWEEP_CHUNK + 3
    order = [*fine[:ahead], *failing, *fine[ahead:]]
    got, error = swept("log-spread", "stages", order)
    assert error == want[failing[0]][1]
    assert set(fine[:ahead]) <= set(got)
    for dmu, outcome in got.items():
        assert outcome == want[dmu], dmu


@pytest.mark.parametrize("source,builder", [(s, b) for s, b in SWEPT
                                            if s in ("chain-300", "pinned-stages-300")])
def test_a_kept_solution_pins_no_more_than_a_group(source, builder):
    """Each array of every ``LpSolution`` a sweep hands on is its own or a view of an array
    of at most ``SWEEP_CHUNK`` units, so a kept result never pins a wide batch's arrays."""
    kept = []
    swept(source, builder, kept=kept)
    assert kept
    for sol in kept:
        for a in (sol.variable_values, sol.dual_values, sol.reduced_costs, sol.basic):
            assert a.base is None or a.base.size <= network.SWEEP_CHUNK * a.size


# the traced peak a wide sweep may reach above its loaded data, in bytes
MEMORY_BUDGET = 1.5e6


@pytest.mark.parametrize("source,builder", [("pinned-stages-300", "stages"),
                                            ("chain-300", "chain-efficiency"),
                                            ("chain-300", "chain-mpss")])
def test_a_wide_sweep_stays_within_its_memory_budget(source, builder):
    """The seed-1 stage, chain-efficiency and chain-mpss sweeps, each ``SWEEP_WIDTH`` units wide,
    trace no more than ``MEMORY_BUDGET`` at their peak above the freshly loaded data,
    their results consumed one at a time."""
    dataset, topology = benchmark_set(source)()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in SWEEPS[builder](dataset, topology, dataset.dmu_ids):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_BUDGET, f"{peak / 1e6:.2f} MB"


def test_a_stage_unit_handed_back_in_a_wide_batch_starts_stage_2_from_its_own_solve(
        monkeypatch):
    """With a refactor after every pivot, units of a ``SWEEP_WIDTH`` stage batch leave the
    lockstep at stage 1.  Each one's stage-2 solve, in the lockstep or alone, starts from
    the very ``LpSolution`` its stage-1 ``solve_lp`` gave, and its tuple is handed on in
    its place, the per-unit call's."""
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    dataset, topology, _ = loaded("pinned-stages-300")
    prog = network._program(dataset, topology, network.SYSTEM_RADIAL, network._system_program)
    stage_of = {rows: stage for stage, (rows, _) in enumerate(prog._shape)}  # by row count
    alone = {0: [], 1: [], 2: []}  # each stage's solve_lp calls: (start, solution)
    batched = {0: [], 1: [], 2: []}  # each stage's lockstep calls: (starts, outcomes)
    solve_lp, solve_lockstep = network.solve_lp, network.solve_lockstep

    def scalar(problem, start=None):
        sol = solve_lp(problem, start=start)
        alone[stage_of[problem.n_constraints]].append((start, sol))
        return sol

    def lockstep(sense, objective, programs, starts):
        outcomes = solve_lockstep(sense, objective, programs, starts)
        batched[stage_of[programs.b.shape[1]]].append((list(starts), list(outcomes)))
        return outcomes

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "solve_lp", scalar)
        mp.setattr(network, "solve_lockstep", lockstep)
        got = list(network.stages_sweep(dataset, topology, dataset.dmu_ids))
    wide = [outcomes for _, outcomes in batched[1] if len(outcomes) > network.SWEEP_CHUNK]
    assert any(o is None for outcomes in wide for o in outcomes[1:-1]), \
        "no unit was handed back inside a wide stage-1 batch"
    # every stage-2 start that is a solution is a stage-1 scalar solve's, in unit order
    starts = [s for batch, _ in batched[2] for s in batch if isinstance(s, LpSolution)]
    own = [sol for _, sol in alone[1]]
    assert len(starts) == len(own) > 0
    assert all(a is b for a, b in zip(starts, own))
    # a unit handed back again at stage 2 is solved alone from that same start
    again = [s for batch, outcomes in batched[2] for s, o in zip(batch, outcomes) if o is None]
    assert len(again) == len(alone[2])
    assert all(a is b for a, (b, _) in zip(again, alone[2]))
    assert len(got) == dataset.n_dmus
    for dmu, results in zip(dataset.dmu_ids, got):
        want = network.evaluate_stages(dataset, topology, dmu)
        assert [(r.scope, r.dmu, repr(r.score)) for r in results] == \
            [(r.scope, r.dmu, repr(r.score)) for r in want]


def test_a_stage_failure_in_a_wide_batch_follows_exactly_the_units_before_it():
    """The log-spread units share one stage batch: the sweep hands on the results of
    exactly the units before the first failing one, each the per-unit call's, and then
    raises that unit's error."""
    dataset, topology, _ = loaded("log-spread")
    assert dataset.n_dmus <= network.SWEEP_WIDTH
    want, first = [], None
    for dmu in dataset.dmu_ids:
        try:
            want.append(network.evaluate_stages(dataset, topology, dmu))
        except SolverError as exc:
            first = str(exc)
            break
    assert first is not None and want
    handed = []
    with pytest.raises(SolverError) as raised:
        for results in network.stages_sweep(dataset, topology, dataset.dmu_ids):
            handed.append(results)
    assert str(raised.value) == first

    def read(results):
        return [(r.scope, r.dmu, repr(r.score), r.scale_factors) for r in results]

    assert [read(r) for r in handed] == [read(r) for r in want]


def test_failing_stage_sweep_raises_the_first_failure(capsys):
    """The log-spread stage sweep fails; it raises the per-unit loop's first error."""
    dataset, topology, _ = loaded("log-spread")
    first = None
    for dmu in dataset.dmu_ids:
        try:
            network.evaluate_stages(dataset, topology, dmu)
        except SolverError as exc:
            first = str(exc)
            break
    assert first is not None
    with pytest.raises(SolverError) as raised:
        list(network.stages_sweep(dataset, topology, dataset.dmu_ids))
    assert str(raised.value) == first
    argv = ["network-mpss", "--data", str(FIXTURES / "log_spread.csv"),
            "--topology", str(FIXTURES / "log_spread_topology.json"),
            "--intermediates", "radial", "--stages"]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"solver failure: {first}\n"


@pytest.mark.parametrize("data,topology", [
    ("log_spread.csv", "log_spread_topology.json"), ("insurers_24.csv", None)])
def test_decompose_sweep_fails_on_the_first_unit(tmp_path, capsys, data, topology):
    """``decompose --data --topology`` stops at the first unit, in file order, whose
    stages fail or score below zero, with the message of that unit's ``--dmu`` call."""
    if topology is None:
        topology = tmp_path / "insurers.json"
        topology.write_text(topology_to_json(insurance_views()[1]), encoding="utf-8")
    argv = ["decompose", "--data", str(FIXTURES / data), "--topology", str(FIXTURES / topology),
            "--format", "csv", "--raw"]
    code = cli.run(argv)
    whole = capsys.readouterr()
    lines = []
    for dmu in parse_data_csv((FIXTURES / data).read_text(encoding="utf-8")).dmu_ids:
        status = cli.run([*argv, "--dmu", dmu])
        one = capsys.readouterr()
        if status:
            assert (code, whole.err) == (status, one.err)
            assert whole.out == ""
            return
        lines.append(one.out.splitlines()[1])
    assert code == 0 and whole.err == ""
    assert whole.out.splitlines()[1:] == lines


COMMANDS = [
    ["blackbox-mpss"],
    ["network-mpss", "--intermediates", "variable", "--stages"],
    ["network-mpss", "--intermediates", "radial"],
    ["network-mpss", "--intermediates", "radial", "--stages"],
    ["decompose"],
    ["chain-eff"],
    ["chain-mpss", "--targets"],
]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_single_unit_makes_no_lockstep_step(monkeypatch, tmp_path, capsys, command):
    """A ``--dmu`` call solves its unit alone; the whole file is swept in lockstep."""
    topology = tmp_path / "topology.json"
    chain_command = command[0].startswith("chain")
    view = insurers()[1] if chain_command else insurance_views()[1]
    topology.write_text(topology_to_json(view), encoding="utf-8")
    argv = [command[0], "--data", str(FIXTURES / "insurers_24.csv"), "--topology",
            str(topology), *command[1:]]
    steps = []
    run = _lockstep._Lockstep.run

    def counted(self, starts):
        steps.append(len(starts))
        return run(self, starts)

    monkeypatch.setattr(_lockstep._Lockstep, "run", counted)
    # decompose stops at a negative stage score (C7-sign), exit 2, once its unit is reached
    assert cli.run([*argv, "--dmu", "1"]) in (0, 2), capsys.readouterr().err
    assert steps == []
    assert cli.run(argv) in (0, 2), capsys.readouterr().err
    assert steps
