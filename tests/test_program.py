import contextlib

import numpy as np
import pytest

from dea_mpss.data import Dataset, load_dataset
from dea_mpss.errors import SolverError
from dea_mpss.lp import SLACK_SIGN, LpSolution, StandardForm, solve_lp
from dea_mpss.network import STAGE_GAP, SYSTEM_GAP, SYSTEM_RADIAL, _program, _system_program
from dea_mpss.program import FIXING_BAND, Program

from conftest import FIXTURES, chain_topology, random_dataset, two_stage_topology
from gen import crash_basis, lp_problem
from test_network import named_instance
from test_sweep import BUILDERS, insurers
from test_sweep import log_spread as log_spread_with_chain

# three DMUs, evaluated DMU "b" (index 1)
DATA = Dataset(["a", "b", "c"], {"x": [1.0, 2.0, 4.0], "w": [3.0, 5.0, 7.0], "z": [6.0, 8.0, 9.0]})
RELATION = {sign: rel for rel, sign in SLACK_SIGN.items()}


def program():
    return Program(DATA.n_dmus, ("t_in", "t_out"), ("up", "down"), ("z",))


def rows_of(prog, *pins):
    """Unit "b"'s rows as (coefficients, relation, rhs), read from its problem's matrix."""
    p = prog.compile().unit(DATA.index_of("b")).problem("maximize", {}, pins)
    assert p.A.shape == (p.n_constraints, prog.width)
    return [(list(a), RELATION[s], rhs) for a, s, rhs in zip(p.A, p.row_sign.tolist(), p.b.tolist())]


def test_column_layout():
    prog = program()
    assert prog.factor == {"t_in": 0, "t_out": 1}
    assert prog.block == {"up": 2, "down": 5}
    assert prog.target == {"z": 8}
    assert prog.width == 9


def test_radial_rows_one_per_measure():
    prog = program()
    prog.envelope("up", DATA.matrix(["x", "w"]), "<=", factor="t_in")
    assert rows_of(prog) == [
        ([-2.0, 0, 1.0, 2.0, 4.0, 0, 0, 0, 0], "<=", 0.0),
        ([-5.0, 0, 3.0, 5.0, 7.0, 0, 0, 0, 0], "<=", 0.0),
    ]


def test_free_target_row():
    prog = program()
    prog.envelope("down", DATA.matrix(["z"]), ">=", targets=["z"])
    assert rows_of(prog) == [([0, 0, 0, 0, 0, 6.0, 8.0, 9.0, -1.0], ">=", 0.0)]


def test_convexity_rows_in_block_order():
    prog = program()
    prog.convexity()
    assert rows_of(prog) == [
        ([0, 0, 1.0, 1.0, 1.0, 0, 0, 0, 0], "=", 1.0),
        ([0, 0, 0, 0, 0, 1.0, 1.0, 1.0, 0], "=", 1.0),
    ]


def test_pin_pair_brackets_the_value():
    prog = program()
    prog.pin({"t_out": 1.0, "t_in": -1.0})
    assert rows_of(prog, 0.25) == [
        ([-1.0, 1.0, 0, 0, 0, 0, 0, 0, 0], "<=", 0.25 + FIXING_BAND),
        ([-1.0, 1.0, 0, 0, 0, 0, 0, 0, 0], ">=", 0.25 - FIXING_BAND),
    ]


def test_blocks_stack_in_append_order():
    prog = program()
    prog.envelope("up", DATA.matrix(["x"]), "<=", factor="t_in")
    prog.convexity()
    prog.bound("t_out", ">=")
    rows = rows_of(prog)
    assert [rel for _, rel, _ in rows] == ["<=", "=", "=", ">="]
    assert [rhs for _, _, rhs in rows] == [0.0, 1.0, 1.0, 1.0]


def test_problem_arrays_are_read_only_copies():
    prog = program()
    prog.convexity()
    problem = prog.compile().unit(1).problem("maximize", {"t_out": 1.0}, ())
    for a in (problem.A, problem.row_sign, problem.b, problem.objective,
              problem.variable_lower_bounds, *problem.standard_form):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 7.0
    for a in prog.template():  # the compiled template every unit copies
        assert not a.flags.writeable
    # the problem's rows are read from its unit's copy, apart from the template
    assert not np.shares_memory(problem.A, prog.template()[0])


def test_problem_and_readback_by_name():
    prog = program()
    prog.convexity()
    problem = prog.compile().unit(1).problem("maximize", {"t_out": 1.0, "t_in": -1.0}, ())
    assert list(problem.objective) == [-1.0, 1.0, 0, 0, 0, 0, 0, 0, 0]
    assert problem.n_constraints == 2
    x = np.arange(9.0)
    basic = np.zeros(9, dtype=bool)
    sol = LpSolution("optimal", 0.0, x, 0, np.zeros(2), np.zeros(9), basic)
    assert prog.factors(sol) == {"t_in": 0.0, "t_out": 1.0}
    weights = prog.weights(sol)
    assert list(weights["up"]) == [2.0, 3.0, 4.0]
    assert list(weights["down"]) == [5.0, 6.0, 7.0]
    assert prog.targets(sol) == {"z": 8.0}
    # a nonbasic target with zero reduced cost marks an alternate optimum
    assert not prog.targets_unique(sol)
    basic[8] = True
    assert prog.targets_unique(sol)


def as_triples(problem):
    """The same program rebuilt from plain (list, relation, float) triples, with the same
    candidate columns."""
    rows = [(a.tolist(), rel, float(rhs)) for a, rel, rhs in problem.constraints]
    candidates = problem.standard_form.candidates
    return lp_problem(problem.objective_sense, problem.objective.tolist(), rows,
                      None if candidates is None else candidates.tolist())


def assert_same_solution(a, b):
    assert (a.status, repr(a.objective_value), a.iterations, a.started, a._basis) == \
        (b.status, repr(b.objective_value), b.iterations, b.started, b._basis)
    for name in ("variable_values", "dual_values", "reduced_costs", "basic"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def log_spread():
    return load_dataset(FIXTURES / "log_spread.csv", FIXTURES / "log_spread_topology.json")


@pytest.mark.parametrize("source, dmu, negative", [
    # u3's stage-1 score is -0.0399 and the named instance's u2's -0.41865:
    # both stage-2 pin rows have negative right sides
    (log_spread, "u1", False), (log_spread, "u3", True), (log_spread, "u5", False),
    (log_spread, "u13", False), (log_spread, "u37", False), (named_instance, "u2", True),
], ids=["u1", "u3", "u5", "u13", "u37", "named-u2"])
def test_program_and_triples_solve_bit_identically(source, dmu, negative):
    """The radial system and both pinned stage solves, crash and warm started as the models do.

    The compiled program's standard form, pin rows with a negative right
    side included, must solve exactly as the one ``gen.lp_problem`` builds
    for the same rows as triples, whose slack columns it numbers alike, so
    the compiled crash basis starts both.  A pin at a score within the band of zero gives its
    ">=" row a negative right side; a negative stage-1 score gives the "<="
    row of the stage-2 pin one as well.  The pin rows stay as written.
    """
    dataset, topology = source()
    prog = _program(dataset, topology, SYSTEM_RADIAL, _system_program)
    unit = prog.unit(dataset.index_of(dmu))
    problem = unit.problem("maximize", SYSTEM_GAP, ())
    (start,) = prog.crash_bases([unit.own])
    sol, twin = solve_lp(problem, start=start), solve_lp(as_triples(problem), start=start)
    assert_same_solution(sol, twin)
    pinned = []
    for stage in (1, 2):
        pinned.append(sol.objective_value)
        problem = unit.problem("maximize", STAGE_GAP[stage], pinned)
        negative_rhs = problem.b < 0.0
        assert problem.row_sign[-2:].tolist() == [1.0, -1.0]
        sol, twin = solve_lp(problem, start=sol), solve_lp(as_triples(problem), start=twin)
        assert_same_solution(sol, twin)
        if sol.status != "optimal":
            break
    assert bool((negative_rhs & (problem.row_sign > 0.0)).any()) is negative


# -- the crash basis, read off the rows --------------------------------------


def searched_basis(prog):
    """The crash basis the way it was found before being read off the rows: a
    Gram-Schmidt search (``gen.crash_basis``) on the signs of the unpinned
    program's support and slack columns at the own point, all ones."""
    r, cols = prog._shape[0]
    f, starts = len(prog.factor), list(prog.block.values())
    support = [*range(f), *starts, *prog.target.values()]
    keep = np.array(support + list(range(prog.width, cols)))
    S = prog._S[:r, keep]
    S[prog._own_at] = -1.0  # the factor columns lead in both layouts
    weights = slice(f, f + len(starts))
    S[:, weights] = np.sign(S[:, weights])
    slack_col = prog._slack_col[:r]
    slack_col = np.where(slack_col < 0, -1, slack_col - prog.width + len(support))
    form = StandardForm(S, prog._rhs[:r], prog._sign[:r], slack_col)
    basis = crash_basis(form, np.ones(len(support)))
    if basis is None:
        return [], []
    basis = keep[basis]
    return basis.tolist(), np.searchsorted(basis, starts).tolist()


def builder_programs(dataset, topology, chain_view):
    """Every program the builders compile for ``dataset``, the chain ones on ``chain_view``."""
    for reads_chain, call in BUILDERS.values():
        view = chain_view if reads_chain else topology
        if view is not None:
            with contextlib.suppress(SolverError):
                call(dataset, view, dataset.dmu_ids[0])
    return list(dataset._compiled.values())


def fixture_programs(source):
    load, chain_view = source()
    dataset, topology = load()
    return builder_programs(dataset, topology, chain_view)


def generated_programs():
    rng = np.random.default_rng(53)
    programs = []
    for _ in range(8):
        shape = [int(rng.integers(1, 3)) for _ in range(5)]
        n = int(rng.integers(2, 7))
        topo = two_stage_topology(*shape)
        programs += builder_programs(random_dataset(rng, topo, n), topo, None)
        topo = chain_topology(*shape)
        programs += builder_programs(random_dataset(rng, topo, n), None, topo)
    return programs


def degenerate_programs():
    """The one-kind-of-row programs above, plus one whose rows name every support column."""
    def envelope(prog):
        prog.envelope("up", DATA.matrix(["x", "w"]), "<=", factor="t_in")

    def target(prog):
        prog.envelope("down", DATA.matrix(["z"]), ">=", targets=["z"])

    def pin(prog):
        prog.pin({"t_out": 1.0, "t_in": -1.0})

    def append_order(prog):
        envelope(prog)
        prog.convexity()
        prog.bound("t_out", ">=")

    def complete(prog):
        envelope(prog)
        target(prog)
        prog.envelope("down", DATA.matrix(["w"]), ">=", factor="t_out")
        prog.convexity()
        prog.bound("t_in", "<=")
        pin(prog)

    programs = {}
    for build in (envelope, target, Program.convexity, pin, append_order, complete):
        prog = program()
        build(prog)
        programs[build.__name__] = prog.compile()
    return programs


@pytest.mark.parametrize("programs", [
    lambda: fixture_programs(insurers), lambda: fixture_programs(log_spread_with_chain),
    generated_programs,
], ids=["insurers", "log_spread", "generated"])
def test_crash_basis_read_off_rows_matches_the_search(programs):
    programs = programs()
    assert len(programs) >= 6
    for prog in programs:
        basis, own = searched_basis(prog)
        assert basis, "the search finds a basis on every builder's program"
        assert (prog._crash.tolist(), np.flatnonzero(prog._crash_own).tolist()) == (basis, own)


def test_crash_basis_of_degenerate_programs():
    programs = degenerate_programs()
    for name, prog in programs.items():
        assert (prog._crash.tolist(), np.flatnonzero(prog._crash_own).tolist()) == \
            searched_basis(prog), name
    # only the complete program names every support column
    assert [name for name, prog in programs.items() if prog._crash.size] == ["complete"]
    assert programs["pin"]._crash.dtype.kind == "i"


# -- a unit alone and in a lockstep batch -------------------------------------

# per unit, the scores its pairs are pinned at: a negative one, one within the
# band of zero, zero itself
PINNED = np.array([[0.25, -0.0399], [0.0, 5e-7], [-0.41865, 0.0], [1.0, 0.75]])


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("source", [insurers, log_spread_with_chain],
                         ids=["insurers", "log_spread"])
def test_lone_and_batched_programs_are_one_program(source):
    """Every compiled model program, pinned 0, 1 or 2 times: a unit's lone problem and its
    place in a lockstep batch agree bit for bit, right sides, heads and the rest alike."""
    programs = fixture_programs(source)
    assert len(programs) >= 6
    owns = [0, 5, 17, 23]
    seen = set()
    for prog in programs:
        for pins in range(min(prog.pins, 2) + 1):
            seen.add(pins)
            pinned = PINNED[:, :pins]
            batch = prog.lockstep(owns, pinned)
            h = batch.head.shape[1]
            heads = batch.heads(np.arange(len(owns)))
            for k, own in enumerate(owns):
                form = prog.unit(own).problem("maximize", {}, pinned[k]).standard_form
                assert same_bytes(batch.b[k], form.b)
                assert same_bytes(heads[k], form.S[:, :h])
                assert same_bytes(batch.S[:, h:], form.S[:, h:])
                assert same_bytes(batch.sign, form.sign)
                assert same_bytes(batch.slack_col_of_row, form.slack_col_of_row)
    assert seen == {0, 1, 2}
