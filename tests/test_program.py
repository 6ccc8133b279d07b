import numpy as np

from dea_mpss.data import Dataset
from dea_mpss.lp import LpSolution
from dea_mpss.program import FIXING_BAND, Program

# three DMUs, evaluated DMU "b" (index 1)
DATA = Dataset(["a", "b", "c"], {"x": [1.0, 2.0, 4.0], "w": [3.0, 5.0, 7.0], "z": [6.0, 8.0, 9.0]})


def program():
    own = DATA.index_of("b")
    return Program(DATA.n_dmus, own, ("t_in", "t_out"), ("up", "down"), ("z",))


def rows_of(prog):
    return [(list(a), rel, rhs) for a, rel, rhs in prog.rows]


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
    prog.pin({"t_out": 1.0, "t_in": -1.0}, 0.25)
    assert rows_of(prog) == [
        ([-1.0, 1.0, 0, 0, 0, 0, 0, 0, 0], "<=", 0.25 + FIXING_BAND),
        ([-1.0, 1.0, 0, 0, 0, 0, 0, 0, 0], ">=", 0.25 - FIXING_BAND),
    ]


def test_problem_and_readback_by_name():
    prog = program()
    prog.convexity()
    problem = prog.problem("maximize", {"t_out": 1.0, "t_in": -1.0})
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

