import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dea_mpss import _lockstep, lp, network, program
from dea_mpss.errors import SolverError, ValidationError
from dea_mpss.lp import LpProblem, solve_lp
from gen import crash_start, lp_problem, random_lp
from lp_enum import _as_rows, _vertices, enumerate_solve
from test_program import assert_same_solution, log_spread


def test_box_constraints():
    prob = lp_problem(
        "maximize", [1.0, 1.0],
        [([1.0, 0.0], "<=", 2.0), ([0.0, 1.0], "<=", 3.0)],
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(5.0, abs=1e-9)
    assert sol.variable_values == pytest.approx([2.0, 3.0], abs=1e-9)


def test_empty_feasible_set():
    prob = lp_problem("maximize", [1.0], [([1.0], "<=", -1.0)])
    assert solve_lp(prob).status == "infeasible"


def test_unbounded_ray():
    prob = lp_problem("maximize", [1.0, 0.0], [([0.0, 1.0], "<=", 1.0)])
    sol = solve_lp(prob)
    assert sol.status == "unbounded"
    assert sol.objective_value == np.inf


def test_equality_and_lower_bounds():
    # min x1 + x2  s.t. x1 + x2 = 4, x1 >= 1  ->  (1, 3) or any split, obj 4
    prob = lp_problem(
        "minimize", [1.0, 1.0], [([1.0, 1.0], "=", 4.0), ([1.0, 0.0], ">=", 1.0)],
    )
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    assert sol.variable_values[0] >= 1.0 - 1e-9


def test_dimension_mismatch_is_structured_error():
    form = lp_problem("maximize", [1.0], [([1.0], "<=", 1.0)]).standard_form
    with pytest.raises(ValidationError, match="cover 3 variables"):
        LpProblem("maximize", [1.0, 2.0, 3.0], standard_form=form)


def test_bad_sense_rejected():
    with pytest.raises(ValidationError, match="objective_sense"):
        lp_problem("max", [1.0], [])


def test_problem_is_immutable():
    prob = lp_problem("maximize", [1.0], [([1.0], "<=", 1.0)])
    with pytest.raises(ValueError):
        prob.objective[0] = 9.0


@pytest.mark.parametrize("rows, status", [
    ([([1.0, 0.0], "<=", 2.0), ([0.0, 1.0], "<=", 3.0)], "optimal"),
    ([([1.0, 0.0], "<=", -1.0)], "infeasible"),
    ([([0.0, 1.0], "<=", 1.0)], "unbounded"),
])
def test_basic_flags_are_booleans(rows, status):
    sol = solve_lp(lp_problem("maximize", [1.0, 1.0], rows))
    assert sol.status == status
    assert sol.basic.dtype == np.bool_ and sol.basic.shape == (2,)
    assert not sol.basic.flags.writeable
    assert sol.basic.tolist() == ([True, True] if status == "optimal" else [False, False])


def test_deterministic_resolves():
    rng = np.random.default_rng(7)
    for _ in range(25):
        prob = random_lp(rng)
        a, b = solve_lp(prob), solve_lp(prob)
        assert a.status == b.status
        assert a.iterations == b.iterations
        if a.status == "optimal":
            assert np.array_equal(a.variable_values, b.variable_values)
            assert a.objective_value == b.objective_value


def _scaled(prob, rhs_factor=1.0, obj_factor=1.0):
    return lp_problem(
        prob.objective_sense,
        obj_factor * prob.objective,
        [(a, rel, rhs_factor * rhs) for a, rel, rhs in prob.constraints],
    )


@pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
def test_rhs_and_objective_scaling(factor):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        prob = random_lp(rng)
        base = solve_lp(prob)
        if base.status != "optimal":
            continue
        by_rhs = solve_lp(_scaled(prob, rhs_factor=factor))
        by_obj = solve_lp(_scaled(prob, obj_factor=factor))
        assert by_rhs.status == by_obj.status == "optimal"
        assert by_rhs.objective_value == pytest.approx(factor * base.objective_value, abs=1e-7 * factor)
        assert by_obj.objective_value == pytest.approx(factor * base.objective_value, abs=1e-7 * factor)
        checked += 1


def _assert_primal_feasible(prob, sol, tol=1e-7):
    x = sol.variable_values
    assert np.all(x >= -tol)
    for a, rel, rhs in prob.constraints:
        v = float(a @ x)
        scale = 1.0 + abs(rhs)
        if rel == "<=":
            assert v <= rhs + tol * scale
        elif rel == ">=":
            assert v >= rhs - tol * scale
        else:
            assert v == pytest.approx(rhs, abs=tol * scale)


def _feasible_vertices(prob):
    rows = _as_rows(prob.constraints, prob.n_variables, None)
    return np.vstack(list(_vertices(*rows)))


def _with_row(prob, row):
    return lp_problem(prob.objective_sense, prob.objective, [*prob.constraints, row])


def test_small_random_suite_matches_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(60):
        prob = random_lp(rng)
        got = solve_lp(prob)
        want_status, want_val, want_x = enumerate_solve(
            prob.objective_sense, prob.objective, prob.constraints
        )
        assert got.status == want_status
        assert got.started == "cold"
        if want_status != "optimal":
            continue
        assert got.objective_value == pytest.approx(want_val, abs=1e-6)
        _assert_primal_feasible(prob, got)
        # a crash from the optimal vertex
        crash = solve_lp(prob, start=crash_start(prob, want_x))
        assert crash.started == "crash"
        # a warm start after a row the optimum satisfies, loose or tight
        a = rng.integers(-5, 6, size=prob.n_variables).astype(float)
        rel = rng.choice(["<=", ">="])
        rhs = float(a @ got.variable_values) + (1.0 if rel == "<=" else -1.0) * rng.integers(2)
        extended = _with_row(prob, (a, rel, rhs))
        warm = solve_lp(extended, start=got)
        assert warm.started == "warm"
        # an infeasible point and the centroid of every vertex, which is a
        # vertex only when the feasible set has one, give no crash start
        outside = want_x - 1.0
        centroid = _feasible_vertices(prob).mean(axis=0)
        fall_backs = [solve_lp(prob, start=crash_start(prob, outside))]
        if len(np.unique(_feasible_vertices(prob).round(9), axis=0)) > 1:
            fall_backs.append(solve_lp(prob, start=crash_start(prob, centroid)))
        assert [s.started for s in fall_backs] == ["cold"] * len(fall_backs)
        for sol, p in [(crash, prob), (warm, extended), *((s, prob) for s in fall_backs)]:
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(want_val, abs=1e-6)
            _assert_primal_feasible(p, sol)


def test_rows_written_the_other_way_round_keep_their_meaning():
    """Negating rows (a → -a, b → -b, "<=" ↔ ">=") changes nothing but their duals' signs.

    Cold and crash-started from the optimum, the two programs pivot alike,
    bit for bit.  Only rows with a nonzero rhs are negated: phase one gives
    a zero-rhs ">=" or "=" row an artificial, and a "<=" row none.
    """
    rng = np.random.default_rng(14)
    mirrored = {"<=": ">=", ">=": "<=", "=": "="}
    solves = negated = 0
    for _ in range(1000):
        prob = random_lp(rng)
        negate = (rng.random(prob.n_constraints) < 0.5) & (prob.b != 0.0)
        negated += negate.any()
        twin = lp_problem(prob.objective_sense, prob.objective,
                         [(-a, mirrored[rel], -rhs) if neg else (a, rel, rhs)
                          for (a, rel, rhs), neg in zip(prob.constraints, negate)])
        sol = solve_lp(prob)
        pairs = [(sol, solve_lp(twin))]
        if sol.status == "optimal":
            x = sol.variable_values
            pairs.append((solve_lp(prob, start=crash_start(prob, x)),
                          solve_lp(twin, start=crash_start(twin, x))))
        for a, b in pairs:
            assert (a.status, repr(a.objective_value), a.iterations, a.started, a._basis) == \
                (b.status, repr(b.objective_value), b.iterations, b.started, b._basis)
            assert a.variable_values.tobytes() == b.variable_values.tobytes()
            assert a.reduced_costs.tobytes() == b.reduced_costs.tobytes()
            assert np.array_equal(np.where(negate, -a.dual_values, a.dual_values), b.dual_values)
            solves += 1
    assert negated > 500 and solves > 1000


def test_failed_basis_start_solves_cold():
    """A basis start that is singular, infeasible or out of range runs both phases."""
    prob = lp_problem("maximize", [1.0, 1.0],
                     [([1.0, 1.0], "<=", 4.0), ([1.0, -1.0], ">=", -2.0), ([1.0, 0.0], "<=", 3.0)])
    cold = solve_lp(prob)
    # columns 0, 1 are x; 2, 3, 4 the slacks of the three rows
    starts = {
        "singular": [0, 0, 4],
        "infeasible": [0, 3, 4],  # the first variable at 4 breaks the third row
        "short": [0, 1],
        "out of range": [0, 1, 5],
        "negative": [-1, 0, 1],
    }
    assert lp._Simplex(prob)._factor([0, 3, 4], range(3), prob.standard_form.S)[1].min() < 0
    for name, basis in starts.items():
        sol = solve_lp(prob, start=np.array(basis))
        assert sol.started == "cold", name
        assert_same_solution(sol, cold)
    good = solve_lp(prob, start=np.array([0, 1, 4]))
    assert good.started == "crash" and good.objective_value == cold.objective_value == 4.0


def test_row_tolerance_scales_with_the_rhs_size_in_either_sign():
    """A start 1e-5 short of x >= 1000 lies within 1e-7 × (|a||x| + |b|) of the row."""
    for row in (([1.0], ">=", 1000.0), ([-1.0], "<=", -1000.0)):
        prob = lp_problem("minimize", [1.0], [row])
        sol = solve_lp(prob, start=crash_start(prob, [1000.0 - 1e-5]))
        assert (sol.started, sol.objective_value) == ("crash", 1000.0)


def test_singular_basis_at_optimum_raises_solver_error(monkeypatch):
    """A final basis that cannot be factored is a solver failure, not a LinAlgError."""
    iterate = lp._Simplex._iterate

    def repeated_column(self, S, cost, basis, row_keep, inverse, *candidates):
        # phase two (the only call: every row is "<=") ends on a basis with
        # one column twice, whose factorisation must fail
        status = iterate(self, S, cost, basis, row_keep, inverse, *candidates)
        basis[:] = np.r_[basis[:1], basis[:-1]]
        return status

    monkeypatch.setattr(lp._Simplex, "_iterate", repeated_column)
    prob = lp_problem("maximize", [1.0, 1.0],
                     [([1.0, 0.0], "<=", 2.0), ([0.0, 1.0], "<=", 3.0)])
    with pytest.raises(SolverError, match="singular basis at the optimum"):
        solve_lp(prob)


def test_bland_rule_ends_beale_cycle():
    """Beale's example cycles under Dantzig's rule; Bland's rule must finish it."""
    prob = lp_problem("minimize", [-0.75, 20.0, -0.5, 6.0], [
        ([0.25, -8.0, -1.0, 9.0], "<=", 0.0),
        ([0.5, -12.0, -0.5, 3.0], "<=", 0.0),
        ([0.0, 0.0, 1.0, 0.0], "<=", 1.0),
    ])
    sol = solve_lp(prob)
    want_status, want_val, want_x = enumerate_solve(
        prob.objective_sense, prob.objective, prob.constraints)
    assert sol.status == want_status == "optimal"
    assert want_val == pytest.approx(-1.25, abs=1e-12)
    assert sol.objective_value == pytest.approx(want_val, abs=1e-9)
    assert sol.variable_values == pytest.approx(want_x, abs=1e-9)
    assert want_x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
    # phase two alone (every row is "<=" with rhs 0 or 1): Bland's rule
    # takes over after 3·(rows+columns) pivots, 3 rows and 4 + 3 columns
    assert sol.started == "cold"
    assert sol.iterations > 3 * (3 + 7)


def test_crash_start_without_rows():
    prob = lp_problem("minimize", [1.0, 2.0], [])
    start = crash_start(prob, [0.0, 0.0])
    assert start.dtype.kind == "i" and start.size == 0
    sol = solve_lp(prob, start=start)
    assert (sol.status, sol.started, sol.objective_value) == ("optimal", "crash", 0.0)
    assert sol.variable_values.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("start", [[0.0, 0.0], np.zeros(2), [0, 1]], ids=["list", "float", "ints"])
def test_point_start_is_rejected(start):
    """A start is a basis as an integer array, or an optimum; a point, or a list, is neither."""
    prob = lp_problem("minimize", [1.0, 2.0], [([1.0, 1.0], "<=", 1.0)])
    with pytest.raises(ValidationError, match="integer array of basis columns or an LpSolution"):
        solve_lp(prob, start=start)


def _appended(rng, prob, sol):
    """``prob`` with a row appended that its optimum ``sol`` satisfies, loose or tight."""
    a = rng.integers(-5, 6, size=prob.n_variables).astype(float)
    rel = rng.choice(["<=", ">="])
    rhs = float(a @ sol.variable_values) + (1.0 if rel == "<=" else -1.0) * rng.integers(2)
    return _with_row(prob, (a, rel, rhs))


def test_a_basis_starts_as_the_solution_it_came_from():
    """A warm start from an optimum's bare ``lp.Basis`` is the start from its ``LpSolution``,
    bit for bit, iterations and ``started`` included, on its own program and on one with
    a row appended."""
    rng = np.random.default_rng(61)
    warm = 0
    for _ in range(400):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status != "optimal":
            continue
        basis = lp.Basis(*sol._basis, prob.n_variables)
        for problem in (prob, _appended(rng, prob, sol)):
            got = solve_lp(problem, start=basis)
            assert_same_solution(got, solve_lp(problem, start=sol))
            warm += got.started == "warm"
    assert warm > 100


def test_a_basis_of_another_program_solves_cold():
    """A basis from a program with other variables, or with more rows, falls back to a cold
    solve, as a start from the ``LpSolution`` it came from does."""
    rows = [([1.0, 1.0], "<=", 4.0), ([1.0, -1.0], ">=", -2.0), ([1.0, 0.0], "<=", 3.0)]
    prob = lp_problem("maximize", [1.0, 1.0], rows)
    sol = solve_lp(prob)
    wider = lp_problem("maximize", [1.0, 1.0, 0.0],
                       [(np.append(a, 1.0), rel, rhs) for a, rel, rhs in rows])
    longer = solve_lp(_with_row(prob, ([0.0, 1.0], "<=", 5.0)), start=sol)
    assert longer.started == "warm"
    for problem, start in ((wider, sol), (prob, longer)):
        cold = solve_lp(problem)
        for given in (start, lp.Basis(*start._basis, start.variable_values.size)):
            got = solve_lp(problem, start=given)
            assert got.started == "cold"
            assert_same_solution(got, cold)


def test_an_unknown_start_names_every_accepted_form():
    prob = lp_problem("minimize", [1.0, 2.0], [([1.0, 1.0], "<=", 1.0)])
    with pytest.raises(ValidationError) as raised:
        solve_lp(prob, start=((0,), (0,), 1, 2))
    message = str(raised.value)
    assert message.endswith("got tuple")
    for form in ("integer array of basis columns", "LpSolution", "Basis"):
        assert form in message


def test_concurrent_solves_are_safe():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(47)
    probs = [random_lp(rng) for _ in range(12)]
    expected = [solve_lp(p) for p in probs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(solve_lp, probs * 3))
    for k, got in enumerate(results):
        want = expected[k % len(probs)]
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective_value == want.objective_value
            assert np.array_equal(got.variable_values, want.variable_values)


def _assert_complementary(prob, sol):
    """Dual signs, complementary slackness and stationarity of an optimum."""
    x = sol.variable_values
    scale = 1.0 + abs(sol.objective_value)
    sign = 1.0 if prob.objective_sense == "maximize" else -1.0
    for (a, rel, rhs), y in zip(prob.constraints, sol.dual_values):
        slack = rhs - float(a @ x)
        assert abs(y * slack) <= 1e-6 * scale
        if rel == "<=":
            assert sign * y >= -1e-7 * scale
        elif rel == ">=":
            assert sign * y <= 1e-7 * scale
    # stationarity and variable-side slackness
    assert np.all(np.abs(sol.reduced_costs * x) <= 1e-6 * scale)
    assert np.all(sign * sol.reduced_costs <= 1e-7 * scale)


def test_complementary_slackness_and_dual_signs():
    rng = np.random.default_rng(313)
    checked = 0
    while checked < 40:
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status != "optimal":
            continue
        _assert_complementary(prob, sol)
        checked += 1


def test_klee_minty_cube_refactors_on_the_way(monkeypatch):
    """The 8-dimensional Klee-Minty cube takes 135 pivots from the origin:
    Dantzig's rule for the first 3·(8 rows + 16 columns) = 72, then Bland's
    rule, which finishes the solve.  The basis is factored afresh every
    ``REFACTOR_EVERY`` pivots on the way."""
    factor = lp._Simplex._factor
    factored = []

    def counted(self, *args):
        factored.append(1)
        return factor(self, *args)

    monkeypatch.setattr(lp._Simplex, "_factor", counted)
    n = 8
    rows = []
    for i in range(n):
        a = np.zeros(n)
        a[:i] = [2.0 ** (i - j + 1) for j in range(i)]
        a[i] = 1.0
        rows.append((a, "<=", 5.0 ** (i + 1)))
    prob = lp_problem("maximize", [2.0 ** (n - 1 - j) for j in range(n)], rows)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.started == "cold"
    # phase two alone, every row being "<=" with a positive rhs
    assert sol.iterations > 3 * (n + 2 * n)
    assert sol.iterations > lp.REFACTOR_EVERY
    # one factorisation between the phases, one at the optimum
    assert len(factored) - 2 == sol.iterations // lp.REFACTOR_EVERY
    assert sol.objective_value == pytest.approx(5.0 ** n, rel=1e-12)
    assert sol.variable_values == pytest.approx([0.0] * (n - 1) + [5.0 ** n], abs=1e-6)
    _assert_primal_feasible(prob, sol)
    _assert_complementary(prob, sol)


def product_form(column, etas):
    """A tableau column formed in product form (Dantzig and Orchard-Hays).

    ``column`` is the refactored inverse's product with the column; each
    pivot's row operation ``(row, pivot, factors)`` since then is applied in
    turn, in Python floats, one entry at a time.
    """
    x = column.tolist()
    for row, piv, factors in etas:
        s = x[row] / piv
        x = [v - f * s for v, f in zip(x, factors)]
        x[row] = s
    return np.array(x)


def eta(row, col):
    """The row operation of a pivot on ``col[row]``, as ``product_form`` applies it."""
    factors = col.tolist()
    factors[row] = 0.0
    return row, float(col[row]), factors


def test_phase_one_tableau_columns_round_as_the_product_form():
    """The phase-one tableau's columns, updated by each pivot's row operation
    on the whole tableau, equal bit for bit the same columns formed in
    product form, on data spread over eight orders of magnitude."""
    rng = np.random.default_rng(7)
    m, n = 6, 15
    S = rng.normal(size=(m, n)) * 10.0 ** rng.integers(0, 8, size=(m, n))
    tableau = lp._Tableau(S, np.eye(m), np.zeros(m))
    etas = []
    for row, q in [(0, 3), (2, 7), (0, 11), (4, 3), (1, 14), (5, 0)]:
        col = tableau.column(S, q)
        assert np.array_equal(col, product_form(S[:, q], etas))
        tableau.pivot(row, col)
        etas.append(eta(row, col))
        assert np.array_equal(tableau.column(S, q), np.eye(m)[row])
        for j in range(n):
            assert np.array_equal(tableau.column(S, j), product_form(S[:, j], etas))


def test_long_phase_one_columns_round_as_the_product_form(monkeypatch):
    """A phase one of more than ``REFACTOR_EVERY`` pivots, on rows spread over
    eight orders of magnitude, reads every column off its tableau as the
    product form forms it from the last factored inverse.  After a refactor
    that form starts, as the tableau does, from the inverse's product with
    all of phase one's columns at once: the inverse times one column alone
    rounds differently (most columns differ in the last bit with OpenBLAS)."""
    checked, restarts = [], 0

    class Replayed(lp._Tableau):
        def restart(self, inverse, rhs):
            nonlocal restarts
            super().restart(inverse, rhs)
            self.base, self.etas = inverse @ self.S, []
            restarts += 1

        def column(self, A, q):
            col = super().column(A, q)
            assert np.array_equal(col, product_form(self.base[:, q], self.etas))
            checked.append(q)
            return col

        def pivot(self, row, col):
            super().pivot(row, col)
            self.etas.append(eta(row, col))

    monkeypatch.setattr(lp, "_Tableau", Replayed)
    rng = np.random.default_rng(1)
    m, n = 50, 100
    A = rng.uniform(0.1, 1.0, size=(m, n)) * 10.0 ** rng.integers(0, 8, size=(m, n))
    b = A @ (rng.uniform(size=n) * (rng.uniform(size=n) < 0.5))
    prob = lp_problem("minimize", rng.uniform(1.0, 2.0, size=n),
                      [(A[i], "=" if i % 2 else ">=", b[i]) for i in range(m)])
    sol = solve_lp(prob)
    assert sol.status == "optimal" and sol.started == "cold"
    assert len(checked) > lp.REFACTOR_EVERY
    assert restarts >= 2  # at the start, then at the refactor
    _assert_primal_feasible(prob, sol)
    _assert_complementary(prob, sol)


# equality rows that phase one must drop: its artificial stays basic at
# level zero with no structural column left to pivot on
REDUNDANT = {
    "duplicated_equality": lp_problem("maximize", [1.0, 2.0, 1.0], [
        ([1.0, 1.0, 1.0], "=", 4.0),
        ([1.0, 1.0, 1.0], "=", 4.0),
        ([0.0, 1.0, -1.0], "<=", 1.0),
        ([1.0, 0.0, 2.0], ">=", 1.0),
    ]),
    "equality_sum_of_two_others": lp_problem("minimize", [2.0, 1.0, 3.0], [
        ([1.0, 1.0, 0.0], "=", 3.0),
        ([0.0, 1.0, 1.0], "=", 2.0),
        ([1.0, 2.0, 1.0], "=", 5.0),
        ([1.0, 0.0, 0.0], "<=", 2.5),
    ]),
}


@pytest.mark.parametrize("name", sorted(REDUNDANT))
def test_phase_one_drops_a_redundant_equality_row(name):
    prob = REDUNDANT[name]
    sol = solve_lp(prob)
    want_status, want_val, _ = enumerate_solve(
        prob.objective_sense, prob.objective, prob.constraints)
    assert sol.status == want_status == "optimal"
    assert sol.started == "cold"
    assert sol.objective_value == pytest.approx(want_val, abs=1e-9)
    _assert_primal_feasible(prob, sol)
    _assert_complementary(prob, sol)
    _, row_keep, rows = sol._basis
    assert rows == prob.n_constraints and len(row_keep) == rows - 1
    # a warm start resumes from the kept rows plus the appended rows' slacks;
    # the first appended row is loose at the optimum, the second tight
    x = sol.variable_values
    extended = lp_problem(prob.objective_sense, prob.objective, [
        *prob.constraints,
        ([1.0, 0.0, 0.0], "<=", x[0] + 1.0),
        ([0.0, 0.0, 1.0], ">=", x[2]),
    ])
    warm = solve_lp(extended, start=sol)
    assert warm.started == "warm"
    assert warm._basis[1] == (*row_keep, rows, rows + 1)
    want_status, want_val, _ = enumerate_solve(
        extended.objective_sense, extended.objective, extended.constraints)
    assert warm.status == want_status == "optimal"
    assert warm.objective_value == pytest.approx(want_val, abs=1e-9)
    _assert_primal_feasible(extended, warm)
    _assert_complementary(extended, warm)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hypothesis_agrees_with_enumeration(data):
    n = data.draw(st.integers(1, 3), label="n")
    m = data.draw(st.integers(1, 3), label="m")
    ints = st.integers(-4, 4)
    c = data.draw(st.lists(ints, min_size=n, max_size=n), label="c")
    rows = []
    for _ in range(m):
        coeffs = data.draw(st.lists(ints, min_size=n, max_size=n))
        rel = data.draw(st.sampled_from(["<=", ">=", "="]))
        rhs = data.draw(ints)
        rows.append((np.array(coeffs, dtype=float), rel, float(rhs)))
    sense = data.draw(st.sampled_from(["maximize", "minimize"]))
    prob = lp_problem(sense, np.array(c, dtype=float), rows)
    got = solve_lp(prob)
    want_status, want_val, _ = enumerate_solve(sense, prob.objective, prob.constraints)
    assert got.status == want_status
    if want_status == "optimal":
        assert got.objective_value == pytest.approx(want_val, abs=1e-6)


# ratios a ratio test meets: exact ties, ties within and just past PIVOT_TOL, zeros
# of both signs, tiny and huge values, entries at and below the pivot tolerance
_RATIO_PARTS = st.sampled_from([0.0, -0.0, 1e-17, -1e-17, 1e-9, 2e-9, 0.5e-9, 1.0, 1.0 + 1e-9,
                                1.0 + 2e-9, 1.0 + 0.9e-9, 1e8, 1e8 + 1e-9, 3.0, 1e200, math.nan])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_lockstep_ratio_test_is_the_scan(data):
    """For every unit, the lockstep ratio test picks the scan's row (``lp._leaving``)."""
    k = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 8))
    rhs = np.array(data.draw(st.lists(_RATIO_PARTS, min_size=k * m, max_size=k * m))).reshape(k, m)
    col = np.array(data.draw(st.lists(st.sampled_from([2.0, 1.0, 0.5, 1e-9, 2e-9, 0.0, -1.0, 3.0]),
                                      min_size=k * m, max_size=k * m))).reshape(k, m)
    basis = np.array([data.draw(st.permutations(range(3 * m)))[:m] for _ in range(k)])
    programs = lp.Lockstep(np.zeros((m, 3 * m)), np.zeros(m), np.full(m, -1),
                           np.zeros((m, 1)), ((), ()), np.zeros((k, 0)), np.zeros((k, m)))
    got = _lockstep._Lockstep(lp.MINIMIZE, np.zeros(1), programs)._leaving(col, rhs, basis)
    assert got.tolist() == [lp._leaving(col[i], rhs[i], basis[i]) for i in range(k)]


def _scalar_entering(red, cost, c_B, explicit, A, bland=False):
    """The scalar loop's choice of the entering column, as the reference: the lowest reduced
    cost, or with ``bland`` the first below ``-PIVOT_TOL``, if its own price improves too."""
    red = red.copy()
    while True:
        below = np.flatnonzero(red < -lp.PIVOT_TOL)
        entering = int(below[0] if bland and below.size else red.argmin())
        if red[entering] >= -lp.PIVOT_TOL or bland and not below.size:
            return -1, None
        col = explicit @ A[:, entering]
        if cost[entering] - c_B @ col < -lp.PIVOT_TOL:
            return entering, col
        red[entering] = 0.0


def _lone(c_B, inverse):
    """A lone unit's arrays, as ``lp._entering`` hands them to ``lp._chosen``."""
    return [None, None, inverse, c_B]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_lockstep_entering_column_is_the_scalar_loops(data):
    """Reduced costs that the entering column's own price contradicts send ``lp._chosen`` on
    to the next lowest, unit by unit in a stack with heads as for a lone unit, as the scalar
    loop goes; a lone unit under Bland's rule goes on to the next below ``-PIVOT_TOL``."""
    k, m, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4)), 8
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    S = rng.integers(-3, 4, (m, cols)).astype(float)
    heads = rng.integers(-3, 4, (k, m, 2)).astype(float)
    both = rng.integers(-2, 3, (k, m, m + 1)).astype(float)
    c_B = rng.integers(-2, 3, (k, m)).astype(float)
    cost = rng.integers(-3, 4, cols).astype(float)
    red = rng.choice([-2.0, -1.0, -1e-10, 0.0, 1.0], (k, cols))
    every = np.indices((m, 2)).reshape(2, -1)  # each unit's heads are its own entries
    programs = lp.Lockstep(S, np.zeros(m), np.full(m, -1), np.zeros((m, 2)), tuple(every),
                           heads.reshape(k, -1), np.zeros((k, m)))
    step = _lockstep._Lockstep(lp.MINIMIZE, cost, programs)
    units = [np.arange(k), None, both[:, :, :m], c_B[:, None, :]]  # unit k's heads: heads[k]
    entering, col = lp._chosen(red.copy(), units, step)
    for i in range(k):
        A = S.copy()
        A[:, :2] = heads[i]
        for bland in (False, True):
            want, want_col = _scalar_entering(red[i], cost, c_B[i], both[i, :, :m], A, bland)
            alone = lp._chosen(red[i].copy(), _lone(c_B[i], both[i, :, :m]), lp._Columns(A, cost),
                               None, bland)
            assert alone[0] == want
            if want >= 0:
                assert alone[1].tobytes() == want_col.tobytes()
            if not bland:
                assert entering[i] == want
                if want >= 0:
                    assert col[i].tobytes() == want_col.tobytes()


def test_bland_skips_priced_noise_ahead_of_the_first_improving_column():
    """Under Bland's rule the first reduced cost below ``-PIVOT_TOL`` enters, not the lowest,
    and one whose own price does not improve (priced noise) is set to 0 and passed over."""
    A = np.eye(2)[:, [0, 1, 0, 1, 0]]  # the tableau's columns, with B = I
    cost = np.array([0.0, 1.0, 0.0, -0.5, -3.0])  # column 1's own price, 1 - 0, does not improve
    red = np.array([0.5, -1.0, 0.0, -0.5, -3.0])
    units = _lone(np.zeros(2), np.eye(2))
    got = red.copy()
    entering, col = lp._chosen(got, units, lp._Columns(A, cost), None, bland=True)
    assert (int(entering), col.tolist()) == (3, [0.0, 1.0])
    assert got[1] == 0.0 and got[4] == -3.0
    assert int(lp._chosen(red.copy(), units, lp._Columns(A, cost))[0]) == 4  # Dantzig's
    assert _scalar_entering(red, cost, np.zeros(2), np.eye(2), A, bland=True)[0] == 3


def test_candidate_reduced_costs_are_the_same_alone_and_in_a_stack():
    """``lp._priced`` gives each unit alone, over its own columns, the reduced costs it gets
    in a stack with heads, byte for byte, over the candidates and over every column; a
    basic column's is 0, the basic candidates' among them and heads' too."""
    k, m, cols, w = 5, 6, 40, 4
    rng = np.random.default_rng(17)
    S = rng.integers(-3, 4, (m, cols)).astype(float)
    heads = rng.integers(-3, 4, (k, m, w)).astype(float)
    inverse = rng.integers(-2, 3, (k, m, m)).astype(float)
    c_B = rng.integers(-2, 3, (k, m)).astype(float)
    cost = rng.integers(-3, 4, cols).astype(float)
    candidates = np.concatenate((np.arange(w), np.sort(rng.choice(np.arange(w, cols), 9, False))))
    # each basis holds a head and another candidate, and four columns that are not candidates
    others = np.setdiff1d(np.arange(cols), candidates)
    basis = np.array([rng.permutation(np.concatenate((rng.choice(w, 1), rng.choice(
        candidates[w:], 1), rng.choice(others, m - 2, False)))) for _ in range(k)])
    every = np.indices((m, w)).reshape(2, -1)  # each unit's heads are its own entries
    programs = lp.Lockstep(S, np.zeros(m), np.full(m, -1), np.zeros((m, w)), tuple(every),
                           heads.reshape(k, -1), np.zeros((k, m)), candidates)
    step = _lockstep._Lockstep(lp.MINIMIZE, cost, programs)
    units = [np.arange(k), basis, inverse, c_B[:, None, :]]
    red, front = step.room(k)
    for chosen, room in ((candidates, front), (None, red)):
        stacked = lp._priced(room, units, step, chosen)
        for i in range(k):
            A = S.copy()
            A[:, :w] = heads[i]
            lone = [None, basis[i], inverse[i], c_B[i], c_B[i] @ inverse[i]]
            alone = lp._priced(None, lone, lp._Columns(A, cost, candidates), chosen)
            assert alone.tobytes() == stacked[i].tobytes()
            basic = basis[i] if chosen is None else np.flatnonzero(np.isin(candidates, basis[i]))
            assert basic.size == (m if chosen is None else 2) and (alone[basic] == 0.0).all()


def test_a_pivot_is_the_same_alone_and_in_a_stack():
    """``lp._pivot`` gives each unit alone the bytes of ``[B⁻¹ | B⁻¹b]`` and of the zeroed
    column it gets in a stack of 3 formed 2 units at a time, and the row operation's
    written out; pivot rows holding -0.0 and entries below ``PIVOT_TOL`` included."""
    rng = np.random.default_rng(23)
    k, m = 3, 5
    both = rng.normal(size=(k, m, m + 1)) * 10.0 ** rng.integers(-3, 4, (k, m, m + 1))
    col = rng.normal(size=(k, m)) * 10.0 ** rng.integers(-3, 4, (k, m))
    leaving = np.array([0, 2, 4])
    both[0, 0, [1, 3, 5]] = -0.0, 0.0, -0.0
    both[1, 2, [0, 4]] = 0.5 * lp.PIVOT_TOL, -0.2 * lp.PIVOT_TOL
    both[2, 4, 2] = -0.0
    col[1, 3], col[2, 1] = -0.0, 0.1 * lp.PIVOT_TOL
    stacked_both, stacked_col = both.copy(), col.copy()
    lp._pivot(stacked_both, leaving, stacked_col, 2)
    for i, row in enumerate(leaving.tolist()):
        alone_both, alone_col = both[i].copy(), col[i].copy()
        lp._pivot(alone_both, row, alone_col)
        assert alone_both.tobytes() == stacked_both[i].tobytes()
        assert alone_col.tobytes() == stacked_col[i].tobytes()
        factors = col[i].copy()
        factors[row] = 0.0
        want = both[i].copy()
        want[row] /= col[i, row]
        want -= factors[:, None] * want[row]
        assert alone_both.tobytes() == want.tobytes() and alone_col.tobytes() == factors.tobytes()


# -- the hold check (lp._holding) ---------------------------------------------

_SIGNS = np.array([1.0, -1.0, 0.0])  # "<=", ">=", "="


def _missed(rel, f, b=1000.0):
    """A basic value on the row ``x rel b`` that misses it by ``f`` times the row's tolerance,
    ``FEASIBILITY_TOL · (|x| + |b|)`` (for ``f`` < 0, that meets it with room to spare)."""
    if rel == ">=":  # below b, so the row's scale shrinks by the miss
        return b - f * lp.FEASIBILITY_TOL * 2 * b / (1 + f * lp.FEASIBILITY_TOL)
    return b + f * lp.FEASIBILITY_TOL * 2 * b / (1 - f * lp.FEASIBILITY_TOL)


def _hold_cases():
    """``(label, block, rhs, b, structural, verdict)`` for points of three structural
    columns on the rows ``x_i rel 1000``, one row missed or one basic value negative."""
    cases = []
    for i, rel in enumerate(["<=", ">=", "="]):
        for f, verdict in [(0.5, True), (1.5, False), (-10.0, rel != "=")]:
            rhs = np.full(3, 1000.0)
            rhs[i] = _missed(rel, f)
            cases.append((f"{rel} by {f}", np.eye(3), rhs, np.full(3, 1000.0),
                          np.ones(3, bool), verdict))
    for value, verdict in [(-lp.FEASIBILITY_TOL, True),
                           (np.nextafter(-lp.FEASIBILITY_TOL, -1.0), False)]:
        rhs, b = np.full(3, 1000.0), np.full(3, 1000.0)
        rhs[2] = b[2] = value  # the "=" row is met exactly
        cases.append((f"basic value {value!r}", np.eye(3), rhs, b, np.ones(3, bool), verdict))
    # a slack's basic value counts among the basic values, not among the point's values
    cases.append(("negative slack", np.eye(3), np.array([1000.0, 1000.0, -1e-6]),
                  np.array([1000.0, 1000.0, 0.0]), np.array([True, True, False]), False))
    return cases


def _holds_alone(block, rhs, b, structural):
    return bool(lp._holding(block[None], rhs[None], b[None], structural[None], _SIGNS)[0])


@pytest.mark.parametrize("label,block,rhs,b,structural,verdict", _hold_cases(),
                         ids=[c[0] for c in _hold_cases()])
def test_holding_tolerance_boundary(label, block, rhs, b, structural, verdict):
    """A row missed by half its tolerance holds and by one and a half does not, in each
    relation; a basic value at -FEASIBILITY_TOL holds and one just below it does not."""
    assert _holds_alone(block, rhs, b, structural) is verdict


def test_holding_checks_every_row_when_the_basis_keeps_fewer():
    """With a row dropped from the basis (two columns on three rows), the dropped row is
    still checked against the point."""
    block = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rhs = np.array([400.0, 600.0])
    for f, verdict in [(0.5, True), (1.5, False)]:
        b = np.array([400.0, 600.0, 1000.0])
        # the "=" row x_0 + x_1 = b_2 reads 1000, b_2 off by f times its tolerance
        b[2] = 1000.0 - f * lp.FEASIBILITY_TOL * 2000.0 / (1 + f * lp.FEASIBILITY_TOL)
        assert _holds_alone(block, rhs, b, np.ones(2, bool)) is verdict


def test_holding_verdict_is_the_same_in_any_stack():
    """Each point's verdict in a stack is its verdict alone, however the stack is ordered
    or laid out in memory; points near their rows' tolerances included."""
    rng = np.random.default_rng(7)
    k, m = 300, 3
    block = rng.normal(size=(k, m, m)) * 10.0 ** rng.integers(-3, 4, (k, 1, m))
    rhs = np.abs(rng.normal(size=(k, m))) * 10.0 ** rng.integers(-2, 5, (k, m))
    structural = rng.random((k, m)) < 0.8
    xs = np.where(structural, rhs, 0.0)
    scale = (np.abs(block) @ np.abs(xs)[:, :, None])[:, :, 0]
    # right sides that the rows miss by their tolerances, give or take a few roundings, either
    # way, so a sum taken in another order would tell some verdicts otherwise
    off = lp.FEASIBILITY_TOL * np.maximum(1.0, 2 * scale) * rng.uniform(1 - 1e-9, 1 + 1e-9, (k, m))
    b = (block @ xs[:, :, None])[:, :, 0] + off * rng.choice([-1.0, 1.0], (k, m))
    alone = [_holds_alone(block[j], rhs[j], b[j], structural[j]) for j in range(k)]
    assert 0 < sum(alone) < k
    for order in (np.arange(k), rng.permutation(k)):
        stacked = lp._holding(block[order], rhs[order], b[order], structural[order], _SIGNS)
        assert stacked.tolist() == [alone[j] for j in order]
    # the lockstep hands its blocks over as transposed views
    transposed = np.ascontiguousarray(block.transpose(0, 2, 1)).transpose(0, 2, 1)
    assert lp._holding(transposed, rhs, b, structural, _SIGNS).tolist() == alone
    for j, case in enumerate(_hold_cases()):
        _, cb, crhs, cb_, cs, verdict = case
        got = lp._holding(np.stack([cb, block[j]]), np.stack([crhs, rhs[j]]),
                          np.stack([cb_, b[j]]), np.stack([cs, structural[j]]), _SIGNS)
        assert got.tolist() == [verdict, alone[j]]


def test_a_basis_factors_alike_alone_in_any_stack_and_in_a_lone_solve():
    """``lp._factor`` gives each basis the same inverse and basic values, bit for bit,
    factored alone or in any stack, one holding a singular basis (which factors the stack a
    basis at a time) included, and a lone solve's ``_Simplex._factor`` gives the same bits.
    So a started optimum refactored from the basis it started on, on either path, stands on
    its start's very factors."""
    dataset, topology = log_spread()
    prog = network._program(dataset, topology, network.SYSTEM_RADIAL, network._system_program)
    owns = list(range(dataset.n_dmus))
    none = np.zeros((len(owns), 0))
    system = lp.solve_lockstep("maximize", prog.objective(network.SYSTEM_GAP),
                               prog.lockstep(owns, none), prog.crash_bases(owns))
    live = [k for k, o in enumerate(system) if o is not None]
    pinned = np.array([[system[k].objective_value] for k in live])
    # the radial system from its crash bases, and stage 1 from the system's optima
    for gap, units, pins, starts in (
            (network.SYSTEM_GAP, owns, none, prog.crash_bases(owns)),
            (network.STAGE_GAP[1], live, pinned, lp.warm_starts([system[k] for k in live]))):
        lock = _lockstep._Lockstep("maximize", prog.objective(gap), prog.lockstep(units, pins))
        unit, _, basis = lock._begun(starts)
        assert unit.size > 40

        def factored(at, singular=()):
            """The factors of the bases ``at``, those ``singular`` marks with a column zeroed."""
            block = lock._block(unit[at], basis[at])
            block[np.isin(at, singular), :, 0] = 0.0
            inverse, rhs, ok = lp._factor(block, lock.b[unit[at]])
            return [(i.tobytes(), r.tobytes(), bool(o)) for i, r, o in zip(inverse, rhs, ok)]

        alone = [factored([k])[0] for k in range(unit.size)]
        assert all(ok for _, _, ok in alone)
        order = np.random.default_rng(11).permutation(unit.size)
        assert factored(order) == [alone[k] for k in order]
        for wide in (7, lock._wide(unit.size)):
            assert sum((factored(np.arange(lo, min(lo + wide, unit.size)))
                        for lo in range(0, unit.size, wide)), []) == alone
        # one singular basis makes the stack fall back to a basis at a time
        got = factored(np.arange(unit.size), singular=[3])
        assert got[3][2] is False and factored([3], singular=[3])[0][2] is False
        assert got[:3] + got[4:] == alone[:3] + alone[4:]
        for k in range(0, unit.size, 5):
            problem = prog.unit(units[unit[k]]).problem("maximize", gap, pins[unit[k]].tolist())
            inverse, rhs = lp._Simplex(problem)._factor(basis[k], range(lock.m),
                                                        problem.standard_form.S)
            assert (inverse.tobytes(), rhs.tobytes(), True) == alone[k]


def test_a_verdict_is_the_same_alone_and_in_any_stack():
    """``lp._optimal`` gives each optimum the same bytes of x, objective value, duals, reduced
    costs and basic flags alone, as a lone solve forms them from its own columns, and in any
    stack of the lockstep's, which takes the heads per unit; basic values of -0.0 and -1e-12
    included, which x reads as 0."""
    dataset, topology = log_spread()
    prog = network._program(dataset, topology, network.SYSTEM_RADIAL, network._system_program)
    owns = list(range(dataset.n_dmus))
    c = prog.objective(network.SYSTEM_GAP)
    optima = [o for o in lp.solve_lockstep("maximize", c, prog.lockstep(owns, np.zeros((60, 0))),
                                           prog.crash_bases(owns)) if o is not None]
    batch = optima[0].batch
    unit = np.array([o.unit for o in optima])
    basis, rhs, y = batch.basis[unit], batch.rhs[unit].copy(), batch.y[unit]
    k, i = np.nonzero(basis < batch.n)
    rhs[k[::3], i[::3]] = -0.0
    rhs[k[1::3], i[1::3]] = -1e-12
    alone = []
    for j, u in enumerate(unit.tolist()):
        S = prog.unit(owns[u]).problem("maximize", network.SYSTEM_GAP, []).standard_form.S
        got = lp._optimal(lp._Columns(S, batch.cost), "maximize", batch.c, None, basis[j], rhs[j],
                          y[j])
        alone.append([a.tobytes() for a in got])
        x = got[0]
        clipped = basis[j][(basis[j] < batch.n) & (rhs[j] <= 0.0)]
        assert not np.signbit(x).any() and (x[clipped] == 0.0).all()
    for order in (np.arange(unit.size), np.random.default_rng(3).permutation(unit.size)):
        got = lp._optimal(batch, "maximize", batch.c, unit[order], basis[order], rhs[order],
                          y[order])
        assert [[a[j].tobytes() for a in got] for j in range(order.size)] == [
            alone[j] for j in order]


def _same_lockstep(prog, owns, pinned, objective, whole, each):
    """``solve_lockstep`` from ``whole`` gives the outcomes it gives from ``each``, the same
    starts one at a time, and so does ``solve_lp`` for each unit handed back."""
    sense, c = "maximize", prog.objective(objective)
    got = lp.solve_lockstep(sense, c, prog.lockstep(owns, pinned), whole)
    want = lp.solve_lockstep(sense, c, prog.lockstep(owns, pinned), each)
    assert [o is None for o in got] == [o is None for o in want]
    optima = [(a, b) for a, b in zip(got, want) if a is not None]
    assert [a[:4] for a, _ in optima] == [b[:4] for _, b in optima]
    for a, b in zip(lp.solutions([a for a, _ in optima]), lp.solutions([b for _, b in optima])):
        assert_same_solution(a, b)
    for k in [k for k, o in enumerate(got) if o is None]:
        problem = prog.unit(owns[k]).problem(sense, objective, pinned[k])
        alone = [_alone(problem, start) for start in (whole[k], each[k])]
        if isinstance(alone[0], str) or isinstance(alone[1], str):
            assert alone[0] == alone[1]
        else:
            assert_same_solution(*alone)
    return got


def _alone(problem, start):
    """``solve_lp``'s solution from ``start``, or the repr of the ``SolverError`` it raises."""
    try:
        return solve_lp(problem, start=start)
    except SolverError as exc:
        return repr(exc)


def test_whole_starts_start_as_the_same_starts_one_at_a_time():
    """A crash array and an earlier batch's stacked ``Bases`` start a lockstep batch as
    their rows and ``Basis`` items do, one at a time: the same optima, bit for bit, the
    same units handed back, and the same ``solve_lp`` solution for each of those.  A start
    out of range, of a program with other variables or more rows, or with a row dropped
    fails alike; an ``LpSolution`` among ``Basis`` starts starts as its ``Basis``."""
    dataset, topology = log_spread()
    prog = network._program(dataset, topology, network.SYSTEM_RADIAL, network._system_program)
    owns = list(range(dataset.n_dmus))
    crash = prog.crash_bases(owns)
    cols = prog.lockstep(owns[:1], np.zeros((1, 0))).S.shape[1]
    crash[3, 0] -= cols  # out of range below, though numpy would read it as the same column
    crash[7, -1] = cols
    none = np.zeros((len(owns), 0))
    system = _same_lockstep(prog, owns, none, network.SYSTEM_GAP, crash, list(crash))
    assert system[3] is None and system[7] is None
    assert 0 < sum(o is None for o in system) < len(owns) - 20

    live = [k for k, o in enumerate(system) if o is not None]
    optima = [system[k] for k in live]
    bases = lp.warm_starts(optima)
    assert isinstance(bases, lp.Bases) and len(bases) == len(live)
    pinned = np.array([[o.objective_value] for o in optima])
    each = [o.basis for o in optima]
    stage = _same_lockstep(prog, live, pinned, network.STAGE_GAP[1], bases, each)
    assert any(o is not None for o in stage) and any(o is None for o in stage)

    # one earlier optimum's solution, whose basis is its Basis, among Basis starts
    k = next(j for j, o in enumerate(stage) if o is not None)
    sol = solve_lp(prog.unit(live[k]).problem("maximize", network.SYSTEM_GAP, []),
                   start=crash[live[k]])
    assert sol._basis == (tuple(each[k].columns.tolist()), each[k].row_keep, each[k].rows)
    mixed = lp.warm_starts([*optima[:k], sol, *optima[k + 1:]])
    assert isinstance(mixed, list) and mixed[k] is sol
    again = _same_lockstep(prog, live, pinned, network.STAGE_GAP[1], bases, mixed)
    assert [o and o[:4] for o in again] == [o and o[:4] for o in stage]

    # starts that fail whole fail as each of them fails
    rows, n = bases.rows, bases.variables
    for other in (lp.Bases(bases.columns, bases.row_keep, rows, n + 1),
                  lp.Bases(bases.columns, bases.row_keep[:-1], rows, n),
                  lp.Bases(np.concatenate((bases.columns, bases.columns[:, :2]), axis=1),
                           (*bases.row_keep, rows, rows + 1), rows + 2, n)):
        failed = _same_lockstep(prog, live, pinned, network.STAGE_GAP[1], other, list(other))
        assert failed == [None] * len(live)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.booleans(), min_size=1, max_size=40))
def test_kept_rows_are_cut_in_place(keep):
    """``_kept`` keeps each marked row once, in the same order in every array, as a view of
    the array's first rows, and moves no more rows than it drops."""
    keep = np.array(keep)
    rows = np.arange(keep.size)
    arrays = [rows.copy(), np.repeat(rows[:, None, None], 6, axis=1).astype(float)]
    got = _lockstep._kept(keep, arrays)
    assert sorted(got[0].tolist()) == rows[keep].tolist()
    assert (got[1] == got[0][:, None, None]).all()
    for a, b in zip(got, arrays):
        assert a is b if keep.all() else a.base is b
    assert np.count_nonzero(got[0] != rows[:got[0].size]) <= np.count_nonzero(~keep)


# -- candidate pricing (lp.StandardForm.candidates) ---------------------------


def _with_candidates(prob, candidates):
    return lp_problem(prob.objective_sense, prob.objective, prob.constraints, candidates)


def _started_c5_problems():
    """C5's 200 problems (``tests/lp_enum.py`` against ``gen.random_lp``, seed 8132025) that
    are feasible, each with its enumerated verdict and the crash starts at up to three of
    its vertices, from which a started phase two pivots to the optimum."""
    rng = np.random.default_rng(8132025)
    out = []
    for _ in range(200):
        prob = random_lp(rng)
        status, value, x = enumerate_solve(prob.objective_sense, prob.objective,
                                           prob.constraints)
        if status == "infeasible":
            continue
        vertices = np.unique(_feasible_vertices(prob).round(9), axis=0)
        starts = [s for s in (crash_start(prob, v) for v in vertices[:3]) if s is not None]
        out.append((prob, status, value, x, starts))
    return out


_C5 = _started_c5_problems()


def test_candidate_pricing_reaches_the_enumerated_optimum():
    """With no candidate column, a random half of them or every column priced first, a
    started phase two ends at the enumerated verdict, and at its optimum to 1e-6."""
    rng = np.random.default_rng(29)
    solved = 0
    for prob, status, value, _, starts in _C5:
        cols = prob.standard_form.S.shape[1]
        for candidates in ([], np.flatnonzero(rng.random(cols) < 0.5), np.arange(cols)):
            problem = _with_candidates(prob, candidates)
            for start in starts:
                sol = solve_lp(problem, start=start)
                assert sol.status == status
                if status == "optimal":
                    assert sol.objective_value == pytest.approx(value, abs=1e-6)
                    _assert_primal_feasible(problem, sol)
                    solved += sol.started == "crash"
    assert solved > 300


def test_a_candidate_set_without_the_optimal_columns_still_certifies():
    """The candidates leave out every column of the optimal vertex (its support and the
    slacks of its loose rows), so only the full pass finds them; the optimum is the
    enumerated one and certifies: primal feasible, dual feasible, complementary."""
    entered = 0
    for prob, status, value, x, starts in _C5:
        if status != "optimal":
            continue
        form = prob.standard_form
        slack = form.b - form.S[:, :x.size] @ x
        optimal = [*np.flatnonzero(x > 1e-9),
                   *form.slack_col_of_row[(form.sign != 0.0) & (np.abs(slack) > 1e-9)]]
        problem = _with_candidates(prob, np.setdiff1d(np.arange(form.S.shape[1]), optimal))
        for start in starts:
            sol = solve_lp(problem, start=start)
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(value, abs=1e-6)
            _assert_primal_feasible(problem, sol)
            _assert_complementary(problem, sol)
            entered += sol.started == "crash" and sol.iterations > 0
    assert entered > 50


def test_every_column_as_candidates_solves_as_no_candidates():
    """Every column priced first takes the very pivots of no candidate set, bit for bit:
    on C5's problems from each start, and on compiled programs of the log-spread units,
    crash and warm started."""
    for prob, _, _, _, starts in _C5:
        full = _with_candidates(prob, np.arange(prob.standard_form.S.shape[1]))
        for start in [None, *starts]:
            assert_same_solution(solve_lp(full, start=start), solve_lp(prob, start=start))
    dataset, topology = log_spread()
    prog = network._program(dataset, topology, network.SYSTEM_RADIAL, network._system_program)
    for own in range(0, dataset.n_dmus, 7):
        pinned, starts = [], {}
        for gap in (network.SYSTEM_GAP, *network.STAGE_GAP.values()):
            problem = prog.unit(own).problem("maximize", gap, pinned)
            forms = {"all": problem.standard_form._replace(
                         candidates=np.arange(problem.standard_form.S.shape[1])),
                     "none": problem.standard_form._replace(candidates=None)}
            sols = {k: solve_lp(LpProblem("maximize", problem.objective, standard_form=f),
                                start=starts.get(k, prog.crash_bases([own])[0]))
                    for k, f in forms.items()}
            assert_same_solution(sols["all"], sols["none"])
            if sols["none"].status != "optimal":
                break
            starts = sols
            pinned.append(sols["none"].objective_value)


def test_a_started_solve_whose_candidate_optimum_fails_runs_again_over_every_column(
        monkeypatch):
    """Log-spread u26's variable system, given a candidate set as a wide program's is
    (``program.CANDIDATE_UNITS`` at 0): from its crash basis, the candidates' pivots end on
    a point that does not hold once refactored, so phase two runs again from the same start
    over every column and ends where it ends with no candidate set, its pivots added to
    the first run's."""
    monkeypatch.setattr(program, "CANDIDATE_UNITS", 0)
    dataset, topology = log_spread()
    prog = network._program(dataset, topology, network.SYSTEM_VARIABLE, network._system_program)
    own = dataset.index_of("u26")
    problem = prog.unit(own).problem("maximize", network.SYSTEM_GAP, ())
    assert problem.standard_form.candidates.size
    plain = LpProblem("maximize", problem.objective,
                      standard_form=problem.standard_form._replace(candidates=None))
    start = prog.crash_bases([own])[0]
    held = []
    holds = lp._Simplex._holds

    def recorded(self, basis, rhs):
        held.append(holds(self, basis, rhs))
        return held[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Simplex, "_holds", recorded)
        sol = solve_lp(problem, start=start)
    want = solve_lp(plain, start=start)
    assert held == [False, True]
    assert (sol.started, sol._basis) == (want.started, want._basis) == ("crash", want._basis)
    assert sol.variable_values.tobytes() == want.variable_values.tobytes()
    assert sol.iterations > want.iterations
