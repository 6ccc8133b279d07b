"""Dense two-phase primal simplex for small linear programs.

Every envelopment model in this package reduces to a program of the form

    max/min  c'x
    s.t.     a_k'x  {<=, =, >=}  b_k      k = 1..m
             x >= lower_bounds            (componentwise, default 0)

Problem sizes are tiny (a few dozen variables), so the solver keeps an
explicit dense tableau.  Phase one minimises the sum of artificial
variables; equality rows always receive an artificial rather than being
split into opposing inequalities.  Pivoting uses Dantzig's rule and falls
back to Bland's rule after a stall, which guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SolverError, ValidationError

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimplexOptions:
    """Numerical knobs; the defaults suit well-scaled envelopment data."""

    feasibility_tol: float = 1e-7
    pivot_tol: float = 1e-9
    max_iterations: int = 50_000


@dataclass(frozen=True)
class LpProblem:
    """Immutable linear program.

    ``constraints`` is a sequence of ``(coefficients, relation, rhs)``
    triples; every coefficient vector must match the objective length and
    the relation must be one of ``"<="``, ``"="``, ``">="``.  Instances
    are safe to share across threads.
    """

    objective_sense: str
    objective: np.ndarray
    constraints: tuple
    variable_lower_bounds: np.ndarray

    def __init__(
        self,
        objective_sense: str,
        objective: Sequence[float],
        constraints: Sequence,
        variable_lower_bounds: Sequence[float] | None = None,
    ):
        if objective_sense not in (MAXIMIZE, MINIMIZE):
            raise ValidationError(
                f"objective_sense must be 'maximize' or 'minimize', got {objective_sense!r}"
            )
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a nonempty coefficient vector")
        rows = []
        for k, triple in enumerate(constraints):
            try:
                coeffs, relation, rhs = triple
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"constraint {k}: expected (coefficients, relation, rhs)"
                ) from exc
            a = np.asarray(coeffs, dtype=float)
            if a.shape != c.shape:
                raise ValidationError(
                    f"constraint {k}: {a.size} coefficients, objective has {c.size} variables"
                )
            if relation not in RELATIONS:
                raise ValidationError(f"constraint {k}: unknown relation {relation!r}")
            rows.append((_readonly(a), relation, float(rhs)))
        if variable_lower_bounds is None:
            lb = np.zeros(c.size)
        else:
            lb = np.asarray(variable_lower_bounds, dtype=float)
            if lb.shape != c.shape:
                raise ValidationError("variable_lower_bounds length must match objective")
            if not np.all(np.isfinite(lb)):
                raise ValidationError("variable lower bounds must be finite")
        object.__setattr__(self, "objective_sense", objective_sense)
        object.__setattr__(self, "objective", _readonly(c))
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "variable_lower_bounds", _readonly(lb))

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class LpSolution:
    """Solver verdict.

    ``objective_value`` is NaN when infeasible and signed infinity when
    unbounded.  ``dual_values`` (one per constraint) and ``reduced_costs``
    (one per variable) come from the final basis and satisfy complementary
    slackness when the status is optimal; ``basic`` flags which structural
    variables ended up basic, which callers use to detect alternate optima.
    """

    status: str
    objective_value: float
    variable_values: np.ndarray
    iterations: int
    dual_values: np.ndarray
    reduced_costs: np.ndarray
    basic: np.ndarray


def solve_lp(problem: LpProblem, options: SimplexOptions = SimplexOptions()) -> LpSolution:
    """Solve ``problem``, classifying it as optimal, infeasible or unbounded."""
    return _Simplex(problem, options).run()


class _Simplex:
    """One solve; builds the standard form and walks the two phases."""

    def __init__(self, problem: LpProblem, options: SimplexOptions):
        self.problem = problem
        self.opts = options
        self.n = problem.n_variables
        self.m = problem.n_constraints
        self.iterations = 0
        self._build_standard_form()

    def _build_standard_form(self) -> None:
        """Shift x by its lower bounds and append slack columns.

        After the shift every variable is >= 0 and every row is stored as
        ``a'x (rel) b`` with ``b >= 0`` (rows with negative rhs are negated,
        flipping the relation).  ``self.flip`` remembers the negations so
        dual values can be reported against the original rows.
        """
        prob, n, m = self.problem, self.n, self.m
        lb = prob.variable_lower_bounds
        A = np.zeros((m, n))
        b = np.zeros(m)
        rels = []
        self.flip = np.ones(m)
        for i, (a, rel, rhs) in enumerate(prob.constraints):
            rhs_shifted = rhs - float(a @ lb)
            if rhs_shifted < 0.0:
                a = -a
                rhs_shifted = -rhs_shifted
                rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
                self.flip[i] = -1.0
            A[i] = a
            b[i] = rhs_shifted
            rels.append(rel)
        n_slack = sum(1 for r in rels if r != EQUAL)
        cols = n + n_slack
        S = np.zeros((m, cols))
        S[:, :n] = A
        j = n
        self.slack_col_of_row = np.full(m, -1, dtype=int)
        for i, rel in enumerate(rels):
            if rel == LESS_EQUAL:
                S[i, j] = 1.0
                self.slack_col_of_row[i] = j
                j += 1
            elif rel == GREATER_EQUAL:
                S[i, j] = -1.0
                self.slack_col_of_row[i] = j
                j += 1
        self.S = S
        self.b = b
        self.rels = rels
        self.cols = cols
        # internal objective is always a minimisation over the shifted vars
        cc = np.zeros(cols)
        cc[:n] = prob.objective if prob.objective_sense == MINIMIZE else -prob.objective
        self.cc = cc
        self.obj_const = float(prob.objective @ lb)

    def run(self) -> LpSolution:
        basis, row_keep = self._phase_one()
        if basis is None:
            return self._verdict(INFEASIBLE)
        status, basis = self._phase_two(basis, row_keep)
        if status == UNBOUNDED:
            return self._verdict(UNBOUNDED)
        return self._verdict(OPTIMAL, basis=basis, row_keep=row_keep)

    # -- phases --------------------------------------------------------

    def _phase_one(self):
        """Minimise the artificial sum; returns (basis, kept row indices)."""
        m, cols = self.m, self.cols
        need_art = [i for i in range(m) if self.rels[i] != LESS_EQUAL]
        n_art = len(need_art)
        T = np.zeros((m, cols + n_art))
        T[:, :cols] = self.S
        basis = np.zeros(m, dtype=int)
        art_cols = set()
        j = cols
        for i in range(m):
            if self.rels[i] == LESS_EQUAL:
                basis[i] = self.slack_col_of_row[i]
            else:
                T[i, cols + need_art.index(i)] = 1.0
        for k, i in enumerate(need_art):
            basis[i] = cols + k
            art_cols.add(cols + k)
        rhs = self.b.copy()
        cost = np.zeros(cols + n_art)
        cost[cols:] = 1.0
        if n_art:
            status = self._iterate(T, rhs, cost, basis)
            if status != OPTIMAL:  # phase-1 objective is bounded below by 0
                raise SolverError("phase one failed to terminate cleanly")
            art_sum = sum(rhs[i] for i in range(m) if basis[i] in art_cols)
            if art_sum > self.opts.feasibility_tol:
                return None, None
        # pivot remaining zero-level artificials out, dropping redundant rows
        row_keep = list(range(m))
        drop = []
        for i in range(m):
            if basis[i] in art_cols:
                piv = next(
                    (jj for jj in range(cols) if abs(T[i, jj]) > self.opts.pivot_tol), None
                )
                if piv is None:
                    drop.append(i)
                else:
                    self._pivot(T, rhs, basis, i, piv)
        row_keep = [i for i in row_keep if i not in drop]
        return basis[row_keep], row_keep

    def _phase_two(self, basis, row_keep):
        """Re-derive the tableau from the feasible basis and optimise c'x."""
        S = self.S[row_keep]
        b = self.b[row_keep]
        B = S[:, basis]
        try:
            T = np.linalg.solve(B, S)
            rhs = np.linalg.solve(B, b)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis between phases") from exc
        status = self._iterate(T, rhs, self.cc, basis)
        if status == UNBOUNDED:
            return UNBOUNDED, basis
        self._final_T, self._final_rhs, self._final_basis = T, rhs, basis
        return OPTIMAL, basis

    def _iterate(self, T, rhs, cost, basis) -> str:
        """Pivot until optimal or unbounded; mutates T, rhs and basis."""
        tol = self.opts.pivot_tol
        m = T.shape[0]
        bland = False
        stall = 0
        stall_limit = 3 * (T.shape[0] + T.shape[1])
        best = math.inf
        while True:
            red = cost - cost[basis] @ T
            red[basis] = 0.0
            if bland:
                entering = next((j for j in range(T.shape[1]) if red[j] < -tol), -1)
            else:
                entering = int(np.argmin(red))
                if red[entering] >= -tol:
                    entering = -1
            if entering < 0:
                return OPTIMAL
            col = T[:, entering]
            ratios = np.full(m, math.inf)
            ok = col > tol
            ratios[ok] = rhs[ok] / col[ok]
            leaving = -1
            best_ratio = math.inf
            for i in range(m):
                if ratios[i] < best_ratio - tol:
                    best_ratio, leaving = ratios[i], i
                elif ratios[i] < best_ratio + tol and leaving >= 0 and basis[i] < basis[leaving]:
                    leaving = i
            if leaving < 0:
                return UNBOUNDED
            self._pivot(T, rhs, basis, leaving, entering)
            self.iterations += 1
            if self.iterations > self.opts.max_iterations:
                raise SolverError("iteration limit exceeded")
            obj = float(cost[basis] @ rhs)
            if obj < best - 1e-12 * (1.0 + abs(best)):
                best = obj
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    @staticmethod
    def _pivot(T, rhs, basis, row, col) -> None:
        piv = T[row, col]
        T[row] /= piv
        rhs[row] /= piv
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        rhs -= factors * rhs[row]
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    # -- reporting -----------------------------------------------------

    def _verdict(self, status, basis=None, row_keep=None) -> LpSolution:
        prob, n, m = self.problem, self.n, self.m
        nan = float("nan")
        if status == INFEASIBLE:
            return LpSolution(
                status, nan, _readonly(np.full(n, nan)), self.iterations,
                _readonly(np.zeros(m)), _readonly(np.zeros(n)), _readonly(np.zeros(n, bool)),
            )
        if status == UNBOUNDED:
            val = math.inf if prob.objective_sense == MAXIMIZE else -math.inf
            return LpSolution(
                status, val, _readonly(np.full(n, nan)), self.iterations,
                _readonly(np.zeros(m)), _readonly(np.zeros(n)), _readonly(np.zeros(n, bool)),
            )
        rhs, basis = self._final_rhs, self._final_basis
        x_shift = np.zeros(self.cols)
        for i, col in enumerate(basis):
            if col < self.cols:
                x_shift[col] = rhs[i]
        x = x_shift[:n] + prob.variable_lower_bounds
        np.clip(x, prob.variable_lower_bounds, None, out=x)
        objective = float(prob.objective @ x)
        duals, reduced = self._duals(basis, row_keep)
        basic = np.zeros(n, dtype=bool)
        basic[[c for c in basis if c < n]] = True
        return LpSolution(
            status, objective, _readonly(x), self.iterations,
            _readonly(duals), _readonly(reduced), _readonly(basic),
        )

    def _duals(self, basis, row_keep):
        """Multipliers from the final basis, mapped back to the original rows."""
        S = self.S[row_keep]
        B = S[:, basis]
        try:
            y_kept = np.linalg.solve(B.T, self.cc[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis at the optimum") from exc
        y_int = np.zeros(self.m)
        y_int[row_keep] = y_kept
        sign = -1.0 if self.problem.objective_sense == MAXIMIZE else 1.0
        duals = sign * self.flip * y_int
        A_orig = np.array([a for a, _, _ in self.problem.constraints])
        reduced = self.problem.objective - A_orig.T @ duals if self.m else self.problem.objective.copy()
        return duals, reduced
