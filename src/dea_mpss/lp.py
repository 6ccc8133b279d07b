"""Dense revised primal simplex for small linear programs.

Every envelopment model in this package reduces to a program of the form

    max/min  c'x
    s.t.     a_k'x  {<=, =, >=}  b_k      k = 1..m
             x >= lower_bounds            (componentwise, default 0)

Problem sizes are small (about a dozen rows, a few hundred variables), so
the solver keeps the m×m basis inverse as a dense matrix and never forms
the m×(columns) tableau.  Each pivot prices every column from the simplex
multipliers ``c_B B⁻¹``, forms only the entering column ``B⁻¹ a_q``, and
updates the inverse by the pivot row; every ``REFACTOR_EVERY`` pivots the
basis is factored afresh.  Both phases run the same pivot loop.  Phase one
forms its columns in product form (Dantzig and Orchard-Hays): the pivots'
row operations applied one at a time, which round exactly as a tableau's
columns do, because its verdict reads the updated values themselves.
Phase two optimises from a primal feasible basis.  A solve finds that
basis in one of three ways:

* crash: the caller passes a feasible vertex (every unpinned model passes
  the evaluated unit set against itself); its support and the slacks of its
  loose rows, completed by slacks of tight rows, form the basis;
* warm: the caller passes the optimum of a program this one extends by
  appended rows (the pinned stage programs); its final basis plus the new
  rows' slacks form the basis;
* cold: phase one minimises the sum of artificial variables; equality rows
  always receive an artificial rather than being split into opposing
  inequalities.

Phase one runs when no start is given, when a start's basis cannot be
factored or is not primal feasible, and when phase two from a start ends
unbounded or on a basis that is infeasible once refactored from the
original rows.  Pivoting uses Dantzig's rule and falls back to Bland's rule
after 3·(rows+columns) pivots of a phase, which guarantees termination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SolverError, ValidationError

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="
RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)
_SLACK_SIGN = {LESS_EQUAL: 1.0, EQUAL: 0.0, GREATER_EQUAL: -1.0}

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

COLD = "cold"    # both phases
CRASH = "crash"  # phase two from a basis at a given feasible point
WARM = "warm"    # phase two from an earlier optimum's basis

# tolerances, fixed for every solve; they suit well-scaled envelopment data
FEASIBILITY_TOL = 1e-7   # infeasibility a basis, a start or phase one's artificial sum may keep
PIVOT_TOL = 1e-9         # smallest pivot, and least improvement of a reduced cost
MAX_ITERATIONS = 50_000  # pivots before a solve raises SolverError
REFACTOR_EVERY = 96      # pivots of a phase between fresh factorisations of its basis


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


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
    ``started`` is ``"cold"`` when the solve ran phase one, ``"crash"`` or
    ``"warm"`` when it began phase two from the ``start`` it was given.
    """

    status: str
    objective_value: float
    variable_values: np.ndarray
    iterations: int
    dual_values: np.ndarray
    reduced_costs: np.ndarray
    basic: np.ndarray
    started: str = COLD
    # final basis columns, kept rows and row count: what a warm start resumes
    _basis: tuple | None = field(default=None, repr=False, compare=False)


def solve_lp(problem: LpProblem, start: np.ndarray | LpSolution | None = None) -> LpSolution:
    """Solve ``problem``, classifying it as optimal, infeasible or unbounded.

    ``start`` skips phase one.  It is either a feasible vertex of ``problem``
    in its own variables (a crash start), or the optimal solution of a
    program that ``problem`` extends by appended rows (a warm start from
    that solution's final basis).  When the start gives no nonsingular,
    primal feasible basis, or phase two from it ends unbounded or on a
    basis that is infeasible once refactored from the original rows, the
    solve runs both phases as without it; ``LpSolution.started`` says which
    way it went.
    """
    return _Simplex(problem).run(start)


class _Simplex:
    """One solve; builds the standard form and walks the two phases."""

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.n = problem.n_variables
        self.m = problem.n_constraints
        self.iterations = 0
        self._build_standard_form()

    def _build_standard_form(self) -> None:
        """Shift x by its lower bounds and append slack columns.

        After the shift every variable is >= 0 and every row is stored as
        ``a'x (rel) b`` with ``b >= 0`` (rows with negative rhs are negated,
        flipping the relation).  ``self.flip`` remembers the negations so
        dual values can be reported against the original rows.  ``self.sign``
        is each stored row's slack coefficient: +1 for "<=", -1 for ">=" and
        0 for "=", which has no slack column.
        """
        prob, n, m = self.problem, self.n, self.m
        lb = prob.variable_lower_bounds
        A = np.array([a for a, _, _ in prob.constraints]).reshape(m, n)
        b = np.array([rhs for _, _, rhs in prob.constraints]) - A @ lb
        self.flip = np.where(b < 0.0, -1.0, 1.0)
        A *= self.flip[:, None]
        b *= self.flip
        self.sign = self.flip * np.array([_SLACK_SIGN[rel] for _, rel, _ in prob.constraints])
        has_slack = self.sign != 0.0
        # slack columns follow the structural ones, in row order
        self.slack_col_of_row = np.where(has_slack, n - 1 + np.cumsum(has_slack), -1)
        self.cols = n + int(has_slack.sum())
        self.S = np.zeros((m, self.cols))
        self.S[:, :n] = A
        self.S[has_slack, self.slack_col_of_row[has_slack]] = self.sign[has_slack]
        self.b = b
        # internal objective is always a minimisation over the shifted vars
        self.cc = np.zeros(self.cols)
        self.cc[:n] = prob.objective if prob.objective_sense == MINIMIZE else -prob.objective

    def run(self, start=None) -> LpSolution:
        if start is not None:
            if isinstance(start, LpSolution):
                self.started, begun = WARM, self._warm(start)
            else:
                self.started, begun = CRASH, self._crash(np.asarray(start, dtype=float))
            factored = None if begun is None else self._factor(*begun, self.S)
            if factored is not None and not _negative(factored[1]):
                (basis, row_keep), (inverse, rhs) = begun, factored
                np.maximum(rhs, 0.0, out=rhs)  # rounding noise on degenerate basics
                inverse = _Inverse(inverse)
                if self._iterate(self.S, self.cc, basis, row_keep, inverse, rhs) == OPTIMAL:
                    # the updated inverse carries the pivots' rounding, so
                    # the optimum stands only if it holds once refactored
                    final = self._factor(basis, row_keep, self.S)
                    if final is not None and self._holds(basis, final[1]):
                        return self._verdict(OPTIMAL, final[1], basis, row_keep, final[0])
        self.started = COLD
        basis, row_keep = self._phase_one()
        if basis is None:
            return self._verdict(INFEASIBLE)
        factored = self._factor(basis, row_keep, self.S)
        if factored is None:
            raise SolverError("singular basis between phases")
        inverse, rhs = factored
        if self._iterate(self.S, self.cc, basis, row_keep, _Inverse(inverse), rhs) == UNBOUNDED:
            return self._verdict(UNBOUNDED)
        final = self._factor(basis, row_keep, self.S)
        if final is None:
            raise SolverError("singular basis at the optimum")
        return self._verdict(OPTIMAL, rhs, basis, row_keep, final[0])

    def _factor(self, basis, row_keep, S):
        """``(inverse, inverse @ b)`` of the basis columns of ``S`` over the kept rows.

        None when the basis is singular.
        """
        block = S[:, basis] if len(row_keep) == self.m else S[np.ix_(row_keep, basis)]
        try:
            inverse = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            return None
        return inverse, inverse @ self.b[row_keep]

    def _holds(self, basis, rhs) -> bool:
        """Whether the basic point with values ``rhs`` is nonnegative and satisfies every row."""
        x = np.zeros(self.cols)
        x[basis] = rhs
        return not _negative(rhs) and self._slacks(x[:self.n]) is not None

    # -- starting bases ------------------------------------------------

    def _crash(self, x):
        """A basis at the feasible vertex ``x``, or None when ``x`` is not one.

        The basis holds the support of ``x`` and the slacks of its loose
        rows, filled up with slacks of tight inequality rows whose removal
        leaves the support's rows nonsingular.
        """
        n, m, tol = self.n, self.m, FEASIBILITY_TOL
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            return None
        xs = x - self.problem.variable_lower_bounds
        if n and xs.min() < -tol:
            return None
        slacks = self._slacks(xs)
        if slacks is None:
            return None
        slack, row_tol = slacks
        has_slack = self.sign != 0.0
        loose = has_slack & (slack > row_tol)
        cols = [*np.flatnonzero(xs > tol), *self.slack_col_of_row[loose]]
        if len(cols) > m:
            return None
        kept = _independent_rows(self.S[:, cols], np.flatnonzero(~has_slack | loose),
                                 np.flatnonzero(has_slack & ~loose), len(cols))
        if kept is None:
            return None
        filled = has_slack & ~loose
        filled[kept] = False
        basis = np.sort(np.array([*cols, *self.slack_col_of_row[filled]], dtype=int))
        return basis, list(range(m))

    def _slacks(self, xs):
        """Slack values and per-row tolerances at the shifted point ``xs``.

        None when ``xs`` breaks a row by more than ``FEASIBILITY_TOL`` times
        the row's scale, the size of its terms at ``xs``.
        """
        A = self.S[:, :self.n]
        resid = self.b - A @ xs
        row_tol = FEASIBILITY_TOL * np.maximum(1.0, np.abs(A) @ np.abs(xs) + self.b)
        slack = resid * self.sign
        if np.any(np.where(self.sign != 0.0, slack < -row_tol, np.abs(resid) > row_tol)):
            return None
        return slack, row_tol

    def _warm(self, sol):
        """The final basis of ``sol`` plus the slacks of the rows appended since."""
        if sol._basis is None or sol.variable_values.size != self.n:
            return None
        basis, row_keep, rows = sol._basis
        added = self.slack_col_of_row[rows:]
        if rows > self.m or np.any(added < 0):
            return None
        basis = np.array([*basis, *added], dtype=int)
        if basis.max(initial=-1) >= self.cols:
            return None
        return basis, [*row_keep, *range(rows, self.m)]

    # -- phases --------------------------------------------------------

    def _phase_one(self):
        """Minimise the artificial sum; returns (basis, kept row indices)."""
        m, cols = self.m, self.cols
        # one artificial column per "=" or ">=" row, in row order; the
        # slacks of the "<=" rows complete the starting basis, the identity
        art_rows = np.flatnonzero(self.sign < 1.0)
        art_cols = cols + np.arange(art_rows.size)
        S = np.zeros((m, cols + art_rows.size))
        S[:, :cols] = self.S
        S[art_rows, art_cols] = 1.0
        basis = self.slack_col_of_row.copy()
        basis[art_rows] = art_cols
        inverse = _ProductForm(np.eye(m))
        rhs = self.b.copy()
        cost = np.zeros(S.shape[1])
        cost[cols:] = 1.0
        if art_rows.size:
            status = self._iterate(S, cost, basis, range(m), inverse, rhs)
            if status != OPTIMAL:  # phase-1 objective is bounded below by 0
                raise SolverError("phase one failed to terminate cleanly")
            # summed in row order, one term at a time, from the updated
            # values, which round exactly as a tableau's
            if sum(rhs[basis >= cols]) > FEASIBILITY_TOL:
                return None, None
        # pivot remaining zero-level artificials out, dropping redundant
        # rows; row i of T = B⁻¹S is the artificial's row of the tableau
        stay = np.flatnonzero(basis >= cols)
        T = inverse.tableau(self.S) if stay.size else None
        drop = []
        for i in stay:
            piv = np.flatnonzero(np.abs(T[i]) > PIVOT_TOL)
            if piv.size:
                inverse.pivot(i, T[:, piv[0]], T)
                basis[i] = piv[0]
            else:
                drop.append(i)
        row_keep = [i for i in range(m) if i not in drop]
        return basis[row_keep], row_keep

    def _iterate(self, S, cost, basis, row_keep, inverse, rhs) -> str:
        """Pivot until optimal or unbounded; mutates basis, inverse and rhs.

        A revised simplex over the kept rows of ``S``: ``inverse`` is the
        basis' ``_Inverse`` and ``rhs`` the basic values.  Each pivot prices
        every column from ``y = c_B B⁻¹``, forms only the entering column
        ``B⁻¹ a_q``, and updates the inverse by the pivot; every
        ``REFACTOR_EVERY`` pivots the inverse is factored afresh.  The
        entering column is the most negative reduced cost (Dantzig) until
        this call has made 3·(rows+columns) pivots, and the first negative
        one (Bland, which cannot cycle) after that.  A candidate enters only
        if its reduced cost, computed again from its formed column, still
        improves; otherwise the next one is tried.  The ratio test takes the
        lowest ratio; within ``PIVOT_TOL`` of it, the lowest basis column.
        """
        tol = PIVOT_TOL
        A = S if len(row_keep) == self.m else S[row_keep]
        bland_after = 3 * (A.shape[0] + A.shape[1])
        pivots = 0
        while True:
            red = cost - (cost[basis] @ inverse.explicit) @ A
            red[basis] = 0.0
            while True:
                if pivots > bland_after:
                    improving = np.flatnonzero(red < -tol)
                    entering = int(improving[0]) if improving.size else -1
                else:
                    entering = int(red.argmin())
                    if red[entering] >= -tol:
                        entering = -1
                if entering < 0:
                    return OPTIMAL
                # y carries the explicit inverse's rounding: a column whose
                # own reduced cost does not improve is priced noise, and
                # letting it in can cycle
                col = inverse.solve(A[:, entering])
                if cost[entering] - cost[basis] @ col < -tol:
                    break
                red[entering] = 0.0
            leaving = low = -1
            best_ratio = math.inf
            for i, (c, r, j) in enumerate(zip(col.tolist(), rhs.tolist(), basis.tolist())):
                if c <= tol:
                    continue
                ratio = r / c
                if ratio < best_ratio - tol:
                    best_ratio, leaving, low = ratio, i, j
                elif ratio < best_ratio + tol and j < low:
                    leaving, low = i, j
            if leaving < 0:
                return UNBOUNDED
            inverse.pivot(leaving, col, rhs)
            basis[leaving] = entering
            pivots += 1
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise SolverError("iteration limit exceeded")
            if pivots % REFACTOR_EVERY == 0:
                factored = self._factor(basis, row_keep, S)
                if factored is not None:  # else keep the updated inverse
                    inverse.restart(factored[0])
                    rhs[:] = factored[1]
                    np.maximum(rhs, 0.0, out=rhs)

    # -- reporting -----------------------------------------------------

    def _verdict(self, status, rhs=None, basis=None, row_keep=None, inverse=None) -> LpSolution:
        """The solution at the end of a solve; an optimum comes with its basis' inverse."""
        prob, n, m = self.problem, self.n, self.m
        nan = float("nan")
        if status in (INFEASIBLE, UNBOUNDED):
            if status == INFEASIBLE:
                val = nan
            else:
                val = math.inf if prob.objective_sense == MAXIMIZE else -math.inf
            return LpSolution(
                status, val, _readonly(np.full(n, nan)), self.iterations,
                _readonly(np.zeros(m)), _readonly(np.zeros(n)), _readonly(np.zeros(n, bool)),
                self.started,
            )
        x_shift = np.zeros(self.cols)
        x_shift[basis] = rhs
        x = x_shift[:n] + prob.variable_lower_bounds
        np.clip(x, prob.variable_lower_bounds, None, out=x)
        objective = float(prob.objective @ x)
        duals, reduced = self._duals(basis, row_keep, inverse)
        basic = np.zeros(n, dtype=bool)
        basic[basis[basis < n]] = True
        return LpSolution(
            status, objective, _readonly(x), self.iterations,
            _readonly(duals), _readonly(reduced), _readonly(basic),
            self.started, (tuple(int(c) for c in basis), tuple(row_keep), m),
        )

    def _duals(self, basis, row_keep, inverse):
        """Multipliers from the final basis' inverse, mapped back to the original rows."""
        y_int = np.zeros(self.m)
        y_int[row_keep] = inverse.T @ self.cc[basis]
        sign = -1.0 if self.problem.objective_sense == MAXIMIZE else 1.0
        duals = sign * self.flip * y_int
        # the stored rows are the original ones negated where ``flip`` is -1
        reduced = self.problem.objective - self.S[:, :self.n].T @ (self.flip * duals)
        return duals, reduced


class _Inverse:
    """A basis inverse, updated by each pivot; it prices and forms the columns."""

    def __init__(self, inverse):
        self.restart(inverse)

    def restart(self, inverse) -> None:
        """Start afresh from a factored inverse."""
        self.explicit = inverse

    def solve(self, a):
        """``B⁻¹ a`` for a column ``a``."""
        return self.explicit @ a

    def pivot(self, row, col, *also):
        """Pivot on ``col[row]``, where ``col = B⁻¹ a_q`` enters; ``also`` are updated alike.

        Returns the pivot's row operation, as ``_eliminate`` takes it.
        """
        factors = col.copy()
        factors[row] = 0.0
        eta = (row, col[row], factors)
        for x in (self.explicit, *also):
            _eliminate(x, *eta)
        return eta


class _ProductForm(_Inverse):
    """A basis inverse whose columns are formed from the pivots since its last refactor.

    ``solve`` multiplies by the refactored inverse and then applies the
    pivots' row operations one at a time (the product form of Dantzig and
    Orchard-Hays).  From the identity, a column so formed goes through the
    very operations, and roundings, that a dense tableau's column would.
    The explicit inverse still prices.
    """

    def restart(self, inverse) -> None:
        super().restart(inverse)
        self.base = inverse.copy()
        self.etas = []  # row operations of the pivots since, factors as a list

    def solve(self, a):
        # in Python floats: the same roundings as numpy's, at a third of the
        # cost on a column of a dozen rows
        x = (self.base @ a).tolist()
        for row, piv, factors in self.etas:
            s = x[row] / piv
            x = [v - f * s for v, f in zip(x, factors)]
            x[row] = s
        return np.array(x)

    def tableau(self, S):
        """``B⁻¹ S``, each column formed as ``solve`` forms one."""
        T = self.base @ S
        for row, piv, factors in self.etas:
            _eliminate(T, row, piv, np.array(factors))
        return T

    def pivot(self, row, col, *also):
        row, piv, factors = super().pivot(row, col, *also)
        self.etas.append((row, float(piv), factors.tolist()))


def _eliminate(x, row, piv, factors) -> None:
    """One pivot's row operation on ``x``, a column or a matrix of rows.

    Row ``row`` is divided by the pivot ``piv``, then ``factors`` times it
    is taken from every row (``factors[row]`` is 0).
    """
    x[row] /= piv
    x -= np.multiply.outer(factors, x[row])


def _negative(v) -> bool:
    """Whether some entry of ``v`` lies below ``-FEASIBILITY_TOL``."""
    return v.min(initial=math.inf) < -FEASIBILITY_TOL


def _independent_rows(M, fixed, optional, k):
    """``k`` linearly independent rows of ``M``: every ``fixed`` row, then ``optional`` ones.

    Returns the chosen row indices, or None when the fixed rows are
    dependent or fewer than ``k`` independent rows exist.  Modified
    Gram-Schmidt: a row counts as independent when more than 1e-9 of its own
    norm is left after projecting out the kept rows, so rows of any scale
    compare alike.
    """
    if len(fixed) > k:
        return None
    norms = np.linalg.norm(M, axis=1)
    R = M.copy()  # rows less their projections on the kept rows
    kept = []
    for pos, i in enumerate([*fixed, *optional]):
        if len(kept) == k:
            break
        left = math.sqrt(R[i] @ R[i])
        if left > 1e-9 * norms[i]:
            u = R[i] / left
            R -= np.outer(R @ u, u)
            kept.append(i)
        elif pos < len(fixed):
            return None
    return kept if len(kept) == k else None
