"""Dense revised primal simplex for small linear programs.

Every envelopment model in this package reduces to a program of the form

    max/min  c'x   s.t.   A x  {<=, =, >=}  b  (one relation per row),   x >= 0

which ``LpProblem`` holds in the standard form the solver reads
(``StandardForm``): the rows as written, then one slack column per
inequality row.  A model's compiled ``Program`` builds that once per model
and hands it over with the problem.  Programs are small (about a dozen
rows, a few hundred variables), so the solver keeps the m×m basis inverse
dense.  Each pivot prices the columns from the multipliers ``c_B B⁻¹``,
takes the entering column ``B⁻¹ a_q`` and updates the inverse and the
basic values, kept side by side, by one row operation; every
``REFACTOR_EVERY`` pivots the basis is factored afresh.  Both phases run
the same pivot loop.  A phase two from a start prices a compiled
program's candidate columns first (``StandardForm.candidates``): every
column but the intensity columns of the units its compile did not pick.
Only a step whose candidates hold no improving column prices every
column, and an optimum is declared only when that full pass finds none
either, so it is the whole program's optimum whichever columns are
candidates.  A problem with no candidate set prices every column at
every step.  Phase two forms only the entering column, from the
inverse.  Phase one keeps the whole tableau ``B⁻¹S`` in front of the
inverse, updated by the same row operation and formed again at each
refactor, and reads its columns off it: from the exact start
``diag(start) @ S`` they round as a dense tableau's do, and so do the
basic values its verdict reads.
Phase two starts from a primal feasible basis, found in one of three ways:

* crash: the caller passes the basis columns of a feasible vertex, as an
  integer array.  Every unpinned model passes the basis its compiled
  ``Program`` found once at the evaluated unit set against itself;
* warm: the caller passes the optimum of a program this one extends by
  appended rows (the pinned stage programs), or that optimum's ``Basis``;
  its final basis plus the new rows' slacks form the basis;
* cold: phase one minimises the sum of artificial variables.  It starts
  from the signed diagonal basis ``diag(start)``, ``start`` being -1 on
  the rows whose rhs is negative and 1 elsewhere: the slack of a row whose
  slack coefficient is that row's ``start``, an artificial of that sign on
  every other row.  The rows keep their sign; only phase one's start reads it.

Phase one runs when no start is given, when a start's basis is singular or
infeasible, and when phase two from a start ends unbounded or on a basis
that is infeasible once refactored from the original rows, both over the
candidates and then again over every column.  Pivoting uses
Dantzig's rule and falls back to Bland's rule after 3·(rows+columns) pivots
of a phase, which guarantees termination.

``solve_lockstep`` runs the started phase twos of many units of one
compiled program at once (``Lockstep``: a shared matrix, and per unit its
own levels in its first columns and its right sides), one numpy call per
step for every unit not yet done: stacked products price them, stacked
inverses factor them, and each unit takes the pivots ``solve_lp`` takes.
It starts, prices every column, and refactors and checks its optima a
block of units at a time, as many as take no more room than the batch's
``[B⁻¹ | B⁻¹b]``; it prices the candidate columns of as many more units at
once as that room holds reduced costs of the candidates for, which is
every unit of a wide program's batch.
Its starts come one a unit, or whole: a crash array, or the stacked
final bases of an earlier batch (``Bases``, ``warm_starts``).  An optimal
unit is checked by the hold check ``solve_lp`` makes on a stack of one
(``_holding``), and kept as an ``Optimum``: its value, its basis and the
O(rows) values its ``LpSolution`` is formed from.  That solution, bit
for bit the one ``solve_lp`` gives, is formed only when it is asked for
(``solutions``), so a wide batch, or a sequence of them each started
from the optima of the one before, holds no more solutions at once than
its caller asks for.  A unit that would leave that path (a start that
fails, an unbounded step, a refactor, the Bland switch, an optimum that
does not hold) is handed back, for ``solve_lp`` to solve alone from the
same start.  A batch of one costs more per step than the scalar loop, so
a single solve stays with ``solve_lp``.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, NamedTuple, Sequence

import numpy as np

from .errors import SolverError, ValidationError

# each relation as its row's slack coefficient
SLACK_SIGN = {"<=": 1.0, "=": 0.0, ">=": -1.0}
_RELATION = {sign: rel for rel, sign in SLACK_SIGN.items()}

MAXIMIZE = "maximize"
MINIMIZE = "minimize"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

COLD = "cold"    # both phases
CRASH = "crash"  # phase two from a given basis at a feasible vertex
WARM = "warm"    # phase two from an earlier optimum's basis

# tolerances, fixed for every solve; they suit well-scaled envelopment data
FEASIBILITY_TOL = 1e-7   # infeasibility a basis, a start or phase one's artificial sum may keep
PIVOT_TOL = 1e-9         # smallest pivot, and least improvement of a reduced cost
MAX_ITERATIONS = 50_000  # pivots before a solve raises SolverError
REFACTOR_EVERY = 96      # pivots of a phase between fresh factorisations of its basis


def _readonly(a) -> np.ndarray:
    """A read-only float copy of ``a``."""
    return _frozen(np.array(a, dtype=float))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: for arrays that nothing else refers to."""
    a.setflags(write=False)
    return a


class StandardForm(NamedTuple):
    """A program's rows as the simplex reads them, over ``x >= 0``.

    ``S`` is ``[A | slacks]``: the rows as written, then one slack column per
    inequality row, in row order, whose entry is the row's ``sign``
    (``_slack_columns``).  ``b`` may hold any sign.  ``slack_col_of_row``
    is each row's slack column, or -1 for an "=" row.  ``candidates``, if
    given, are the columns a started phase two prices first, ascending; any
    set gives the same optimum value (``_Simplex._iterate``), and an empty
    one prices every column, as none does.
    """

    S: np.ndarray
    b: np.ndarray
    sign: np.ndarray
    slack_col_of_row: np.ndarray
    candidates: np.ndarray | None = None


@dataclass(frozen=True)
class LpProblem:
    """Immutable linear program ``A x (relations) b`` over ``x >= 0``, in standard form.

    The rows come in ``standard_form``, as a compiled program keeps them
    (``program.Unit``).  ``A`` (rows × variables), ``row_sign`` and ``b``
    are views of it; ``row_sign`` is each row's relation as its slack
    coefficient (``SLACK_SIGN``).  Safe to share across threads.
    """

    objective_sense: str
    objective: np.ndarray
    A: np.ndarray
    row_sign: np.ndarray
    b: np.ndarray
    standard_form: StandardForm = field(repr=False, compare=False)

    def __init__(self, objective_sense: str, objective: Sequence[float], *,
                 standard_form: StandardForm):
        if objective_sense not in (MAXIMIZE, MINIMIZE):
            raise ValidationError(f"objective_sense must be {MAXIMIZE!r} or {MINIMIZE!r}, "
                                  f"got {objective_sense!r}")
        c = _readonly(objective)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("objective must be a nonempty coefficient vector")
        A = standard_form.S[:, :c.size]
        if A.shape != (standard_form.b.size, c.size):
            raise ValidationError(f"the standard form's rows must cover {c.size} variables")
        self.__dict__.update(objective_sense=objective_sense, objective=c, A=A,
                             row_sign=standard_form.sign, b=standard_form.b,
                             standard_form=standard_form)

    # outside the tests, only the benchmark's problem digest (perfbench/spans.py)
    # reads the next two
    @cached_property
    def constraints(self) -> tuple:
        """The rows as ``(coefficients, relation, rhs)`` triples, built on first use."""
        return tuple(zip(self.A, [_RELATION[s] for s in self.row_sign.tolist()], self.b.tolist()))

    @property
    def variable_lower_bounds(self) -> np.ndarray:
        """Every variable's lower bound, zero, as a read-only array."""
        return _frozen(np.zeros(self.objective.size))

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.b.size


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


class Basis(NamedTuple):
    """An optimum's final basis, all that a warm start reads of it.

    ``columns`` are the basis columns over the rows ``row_keep`` of a
    program of ``rows`` rows and ``variables`` variables (``LpSolution``
    keeps the first three as ``_basis``).
    """

    columns: Sequence[int]
    row_keep: tuple
    rows: int
    variables: int


class Bases(abc.Sequence):
    """The final bases of many optima of one program, stacked, as one lockstep batch keeps them.

    ``columns[k]`` is the ``k``th optimum's basis columns over the rows
    ``row_keep`` of a program of ``rows`` rows and ``variables`` variables.
    Item ``k`` is that optimum's ``Basis``; ``solve_lockstep`` reads the
    array whole.
    """

    def __init__(self, columns: np.ndarray, row_keep: tuple, rows: int, variables: int):
        self.columns, self.row_keep, self.rows, self.variables = columns, row_keep, rows, variables

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, k: int) -> Basis:
        return Basis(self.columns[k], self.row_keep, self.rows, self.variables)


def solve_lp(problem: LpProblem, start: np.ndarray | LpSolution | Basis | None = None
             ) -> LpSolution:
    """Solve ``problem``, classifying it as optimal, infeasible or unbounded.

    ``start`` skips phase one.  It is a crash start, an integer array of
    the columns of a basis at a feasible vertex: one column of
    ``problem``'s standard form per row, structural columns first, then the
    slacks in row order.  Or it is a warm start from the final basis of a
    program that ``problem`` extends by appended rows: that program's
    optimal ``LpSolution``, or its ``Basis``, which starts alike, to the
    bit.  Any other start raises ``ValidationError``.  When the start fails, in
    the ways the module docstring lists (a basis that is singular,
    infeasible or out of range among them), the solve runs both phases as
    without it; ``LpSolution.started`` says which way it went.
    """
    return _Simplex(problem).run(start)


def _slack_columns(sign: np.ndarray, n: int):
    """The slack columns of rows with slack signs ``sign``, and each row's slack column.

    One column per inequality row, in row order, numbered from ``n`` on; an
    "=" row's slack column is -1.
    """
    rows = np.flatnonzero(sign)
    slack_col_of_row = np.full(sign.size, -1)
    slack_col_of_row[rows] = np.arange(n, n + rows.size)
    slack = np.zeros((sign.size, rows.size))
    slack[rows, np.arange(rows.size)] = sign[rows]
    return slack, slack_col_of_row


def _holding(block, rhs, b, structural, sign) -> np.ndarray:
    """Which of a stack of basic points hold: each is nonnegative and meets every row.

    Point ``k`` has basic values ``rhs[k]`` on ``block[k]``, its basis
    columns over every row, a row the basis dropped too; ``structural[k]``
    marks its structural columns, ``b[k]`` holds its right sides and
    ``sign`` the rows' slack signs.  It holds when no basic value lies
    below ``-FEASIBILITY_TOL`` and each row is met within
    ``FEASIBILITY_TOL · max(1, |B|·|x_B| + |b|)``, the size of the row's
    terms.  A point's rows are summed in one order whatever the stack, so
    its verdict alone is its verdict in any stack.
    """
    block = np.ascontiguousarray(block)  # one layout, so a row sums alike on either path
    xs = np.where(structural, rhs, 0.0)[:, :, None]
    resid = b - (block @ xs)[:, :, 0]
    row_tol = FEASIBILITY_TOL * np.maximum(1.0, (np.abs(block) @ np.abs(xs))[:, :, 0] + np.abs(b))
    met = np.where(sign != 0.0, resid * sign >= -row_tol, np.abs(resid) <= row_tol)
    return (rhs.min(axis=1, initial=math.inf) >= -FEASIBILITY_TOL) & met.all(axis=1)


def _begun(start, n, cols, slack_col_of_row):
    """The kind of ``start`` and its basis columns and kept rows, or None when it fails.

    A crash start fails when it is out of range, a warm one when its program
    has other variables or more rows, or a row appended since has no slack.
    Any other start raises ``ValidationError``.
    """
    m = slack_col_of_row.size
    if isinstance(start, LpSolution):
        if start._basis is None:
            return WARM, None
        start = Basis(*start._basis, start.variable_values.size)
    if isinstance(start, Basis):
        basis, row_keep, rows, variables = start
        if variables != n:
            return WARM, None
        added = slack_col_of_row[rows:]
        if rows > m or added.min(initial=0) < 0:
            return WARM, None
        basis = np.concatenate((basis, added)).astype(int, copy=False)
        if basis.max(initial=-1) >= cols:
            return WARM, None
        return WARM, (basis, [*row_keep, *range(rows, m)])
    if isinstance(start, np.ndarray) and start.dtype.kind in "iu":
        if start.shape != (m,) or start.min(initial=0) < 0 or start.max(initial=-1) >= cols:
            return CRASH, None
        return CRASH, (start.astype(int), list(range(m)))
    kind = f"ndarray of {start.dtype}" if isinstance(start, np.ndarray) else type(start).__name__
    raise ValidationError("start must be an integer array of basis columns or an LpSolution "
                          f"or a Basis, got {kind}")


def _entering(red, columns, A, cost, c_B, inverse, bland=False):
    """The entering column and its column of the tableau, or ``(-1, None)`` when none improves.

    ``red`` holds the reduced costs of ``columns`` of ``A`` (all of them when
    None).  The lowest enters (Dantzig), or with ``bland`` the first below
    ``-PIVOT_TOL``, if it improves and its reduced cost, taken again from its
    column, ``cost[q] - c_B B⁻¹ a_q``, still does: the multipliers carry the
    explicit inverse's rounding, so a column whose own price does not
    improve is priced noise, and letting it in can cycle.  Such a column's
    reduced cost is set to 0 and the next is tried.
    """
    while True:
        if bland:
            improving = np.flatnonzero(red < -PIVOT_TOL)
            at = int(improving[0]) if improving.size else -1
        else:
            at = int(red.argmin())
            if red[at] >= -PIVOT_TOL:
                at = -1
        if at < 0:
            return -1, None
        q = at if columns is None else int(columns[at])
        col = inverse.column(A, q)
        if cost[q] - c_B @ col < -PIVOT_TOL:
            return q, col
        red[at] = 0.0


def _leaving(col, rhs, basis) -> int:
    """The ratio test: the row whose basic variable leaves for the entering column ``col``.

    The lowest ratio of a basic value to a column entry above
    ``PIVOT_TOL``; within ``PIVOT_TOL`` of the lowest so far, the row of the
    lowest basis column.  -1 when no entry is above ``PIVOT_TOL``
    (unbounded).
    """
    tol = PIVOT_TOL
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
    return leaving


class _Simplex:
    """One solve over the problem's standard form; walks the two phases."""

    def __init__(self, problem: LpProblem):
        self.problem, self.n, self.m = problem, problem.n_variables, problem.n_constraints
        self.iterations = 0
        # the rows as written, any rhs sign: phase one's start reads the signs
        self.S, self.b, self.sign, self.slack_col_of_row, candidates = problem.standard_form
        self.candidates = candidates if candidates is not None and candidates.size else None
        self.cols = self.S.shape[1]
        # internal objective is always a minimisation
        self.cc = np.zeros(self.cols)
        self.cc[:self.n] = (problem.objective if problem.objective_sense == MINIMIZE
                            else -problem.objective)

    def run(self, start=None) -> LpSolution:
        if start is not None:
            self.started, begun = _begun(start, self.n, self.cols, self.slack_col_of_row)
            factored = None if begun is None else self._factor(*begun, self.S)
            if factored is not None and not _negative(factored[1]):
                # over the candidates first; if that fails, and they are not every
                # column, again over every column
                tries = [self.candidates]
                if self.candidates is not None and self.candidates.size < self.cols:
                    tries.append(None)
                for candidates in tries:
                    optimum = self._started(*begun, *factored, candidates)
                    if optimum is not None:
                        return optimum
        self.started = COLD
        basis, row_keep = self._phase_one()
        if basis is None:
            return self._verdict(INFEASIBLE)
        factored = self._factor(basis, row_keep, self.S)
        if factored is None:
            raise SolverError("singular basis between phases")
        updated = _Inverse(*factored)
        if self._iterate(self.S, self.cc, basis, row_keep, updated) == UNBOUNDED:
            return self._verdict(UNBOUNDED)
        final = self._factor(basis, row_keep, self.S)
        if final is None:
            raise SolverError("singular basis at the optimum")
        return self._verdict(OPTIMAL, updated.rhs, basis, row_keep, final[0])

    def _started(self, basis, row_keep, inverse, start_rhs, candidates):
        """The optimum of phase two from a start's factored basis, pricing ``candidates``
        first (``_iterate``), or None when it ends unbounded or does not hold."""
        basis = basis.copy()
        updated = _Inverse(inverse, start_rhs)
        np.maximum(updated.rhs, 0.0, out=updated.rhs)  # rounding noise on degenerate basics
        if self._iterate(self.S, self.cc, basis, row_keep, updated, candidates) != OPTIMAL:
            return None
        # the updated inverse carries the pivots' rounding, so the optimum
        # stands only if it holds once refactored from its final basis; one
        # reached without a pivot is refactored too, as in the lockstep
        final = self._factor(basis, row_keep, self.S)
        if final is None or not self._holds(basis, final[1]):
            return None
        return self._verdict(OPTIMAL, final[1], basis, row_keep, final[0])

    def _factor(self, basis, row_keep, S):
        """``(inverse, inverse @ b)`` of the basis columns of ``S`` over the kept rows, or None."""
        if len(row_keep) == self.m:
            block, b = S[:, basis], self.b
        else:
            block, b = S[np.ix_(row_keep, basis)], self.b[row_keep]
        try:
            inverse = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            return None
        return inverse, inverse @ b

    def _holds(self, basis, rhs) -> bool:
        """Whether the basic point with values ``rhs`` holds (``_holding``, a stack of one)."""
        return bool(_holding(self.S[:, basis][None], rhs[None], self.b[None],
                             (basis < self.n)[None], self.sign)[0])

    # -- phases --------------------------------------------------------

    def _phase_one(self):
        """Minimise the artificial sum; returns (basis, kept row indices)."""
        m, cols = self.m, self.cols
        # the starting basis is diag(start), -1 on the rows whose rhs is
        # negative, so every basic value starts at |b|: a row's slack where
        # its sign is its start, else an artificial column of the start's
        # sign, one per such row, in row order
        start = np.where(self.b < 0.0, -1.0, 1.0)
        art_rows = np.flatnonzero(self.sign * start < 1.0)
        art_cols = cols + np.arange(art_rows.size)
        S = np.zeros((m, cols + art_rows.size))
        S[:, :cols] = self.S
        S[art_rows, art_cols] = start[art_rows]
        basis = self.slack_col_of_row.copy()
        basis[art_rows] = art_cols
        inverse = _Tableau(S, np.diag(start), np.abs(self.b))
        cost = np.zeros(S.shape[1])
        cost[cols:] = 1.0
        if art_rows.size:
            status = self._iterate(S, cost, basis, range(m), inverse)
            if status != OPTIMAL:  # phase-1 objective is bounded below by 0
                raise SolverError("phase one failed to terminate cleanly")
            # summed in row order, one term at a time, from the updated
            # values, which round exactly as a tableau's
            if sum(inverse.rhs[basis >= cols]) > FEASIBILITY_TOL:
                return None, None
        # pivot remaining zero-level artificials out, dropping redundant
        # rows; row i of the tableau is the artificial's
        drop = []
        for i in np.flatnonzero(basis >= cols):
            piv = np.flatnonzero(np.abs(inverse.both[i, :cols]) > PIVOT_TOL)
            if piv.size:
                inverse.pivot(i, inverse.column(S, piv[0]))
                basis[i] = piv[0]
            else:
                drop.append(i)
        row_keep = [i for i in range(m) if i not in drop]
        return basis[row_keep], row_keep

    def _iterate(self, S, cost, basis, row_keep, inverse, candidates=None) -> str:
        """Pivot until optimal or unbounded; mutates basis and inverse.

        A revised simplex over the kept rows of ``S``: ``inverse`` is the
        basis' ``_Inverse``, with the basic values; it gives the entering
        variable's column of the tableau, which phase one's ``_Tableau``
        copies off the tableau it keeps.  The entering variable is the most
        negative reduced cost (Dantzig) until this call has made
        3·(rows+columns) pivots, and the first negative one (Bland, which
        cannot cycle) after that.  A column enters only if its reduced cost,
        computed again from its column, still improves (``_entering``).  The
        ratio test is ``_leaving``.

        With ``candidates`` (a started phase two of a compiled program) each
        Dantzig step prices only those columns, and every column only when
        none of them improves; the optimum is declared only when that full
        pass finds none either, so it is the optimum of the whole program
        whichever columns are candidates.  Bland's steps price every column.
        """
        A = S if len(row_keep) == self.m else S[row_keep]
        bland_after = 3 * (A.shape[0] + A.shape[1])
        if candidates is not None:  # their columns and costs
            A_c, cost_c = A[:, candidates], cost[candidates]
            place = np.full(A.shape[1], -1)  # each column's place among them
            place[candidates] = np.arange(candidates.size)
        pivots = 0
        c_B = cost[basis]
        rhs = inverse.rhs
        while True:
            y = c_B @ inverse.explicit
            entering = -1
            if candidates is not None and pivots <= bland_after:
                red = cost_c - y @ A_c
                at = place[basis]
                red[at[at >= 0]] = 0.0
                entering, col = _entering(red, candidates, A, cost, c_B, inverse)
            if entering < 0:
                red = cost - y @ A
                red[basis] = 0.0
                entering, col = _entering(red, None, A, cost, c_B, inverse, pivots > bland_after)
                if entering < 0:
                    return OPTIMAL
            leaving = _leaving(col, rhs, basis)
            if leaving < 0:
                return UNBOUNDED
            inverse.pivot(leaving, col)
            basis[leaving] = entering
            c_B[leaving] = cost[entering]
            pivots += 1
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise SolverError("iteration limit exceeded")
            if pivots % REFACTOR_EVERY == 0:
                factored = self._factor(basis, row_keep, S)
                if factored is not None:  # else keep the updated inverse
                    inverse.restart(*factored)
                    np.maximum(rhs, 0.0, out=rhs)

    # -- reporting -----------------------------------------------------

    def _verdict(self, status, rhs=None, basis=None, row_keep=None, inverse=None) -> LpSolution:
        """The solution at the end of a solve; an optimum comes with its basis' inverse."""
        prob, n, m = self.problem, self.n, self.m
        if status != OPTIMAL:
            unbounded = math.inf if prob.objective_sense == MAXIMIZE else -math.inf
            return LpSolution(
                status, unbounded if status == UNBOUNDED else math.nan,
                _frozen(np.full(n, math.nan)), self.iterations, _frozen(np.zeros(m)),
                _frozen(np.zeros(n)), _frozen(np.zeros(n, bool)), self.started,
            )
        x_all = np.zeros(self.cols)
        x_all[basis] = rhs
        x = np.maximum(x_all[:n], 0.0)  # a basic value rounded below zero, or -0.0, reads 0.0
        # multipliers from the final basis' inverse, signed for the problem's sense
        y_int = np.zeros(m)
        y_int[row_keep] = inverse.T @ self.cc[basis]
        duals = (-1.0 if prob.objective_sense == MAXIMIZE else 1.0) * y_int
        reduced = prob.objective - self.S[:, :n].T @ duals
        basic = np.zeros(n, dtype=bool)
        basic[basis[basis < n]] = True
        return LpSolution(
            status, float(prob.objective @ x), _frozen(x), self.iterations,
            _frozen(duals), _frozen(reduced), _frozen(basic),
            self.started, (tuple(basis.tolist()), tuple(row_keep), m),
        )


class Lockstep(NamedTuple):
    """The programs of many units that differ only in a few entries of their first columns,
    and in their right sides.

    Unit ``k``'s standard form is ``S`` with its first ``head.shape[1]``
    columns replaced by its heads, ``head`` with the entries at ``own_at``
    (rows, columns) set to ``own[k]`` (``heads``), and ``b[k]`` its right
    sides; ``sign`` and ``slack_col_of_row`` are as in ``StandardForm``.
    A product with ``S`` rounds every column but the heads as the same
    product with a unit's own matrix does, so only the heads are taken per
    unit.  A product with a block of a few columns need not round those
    columns as the product with the whole row does; the heads are made
    wide enough that it does (``program.HEAD_COLUMNS``), or are the whole
    row, and the tests check every lockstep solution against ``solve_lp``
    bit for bit.  ``candidates`` are as in ``StandardForm``; the heads'
    columns come first among them, so the candidate pass prices the heads
    per unit as the full pass does.
    """

    S: np.ndarray
    sign: np.ndarray
    slack_col_of_row: np.ndarray
    head: np.ndarray
    own_at: tuple
    own: np.ndarray
    b: np.ndarray
    candidates: np.ndarray | None = None

    def heads(self, unit, out=None) -> np.ndarray:
        """The heads of units ``unit``, one a row: in the first rows of ``out``, whose rows
        hold ``head`` but at ``own_at``, if it is given, else in a new array."""
        heads = np.repeat(self.head[None], len(unit), axis=0) if out is None else out[:len(unit)]
        heads[(slice(None), *self.own_at)] = self.own[unit]
        return heads


class Optimum(NamedTuple):
    """A lockstep unit's optimum whose ``LpSolution`` is not formed yet (``solutions``).

    It holds what a later solve reads, the value and, through ``basis``,
    the final basis.  The lockstep batch ``batch`` keeps, by unit, what the
    solution is formed from: the basis, the refactored basic values and
    the multipliers of unit ``unit``, O(rows) values a unit.
    """

    objective_value: float
    iterations: int
    started: str
    unit: int
    batch: Any

    @property
    def basis(self) -> Basis:
        """The final basis, the warm start of a program that extends this one."""
        return self.batch.bases([self.unit])[0]


def solve_lockstep(objective_sense: str, objective: np.ndarray, programs: Lockstep,
                   starts: Sequence) -> list:
    """``solve_lp`` of each unit of ``programs`` from ``starts[k]``, all units in lockstep.

    Phase two runs for every unit at once, one numpy call per step: each
    step prices, picks, ratio-tests and pivots every unit not yet done,
    by the arithmetic ``_Simplex`` does for one, so a unit gets the very
    optimum ``solve_lp`` would reach.  A start is any form ``solve_lp``
    takes: a crash basis, or an earlier optimum's ``LpSolution`` or
    ``Basis``.  A crash array of one basis a row, or the ``Bases`` of an
    earlier batch (``warm_starts``), is read whole, with the checks a
    start at a time would make.  A unit whose solve would leave that path
    is handed back as None, for ``solve_lp`` to solve from the same start:
    a start that fails (out of range, singular or negative, or a warm
    start of a program with other variables, more rows or rows since
    dropped), an unbounded step, a refactor or the Bland switch
    (``REFACTOR_EVERY`` pivots come first), or an optimum that does not
    hold once refactored (``_holding``, as ``solve_lp`` checks it).

    Returns each unit's ``Optimum``, or None, in unit order; the bases are
    factored, and the optima refactored and checked, a block at a time.
    """
    from ._lockstep import _Lockstep  # compiled on a sweep's first solve, not at import

    return _Lockstep(objective_sense, objective, programs).run(starts)


def warm_starts(outcomes: Sequence) -> Sequence:
    """The warm starts that ``outcomes``, each an ``Optimum`` or an optimal ``LpSolution``, give
    the programs that extend theirs, in order: the optima's stacked ``Bases`` when all are of
    one lockstep batch, else each optimum's ``Basis`` and each solution itself."""
    batch = outcomes[0].batch if outcomes and isinstance(outcomes[0], Optimum) else None
    if batch is not None and all(isinstance(o, Optimum) and o.batch is batch for o in outcomes):
        return batch.bases([o.unit for o in outcomes])
    return [o.basis if isinstance(o, Optimum) else o for o in outcomes]


def solutions(optima: Sequence[Optimum]) -> list:
    """The ``LpSolution`` of each of ``optima``, all of one lockstep batch, bit for bit the one
    ``solve_lp`` gives; their arrays are formed together."""
    return optima[0].batch.solutions(optima) if optima else []


class _Inverse:
    """A basis inverse and the basic values, updated by each pivot; it prices and forms columns.

    Both live in one array, ``[B⁻¹ | B⁻¹b]``, so a pivot is one row
    operation; ``explicit`` and ``rhs`` are views of it.  A subclass may
    keep ``ahead`` more columns in front of them, which that operation
    updates alike.
    """

    def __init__(self, inverse, rhs, ahead=0):
        m = rhs.size
        self.both = np.empty((m, ahead + m + 1))
        self.explicit, self.rhs = self.both[:, ahead:-1], self.both[:, -1]
        self.restart(inverse, rhs)

    def restart(self, inverse, rhs) -> None:  # afresh from a factored inverse
        self.explicit[:] = inverse
        self.rhs[:] = rhs

    def column(self, A, q):
        """``B⁻¹ A[:, q]``, the tableau's column ``q``."""
        return self.explicit @ A[:, q]

    def pivot(self, row, col) -> None:
        """Pivot on ``col[row]``, ``col`` being the entering variable's column of the tableau."""
        factors = col.copy()
        factors[row] = 0.0
        _eliminate(self.both, row, col[row], factors)


class _Tableau(_Inverse):
    """Phase one's basis inverse, with the whole tableau ``B⁻¹S`` of its columns ``S`` ahead.

    Phase one starts it from ``diag(start)``, whose product with ``S`` is
    exact.  The tableau takes each pivot's row operation and is formed again
    at each refactor, so a column copied off it has a dense tableau's very
    roundings, and so do the basic values phase one's verdict reads.  The
    explicit inverse still prices.
    """

    def __init__(self, S, inverse, rhs):
        self.S = S
        super().__init__(inverse, rhs, S.shape[1])

    def restart(self, inverse, rhs) -> None:
        super().restart(inverse, rhs)
        self.both[:, :self.S.shape[1]] = inverse @ self.S

    def column(self, A, q):
        return self.both[:, q].copy()


def _eliminate(x, row, piv, factors) -> None:
    """One pivot's row operation on ``x``, a column or a matrix: row ``row`` is divided
    by the pivot ``piv``, then ``factors`` times it is taken from every row."""
    x[row] /= piv
    x -= (factors[:, None] if x.ndim == 2 else factors) * x[row]


def _negative(v) -> bool:
    """Whether some entry of ``v`` lies below ``-FEASIBILITY_TOL``."""
    return v.min(initial=math.inf) < -FEASIBILITY_TOL
