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
step for every unit not yet done (``_lockstep``).  Phase two's rules are
written once, over a stack of units, and a lone solve runs them on its own
arrays: pricing and the entering choice (``_entering``), the pivot
(``_pivot``), the factorisation (``_factor``) and the verdict's values
(``_optimal``), so each unit takes the pivots ``solve_lp`` takes.  The
ratio test is ``_leaving``'s scan, which the lockstep reaches through a
vectorised shortcut.  Its starts come one a unit, or whole: a crash array,
or the stacked final bases of an earlier batch (``Bases``,
``warm_starts``).  An optimal unit is checked by the hold check
``solve_lp`` makes (``_holding``) and kept as an ``Optimum``, O(rows)
values; its ``LpSolution``, bit for bit the one ``solve_lp`` gives, is
formed only when it is asked for (``solutions``).  A unit that would leave
that path (a start that fails, an unbounded step, a refactor, the Bland
switch, an optimum that does not hold) is handed back, for ``solve_lp`` to
solve alone from the same start.  A lone solve runs the rules without the
stack's axis, in new arrays and dots; a batch of one costs two to three
times as much a step, so a single solve stays with ``solve_lp``.
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
    set gives the same optimum value (``_entering``), and an empty one
    prices every column, as none does.
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
    """Which of a stack of basic points, or a lone one, hold: each is nonnegative and meets
    every row.

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
    xs = np.where(structural, rhs, 0.0)
    resid = b - _times(block, xs)
    row_tol = FEASIBILITY_TOL * np.maximum(1.0, _times(np.abs(block), np.abs(xs)) + np.abs(b))
    met = np.where(sign != 0.0, resid * sign >= -row_tol, np.abs(resid) <= row_tol)
    return (rhs.min(axis=-1, initial=math.inf) >= -FEASIBILITY_TOL) & met.all(axis=-1)


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
        if start.shape != (m,) or not all(0 <= j < cols for j in start.tolist()):
            return CRASH, None
        return CRASH, (start.astype(int), list(range(m)))
    kind = f"ndarray of {start.dtype}" if isinstance(start, np.ndarray) else type(start).__name__
    raise ValidationError("start must be an integer array of basis columns or an LpSolution "
                          f"or a Basis, got {kind}")


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


# -- phase two's rules, over a stack of units ---------------------------------
#
# The lockstep calls each on its batch, one row a unit, and a lone solve on
# its own arrays, which lack that axis.  Its units are ``(unit, basis,
# inverse, c_B)``: their indices among the programs of a ``_Columns`` (None
# for a lone solve), their bases, basis inverses and basic costs, each a row
# (a stack's basic costs a row of one).  A stack's products are batched
# matmuls and its reduced costs fill buffers; a lone unit's reduced costs
# are new arrays and its products dots, cheaper than matmuls here, which round
# alike (the tests check it) but for one entry, in a sign of zero (which only
# prices may keep), and for a transposed strided matrix (``_optimal``'s
# reduced costs keep the matmul, as does a strided ``S``, which a dot copies).

def _each(unit, i):
    """The index of entries ``i``, one row of them a unit: of a stack's array, one row a unit
    (``unit`` its units), ``i[k]`` in row ``k``; of a lone unit's (``unit`` None), ``i``."""
    if unit is None:
        return i
    k = np.arange(len(unit))
    return (k if i.ndim == 1 else k[:, None]), i


def _times(a, v):
    """Each unit's product ``a v``: a stack's batched (``v`` one row a unit), a lone unit's a
    dot, but a matmul where ``v`` or ``a v`` has one entry, as a dot's zero may differ in sign."""
    if v.ndim == 1 and len(v) > 1 < len(a):
        return a.dot(v)
    return (a @ v[..., None])[..., 0]


class _Columns:
    """The columns of a stack of units' programs, with costs ``cost``, as phase two prices them.

    Each unit's are ``S``'s but its first ``w``, its heads, which the
    lockstep's subclass gives (``heads``, ``own``).  ``candidates``, if any,
    are priced first (``StandardForm.candidates``).  Phase one's columns are
    read off its ``tableau``.
    """

    w = 0
    wide = 1  # the units whose heads are taken at once

    def __init__(self, S, cost, candidates=None, tableau=None):
        self.S, self.ST, self.cost, self.cols, self.tableau = S, S.T, cost, S.shape[1], tableau
        self.candidates = candidates if candidates is not None and candidates.size else None
        if self.candidates is not None:  # their columns, costs and each column's place among them
            self.S_c, self.cost_c = S[:, self.candidates], cost[self.candidates]
            self.place = np.full(self.cols, -1)
            self.place[self.candidates] = np.arange(self.candidates.size)

    def room(self, width) -> tuple:
        """Room for the reduced costs of ``width`` units of a stack: every column's, and, in
        its front, the candidates' of as many units as it holds."""
        red = np.empty((width, 1, self.cols))
        if self.candidates is None:
            return red, None
        size = red.size // self.candidates.size
        return red, red.reshape(-1)[:size * self.candidates.size].reshape(size, 1, -1)

    def column(self, q, unit, inverse) -> np.ndarray:
        """Each unit's column ``q`` of its tableau, ``B⁻¹ a_q``: rows × 1 in a stack, or alone."""
        if self.tableau is not None:
            return self.tableau.column(self.S, q)
        a = self.ST[q]
        if self.w:
            self.own(a, q, unit)
        if unit is not None:
            return inverse @ a[:, :, None]
        return inverse.dot(a) if len(a) > 1 else inverse @ a  # as ``_times``


def _entering(red, front, units, columns, bland=False):
    """Each unit's entering column and its column of the tableau, or -1 when it is optimal.

    The candidates of ``columns`` are priced first, and every column of the
    units they leave without one, so an optimum is the whole program's
    whichever columns are candidates.  ``bland`` (a lone solve's, after
    3·(rows+columns) pivots) prices every column (``_chosen``).  A stack is
    priced as many units at a time as ``red`` and ``front`` (``columns.room``)
    hold, a lone unit into new arrays (both None).
    """
    if units[0] is None:  # a lone unit's multipliers, for both passes
        units = (*units, units[3].dot(units[2]))
    if columns.candidates is None or bland:
        return _pass(red, units, columns, None, bland)
    entering, col = _pass(front, units, columns, columns.candidates)
    if units[0] is None:
        return (entering, col) if entering >= 0 else _pass(red, units, columns)
    missed = (entering < 0).nonzero()[0]
    for lo in range(0, missed.size, len(red)):
        at = missed[lo:lo + len(red)]
        entering[at], col[at] = _pass(red, [a[at] for a in units], columns)
    return entering, col


def _pass(red, units, columns, candidates=None, bland=False):
    """``_chosen`` over the units' reduced costs of ``candidates`` (every column when None),
    priced ``len(red)`` units of a stack at a time into ``red``."""
    if units[0] is None or len(units[0]) <= len(red):
        return _chosen(_priced(red, units, columns, candidates), units, columns, candidates, bland)
    chosen = [_chosen(_priced(red, part, columns, candidates), part, columns, candidates, bland)
              for lo in range(0, len(units[0]), len(red))
              for part in [[a[lo:lo + len(red)] for a in units]]]
    return tuple(np.concatenate(a) for a in zip(*chosen))


def _priced(red, units, columns, candidates=None) -> np.ndarray:
    """Each unit's reduced costs of ``candidates`` (every column when None), in ``red`` (a
    lone unit's new, from the multipliers after its arrays); a basic column's is 0."""
    unit, basis = units[0], units[1]
    if unit is None:
        if candidates is None:
            S, y = columns.S, units[4]
            red = columns.cost - (y.dot(S) if S.flags.c_contiguous else y @ S)
            red[basis] = 0.0
            return red
        red = np.empty(candidates.size + 1)  # a basic non-candidate's place, -1, zeroes the last
        np.subtract(columns.cost_c, units[4].dot(columns.S_c), out=red[:-1])
        red[columns.place[basis]] = 0.0
        return red[:-1]
    S, cost = (columns.S, columns.cost) if candidates is None else (columns.S_c, columns.cost_c)
    y = units[3] @ units[2]  # c_B B⁻¹
    red = red[:len(y)]
    np.matmul(y, S, out=red)
    for lo in range(0, len(y), columns.wide) if columns.w else ():
        at = slice(lo, lo + columns.wide)
        red[at, :, :columns.w] = y[at] @ columns.heads(unit[at])
    red = np.subtract(cost, red, out=red)[:, 0]
    if candidates is None:
        red[_each(unit, basis)] = 0.0
    else:  # the basic ones among them
        at = columns.place[basis]
        hit = (at >= 0).nonzero()
        red[hit[0], at[hit]] = 0.0
    return red


def _chosen(red, units, columns, candidates=None, bland=False):
    """Each unit's entering column and its column of the tableau, or -1 when none of
    ``candidates`` (every column when None), whose reduced costs ``red`` holds, improves.

    The lowest reduced cost enters (Dantzig), or with ``bland`` the first
    below ``-PIVOT_TOL``, if it improves and its reduced cost, taken again
    from its column, ``cost[q] - c_B B⁻¹ a_q``, still does: the multipliers
    carry the explicit inverse's rounding, so a column whose own price does
    not improve is priced noise, and letting it in can cycle.  Such a
    column's reduced cost is set to 0 and the next is tried.  A lone unit
    tries one column at a time, and forms none once it is optimal.
    """
    unit, _, inverse, c_B = units[:4]
    while True:
        if bland:
            below = red < -PIVOT_TOL
            at = below.argmax(axis=-1)
            optimal = ~below[_each(unit, at)]
        else:
            at = red.argmin(axis=-1)
            optimal = red[_each(unit, at)] >= -PIVOT_TOL
        if unit is None and optimal:
            return -1, None
        q = at if candidates is None else candidates[at]
        col = columns.column(q, unit, inverse)
        if unit is None:
            if columns.cost[q] - c_B.dot(col) < -PIVOT_TOL:
                return q, col
            red[at] = 0.0
            continue
        priced = columns.cost[q] - (c_B @ col)[:, 0, 0] < -PIVOT_TOL
        noise = ~(optimal | priced)
        if not np.count_nonzero(noise):
            return q - (q + 1) * optimal, col[:, :, 0]  # -1 where optimal
        i = _each(unit, at)
        red[i] = np.where(noise, 0.0, red[i])


def _pivot(both, leaving, col, block=None) -> None:
    """Each unit's pivot on its entry ``leaving`` of ``col``, its entering column of the
    tableau: that row of ``both``, its ``[B⁻¹ | B⁻¹b]``, is divided by the pivot, then ``col``
    times it, but at that row, is taken from every row.  A stack's product is formed ``block``
    units at a time (all at once when None).  ``col`` is overwritten."""
    if not isinstance(leaving, np.ndarray):  # a lone unit's row is a view, divided in place
        row = both[leaving]
        row /= col[leaving]
        col[leaving] = 0.0
        both -= col[:, None] * row
        return
    at = (np.arange(len(both)), leaving)
    row = both[at] / col[at][:, None]
    both[at] = row
    col[at] = 0.0
    for lo in range(0, len(both), block or len(both)):
        at = slice(lo, block and lo + block)
        both[at] -= col[at][:, :, None] * row[at][:, None, :]


def _factor(block, b):
    """Each basis' inverse and basic values, from its matrix ``block`` and right sides ``b``,
    and which bases are nonsingular (a lone basis' True unless it is singular).  A stack is
    inverted at once, and a basis at a time, to find the singular ones, when that fails."""
    ok = True if block.ndim == 2 else np.ones(block.shape[:-2], dtype=bool)
    try:
        inverse = np.linalg.inv(block)
    except np.linalg.LinAlgError:  # a basis of more or fewer columns than rows has none either
        ok = np.ones(block.shape[:-2], dtype=bool)
        inverse = np.zeros(np.swapaxes(block, -1, -2).shape)
        for k in np.ndindex(ok.shape):
            try:
                inverse[k] = np.linalg.inv(block[k])
            except np.linalg.LinAlgError:
                ok[k] = False
    return inverse, _times(inverse, b), ok


def _point(unit, basis, rhs, c, cols):
    """Each optimum's structural values, its basic values ``rhs`` placed among its ``cols``
    columns, then clipped at 0, and its objective value ``c'x``."""
    x = np.zeros((*basis.shape[:-1], cols))
    x[_each(unit, basis)] = rhs
    np.maximum(x, 0.0, out=x)  # a basic value rounded below zero, or -0.0, reads 0.0
    x = x[..., :c.size]
    return x, x.dot(c) if unit is None and c.size > 1 else np.matmul(x[..., None, :], c)[..., 0]


def _optimal(columns, sense, c, unit, basis, rhs, y):
    """Each optimum's solution values: x and the objective value (``_point``), the duals, its
    multipliers ``y`` signed for the problem's sense, the reduced costs ``c - A' duals`` of
    the structural columns of ``columns`` and which of them are basic."""
    x, value = _point(unit, basis, rhs, c, columns.cols)
    duals = (-1.0 if sense == MAXIMIZE else 1.0) * y
    n = c.size
    reduced = (columns.S[:, :n].T @ duals[..., None])[..., 0]
    own = min(columns.w, n)
    if own:  # the heads' columns, a stack's
        reduced[:, :own] = (columns.heads(unit)[:, :, :own].transpose(0, 2, 1)
                            @ duals[:, :, None])[:, :, 0]
    np.subtract(c, reduced, out=reduced)
    basic = np.zeros((*basis.shape[:-1], columns.cols), dtype=bool)
    basic[_each(unit, basis)] = True
    return np.ascontiguousarray(x), value, duals, reduced, np.ascontiguousarray(basic[..., :n])


class _Simplex:
    """One solve over the problem's standard form; walks the two phases."""

    w = 0  # its verdict reads its columns, which have no heads, as ``_Columns``' (``_optimal``)

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
        inverse, rhs, ok = _factor(block, b)
        return (inverse, rhs) if ok else None

    def _holds(self, basis, rhs) -> bool:
        """Whether the basic point with values ``rhs`` holds (``_holding``)."""
        return bool(_holding(self.S[:, basis], rhs, self.b, basis < self.n, self.sign))

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

        A revised simplex over the kept rows of ``S``, each step the
        lockstep's on a lone unit: ``inverse`` is the basis' ``_Inverse``,
        with the basic values, and phase one's ``_Tableau`` gives its
        entering columns off its tableau.  ``_entering`` prices
        ``candidates`` first, by Dantzig's rule until this call has made
        3·(rows+columns) pivots and by Bland's, which cannot cycle, after
        that; the ratio test is ``_leaving``.
        """
        A = S if len(row_keep) == self.m else S[row_keep]
        bland_after = 3 * (A.shape[0] + A.shape[1])
        columns = _Columns(A, cost, candidates, inverse if isinstance(inverse, _Tableau) else None)
        c_B = cost[basis]
        units = (None, basis, inverse.explicit, c_B)
        rhs = inverse.rhs
        pivots = 0
        while True:
            entering, col = _entering(None, None, units, columns, pivots > bland_after)
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
        # multipliers from the final basis' inverse, 0 on a row phase one dropped
        y = _times(inverse.T, self.cc[basis])
        if len(row_keep) < m:
            y, kept = np.zeros(m), y
            y[row_keep] = kept
        x, value, duals, reduced, basic = _optimal(
            self, prob.objective_sense, prob.objective, None, basis, rhs, y)
        return LpSolution(
            status, float(value), _frozen(x), self.iterations,
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
    """A lone solve's basis inverse and basic values, updated by each pivot.

    Both live in one array, ``[B⁻¹ | B⁻¹b]``, so a pivot is one row
    operation (``_pivot``); ``explicit`` and ``rhs`` are views of it.  A
    subclass may keep ``ahead`` more columns in front of them, which that
    operation updates alike.
    """

    def __init__(self, inverse, rhs, ahead=0):
        m = rhs.size
        self.both = np.empty((m, ahead + m + 1))
        self.explicit, self.rhs = self.both[:, ahead:-1], self.both[:, -1]
        self.restart(inverse, rhs)

    def restart(self, inverse, rhs) -> None:  # afresh from a factored inverse
        self.explicit[:] = inverse
        self.rhs[:] = rhs

    def pivot(self, row, col) -> None:
        """Pivot on ``col[row]``, ``col`` being the entering variable's column of the tableau."""
        _pivot(self.both, row, col.copy())


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
        """The tableau's column ``q``, a copy."""
        return self.both[:, q].copy()


def _negative(v):
    """Whether some entry of each unit's ``v`` lies below ``-FEASIBILITY_TOL``."""
    return v.min(axis=-1, initial=math.inf) < -FEASIBILITY_TOL
