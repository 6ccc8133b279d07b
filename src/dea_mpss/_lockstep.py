"""The lockstep phase two behind ``lp.solve_lockstep``.

It lives apart from ``lp`` so that importing the package, and a single
unit's solve, do not compile it: ``lp.solve_lockstep`` imports it on a
sweep's first solve.  Each step runs ``lp``'s phase-two rules over the
batch (``lp._entering``, ``lp._pivot``), which a lone solve runs on its own
arrays, and reads ``lp``'s tolerances and pivot limits through the module.

A batch may be wide (a sweep steps ``network.SWEEP_WIDTH`` units), so what
it holds per stepping unit is kept small: its basis, ``[B⁻¹ | B⁻¹b]`` and
basic costs, and a unit that finishes leaves them in place (``_kept``).
Whatever else is formed per unit is formed a block of units at a time,
as many as take no more room than the batch's ``[B⁻¹ | B⁻¹b]``
(``_wide``): the start's factors, a step's heads, reduced costs (the
candidates' of as many more units as that room holds) and pivot products,
and the final refactor.  A start is read a unit at a time, or whole when it
is one array (``_begun``).  A finished unit keeps only its basis and pivot
count until the stepping ends; it is then refactored from its final basis
and checked, by the hold check a lone solve makes (``lp._holding``), and
the batch keeps its basis, basic values and multipliers, O(rows) a unit,
for its ``lp.Optimum`` (``run``).  Its solution is formed from those when
it is asked for, with the others asked for at once (``solutions``).
"""

from __future__ import annotations

import math

import numpy as np

from . import lp
from .lp import (CRASH, MINIMIZE, OPTIMAL, WARM, Bases, Lockstep, LpSolution, Optimum, _begun,
                 _Columns, _frozen, _holding, _leaving, _readonly)


class _Lockstep(_Columns):
    """Phase two of many units' started solves; each step is ``_Simplex._iterate``'s, for all.

    It prices its programs' columns, the heads per unit (``lp.Lockstep``),
    by the rules a lone solve prices by (``lp._Columns``).
    """

    def __init__(self, sense, objective, programs: Lockstep):
        self.sense, self.c = sense, _readonly(objective)
        self.programs = programs
        self.sign, self.slack_col_of_row, self.b = (
            programs.sign, programs.slack_col_of_row, programs.b)
        self.buffer = programs.head[None][:0]  # heads' buffer
        self.m, cols = programs.S.shape
        self.n, self.w = self.c.size, programs.head.shape[1]
        cost = np.zeros(cols)  # internal objective is always a minimisation
        cost[:self.n] = self.c if sense == MINIMIZE else -self.c
        super().__init__(programs.S, cost, programs.candidates)

    def run(self, starts) -> list:
        """Each unit's ``lp.Optimum``, or None when it is handed back, in unit order.

        Every unit steps at once, and an optimal one keeps only its start's
        kind, its basis and its pivot count.  Once every unit is done, the
        optimal ones, those that made no pivot included, are refactored from
        their final bases and checked a block at a time.
        """
        self.wide = self._wide(len(starts))
        unit, warm, basis, pivots = self._stepped(starts)
        # no buffer as wide as the batch outlives the steps
        self.buffer = self.programs.head[None][:0]
        # each optimal unit's final basis, refactored basic values and multipliers, by unit
        self.basis = np.zeros((len(starts), self.m), dtype=int)
        self.rhs, self.y = np.zeros((2, len(starts), self.m))
        self.rows = tuple(range(self.m))
        out = [None] * len(starts)
        for lo in range(0, unit.size, self.wide):
            at = slice(lo, lo + self.wide)
            for optimum in self._optima(unit[at], warm[at], basis[at], pivots[at]):
                out[optimum.unit] = optimum
        return out

    def _wide(self, k):
        """The units a block of a batch of ``k`` holds: as many as take no more room, at
        ``cols`` values a unit, than the larger of the batch's ``[B⁻¹ | B⁻¹b]`` and ``S``."""
        m = self.m
        return max(1, min(k, max(m, k * m * (m + 1) // self.cols)))

    def _stepped(self, starts):
        """``[unit, warm, basis, pivots]`` of each unit optimal on the lockstep path, by unit."""
        m, cost = self.m, self.cost
        # one row per unit still stepping: its index, basis, [B⁻¹ | B⁻¹b] and basic
        # costs, and whether it started warm
        unit, basis, both, warm = self._started(starts)
        np.maximum(both[:, :, m], 0.0, out=both[:, :, m])  # rounding noise on degenerate basics
        units = [unit, basis, both, cost[basis], warm]
        optimal = [[unit[:0], warm[:0], basis[:0], np.zeros(0, dtype=int)]]
        room = self.room(min(unit.size, self.wide))  # a block's reduced costs
        limit = min(lp.REFACTOR_EVERY, lp.MAX_ITERATIONS + 1, 3 * (m + self.cols) + 1)
        pivots = 0
        while units[0].size:
            unit, basis, both, c_B, warm = units
            entering, col = lp._entering(*room, [unit, basis, both[..., :m], c_B[:, None]], self)
            done = entering < 0
            if done.any():
                optimal.append([unit[done], warm[done], basis[done], np.full(done.sum(), pivots)])
            *units, entering, col = _kept(~done, [*units, entering, col])
            if not units[0].size:
                break
            leaving = self._leaving(col, units[2][:, :, m], units[1])
            # an unbounded unit is handed back
            *units, entering, col, leaving = _kept(leaving >= 0, [*units, entering, col, leaving])
            _, basis, both, c_B, _ = units
            lp._pivot(both, leaving, col, len(room[0]))
            k = np.arange(len(basis))
            basis[k, leaving] = entering
            c_B[k, leaving] = cost[entering]
            pivots += 1
            if pivots == limit:  # what is left would refactor, switch to Bland or stop
                break
        done = [np.concatenate(a) for a in zip(*optimal)]
        order = done[0].argsort()
        return [a[order] for a in done]

    def _started(self, starts):
        """The units whose start is a nonsingular basis over every row with no negative
        basic value, as ``[unit, basis, [B⁻¹ | B⁻¹b], warm]``.  The bases are factored a
        block at a time."""
        unit, warm, basis = self._begun(starts)
        both = np.empty((unit.size, self.m, self.m + 1))
        ok = np.ones(unit.size, dtype=bool)
        for lo in range(0, unit.size, self.wide):
            at = slice(lo, lo + self.wide)
            both[at, :, :-1], both[at, :, -1], ok[at] = lp._factor(
                self._block(unit[at], basis[at]), self.b[unit[at]])
        ok &= ~lp._negative(both[:, :, -1])
        return _kept(ok, [unit, basis, both, warm])

    def _begun(self, starts):
        """``[unit, warm, basis]`` of each unit whose start ``lp._begun`` takes, with a basis
        over every row.  A crash array of one basis a row, or the ``lp.Bases`` of an earlier
        batch, is read whole, by ``lp._begun``'s checks; any other starts one at a time."""
        m, cols, k = self.m, self.cols, len(starts)
        if isinstance(starts, Bases):  # its program's rows, then the slacks of those added
            added = self.slack_col_of_row[starts.rows:]
            fits = (starts.variables == self.n and starts.rows <= m
                    and added.min(initial=0) >= 0 and len(starts.row_keep) == starts.rows)
            basis = (np.concatenate((starts.columns, np.broadcast_to(added, (k, added.size))), 1)
                     if fits else np.zeros((k, m), dtype=int))
            ok = np.full(k, fits) & (basis.max(axis=1, initial=-1) < cols)
            kind = WARM
        elif isinstance(starts, np.ndarray) and starts.ndim == 2 and starts.dtype.kind in "iu":
            fits = starts.shape[1] == m
            basis = starts.astype(int) if fits else np.zeros((k, m), dtype=int)
            ok = (np.full(k, fits) & (basis.min(axis=1, initial=0) >= 0)
                  & (basis.max(axis=1, initial=-1) < cols))
            kind = CRASH
        else:
            begun = [(j, kind, got[0]) for j, start in enumerate(starts)
                     for kind, got in [_begun(start, self.n, cols, self.slack_col_of_row)]
                     if got is not None and len(got[1]) == m]
            return [np.array([j for j, _, _ in begun], dtype=int),
                    np.array([kind == WARM for _, kind, _ in begun], dtype=bool),
                    np.array([got for _, _, got in begun], dtype=int).reshape(len(begun), m)]
        unit = np.flatnonzero(ok)
        return [unit, np.full(unit.size, kind == WARM), basis[unit]]

    def heads(self, unit):
        """The heads of units ``unit`` (``Lockstep.heads``), written over the last call's."""
        if len(unit) > len(self.buffer):
            self.buffer = np.repeat(self.programs.head[None], len(unit), axis=0)
        return self.programs.heads(unit, out=self.buffer)

    def own(self, a, q, unit):
        """Write into ``a[k]``, ``S``'s column ``q[k]``, unit ``unit[k]``'s own entries of it."""
        rows, cols = self.programs.own_at
        k, at = (q[:, None] == cols).nonzero()
        a[k, rows[at]] = self.programs.own[unit[k], at]

    def _block(self, unit, basis):
        """Each unit's basis matrix: unit ``unit[k]``'s columns ``basis[k]`` of ``S``,
        or of its heads."""
        blocks = self.S.T[basis]  # unit, basis position, row: each block transposed
        own = np.nonzero(basis < self.w)
        blocks[own] = self.heads(unit)[own[0], :, basis[own]]
        return blocks.transpose(0, 2, 1)

    def _leaving(self, col, rhs, basis):
        """Each unit's leaving row, as ``lp._leaving`` finds it; -1 when unbounded.

        A unit's ratios below its lowest plus ``lp.PIVOT_TOL`` are its band.
        When the band is narrower than ``lp.PIVOT_TOL`` and the lowest ratio
        beyond it clears it by ``lp.PIVOT_TOL``, as the scan compares them, the
        scan ends on the band's lowest basis column, the tie rule, whatever
        the order of the rows; the row of that column leaves.  Any other unit
        runs the scan.
        """
        tol = lp.PIVOT_TOL
        ratio = np.full(col.shape, math.inf)
        np.divide(rhs, col, out=ratio, where=col > tol)
        low = np.minimum.reduce(ratio, axis=1)
        band = ratio < (low + tol)[:, None]
        high = np.maximum.reduce(np.where(band, ratio, -math.inf), axis=1)
        beyond = np.minimum.reduce(np.where(band, math.inf, ratio), axis=1)
        clear = ((high > -math.inf) & (low >= high - tol) & (beyond >= high + tol)
                 & (beyond - tol > high))
        leaving = np.where(band, basis, self.cols).argmin(axis=1)
        for k in (~clear).nonzero()[0]:
            leaving[k] = _leaving(col[k], rhs[k], basis[k])
        return leaving

    def _optima(self, unit, warm, basis, pivots) -> list:
        """The optimum of each unit whose basis holds once refactored (``lp._holding``, the
        check ``_Simplex._holds`` makes), as ``_Simplex._verdict`` values it after
        ``pivots[k]`` pivots; its basis, basic values and multipliers are kept by unit."""
        b = self.b[unit]
        block = self._block(unit, basis)
        inverse, rhs, ok = lp._factor(block, b)
        ok &= _holding(block, rhs, b, basis < self.n, self.sign)
        unit, warm, basis, pivots, inverse, rhs = (
            a[ok] for a in (unit, warm, basis, pivots, inverse, rhs))
        _, value = lp._point(unit, basis, rhs, self.c, self.cols)
        self.basis[unit], self.rhs[unit] = basis, rhs
        self.y[unit] = lp._times(inverse.swapaxes(1, 2), self.cost[basis])  # c_B B⁻¹
        return [Optimum(v, iterations, WARM if w else CRASH, u, self) for u, w, iterations, v in
                zip(unit.tolist(), warm.tolist(), pivots.tolist(), value.tolist())]

    def bases(self, units) -> Bases:
        """The final bases of units ``units``, stacked, as a batch's warm starts read them."""
        return Bases(self.basis[units], self.rows, self.m, self.n)

    def solutions(self, optima) -> list:
        """The ``LpSolution`` of each of ``optima``, this batch's, as ``_Simplex._verdict``
        gives it (``lp._optimal``); their arrays are formed together, and each solution's
        are views of them."""
        unit = np.array([o.unit for o in optima], dtype=int)
        basis = self.basis[unit]
        x, _, duals, reduced, basic = lp._optimal(self, self.sense, self.c, unit, basis,
                                                  self.rhs[unit], self.y[unit])
        for a in (x, duals, reduced, basic):
            _frozen(a)
        return [LpSolution(OPTIMAL, o.objective_value, x[k], o.iterations, duals[k], reduced[k],
                           basic[k], o.started, (tuple(columns), self.rows, self.m))
                for k, (o, columns) in enumerate(zip(optima, basis.tolist()))]


def _kept(keep, arrays) -> list:
    """Each of ``arrays`` cut, in place, to the rows ``keep`` marks, as a view of its first
    rows; the arrays themselves when it marks all.

    Each row dropped among the first ``keep.sum()`` takes a kept row from
    beyond them, so only as many rows move as are dropped, and the rows'
    order changes.
    """
    if keep.all():
        return arrays
    k = np.count_nonzero(keep)
    holes, fill = np.flatnonzero(~keep[:k]), k + np.flatnonzero(keep[k:])
    for a in arrays:
        a[holes] = a[fill]
    return [a[:k] for a in arrays]
