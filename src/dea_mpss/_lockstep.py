"""The lockstep phase two behind ``lp.solve_lockstep``.

It lives apart from ``lp`` so that importing the package, and a single
unit's solve, do not compile it: ``lp.solve_lockstep`` imports it on a
sweep's first solve.  It reads ``lp``'s tolerances and pivot limits
through the module at each solve, as ``_Simplex`` reads them.

A batch may be wide (a sweep steps ``network.SWEEP_WIDTH`` units), so what
it holds per stepping unit is kept small: its basis, ``[B⁻¹ | B⁻¹b]`` and
basic costs, and a unit that finishes leaves them in place (``_kept``).
Whatever else is formed per unit is formed a block of units at a time,
as many as take no more room than the batch's ``[B⁻¹ | B⁻¹b]``
(``_wide``): the start's factors, a step's heads and reduced costs, and
the final refactor.  A step prices the program's candidate columns
(``lp.StandardForm.candidates``) first, of as many units at once as the
block's reduced costs have room for, and every column only of the units
they leave without an entering column, a block at a time (``_entering``).  A
start is read a unit at a time, or whole when it is one array
(``_begun``).  A finished unit keeps only its basis and pivot count until
the stepping ends; it is then refactored from its final basis, also when
it made no pivot, and checked with its block, by the hold check a lone
solve makes (``lp._holding``), and the batch keeps its basis, basic values
and multipliers, O(rows) a unit, for its ``lp.Optimum`` (``run``).  Its
solution is formed from those when it is asked for, with the others asked
for at once (``solutions``).
"""

from __future__ import annotations

import math

import numpy as np

from . import lp
from .lp import (CRASH, MAXIMIZE, MINIMIZE, OPTIMAL, WARM, Bases, Lockstep, LpSolution, Optimum,
                 _begun, _frozen, _holding, _leaving, _readonly)


class _Lockstep:
    """Phase two of many units' started solves; each step is ``_Simplex._iterate``'s, for all."""

    def __init__(self, sense, objective, programs: Lockstep):
        self.sense, self.c = sense, _readonly(objective)
        self.programs = programs
        self.S, self.sign, self.slack_col_of_row, self.b = (
            programs.S, programs.sign, programs.slack_col_of_row, programs.b)
        self.heads = programs.head[None][:0]  # _heads' buffer
        self.m, self.cols = self.S.shape
        self.n, self.w = self.c.size, programs.head.shape[1]
        self.cc = np.zeros(self.cols)  # internal objective is always a minimisation
        self.cc[:self.n] = self.c if sense == MINIMIZE else -self.c
        candidates = programs.candidates
        self.candidates = candidates if candidates is not None and candidates.size else None
        if self.candidates is not None:  # their columns, costs and each column's place among them
            self.S_c, self.cc_c = self.S[:, self.candidates], self.cc[self.candidates]
            self.place = np.full(self.cols, -1)
            self.place[self.candidates] = np.arange(self.candidates.size)

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
        self.heads = self.programs.head[None][:0]
        # each optimal unit's final basis, refactored basic values and multipliers, by unit
        self.basis = np.zeros((len(starts), self.m), dtype=int)
        self.rhs, self.y = np.zeros((2, len(starts), self.m))
        self.rows = tuple(range(self.m))
        self.x = np.zeros((min(self.wide, unit.size), self.n))  # a block's x, for its values
        out = [None] * len(starts)
        for lo in range(0, unit.size, self.wide):
            at = slice(lo, lo + self.wide)
            for optimum in self._optima(unit[at], warm[at], basis[at], pivots[at]):
                out[optimum.unit] = optimum
        self.x = None
        return out

    def _wide(self, k):
        """The units a block of a batch of ``k`` holds: as many as take no more room, at
        ``cols`` values a unit, than the larger of the batch's ``[B⁻¹ | B⁻¹b]`` and ``S``."""
        m = self.m
        return max(1, min(k, max(m, k * m * (m + 1) // self.cols)))

    def _stepped(self, starts):
        """``[unit, warm, basis, pivots]`` of each unit optimal on the lockstep path, by unit."""
        m, cc = self.m, self.cc
        # one row per unit still stepping: its index, whether it started warm,
        # its basis, [B⁻¹ | B⁻¹b] and the basic costs
        units, both = self._started(starts)
        optimal = [[a[:0] for a in units] + [np.zeros(0, dtype=int)]]
        np.maximum(both[:, :, m], 0.0, out=both[:, :, m])  # rounding noise on degenerate basics
        units += [both, cc[units[2]]]
        red = np.empty((min(units[0].size, self.wide), 1, self.cols))  # a block's reduced costs
        limit = min(lp.REFACTOR_EVERY, lp.MAX_ITERATIONS + 1, 3 * (m + self.cols) + 1)
        pivots = 0
        while units[0].size:
            entering, col = self._entering(red, units)
            done = entering < 0
            if done.any():
                optimal.append([*(a[done] for a in units[:3]), np.full(done.sum(), pivots)])
            *units, entering, col = _kept(~done, [*units, entering, col])
            if not units[0].size:
                break
            leaving = self._leaving(col, units[3][:, :, m], units[2])
            # an unbounded unit is handed back
            *units, entering, col, leaving = _kept(leaving >= 0, [*units, entering, col, leaving])
            _, _, basis, both, c_B = units
            ar = np.arange(basis.shape[0])
            row = both[ar, leaving] / col[ar, leaving][:, None]
            both[ar, leaving] = row
            col[ar, leaving] = 0.0
            for lo in range(0, ar.size, len(red)):  # a block's product at a time
                at = slice(lo, lo + len(red))
                both[at] -= col[at, :, None] * row[at, None, :]
            basis[ar, leaving] = entering
            c_B[ar, leaving] = cc[entering]
            pivots += 1
            if pivots == limit:  # what is left would refactor, switch to Bland or stop
                break
        done = [np.concatenate(a) for a in zip(*optimal)]
        order = done[0].argsort()
        return [a[order] for a in done]

    def _started(self, starts):
        """The units whose start is a nonsingular basis over every row with no negative
        basic value, as ``[unit, warm, basis]``, and ``[B⁻¹ | B⁻¹b]`` of each.  The
        bases are factored a block at a time."""
        unit, warm, basis = self._begun(starts)
        both = np.empty((unit.size, self.m, self.m + 1))
        ok = np.ones(unit.size, dtype=bool)
        for lo in range(0, unit.size, self.wide):
            at = slice(lo, lo + self.wide)
            both[at, :, :-1], both[at, :, -1], ok[at] = self._factor(
                self._block(unit[at], basis[at]), self.b[unit[at]])
        ok &= ~(both[:, :, -1].min(axis=1, initial=math.inf) < -lp.FEASIBILITY_TOL)
        *units, both = _kept(ok, [unit, warm, basis, both])
        return units, both

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

    def _heads(self, unit):
        """The heads of units ``unit`` (``Lockstep.heads``), written over the last call's."""
        if len(unit) > len(self.heads):
            self.heads = np.repeat(self.programs.head[None], len(unit), axis=0)
        return self.programs.heads(unit, out=self.heads)

    def _priced(self, units, out, columns=None):
        """Each unit's reduced costs of ``columns`` (all when None), as ``_Simplex._iterate``
        prices them, in ``out``; the heads are taken a block of units at a time."""
        unit, _, basis, both, c_B = units
        S, cc = (self.S, self.cc) if columns is None else (self.S_c, self.cc_c)
        y = c_B[:, None, :] @ both[:, :, :self.m]
        red = np.matmul(y, S, out=out[:len(y)])
        for lo in range(0, len(y), self.wide):  # the heads of a full pass' block at a time
            at = slice(lo, lo + self.wide)
            red[at, :, :self.w] = y[at] @ self._heads(unit[at])
        red = np.subtract(cc, red, out=red)[:, 0]
        if columns is None:
            red[np.arange(basis.shape[0])[:, None], basis] = 0.0
        else:
            at = self.place[basis]
            k, i = np.nonzero(at >= 0)
            red[k, at[k, i]] = 0.0
        return red

    def _block(self, unit, basis):
        """Each unit's basis matrix: unit ``unit[k]``'s columns ``basis[k]`` of ``S``,
        or of its heads."""
        blocks = self.S.T[basis]  # unit, basis position, row: each block transposed
        own = np.nonzero(basis < self.w)
        blocks[own] = self._heads(unit)[own[0], :, basis[own]]
        return blocks.transpose(0, 2, 1)

    def _factor(self, block, b):
        """Each basis' inverse and basic values, and which bases are nonsingular."""
        ok = np.ones(len(block), dtype=bool)
        try:
            inverse = np.linalg.inv(block)
        except np.linalg.LinAlgError:  # find the singular ones
            inverse = np.zeros(block.shape)
            for k, a in enumerate(block):
                try:
                    inverse[k] = np.linalg.inv(a)
                except np.linalg.LinAlgError:
                    ok[k] = False
        return inverse, (inverse @ b[:, :, None])[:, :, 0], ok

    def _entering(self, red, units):
        """Each unit's entering column and its column of the tableau, or -1 when optimal,
        as ``_Simplex._iterate`` finds them: the candidates are priced first, and every
        column of the units they leave without one; a unit is optimal when neither pass
        finds one.

        The full pass prices ``len(red)`` units at a time, into ``red``, each
        block of the units the candidates leave without an entering column
        taken from ``units`` as it is priced.  The candidates' pass prices as
        many units at a time as ``red`` holds reduced costs of the
        candidates for, in its front.
        """
        if self.candidates is None:
            return self._pass(red, units)
        size = len(red) * self.cols // self.candidates.size
        entering, col = self._pass(red.reshape(-1)[:size * self.candidates.size].reshape(
            size, 1, -1), units, self.candidates)
        missed = np.flatnonzero(entering < 0)
        for lo in range(0, missed.size, len(red)):
            at = missed[lo:lo + len(red)]
            entering[at], col[at] = self._pass(red, [a[at] for a in units])
        return entering, col

    def _pass(self, red, units, columns=None):
        """``_chosen`` over the units' reduced costs of ``columns`` (all when None), priced
        ``len(red)`` units at a time into ``red``."""
        if units[0].size <= len(red):
            return self._chosen(self._priced(units, red, columns), units, columns)
        chosen = [self._chosen(self._priced(part, red, columns), part, columns)
                  for lo in range(0, units[0].size, len(red))
                  for part in [[a[lo:lo + len(red)] for a in units]]]
        return tuple(np.concatenate(a) for a in zip(*chosen))

    def _chosen(self, red, units, columns=None):
        """Each unit's entering column and its column of the tableau, or -1 when none of
        ``columns`` (all when None), whose reduced costs ``red`` holds, improves.

        As ``lp._entering`` goes for one unit, over the candidates or over
        every column: the lowest reduced cost enters if it improves and its
        reduced cost, taken again from its column, still does; if not that,
        it is set to 0 and the next lowest is tried.
        """
        unit, _, _, both, c_B = units
        at = red.argmin(axis=1)
        improving = ~(red[np.arange(len(red)), at] >= -lp.PIVOT_TOL)
        entering = at if columns is None else columns[at]
        col = self._column(entering, unit, both)
        priced = self.cc[entering] - (c_B[:, None, :] @ col[:, :, None])[:, 0, 0] < -lp.PIVOT_TOL
        for k in (improving & ~priced).nonzero()[0]:  # priced noise: one unit at a time
            while improving[k] and not priced[k]:
                red[k, at[k]] = 0.0
                at[k] = red[k].argmin()
                entering[k] = at[k] if columns is None else columns[at[k]]
                improving[k] = not red[k, at[k]] >= -lp.PIVOT_TOL
                col[k] = self._column(entering[k:k + 1], unit[k:k + 1], both[k:k + 1])[0]
                priced[k] = self.cc[entering[k]] - c_B[k] @ col[k] < -lp.PIVOT_TOL
        entering[~improving] = -1
        return entering, col

    def _column(self, q, unit, both):
        """Unit ``unit[k]``'s column ``q[k]`` of its tableau, ``B⁻¹ a_q``."""
        a = self.S.T[q]  # the template's column, the unit's own levels written in
        rows, cols = self.programs.own_at
        k, at = (q[:, None] == cols).nonzero()
        a[k, rows[at]] = self.programs.own[unit[k], at]
        return (both[:, :, :self.m] @ a[:, :, None])[:, :, 0]

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
        inverse, rhs, ok = self._factor(block, b)
        ok &= _holding(block, rhs, b, basis < self.n, self.sign)
        unit, warm, basis, pivots, inverse, rhs = (
            a[ok] for a in (unit, warm, basis, pivots, inverse, rhs))
        value = self._values(basis, rhs)
        self.basis[unit], self.rhs[unit] = basis, rhs
        # multipliers from the final basis' inverse
        self.y[unit] = (inverse.transpose(0, 2, 1) @ self.cc[basis][:, :, None])[:, :, 0]
        return [Optimum(v, iterations, WARM if w else CRASH, u, self) for u, w, iterations, v in
                zip(unit.tolist(), warm.tolist(), pivots.tolist(), value.tolist())]

    def _values(self, basis, rhs):
        """Each unit's objective value, ``_Simplex._verdict``'s product of the objective with
        the structural values ``_x`` forms: they are placed in ``x``, a block's zeros, and
        taken out again after the product."""
        structural = np.nonzero(basis < self.n)
        at = structural[0], basis[structural]
        x = self.x[:basis.shape[0]]
        x[at] = np.maximum(rhs[structural], 0.0)  # _x's clip, on the values it places
        value = (x[:, None, :] @ self.c[:, None])[:, 0, 0]
        x[at] = 0.0
        return value

    def bases(self, units) -> Bases:
        """The final bases of units ``units``, stacked, as a batch's warm starts read them."""
        return Bases(self.basis[units], self.rows, self.m, self.n)

    def solutions(self, optima) -> list:
        """The ``LpSolution`` of each of ``optima``, this batch's, as ``_Simplex._verdict``
        gives it; their arrays are formed together, and each solution's are views of them."""
        unit = np.array([o.unit for o in optima], dtype=int)
        basis = self.basis[unit]
        x = self._x(basis, self.rhs[unit])
        n = self.n
        # the multipliers signed for the problem's sense
        duals = (-1.0 if self.sense == MAXIMIZE else 1.0) * self.y[unit]
        reduced = np.matmul(self.S[:, :n].T, duals[:, :, None])[:, :, 0]
        own = min(self.w, n)
        reduced[:, :own] = np.matmul(self._heads(unit)[:, :, :own].transpose(0, 2, 1),
                                     duals[:, :, None])[:, :, 0]
        np.subtract(self.c, reduced, out=reduced)
        basic = np.zeros((unit.size, n), dtype=bool)
        structural = np.nonzero(basis < n)
        basic[structural[0], basis[structural]] = True
        for a in (x, duals, reduced, basic):
            _frozen(a)
        return [LpSolution(OPTIMAL, o.objective_value, x[k], o.iterations, duals[k], reduced[k],
                           basic[k], o.started, (tuple(columns), self.rows, self.m))
                for k, (o, columns) in enumerate(zip(optima, basis.tolist()))]

    def _x(self, basis, rhs):
        """Each unit's structural values: its basic values placed, then clipped at 0."""
        structural = np.nonzero(basis < self.n)
        x = np.zeros((basis.shape[0], self.n))
        x[structural[0], basis[structural]] = rhs[structural]
        np.maximum(x, 0.0, out=x)  # a basic value rounded below zero, or -0.0, reads 0.0
        return x


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
