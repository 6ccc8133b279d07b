"""One builder for every variable-returns-to-scale envelopment program.

The columns are the scale factors, then one intensity vector of ``n``
weights per process, then one free target level per linked intermediate.
Each measure of a process contributes one row::

    sum_j l_j v_j  (<= or >=)  factor * v_o      radial
    sum_j l_j v_j  (<= or >=)  target            free target

and every intensity vector sums to one.  The models differ only in their
processes, links, objective and pinned rows.

A ``Program`` is compiled once per dataset and model.  Only the evaluated
unit ``o``'s own levels, the ``-v_o`` entries of the factor columns, depend
on ``o``; the intensity blocks, the slack columns (laid out by ``lp``), the
row signs and the pinned rows' coefficients are built once, into read-only
arrays, the rows and slacks as one matrix in the standard form the simplex
reads (``lp.StandardForm``).  ``Program.unit`` copies that matrix once per
unit and writes the unit's levels in; a sweep's units copy nothing, as
``Program.lockstep`` hands the solver the template and each unit's own
levels and right sides.  Pinned rows come last, in pairs, so a program
with ``k`` pairs pinned is a row and column prefix of the unit's arrays;
``Program.right_sides`` holds each pair within ``FIXING_BAND`` of its
score, on right sides that may be negative (the solver's phase one reads
their signs), for a lone unit's problem and for a lockstep batch alike.
The unit set against itself (every factor 1, all weight on itself, every
target at its own level) meets every row but the pinned ones with
equality, so a basis there starts the solve.  On
that point's support the rows form a signed incidence matrix: a
convexity row is nonzero at its block only, and every other row at most
at its block and at one factor or target, the column it names.  Which rows
the basis keeps therefore follows from which column each row names, not
from the data, so the compile reads it off once and each unit's copy is
that basis with the unit's own weight columns (``Program.crash_bases``).

The compile also picks, once, each block's candidate units
(``candidate_units``): the units that best a fixed set of positive
directions over the block's measures, so units on its frontier, in O(units)
work a direction.  A started phase two prices their intensity columns and
every other column but the intensities first (``lp.StandardForm.candidates``),
for every unit alike, so a lone unit takes the pivots it takes in a
lockstep batch; the full pricing pass that certifies each optimum makes the
result exact whichever units were picked.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from .lp import (SLACK_SIGN, Lockstep, LpProblem, LpSolution, StandardForm, _frozen,
                 _slack_columns)

# half-width of a pinned score's band: an exact equality rarely re-solves
FIXING_BAND = 1e-6
# leading columns (the factors among them) a lockstep solve takes per unit,
# or all columns of a narrower program
HEAD_COLUMNS = 16
# units below which a program has no candidate set and every phase two step
# prices every column: the columns a candidate set leaves out then cost less
# to price than its second pass does.  Measured in-process on the first n
# units of the seed-1 chain-300 and pinned-stages-300 files, whole-file
# commands with a candidate set against none, 14 alternations: the sweeps
# took 1.23 and 1.03 times as long at n = 60, 0.90 and 0.87 at 100, 0.72 and
# 1.01 at 150, and 0.68 and 0.96 at 200.
CANDIDATE_UNITS = 100


class Program:
    """Rows over a named column layout, for every unit of one dataset."""

    def __init__(self, n: int, factors: Sequence[str], blocks: Sequence[str],
                 targets: Sequence[str] = ()):
        self.n = n
        self.factor = {f: k for k, f in enumerate(factors)}
        self.block = {b: len(factors) + k * n for k, b in enumerate(blocks)}
        start = len(factors) + len(blocks) * n
        self.target = {t: start + d for d, t in enumerate(targets)}
        self.width = start + len(targets)
        # the row blocks, and each row's slack sign (lp.SLACK_SIGN) and rhs
        self.blocks, self.sign, self.rhs = [], [], []
        # the support column each row names (a convexity row its block's
        # first weight), or -1 for none; the crash basis is read off these
        self.names = []
        # the -v_o entries: their rows (their factor columns are the ones
        # the rows name) and, one block of rows per envelope, the levels of
        # their measures (rows × DMUs)
        self.own_rows, self.own_levels = [], [np.zeros((0, n))]
        self.pins = 0     # pairs of pinned rows, after every other row

    def _append(self, A: np.ndarray, rel: str, rhs: float, names: Sequence[int]) -> None:
        self.blocks.append(A)
        self.sign += [SLACK_SIGN[rel]] * len(A)
        self.rhs += [rhs] * len(A)
        self.names += names

    def envelope(self, block: str, data: np.ndarray, rel: str, *, factor: str | None = None,
                 targets: Sequence[str] = ()) -> None:
        """One row per column of ``data`` (DMUs by measures) against ``block``'s weights."""
        A = np.zeros((data.shape[1], self.width))
        s = self.block[block]
        A[:, s:s + self.n] = data.T
        if factor is not None:  # its entries are written per unit
            first = len(self.sign)
            self.own_rows += range(first, first + len(A))
            self.own_levels.append(data.T)
            names = [self.factor[factor]] * len(A)
        else:
            names = [self.target[t] for t in targets]
            A[np.arange(len(targets)), names] = -1.0
            names += [-1] * (len(A) - len(targets))
        self._append(A, rel, 0.0, names)

    def convexity(self) -> None:
        A = np.zeros((len(self.block), self.width))
        for k, s in enumerate(self.block.values()):
            A[k, s:s + self.n] = 1.0
        self._append(A, "=", 1.0, list(self.block.values()))

    def _row(self, coeffs: Mapping[str, float]) -> np.ndarray:
        a = np.zeros((1, self.width))
        for f, v in coeffs.items():
            a[0, self.factor[f]] += v
        return a

    def bound(self, factor: str, rel: str) -> None:
        """The row ``factor rel 1``: a bound at the own point's scale."""
        self._append(self._row({factor: 1.0}), rel, 1.0, [self.factor[factor]])

    def pin(self, coeffs: Mapping[str, float]) -> None:
        """A pair of rows held within ``FIXING_BAND`` of a score (``right_sides``)."""
        a = self._row(coeffs)
        self._append(a, "<=", 0.0, [-1])
        self._append(a, ">=", 0.0, [-1])
        self.pins += 1

    def compile(self) -> "Program":
        """Build the read-only template every ``unit`` copies; returns the program."""
        m, w = len(self.sign), self.width
        self._sign, self._rhs = np.array(self.sign), np.array(self.rhs)
        # the standard form: the rows, then one slack column per inequality row
        slack, self._slack_col = _slack_columns(self._sign, w)
        self._S = np.concatenate((np.concatenate(self.blocks), slack), axis=1)
        rows = np.array(self.own_rows, dtype=int)
        self._own_at = (rows, np.array(self.names, dtype=int)[rows])
        # per unit, its own levels of the factor rows' measures
        self._own_levels = np.concatenate(self.own_levels)
        self.fixed = m - 2 * self.pins
        # (rows, columns) of the program with k pinned pairs, k = 0 .. pins
        self._shape = [(r, w + sum(map(bool, self.sign[:r])))
                       for r in range(self.fixed, m + 1, 2)]
        self._crash, self._crash_own = self._own_basis()
        self._candidates = self._candidate_columns()
        for a in self.template():
            a.setflags(write=False)
        self.blocks = self.own_levels = self.names = None  # in the template now
        return self

    def _candidate_columns(self) -> np.ndarray:
        """The columns a started phase two prices first (``lp.StandardForm.candidates``),
        ascending: every column but the intensities, the first ``HEAD_COLUMNS``, and each
        block's candidate units (``candidate_units``).  Below ``CANDIDATE_UNITS`` units
        there are none, so every step prices every column."""
        first, n, blocks = len(self.factor), self.n, len(self.block)
        if n < CANDIDATE_UNITS:
            return np.zeros(0, dtype=int)
        # the unpinned rows' intensity entries, by block, row and unit
        levels = self._S[:self.fixed, first:first + blocks * n].reshape(self.fixed, blocks, n)
        units = candidate_units(levels.transpose(1, 0, 2), self._sign[:self.fixed])
        keep = np.ones(self._S.shape[1], dtype=bool)
        keep[first:first + blocks * n] = False
        keep[(first + n * np.arange(blocks))[:, None] + units] = True
        keep[:HEAD_COLUMNS] = True
        return np.flatnonzero(keep)

    def template(self) -> tuple:
        """The compiled arrays, all read-only."""
        return (self._S, self._sign, self._rhs, self._slack_col, *self._own_at, self._own_levels,
                self._crash, self._crash_own, self._candidates)

    def _candidates_of(self, cols) -> np.ndarray:
        """The candidate columns of the program of ``cols`` columns, a prefix of the template."""
        return self._candidates[:self._candidates.searchsorted(cols)]

    def _own_basis(self):
        """The crash basis at the own point, with unit 0's weight columns, and 1 at each of those.

        The support is the factors, each block's first weight and the
        targets; every unpinned row is tight.  Take every convexity row and
        the first row naming each factor or target.  On the support, in
        that order and with the block columns first, they form a lower
        triangular matrix whose diagonal holds the named entries (1, -1 or
        minus one of the unit's levels, never 0), so they are independent
        whatever the unit.  The slacks of the other inequality rows
        complete the basis.  Unit ``o``'s basis is this one with ``o``
        added to its weight columns.  Both are empty when some block has no
        convexity row or some factor or target is named by no unpinned row;
        the solve then starts cold.
        """
        starts = list(self.block.values())
        support = [*range(len(self.factor)), *starts, *self.target.values()]
        first = {}
        for i, c in enumerate(self.names[:self.fixed]):
            first.setdefault(c, i)
        first.pop(-1, None)
        if len(first) < len(support):
            return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        kept = set(first.values())
        slacks = [self._slack_col[i] for i in range(self.fixed) if self.sign[i] and i not in kept]
        basis = np.array(support + slacks)  # ascending: slacks follow the rows' columns
        own = np.zeros(basis.size, dtype=int)
        own[np.searchsorted(basis, starts)] = 1
        return basis, own

    def unit(self, own: int) -> "Unit":
        """The program of unit ``own``: the template, copied, with that unit's levels."""
        return Unit(self, own)

    def objective(self, coeffs: Mapping[str, float]) -> np.ndarray:
        """The objective vector giving each named factor its coefficient."""
        c = np.zeros(self.width)
        for f, v in coeffs.items():
            c[self.factor[f]] = v
        return c

    def crash_bases(self, owns: Sequence[int]) -> np.ndarray:
        """Each unit's crash basis of the unpinned program, one a row, as ``solve_lp`` takes it.

        It is the basis at the own point, the evaluated DMU against itself
        (every factor 1, all weight on itself, every target at its own
        level), a feasible vertex of the unpinned rows.  Empty when the
        compile found none.
        """
        return self._crash + self._crash_own * np.asarray(owns)[:, None]

    def right_sides(self, pinned: np.ndarray) -> np.ndarray:
        """Each unit's right sides, a fresh row each, its pinned pairs within ``FIXING_BAND``.

        Unit ``k``'s first ``pinned.shape[1]`` pairs hold ``pinned[k]``.
        Only right sides are written, of any sign: the rows stay as
        compiled, and the solver's phase one reads the signs.
        """
        k, pins = pinned.shape
        m = self._shape[pins][0]
        b = np.empty((k, m))
        b[:] = self._rhs[:m]
        b[:, self.fixed:m:2] = pinned + FIXING_BAND
        b[:, self.fixed + 1:m:2] = pinned - FIXING_BAND
        return b

    def lockstep(self, owns: Sequence[int], pinned: np.ndarray) -> Lockstep:
        """The programs of units ``owns``, unit ``k`` pinned at ``pinned[k]``, as one ``Lockstep``.

        No unit copies the template: each unit's heads are its first
        ``HEAD_COLUMNS`` columns, or all of them in a narrower program (the
        factors, so its own levels, are among them), and the batch holds
        only the template's and each unit's own levels and right sides.
        """
        _, pins = pinned.shape
        m, cols = self._shape[pins]
        return Lockstep(self._S[:m, :cols], self._sign[:m], self._slack_col[:m],
                        self._S[:m, :min(HEAD_COLUMNS, cols)], self._own_at,
                        -self._own_levels[:, owns].T, self.right_sides(pinned),
                        self._candidates_of(cols))

    # -- reading a solution by column name --------------------------------

    def factors(self, sol: LpSolution) -> dict:
        return {f: float(sol.variable_values[k]) for f, k in self.factor.items()}

    def weights(self, sol: LpSolution) -> dict:
        return {b: sol.variable_values[s:s + self.n] for b, s in self.block.items()}

    def targets(self, sol: LpSolution) -> dict:
        return {t: float(sol.variable_values[k]) for t, k in self.target.items()}

    def targets_unique(self, sol: LpSolution) -> bool:
        """False when a nonbasic target has zero reduced cost (an alternate optimum)."""
        return not any(not sol.basic[k] and abs(sol.reduced_costs[k]) <= 1e-9
                       for k in self.target.values())


# positive directions whose best unit in each block is a candidate.  Measured
# on the seed 1-3 chain-300 and pinned-stages-300 sweeps (scripts/sweep_cost.py
# counts the same): 3.6, 3.0, 2.6 and 2.4 full pricing passes a chain solve,
# 2.0, 1.6, 1.6 and 1.3 a stage solve, at 16, 32, 64 and 128 directions.  Past
# 32 the passes fall slowly while the compile's cost, paid by every --dmu
# call, grows with the count.
DIRECTIONS = 32


@functools.lru_cache(maxsize=None)
def _directions(blocks: int, rows: int) -> np.ndarray:
    """``DIRECTIONS`` fixed positive directions over ``rows`` rows for each of ``blocks``
    blocks, read-only: the first points of Roberts' additive low-discrepancy sequence in
    ``rows`` dimensions, each coordinate in [0.01, 1).  No random generator is drawn on,
    so ``numpy.random`` is never imported."""
    phi = 2.0  # the positive root of x^(rows + 1) = x + 1
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (rows + 1))
    steps = np.arange(1, blocks * DIRECTIONS + 1)[:, None] * phi ** -np.arange(1.0, rows + 1)
    return _frozen((0.01 + 0.99 * np.modf(0.5 + steps)[0]).reshape(blocks, DIRECTIONS, rows))


def candidate_units(levels: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Each block's candidate units: the unit that bests each of its fixed positive
    directions (``_directions``), one a direction, so some may repeat.

    ``levels`` holds each block's entries of the rows (blocks × rows ×
    units) and ``sign`` the rows' slack signs.  A row's measure is better
    the lower on a "<=" row and the higher on a ">=" row, scaled by its
    total over the units; an "=" row, and a row with no entry in the
    block, counts for nothing.  A unit that bests a positive direction is
    on its block's frontier, whatever the data.
    """
    scale = np.abs(np.add.reduce(levels, axis=2))
    weights = _directions(*scale.shape) * (-sign / np.where(scale > 0.0, scale, 1.0))[:, None]
    return (weights @ levels).argmax(axis=2)


class Unit:
    """One unit's copy of a compiled program; it is never written after it is made."""

    def __init__(self, program: Program, own: int):
        p = self.program = program
        self.own = own
        self._S = p._S.copy()
        self._S[p._own_at] = -p._own_levels[:, own]

    def problem(self, sense: str, objective: Mapping[str, float],
                pinned: Sequence[float]) -> LpProblem:
        """The program with its first ``len(pinned)`` pairs held at ``pinned``, in standard form."""
        p = self.program
        m, cols = p._shape[len(pinned)]
        b = p.right_sides(np.array([pinned], dtype=float))[0]
        form = StandardForm(_frozen(self._S[:m, :cols]), _frozen(b), p._sign[:m],
                            p._slack_col[:m], p._candidates_of(cols))
        return LpProblem(sense, p.objective(objective), standard_form=form)
