"""One builder for every variable-returns-to-scale envelopment program.

The columns are the scale factors, then one intensity vector of ``n``
weights per process, then one free target level per linked intermediate.
Each measure of a process contributes one row::

    sum_j l_j v_j  (<= or >=)  factor * v_o      radial
    sum_j l_j v_j  (<= or >=)  target            free target

and every intensity vector sums to one.  Rows go in a block (one matrix,
one relation) at a time; ``LpProblem`` stacks the blocks into its matrix.
The models differ only in their processes, links, objective and pinned
rows.  The evaluated DMU set against itself (every factor 1, all weight on
itself, every target at its own level) satisfies every row but the pinned
ones, so it starts the solve.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .lp import SLACK_SIGN, LpProblem, LpSolution

# half-width of a pinned score's band: an exact equality rarely re-solves
FIXING_BAND = 1e-6


class Program:
    """Rows over a named column layout, built for the evaluated DMU ``own``."""

    def __init__(self, n: int, own: int, factors: Sequence[str], blocks: Sequence[str],
                 targets: Sequence[str] = ()):
        self.n, self.own = n, own
        self.factor = {f: k for k, f in enumerate(factors)}
        self.block = {b: len(factors) + k * n for k, b in enumerate(blocks)}
        start = len(factors) + len(blocks) * n
        self.target = {t: start + d for d, t in enumerate(targets)}
        self.width = start + len(targets)
        # the row blocks, and each row's slack sign (lp.SLACK_SIGN) and rhs
        self.blocks, self.sign, self.rhs = [], [], []
        self.own_level: dict = {}  # target -> the evaluated DMU's level of it

    def _append(self, A: np.ndarray, rel: str, rhs: float) -> None:
        self.blocks.append(A)
        self.sign += [SLACK_SIGN[rel]] * len(A)
        self.rhs += [rhs] * len(A)

    def envelope(self, block: str, data: np.ndarray, rel: str, *, factor: str | None = None,
                 targets: Sequence[str] = ()) -> None:
        """One row per column of ``data`` (DMUs by measures) against ``block``'s weights."""
        A = np.zeros((data.shape[1], self.width))
        s = self.block[block]
        A[:, s:s + self.n] = data.T
        if factor is not None:
            A[:, self.factor[factor]] = -data[self.own]
        else:
            A[np.arange(len(targets)), [self.target[t] for t in targets]] = -1.0
            self.own_level.update(zip(targets, data[self.own]))
        self._append(A, rel, 0.0)

    def convexity(self) -> None:
        A = np.zeros((len(self.block), self.width))
        for k, s in enumerate(self.block.values()):
            A[k, s:s + self.n] = 1.0
        self._append(A, "=", 1.0)

    def bound(self, coeffs: Mapping[str, float], rel: str, value: float) -> None:
        a = np.zeros((1, self.width))
        for f, v in coeffs.items():
            a[0, self.factor[f]] += v
        self._append(a, rel, value)

    def pin(self, coeffs: Mapping[str, float], value: float) -> None:
        """Hold ``coeffs`` within ``FIXING_BAND`` of ``value``."""
        self.bound(coeffs, "<=", value + FIXING_BAND)
        self.bound(coeffs, ">=", value - FIXING_BAND)

    def problem(self, sense: str, objective: Mapping[str, float]) -> LpProblem:
        c = np.zeros(self.width)
        for f, v in objective.items():
            c[self.factor[f]] = v
        return LpProblem(sense, c, A=self.blocks, row_sign=self.sign, b=self.rhs)

    def own_point(self) -> np.ndarray:
        """The evaluated DMU against itself: a feasible vertex of the unpinned rows."""
        x = np.zeros(self.width)
        x[list(self.factor.values())] = 1.0
        x[[s + self.own for s in self.block.values()]] = 1.0
        for t, k in self.target.items():
            x[k] = self.own_level[t]
        return x

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
