"""Problems built from row triples, crash starts at a point, and seeded random problems.

The solver takes only a program in standard form (``lp.StandardForm``) and
a crash start only as basis columns; the test modules and
``scripts/lp_parity.py`` write their problems as ``(coefficients,
relation, rhs)`` rows and their crash starts as points, through these
helpers.  ``crash_basis`` is the Gram-Schmidt search for a vertex's basis;
no model runs it (each compiled ``Program`` reads its basis off its rows,
``Program._own_basis``), and the tests compare that basis against it.
"""

from __future__ import annotations

import math

import numpy as np

from dea_mpss import lp
from dea_mpss.lp import LpProblem


def lp_problem(sense: str, c, rows, candidates=None) -> LpProblem:
    """The program ``sense c'x`` over ``x >= 0`` with ``(coefficients, relation, rhs)`` rows.

    Its standard form holds the rows as written, then one slack column per
    inequality row (``lp._slack_columns``), with the rhs and each row's
    relation as its slack sign (``lp.SLACK_SIGN``), and ``candidates``, the
    columns phase two prices first, if given.
    """
    c = np.asarray(c, dtype=float)
    A = np.reshape([np.asarray(a, dtype=float) for a, _, _ in rows], (len(rows), c.size))
    sign = np.array([lp.SLACK_SIGN[rel] for _, rel, _ in rows], dtype=float)
    b = np.array([float(rhs) for _, _, rhs in rows])
    slack, slack_col_of_row = lp._slack_columns(sign, c.size)
    S = np.concatenate((A, slack), axis=1)
    arrays = [lp._frozen(a) for a in (S, b, sign, slack_col_of_row)]
    # a field given only when asked for: scripts/lp_parity.py runs older checkouts too
    if candidates is not None:
        arrays.append(lp._frozen(np.array(candidates, dtype=int)))
    return LpProblem(sense, c, standard_form=lp.StandardForm(*arrays))


def crash_start(problem: LpProblem, x):
    """The crash basis of ``problem`` at its feasible vertex ``x``, or None when ``x`` is not one.

    Given None, ``solve_lp`` runs both phases.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n_variables,) or not np.isfinite(x).all():
        return None
    return crash_basis(problem.standard_form, x)


def crash_basis(form: lp.StandardForm, xs):
    """The sorted basis columns of ``form`` at its feasible vertex ``xs``, or None.

    None when ``xs`` is not a vertex.  The basis holds the support of ``xs``
    and the slacks of its loose rows, filled up with slacks of tight
    inequality rows whose removal leaves the support's rows nonsingular.
    """
    m, tol = form.b.size, lp.FEASIBILITY_TOL
    if xs.size and xs.min() < -tol:
        return None
    # the row rule of lp._holding, each row summed over every column
    A = form.S[:, :xs.size]
    resid = form.b - A @ xs
    row_tol = tol * np.maximum(1.0, np.abs(A) @ np.abs(xs) + np.abs(form.b))
    slack = resid * form.sign
    if np.where(form.sign != 0.0, slack < -row_tol, np.abs(resid) > row_tol).any():
        return None
    has_slack = form.sign != 0.0
    loose = has_slack & (slack > row_tol)
    tight = has_slack & ~loose
    cols = np.concatenate((np.flatnonzero(xs > tol), form.slack_col_of_row[loose]))
    if cols.size > m:
        return None
    kept = independent_rows(form.S[:, cols], np.flatnonzero(~tight), np.flatnonzero(tight),
                            cols.size)
    if kept is None:
        return None
    tight[kept] = False  # the slacks of the tight rows left fill the basis
    return np.sort(np.concatenate((cols, form.slack_col_of_row[tight])))


def independent_rows(R, fixed, optional, k):
    """``k`` linearly independent rows of ``R``: every ``fixed`` row, then ``optional`` ones.

    Returns the chosen row indices, or None when the fixed rows are
    dependent or fewer than ``k`` independent rows exist.  Modified
    Gram-Schmidt, in place: each row of ``R`` loses its projections on the
    kept rows, and counts as independent when more than 1e-9 of its own norm
    is left, so rows of any scale compare alike.
    """
    if len(fixed) > k:
        return None
    norms = np.sqrt(np.add.reduce(R * R, axis=1)).tolist()  # summed as np.linalg.norm sums
    kept = []
    for pos, i in enumerate(np.concatenate((fixed, optional)).tolist()):
        if len(kept) == k:
            break
        left = math.sqrt(R[i] @ R[i])
        if left > 1e-9 * norms[i]:
            u = R[i] / left
            R -= (R @ u)[:, None] * u
            kept.append(i)
        elif pos < len(fixed):
            return None
    return kept if len(kept) == k else None


def random_lp(rng: np.random.Generator, max_vars: int = 6, max_cons: int = 6) -> LpProblem:
    """Small integer LP with a healthy mix of statuses."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_cons + 1))
    c = rng.integers(-5, 6, size=n).astype(float)
    rows = []
    for _ in range(m):
        a = rng.integers(-5, 6, size=n).astype(float)
        rel = rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])
        rhs = float(rng.integers(-5, 6))
        rows.append((a, rel, rhs))
    sense = "maximize" if rng.integers(2) else "minimize"
    return lp_problem(sense, c, rows)
