"""Problems built from row triples, crash starts at a point, and seeded random problems.

The solver takes only a program in standard form (``lp.StandardForm``) and
a crash start only as basis columns; the test modules and
``scripts/lp_parity.py`` write their problems as ``(coefficients,
relation, rhs)`` rows and their crash starts as points, through these
helpers.
"""

from __future__ import annotations

import numpy as np

from dea_mpss import lp
from dea_mpss.lp import LpProblem


def lp_problem(sense: str, c, rows) -> LpProblem:
    """The program ``sense c'x`` over ``x >= 0`` with ``(coefficients, relation, rhs)`` rows.

    Its standard form holds the rows as written, then one slack column per
    inequality row (``lp._slack_columns``), with ``|A|``, the rhs and each
    row's relation as its slack sign (``lp.SLACK_SIGN``).
    """
    c = np.asarray(c, dtype=float)
    A = np.reshape([np.asarray(a, dtype=float) for a, _, _ in rows], (len(rows), c.size))
    sign = np.array([lp.SLACK_SIGN[rel] for _, rel, _ in rows], dtype=float)
    b = np.array([float(rhs) for _, _, rhs in rows])
    slack, slack_col_of_row = lp._slack_columns(sign, c.size)
    form = lp.StandardForm(np.concatenate((A, slack), axis=1), np.abs(A), b, sign,
                           slack_col_of_row)
    for a in form:
        a.setflags(write=False)
    return LpProblem(sense, c, standard_form=form)


def crash_start(problem: LpProblem, x):
    """The crash basis of ``problem`` at its feasible vertex ``x``, or None when ``x`` is not one.

    Given None, ``solve_lp`` runs both phases.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n_variables,) or not np.isfinite(x).all():
        return None
    return lp._crash_basis(problem.standard_form, x)


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
