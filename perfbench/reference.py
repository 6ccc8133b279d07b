"""Reference scores assembled apart from the package and solved by HiGHS.

Each program is laid out here from the measure matrices, with its own
variable order, and every measure is divided by the evaluated unit's own
level first.  That rescaling leaves every score unchanged (the factors
multiply the unit's own levels, and the peers are divided by the same
constant) while keeping log-spread data near 1 for the solver.

A reference counts only once certified: the HiGHS point must be primal
feasible, its multipliers dual feasible, and the two objectives equal.
``Uncertified`` is raised otherwise, so a reference is never trusted blind.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.optimize import linprog

BAND = 1e-6  # the lexicographic stage programs pin earlier optima this closely
TOL = 1e-7


class Uncertified(Exception):
    """HiGHS gave no optimum, or one that fails the certificate."""


def read_matrix(path, names):
    """Unit ids and the ``names`` columns of a ``dmu,...`` CSV file."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = [r["dmu"] for r in rows]
    return ids, np.array([[float(r[m]) for m in names] for r in rows]).reshape(len(rows), len(names))


def certified_min(c, a_ub, b_ub, a_eq, b_eq, tol=TOL):
    """min c'x, a_ub x <= b_ub, a_eq x = b_eq, x >= 0; returns (value, x)."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise Uncertified(f"HiGHS: {res.message}")
    x, y_ub, y_eq = res.x, res.ineqlin.marginals, res.eqlin.marginals
    slack = a_ub @ x - b_ub
    if np.any(slack > tol * np.maximum(1.0, np.abs(a_ub) @ np.abs(x) + np.abs(b_ub))):
        raise Uncertified("inequality rows violated")
    if np.any(np.abs(a_eq @ x - b_eq) > tol * np.maximum(1.0, np.abs(a_eq) @ np.abs(x))):
        raise Uncertified("equality rows violated")
    if np.any(x < -tol) or np.any(y_ub > tol):
        raise Uncertified("sign of a variable or multiplier violated")
    reduced = c - a_ub.T @ y_ub - a_eq.T @ y_eq
    scale = np.abs(c) + np.abs(a_ub.T) @ np.abs(y_ub) + np.abs(a_eq.T) @ np.abs(y_eq)
    if np.any(reduced < -tol * np.maximum(1.0, scale)):
        raise Uncertified("reduced costs violated")
    primal, dual = float(c @ x), float(b_ub @ y_ub + b_eq @ y_eq)
    if abs(primal - dual) > tol * max(1.0, abs(primal)):
        raise Uncertified(f"duality gap {primal - dual:.3g}")
    return primal, x


class _Program:
    """Rows over a fixed number of nonnegative variables."""

    def __init__(self, nv):
        self.nv = nv
        self.ub, self.ub_rhs, self.eq, self.eq_rhs = [], [], [], []

    def le(self, row, rhs=0.0):
        self.ub.append(row)
        self.ub_rhs.append(rhs)

    def ge(self, row, rhs=0.0):
        self.le(-row, -rhs)

    def block(self, start, column, extra=None):
        """``column`` over the intensity block at ``start``, plus {var: coef}."""
        row = np.zeros(self.nv)
        row[start:start + column.size] = column
        for j, v in (extra or {}).items():
            row[j] += v
        return row

    def unit(self, coefs):
        row = np.zeros(self.nv)
        for j, v in coefs.items():
            row[j] += v
        return row

    def maximize(self, coefs):
        c = -self.unit(coefs)
        value, x = certified_min(c, np.array(self.ub), np.array(self.ub_rhs),
                                 np.array(self.eq), np.array(self.eq_rhs))
        return -value, x


def _scaled(m, o):
    return m / m[o]


def two_stage_scores(X1, Z, Y1, X2, Y2, o, *, radial=False, lex=False):
    """System score of unit ``o`` and, with ``lex``, the pinned stage scores.

    Variables: [t11, t21, t12, t22, l1(n), l2(n), zt(p)] (zt only with free
    intermediates).  The stage programs follow the banded lexicographic
    formulation of the network oracle in ``tests/net_oracle.py``.
    """
    X1, Z, Y1, X2, Y2 = (_scaled(m, o) for m in (X1, Z, Y1, X2, Y2))
    n, p = Z.shape
    t11, t21, t12, t22, l1, l2 = 0, 1, 2, 3, 4, 4 + n
    zt = 4 + 2 * n
    prog = _Program(zt + (0 if radial else p))
    for i in range(X1.shape[1]):
        prog.le(prog.block(l1, X1[:, i], {t11: -1.0}))
    for d in range(p):
        if radial:
            prog.ge(prog.block(l1, Z[:, d], {t21: -1.0}))
            prog.le(prog.block(l2, Z[:, d], {t12: -1.0}))
        else:
            prog.ge(prog.block(l1, Z[:, d], {zt + d: -1.0}))
            prog.le(prog.block(l2, Z[:, d], {zt + d: -1.0}))
    for r in range(Y1.shape[1]):
        prog.ge(prog.block(l1, Y1[:, r], {t21: -1.0}))
    for i in range(X2.shape[1]):
        prog.le(prog.block(l2, X2[:, i], {t12: -1.0}))
    for r in range(Y2.shape[1]):
        prog.ge(prog.block(l2, Y2[:, r], {t22: -1.0}))
    for start in (l1, l2):
        prog.eq.append(prog.block(start, np.ones(n)))
        prog.eq_rhs.append(1.0)
    system = {t22: 1.0, t11: -1.0}
    score, _ = prog.maximize(system)
    out = {"system": score}
    if lex:
        prog.le(prog.unit(system), score + BAND)
        prog.ge(prog.unit(system), score - BAND)
        stage1 = {t21: 1.0, t11: -1.0}
        out["stage1"], _ = prog.maximize(stage1)
        prog.le(prog.unit(stage1), out["stage1"] + BAND)
        prog.ge(prog.unit(stage1), out["stage1"] - BAND)
        out["stage2"], _ = prog.maximize({t22: 1.0, t12: -1.0})
    return out


def chain_score(XO, ZO, XR, ZR, Y, o, weights=(1.0, 1.0, 1.0)):
    """Chain scale-size score of unit ``o``: max w1 tM - w2 tO - w3 tR.

    Variables: [tO, tR, tM, zo(p), zr(e), l(n), mu(n), phi(n)].
    """
    XO, ZO, XR, ZR, Y = (_scaled(m, o) for m in (XO, ZO, XR, ZR, Y))
    n, p = ZO.shape
    e = ZR.shape[1]
    tO, tR, tM, zo, zr = 0, 1, 2, 3, 3 + p
    lam = 3 + p + e
    mu, phi = lam + n, lam + 2 * n
    prog = _Program(phi + n)
    for i in range(XO.shape[1]):
        prog.le(prog.block(lam, XO[:, i], {tO: -1.0}))
    for k in range(XR.shape[1]):
        prog.le(prog.block(mu, XR[:, k], {tR: -1.0}))
    for d in range(p):
        prog.ge(prog.block(lam, ZO[:, d], {zo + d: -1.0}))
        prog.le(prog.block(phi, ZO[:, d], {zo + d: -1.0}))
    for d in range(e):
        prog.ge(prog.block(mu, ZR[:, d], {zr + d: -1.0}))
        prog.le(prog.block(phi, ZR[:, d], {zr + d: -1.0}))
    for r in range(Y.shape[1]):
        prog.ge(prog.block(phi, Y[:, r], {tM: -1.0}))
    for start in (lam, mu, phi):
        prog.eq.append(prog.block(start, np.ones(n)))
        prog.eq_rhs.append(1.0)
    w1, w2, w3 = weights
    score, _ = prog.maximize({tM: w1, tO: -w2, tR: -w3})
    return score
