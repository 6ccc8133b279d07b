"""Rank-based consistency testing across score vectors (Kruskal-Wallis)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Midrank assignment, 1-based; tied values share the average rank."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError("ranks need a nonempty 1-d vector")
    if not np.isfinite(v).all():  # each NaN would take a rank of its own
        raise ValidationError("ranks need finite values")
    return _midranks(v)[0]


def _midranks(v: np.ndarray):
    """Each value's midrank, and the size of each run of tied values, from one sort.

    A run of ``c`` ties ending at rank ``e`` shares ``e - (c - 1) / 2``,
    the average of ranks ``e - c + 1 .. e``, exact in float.
    """
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


@dataclass(frozen=True)
class KwResult:
    h_statistic: float
    degrees_of_freedom: int
    p_value: float
    tie_corrected: bool


def kruskal_wallis(groups: Sequence[Sequence[float]], *, tie_correction: bool = True) -> KwResult:
    """H statistic on pooled midranks with the usual tie correction.

    The degenerate all-tied case (correction denominator zero) is defined
    as H = 0, p = 1.
    """
    if len(groups) < 2:
        raise ValidationError("kruskal_wallis needs at least two groups")
    vecs = [np.asarray(g, dtype=float) for g in groups]
    for k, g in enumerate(vecs):
        if g.ndim != 1 or g.size == 0:
            raise ValidationError(f"group {k} must be a nonempty vector")
        if not np.isfinite(g).all():
            raise ValidationError(f"group {k} holds a non-finite value")
    pooled = np.concatenate(vecs)
    n_total = pooled.size
    ranks, counts = _midranks(pooled)
    h = 0.0
    start = 0
    for g in vecs:
        r_sum = float(ranks[start:start + g.size].sum())
        h += r_sum * r_sum / g.size
        start += g.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    if tie_correction:
        correction = 1.0 - float(((counts ** 3) - counts).sum()) / (n_total ** 3 - n_total)
        if correction <= 0.0:
            return KwResult(0.0, len(groups) - 1, 1.0, True)
        h /= correction
    h = max(h, 0.0)
    df = len(groups) - 1
    return KwResult(h, df, chi_square_sf(h, df), tie_correction)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized upper gamma."""
    if x < 0:
        raise ValidationError("chi-square statistic must be nonnegative")
    if int(df) != df or df <= 0:
        raise ValidationError("degrees of freedom must be a positive integer")
    if x == 0.0:
        return 1.0
    return _regularized_upper_gamma(df / 2.0, x / 2.0)


def _regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) to ~1e-15 relative accuracy (series below a+1, else Lentz CF)."""
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_continued_fraction(a, x)


def _lower_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    k = a
    for _ in range(500):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_continued_fraction(a: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
