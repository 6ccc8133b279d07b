"""Efficiency and scale-size models for the series-parallel value chain.

The chain has two parallel stage-1 processes (called operation and
research below, after the declaration order in the topology) feeding one
stage-2 process through intermediate measures.  One solve produces all
stage factors at once:

efficiency (factors bounded)::

    min  w1*tO + w2*tR - w3*tM
    s.t. operation:  sum_j l_j  XO_ij <= tO XO_io,   sum_j l_j  ZO_dj >= ZO~_d
         research:   sum_j m_j  XR_kj <= tR XR_ko,   sum_j m_j  ZR_ej >= ZR~_e
         market:     sum_j f_j  ZO_dj <= ZO~_d,      sum_j f_j  ZR_ej <= ZR~_e
                     sum_j f_j  Y_rj  >= tM Y_ro
         each intensity vector sums to 1;  tO <= 1, tR <= 1, tM >= 1

scale size (same constraints, factors merely nonnegative)::

    max  w1*tM - w2*tO - w3*tR

The ZO~/ZR~ values are free target levels for the intermediates; the
scale-size optimum reports them as the appropriate levels for target
setting.  The per-stage split pins the solved chain score inside a narrow
band and re-optimises radial stage factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .data import SERIES_PARALLEL_CHAIN, Dataset, NetworkTopology
from .errors import SolverError, ValidationError
# Tracer.install (perfbench/spans.py) wraps it here; every solve is made in network._solves
from .lp import solve_lp  # noqa: F401
from .network import EPS_MPSS, _Model, _program, _solves, _sweep, _validated
from .program import Program

DOWN = "↓"
UP = "↑"
MAINTAIN = "maintain"
# a target gap within this share of the current level reads "maintain"
MAINTAIN_TOL = 1e-6


@dataclass(frozen=True)
class ChainWeights:
    """Preference weights over the chain objectives; all must be >= 0.

    ``(1, 1, 1)`` follows the usual equal-importance convention.  The
    alternative ``(1, 0.5, 0.5)`` normalises the two parallel contraction
    factors so that a DMU evaluated against itself scores exactly zero.
    """

    w1: float = 1.0
    w2: float = 1.0
    w3: float = 1.0

    def __post_init__(self):
        weights = (self.w1, self.w2, self.w3)
        if not np.isfinite(weights).all():
            raise ValidationError(f"chain weights must be finite: {weights}")
        if min(weights) < 0:
            raise ValidationError("chain weights must be nonnegative")


SELF_NORMALIZED_WEIGHTS = ChainWeights(1.0, 0.5, 0.5)

BLOCKS = ("operation", "research", "market")
FACTORS = ("theta_operation", "theta_rd", "theta_market")
RADIAL_FACTORS = ("theta1", "theta2", "theta3", "theta4", "theta_market")


# the chain programs: free targets with the efficiency bounds, free targets,
# and radial targets under the pinned chain score
EFFICIENCY, SCALE_SIZE, SPLIT = "chain_efficiency", "chain_mpss", "chain_split"
CHAIN_GAP = {"theta_market": 1.0, "theta1": -1.0, "theta3": -1.0}


def _chain_program(dataset: Dataset, topology: NetworkTopology, model: str) -> Program:
    """Rows of the chain models: free intermediate targets, or radial ones.

    Radially, the operation intermediates scale with ``theta2`` and the
    research intermediates with ``theta4`` on both the supply and use side.
    """
    _validated(dataset, topology, SERIES_PARALLEL_CHAIN)
    operation, research = topology.stage_processes(1)
    market = topology.stage_processes(2)[0]
    zo, zr = operation.intermediate_outputs, research.intermediate_outputs
    if model == SPLIT:
        inputs, factors, targets = ("theta1", "theta3"), RADIAL_FACTORS, ()
        op_link, rd_link = {"factor": "theta2"}, {"factor": "theta4"}
    else:
        inputs, factors, targets = ("theta_operation", "theta_rd"), FACTORS, zo + zr
        op_link, rd_link = {"targets": zo}, {"targets": zr}
    prog = Program(dataset.n_dmus, factors, BLOCKS, targets)
    ZO, ZR = dataset.matrix(zo), dataset.matrix(zr)
    prog.envelope("operation", dataset.matrix(operation.exogenous_inputs), "<=", factor=inputs[0])
    prog.envelope("operation", ZO, ">=", **op_link)
    prog.envelope("research", dataset.matrix(research.exogenous_inputs), "<=", factor=inputs[1])
    prog.envelope("research", ZR, ">=", **rd_link)
    prog.envelope("market", ZO, "<=", **op_link)
    prog.envelope("market", ZR, "<=", **rd_link)
    prog.envelope("market", dataset.matrix(market.final_outputs), ">=", factor="theta_market")
    prog.convexity()
    if model == EFFICIENCY:
        prog.bound("theta_operation", "<=")
        prog.bound("theta_rd", "<=")
        prog.bound("theta_market", ">=")
    elif model == SPLIT:
        prog.pin(CHAIN_GAP)
    return prog.compile()


@dataclass(frozen=True)
class ChainEfficiency:
    """One-solve efficiency reading for the whole chain.

    ``marketability`` is the reciprocal of the market expansion factor, so
    all three reported efficiencies live in (0, 1].
    """

    dmu: str
    objective: float
    weights: ChainWeights
    theta_operation: float
    theta_rd: float
    theta_market: float
    marketability: float
    intermediates: Mapping[str, float]
    reference_weights: Mapping[str, np.ndarray]

    def is_efficient(self) -> bool:
        ideal = self.weights.w1 + self.weights.w2 - self.weights.w3
        return self.objective >= ideal - EPS_MPSS


def _efficiency(weights: ChainWeights) -> _Model:
    objective = {"theta_operation": weights.w1, "theta_rd": weights.w2,
                 "theta_market": -weights.w3}

    def result(sol, prog, dmu):
        factors = prog.factors(sol)
        return ChainEfficiency(
            dmu=str(dmu),
            objective=sol.objective_value,
            weights=weights,
            marketability=1.0 / factors["theta_market"],
            intermediates=prog.targets(sol),
            reference_weights=prog.weights(sol),
            **factors,
        )

    return _Model(EFFICIENCY, _chain_program, "minimize", objective, "chain efficiency of {!r}",
                  result)


def chain_efficiency(
    dataset: Dataset,
    topology: NetworkTopology,
    dmu: str,
    weights: ChainWeights = ChainWeights(),
) -> ChainEfficiency:
    """Operation, research and marketability efficiencies in one solve."""
    return next(chain_efficiency_sweep(dataset, topology, [dmu], weights))


def chain_efficiency_sweep(dataset: Dataset, topology: NetworkTopology, dmus: Sequence[str],
                           weights: ChainWeights = ChainWeights()) -> Iterator[ChainEfficiency]:
    """``chain_efficiency`` of each of ``dmus``, in order."""
    return _sweep(dataset, topology, dmus, _efficiency(weights))


@dataclass(frozen=True)
class ChainMpss:
    """Scale-size score of the whole chain plus the appropriate targets."""

    dmu: str
    score: float
    weights: ChainWeights
    theta_operation: float
    theta_rd: float
    theta_market: float
    intermediates: Mapping[str, float]
    intermediates_unique: bool
    reference_weights: Mapping[str, np.ndarray]

    def is_mpss(self) -> bool:
        return abs(self.score) <= EPS_MPSS


def _scale_size(weights: ChainWeights) -> _Model:
    objective = {"theta_market": weights.w1, "theta_operation": -weights.w2,
                 "theta_rd": -weights.w3}

    def result(sol, prog, dmu):
        return ChainMpss(
            dmu=str(dmu),
            score=sol.objective_value,
            weights=weights,
            intermediates=prog.targets(sol),
            intermediates_unique=prog.targets_unique(sol),
            reference_weights=prog.weights(sol),
            **prog.factors(sol),
        )

    return _Model(SCALE_SIZE, _chain_program, "maximize", objective, "chain scale size of {!r}",
                  result)


def chain_mpss(
    dataset: Dataset,
    topology: NetworkTopology,
    dmu: str,
    weights: ChainWeights = ChainWeights(),
) -> ChainMpss:
    """Chain scale-size score; zero means most productive scale size."""
    return next(chain_mpss_sweep(dataset, topology, [dmu], weights))


def chain_mpss_sweep(dataset: Dataset, topology: NetworkTopology, dmus: Sequence[str],
                     weights: ChainWeights = ChainWeights()) -> Iterator[ChainMpss]:
    """``chain_mpss`` of each of ``dmus``, in order."""
    return _sweep(dataset, topology, dmus, _scale_size(weights))


@dataclass(frozen=True)
class StageFactors:
    """Radial stage factors under a pinned chain score.

    ``operation_mpss`` and ``rd_mpss`` decompose the profitability stage;
    the marketability share is the remainder of the chain score, since the
    model pins ``theta_market - theta1 - theta3`` to the chain score.
    """

    dmu: str
    chain_score: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta_market: float

    @property
    def operation_mpss(self) -> float:
        return self.theta2 - self.theta1

    @property
    def rd_mpss(self) -> float:
        return self.theta4 - self.theta3

    @property
    def profitability_mpss(self) -> float:
        return self.operation_mpss + self.rd_mpss

    @property
    def marketability_mpss(self) -> float:
        return self.chain_score - self.profitability_mpss


# the split is solved one unit at a time, never swept, so it has no result of its own
_SPLIT = _Model(SPLIT, _chain_program, "maximize",
                {"theta2": 1.0, "theta1": -1.0, "theta4": 1.0, "theta3": -1.0},
                "profitability split of {!r}", None,
                "chain score {!r} (radial intermediates cannot reach it)")


def profitability_mpss(
    dataset: Dataset,
    topology: NetworkTopology,
    dmu: str,
    chain_score: float,
) -> StageFactors:
    """Stage-1 scale-size split with the chain score held fixed.

    The intermediates are adjusted radially here (the operation target is
    ``theta2`` times the DMU's own level, the research target ``theta4``
    times), so with several intermediates per branch the pinned chain
    score may be unreachable; that raises a solver error rather than
    silently drifting off the band.
    """
    prog = _program(dataset, topology, _SPLIT.name, _SPLIT.build)
    (sol,) = _solves(prog, [dmu], [dataset.index_of(dmu)], _SPLIT, pinned=[[chain_score]])
    if isinstance(sol, SolverError):
        raise sol
    return StageFactors(str(dmu), float(chain_score), **prog.factors(sol))


@dataclass(frozen=True)
class TargetRow:
    measure: str
    current: float
    appropriate: float
    gap: float
    direction: str


@dataclass(frozen=True)
class TargetReport:
    """Current vs. appropriate intermediate levels with a strategy label."""

    rows: tuple
    strategy: str
    dmu: str | None = None


def classify_strategy(
    current: Mapping[str, float],
    appropriate: Mapping[str, float],
    *,
    dmu: str | None = None,
) -> TargetReport:
    """Per-measure gaps and the joined improvement-strategy label.

    gap = appropriate - current.  A gap within ``MAINTAIN_TOL * |current|`` of
    zero reads "maintain" and is omitted from the label; if every measure
    holds, the label itself is "maintain".  Measures are reported in the
    iteration order of ``current``.
    """
    if set(current) != set(appropriate):
        missing = set(current) ^ set(appropriate)
        raise ValidationError(f"current/appropriate key mismatch: {sorted(missing)}")
    rows = []
    moves = []
    for measure, now in current.items():
        target = float(appropriate[measure])
        now = float(now)
        gap = target - now
        threshold = MAINTAIN_TOL * abs(now)
        if gap < -threshold:
            direction = DOWN
        elif gap > threshold:
            direction = UP
        else:
            direction = MAINTAIN
        rows.append(TargetRow(measure, now, target, gap, direction))
        if direction != MAINTAIN:
            moves.append(f"{measure}{direction}")
    return TargetReport(tuple(rows), ", ".join(moves) if moves else MAINTAIN, dmu)


def intermediate_targets(
    dataset: Dataset,
    topology: NetworkTopology,
    dmu: str,
    weights: ChainWeights = ChainWeights(),
    *,
    solved: ChainMpss | None = None,
) -> TargetReport:
    """Appropriate intermediate levels from the chain scale-size solve.

    ``solved`` is that solve when the caller already has it, for ``dmu``
    under ``weights``; otherwise the chain program is solved here.
    """
    if solved is None:
        solved = chain_mpss(dataset, topology, dmu, weights)
    elif solved.dmu != str(dmu) or solved.weights != weights:
        raise ValidationError(
            f"solved chain scale size is for {solved.dmu!r} under {solved.weights}, "
            f"not {str(dmu)!r} under {weights}"
        )
    order = topology.intermediate_measures()
    current = {m: dataset.value(dmu, m) for m in order}
    appropriate = {m: solved.intermediates[m] for m in order}
    return classify_strategy(current, appropriate, dmu=str(dmu))
