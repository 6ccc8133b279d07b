"""Scale-size models for the general two-stage network and its black box.

All models are variable-returns-to-scale envelopment programs built from a
:class:`~dea_mpss.data.Dataset` and a ``two_stage_general`` topology.  The
score of the evaluated DMU is zero exactly when it operates at its most
productive scale size; positive scores measure the attainable gap.

Black box (internal structure ignored)::

    max  t2 - t1
    s.t. sum_j l_j x_ij <= t1 x_io      every input i
         sum_j l_j y_rj >= t2 y_ro      every output r
         sum_j l_j = 1,  all variables >= 0

The two-stage system model keeps one intensity vector per stage and links
them through the intermediate measures, either as free targets (one new
decision variable per intermediate) or radially (stage-1 output factor and
stage-2 input factor scale the DMU's own intermediate levels).  Stage
scores are solved lexicographically: the system score is pinned inside a
narrow band while a stage objective is re-optimised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import TWO_STAGE_GENERAL, Dataset, NetworkTopology
from .errors import SolverError, UnsupportedTopologyError, ValidationError
from .lp import LpSolution, solve_lp
from .program import Program, Unit

EPS_MPSS = 1e-6

BLACK_BOX = "black_box"
SYSTEM_VARIABLE = "system_variable"
SYSTEM_RADIAL = "system_radial"
STAGE_1 = "stage1"
STAGE_2 = "stage2"

FACTORS = ("stage1_inputs", "stage1_outputs", "stage2_inputs", "stage2_outputs")
# stage-2 output expansion minus stage-1 input contraction
SYSTEM_GAP = {"stage2_outputs": 1.0, "stage1_inputs": -1.0}
STAGE_GAP = {
    1: {"stage1_outputs": 1.0, "stage1_inputs": -1.0},
    2: {"stage2_outputs": 1.0, "stage2_inputs": -1.0},
}
# stage -> the score pinned before its solve, and that score's gap
PINS = {1: ("system", SYSTEM_GAP), 2: ("stage-1", STAGE_GAP[1])}


@dataclass(frozen=True)
class MpssResult:
    """Solved scale-size score for one DMU under one scope.

    ``scale_factors`` holds the input-contraction / output-expansion
    factors actually present in the model; ``optimal_intermediates`` is
    populated only when the intermediates are free decision variables,
    in which case ``intermediates_unique`` reports whether the solved
    target levels are the unique optimum.
    """

    scope: str
    dmu: str
    score: float
    scale_factors: Mapping[str, float]
    reference_weights: Mapping[str, np.ndarray]
    optimal_intermediates: Mapping[str, float] | None = None
    intermediates_unique: bool | None = None

    def is_mpss(self) -> bool:
        return abs(self.score) <= EPS_MPSS


def _unit(dataset: Dataset, view, dmu: str, model: str, build) -> Unit:
    """``dmu``'s copy of ``build(dataset, view, model)``, compiled once per dataset."""
    prog = dataset.compiled((view, model), lambda: build(dataset, view, model))
    return prog.unit(dataset.index_of(dmu))


def _validated(dataset: Dataset, topology: NetworkTopology, shape: str) -> None:
    """Reject a topology of another shape, then check its measures against ``dataset``."""
    if topology.shape_tag != shape:
        raise UnsupportedTopologyError(
            f"unsupported topology: expected {shape!r}, got {topology.shape_tag!r}")
    topology.validate_against(dataset)


def _solve(unit: Unit, sense: str, objective: Mapping[str, float], context: str,
           start: LpSolution | None = None, band: str | None = None) -> LpSolution:
    """Every model's solve: ``unit``'s program from its start to its verdict.

    An unpinned program starts from the unit's crash basis, a pinned one from
    ``start`` (the optimum of the program it extends) or cold.  A failure
    raises ``SolverError`` naming ``context`` and a pinned solve's ``band``.
    """
    problem = unit.problem(sense, objective)
    try:
        sol = solve_lp(problem, start=start if unit.pinned else unit.crash_basis())
    except SolverError as exc:
        raise SolverError(f"{context}: {exc}") from exc
    if sol.status != "optimal":
        why = f"fixing band infeasible at {band}" if band else f"linear program is {sol.status}"
        raise SolverError(f"{context}: {why}")
    return sol


def _blackbox_program(dataset: Dataset, view, model: str) -> Program:
    """``view`` is a topology, read as its exogenous inputs and final outputs, or the two lists."""
    if isinstance(view, NetworkTopology):
        view.validate_against(dataset)
        view = ([m for p in view.processes for m in p.exogenous_inputs],
                [m for p in view.processes for m in p.final_outputs])
    inputs, outputs = view
    if not inputs or not outputs:
        raise ValidationError("black-box evaluation needs >= 1 input and >= 1 output measure")
    prog = Program(dataset.n_dmus, ("inputs", "outputs"), ("system",))
    prog.envelope("system", dataset.matrix(inputs), "<=", factor="inputs")
    prog.envelope("system", dataset.matrix(outputs), ">=", factor="outputs")
    prog.convexity()
    return prog.compile()


def blackbox_mpss(
    dataset: Dataset,
    dmu: str,
    *,
    inputs: Sequence[str] | None = None,
    outputs: Sequence[str] | None = None,
    topology: NetworkTopology | None = None,
) -> MpssResult:
    """Scale-size score of ``dmu`` with the internal structure ignored.

    The input/output split comes either from a topology (all exogenous
    inputs vs. all final outputs, intermediates dropped) or from explicit
    measure lists.
    """
    view = topology if topology is not None else (tuple(inputs or ()), tuple(outputs or ()))
    unit = _unit(dataset, view, dmu, BLACK_BOX, _blackbox_program)
    sol = _solve(unit, "maximize", {"outputs": 1.0, "inputs": -1.0},
                 f"black-box evaluation of {dmu!r}")
    return _result_from(sol, BLACK_BOX, dmu, unit)


def _system_program(dataset: Dataset, topology: NetworkTopology, model: str) -> Program:
    """Rows shared by the system, stage-1 and stage-2 models.

    Each intermediate gives a stage-1 supply row and a stage-2 use row, either
    against a free target or radially against the DMU's own level.  The
    radial program ends in the stage programs' pinned pairs, in stage order.
    """
    _validated(dataset, topology, TWO_STAGE_GENERAL)
    radial = model == SYSTEM_RADIAL
    up = topology.stage_processes(1)[0]
    down = topology.stage_processes(2)[0]
    mids = topology.intermediate_measures()
    prog = Program(dataset.n_dmus, FACTORS, ("stage1", "stage2"), () if radial else mids)
    prog.envelope("stage1", dataset.matrix(up.exogenous_inputs), "<=", factor="stage1_inputs")
    for m in mids:
        z = dataset.matrix([m])
        if radial:
            prog.envelope("stage1", z, ">=", factor="stage1_outputs")
            prog.envelope("stage2", z, "<=", factor="stage2_inputs")
        else:
            prog.envelope("stage1", z, ">=", targets=[m])
            prog.envelope("stage2", z, "<=", targets=[m])
    prog.envelope("stage1", dataset.matrix(up.final_outputs), ">=", factor="stage1_outputs")
    prog.envelope("stage2", dataset.matrix(down.exogenous_inputs), "<=", factor="stage2_inputs")
    prog.envelope("stage2", dataset.matrix(down.final_outputs), ">=", factor="stage2_outputs")
    prog.convexity()
    if radial:
        for stage in (1, 2):
            prog.pin(PINS[stage][1])
    return prog.compile()


def _result_from(sol: LpSolution, scope: str, dmu: str, unit: Unit) -> MpssResult:
    prog = unit.program
    free = bool(prog.target)
    return MpssResult(
        scope, str(dmu), sol.objective_value, prog.factors(sol), prog.weights(sol),
        optimal_intermediates=prog.targets(sol) if free else None,
        intermediates_unique=prog.targets_unique(sol) if free else None,
    )


def network_mpss_variable(dataset: Dataset, topology: NetworkTopology, dmu: str) -> MpssResult:
    """System score with the intermediates as free target levels.

    Solves for the stage intensity vectors and a new level for every
    intermediate measure: stage 1 must supply at least the target, stage 2
    may consume at most the target.  The optimal targets are reported as
    ``optimal_intermediates``; they are generally not unique.
    """
    unit = _unit(dataset, topology, dmu, SYSTEM_VARIABLE, _system_program)
    sol = _solve(unit, "maximize", SYSTEM_GAP, f"system evaluation of {dmu!r}")
    return _result_from(sol, SYSTEM_VARIABLE, dmu, unit)


def network_mpss_radial(dataset: Dataset, topology: NetworkTopology, dmu: str) -> MpssResult:
    """System score with radially adjusted intermediates.

    The stage-1 output factor scales the DMU's own intermediate and final
    levels together; the stage-2 input factor scales its intermediate and
    exogenous input levels together.
    """
    return _radial(_unit(dataset, topology, dmu, SYSTEM_RADIAL, _system_program), dmu)[0]


def _radial(unit: Unit, dmu: str):
    sol = _solve(unit, "maximize", SYSTEM_GAP, f"radial system evaluation of {dmu!r}")
    return _result_from(sol, SYSTEM_RADIAL, dmu, unit), sol


def _pinned_stage(unit: Unit, dmu: str, stage: int, score: float, start=None):
    """Pin the gap solved before ``stage`` at ``score``, then solve the stage's gap.

    Stage 1 pins the radial system score; stage 2 pins the stage-1 score on
    top of it.  ``unit`` holds the pins of the stages before ``stage``.
    """
    unit.pin(score)
    sol = _solve(unit, "maximize", STAGE_GAP[stage], f"stage-{stage} evaluation of {dmu!r}",
                 start, f"{PINS[stage][0]} score {score!r}")
    return _result_from(sol, STAGE_1 if stage == 1 else STAGE_2, dmu, unit), sol


def evaluate_stages(dataset: Dataset, topology: NetworkTopology, dmu: str):
    """Radial system solve followed by the two pinned stage solves.

    Each pinned program appends two rows to the one solved before it, whose
    optimum satisfies them, so each stage solve starts from that optimum's basis.
    """
    unit = _unit(dataset, topology, dmu, SYSTEM_RADIAL, _system_program)
    system, sol = _radial(unit, dmu)
    first, sol = _pinned_stage(unit, dmu, 1, system.score, sol)
    second, _ = _pinned_stage(unit, dmu, 2, first.score, sol)
    return system, first, second
