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

Each model is written once, as a sweep over a list of units
(``blackbox_sweep``, ...); its per-unit form (``blackbox_mpss``, ...) is
the sweep of one unit.  The stage sweep is the sweep of one sequence of
models, the radial system, stage 1 and stage 2, each pinned at the
scores before it.  Every model solve, the chain's profitability split
too, goes through ``_solves``.  A sweep takes ``SWEEP_WIDTH`` units at a
time and solves them in lockstep (``lp.solve_lockstep``), a sequence's
models one after the other, each warm-started from the bases of the
optima before.  A lockstep optimum is kept as an ``lp.Optimum``, its
value, basis and O(rows) values, and its solution is formed
``SWEEP_CHUNK`` units at a time, in unit order, as the sweep hands it on
(``_handed``).  A unit whose solve leaves the lockstep path (a failed
start, an unbounded step, a refactor, a failed hold, a warm start whose
rows were dropped) is solved alone by ``solve_lp`` from the same start,
so every solution, and the first failure in unit order with
its message, is the per-unit loop's.  A lone unit (a ``--dmu`` call, or
a batch of one) is solved by ``solve_lp`` with no lockstep: a batch of
one costs more per step than the scalar pivot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .data import TWO_STAGE_GENERAL, Dataset, NetworkTopology
from .errors import SolverError, UnsupportedTopologyError, ValidationError
from .lp import LpSolution, Optimum, solutions, solve_lockstep, solve_lp, warm_starts
from .program import Program

EPS_MPSS = 1e-6
# units whose solutions a sweep holds at once: it forms each model's
# solutions this many units at a time (_handed)
SWEEP_CHUNK = 10
# units a sweep steps in lockstep at once: a wider batch takes fewer numpy
# calls a unit, and holds each stepping unit's basis inverse and reduced
# costs, and each finished unit's basis and O(rows) values, but no more
# solutions
SWEEP_WIDTH = 150

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


def _program(dataset: Dataset, view, model: str, build) -> Program:
    """``build(dataset, view, model)``, compiled once per dataset."""
    return dataset.compiled((view, model), lambda: build(dataset, view, model))


def _validated(dataset: Dataset, topology: NetworkTopology, shape: str) -> None:
    """Reject a topology of another shape, then check its measures against ``dataset``."""
    if topology.shape_tag != shape:
        raise UnsupportedTopologyError(
            f"unsupported topology: expected {shape!r}, got {topology.shape_tag!r}")
    topology.validate_against(dataset)


class _Model(NamedTuple):
    """One model solve: its program, objective and failure context, and its result."""

    name: str                       # the compiled program's model
    build: Callable                 # (dataset, view, model) -> Program
    sense: str
    objective: Mapping[str, float]
    context: str                    # names the DMU through str.format
    result: Callable                # (LpSolution, Program, dmu) -> the model's result
    band: str = ""                  # names the last pinned score through str.format


def _solves(prog: Program, dmus: Sequence[str], owns: Sequence[int], model: _Model, starts=None,
            pinned=(), units=None) -> list:
    """Every model's solve: each unit's outcome of ``model`` on ``prog``, in unit order: its
    ``lp.Optimum`` from the lockstep, its ``LpSolution`` when solved alone, or the
    ``SolverError`` it raised.

    Unit ``k`` holds ``pinned[k]`` (``Program.right_sides``).  An unpinned
    program starts from the unit's crash basis, a pinned one from
    ``starts[k]`` (the optimum of the program it extends, or that optimum's
    ``lp.Basis``; ``starts`` may be an ``lp.Bases``, read whole by the
    lockstep), or, a lone unit, cold.  Two or more units run in
    lockstep (``lp.solve_lockstep``); a lone unit, or one handed back, is
    solved by ``solve_lp`` from the same start, on a copy of the program
    (``Program.unit``), which ``units``, if given, keeps by owner for a
    later solve.  A failure names the DMU through ``model.context`` and,
    for a pinned solve, its last pinned score through ``model.band``.
    """
    if not owns:
        return []
    pinned = np.array(pinned, dtype=float).reshape(len(owns), -1)
    if not pinned.shape[1]:
        starts = prog.crash_bases(owns)
    outcomes = [None]
    if len(owns) > 1:
        outcomes = solve_lockstep(model.sense, prog.objective(model.objective),
                                  prog.lockstep(owns, pinned), starts)
    out = []
    for k, sol in enumerate(outcomes):
        if sol is None:
            unit = None if units is None else units.get(owns[k])
            if unit is None:
                unit = prog.unit(owns[k])
                if units is not None:
                    units[owns[k]] = unit
            try:
                sol = solve_lp(unit.problem(model.sense, model.objective, pinned[k]),
                               start=None if starts is None else starts[k])
                if sol.status != "optimal":
                    raise SolverError(
                        f"fixing band infeasible at {model.band.format(pinned[k, -1].item())}"
                        if pinned.shape[1] else f"linear program is {sol.status}")
            except SolverError as exc:
                sol = SolverError(f"{model.context.format(dmus[k])}: {exc}")
                sol.__cause__ = exc
        out.append(sol)
    return out


def _solved(prog: Program, dmus: Sequence[str], owns: Sequence[int], models) -> list:
    """Each of ``models``' outcomes (``_solves``), a list a model, each in unit order; a unit
    whose solve failed has None at every later model.

    Each model after the first is pinned at the scores of the models before
    it and starts from the optimum of the one before (``lp.warm_starts``):
    the stacked bases of one lockstep batch's optima, or each optimum's
    ``lp.Basis`` and the ``LpSolution`` of each unit solved alone.  A lone
    unit (a ``--dmu`` call) keeps its copy of the program for its later
    solves; a unit handed back from a batch copies it afresh each time, so
    a wide batch holds no copies.
    """
    solved, units = [], {} if len(owns) == 1 else None
    live = list(range(len(owns)))
    scores = [[] for _ in owns]  # each unit's scores so far
    for i, model in enumerate(models):
        starts = warm_starts([solved[-1][k] for k in live]) if i else None
        outcomes = [None] * len(owns)
        for k, outcome in zip(live, _solves(prog, [dmus[k] for k in live],
                                            [owns[k] for k in live], model, starts,
                                            [scores[k] for k in live], units)):
            outcomes[k] = outcome
        solved.append(outcomes)
        live = [k for k in live if not isinstance(outcomes[k], SolverError)]
        for k in live:
            scores[k].append(outcomes[k].objective_value)
    return solved


def _handed(dmus: Sequence[str], outcomes: Sequence) -> list:
    """Each of ``dmus`` with its outcome of one model solve (``_solves``), as a sweep hands it
    on: its ``LpSolution``, the lockstep optima's formed here together, or its
    ``SolverError``."""
    formed = iter(solutions([o for o in outcomes if isinstance(o, Optimum)]))
    return [(dmu, next(formed) if isinstance(o, Optimum) else o) for dmu, o in zip(dmus, outcomes)]


def _sweep(dataset: Dataset, view, dmus: Sequence[str], *models: _Model) -> Iterator:
    """Each of ``dmus``' result under ``models``, in order: the one model's result, or a
    tuple of a sequence's results, whose models share one program (``_solved``).

    The units go ``SWEEP_WIDTH`` at a time, each batch solved whole and
    handed on (``_batch``) before the next is solved.  A failure, an
    unknown DMU among them, is raised when its unit is reached, as a loop
    over the units raises it.
    """
    dmus = list(dmus)
    for first in range(0, len(dmus), SWEEP_WIDTH):
        prog = _program(dataset, view, models[0].name, models[0].build)
        part, owns, unknown = dmus[first:first + SWEEP_WIDTH], [], None
        for dmu in part:
            try:
                owns.append(dataset.index_of(dmu))
            except ValidationError as exc:
                unknown = exc
                break
        yield from _batch(prog, part, owns, models)
        if unknown is not None:
            raise unknown


def _batch(prog: Program, dmus: Sequence[str], owns: Sequence[int], models) -> Iterator:
    """One batch of ``_sweep``: its units' results, handed on ``SWEEP_CHUNK`` units at a time,
    each model's solutions of a chunk formed together; a failure is raised at its unit.
    What the batch holds goes with it, before the next batch is solved."""
    solved = _solved(prog, dmus, owns, models)
    for lo in range(0, len(owns), SWEEP_CHUNK):
        results = {k: [] for k in range(lo, min(lo + SWEEP_CHUNK, len(owns)))}
        for model, outcomes in zip(models, solved):
            live = [k for k in results if outcomes[k] is not None]
            handed = _handed([dmus[k] for k in live], [outcomes[k] for k in live])
            for k, (dmu, sol) in zip(live, handed):
                results[k].append(sol if isinstance(sol, SolverError) else
                                  model.result(sol, prog, dmu))
        for res in results.values():
            if isinstance(res[-1], SolverError):
                raise res[-1]
            yield res[0] if len(models) == 1 else tuple(res)


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


def _blackbox_view(inputs, outputs, topology):
    if topology is None:
        return tuple(inputs or ()), tuple(outputs or ())
    if inputs is not None or outputs is not None:
        raise ValidationError("black-box evaluation takes a topology or measure lists, not both")
    return topology


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
    return next(blackbox_sweep(dataset, [dmu], inputs=inputs, outputs=outputs,
                               topology=topology))


def blackbox_sweep(dataset: Dataset, dmus: Sequence[str], *,
                   inputs: Sequence[str] | None = None, outputs: Sequence[str] | None = None,
                   topology: NetworkTopology | None = None) -> Iterator[MpssResult]:
    """``blackbox_mpss`` of each of ``dmus``, in order."""
    return _sweep(dataset, _blackbox_view(inputs, outputs, topology), dmus, _BLACK_BOX)


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
    if radial:  # each stage pins the score of the model before it (_STAGES)
        prog.pin(SYSTEM_GAP)
        prog.pin(STAGE_GAP[1])
    return prog.compile()


def _result_from(sol: LpSolution, scope: str, dmu: str, prog: Program) -> MpssResult:
    free = bool(prog.target)
    return MpssResult(
        scope, str(dmu), sol.objective_value, prog.factors(sol), prog.weights(sol),
        optimal_intermediates=prog.targets(sol) if free else None,
        intermediates_unique=prog.targets_unique(sol) if free else None,
    )


def _scored(scope: str) -> Callable:
    return lambda sol, prog, dmu: _result_from(sol, scope, dmu, prog)


_BLACK_BOX = _Model(BLACK_BOX, _blackbox_program, "maximize", {"outputs": 1.0, "inputs": -1.0},
                    "black-box evaluation of {!r}", _scored(BLACK_BOX))
_VARIABLE = _Model(SYSTEM_VARIABLE, _system_program, "maximize", SYSTEM_GAP,
                   "system evaluation of {!r}", _scored(SYSTEM_VARIABLE))
_RADIAL = _Model(SYSTEM_RADIAL, _system_program, "maximize", SYSTEM_GAP,
                 "radial system evaluation of {!r}", _scored(SYSTEM_RADIAL))
# the stage sweep's sequence: the radial system, then each stage pinned at the scores before it
_STAGES = (
    _RADIAL,
    _Model(SYSTEM_RADIAL, _system_program, "maximize", STAGE_GAP[1], "stage-1 evaluation of {!r}",
           _scored(STAGE_1), "system score {!r}"),
    _Model(SYSTEM_RADIAL, _system_program, "maximize", STAGE_GAP[2], "stage-2 evaluation of {!r}",
           _scored(STAGE_2), "stage-1 score {!r}"),
)


def network_mpss_variable(dataset: Dataset, topology: NetworkTopology, dmu: str) -> MpssResult:
    """System score with the intermediates as free target levels.

    Solves for the stage intensity vectors and a new level for every
    intermediate measure: stage 1 must supply at least the target, stage 2
    may consume at most the target.  The optimal targets are reported as
    ``optimal_intermediates``; they are generally not unique.
    """
    return next(network_variable_sweep(dataset, topology, [dmu]))


def network_variable_sweep(dataset: Dataset, topology: NetworkTopology,
                           dmus: Sequence[str]) -> Iterator[MpssResult]:
    """``network_mpss_variable`` of each of ``dmus``, in order."""
    return _sweep(dataset, topology, dmus, _VARIABLE)


def network_mpss_radial(dataset: Dataset, topology: NetworkTopology, dmu: str) -> MpssResult:
    """System score with radially adjusted intermediates.

    The stage-1 output factor scales the DMU's own intermediate and final
    levels together; the stage-2 input factor scales its intermediate and
    exogenous input levels together.
    """
    return next(network_radial_sweep(dataset, topology, [dmu]))


def network_radial_sweep(dataset: Dataset, topology: NetworkTopology,
                         dmus: Sequence[str]) -> Iterator[MpssResult]:
    """``network_mpss_radial`` of each of ``dmus``, in order."""
    return _sweep(dataset, topology, dmus, _RADIAL)


def evaluate_stages(dataset: Dataset, topology: NetworkTopology, dmu: str):
    """Radial system solve followed by the two pinned stage solves.

    Each pinned program appends two rows to the one solved before it, whose
    optimum satisfies them, so each stage solve starts from that optimum's basis.
    """
    return next(stages_sweep(dataset, topology, [dmu]))


def stages_sweep(dataset: Dataset, topology: NetworkTopology, dmus: Sequence[str]) -> Iterator:
    """``evaluate_stages`` of each of ``dmus``, in order: the sweep of the sequence radial
    system, stage 1, stage 2 (``_STAGES``).

    ``SWEEP_WIDTH`` units solve their radial systems in lockstep, then their
    stage-1 and stage-2 programs, each warm-started from the bases of the
    optima before.  Between the stages a unit keeps its scores and its
    ``lp.Optimum``s, not its solutions; its three results are formed as its
    tuple is handed on.
    """
    return _sweep(dataset, topology, dmus, *_STAGES)
