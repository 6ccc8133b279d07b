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
the sweep of one unit.  Every model solve, the chain's profitability
split too, goes through ``_solves``.  A one-model sweep takes
``SWEEP_WIDTH`` units at a time and solves them in lockstep
(``lp.solve_lockstep``); their solutions are formed ``SWEEP_CHUNK`` units
at a time, in unit order, as the sweep hands them on.  The stage sweep
takes ``SWEEP_CHUNK`` units at a time: it solves a chunk's radial
systems, then its stage-1 and its stage-2 programs, each batch
warm-started from the optima of the one before.  A unit whose solve
leaves the lockstep path (a failed start, an unbounded step, a refactor,
a failed or too close hold, a warm start whose rows were dropped) is
solved alone by ``solve_lp`` from the same start, so every solution, and
the first failure in unit order with its message, is the per-unit
loop's.  A lone unit (a ``--dmu`` call, or a batch of one) is solved by
``solve_lp`` with no lockstep: a batch of one costs more per step than
the scalar pivot loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .data import TWO_STAGE_GENERAL, Dataset, NetworkTopology
from .errors import SolverError, UnsupportedTopologyError, ValidationError
from .lp import LpSolution, solve_lockstep, solve_lp
from .program import Program

EPS_MPSS = 1e-6
# units whose solutions a sweep holds at once: a lockstep batch forms its
# solutions this many units at a time, and the stage sweep, which holds each
# unit's three results until its tuple is handed on, steps this many at once
SWEEP_CHUNK = 10
# units a one-model sweep steps in lockstep at once: a wider batch takes
# fewer numpy calls a unit, and holds each stepping unit's basis inverse and
# reduced costs, but no more solutions
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


def _program(dataset: Dataset, view, model: str, build) -> Program:
    """``build(dataset, view, model)``, compiled once per dataset."""
    return dataset.compiled((view, model), lambda: build(dataset, view, model))


def _validated(dataset: Dataset, topology: NetworkTopology, shape: str) -> None:
    """Reject a topology of another shape, then check its measures against ``dataset``."""
    if topology.shape_tag != shape:
        raise UnsupportedTopologyError(
            f"unsupported topology: expected {shape!r}, got {topology.shape_tag!r}")
    topology.validate_against(dataset)


def _solves(prog: Program, dmus: Sequence[str], owns: Sequence[int], sense: str,
            objective: Mapping[str, float], context: str, starts=None, pinned=(),
            bands=None, units=None) -> Iterator:
    """Every model's solve: each unit's ``LpSolution`` of ``prog``, or the ``SolverError`` it
    raised, one at a time in unit order.

    Unit ``k`` holds ``pinned[k]`` (``Program.right_sides``).  An unpinned
    program starts from the unit's crash basis, a pinned one from
    ``starts[k]`` (the optimum of the program it extends), or, a lone
    unit, cold.  Two or more units run in lockstep
    (``lp.solve_lockstep``), their solutions formed ``SWEEP_CHUNK`` at a
    time as they are handed on; a lone unit, or one handed back, is solved
    by ``solve_lp`` from the same start, on its ``Unit`` in ``units`` (by
    owner) if an earlier solve made one.  A failure names the DMU through
    ``context.format`` and, for a pinned solve, its band ``bands[k]``.
    """
    if not owns:
        return
    pinned = np.array(pinned, dtype=float).reshape(len(owns), -1)
    if not pinned.shape[1]:
        starts = prog.crash_bases(owns)
    sols = [None]
    if len(owns) > 1:
        sols = solve_lockstep(sense, prog.objective(objective), prog.lockstep(owns, pinned),
                              starts, SWEEP_CHUNK)
    units = {} if units is None else units
    for k, sol in enumerate(sols):
        if sol is not None:
            yield sol
            continue
        unit = units.get(owns[k])
        if unit is None:
            unit = units[owns[k]] = prog.unit(owns[k])
        try:
            sol = solve_lp(unit.problem(sense, objective, pinned[k]),
                           start=None if starts is None else starts[k])
            if sol.status != "optimal":
                raise SolverError(f"fixing band infeasible at {bands[k]}" if bands else
                                  f"linear program is {sol.status}")
        except SolverError as exc:
            sol = SolverError(f"{context.format(dmus[k])}: {exc}")
            sol.__cause__ = exc
        yield sol


def _swept(dataset: Dataset, view, dmus: Sequence[str], model: str, build,
           solve_batch: Callable, width: int) -> Iterator:
    """``solve_batch(program, dmus, owns)``'s outcome for each of ``dmus``, in order.

    The units go ``width`` at a time, and each batch's outcomes are handed
    on before the next is solved.  A failure, an unknown DMU among them,
    is raised when its unit is reached, as a loop over the units raises it.
    """
    dmus = list(dmus)
    for first in range(0, len(dmus), width):
        prog = _program(dataset, view, model, build)
        part, owns, unknown = dmus[first:first + width], [], None
        for dmu in part:
            try:
                owns.append(dataset.index_of(dmu))
            except ValidationError as exc:
                unknown = exc
                break
        for outcome in solve_batch(prog, part[:len(owns)], owns) if owns else ():
            if isinstance(outcome, SolverError):
                raise outcome
            yield outcome
        if unknown is not None:
            raise unknown


class _Model(NamedTuple):
    """One model solve: its program, objective and failure context, and its result."""

    name: str                       # the compiled program's model
    build: Callable                 # (dataset, view, model) -> Program
    sense: str
    objective: Mapping[str, float]
    context: str                    # names the DMU through str.format
    result: Callable                # (LpSolution, Program, dmu) -> the model's result


def _sweep(dataset: Dataset, view, dmus: Sequence[str], model: _Model) -> Iterator:
    """``model``'s result for each of ``dmus``, in order, ``SWEEP_WIDTH`` units in lockstep."""
    def solve_batch(prog, part, owns):
        sols = _solves(prog, part, owns, model.sense, model.objective, model.context)
        return (sol if isinstance(sol, SolverError) else model.result(sol, prog, dmu)
                for dmu, sol in zip(part, sols))

    return _swept(dataset, view, dmus, model.name, model.build, solve_batch, SWEEP_WIDTH)


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
    if radial:
        for stage in (1, 2):
            prog.pin(PINS[stage][1])
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
STAGE_SCOPES = {1: STAGE_1, 2: STAGE_2}


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


def _staged(prog: Program, dmus: Sequence[str], owns: Sequence[int], stage: int, starts,
            pinned: Sequence[Sequence[float]], units=None) -> Iterator:
    """Each unit's ``stage`` solve (``_solves``), the scores solved before it pinned.

    Stage 1 pins the radial system score; stage 2 pins the stage-1 score on
    top of it.  Unit ``k`` holds ``pinned[k]`` and starts from ``starts[k]``.
    """
    return _solves(prog, dmus, owns, "maximize", STAGE_GAP[stage],
                   f"stage-{stage} evaluation of {{!r}}", starts, pinned,
                   [f"{PINS[stage][0]} score {p[-1]!r}" for p in pinned], units)


def stages_sweep(dataset: Dataset, topology: NetworkTopology, dmus: Sequence[str]) -> Iterator:
    """``evaluate_stages`` of each of ``dmus``, in order.

    The units go ``SWEEP_CHUNK`` at a time, not ``SWEEP_WIDTH``: a unit's
    results are held until its tuple is handed on, three solutions a unit.
    The units of a chunk solve their radial systems in lockstep, then their
    stage-1 and stage-2 programs, each batch warm-started from the optima of
    the batch before.  A unit solved alone keeps its copy of the program for
    its later solves, as each pinned program extends the one before.
    """
    def solve_chunk(prog, part, owns):
        units = {}
        sols = list(_solves(prog, part, owns, "maximize", SYSTEM_GAP, _RADIAL.context,
                            units=units))
        # each unit's results so far, or None once a solve failed (its last outcome)
        results = [None if isinstance(sol, SolverError) else
                   [_result_from(sol, SYSTEM_RADIAL, dmu, prog)] for dmu, sol in zip(part, sols)]
        for stage in (1, 2):
            live = [k for k, res in enumerate(results) if res is not None]
            pinned = [[res.score for res in results[k]] for k in live]
            staged = _staged(prog, [part[k] for k in live], [owns[k] for k in live], stage,
                             [sols[k] for k in live], pinned, units)
            for k, sol in zip(live, staged):
                sols[k] = sol
                if isinstance(sol, SolverError):
                    results[k] = None
                else:
                    results[k].append(_result_from(sol, STAGE_SCOPES[stage], part[k], prog))
        return [sol if res is None else tuple(res) for sol, res in zip(sols, results)]

    return _swept(dataset, topology, dmus, SYSTEM_RADIAL, _system_program, solve_chunk,
                  SWEEP_CHUNK)
