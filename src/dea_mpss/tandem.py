"""Series-of-parallel equivalent of a two-stage network, plus score splitting.

A general two-stage network becomes a two-stage tandem system by adding a
pass-through ("dummy") process next to each real process: the stage-1
dummy carries the stage-2 exogenous inputs forward, the stage-2 dummy
carries the stage-1 final outputs through.  A dummy consumes exactly what
it emits, so it is efficient by construction and its scale-size score is
zero; the score of a tandem stage is therefore the real process's score
times the real process's importance weight, and the tandem system score
is the sum of the two stage scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import TWO_STAGE_GENERAL, NetworkTopology, ProcessSpec
from .errors import UnsupportedTopologyError, ValidationError

DEFAULT_WEIGHTS = (0.5, 0.5)


@dataclass(frozen=True)
class DummyProcess:
    """Pass-through process; inputs and outputs are the same measure list."""

    name: str
    carries: tuple

    def __post_init__(self):
        object.__setattr__(self, "carries", tuple(self.carries))


@dataclass(frozen=True)
class TandemStage:
    real: ProcessSpec
    dummy: DummyProcess | None


@dataclass(frozen=True)
class TandemTopology:
    stages: tuple
    weights: tuple = DEFAULT_WEIGHTS

    def __post_init__(self):
        if len(self.stages) != 2:
            raise ValidationError("tandem systems have exactly two stages")
        _check_weights(self.weights)
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))


def _check_weights(weights) -> None:
    if len(weights) != 2:
        raise ValidationError("expected one weight per stage")
    for w in weights:
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"stage weight {w} outside [0, 1]")


def to_tandem(topology: NetworkTopology, weights=DEFAULT_WEIGHTS) -> TandemTopology:
    """Rewrite a general two-stage network as its tandem equivalent.

    Dummies that would carry nothing are omitted.  Applying this to a
    topology that is already tandem is an error.
    """
    if isinstance(topology, TandemTopology):
        raise ValidationError("topology is already tandem")
    if not isinstance(topology, NetworkTopology) or topology.shape_tag != TWO_STAGE_GENERAL:
        raise UnsupportedTopologyError(
            "unsupported topology: only the general two-stage shape has a tandem form"
        )
    _check_weights(weights)
    first = topology.stage_processes(1)[0]
    second = topology.stage_processes(2)[0]
    dummy1 = DummyProcess("dummy1", second.exogenous_inputs) if second.exogenous_inputs else None
    dummy2 = DummyProcess("dummy2", first.final_outputs) if first.final_outputs else None
    return TandemTopology(
        stages=(TandemStage(first, dummy1), TandemStage(second, dummy2)),
        weights=tuple(float(w) for w in weights),
    )


@dataclass(frozen=True)
class DecompositionReport:
    """Process scores folded into stage and tandem-system scores."""

    process_scores: tuple
    weights: tuple
    stage_scores: tuple
    tandem_score: float


def decompose(process_scores, weights=DEFAULT_WEIGHTS) -> DecompositionReport:
    """Stage score = weight x real-process score; tandem score = their sum.

    The dummy contributes zero by construction, so the (1 - weight) share
    of each stage vanishes.  Pure arithmetic; exact in floating point.
    """
    if len(process_scores) != 2:
        raise ValidationError("expected exactly two process scores")
    p1, p2 = (float(s) for s in process_scores)
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValidationError("process scores must be finite")
    if p1 < 0.0 or p2 < 0.0:
        raise ValidationError("process scores must be nonnegative")
    _check_weights(weights)
    w1, w2 = (float(w) for w in weights)
    s1, s2 = w1 * p1, w2 * p2
    return DecompositionReport(
        process_scores=(p1, p2),
        weights=(w1, w2),
        stage_scores=(s1, s2),
        tandem_score=s1 + s2,
    )
