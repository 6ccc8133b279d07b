import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import two_stage_topology
from dea_mpss.data import Link, NetworkTopology, ProcessSpec
from dea_mpss.errors import UnsupportedTopologyError, ValidationError
from dea_mpss.tandem import DummyProcess, decompose, to_tandem


def insurance_like_topology():
    procs = [
        ProcessSpec("service", 1, exogenous_inputs=["expense1"],
                    intermediate_outputs=["premium_direct", "premium_re"],
                    final_outputs=["profit_under"]),
        ProcessSpec("invest", 2, exogenous_inputs=["expense2"],
                    intermediate_inputs=["premium_direct", "premium_re"],
                    final_outputs=["profit_invest"]),
    ]
    links = [Link("service", "invest", "premium_direct"),
             Link("service", "invest", "premium_re")]
    return NetworkTopology(procs, links, "two_stage_general")


def test_tandem_layout():
    tandem = to_tandem(insurance_like_topology())
    first, second = tandem.stages
    assert first.real.name == "service"
    assert first.dummy == DummyProcess("dummy1", ("expense2",))
    assert second.real.name == "invest"
    assert second.dummy == DummyProcess("dummy2", ("profit_under",))
    assert tandem.weights == (0.5, 0.5)


def test_dummy_omitted_when_it_would_carry_nothing():
    procs = [
        ProcessSpec("up", 1, exogenous_inputs=["x"], intermediate_outputs=["z"],
                    final_outputs=["y1"]),
        ProcessSpec("down", 2, intermediate_inputs=["z"], final_outputs=["y2"]),
    ]
    topo = NetworkTopology(procs, [Link("up", "down", "z")], "two_stage_general")
    tandem = to_tandem(topo)
    assert tandem.stages[0].dummy is None  # no stage-2 exogenous inputs to carry
    assert tandem.stages[1].dummy == DummyProcess("dummy2", ("y1",))


def test_to_tandem_twice_is_an_error():
    tandem = to_tandem(insurance_like_topology())
    with pytest.raises(ValidationError, match="already tandem"):
        to_tandem(tandem)


def test_to_tandem_rejects_other_shapes():
    with pytest.raises(UnsupportedTopologyError):
        to_tandem("not a topology")


def test_tandem_weights_validated():
    with pytest.raises(ValidationError, match="weight"):
        to_tandem(two_stage_topology(), weights=(1.5, 0.5))


def test_decompose_reference_row():
    rep = decompose((0.1254, 0.2825), (0.5, 0.5))
    assert rep.stage_scores[0] == pytest.approx(0.0627, abs=1e-12)
    assert rep.stage_scores[1] == pytest.approx(0.14125, abs=1e-12)
    assert rep.tandem_score == pytest.approx(0.20395, abs=1e-12)


def test_decompose_zero_is_zero():
    rep = decompose((0.0, 0.0), (0.3, 0.9))
    assert rep.stage_scores == (0.0, 0.0)
    assert rep.tandem_score == 0.0


def test_decompose_wide_reference_row():
    # printed reference truncates the wide stage-2 cells to three decimals;
    # the exact arithmetic is asserted here
    rep = decompose((17.7392, 138.286), (0.5, 0.5))
    assert rep.stage_scores == (pytest.approx(8.8696), pytest.approx(69.143))
    assert rep.tandem_score == pytest.approx(78.0126, abs=1e-12)


def test_decompose_rejects_negative_scores():
    with pytest.raises(ValidationError, match="nonnegative"):
        decompose((-0.1, 0.2))


@pytest.mark.parametrize("scores", [(math.nan, 1.0), (0.5, math.inf), (-math.inf, 0.5)])
def test_decompose_rejects_non_finite_scores(scores):
    with pytest.raises(ValidationError, match="process scores must be finite"):
        decompose(scores)


def test_decompose_rejects_bad_weights():
    with pytest.raises(ValidationError, match="weight"):
        decompose((0.1, 0.2), (0.5, 1.2))


def test_full_weights_return_process_scores():
    rep = decompose((0.7, 1.3), (1.0, 1.0))
    assert rep.stage_scores == (0.7, 1.3)
    assert rep.tandem_score == pytest.approx(2.0)


scores = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(scores, scores, st.floats(0, 1), st.floats(0, 1), st.floats(0.1, 7))
def test_decompose_linear_in_each_score(p1, p2, w1, w2, factor):
    base = decompose((p1, p2), (w1, w2))
    scaled = decompose((p1 * factor, p2), (w1, w2))
    assert scaled.stage_scores[0] == pytest.approx(base.stage_scores[0] * factor, rel=1e-12)
    assert scaled.stage_scores[1] == base.stage_scores[1]
    assert base.tandem_score == pytest.approx(sum(base.stage_scores), rel=1e-12)
