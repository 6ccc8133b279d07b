import numpy as np
import pytest

from conftest import chain_topology, dataset_for, random_dataset, two_stage_topology
from dea_mpss.chain import (
    SELF_NORMALIZED_WEIGHTS,
    ChainWeights,
    chain_efficiency,
    chain_mpss,
    classify_strategy,
    intermediate_targets,
    profitability_mpss,
)
from dea_mpss.errors import SolverError, UnsupportedTopologyError, ValidationError

# 3-DMU chain with 2 operation inputs, 3 research inputs, one intermediate per
# branch and one final output; optima frozen from an offline enumeration.
CHAIN_NAMED = dict(
    XO=[[9, 7], [8, 3], [9, 3]],
    ZO=[[4], [3], [8]],
    XR=[[4, 8, 3], [9, 3, 7], [4, 2, 5]],
    ZR=[[5], [5], [7]],
    Y=[[4], [4], [4]],
)
CHAIN_EXPECTED = {
    # dmu index -> (mpss @ unit weights, mpss @ (1, .5, .5), efficiency objective)
    0: (-0.888888888889, 0.055555555556, 0.888888888889),
    1: (-0.708333333333, 0.145833333333, 0.708333333333),
    2: (-1.0, 0.0, 1.0),
}


def named_chain():
    topo = chain_topology(m=2, p=1, k=3, e=1, s=1)
    rows = [
        CHAIN_NAMED["XO"][j] + CHAIN_NAMED["ZO"][j] + CHAIN_NAMED["XR"][j]
        + CHAIN_NAMED["ZR"][j] + CHAIN_NAMED["Y"][j]
        for j in range(3)
    ]
    return dataset_for(topo, rows), topo


def test_single_dmu_efficiency_is_one():
    topo = chain_topology()
    ds = dataset_for(topo, [[2, 3, 4, 5, 6]])
    res = chain_efficiency(ds, topo, "u1")
    assert res.theta_operation == pytest.approx(1.0, abs=1e-9)
    assert res.theta_rd == pytest.approx(1.0, abs=1e-9)
    assert res.theta_market == pytest.approx(1.0, abs=1e-9)
    assert res.marketability == pytest.approx(1.0, abs=1e-9)
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.is_efficient()


def test_single_dmu_mpss_scores():
    topo = chain_topology()
    ds = dataset_for(topo, [[2, 3, 4, 5, 6]])
    assert chain_mpss(ds, topo, "u1", SELF_NORMALIZED_WEIGHTS).score == pytest.approx(
        0.0, abs=1e-9
    )
    # with unit weights the self-evaluation sits at -1
    assert chain_mpss(ds, topo, "u1").score == pytest.approx(-1.0, abs=1e-9)


def test_identical_dmus_all_efficient_and_mpss():
    topo = chain_topology(m=2, p=1, k=1, e=2, s=1)
    row = [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    ds = dataset_for(topo, [row, row, row])
    for dmu in ds.dmu_ids:
        assert chain_efficiency(ds, topo, dmu).is_efficient()
        assert chain_mpss(ds, topo, dmu, SELF_NORMALIZED_WEIGHTS).score == pytest.approx(
            0.0, abs=1e-9
        )
        assert intermediate_targets(ds, topo, dmu, SELF_NORMALIZED_WEIGHTS).strategy == "maintain"


def test_named_chain_matches_enumeration():
    ds, topo = named_chain()
    for o, dmu in enumerate(ds.dmu_ids):
        unit, half, eff = CHAIN_EXPECTED[o]
        assert chain_mpss(ds, topo, dmu).score == pytest.approx(unit, abs=1e-6)
        assert chain_mpss(ds, topo, dmu, SELF_NORMALIZED_WEIGHTS).score == pytest.approx(
            half, abs=1e-6
        )
        assert chain_efficiency(ds, topo, dmu).objective == pytest.approx(eff, abs=1e-6)


def test_efficiency_factor_bounds_and_objective_cap():
    rng = np.random.default_rng(31)
    for _ in range(5):
        topo = chain_topology(
            m=int(rng.integers(1, 3)), p=int(rng.integers(1, 3)),
            k=int(rng.integers(1, 3)), e=int(rng.integers(1, 3)),
            s=int(rng.integers(1, 3)),
        )
        ds = random_dataset(rng, topo, int(rng.integers(2, 5)))
        w = ChainWeights()
        for dmu in ds.dmu_ids:
            res = chain_efficiency(ds, topo, dmu, w)
            assert res.theta_operation <= 1.0 + 1e-7
            assert res.theta_rd <= 1.0 + 1e-7
            assert res.theta_market >= 1.0 - 1e-7
            assert 0.0 < res.marketability <= 1.0 + 1e-7
            assert res.objective <= w.w1 + w.w2 - w.w3 + 1e-6


def test_mpss_intermediates_bracketed_by_supply_and_use():
    rng = np.random.default_rng(37)
    topo = chain_topology(m=2, p=2, k=1, e=1, s=2)
    ds = random_dataset(rng, topo, 4)
    ops, res_proc = topo.stage_processes(1)
    for dmu in ds.dmu_ids:
        res = chain_mpss(ds, topo, dmu, SELF_NORMALIZED_WEIGHTS)
        lam = res.reference_weights["operation"]
        mu = res.reference_weights["research"]
        phi = res.reference_weights["market"]
        for m in ops.intermediate_outputs:
            col = ds.column(m)
            assert float(lam @ col) >= res.intermediates[m] - 1e-7
            assert float(phi @ col) <= res.intermediates[m] + 1e-7
        for m in res_proc.intermediate_outputs:
            col = ds.column(m)
            assert float(mu @ col) >= res.intermediates[m] - 1e-7
            assert float(phi @ col) <= res.intermediates[m] + 1e-7


def test_profitability_split_identities():
    ds, topo = named_chain()
    for dmu in ds.dmu_ids:
        score = chain_mpss(ds, topo, dmu).score
        sf = profitability_mpss(ds, topo, dmu, score)
        assert sf.profitability_mpss == pytest.approx(sf.operation_mpss + sf.rd_mpss)
        assert sf.marketability_mpss == pytest.approx(score - sf.profitability_mpss)
        refit = sf.theta_market - sf.theta1 - sf.theta3
        assert refit == pytest.approx(score, abs=1.5e-6)


def test_single_dmu_profitability_all_zero():
    topo = chain_topology()
    ds = dataset_for(topo, [[2, 3, 4, 5, 6]])
    score = chain_mpss(ds, topo, "u1").score
    sf = profitability_mpss(ds, topo, "u1", score)
    assert sf.operation_mpss == pytest.approx(0.0, abs=1e-6)
    assert sf.rd_mpss == pytest.approx(0.0, abs=1e-6)
    assert sf.profitability_mpss == pytest.approx(0.0, abs=1e-6)
    assert sf.marketability_mpss == pytest.approx(score, abs=1e-6)


def test_profitability_band_infeasible_raises():
    ds, topo = named_chain()
    with pytest.raises(SolverError, match="fixing band"):
        profitability_mpss(ds, topo, "u1", 1e6)


def test_classify_strategy_reference_rows():
    down_only = classify_strategy(
        {"Sales": 17279, "Patents": 88930},
        {"Sales": 3604.23, "Patents": 88930},
    )
    assert down_only.strategy == "Sales↓"
    assert down_only.rows[0].gap == pytest.approx(-13674.77)
    assert down_only.rows[1].direction == "maintain"

    both_up = classify_strategy(
        {"Sales": 1833, "Patents": 1211},
        {"Sales": 2876.971, "Patents": 1902.661},
    )
    assert both_up.strategy == "Sales↑, Patents↑"
    assert both_up.rows[0].gap == pytest.approx(1043.971)
    assert both_up.rows[1].gap == pytest.approx(691.661)


def test_classify_strategy_all_maintain():
    report = classify_strategy({"a": 5.0, "b": 7.0}, {"a": 5.0, "b": 7.0})
    assert report.strategy == "maintain"
    assert all(r.direction == "maintain" for r in report.rows)
    assert all(r.gap == 0.0 for r in report.rows)


def test_classify_strategy_relative_threshold():
    # a relative wiggle below 1e-6 of the current level reads as maintain
    report = classify_strategy({"a": 1e9}, {"a": 1e9 + 100.0})
    assert report.strategy == "maintain"
    report = classify_strategy({"a": 1.0}, {"a": 1.0 + 1e-3})
    assert report.strategy == "a↑"


def test_classify_strategy_key_mismatch():
    with pytest.raises(ValidationError, match="mismatch"):
        classify_strategy({"a": 1.0}, {"b": 1.0})


def test_intermediate_targets_compose_chain_mpss():
    ds, topo = named_chain()
    for dmu in ds.dmu_ids:
        res = chain_mpss(ds, topo, dmu)
        report = intermediate_targets(ds, topo, dmu)
        assert report.dmu == dmu
        assert [r.measure for r in report.rows] == list(topo.intermediate_measures())
        for row in report.rows:
            assert row.current == ds.value(dmu, row.measure)
            assert row.appropriate == pytest.approx(res.intermediates[row.measure])
            assert row.gap == pytest.approx(row.appropriate - row.current)


def test_intermediate_targets_read_a_given_solve():
    ds, topo = named_chain()
    dmu, other = ds.dmu_ids[:2]
    solved = chain_mpss(ds, topo, dmu)
    assert intermediate_targets(ds, topo, dmu, solved=solved) == intermediate_targets(ds, topo, dmu)
    with pytest.raises(ValidationError, match="solved chain scale size"):
        intermediate_targets(ds, topo, other, solved=solved)
    with pytest.raises(ValidationError, match="solved chain scale size"):
        intermediate_targets(ds, topo, dmu, ChainWeights(1.0, 0.5, 0.5), solved=solved)


def test_single_dmu_targets_maintain():
    topo = chain_topology()
    ds = dataset_for(topo, [[2, 3, 4, 5, 6]])
    report = intermediate_targets(ds, topo, "u1", SELF_NORMALIZED_WEIGHTS)
    assert report.strategy == "maintain"


def test_chain_weights_validated():
    with pytest.raises(ValidationError, match="nonnegative"):
        ChainWeights(-1.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("slot", range(3))
def test_chain_weights_must_be_finite(slot, bad):
    weights = [1.0, 1.0, 1.0]
    weights[slot] = bad
    with pytest.raises(ValidationError, match="chain weights must be finite"):
        ChainWeights(*weights)


def test_wrong_shape_rejected():
    topo = two_stage_topology()
    ds = dataset_for(topo, [[1, 2, 3, 4, 5]])
    with pytest.raises(UnsupportedTopologyError, match="unsupported topology"):
        chain_mpss(ds, topo, "u1")
