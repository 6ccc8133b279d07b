import dataclasses
import itertools

import numpy as np
import pytest

from conftest import dataset_for, random_dataset, two_stage_topology, chain_topology
from dea_mpss import chain, network
from dea_mpss.chain import chain_efficiency, chain_mpss, profitability_mpss
from dea_mpss.data import Dataset
from dea_mpss.errors import SolverError, UnsupportedTopologyError, ValidationError
from dea_mpss.network import (
    SYSTEM_RADIAL,
    _program,
    _STAGES,
    _solves,
    _system_program,
    blackbox_mpss,
    evaluate_stages,
    network_mpss_radial,
    network_mpss_variable,
)
from test_chain import named_chain

# 3-DMU instance with 2 inputs per stage, 2 intermediates, 1 final output per
# stage; expected optima frozen from an offline active-set enumeration of the
# exact programs (band 1e-6 on the pinned scores).
NAMED = dict(
    X1=[[9, 1], [7, 4], [4, 8]],
    Z=[[3, 6], [9, 8], [8, 5]],
    Y1=[[8], [9], [3]],
    X2=[[7, 5], [1, 4], [5, 9]],
    Y2=[[6], [6], [3]],
)
NAMED_EXPECTED = {
    # dmu index -> (variable, radial, stage1, stage2)
    0: (0.0, 0.0, 0.0, 0.0),
    1: (0.011976047904, 0.014492753623, -0.418650660225, 0.0),
    2: (0.75, 1.0, 0.0, 0.75),
}


def named_instance():
    topo = two_stage_topology(m1=2, p=2, s1=1, m2=2, s2=1)
    rows = [
        NAMED["X1"][j] + NAMED["Z"][j] + NAMED["Y1"][j] + NAMED["X2"][j] + NAMED["Y2"][j]
        for j in range(3)
    ]
    return dataset_for(topo, rows), topo


def test_single_dmu_scores_zero_everywhere():
    topo = two_stage_topology()
    ds = dataset_for(topo, [[2.0, 3.0, 4.0, 5.0, 6.0]])
    assert blackbox_mpss(ds, "u1", topology=topo).score == pytest.approx(0.0, abs=1e-9)
    var = network_mpss_variable(ds, topo, "u1")
    assert var.score == pytest.approx(0.0, abs=1e-9)
    assert var.optimal_intermediates == pytest.approx({"mid_0": 3.0})
    assert network_mpss_radial(ds, topo, "u1").score == pytest.approx(0.0, abs=1e-9)
    system, st1, st2 = evaluate_stages(ds, topo, "u1")
    assert st1.score == pytest.approx(0.0, abs=1e-6)
    assert st2.score == pytest.approx(0.0, abs=1e-6)


def test_blackbox_two_dmu_hand_example():
    ds = Dataset(["A", "B"], {"x": [1.0, 2.0], "y": [1.0, 4.0]})
    score_a = blackbox_mpss(ds, "A", inputs=["x"], outputs=["y"]).score
    score_b = blackbox_mpss(ds, "B", inputs=["x"], outputs=["y"]).score
    assert score_a == pytest.approx(2.0, abs=1e-9)
    assert score_b == pytest.approx(0.0, abs=1e-9)


def test_dominant_dmu_is_mpss():
    topo = two_stage_topology()
    ds = dataset_for(topo, [[2, 2, 2, 2, 2], [1, 3, 3, 1, 4]])
    assert network_mpss_variable(ds, topo, "u2").score == pytest.approx(0.0, abs=1e-9)
    assert network_mpss_radial(ds, topo, "u2").score == pytest.approx(0.0, abs=1e-9)


def test_identical_dmus_score_zero():
    topo = two_stage_topology(m1=2, p=1, s1=1, m2=1, s2=2)
    row = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    ds = dataset_for(topo, [row, row, row])
    for dmu in ds.dmu_ids:
        assert network_mpss_variable(ds, topo, dmu).score == pytest.approx(0.0, abs=1e-9)
        assert network_mpss_radial(ds, topo, dmu).score == pytest.approx(0.0, abs=1e-9)
        _, st1, st2 = evaluate_stages(ds, topo, dmu)
        assert st1.score == pytest.approx(0.0, abs=1e-6)
        assert st2.score == pytest.approx(0.0, abs=1e-6)


def test_named_instance_matches_enumeration():
    ds, topo = named_instance()
    for o, dmu in enumerate(ds.dmu_ids):
        want_var, want_rad, want_s1, want_s2 = NAMED_EXPECTED[o]
        assert network_mpss_variable(ds, topo, dmu).score == pytest.approx(want_var, abs=1e-6)
        assert network_mpss_radial(ds, topo, dmu).score == pytest.approx(want_rad, abs=1e-6)
        _, st1, st2 = evaluate_stages(ds, topo, dmu)
        assert st1.score == pytest.approx(want_s1, abs=2e-6)
        assert st2.score == pytest.approx(want_s2, abs=2e-6)


def test_self_feasibility_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(6):
        topo = two_stage_topology(*(int(rng.integers(1, 3)) for _ in range(5)))
        ds = random_dataset(rng, topo, int(rng.integers(2, 5)))
        for dmu in ds.dmu_ids:
            assert network_mpss_variable(ds, topo, dmu).score >= -1e-9
            assert network_mpss_radial(ds, topo, dmu).score >= -1e-9
            assert blackbox_mpss(ds, dmu, topology=topo).score >= -1e-9


def test_network_score_dominates_blackbox():
    # the black-box optimum embeds into the free-intermediate system model,
    # so system-MPSS units form a subset of black-box-MPSS units
    rng = np.random.default_rng(23)
    for _ in range(6):
        topo = two_stage_topology(*(int(rng.integers(1, 3)) for _ in range(5)))
        ds = random_dataset(rng, topo, int(rng.integers(2, 5)))
        for dmu in ds.dmu_ids:
            var = network_mpss_variable(ds, topo, dmu)
            bb = blackbox_mpss(ds, dmu, topology=topo)
            assert var.score >= bb.score - 1e-7
            if var.is_mpss():
                assert bb.is_mpss()


def test_units_invariance():
    ds, topo = named_instance()
    for factor in (0.1, 10.0):
        for name in ("mid_0", "in1_1", "out2_0"):
            scaled = Dataset(
                ds.dmu_ids,
                {m: (np.asarray(v) * (factor if m == name else 1.0))
                 for m, v in ds.measures.items()},
            )
            for dmu in ds.dmu_ids:
                a = network_mpss_variable(ds, topo, dmu).score
                b = network_mpss_variable(scaled, topo, dmu).score
                assert b == pytest.approx(a, abs=1e-7)
                ar = network_mpss_radial(ds, topo, dmu).score
                br = network_mpss_radial(scaled, topo, dmu).score
                assert br == pytest.approx(ar, abs=1e-7)


def test_permutation_invariance():
    ds, topo = named_instance()
    order = [2, 0, 1]
    permuted = Dataset(
        [ds.dmu_ids[i] for i in order],
        {m: np.asarray(v)[order] for m, v in ds.measures.items()},
    )
    for dmu in ds.dmu_ids:
        assert network_mpss_variable(permuted, topo, dmu).score == pytest.approx(
            network_mpss_variable(ds, topo, dmu).score, abs=1e-9
        )


def test_stage_solutions_respect_the_band():
    ds, topo = named_instance()
    for dmu in ds.dmu_ids:
        system, st1, st2 = evaluate_stages(ds, topo, dmu)
        for res in (st1, st2):
            f = res.scale_factors
            refit = f["stage2_outputs"] - f["stage1_inputs"]
            assert refit == pytest.approx(system.score, abs=1.5e-6)
        f2 = st2.scale_factors
        assert f2["stage1_outputs"] - f2["stage1_inputs"] == pytest.approx(
            st1.score, abs=1.5e-6
        )


def test_inconsistent_fixing_score_raises():
    ds, topo = named_instance()
    prog = _program(ds, topo, SYSTEM_RADIAL, _system_program)
    (outcome,) = _solves(prog, ["u1"], [ds.index_of("u1")], _STAGES[1], [None], [[1e6]])
    with pytest.raises(SolverError, match="fixing band infeasible at system score 1000000.0"):
        raise outcome


def test_variable_intermediates_reported_with_uniqueness_flag():
    ds, topo = named_instance()
    res = network_mpss_variable(ds, topo, "u2")
    assert set(res.optimal_intermediates) == {"mid_0", "mid_1"}
    assert isinstance(res.intermediates_unique, bool)


def test_wrong_topology_shape_rejected():
    chain = chain_topology()
    ds = dataset_for(chain, [[1, 2, 3, 4, 5]])
    with pytest.raises(UnsupportedTopologyError, match="unsupported topology"):
        network_mpss_variable(ds, chain, "u1")


def test_unknown_dmu_rejected():
    ds, topo = named_instance()
    with pytest.raises(ValidationError, match="unknown DMU"):
        network_mpss_radial(ds, topo, "nope")


def test_blackbox_needs_inputs_and_outputs():
    ds = Dataset(["A"], {"x": [1.0]})
    with pytest.raises(ValidationError, match="input"):
        blackbox_mpss(ds, "A", inputs=["x"], outputs=[])


@pytest.mark.parametrize("lists", [{"inputs": ["x"]}, {"outputs": ["y"]},
                                   {"inputs": [], "outputs": []}])
def test_blackbox_rejects_a_topology_with_measure_lists(lists):
    """A topology and measure lists both name the split: neither is dropped silently."""
    ds, topo = named_instance()
    with pytest.raises(ValidationError, match="not both"):
        blackbox_mpss(ds, "u1", topology=topo, **lists)
    with pytest.raises(ValidationError, match="not both"):
        list(network.blackbox_sweep(ds, ds.dmu_ids, topology=topo, **lists))


def test_model_solves_skip_phase_one(monkeypatch):
    """Every model solve given a start reports it, so a silent fall-back to phase one fails here.

    ``profitability_mpss`` is left out: it takes no start and always runs
    both phases.
    """
    from dea_mpss.chain import ChainWeights, intermediate_targets
    from test_acceptance import insurance_views

    started = []
    for module in (network, chain):
        def recording(problem, *args, solve=module.solve_lp, **kwargs):
            sol = solve(problem, *args, **kwargs)
            started.append(sol.started)
            return sol

        monkeypatch.setattr(module, "solve_lp", recording)
    insurers, two_stage = insurance_views()
    for dmu in insurers.dmu_ids:
        blackbox_mpss(insurers, dmu, topology=two_stage)
        network_mpss_variable(insurers, two_stage, dmu)
        network_mpss_radial(insurers, two_stage, dmu)
        evaluate_stages(insurers, two_stage, dmu)
    topo = chain_topology(m=2, p=1, k=2, e=1, s=1)
    ds = random_dataset(np.random.default_rng(2024), topo, 40)
    for dmu in ds.dmu_ids:
        blackbox_mpss(ds, dmu, topology=topo)
        for weights in (ChainWeights(), ChainWeights(1.0, 1.0, 0.0)):
            chain_efficiency(ds, topo, dmu, weights)
            solved = chain_mpss(ds, topo, dmu, weights)
            intermediate_targets(ds, topo, dmu, weights, solved=solved)
    assert len(started) == 24 * 6 + 40 * 5
    assert "cold" not in started
    assert started.count("warm") == 24 * 2


def split(ds, topo, dmu):
    return profitability_mpss(ds, topo, dmu, chain_mpss(ds, topo, dmu).score)


# solve site -> (its instance, the model call, which of the call's solves is
# the site's, and the context its errors name)
SOLVE_SITES = {
    "blackbox": (named_instance, lambda d, t, u: blackbox_mpss(d, u, topology=t), 0,
                 "black-box evaluation"),
    "variable": (named_instance, network_mpss_variable, 0, "system evaluation"),
    "radial": (named_instance, network_mpss_radial, 0, "radial system evaluation"),
    "stage-1": (named_instance, evaluate_stages, 1, "stage-1 evaluation"),
    "stage-2": (named_instance, evaluate_stages, 2, "stage-2 evaluation"),
    "chain-efficiency": (named_chain, chain_efficiency, 0, "chain efficiency"),
    "chain-scale-size": (named_chain, chain_mpss, 0, "chain scale size"),
    "profitability-split": (named_chain, split, 1, "profitability split"),
}
# a pinned site's non-optimal verdict names the pin, at the score a clean run pins
PINNED = {
    "stage-1": lambda d, t, u: f"system score {evaluate_stages(d, t, u)[0].score!r}",
    "stage-2": lambda d, t, u: f"stage-1 score {evaluate_stages(d, t, u)[1].score!r}",
    "profitability-split": lambda d, t, u: (f"chain score {chain_mpss(d, t, u).score!r} "
                                            "(radial intermediates cannot reach it)"),
}


@pytest.mark.parametrize("fault", ["raises", "infeasible", "unbounded"])
@pytest.mark.parametrize("site", list(SOLVE_SITES))
def test_every_solve_site_names_its_failure(site, fault, monkeypatch):
    """A solver error or a non-optimal status raises one ``SolverError`` naming the model and DMU."""
    instance, call, at, context = SOLVE_SITES[site]
    ds, topo = instance()
    if fault == "raises":
        want = "x"
    elif site in PINNED:
        want = f"fixing band infeasible at {PINNED[site](ds, topo, 'u1')}"
    else:
        want = f"linear program is {fault}"
    count = itertools.count()
    for module in (network, chain):
        def faulty(problem, *args, solve=module.solve_lp, **kwargs):
            sol = solve(problem, *args, **kwargs)
            if next(count) != at:
                return sol
            if fault == "raises":
                raise SolverError("x")
            return dataclasses.replace(sol, status=fault)

        monkeypatch.setattr(module, "solve_lp", faulty)
    with pytest.raises(SolverError) as raised:
        call(ds, topo, "u1")
    assert str(raised.value) == f"{context} of 'u1': {want}"
    assert next(count) == at + 1  # the failing solve was the call's last
