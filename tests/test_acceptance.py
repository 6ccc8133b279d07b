"""Acceptance gate.

Each criterion runs as one or two tests, records a PASS/FAIL line for the
terminal summary (see conftest), and asserts at its stated tolerance.
Reference tables bundled under fixtures/ are compared with exact decimal
arithmetic, each cell read at its printed precision (conftest: rounded
cells, truncated wide cells); no gate is widened.  Standing failures and
skips are explained in DECISIONS.md.
"""

import csv
import json
import time
from decimal import Decimal

import numpy as np
import pytest

from conftest import (
    FIXTURES,
    as_printed,
    chain_topology,
    dataset_for,
    printed_interval,
    record_acceptance,
    two_stage_topology,
)
from dea_mpss.chain import SELF_NORMALIZED_WEIGHTS, ChainWeights, chain_mpss, classify_strategy
from dea_mpss.data import Dataset, Link, NetworkTopology, ProcessSpec, parse_data_csv
from dea_mpss.lp import solve_lp
from dea_mpss.network import (
    blackbox_mpss,
    evaluate_stages,
    network_mpss_radial,
    network_mpss_variable,
)
from dea_mpss.rank_tests import kruskal_wallis
from dea_mpss.tandem import decompose
from gen import random_lp
from lp_enum import enumerate_solve


def read_fixture(name):
    with open(FIXTURES / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# Printing precision of each reference table (see conftest: cells with fewer
# decimals than this are wide cells, truncated; all others are rounded).
INSURER_DECIMALS = 4
RDVC_DECIMALS = 3
TARGET_DECIMALS = 0


# -- criterion 1: reference decomposition arithmetic ------------------------


def test_c1_decomposition_arithmetic():
    rows = read_fixture("insurance_mpss_reference.csv")
    tol = Decimal("0.0005")
    deviations = []
    t0 = time.perf_counter()
    for r in rows:
        rep = decompose((float(r["process1"]), float(r["process2"])), (0.5, 0.5))
        for col, got in (
            ("stage1", rep.stage_scores[0]),
            ("stage2", rep.stage_scores[1]),
            ("tandem", rep.tandem_score),
        ):
            shown = as_printed(got, r[col], INSURER_DECIMALS)
            diff = abs(shown - Decimal(r[col]))
            if diff > tol:
                deviations.append(
                    f"dmu {r['dmu']} {col}: {got!r} prints as {shown}, table has {r[col]}"
                )
        # network = process1 + process2, with process2 printed from that difference
        p2 = Decimal(r["network"]) - Decimal(r["process1"])
        shown = as_printed(p2, r["process2"], INSURER_DECIMALS)
        if abs(shown - Decimal(r["process2"])) > tol:
            deviations.append(f"dmu {r['dmu']} network - process1 = {p2} prints as {shown}, "
                              f"table has {r['process2']}")
    elapsed = time.perf_counter() - t0
    ok = not deviations and elapsed < 1.0
    record_acceptance(
        "C1", "decomposition identities across the 24-row reference table (5e-4)",
        ok, "; ".join(deviations),
    )
    assert elapsed < 1.0
    assert not deviations, (
        "computed values were cut to each cell's printed decimals (4-decimal cells "
        "rounded half away from zero, 3-decimal wide cells truncated) and still "
        f"differ from the table by more than 5e-4: {deviations}"
    )


# -- criterion 2: rank-consistency statistics --------------------------------

C2_EXPECTED = {
    "operation": (0.119, 0.730),
    "rd": (0.557, 0.456),
    # The published marketability row (H 0.294, p 0.558) breaks the identity
    # p = chi-square(1) tail of H that every two-group result obeys: the tail
    # of 0.294 is 0.588.  No implementation can reproduce that pair, so this
    # row is checked against scipy's Kruskal-Wallis on the same columns.
    "marketability": None,
}


def test_c2_rank_consistency_reproduction():
    scipy_stats = pytest.importorskip("scipy.stats")
    rows = read_fixture("rdvc_mpss_reference.csv")
    failures = []
    t0 = time.perf_counter()
    for col, want in C2_EXPECTED.items():
        g14 = [float(r[f"{col}_2014"]) for r in rows]
        g15 = [float(r[f"{col}_2015"]) for r in rows]
        res = kruskal_wallis([g14, g15])
        source = "published"
        if want is None:
            want, source = tuple(scipy_stats.kruskal(g14, g15)), "scipy"
        want_h, want_p = want
        if abs(res.h_statistic - want_h) > 0.01 or abs(res.p_value - want_p) > 0.01:
            failures.append(
                f"{col}: H={res.h_statistic:.3f}/p={res.p_value:.3f} "
                f"vs {source} {want_h:.3f}/{want_p:.3f}"
            )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    record_acceptance(
        "C2", "rank-consistency statistics from the reference score columns (0.01)",
        ok, "; ".join(failures),
    )
    assert elapsed < 1.0
    assert not failures, failures


# -- criterion 3: profitability additivity ------------------------------------


def test_c3_profitability_additivity():
    rows = read_fixture("rdvc_mpss_reference.csv")
    tol = Decimal("0.002")
    bad = []
    for r in rows:
        for year in ("2014", "2015"):
            op, rd, prof = (
                printed_interval(r[f"{col}_{year}"], RDVC_DECIMALS)
                for col in ("operation", "rd", "profitability")
            )
            # range of operation + rd - profitability over the printed intervals
            lo, hi = op[0] + rd[0] - prof[1], op[1] + rd[1] - prof[0]
            if lo > tol or hi < -tol:
                bad.append(f"region {r['region']} {year}: residual in [{lo}, {hi}]")
    record_acceptance(
        "C3", "operation + research = profitability across 31 regions x 2 years (2e-3)",
        not bad, "; ".join(bad),
    )
    assert not bad, (
        "each cell was read as the interval its printed digits stand for "
        "(3-decimal cells rounded, 2-decimal wide cells truncated), and the "
        f"residual interval lies more than 2e-3 from zero: {bad}"
    )


# -- criterion 4: target gaps and strategies ----------------------------------

C4_MEASURES = {"Sales": "sales", "Patents": "patents"}


def test_c4_improvement_strategies():
    rows = read_fixture("intermediate_targets_2015.csv")
    bad = []
    for r in rows:
        report = classify_strategy(
            {"Sales": float(r["sales_current"]), "Patents": float(r["patents_current"])},
            {"Sales": float(r["sales_target"]), "Patents": float(r["patents_target"])},
        )
        if report.strategy != r["strategy"]:
            bad.append(f"region {r['region']}: {report.strategy!r} vs {r['strategy']!r}")
    record_acceptance(
        "C4-strategies", "improvement-strategy labels for all 30 reference rows",
        not bad, "; ".join(bad),
    )
    assert not bad


def _program_gaps(r, end):
    """The program's gaps with every current level at one end of its printed interval."""
    current = {
        m: float(printed_interval(r[f"{col}_current"], TARGET_DECIMALS)[end])
        for m, col in C4_MEASURES.items()
    }
    appropriate = {m: float(r[f"{col}_target"]) for m, col in C4_MEASURES.items()}
    report = classify_strategy(current, appropriate)
    return {row.measure: Decimal(str(row.gap)) for row in report.rows}


def test_c4_gap_column():
    rows = read_fixture("intermediate_targets_2015.csv")
    bad = []
    for r in rows:
        at_low, at_high = _program_gaps(r, 0), _program_gaps(r, 1)
        for measure, col in C4_MEASURES.items():
            g_lo, g_hi = sorted((at_low[measure], at_high[measure]))
            p_lo, p_hi = printed_interval(r[f"{col}_gap"], TARGET_DECIMALS)
            if g_hi < p_lo or g_lo > p_hi:
                bad.append(f"region {r['region']} {col}: gap in [{g_lo}, {g_hi}] "
                           f"vs printed {r[f'{col}_gap']}")
    record_acceptance(
        "C4-gaps", "gap column reproduced to its printed precision across 60 cells",
        not bad, "; ".join(bad),
    )
    assert not bad, (
        "current levels are printed as integers rounded from unprinted decimals, so "
        "each stands for its +-0.5 interval; no current level in that interval gives "
        f"a gap that rounds to the printed one: {bad}"
    )


# -- criterion 5: LP oracle equivalence ---------------------------------------


def test_c5_lp_oracle_equivalence():
    rng = np.random.default_rng(8132025)
    mismatches = []
    for i in range(200):
        prob = random_lp(rng)
        got = solve_lp(prob)
        status, value, _ = enumerate_solve(
            prob.objective_sense, prob.objective, prob.constraints,
        )
        if got.status != status:
            mismatches.append(f"case {i}: {got.status} vs {status}")
        elif status == "optimal" and abs(got.objective_value - value) > 1e-6:
            mismatches.append(f"case {i}: objective off by {abs(got.objective_value - value):.2e}")
    record_acceptance(
        "C5", "200 random LPs vs basic-solution enumeration (1e-6, statuses exact)",
        not mismatches, "; ".join(mismatches[:5]),
    )
    assert not mismatches, mismatches


# -- criteria 6 and 7: synthetic network suite vs the frozen oracle -----------


def oracle_cases():
    with open(FIXTURES / "network_oracle_cases.json", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def case_views(case):
    ga, gb, gc, gd, ge = case["group_sizes"]
    general = two_stage_topology(m1=ga, p=gb, s1=gc, m2=gd, s2=ge)
    chain = chain_topology(m=ga, p=gb, k=gc, e=gd, s=ge)
    rows = np.hstack([np.asarray(case["groups"][g]) for g in "abcde"])
    return (
        dataset_for(general, rows.tolist()), general,
        dataset_for(chain, rows.tolist()), chain,
    )


def test_c6_network_oracle_equivalence():
    unit, half = ChainWeights(), SELF_NORMALIZED_WEIGHTS
    bad = []
    for case in oracle_cases():
        ds_g, topo_g, ds_c, topo_c = case_views(case)
        probe = ds_g.dmu_ids[case["oracle_dmu"]]
        want = case["oracle"]
        got = {
            "general_variable": network_mpss_variable(ds_g, topo_g, probe).score,
            "general_radial": network_mpss_radial(ds_g, topo_g, probe).score,
            "chain_unit": chain_mpss(ds_c, topo_c, probe, unit).score,
            "chain_half": chain_mpss(ds_c, topo_c, probe, half).score,
        }
        for key, value in got.items():
            if abs(value - want[key]) > 1e-6:
                bad.append(f"{case['name']} {key}: {value:.8f} vs oracle {want[key]:.8f}")
        for dmu in ds_g.dmu_ids:
            if network_mpss_variable(ds_g, topo_g, dmu).score < -1e-9:
                bad.append(f"{case['name']} {dmu}: negative variable score")
            if network_mpss_radial(ds_g, topo_g, dmu).score < -1e-9:
                bad.append(f"{case['name']} {dmu}: negative radial score")
            if chain_mpss(ds_c, topo_c, dmu, half).score < -1e-9:
                bad.append(f"{case['name']} {dmu}: negative chain score")
        if case["kind"] in ("single_dmu", "identical_dmus"):
            for dmu in ds_g.dmu_ids:
                for value in (
                    network_mpss_variable(ds_g, topo_g, dmu).score,
                    network_mpss_radial(ds_g, topo_g, dmu).score,
                    chain_mpss(ds_c, topo_c, dmu, half).score,
                ):
                    if abs(value) > 1e-9:
                        bad.append(f"{case['name']} {dmu}: degenerate score {value:.2e} != 0")
    record_acceptance(
        "C6", "25 synthetic instances vs enumeration oracle (1e-6) incl. degenerate zeros",
        not bad, "; ".join(bad[:5]),
    )
    assert not bad, bad


def test_c7_lexicographic_band_consistency():
    bad = []
    for case in oracle_cases():
        ds_g, topo_g, _, _ = case_views(case)
        for dmu in ds_g.dmu_ids:
            system, st1, st2 = evaluate_stages(ds_g, topo_g, dmu)
            for res in (st1, st2):
                f = res.scale_factors
                refit = f["stage2_outputs"] - f["stage1_inputs"]
                if abs(refit - system.score) > 1e-6 + 1e-9:
                    bad.append(f"{case['name']} {dmu}: system refit off by {abs(refit - system.score):.2e}")
            f2 = st2.scale_factors
            if abs((f2["stage1_outputs"] - f2["stage1_inputs"]) - st1.score) > 1e-6 + 1e-9:
                bad.append(f"{case['name']} {dmu}: stage-1 refit broken")
    record_acceptance(
        "C7-band", "pinned system and stage-1 values re-satisfied within the 1e-6 band",
        not bad, "; ".join(bad[:5]),
    )
    assert not bad, bad


def test_c7_stage_scores_nonnegative():
    bad = []
    for case in oracle_cases():
        ds_g, topo_g, _, _ = case_views(case)
        for dmu in ds_g.dmu_ids:
            _, st1, st2 = evaluate_stages(ds_g, topo_g, dmu)
            if st1.score < -1e-9:
                bad.append(f"{case['name']} {dmu}: stage1 {st1.score:.6f}")
            if st2.score < -1e-9:
                bad.append(f"{case['name']} {dmu}: stage2 {st2.score:.6f}")
    record_acceptance(
        "C7-sign", "stage scores >= -1e-9 on the synthetic suite",
        not bad, "; ".join(bad[:5]),
    )
    assert not bad, (
        "negative stage scores are genuine optima of the pinned stage programs: "
        "once the system score is held fixed, the self-evaluating point is no "
        "longer feasible and the stage gap can only close below zero (verified "
        "independently by enumeration). This conflicts with the named-instance "
        "test in test_network.py, which pins a negative stage-1 score; the "
        "decision and the evidence are in DECISIONS.md, entry C7-sign. "
        + "; ".join(bad[:8])
    )


# -- criterion 8 (optional): 24-insurer fixture --------------------------------

INSURER_BLACKBOX = {
    "1": 0.0750, "2": 0.0000, "3": 0.0585, "4": 10.9947, "5": 0.0000,
    "6": 0.7937, "7": 0.6002, "8": 0.3554, "9": 3.2489, "10": 0.3290,
    "11": 1.1975, "12": 0.0000, "13": 0.2267, "14": 1.1417, "15": 0.0006,
    "16": 2.2001, "17": 0.0247, "18": 2.6003, "19": 0.0308, "20": 0.0172,
    "21": 39.2892, "22": 0.0000, "23": 82.4934, "24": 14.1229,
}
UNVERIFIED_INSURERS = {"23"}  # profit cells not confirmed against the source


def insurance_views():
    with open(FIXTURES / "insurers_24.csv", encoding="utf-8") as fh:
        dataset = parse_data_csv(fh.read())
    procs = [
        ProcessSpec("service", 1, exogenous_inputs=["service_expense"],
                    intermediate_outputs=["direct_premiums", "reinsurance_premiums"],
                    final_outputs=["underwriting_profit"]),
        ProcessSpec("invest", 2, exogenous_inputs=["investment_expense"],
                    intermediate_inputs=["direct_premiums", "reinsurance_premiums"],
                    final_outputs=["investment_profit"]),
    ]
    links = [Link("service", "invest", "direct_premiums"),
             Link("service", "invest", "reinsurance_premiums")]
    return dataset, NetworkTopology(procs, links, "two_stage_general")


def test_c8_insurer_blackbox_column():
    dataset, topology = insurance_views()
    bad = []
    for dmu, want in INSURER_BLACKBOX.items():
        if dmu in UNVERIFIED_INSURERS:
            continue
        got = blackbox_mpss(dataset, dmu, topology=topology).score
        if abs(got - want) > 1e-3:
            bad.append(f"dmu {dmu}: {got:.4f} vs {want}")
    record_acceptance(
        "C8-blackbox",
        "optional insurer fixture: black-box column reproduced on 23 verified rows (1e-3)",
        not bad, "; ".join(bad),
    )
    assert not bad, bad
    # the four published scale-efficient insurers come out exactly as published
    zeros = {d for d in INSURER_BLACKBOX if d not in UNVERIFIED_INSURERS
             and blackbox_mpss(dataset, d, topology=topology).is_mpss()}
    assert zeros == {"2", "5", "12", "22"}


def test_c8_insurer_network_column():
    record_acceptance(
        "C8-network",
        "optional insurer fixture: system column comparison",
        None,
        "published system scores fall below black-box scores on several rows, "
        "which no free-intermediate system program can produce (the black-box "
        "optimum embeds into it); see DECISIONS.md, entry C8-network",
    )
    pytest.skip(
        "published system column is inconsistent with the free-intermediate "
        "system model this package implements: that model provably dominates "
        "the black-box score, yet the published table has system < black-box "
        "for several insurers. The closest reconstruction (series model over "
        "the carried intermediate bundle) matches 13 of 23 verified rows to "
        "4 decimals but is not the published mechanism either (DECISIONS.md, "
        "entry C8-network)."
    )
