"""The benchmark's tracing contract, checked against the package as it stands.

``perfbench/spans.py`` times every ``LpProblem.__init__`` as ``lp.problem``,
counts solves where ``network`` and ``chain`` call ``solve_lp``, takes the
DMU from the CLI's model calls, and tells repeated solves apart by
``problem_digest``, which reads ``LpProblem.constraints``.  These tests run
its tracer over single CLI calls, a whole-file sweep and one library call,
the chain's split solve included, and check that every name it and
``perfbench/speed.py`` wrap is bound, without changing anything under
``perfbench/``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import dea_mpss
import dea_mpss.cli
from dea_mpss import chain
from dea_mpss.data import load_dataset
from dea_mpss.lp import LpProblem
from dea_mpss.network import SYSTEM_GAP, SYSTEM_RADIAL, _program, _system_program

from conftest import FIXTURES
from files import topology_to_json
from gen import lp_problem
from test_acceptance import insurance_views
from test_sweep import log_spread

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SPEED = SPANS.parent / "speed.py"
DATA = FIXTURES / "log_spread.csv"
TOPOLOGY = FIXTURES / "log_spread_topology.json"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced(call):
    """The tracer, installed over one invocation of ``call``, and what the call returned."""
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install(dea_mpss)
    try:
        tracer.new_invocation()
        with tracer.span("cli"):
            out = call()
    finally:
        tracer.uninstall()
    return tracer, out


def test_traced_stages_call_counts_three_problems_and_solves(capsys):
    init, evaluate_stages = LpProblem.__init__, dea_mpss.cli.evaluate_stages
    tracer, code = traced(lambda: dea_mpss.cli.run(
        ["network-mpss", "--data", str(DATA), "--topology", str(TOPOLOGY),
         "--intermediates", "radial", "--stages", "--dmu", "u1"]))
    assert code == 0, capsys.readouterr().err
    assert tracer.solves == 3
    assert tracer.calls["lp.problem"] == 3  # every problem went through LpProblem.__init__
    assert tracer.dmus == {(1, "u1")}
    assert tracer.errors == tracer.repeats == 0
    metrics = tracer.metrics(1, 1.0, 0.0)
    assert metrics["lp.solves"]["value"] == 3.0
    assert metrics["lp.problem_ms"]["value"] > 0.0
    assert LpProblem.__init__ is init and dea_mpss.cli.evaluate_stages is evaluate_stages


def test_problem_digest_reads_the_matrix_form_as_its_triples():
    spans = load_spans()
    dataset, topology = load_dataset(DATA, TOPOLOGY)
    prog = _program(dataset, topology, SYSTEM_RADIAL, _system_program)
    unit = prog.unit(dataset.index_of("u1"))
    problem = unit.problem("maximize", SYSTEM_GAP, [0.5])  # the system gap, pinned for stage 1
    rows = [(np.array(a), rel, rhs) for a, rel, rhs in problem.constraints]
    twin = lp_problem(problem.objective_sense, problem.objective, rows)
    assert spans.problem_digest(problem) == spans.problem_digest(twin)
    assert [type(rhs) for _, _, rhs in problem.constraints] == [float] * problem.n_constraints
    other = prog.unit(dataset.index_of("u1"))
    assert spans.problem_digest(other.problem("maximize", SYSTEM_GAP, [0.25])) != \
        spans.problem_digest(problem)


@pytest.mark.parametrize("argv", [["chain-eff"], ["chain-mpss", "--targets"]])
def test_traced_chain_call_counts_one_solve(argv, tmp_path, capsys):
    topology = tmp_path / "chain.json"
    topology.write_text(topology_to_json(log_spread()[1]), encoding="utf-8")
    tracer, code = traced(lambda: dea_mpss.cli.run(
        [*argv, "--data", str(DATA), "--topology", str(topology), "--dmu", "u1"]))
    assert code == 0, capsys.readouterr().err
    assert tracer.solves == tracer.calls["lp.problem"] == 1
    assert tracer.dmus == {(1, "u1")}
    assert tracer.errors == tracer.repeats == 0


def test_traced_profitability_split_counts_one_solve():
    load, topology = log_spread()
    dataset = load()[0]
    score = chain.chain_mpss(dataset, topology, "u1").score
    tracer, split = traced(lambda: chain.profitability_mpss(dataset, topology, "u1", score))
    assert split.chain_score == score
    assert tracer.solves == tracer.calls["lp.problem"] == 1
    assert tracer.errors == tracer.repeats == 0


def load_speed():
    spec = importlib.util.spec_from_file_location("perfbench_speed", SPEED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_binds_every_wrapped_name():
    """The tracer and the speed probe wrap these names of ``dea_mpss.cli``; one unbound
    stops every benchmark run before anything is measured."""
    for attr, _, _ in load_spans().CLI_WRAPS:
        assert callable(getattr(dea_mpss.cli, attr, None)), attr


def test_speed_hook_installs_on_every_name_that_takes_a_dmu(monkeypatch):
    log = load_speed().SpeedLog()
    hooked = [attr for attr, _, dmu_arg in load_spans().CLI_WRAPS if dmu_arg is not None]
    assert hooked
    for attr in hooked:
        original = getattr(dea_mpss.cli, attr)
        monkeypatch.setattr(dea_mpss.cli, attr, original)  # undone after the test
        log.hook(dea_mpss.cli, attr)
        assert getattr(dea_mpss.cli, attr).__wrapped__ is original, attr


def test_traced_whole_file_stage_sweep_exits_zero(tmp_path, capsys):
    topology = tmp_path / "insurers.json"
    topology.write_text(topology_to_json(insurance_views()[1]), encoding="utf-8")
    tracer, code = traced(lambda: dea_mpss.cli.run(
        ["network-mpss", "--data", str(FIXTURES / "insurers_24.csv"), "--topology",
         str(topology), "--intermediates", "radial", "--stages"]))
    assert code == 0, capsys.readouterr().err
    assert tracer.errors == 0
