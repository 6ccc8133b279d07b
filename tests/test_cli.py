import argparse
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, chain_topology, two_stage_topology
from dea_mpss.cli import _COMMANDS, ReportTable, render, run
from files import topology_to_json
from dea_mpss.errors import SolverError, ValidationError

SINGLE_CSV = "dmu,in1_0,mid_0,out1_0,in2_0,out2_0\nonly,1,2,3,4,5\n"
TRIO_CSV = (
    "dmu,in1_0,mid_0,out1_0,in2_0,out2_0\n"
    "a,1,2,3,4,5\nb,2,3,4,5,6\nc,3,5,5,5,9\n"
)
CHAIN_CSV = (
    "dmu,op_in_0,op_mid_0,rd_in_0,rd_mid_0,final_0\n"
    "a,2,3,4,5,6\nb,3,4,5,6,7\n"
)


@pytest.fixture
def two_stage_files(tmp_path):
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    data.write_text(TRIO_CSV, encoding="utf-8")
    topo.write_text(topology_to_json(two_stage_topology()), encoding="utf-8")
    return str(data), str(topo)


@pytest.fixture
def chain_files(tmp_path):
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    data.write_text(CHAIN_CSV, encoding="utf-8")
    topo.write_text(topology_to_json(chain_topology()), encoding="utf-8")
    return str(data), str(topo)


# -- render ------------------------------------------------------------------


def test_render_one_by_one_csv():
    table = ReportTable("t", ("v",), ((1.23456,),), (2,))
    assert render(table, "csv") == "v\n1.23\n"


def test_render_decimal_tie_ignores_last_ulp():
    # 266.22195 computed one ulp either side of the decimal tie
    table = ReportTable("t", ("v",), ((266.2219500000002,), (266.22194999999994,)), (4,))
    header, above, below = render(table, "csv").splitlines()
    assert above == below


def test_render_empty_rows_header_only():
    table = ReportTable("t", ("a", "b"), (), (None, None))
    assert render(table, "csv") == "a,b\n"


def test_render_markdown_pipe_table():
    table = ReportTable("scores", ("dmu", "score"), (("a", 1.0),), (None, 4))
    text = render(table, "markdown")
    assert "### scores" in text
    assert "| dmu | score |" in text
    assert "| --- | --- |" in text
    assert "| a | 1.0000 |" in text


def test_render_markdown_escapes_text_cells_and_headers():
    table = ReportTable("t", ("a|b", "c\nd"), (("x|y", 1.0), ("u\r\nv", 2.0)), (None, 4))
    assert render(table, "markdown").splitlines()[2:] == [
        r"| a\|b | c<br>d |", "| --- | --- |", r"| x\|y | 1.0000 |", "| u<br>v | 2.0000 |",
    ]
    assert render(table, "csv") == 'a|b,"c\nd"\nx|y,1.0000\n"u\r\nv",2.0000\n'


def test_markdown_dmu_ids_with_pipe_and_line_break(tmp_path, capsys):
    """Each DMU stays one row of five cells; ``--format csv`` keeps the ids as they are."""
    data, topo = tmp_path / "d.csv", tmp_path / "t.json"
    data.write_text(TRIO_CSV.replace("\na,", '\n"a|b",').replace("\nb,", '\n"d\ne",'),
                    encoding="utf-8")
    topo.write_text(topology_to_json(two_stage_topology()), encoding="utf-8")
    argv = ["blackbox-mpss", "--data", str(data), "--topology", str(topo)]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert [row.split(" | ")[0] for row in lines[4:]] == [r"| a\|b", "| d<br>e", "| c"]
    assert {len(re.split(r"(?<!\\)\|", row)) for row in lines[2:]} == {7}
    assert run([*argv, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [row[0] for row in rows[1:]] == ["a|b", "d\ne", "c"]


def test_render_csv_round_trips():
    rows = (("a", 0.1254, 0.2825), ("b", 17.7392, 138.286))
    table = ReportTable("t", ("dmu", "p1", "p2"), rows, (None, 4, 4))
    parsed = list(csv.reader(io.StringIO(render(table, "csv"))))
    assert parsed[0] == ["dmu", "p1", "p2"]
    assert parsed[1] == ["a", "0.1254", "0.2825"]
    assert parsed[2] == ["b", "17.7392", "138.2860"]


def test_render_rejects_unknown_format():
    with pytest.raises(ValidationError):
        render(ReportTable("t", ("a",), (), (None,)), "xml")


def test_report_table_must_be_rectangular():
    with pytest.raises(ValidationError):
        ReportTable("t", ("a", "b"), (("only",),), (None, None))


# -- subcommands ---------------------------------------------------------------


def test_summary_exit_zero(two_stage_files, capsys):
    data, _ = two_stage_files
    assert run(["summary", "--data", data, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "measure,mean,sd,min,max"
    assert len(out.splitlines()) == 6


def test_network_mpss_single_dmu_row(tmp_path, capsys):
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    data.write_text(SINGLE_CSV, encoding="utf-8")
    topo.write_text(topology_to_json(two_stage_topology()), encoding="utf-8")
    code = run(["network-mpss", "--data", str(data), "--topology", str(topo),
                "--intermediates", "variable", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("only,0.0000,")


def test_network_mpss_deterministic_output(two_stage_files, capsys):
    data, topo = two_stage_files
    argv = ["network-mpss", "--data", data, "--topology", topo, "--stages"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_dmu_filter(two_stage_files, capsys):
    data, topo = two_stage_files
    assert run(["blackbox-mpss", "--data", data, "--topology", topo,
                "--dmu", "b", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("b,")


def test_raw_prints_full_precision(two_stage_files, capsys):
    data, _ = two_stage_files
    assert run(["summary", "--data", data, "--format", "csv", "--raw"]) == 0
    out = capsys.readouterr().out
    sd_cell = out.splitlines()[2].split(",")[2]  # sd of the mid_0 column
    assert float(sd_cell) == pytest.approx(1.5275252316519465, abs=1e-15)
    assert len(sd_cell) > 8  # repr precision, not table rounding


def test_decompose_scores_csv(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("dmu,process1,process2\nr1,0.1254,0.2825\n", encoding="utf-8")
    assert run(["decompose", "--scores", str(scores), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 0.14125 stores just under the decimal midpoint, so 4-decimal output is 0.1412
    assert lines[1] == "r1,0.1254,0.2825,0.0627,0.1412,0.2039"


def test_decompose_needs_some_input(capsys):
    assert run(["decompose"]) == 1
    assert "error:" in capsys.readouterr().err


def test_decompose_data_pipeline(tmp_path, capsys):
    # identical rows: system and stage scores are all zero
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    rows = "a,1,2,3,4,5\nb,1,2,3,4,5\n"
    data.write_text("dmu,in1_0,mid_0,out1_0,in2_0,out2_0\n" + rows, encoding="utf-8")
    topo.write_text(topology_to_json(two_stage_topology()), encoding="utf-8")
    assert run(["decompose", "--data", str(data), "--topology", str(topo),
                "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dmu,process1,process2,stage1,stage2,tandem,system"
    assert lines[1] == "a,0.0000,0.0000,0.0000,0.0000,0.0000,0.0000"


def test_decompose_data_negative_stage_exit_two(tmp_path, capsys):
    # a pinned stage program reaches a negative optimum on this valid data
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    topology = two_stage_topology(m1=2, p=1, s1=2, m2=2, s2=2)
    header = ",".join(("dmu",) + topology.referenced_measures())
    rows = "u1,5,9,6,5,3,1,9,1,7\nu2,8,8,8,7,7,1,4,2,8\n"
    data.write_text(header + "\n" + rows, encoding="utf-8")
    topo.write_text(topology_to_json(topology), encoding="utf-8")
    assert run(["decompose", "--data", str(data), "--topology", str(topo)]) == 2
    err = capsys.readouterr().err
    assert "error:" not in err and "nonnegative" not in err
    assert "dmu u1: stage 2" in err and "DECISIONS.md" in err


def test_chain_commands(chain_files, capsys):
    data, topo = chain_files
    assert run(["chain-eff", "--data", data, "--topology", topo, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dmu,objective,operation,rd,marketability,efficient"
    assert run(["chain-mpss", "--data", data, "--topology", topo, "--targets",
                "--w1", "1", "--w2", "0.5", "--w3", "0.5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "op_mid_0_current" in out
    assert "strategy" in out


@pytest.mark.parametrize("command, flag, value", [
    ("chain-eff", "--w1", "nan"), ("chain-mpss", "--w2", "nan"), ("chain-eff", "--w1", "inf"),
    ("chain-mpss", "--w3", "-inf"),
])
def test_non_finite_chain_weight_exit_one(command, flag, value, chain_files, capsys):
    data, topo = chain_files
    assert run([command, "--data", data, "--topology", topo, f"{flag}={value}", "--dmu", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: chain weights must be finite")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["summary", "validate"])
def test_dmu_flag_rejected_where_no_model_runs(command, two_stage_files, capsys):
    data, topo = two_stage_files
    argv = [command, "--data", data, "--dmu", "nope"]
    if command == "validate":
        argv += ["--topology", topo]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --dmu nope\n"


@pytest.mark.parametrize("flag, value", [
    ("--dmu", "nope"), ("--data", "nope.csv"), ("--topology", "nope.json"),
    ("--min-epsilon", "-3"),
])
def test_decompose_scores_rejects_data_flags(flag, value, capsys):
    # --scores reads the scores file alone, so a flag about a data file is a mistake
    argv = ["decompose", "--scores", str(FIXTURES / "insurance_mpss_reference.csv"), flag, value]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument {flag}: not allowed with argument --scores\n"


def test_kruskal_wallis_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("score\n1\n2\n3\n4\n", encoding="utf-8")
    b.write_text("score\n2\n3\n4\n5\n", encoding="utf-8")
    assert run(["kruskal-wallis", "--groups", f"{a},{b}", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "groups,h_statistic,df,p_value,tie_corrected"
    assert lines[1].startswith("2,")


def test_kruskal_wallis_reference_columns(tmp_path, capsys):
    import csv as csv_mod
    from conftest import FIXTURES

    with open(FIXTURES / "rdvc_mpss_reference.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.DictReader(fh))
    for year in ("2014", "2015"):
        path = tmp_path / f"op_{year}.csv"
        path.write_text("\n".join(r[f"operation_{year}"] for r in rows), encoding="utf-8")
    assert run(["kruskal-wallis", "--format", "csv",
                "--groups", f"{tmp_path / 'op_2014.csv'},{tmp_path / 'op_2015.csv'}"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == "2,0.119,1,0.730,yes"


def test_validate_ok_and_missing_file(two_stage_files, tmp_path, capsys):
    data, topo = two_stage_files
    assert run(["validate", "--data", data, "--topology", topo]) == 0
    capsys.readouterr()
    assert run(["validate", "--data", str(tmp_path / "nope.csv"), "--topology", topo]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_command_exit_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_flag_exit_one(two_stage_files, capsys):
    data, topo = two_stage_files
    assert run(["network-mpss", "--data", data, "--topology", topo, "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_solver_failure_exit_two(monkeypatch, capsys):
    from dea_mpss import cli

    def boom(args):
        raise SolverError("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "summary", cli._COMMANDS["summary"]._replace(body=boom))
    assert run(["summary", "--data", "whatever"]) == 2
    assert "solver failure" in capsys.readouterr().err


# scores of the 60-unit log-spread set (every measure 10^U(0, 8)) that HiGHS
# certifies after dividing each measure by the unit's own level
LOG_SPREAD_CERTIFIED = {
    "u20": 1984.6270119803735,
    "u35": 762336.9976773832,
    "u49": 205334.25127940453,
    "u59": 1.176217874919655,
    # units whose crash start fails, so their solve runs phase one
    "u1": 522.7823295418583,
    "u6": 5141268.067566935,
    "u11": 83835852.3195136,
    "u25": 2471.7319827084902,
    "u42": 5.935610767637618,
    "u48": 37.28780718629134,
    "u56": 118.79494375030565,
}


@pytest.mark.parametrize("dmu", sorted(LOG_SPREAD_CERTIFIED))
def test_log_spread_units_match_certified_scores(dmu, capsys):
    from conftest import FIXTURES

    argv = ["network-mpss", "--data", str(FIXTURES / "log_spread.csv"),
            "--topology", str(FIXTURES / "log_spread_topology.json"), "--dmu", dmu,
            "--format", "csv", "--raw"]
    assert run(argv) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert float(row["score"]) == pytest.approx(LOG_SPREAD_CERTIFIED[dmu], rel=1e-6)


@pytest.mark.parametrize("dmu, stage", [("u7", 2), ("u11", 1)])
def test_log_spread_stage_failure_names_unit_and_stage(dmu, stage, capsys):
    # a pinned stage solve of these units falls back to phase one, which
    # ends on a basis that cannot be factored
    from conftest import FIXTURES

    argv = ["network-mpss", "--data", str(FIXTURES / "log_spread.csv"),
            "--topology", str(FIXTURES / "log_spread_topology.json"),
            "--intermediates", "radial", "--stages", "--dmu", dmu]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"solver failure: stage-{stage} evaluation of {dmu!r}: singular basis between phases\n")


def test_decompose_short_scores_row_exit_one(tmp_path, capsys):
    scores = tmp_path / "s.csv"
    scores.write_text("process1,process2\n0.1\n", encoding="utf-8")
    assert run(["decompose", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == "error: scores row 1: fewer cells than the header\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("decompose", "s.csv", "dmu,process1,process2\na,nan,1\n",
     "scores row 1: process scores must be finite"),
    ("decompose", "s.csv", "dmu,process1,process2\na,0.2,0.3\nb,-1,0.3\n",
     "scores row 2: process scores must be nonnegative"),
    ("kruskal-wallis", "g.csv", "v\n1\nnan\n", "group 1 holds a non-finite value"),
    ("kruskal-wallis", "g.csv", "v\n1\ninf\n", "group 1 holds a non-finite value"),
], ids=["decompose-nan", "decompose-negative", "kruskal-nan", "kruskal-inf"])
def test_non_finite_scores_exit_one(tmp_path, capsys, command, name, text, message):
    (tmp_path / name).write_text(text, encoding="utf-8")
    if command == "decompose":
        argv = ["decompose", "--scores", str(tmp_path / name)]
    else:
        (tmp_path / "ok.csv").write_text("v\n1\n2\n3\n", encoding="utf-8")
        argv = ["kruskal-wallis", "--groups", f"{tmp_path / 'ok.csv'},{tmp_path / name}"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text, line, cell", [
    ("v\n1\n2x\n3\n", 3, "2x"),
    ("1\n2\nn/a\n", 3, "n/a"),
    ("v,w\n1,2\n3,\"4\n\"\n5,x\n", 5, "x"),  # a quoted cell spans lines 3 and 4
], ids=["after-header", "no-header", "multi-line-cell"])
def test_non_numeric_group_cell_exit_one(tmp_path, monkeypatch, capsys, text, line, cell):
    """Only a group file's first row, its header, may hold cells that are not numbers."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.csv").write_text("v\n1\n2\n5\n", encoding="utf-8")
    (tmp_path / "g.csv").write_text(text, encoding="utf-8")
    assert run(["kruskal-wallis", "--groups", "ok.csv,g.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: group file g.csv: line {line}: non-numeric value {cell!r}\n"


def test_epsilon_flag_repairs_zeros(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("dmu,a\nu1,0\nu2,2\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="epsilon"):
        assert run(["summary", "--data", str(data), "--min-epsilon", "0.001",
                    "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "0.0010" in out  # min column reflects the substitution


@pytest.mark.parametrize("epsilon, shown", [
    ("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf"),
])
@pytest.mark.parametrize("command", ["summary", "validate"])
def test_bad_epsilon_flag_rejected(command, epsilon, shown, two_stage_files, tmp_path, capsys):
    data = tmp_path / "zero.csv"
    data.write_text(TRIO_CSV.replace("a,1,", "a,0,"), encoding="utf-8")
    argv = [command, "--data", str(data), "--min-epsilon", epsilon]
    if command == "validate":
        argv += ["--topology", two_stage_files[1]]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: epsilon must be positive and finite, got {shown}\n"


def test_epsilon_warning_is_one_line_per_call(tmp_path):
    # outside pytest's warning capture, and twice in one process
    data = tmp_path / "d.csv"
    data.write_text("dmu,a\nu1,0\nu2,-1\nu3,2\n", encoding="utf-8")
    twice = "import sys; from dea_mpss.cli import run; [run(sys.argv[1:]) for _ in 'ab']"
    proc = subprocess.run(
        [sys.executable, "-c", twice, "summary", "--data", str(data),
         "--min-epsilon", "0.001", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: replaced 2 nonpositive value(s) with epsilon 0.001\n" * 2


def test_console_entry_point(two_stage_files):
    data, topo = two_stage_files
    proc = subprocess.run(
        [sys.executable, "-m", "dea_mpss.cli", "summary", "--data", data],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "measure" in proc.stdout


@pytest.mark.parametrize("argv, what", [
    (["summary", "--data", "nope.csv"], "data"),
    (["decompose", "--scores", "nope.csv"], "scores"),
])
def test_missing_input_file_exit_one(argv, what, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} file: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, what", [
    (["summary", "--data", "bad"], "data"),
    (["validate", "--data", "d.csv", "--topology", "bad"], "topology"),
    (["decompose", "--scores", "bad"], "scores"),
    (["kruskal-wallis", "--groups", "bad,g.csv"], "group"),
])
def test_non_utf8_input_file_exit_one(argv, what, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"\xff\xfedmu,a\n")
    (tmp_path / "d.csv").write_text(TRIO_CSV, encoding="utf-8")
    (tmp_path / "g.csv").write_text("v\n1\n2\n", encoding="utf-8")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {what} file: ") and err.count("\n") == 1
    assert "codec can't decode" in err


@pytest.mark.parametrize("argv, what, text, line", [
    (["summary", "--data", "long.csv"], "data", "dmu,a\nu1,{cell}\n", 2),
    (["decompose", "--scores", "long.csv"], "scores", "dmu,process1,process2\nu1,{cell},0.5\n", 2),
    (["kruskal-wallis", "--groups", "g.csv,long.csv"], "group", "v\n1\n{cell}\n", 3),
], ids=["data", "scores", "group"])
def test_oversized_csv_field_exit_one(argv, what, text, line, tmp_path, monkeypatch, capsys):
    # a cell past the csv module's default field limit of 131,072 characters
    monkeypatch.chdir(tmp_path)
    (tmp_path / "long.csv").write_text(text.format(cell="1" * 200_000), encoding="utf-8")
    (tmp_path / "g.csv").write_text("v\n1\n2\n", encoding="utf-8")
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: cannot parse {what} file: line {line}: "
                   "field larger than field limit (131072)\n")


# each: the path to one topology JSON value, a wrongly typed value for it, and the
# error; the last seven were accepted before the fields were type-checked
@pytest.mark.parametrize("path, value, message", [
    (["processes"], 5, "topology JSON: 'processes' must be a list, got 5"),
    (["processes"], [5], "process #0: must be an object, got 5"),
    (["links"], [5], "link #0: must be an object, got 5"),
    (["links"], None, "topology JSON: 'links' must be a list, got null"),
    (["processes", 1, "importance_weight"], None,
     "process #1: 'importance_weight' must be a number, got null"),
    (["processes", 0, "stage"], "x", "process #0: 'stage' must be an integer, got \"x\""),
    (["processes", 0, "stage"], 1.7, "process #0: 'stage' must be an integer, got 1.7"),
    (["processes", 0, "exogenous_inputs"], "in1_0",
     "process #0: 'exogenous_inputs' must be a list of measure names, got \"in1_0\""),
    (["processes", 1, "final_outputs"], ["out2_0", 5],
     "process #1: 'final_outputs' must be a list of measure names, got [\"out2_0\", 5]"),
    (["processes", 0, "stage"], "1", "process #0: 'stage' must be an integer, got \"1\""),
    (["processes", 0, "stage"], True, "process #0: 'stage' must be an integer, got true"),
    (["processes", 1, "importance_weight"], "1",
     "process #1: 'importance_weight' must be a number, got \"1\""),
    (["processes", 1, "importance_weight"], True,
     "process #1: 'importance_weight' must be a number, got true"),
    (["processes", 1, "name"], 2, "process #1: 'name' must be a string, got 2"),
    (["links", 0, "to"], 2, "link #0: 'to' must be a string, got 2"),
], ids=["processes-5", "processes-[5]", "links-[5]", "links-null", "weight-null", "stage-x",
        "stage-1.7", "inputs-string", "outputs-number", "stage-string", "stage-true",
        "weight-string", "weight-true", "name-number", "link-to-number"])
def test_wrongly_typed_topology_field_exit_one(path, value, message, two_stage_files, capsys):
    data, topo = two_stage_files
    doc = json.loads(Path(topo).read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    Path(topo).write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate", "--data", data, "--topology", topo]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_deeply_nested_topology_exit_one(tmp_path, capsys):
    """JSON nested deeper than the parser's recursion limit is a faulty topology, not a crash."""
    topo = tmp_path / "deep.json"
    topo.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    data = str(FIXTURES / "insurers_24.csv")
    assert run(["validate", "--data", data, "--topology", str(topo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: topology is not valid JSON: maximum recursion depth exceeded")
    assert err.count("\n") == 1


# -- one parser per call ------------------------------------------------------


def _outcome(argv, capsys):
    try:
        status = run(argv)
    except SystemExit as exc:
        status = ("exit", exc.code)
    out = capsys.readouterr()
    return status, out.out, out.err


def _full_parser_outcome(argv, capsys, monkeypatch):
    """``run(argv)``'s outcome when it parses with the full ``dea-mpss`` parser."""
    from dea_mpss import cli

    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        return _outcome(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([name, "-h"] for name in _COMMANDS),
    [],
    ["frobnicate"],
    ["network-mpss"],
    ["summary", "--data"],
    ["--raw", "summary"],
    ["network-mpss", "--data", "{data}", "--topology", "{topo}", "--bogus"],
    ["validate", "--data", "{data}", "--topology", "{topo}", "--format", "xml"],
    ["chain-eff", "--data", "{data}", "--topology", "{topo}", "--w1", "abc"],
    ["kruskal-wallis"],
], ids=" ".join)
def test_parser_parity_with_every_subcommand_built(argv, two_stage_files, monkeypatch,
                                                   capsys):
    data, topo = two_stage_files
    argv = [a.format(data=data, topo=topo) for a in argv]
    assert _outcome(argv, capsys) == _full_parser_outcome(argv, capsys, monkeypatch)


# per command: --help, then usage errors: a missing --data, a bad --format
# choice, an unrecognized argument, a non-numeric --w1 and an abbreviated --dat
_FIDELITY_CASES = {
    "help": ["--help"],
    "no-data": ["--format", "csv"],
    "bad-format": ["--data", "{data}", "--format", "xml"],
    "unrecognized": ["--data", "{data}", "--bogus", "1"],
    "non-numeric-w1": ["--data", "{data}", "--w1", "abc"],
    "abbreviated": ["--dat", "{data}", "--format", "xml"],
    "abbreviated-alone": ["--dat"],
}


@pytest.mark.parametrize("case", list(_FIDELITY_CASES))
@pytest.mark.parametrize("name", list(_COMMANDS))
def test_named_command_parses_as_the_full_parser(name, case, two_stage_files, monkeypatch,
                                                 capsys):
    """A named command's own parser prints and parses byte for byte as the full one."""
    from dea_mpss import cli

    data, _ = two_stage_files
    argv = [name, *(a.format(data=data) for a in _FIDELITY_CASES[case])]
    own = _outcome(argv, capsys)
    assert own == _full_parser_outcome(argv, capsys, monkeypatch)
    if case == "help":
        assert own[0] == ("exit", 0) and own[1].startswith(f"usage: dea-mpss {name} ")
    else:
        assert own[0] == 1 and own[1] == "" and own[2].startswith("error: ")
    try:
        full = cli._build_parser().parse_args(argv)
    except (SystemExit, ValidationError):
        return
    assert cli._parse(argv) == full  # parsed, and the error came from the command


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("name", [None, *_COMMANDS])
def test_help_wraps_as_argparse_does(name, columns, monkeypatch, capsys):
    """``--help`` is what argparse's own formatter prints at the terminal's width."""
    from dea_mpss import cli

    monkeypatch.setenv("COLUMNS", columns)
    argv = ["--help"] if name is None else [name, "--help"]
    own = _outcome(argv, capsys)
    monkeypatch.setattr(cli._Parser, "_get_formatter", argparse.ArgumentParser._get_formatter)
    assert own[0] == ("exit", 0)
    assert own == _outcome(argv, capsys) == _full_parser_outcome(argv, capsys, monkeypatch)


def test_dmu_call_builds_one_subparser(two_stage_files, monkeypatch, capsys):
    from dea_mpss import cli

    data, topo = two_stage_files
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    monkeypatch.setattr(cli, "_build_parser", full_parser)
    assert run(["network-mpss", "--data", data, "--topology", topo, "--dmu", "a"]) == 0
    assert built == ["dea-mpss network-mpss"]


@pytest.fixture
def insurer_files(tmp_path):
    """The insurer table with its two-stage topology and a value-chain view of it."""
    from test_acceptance import insurance_views
    from test_sweep import insurers

    two_stage, chain = tmp_path / "two_stage.json", tmp_path / "chain.json"
    two_stage.write_text(topology_to_json(insurance_views()[1]), encoding="utf-8")
    chain.write_text(topology_to_json(insurers()[1]), encoding="utf-8")
    return str(FIXTURES / "insurers_24.csv"), str(two_stage), str(chain)


@pytest.mark.parametrize("argv, chain", [
    (["network-mpss", "--intermediates", "variable"], False),
    (["network-mpss", "--intermediates", "radial", "--stages"], False),
    (["chain-mpss", "--targets"], True),
    (["chain-eff"], True),
    (["blackbox-mpss"], False),
], ids=["network-variable", "network-radial-stages", "chain-mpss-targets", "chain-eff",
        "blackbox-mpss"])
def test_dmu_rows_repeat_the_sweep_byte_for_byte(insurer_files, argv, chain, capsys):
    """Each ``--dmu`` report holds exactly its unit's lines of the whole-file report."""
    data, two_stage, chain_view = insurer_files
    call = [*argv, "--data", data, "--topology", chain_view if chain else two_stage,
            "--format", "csv", "--raw"]
    assert run(call) == 0
    tables = [t.splitlines() for t in capsys.readouterr().out.split("\n\n")]
    units = [line.split(",", 1)[0] for line in tables[0][1:]]
    assert len(units) == 24
    for dmu in units:
        assert run([*call, "--dmu", dmu]) == 0
        got = [t.splitlines() for t in capsys.readouterr().out.split("\n\n")]
        want = [[t[0], *(line for line in t[1:] if line.split(",", 1)[0] == dmu)]
                for t in tables]
        assert got == want, dmu
