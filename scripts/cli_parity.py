"""Fingerprint a fixed list of ``dea-mpss`` invocations, to compare two checkouts.

Each invocation runs in-process through ``dea_mpss.cli.run`` and gives one
JSON line: its argv, its exit status, and the sha256 of its stdout and of
its stderr.  A fault that escapes ``run`` is recorded as the exception's
name, with ``Name: message`` as its stderr.  Paths in argv are written as
``{inputs}``, ``{fixtures}`` and ``{tmp}``, so two runs compare line by
line.  The list covers:

* every subcommand on the 24-insurer fixture, in the default format and
  with ``--format csv --raw``, plus a radial ``--stages --dmu`` call per unit;
* the seed's ``pinned-stages-300`` and ``chain-300`` sweeps, in both formats,
  and a ``--dmu`` call per unit of their first sweep;
* a ``chain-300`` unit under a ``nan`` and an ``inf`` chain weight, and
  ``summary`` and ``validate`` given a ``--dmu`` they take no part in, and
  ``decompose --scores`` given a ``--dmu``, ``--data``, ``--topology`` or
  ``--min-epsilon`` that only a data file's units would use;
* a ``--dmu`` call per log-spread unit, with variable and with radial
  ``--stages`` intermediates, and whole-file log-spread sweeps, in
  ``--format csv --raw``: ``blackbox-mpss``, and ``network-mpss`` with
  variable intermediates, radial, and radial ``--stages`` (whose sweeps
  hand many solves back to the per-unit solver);
* ``summary --min-epsilon`` on a file with nonpositive cells, with a good
  epsilon and with -1, 0, ``nan`` and ``inf``, and a data, scores and group
  file each holding a cell longer than the csv module's field limit;
* ``summary`` and ``validate`` on variants of the insurer file: CRLF line
  ends, a lone CR, a quoted id holding a comma, a BOM, blank and
  comma-only rows, a trailing comma, a ``1_000`` cell and a NUL;
* ``validate`` on the insurer topology with one wrongly typed field each:
  ``processes`` 5 and [5], ``links`` [5] and null, a null
  ``importance_weight``, a ``stage`` of "x" and of 1.7, and a measure list
  given as a string;
* ``validate`` on each topology of ``tests/files.REJECTED``, one per rule of
  the ``data.SHAPES`` layout check, and a markdown ``blackbox-mpss`` run on
  the insurer file with one DMU id holding ``|`` and one a line break;
* the parser: top-level and per-command ``--help``, and per command a
  missing ``--data``, a bad ``--format`` choice, an unrecognized argument,
  a non-numeric ``--w1`` and an abbreviated ``--dat``.  ``--help`` exits
  through ``SystemExit``; its status is recorded as ``exit <code>``.

The package comes from ``PYTHONPATH``.  From the repository root::

    python3 perfbench/inputs.py --seed 1
    PYTHONPATH=<parent checkout>/src python3 scripts/cli_parity.py > parent.jsonl
    PYTHONPATH=src python3 scripts/cli_parity.py > change.jsonl
    diff parent.jsonl change.jsonl
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from dea_mpss.cli import _COMMANDS, run

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))
from files import REJECTED  # noqa: E402

CSV = ["--format", "csv", "--raw"]
FORMATS = ([], CSV)


def unit_ids(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row["dmu"] for row in csv.DictReader(fh)]


def pair(d: Path, data="data.csv", topology="topology.json") -> list:
    return ["--data", str(d / data), "--topology", str(d / topology)]


def invocations(inputs: Path, tmp: Path) -> list:
    small = inputs / "small-cli"
    insurers = ["--data", str(FIXTURES / "insurers_24.csv"),
                "--topology", str(small / "insurers_topology.json")]
    calls = []
    for fmt in FORMATS:
        calls += [
            ["validate", *insurers, *fmt],
            ["summary", "--data", str(FIXTURES / "insurers_24.csv"), *fmt],
            ["blackbox-mpss", *insurers, *fmt],
            *(["network-mpss", *insurers, "--intermediates", kind, *stages, *fmt]
              for kind in ("variable", "radial") for stages in ([], ["--stages"])),
            ["decompose", "--scores", str(FIXTURES / "insurance_mpss_reference.csv"), *fmt],
            ["decompose", *insurers, *fmt],
            ["chain-eff", *insurers, *fmt],
            ["chain-mpss", *insurers, *fmt],
            ["kruskal-wallis", "--groups",
             f"{small / 'kw_2014.csv'},{small / 'kw_2015.csv'}", *fmt],
        ]
    calls += [["network-mpss", *insurers, "--intermediates", "radial", "--stages", *CSV,
               "--dmu", dmu] for dmu in unit_ids(FIXTURES / "insurers_24.csv")]
    stages, chain = pair(inputs / "pinned-stages-300"), pair(inputs / "chain-300")
    for fmt in FORMATS:
        calls += [
            ["network-mpss", *stages, "--intermediates", "radial", "--stages", *fmt],
            ["network-mpss", *stages, "--intermediates", "variable", *fmt],
            ["network-mpss", *stages, "--intermediates", "variable", "--stages", *fmt],
            ["blackbox-mpss", *stages, *fmt],
            ["chain-mpss", *chain, "--targets", *fmt],
            ["chain-mpss", *chain, *fmt],
            ["chain-eff", *chain, *fmt],
            ["chain-eff", *chain, "--w3", "0", *fmt],
            ["blackbox-mpss", *chain, *fmt],
        ]
    for dmu in unit_ids(inputs / "pinned-stages-300" / "data.csv"):
        calls.append(["network-mpss", *stages, "--intermediates", "radial", "--stages", *CSV,
                      "--dmu", dmu])
    for dmu in unit_ids(inputs / "chain-300" / "data.csv"):
        calls.append(["chain-mpss", *chain, "--targets", *CSV, "--dmu", dmu])
    calls += [
        ["chain-eff", *chain, "--w1", "nan", "--dmu", "u1"],
        ["chain-mpss", *chain, "--w2", "inf", "--dmu", "u1"],
        ["summary", "--data", str(FIXTURES / "insurers_24.csv"), "--dmu", "u1"],
        ["validate", *insurers, "--dmu", "u1"],
        *(["decompose", "--scores", str(FIXTURES / "insurance_mpss_reference.csv"), flag, value]
          for flag, value in (("--dmu", "nope"), ("--data", "nope.csv"),
                              ("--topology", "nope.json"), ("--min-epsilon", "-3"))),
    ]
    spread = pair(small, "log_spread.csv", "log_spread_topology.json")
    for dmu in unit_ids(small / "log_spread.csv"):
        calls += [
            ["network-mpss", *spread, "--intermediates", "variable", *CSV, "--dmu", dmu],
            ["network-mpss", *spread, "--intermediates", "radial", "--stages", *CSV,
             "--dmu", dmu],
        ]
    calls += [
        ["blackbox-mpss", *spread, *CSV],
        ["network-mpss", *spread, "--intermediates", "variable", *CSV],
        ["network-mpss", *spread, "--intermediates", "radial", *CSV],
        ["network-mpss", *spread, "--intermediates", "radial", "--stages", *CSV],
    ]
    long_cell = "1" * 200_000
    files = {
        "eps.csv": "dmu,a,b\nu1,0,1\nu2,2,-1\nu3,3,4\n",
        "long_data.csv": f"dmu,a\nu1,{long_cell}\n",
        "long_scores.csv": f"dmu,process1,process2\nu1,{long_cell},0.5\n",
        "long_group.csv": f"v\n1\n{long_cell}\n",
    }
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    calls += [
        *(["summary", "--data", str(tmp / "eps.csv"), "--min-epsilon", eps, *CSV]
          for eps in ("0.001", "-1", "0", "nan", "inf")),
        ["summary", "--data", str(tmp / "long_data.csv")],
        ["decompose", "--scores", str(tmp / "long_scores.csv")],
        ["kruskal-wallis", "--groups", f"{small / 'kw_2014.csv'},{tmp / 'long_group.csv'}"],
    ]
    calls += variant_calls(small / "insurers_topology.json", tmp)
    calls += layout_calls(small / "insurers_topology.json", tmp)
    data = str(FIXTURES / "insurers_24.csv")
    calls += [["--help"], [], ["frobnicate"], ["--raw", "summary"]]
    for name in _COMMANDS:
        calls += [
            [name, "--help"],
            [name, "--format", "csv"],
            [name, "--data", data, "--format", "xml"],
            [name, "--data", data, "--bogus", "1"],
            [name, "--data", data, "--w1", "abc"],
            [name, "--dat", data, "--format", "xml"],
            [name, "--dat"],
        ]
    return calls


def variant_calls(topology: Path, tmp: Path) -> list:
    """``summary`` and ``validate`` on odd insurer data files and on faulty topologies."""
    text = (FIXTURES / "insurers_24.csv").read_text(encoding="utf-8")
    head, first, rest = text.split("\n", 2)
    data = {
        "crlf.csv": text.replace("\n", "\r\n"),
        "lone_cr.csv": f"{head}\n{first}\r{rest}",
        "quoted_id.csv": f'{head}\n"a,b"{first[first.index(","):]}\n{rest}',
        "bom.csv": "\ufeff" + text,
        "blank_rows.csv": f"{head}\n\n{first}\n{',' * head.count(',')}\n  \n{rest}",
        "trailing_comma.csv": f"{head}\n{first},\n{rest}",
        "underscore.csv": f"{head}\n{first[:first.rindex(',')]},1_000\n{rest}",
        "nul.csv": f"{head}\n{first.replace(',', chr(0) + ',', 1)}\n{rest}",
    }
    calls = []
    for name, body in data.items():
        (tmp / name).write_text(body, encoding="utf-8", newline="")
        calls += [["summary", "--data", str(tmp / name), *CSV],
                  ["validate", "--data", str(tmp / name), "--topology", str(topology), *CSV]]
    faults = {
        "processes_number": (["processes"], 5),
        "processes_of_number": (["processes"], [5]),
        "links_of_number": (["links"], [5]),
        "links_null": (["links"], None),
        "weight_null": (["processes", 0, "importance_weight"], None),
        "stage_text": (["processes", 0, "stage"], "x"),
        "stage_fraction": (["processes", 0, "stage"], 1.7),
        "inputs_text": (["processes", 0, "exogenous_inputs"], "service_expense"),
    }
    for name, (path, value) in faults.items():
        doc = json.loads(topology.read_text(encoding="utf-8"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        (tmp / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        calls.append(["validate", "--data", str(FIXTURES / "insurers_24.csv"),
                      "--topology", str(tmp / f"{name}.json")])
    return calls


def layout_calls(topology: Path, tmp: Path) -> list:
    """``validate`` on each rejected layout; markdown rows of DMU ids holding ``|`` or ``\\n``."""
    data = str(FIXTURES / "insurers_24.csv")
    calls = []
    for k, (_, doc, _, _) in enumerate(REJECTED):
        (tmp / f"layout_{k}.json").write_text(json.dumps(doc), encoding="utf-8")
        calls.append(["validate", "--data", data, "--topology", str(tmp / f"layout_{k}.json")])
    head, first, second, rest = (FIXTURES / "insurers_24.csv").read_text(
        encoding="utf-8").split("\n", 3)
    ids = f'{head}\n"a|b"{first[first.index(","):]}\n"d\ne"{second[second.index(","):]}\n{rest}'
    (tmp / "pipe_ids.csv").write_text(ids, encoding="utf-8", newline="")
    calls.append(["blackbox-mpss", "--data", str(tmp / "pipe_ids.csv"),
                  "--topology", str(topology)])
    return calls


def fingerprint(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = run(argv)
        except SystemExit as exc:  # --help
            status = f"exit {exc.code}"
        except Exception as exc:  # a fault the CLI does not report
            status = type(exc).__name__
            print(f"{status}: {exc}", file=err)
    return status, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, default=ROOT / ".perfbench" / "inputs" / "seed-1",
                    help="directory written by perfbench/inputs.py (default: seed 1)")
    args = ap.parse_args()
    inputs = args.inputs.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        names = {str(inputs): "{inputs}", str(FIXTURES): "{fixtures}", tmp: "{tmp}"}
        for argv in invocations(inputs, Path(tmp)):
            status, out, err = fingerprint(argv)
            shown = []
            for arg in argv:
                for path, name in names.items():
                    arg = arg.replace(path, name)
                shown.append(arg)
            print(json.dumps({"argv": shown, "status": status,
                              "stdout": sha256(out), "stderr": sha256(err)}))


if __name__ == "__main__":
    main()
