"""Command-line interface: every subcommand wraps one library operation.

Reports go to standard output (CSV or markdown), diagnostics to standard
error.  Exit status: 0 success, 1 validation/input error, 2 solver
failure or a model outcome the command cannot report.  Output is
deterministic: rows follow dataset order and scores are printed rounded
(4 decimals for scale-size scores, 3 for efficiencies) while all
computation happens at full precision; ``--raw`` switches printing to full
precision.

A call that names its command first parses the rest with that command's
parser alone, built as ``add_parser`` would build it, under the same
``prog``: the top-level parser and its subparsers action are not built.
Each ``add_argument`` sets up a help formatter, so building the full
parser took longer than a single-DMU solve.  The full parser is built
only when no command is named: no arguments, an unknown command,
top-level ``--help``, or an option before the command.  Help, usage and
error text are the same either way, since ``_Parser.error`` raises the
bare message.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import shutil
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .chain import (
    ChainWeights,
    chain_efficiency,
    chain_efficiency_sweep,
    chain_mpss,
    chain_mpss_sweep,
    intermediate_targets,
)
from .data import DataWarning, csv_errors, load_dataset, parse_data_csv, read_text, summarize
from .errors import DeaMpssError, SolverError, ValidationError
from .network import (
    blackbox_mpss,
    blackbox_sweep,
    evaluate_stages,
    network_mpss_radial,
    network_mpss_variable,
    network_radial_sweep,
    network_variable_sweep,
    stages_sweep,
)
from .rank_tests import kruskal_wallis
from .tandem import _check_weights, decompose

MPSS_DECIMALS = 4
EFF_DECIMALS = 3


class _ModelOutcomeError(DeaMpssError):
    """Valid input whose model optimum the command has no report for."""


@dataclass(frozen=True)
class ReportTable:
    """Rectangular report; ``precisions`` gives decimals per column (None = text)."""

    title: str
    headers: tuple
    rows: tuple
    precisions: tuple
    raw: bool = False

    def __post_init__(self):
        for r in self.rows:
            if len(r) != len(self.headers):
                raise ValidationError("report rows must match the header width")
        if len(self.precisions) != len(self.headers):
            raise ValidationError("one precision entry per column required")


def _markdown_text(text: str) -> str:
    """``text`` as one markdown table cell: ``|`` as ``\\|``, a line break as ``<br>``."""
    return re.sub(r"\r\n|\r|\n", "<br>", text.replace("|", r"\|"))


def _cell(value, precision, raw, escape) -> str:
    if precision is None or isinstance(value, str):
        return escape(str(value))
    v = float(value)
    if raw:
        return repr(v)
    # at 12 significant digits first, so a value one ulp either side of a
    # decimal tie prints the same cell
    text = f"{float(f'{v:.12g}'):.{precision}f}"
    if float(text) == 0.0:  # avoid a stray "-0.0000"
        text = text.replace("-", "", 1)
    return text


def render(table: ReportTable, format: str = "markdown") -> str:
    """Render to CSV (load-compatible) or a markdown pipe table.

    In markdown, the headers and text cells escape what would break the
    table (``_markdown_text``); numeric cells and CSV are written as they are.
    """
    escape = _markdown_text if format == "markdown" else str
    cells = [
        [_cell(v, p, table.raw, escape) for v, p in zip(row, table.precisions)]
        for row in table.rows
    ]
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.headers)
        writer.writerows(cells)
        return out.getvalue()
    if format == "markdown":
        lines = [f"### {table.title}", ""] if table.title else []
        lines.append("| " + " | ".join(map(escape, table.headers)) + " |")
        lines.append("| " + " | ".join("---" for _ in table.headers) + " |")
        lines.extend("| " + " | ".join(row) + " |" for row in cells)
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown output format {format!r}")


# -- argument plumbing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports one-line errors and exits with status 1.

    It asks for the terminal size once, where argparse asks once per
    ``add_argument``, and hands every help formatter the width the
    formatter would compute for itself.
    """

    def __init__(self, *args, **kwargs):
        self._width = shutil.get_terminal_size().columns - 2
        super().__init__(*args, **kwargs)

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=self._width)

    def error(self, message):
        raise ValidationError(message)


def _add_model_args(p, *, data=True, topo=True, dmu=True) -> None:
    if data:
        p.add_argument("--data", required=True, help="CSV file: dmu column then measures")
    if topo:
        p.add_argument("--topology", required=True, help="JSON process/link structure")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--raw", action="store_true", help="print full precision")
    if data:
        p.add_argument("--min-epsilon", type=float, default=None,
                       help="replace nonpositive cells by this value")
    if data and dmu:
        p.add_argument("--dmu", default=None, help="evaluate a single DMU")


def _add_network_args(p) -> None:
    _add_model_args(p)
    p.add_argument("--intermediates", choices=("variable", "radial"), default="variable")
    p.add_argument("--stages", action="store_true",
                   help="also pin the radial system score and split it by stage")


def _add_decompose_args(p) -> None:
    _add_model_args(p, data=False, topo=False)
    p.add_argument("--scores", default=None,
                   help="CSV with process1,process2 columns (else use --data/--topology)")
    p.add_argument("--data", default=None)
    p.add_argument("--topology", default=None)
    p.add_argument("--min-epsilon", type=float, default=None)
    p.add_argument("--dmu", default=None)
    p.add_argument("--omega1", type=float, default=0.5, help="stage-1 real-process weight")
    p.add_argument("--omega2", type=float, default=0.5, help="stage-2 real-process weight")


def _add_chain_args(p) -> None:
    _add_model_args(p)
    p.add_argument("--w1", type=float, default=1.0)
    p.add_argument("--w2", type=float, default=1.0)
    p.add_argument("--w3", type=float, default=1.0)


def _add_chain_mpss_args(p) -> None:
    _add_chain_args(p)
    p.add_argument("--targets", action="store_true",
                   help="also report appropriate intermediate levels and strategies")


def _add_kruskal_args(p) -> None:
    p.add_argument("--groups", required=True,
                   help="comma-separated CSV files, one group of values each")
    p.add_argument("--no-tie-correction", action="store_true")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--raw", action="store_true")


class _Command(NamedTuple):
    help: str           # its line in the top-level help
    add_args: Callable  # adds its arguments to its parser
    body: Callable      # runs it on the parsed arguments


def _build_parser() -> _Parser:
    """The full ``dea-mpss`` parser, with every subcommand."""
    parser = _Parser(prog="dea-mpss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        command.add_args(sub.add_parser(name, help=command.help))
    return parser


def _parse(argv) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it, with one command's parser if it names one."""
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser().parse_args(argv)
    parser = _Parser(prog=f"dea-mpss {argv[0]}")  # as ``add_parser`` makes it
    _COMMANDS[argv[0]].add_args(parser)
    args = parser.parse_args(argv[1:])
    args.command = argv[0]
    return args


def _load(args):
    return load_dataset(args.data, args.topology, min_epsilon=args.min_epsilon)


def _evaluated(dataset, args, one, sweep):
    """``(dmu, result)`` per DMU the call evaluates, in dataset order.

    A ``--dmu`` call solves its one unit through ``one(dmu)``; a whole-file
    call goes through ``sweep(dmus)``, which solves the units in lockstep
    and raises the first failure in dataset order, as a loop over ``one``
    would.
    """
    if args.dmu is None:
        return zip(dataset.dmu_ids, sweep(dataset.dmu_ids))
    dataset.index_of(args.dmu)
    return [(args.dmu, one(args.dmu))]


def _emit(table: ReportTable, args) -> None:
    sys.stdout.write(render(table, args.format))


# -- subcommand bodies ------------------------------------------------------


def _cmd_validate(args) -> None:
    dataset, topology = _load(args)
    rows = (
        ("dmus", str(dataset.n_dmus)),
        ("measures", str(len(dataset.measure_names))),
        ("shape", topology.shape_tag),
        ("processes", str(len(topology.processes))),
        ("links", str(len(topology.links))),
        ("status", "ok"),
    )
    _emit(ReportTable("validation", ("check", "value"), rows, (None, None)), args)


def _cmd_summary(args) -> None:
    dataset = parse_data_csv(read_text(args.data, "data"), min_epsilon=args.min_epsilon)
    stats = summarize(dataset)
    rows = tuple(
        (r.name, r.mean, r.sd, r.minimum, r.maximum) for r in stats.per_measure
    )
    table = ReportTable(
        "descriptive statistics", ("measure", "mean", "sd", "min", "max"),
        rows, (None, 4, 4, 4, 4), raw=args.raw,
    )
    _emit(table, args)


def _cmd_blackbox(args) -> None:
    dataset, topology = _load(args)
    rows = []
    for dmu, res in _evaluated(dataset, args,
                               lambda dmu: blackbox_mpss(dataset, dmu, topology=topology),
                               lambda dmus: blackbox_sweep(dataset, dmus, topology=topology)):
        rows.append((dmu, res.score, res.scale_factors["inputs"],
                     res.scale_factors["outputs"], "yes" if res.is_mpss() else "no"))
    table = ReportTable(
        "black-box scale size",
        ("dmu", "score", "input_factor", "output_factor", "mpss"),
        tuple(rows), (None, MPSS_DECIMALS, MPSS_DECIMALS, MPSS_DECIMALS, None),
        raw=args.raw,
    )
    _emit(table, args)


def _cmd_network(args) -> None:
    dataset, topology = _load(args)
    variable = args.intermediates == "variable"
    headers = ["dmu", "score", "stage1_inputs", "stage1_outputs",
               "stage2_inputs", "stage2_outputs", "mpss"]
    precisions = [None] + [MPSS_DECIMALS] * 5 + [None]
    if args.stages:
        headers += ["stage1_score", "stage2_score"]
        precisions += [MPSS_DECIMALS, MPSS_DECIMALS]

    # each unit's system result, then its stage results with --stages; the
    # radial system row is the first of the three staged solves
    def one(dmu):
        if args.stages and not variable:
            return evaluate_stages(dataset, topology, dmu)
        res = (network_mpss_variable if variable else network_mpss_radial)(dataset, topology, dmu)
        return (res, *evaluate_stages(dataset, topology, dmu)[1:]) if args.stages else (res,)

    def sweep(dmus):
        if args.stages and not variable:
            return stages_sweep(dataset, topology, dmus)
        solved = (network_variable_sweep if variable else network_radial_sweep)(
            dataset, topology, dmus)
        if not args.stages:
            return ((res,) for res in solved)
        return ((res, *staged[1:]) for res, staged in zip(solved, stages_sweep(
            dataset, topology, dmus)))

    rows = []
    for dmu, (res, *stages) in _evaluated(dataset, args, one, sweep):
        f = res.scale_factors
        row = [dmu, res.score, f["stage1_inputs"], f["stage1_outputs"],
               f["stage2_inputs"], f["stage2_outputs"], "yes" if res.is_mpss() else "no"]
        rows.append((*row, *(st.score for st in stages)))
    table = ReportTable(
        f"network scale size ({args.intermediates} intermediates)",
        tuple(headers), tuple(rows), tuple(precisions), raw=args.raw,
    )
    _emit(table, args)


def _read_score_rows(path):
    reader = csv.DictReader(io.StringIO(read_text(path, "scores"), newline=""))
    # the underlying reader: a DictReader counts only the lines it returned
    with csv_errors(reader.reader, "scores"):
        if reader.fieldnames is None or not {"process1", "process2"} <= set(reader.fieldnames):
            raise ValidationError("scores CSV needs process1 and process2 columns")
        label_col = "dmu" if "dmu" in reader.fieldnames else None
        for k, row in enumerate(reader, start=1):
            if None in row.values():  # csv.DictReader's filler for missing cells
                raise ValidationError(f"scores row {k}: fewer cells than the header")
            label = row[label_col] if label_col else str(k)
            try:
                yield label, float(row["process1"]), float(row["process2"])
            except ValueError:
                raise ValidationError(f"scores row {k}: non-numeric process score") from None


def _cmd_decompose(args) -> None:
    weights = (args.omega1, args.omega2)
    rows = []
    if args.scores is not None:
        for flag in ("data", "topology", "min_epsilon", "dmu"):
            if getattr(args, flag) is not None:  # each is about the --data file --scores replaces
                raise ValidationError(f"argument --{flag.replace('_', '-')}: "
                                      "not allowed with argument --scores")
        headers = ("dmu", "process1", "process2", "stage1", "stage2", "tandem")
        _check_weights(weights)  # so a row's error below is about its scores
        for k, (label, p1, p2) in enumerate(_read_score_rows(args.scores), start=1):
            try:
                rep = decompose((p1, p2), weights)
            except ValidationError as exc:
                raise ValidationError(f"scores row {k}: {exc}") from None
            rows.append((label, *rep.process_scores, *rep.stage_scores, rep.tandem_score))
    elif args.data and args.topology:
        headers = ("dmu", "process1", "process2", "stage1", "stage2", "tandem", "system")
        dataset, topology = _load(args)
        for dmu, (system, st1, st2) in _evaluated(
                dataset, args, lambda dmu: evaluate_stages(dataset, topology, dmu),
                lambda dmus: stages_sweep(dataset, topology, dmus)):
            for stage, res in ((1, st1), (2, st2)):
                if res.score < 0.0:
                    raise _ModelOutcomeError(
                        f"dmu {dmu}: stage {stage} score {res.score:.6g} is negative "
                        "under the pinned system score and has no tandem split "
                        "(see DECISIONS.md, entry C7-sign)"
                    )
            rep = decompose((st1.score, st2.score), weights)
            rows.append((dmu, *rep.process_scores, *rep.stage_scores,
                         rep.tandem_score, system.score))
    else:
        raise ValidationError("decompose needs --scores or a --data/--topology pair")
    precisions = (None,) + (MPSS_DECIMALS,) * (len(headers) - 1)
    _emit(ReportTable("scale-size decomposition", headers, tuple(rows), precisions,
                      raw=args.raw), args)


def _cmd_chain_eff(args) -> None:
    dataset, topology = _load(args)
    weights = ChainWeights(args.w1, args.w2, args.w3)
    rows = []
    for dmu, res in _evaluated(dataset, args,
                               lambda dmu: chain_efficiency(dataset, topology, dmu, weights),
                               lambda dmus: chain_efficiency_sweep(dataset, topology, dmus,
                                                                   weights)):
        rows.append((dmu, res.objective, res.theta_operation, res.theta_rd,
                     res.marketability, "yes" if res.is_efficient() else "no"))
    table = ReportTable(
        "chain efficiency",
        ("dmu", "objective", "operation", "rd", "marketability", "efficient"),
        tuple(rows), (None,) + (EFF_DECIMALS,) * 4 + (None,), raw=args.raw,
    )
    _emit(table, args)


def _cmd_chain_mpss(args) -> None:
    dataset, topology = _load(args)
    weights = ChainWeights(args.w1, args.w2, args.w3)
    mids = topology.intermediate_measures()
    rows, target_rows = [], []
    for dmu, res in _evaluated(dataset, args,
                               lambda dmu: chain_mpss(dataset, topology, dmu, weights),
                               lambda dmus: chain_mpss_sweep(dataset, topology, dmus, weights)):
        rows.append((dmu, res.score, res.theta_operation, res.theta_rd,
                     res.theta_market, "yes" if res.is_mpss() else "no"))
        if args.targets:
            report = intermediate_targets(dataset, topology, dmu, weights, solved=res)
            by_measure = {r.measure: r for r in report.rows}
            row = [dmu]
            for m in mids:
                r = by_measure[m]
                row += [r.current, r.appropriate, r.gap]
            row.append(report.strategy)
            target_rows.append(tuple(row))
    table = ReportTable(
        "chain scale size",
        ("dmu", "score", "theta_operation", "theta_rd", "theta_market", "mpss"),
        tuple(rows), (None,) + (MPSS_DECIMALS,) * 4 + (None,), raw=args.raw,
    )
    _emit(table, args)
    if args.targets:
        headers = ["dmu"]
        for m in mids:
            headers += [f"{m}_current", f"{m}_appropriate", f"{m}_gap"]
        headers.append("strategy")
        precisions = (None,) + (MPSS_DECIMALS,) * (len(headers) - 2) + (None,)
        sys.stdout.write("\n")
        _emit(ReportTable("intermediate targets", tuple(headers), tuple(target_rows),
                          precisions, raw=args.raw), args)


def _read_group(path):
    """The numbers of a group file; only its first row, the header, may hold other cells."""
    values = []
    reader = csv.reader(io.StringIO(read_text(path, "group"), newline=""))
    with csv_errors(reader, "group"):
        rows = [(reader.line_num, row) for row in reader]
    for k, (line, row) in enumerate(rows):
        for cell in row:
            cell = cell.strip()
            if not cell:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                if k:
                    raise ValidationError(f"group file {path}: line {line}: "
                                          f"non-numeric value {cell!r}") from None
    if not values:
        raise ValidationError(f"no numeric values in group file {path}")
    return values


def _cmd_kruskal(args) -> None:
    paths = [p for p in args.groups.split(",") if p]
    groups = [_read_group(p) for p in paths]
    res = kruskal_wallis(groups, tie_correction=not args.no_tie_correction)
    table = ReportTable(
        "rank consistency (Kruskal-Wallis)",
        ("groups", "h_statistic", "df", "p_value", "tie_corrected"),
        ((len(groups), res.h_statistic, res.degrees_of_freedom, res.p_value,
          "yes" if res.tie_corrected else "no"),),
        (None, 3, None, 3, None), raw=args.raw,
    )
    _emit(table, args)


# every subcommand, in help order
_COMMANDS = {
    "validate": _Command("check a data/topology pair and report its shape",
                         lambda p: _add_model_args(p, dmu=False), _cmd_validate),
    "summary": _Command("descriptive statistics per measure",
                        lambda p: _add_model_args(p, topo=False, dmu=False), _cmd_summary),
    "blackbox-mpss": _Command("scale-size scores ignoring internal structure", _add_model_args,
                              _cmd_blackbox),
    "network-mpss": _Command("two-stage system scale-size scores", _add_network_args,
                             _cmd_network),
    "decompose": _Command("split process scores into stage and tandem scores",
                          _add_decompose_args, _cmd_decompose),
    "chain-eff": _Command("value-chain efficiencies (one solve per DMU)", _add_chain_args,
                          _cmd_chain_eff),
    "chain-mpss": _Command("value-chain scale-size scores", _add_chain_mpss_args,
                           _cmd_chain_mpss),
    "kruskal-wallis": _Command("rank consistency across score files", _add_kruskal_args,
                               _cmd_kruskal),
}


@contextmanager
def _data_warnings_on_one_line():
    """Print a ``DataWarning`` as one ``warning:`` line, not Python's source echo."""
    python_format = warnings.formatwarning

    def one_line(message, category, *args, **kwargs):
        if issubclass(category, DataWarning):
            return f"warning: {message}\n"
        return python_format(message, category, *args, **kwargs)

    # a fresh registry, so a repeated in-process call warns again
    with warnings.catch_warnings():
        warnings.formatwarning = one_line
        try:
            yield
        finally:
            warnings.formatwarning = python_format


def run(argv) -> int:
    """Parse and execute; returns the process exit status."""
    with _data_warnings_on_one_line():
        try:
            args = _parse(argv)
            if args.command is None:
                raise ValidationError("missing command (try --help)")
            _COMMANDS[args.command].body(args)
            return 0
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 2
        except _ModelOutcomeError as exc:
            print(f"model outcome: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
