"""Datasets, network topologies, file ingestion and descriptive statistics.

A :class:`Dataset` is a strictly positive measure matrix over decision
making units (DMUs).  A :class:`NetworkTopology` declares how processes
consume and produce those measures, in one of the two layouts of
``SHAPES``: ``two_stage_general``, one process per stage in series, and
``series_parallel_chain``, two parallel stage-1 processes feeding one
stage-2 process.  The table gives each process, in stage order, the
measure roles it must hold and those it may not.  A stage list other than
the table's, or a forbidden role, is unsupported rather than silently
mis-modeled; a missing role is invalid.  Each intermediate then needs one
producer, one consumer and a link, so every link runs from stage 1 to 2.

A data file is read on one of two paths.  A plain table, which is what
a hand-written or generated file almost always is, goes through numpy's C
reader in one call, so no Python code runs per cell.  Plain means: no
quote, NUL, ASCII separator control (0x1C-0x1F) or carriage return outside
a CRLF line end; no line past the csv module's field limit; a ``dmu``
header with distinct measure names as the first line; and the header's
comma count on every non-empty line.  The csv module would split such a
text at every comma, and numpy converts each cell as ``float`` does or
rejects it (underscores and non-ASCII digits, which ``float`` takes).
Everything else, such as a quoted id or a faulty file, is read by the csv
module and checked row by row, so a fault is reported as a reader meets
it: the first malformed row or non-numeric cell in file order, with rows
counted over those that hold data.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UnsupportedTopologyError, ValidationError

TWO_STAGE_GENERAL = "two_stage_general"
SERIES_PARALLEL_CHAIN = "series_parallel_chain"

# the measure roles of a process, in declaration order
EXOGENOUS, MID_OUT, MID_IN, FINAL = ROLES = (
    "exogenous_inputs", "intermediate_outputs", "intermediate_inputs", "final_outputs")
# each shape's processes in stage order: (stage, roles it must hold, roles it may not hold)
SHAPES = {
    TWO_STAGE_GENERAL: ((1, (EXOGENOUS, MID_OUT), (MID_IN,)),
                        (2, (MID_IN, FINAL), (MID_OUT,))),
    SERIES_PARALLEL_CHAIN: ((1, (EXOGENOUS, MID_OUT), (MID_IN, FINAL)),
                            (1, (EXOGENOUS, MID_OUT), (MID_IN, FINAL)),
                            (2, (MID_IN, FINAL), (EXOGENOUS, MID_OUT))),
}


class DataWarning(UserWarning):
    """Non-fatal data repairs, e.g. epsilon substitution of zeros."""


def _check_values(keys: Sequence, values: np.ndarray, ids: tuple) -> None:
    """Raise for the first measure, in declared order, that holds a bad value."""
    finite = np.isfinite(values).all(axis=1)
    bad = ~(finite & (values > 0.0).all(axis=1))
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if not finite[k]:
        raise ValidationError(f"measure {keys[k]!r} contains non-finite values")
    v = values[k]
    i = int(np.argmax(v <= 0.0))
    raise ValidationError(
        f"measure {keys[k]!r} has nonpositive value {v[i]} for DMU {ids[i]!r}"
        " (use epsilon substitution to repair zeros)"
    )


@dataclass(frozen=True)
class Dataset:
    """Per-DMU measure matrix; values are strictly positive by contract.

    The values are one read-only (measures, DMUs) array; ``measures[name]``
    is a row view of it.
    """

    dmu_ids: tuple
    measures: Mapping[str, np.ndarray]

    def __init__(
        self,
        dmu_ids: Sequence[str],
        measures: Mapping[str, Sequence[float]],
    ):
        ids = tuple(str(d) for d in dmu_ids)
        if not ids:
            raise ValidationError("dataset needs at least one DMU")
        if len(set(ids)) != len(ids):
            dupes = sorted({d for d in ids if ids.count(d) > 1})
            raise ValidationError(f"duplicate DMU ids: {', '.join(dupes)}")
        keys = list(measures)
        values = np.empty((len(keys), len(ids)))
        for k, vec in enumerate(measures.values()):
            v = np.asarray(vec, dtype=float)
            if v.shape != (len(ids),):
                _check_values(keys, values[:k], ids)  # an earlier measure's fault comes first
                raise ValidationError(
                    f"measure {keys[k]!r} has {v.size} values for {len(ids)} DMUs"
                )
            values[k] = v
        _check_values(keys, values, ids)
        if not keys:
            raise ValidationError("dataset needs at least one measure")
        values.setflags(write=False)
        names = [str(key) for key in keys]
        object.__setattr__(self, "dmu_ids", ids)
        object.__setattr__(self, "measures", dict(zip(names, values)))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_rows", {name: k for k, name in enumerate(names)})
        object.__setattr__(self, "_index", {d: k for k, d in enumerate(ids)})
        object.__setattr__(self, "_compiled", {})

    @property
    def n_dmus(self) -> int:
        return len(self.dmu_ids)

    @property
    def measure_names(self) -> tuple:
        return tuple(self.measures)

    def index_of(self, dmu: str) -> int:
        try:
            return self._index[str(dmu)]
        except KeyError:
            raise ValidationError(f"unknown DMU {dmu!r}") from None

    def column(self, name: str) -> np.ndarray:
        try:
            return self.measures[name]
        except KeyError:
            raise ValidationError(f"unknown measure {name!r}") from None

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """(n_dmus, len(names)) array of the named measures, in that order."""
        try:
            rows = [self._rows[n] for n in names]
        except KeyError as exc:
            raise ValidationError(f"unknown measure {exc.args[0]!r}") from None
        return self._values[rows].T

    def value(self, dmu: str, name: str) -> float:
        return float(self.column(name)[self.index_of(dmu)])

    def compiled(self, key, build):
        """What ``build()`` returns, built on the first call with ``key`` and kept.

        The models keep each compiled program here, keyed by topology and
        model, so a sweep over the units builds it once.  A failed build keeps
        nothing.
        """
        value = self._compiled.get(key)
        if value is None:
            value = self._compiled[key] = build()
        return value


@dataclass(frozen=True)
class ProcessSpec:
    """One process: which measures it consumes and produces, and its stage."""

    name: str
    stage: int
    exogenous_inputs: tuple = ()
    intermediate_outputs: tuple = ()
    intermediate_inputs: tuple = ()
    final_outputs: tuple = ()
    importance_weight: float = 1.0

    def __post_init__(self):
        for role in ROLES:
            object.__setattr__(self, role, tuple(getattr(self, role)))
        if self.stage < 1 or int(self.stage) != self.stage:
            raise ValidationError(f"process {self.name!r}: stage must be an integer >= 1")
        if not 0.0 <= self.importance_weight <= 1.0:
            raise ValidationError(f"process {self.name!r}: importance_weight outside [0, 1]")
        object.__setattr__(self, "importance_weight", float(self.importance_weight))
        roles = self.measures
        if len(set(roles)) != len(roles):
            seen, dupes = set(), set()
            for r in roles:
                (dupes if r in seen else seen).add(r)
            raise ValidationError(
                f"process {self.name!r}: measure(s) {sorted(dupes)} play more than one role"
            )

    @property
    def measures(self) -> tuple:
        return sum((getattr(self, role) for role in ROLES), ())


@dataclass(frozen=True)
class Link:
    source: str
    sink: str
    measure: str


@dataclass(frozen=True)
class NetworkTopology:
    """Declarative process/link structure with one of the supported shapes."""

    processes: tuple
    links: tuple
    shape_tag: str

    def __init__(self, processes: Sequence[ProcessSpec], links: Sequence, shape_tag: str):
        procs = tuple(processes)
        lks = tuple(l if isinstance(l, Link) else Link(*l) for l in links)
        object.__setattr__(self, "processes", procs)
        object.__setattr__(self, "links", lks)
        object.__setattr__(self, "shape_tag", str(shape_tag))
        self._validate_structure()

    def _validate_structure(self) -> None:
        """Raise for the first fault: shape tag, names, links, weights, then ``SHAPES``."""
        layout = SHAPES.get(self.shape_tag)
        if layout is None:
            raise UnsupportedTopologyError(
                f"unsupported topology shape {self.shape_tag!r}; expected one of {tuple(SHAPES)}"
            )
        names = [p.name for p in self.processes]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate process names")
        by_name = {p.name: p for p in self.processes}
        for l in self.links:
            for end in (l.source, l.sink):
                if end not in by_name:
                    raise ValidationError(f"link references unknown process {end!r}")
            if l.measure not in by_name[l.source].intermediate_outputs:
                raise ValidationError(
                    f"link measure {l.measure!r} is not an intermediate output of {l.source!r}"
                )
            if l.measure not in by_name[l.sink].intermediate_inputs:
                raise ValidationError(
                    f"link measure {l.measure!r} is not an intermediate input of {l.sink!r}"
                )
        for stage in sorted({p.stage for p in self.processes}):
            total = sum(p.importance_weight for p in self.stage_processes(stage))
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                raise ValidationError(
                    f"importance weights of stage {stage} sum to {total}, expected 1"
                )
        procs = sorted(self.processes, key=lambda p: p.stage)
        stages = [stage for stage, _, _ in layout]
        if [p.stage for p in procs] != stages:
            got = ", ".join(f"{p.name!r} at stage {p.stage}" for p in self.processes)
            raise UnsupportedTopologyError(f"unsupported topology: {self.shape_tag} needs "
                                           f"processes at stages {stages}; got {got or 'none'}")

        def at(p):
            return f"{self.shape_tag} stage-{p.stage} process {p.name!r}"

        for p, (_, _, forbids) in zip(procs, layout):  # every forbidden role before any missing one
            for role in forbids:
                if getattr(p, role):
                    raise UnsupportedTopologyError(
                        f"unsupported topology: {at(p)} may not hold {role.replace('_', ' ')}")
        for p, (_, needs, _) in zip(procs, layout):
            for role in needs:
                if not getattr(p, role):
                    raise ValidationError(f"{at(p)} needs {role.replace('_', ' ')}")
        # the roles above leave each link one way to run, from stage 1 to stage 2
        linked = {l.measure for l in self.links}
        for m in dict.fromkeys(m for p in self.processes
                               for m in p.intermediate_outputs + p.intermediate_inputs):
            producers = [p.name for p in self.processes if m in p.intermediate_outputs]
            consumers = [p.name for p in self.processes if m in p.intermediate_inputs]
            if len(producers) != 1 or len(consumers) != 1:
                raise ValidationError(f"intermediate measure {m!r} needs one producer and one "
                                      f"consumer; produced by {producers}, consumed by {consumers}")
            if m not in linked:
                raise ValidationError(f"intermediate measure {m!r} has no link from "
                                      f"{producers[0]!r} to {consumers[0]!r}")

    # -- accessors -------------------------------------------------------

    def stage_processes(self, stage: int) -> tuple:
        return tuple(p for p in self.processes if p.stage == stage)

    def intermediate_measures(self) -> tuple:
        """Intermediates in producer-declaration order."""
        out = []
        for p in self.processes:
            out.extend(p.intermediate_outputs)
        return tuple(out)

    def referenced_measures(self) -> tuple:
        seen: list[str] = []
        for p in self.processes:
            for m in p.measures:
                if m not in seen:
                    seen.append(m)
        return tuple(seen)

    def validate_against(self, dataset: Dataset) -> None:
        """Cross-check: every referenced measure must be a dataset column."""
        for m in self.referenced_measures():
            if m not in dataset.measures:
                raise ValidationError(f"topology references missing measure {m!r}")


# -- file formats ---------------------------------------------------------


@contextmanager
def csv_errors(reader, what: str):
    """Report a ``csv.Error`` met while reading ``reader`` as a ``ValidationError``."""
    try:
        yield
    except csv.Error as exc:
        raise ValidationError(f"cannot parse {what} file: line {reader.line_num}: {exc}") from None


def _holds_data(row: list) -> bool:
    return any(cell.strip() for cell in row)


def _columns(rows: list, width: int) -> tuple:
    """DMU ids and (measures, DMUs) values of rows that ``_check_rows`` passed."""
    cols = list(zip(*rows)) or [()] * width
    ids = tuple(cell.strip() for cell in cols[0])
    return ids, np.array(cols[1:], dtype=float).reshape(width - 1, len(ids))


def _check_rows(rows: list, header: list) -> list:
    """The rows that hold data, after raising the first fault met reading them in order."""
    rows = [row for row in rows if _holds_data(row)]
    for rix, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValidationError(f"row {rix}: expected {len(header)} cells, got {len(row)}")
        for name, cell in zip(header[1:], row[1:]):
            try:
                float(cell)
            except ValueError:
                raise ValidationError(
                    f"row {rix}, column {name!r}: non-numeric cell {cell.strip()!r}"
                ) from None
    return rows


# what a plain text may not hold, once each \r\n is read as \n: the csv
# module's quote and its other line end, a NUL (which the csv module of
# Python 3.10 rejects), and the controls numpy's reader takes as whitespace
# around a number where ``float`` does not
_NOT_PLAIN = ('"', "\r", "\0", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain(text: str) -> tuple | None:
    """Measure names, DMU ids and (measures, DMUs) values of a plain table, else None.

    A plain table is one the csv module would split at every comma and
    ``float`` would read cell by cell; see the module docstring.  Its
    measures are read by ``np.loadtxt``, which raises ``ValueError`` for a
    cell that is not a number or a line with fewer cells than the header.
    With as many commas in the body as the header has on each line, no line
    then has more.
    """
    text = text.replace("\r\n", "\n")
    if any(c in text for c in _NOT_PLAIN):
        return None
    first, _, rest = text.partition("\n")
    header = [h.strip() for h in first.split(",")]
    names = header[1:]
    if header[0] != "dmu" or not names or len(set(names)) != len(names):
        return None
    body = list(filter(None, rest.split("\n")))
    limit = csv.field_size_limit()
    if (not body or rest.count(",") != len(names) * len(body)
            or len(text) > limit and max(map(len, [first, *body])) > limit):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, usecols=range(1, len(header)),
                            dtype=float, ndmin=2)
    except ValueError:
        return None
    return names, [line.partition(",")[0].strip() for line in body], values.T


def _read_csv(text: str) -> tuple:
    """Measure names, DMU ids and (measures, DMUs) values, read by the csv module."""
    reader = csv.reader(io.StringIO(text))
    with csv_errors(reader, "data"):
        rows = [r for r in reader if r]
    start = next((k for k, row in enumerate(rows) if _holds_data(row)), len(rows))
    if start == len(rows):
        raise ValidationError("empty data file")
    header = [h.strip() for h in rows[start]]
    if header[0] != "dmu":
        raise ValidationError('data header must start with a "dmu" column')
    names = header[1:]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate measure columns in data header")
    return (names, *_columns(_check_rows(rows[start + 1:], header), len(header)))


def parse_data_csv(text: str, *, min_epsilon: float | None = None) -> Dataset:
    """Parse the CSV wire format: header ``dmu,<measure...>``, one row per DMU.

    With ``min_epsilon`` set, nonpositive cells are replaced by that value
    and a :class:`DataWarning` is emitted; otherwise they are rejected.
    ``min_epsilon`` itself must be positive and finite.  Blank rows are
    skipped and not counted in the row numbers of errors.
    """
    if min_epsilon is not None and not (math.isfinite(min_epsilon) and min_epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive and finite, got {min_epsilon}")
    text = text.lstrip("\ufeff")
    names, ids, values = _read_plain(text) or _read_csv(text)
    if min_epsilon is not None:
        low = values <= 0.0
        replaced = int(np.count_nonzero(low))
        if replaced:
            values[low] = float(min_epsilon)
            warnings.warn(
                f"replaced {replaced} nonpositive value(s) with epsilon {min_epsilon}",
                DataWarning,
                stacklevel=2,
            )
    return Dataset(ids, dict(zip(names, values)))


_PROCESS_FIELDS = ("name", "stage", *ROLES, "importance_weight")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and (isinstance(value, int) or value.is_integer())


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(m, str) for m in value)


def _field(where: str, doc: dict, key: str, ok, expected: str):
    """``doc[key]``, after raising a ``ValidationError`` if ``ok`` does not hold for it."""
    value = doc[key]
    if not ok(value):
        raise ValidationError(f"{where}: {key!r} must be {expected}, got {json.dumps(value)}")
    return value


def _entries(doc: dict, key: str, what: str, fields: Sequence):
    """Index and object of each entry of the list ``doc[key]``, checked as it is reached."""
    entries = _field("topology JSON", doc, key, lambda v: isinstance(v, list), "a list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{what} #{k}: must be an object, got {json.dumps(entry)}")
        missing = [f for f in fields if f not in entry]
        if missing:
            raise ValidationError(f"{what} #{k}: missing field(s) {', '.join(missing)}")
        yield k, entry


def parse_topology_json(text: str) -> NetworkTopology:
    """The topology a JSON document declares; each field is type-checked before use."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested deeper than json reads
        raise ValidationError(f"topology is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("topology JSON must be an object")
    for key in ("shape", "processes", "links"):
        if key not in doc:
            raise ValidationError(f"topology JSON is missing the {key!r} key")
    procs = []
    for k, spec in _entries(doc, "processes", "process", _PROCESS_FIELDS):
        where = f"process #{k}"
        name = _field(where, spec, "name", lambda v: isinstance(v, str), "a string")
        stage = _field(where, spec, "stage", _is_integer, "an integer")
        lists = {f: tuple(_field(where, spec, f, _is_names, "a list of measure names"))
                 for f in ROLES}
        weight = _field(where, spec, "importance_weight", _is_number, "a number")
        procs.append(ProcessSpec(name=name, stage=int(stage), **lists, importance_weight=weight))
    links = []
    for k, l in _entries(doc, "links", "link", ("from", "to", "measure")):
        ends = [_field(f"link #{k}", l, f, lambda v: isinstance(v, str), "a string")
                for f in ("from", "to", "measure")]
        links.append(Link(*ends))
    return NetworkTopology(procs, links, doc["shape"])


def read_text(path, what: str, *, newline: str | None = "") -> str:
    """A UTF-8 input file's text; an unreadable file is a ``ValidationError``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file: {exc}") from None


def load_dataset(
    data_path, topology_path, *, min_epsilon: float | None = None
) -> tuple[Dataset, NetworkTopology]:
    """Read and cross-validate the CSV/JSON pair from disk."""
    data_text = read_text(data_path, "data")
    topo_text = read_text(topology_path, "topology", newline=None)
    dataset = parse_data_csv(data_text, min_epsilon=min_epsilon)
    topology = parse_topology_json(topo_text)
    topology.validate_against(dataset)
    return dataset, topology


# -- descriptive statistics ------------------------------------------------


@dataclass(frozen=True)
class MeasureSummary:
    name: str
    mean: float
    sd: float
    minimum: float
    maximum: float


@dataclass(frozen=True)
class SummaryStats:
    per_measure: tuple

    def row(self, name: str) -> MeasureSummary:
        for r in self.per_measure:
            if r.name == name:
                return r
        raise ValidationError(f"unknown measure {name!r}")


def summarize(dataset: Dataset) -> SummaryStats:
    """Mean, sample standard deviation (n-1), min and max per measure."""
    rows = []
    for name in dataset.measure_names:
        v = dataset.measures[name]
        sd = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
        rows.append(MeasureSummary(name, float(np.mean(v)), sd, float(v.min()), float(v.max())))
    return SummaryStats(tuple(rows))
