"""Datasets, network topologies, file ingestion and descriptive statistics.

A :class:`Dataset` is a strictly positive measure matrix over decision
making units (DMUs).  A :class:`NetworkTopology` declares how processes
consume and produce those measures.  Two layouts are supported:

``two_stage_general``
    Two processes in series; stage 1 turns its own exogenous inputs into
    final outputs plus intermediate measures, stage 2 consumes the
    intermediates together with its own exogenous inputs.

``series_parallel_chain``
    Two parallel stage-1 processes, each feeding intermediate measures
    into a single stage-2 process that yields the final outputs.

Anything else is rejected as unsupported rather than silently mis-modeled.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import UnsupportedTopologyError, ValidationError

TWO_STAGE_GENERAL = "two_stage_general"
SERIES_PARALLEL_CHAIN = "series_parallel_chain"
SHAPES = (TWO_STAGE_GENERAL, SERIES_PARALLEL_CHAIN)


class DataWarning(UserWarning):
    """Non-fatal data repairs, e.g. epsilon substitution of zeros."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Per-DMU measure matrix; values are strictly positive by contract."""

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
        cols = {}
        for name, vec in measures.items():
            v = np.asarray(vec, dtype=float)
            if v.shape != (len(ids),):
                raise ValidationError(
                    f"measure {name!r} has {v.size} values for {len(ids)} DMUs"
                )
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"measure {name!r} contains non-finite values")
            if np.any(v <= 0.0):
                i = int(np.argmax(v <= 0.0))
                raise ValidationError(
                    f"measure {name!r} has nonpositive value {v[i]} for DMU {ids[i]!r}"
                    " (use epsilon substitution to repair zeros)"
                )
            cols[str(name)] = _readonly(v)
        if not cols:
            raise ValidationError("dataset needs at least one measure")
        object.__setattr__(self, "dmu_ids", ids)
        object.__setattr__(self, "measures", cols)

    @property
    def n_dmus(self) -> int:
        return len(self.dmu_ids)

    @property
    def measure_names(self) -> tuple:
        return tuple(self.measures)

    def index_of(self, dmu: str) -> int:
        try:
            return self.dmu_ids.index(str(dmu))
        except ValueError:
            raise ValidationError(f"unknown DMU {dmu!r}") from None

    def column(self, name: str) -> np.ndarray:
        try:
            return self.measures[name]
        except KeyError:
            raise ValidationError(f"unknown measure {name!r}") from None

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Column-stacked (n_dmus, len(names)) view of the named measures."""
        if not names:
            return np.zeros((self.n_dmus, 0))
        return np.column_stack([self.column(n) for n in names])

    def value(self, dmu: str, name: str) -> float:
        return float(self.column(name)[self.index_of(dmu)])


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
        for field in ("exogenous_inputs", "intermediate_outputs",
                      "intermediate_inputs", "final_outputs"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        if self.stage < 1 or int(self.stage) != self.stage:
            raise ValidationError(f"process {self.name!r}: stage must be an integer >= 1")
        if not 0.0 <= self.importance_weight <= 1.0:
            raise ValidationError(f"process {self.name!r}: importance_weight outside [0, 1]")
        roles = (self.exogenous_inputs + self.intermediate_outputs
                 + self.intermediate_inputs + self.final_outputs)
        if len(set(roles)) != len(roles):
            seen, dupes = set(), set()
            for r in roles:
                (dupes if r in seen else seen).add(r)
            raise ValidationError(
                f"process {self.name!r}: measure(s) {sorted(dupes)} play more than one role"
            )

    @property
    def measures(self) -> tuple:
        return (self.exogenous_inputs + self.intermediate_outputs
                + self.intermediate_inputs + self.final_outputs)


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

    # -- structural checks (dataset-independent) ------------------------

    def _validate_structure(self) -> None:
        if self.shape_tag not in SHAPES:
            raise UnsupportedTopologyError(
                f"unsupported topology shape {self.shape_tag!r}; expected one of {SHAPES}"
            )
        names = [p.name for p in self.processes]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate process names")
        by_name = {p.name: p for p in self.processes}
        incoming = {n: 0 for n in names}
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
            incoming[l.sink] += 1
        self._check_acyclic()
        for p in self.processes:
            if incoming[p.name] == 0 and p.stage != 1:
                raise ValidationError(
                    f"process {p.name!r} has no incoming links and must be stage 1"
                )
        for stage in sorted({p.stage for p in self.processes}):
            total = sum(p.importance_weight for p in self.stage_processes(stage))
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                raise ValidationError(
                    f"importance weights of stage {stage} sum to {total}, expected 1"
                )
        if self.shape_tag == TWO_STAGE_GENERAL:
            self._validate_two_stage()
        else:
            self._validate_chain()

    def _check_acyclic(self) -> None:
        edges = {}
        for l in self.links:
            edges.setdefault(l.source, set()).add(l.sink)
        state: dict[str, int] = {}

        def visit(node):
            if state.get(node) == 1:
                raise ValidationError(f"topology links contain a cycle through {node!r}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in edges.get(node, ()):
                visit(nxt)
            state[node] = 2

        for p in self.processes:
            visit(p.name)

    def _validate_two_stage(self) -> None:
        if len(self.processes) != 2 or sorted(p.stage for p in self.processes) != [1, 2]:
            raise UnsupportedTopologyError(
                "unsupported topology: two_stage_general needs exactly one stage-1 "
                "and one stage-2 process"
            )
        first = self.stage_processes(1)[0]
        second = self.stage_processes(2)[0]
        if first.intermediate_inputs or second.intermediate_outputs:
            raise UnsupportedTopologyError(
                "unsupported topology: intermediates must flow from stage 1 to stage 2"
            )
        if not first.exogenous_inputs or not second.final_outputs:
            raise ValidationError("stage 1 needs exogenous inputs and stage 2 final outputs")
        if not first.intermediate_outputs:
            raise ValidationError("two_stage_general topology needs intermediate measures")
        if set(first.intermediate_outputs) != set(second.intermediate_inputs):
            raise ValidationError("stage-2 intermediate inputs must match stage-1 outputs")
        linked = {l.measure for l in self.links}
        if linked != set(first.intermediate_outputs):
            raise ValidationError("links must cover every intermediate measure exactly")

    def _validate_chain(self) -> None:
        stage1 = self.stage_processes(1)
        stage2 = self.stage_processes(2)
        if len(self.processes) != 3 or len(stage1) != 2 or len(stage2) != 1:
            raise UnsupportedTopologyError(
                "unsupported topology: series_parallel_chain needs two stage-1 "
                "processes and one stage-2 process"
            )
        sink = stage2[0]
        produced = []
        for p in stage1:
            if p.intermediate_inputs or p.final_outputs:
                raise UnsupportedTopologyError(
                    f"unsupported topology: stage-1 process {p.name!r} may only map "
                    "exogenous inputs to intermediate outputs"
                )
            if not p.exogenous_inputs or not p.intermediate_outputs:
                raise ValidationError(
                    f"stage-1 process {p.name!r} needs exogenous inputs and intermediate outputs"
                )
            produced.extend(p.intermediate_outputs)
        if len(set(produced)) != len(produced):
            raise ValidationError("each intermediate measure needs a unique producer")
        if sink.exogenous_inputs or sink.intermediate_outputs:
            raise UnsupportedTopologyError(
                "unsupported topology: the chain's stage-2 process only consumes intermediates"
            )
        if not sink.final_outputs:
            raise ValidationError("the stage-2 process needs final outputs")
        if set(sink.intermediate_inputs) != set(produced):
            raise ValidationError("stage-2 intermediate inputs must match stage-1 outputs")
        linked = {l.measure for l in self.links}
        if linked != set(produced):
            raise ValidationError("links must cover every intermediate measure exactly")

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


def parse_data_csv(text: str, *, min_epsilon: float | None = None) -> Dataset:
    """Parse the CSV wire format: header ``dmu,<measure...>``, one row per DMU.

    With ``min_epsilon`` set, nonpositive cells are replaced by that value
    and a :class:`DataWarning` is emitted; otherwise they are rejected.
    """
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    rows = [r for r in reader if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValidationError("empty data file")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "dmu":
        raise ValidationError('data header must start with a "dmu" column')
    names = header[1:]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate measure columns in data header")
    ids, columns = [], {n: [] for n in names}
    replaced = 0
    for rix, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(f"row {rix}: expected {len(header)} cells, got {len(row)}")
        ids.append(row[0].strip())
        for name, cell in zip(names, row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValidationError(
                    f"row {rix}, column {name!r}: non-numeric cell {cell.strip()!r}"
                ) from None
            if v <= 0.0 and min_epsilon is not None:
                v = float(min_epsilon)
                replaced += 1
            columns[name].append(v)
    if replaced:
        warnings.warn(
            f"replaced {replaced} nonpositive value(s) with epsilon {min_epsilon}",
            DataWarning,
            stacklevel=2,
        )
    return Dataset(ids, columns)


def dataset_to_csv(dataset: Dataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dmu", *dataset.measure_names])
    for i, dmu in enumerate(dataset.dmu_ids):
        writer.writerow([dmu] + [repr(float(dataset.measures[n][i])) for n in dataset.measure_names])
    return out.getvalue()


_PROCESS_FIELDS = ("name", "stage", "exogenous_inputs", "intermediate_outputs",
                   "intermediate_inputs", "final_outputs", "importance_weight")


def parse_topology_json(text: str) -> NetworkTopology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"topology is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("topology JSON must be an object")
    for key in ("shape", "processes", "links"):
        if key not in doc:
            raise ValidationError(f"topology JSON is missing the {key!r} key")
    procs = []
    for k, spec in enumerate(doc["processes"]):
        missing = [f for f in _PROCESS_FIELDS if f not in spec]
        if missing:
            raise ValidationError(f"process #{k}: missing field(s) {', '.join(missing)}")
        procs.append(ProcessSpec(
            name=str(spec["name"]),
            stage=int(spec["stage"]),
            exogenous_inputs=tuple(spec["exogenous_inputs"]),
            intermediate_outputs=tuple(spec["intermediate_outputs"]),
            intermediate_inputs=tuple(spec["intermediate_inputs"]),
            final_outputs=tuple(spec["final_outputs"]),
            importance_weight=float(spec["importance_weight"]),
        ))
    links = []
    for k, l in enumerate(doc["links"]):
        missing = [f for f in ("from", "to", "measure") if f not in l]
        if missing:
            raise ValidationError(f"link #{k}: missing field(s) {', '.join(missing)}")
        links.append(Link(str(l["from"]), str(l["to"]), str(l["measure"])))
    return NetworkTopology(procs, links, doc["shape"])


def topology_to_json(topology: NetworkTopology) -> str:
    doc = {
        "shape": topology.shape_tag,
        "processes": [
            {
                "name": p.name,
                "stage": p.stage,
                "exogenous_inputs": list(p.exogenous_inputs),
                "intermediate_outputs": list(p.intermediate_outputs),
                "intermediate_inputs": list(p.intermediate_inputs),
                "final_outputs": list(p.final_outputs),
                "importance_weight": p.importance_weight,
            }
            for p in topology.processes
        ],
        "links": [{"from": l.source, "to": l.sink, "measure": l.measure} for l in topology.links],
    }
    return json.dumps(doc, indent=2)


def load_dataset(
    data_path, topology_path, *, min_epsilon: float | None = None
) -> tuple[Dataset, NetworkTopology]:
    """Read and cross-validate the CSV/JSON pair from disk."""
    try:
        with open(data_path, encoding="utf-8", newline="") as fh:
            data_text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read data file: {exc}") from None
    try:
        with open(topology_path, encoding="utf-8") as fh:
            topo_text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read topology file: {exc}") from None
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
