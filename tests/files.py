"""Writers of the data and topology file formats, and one faulty topology per layout rule.

The library only reads these formats.  The tests write their files with
``dataset_to_csv`` and ``topology_to_json`` and read them back through
``parse_data_csv`` and ``parse_topology_json``.  ``REJECTED`` holds, as
topology JSON documents, one topology that each rule of the ``data.SHAPES``
layout check rejects, with the error class and the process the message
names; ``tests/test_data.py`` and ``scripts/cli_parity.py`` read the same
list.
"""

from __future__ import annotations

import copy
import csv
import io
import json

from conftest import chain_topology, two_stage_topology
from dea_mpss.errors import UnsupportedTopologyError, ValidationError


def dataset_to_csv(dataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["dmu", *dataset.measure_names])
    for i, dmu in enumerate(dataset.dmu_ids):
        writer.writerow([dmu] + [repr(float(dataset.measures[n][i])) for n in dataset.measure_names])
    return out.getvalue()


def topology_to_json(topology) -> str:
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


TWO_STAGE = json.loads(topology_to_json(two_stage_topology()))
CHAIN = json.loads(topology_to_json(chain_topology()))


def variant(base: dict, edits=None, links=None, shape=None) -> dict:
    """A copy of ``base`` with ``{"process.field": value}`` edits, new ``(from, to, measure)``
    links or a new shape."""
    doc = copy.deepcopy(base)
    for key, value in (edits or {}).items():
        name, field = key.split(".")
        next(p for p in doc["processes"] if p["name"] == name)[field] = value
    if links is not None:
        doc["links"] = [{"from": a, "to": b, "measure": m} for a, b, m in links]
    if shape is not None:
        doc["shape"] = shape
    return doc


UNSUPPORTED, INVALID = UnsupportedTopologyError, ValidationError
# (case, topology JSON document, error class, the process its message names)
REJECTED = [
    ("two-stage stage list", variant(CHAIN, shape="two_stage_general"), UNSUPPORTED,
     "research"),
    ("chain stage list", variant(TWO_STAGE, shape="series_parallel_chain"), UNSUPPORTED,
     "downstream"),
    ("two-stage stage 1 consumes", variant(TWO_STAGE, {"upstream.intermediate_inputs": ["w"]}),
     UNSUPPORTED, "upstream"),
    ("two-stage stage 2 produces",
     variant(TWO_STAGE, {"downstream.intermediate_outputs": ["w"]}), UNSUPPORTED, "downstream"),
    ("chain feeder consumes", variant(CHAIN, {"research.intermediate_inputs": ["w"]}),
     UNSUPPORTED, "research"),
    ("chain feeder yields", variant(CHAIN, {"operation.final_outputs": ["w"]}), UNSUPPORTED,
     "operation"),
    ("chain sink takes inputs", variant(CHAIN, {"market.exogenous_inputs": ["w"]}), UNSUPPORTED,
     "market"),
    ("chain sink produces", variant(CHAIN, {"market.intermediate_outputs": ["w"]}), UNSUPPORTED,
     "market"),
    ("two-stage stage 1 no inputs", variant(TWO_STAGE, {"upstream.exogenous_inputs": []}),
     INVALID, "upstream"),
    ("two-stage stage 1 no intermediates",
     variant(TWO_STAGE, {"upstream.intermediate_outputs": [],
                         "downstream.intermediate_inputs": []}, links=[]), INVALID, "upstream"),
    ("two-stage stage 2 no intermediates",
     variant(TWO_STAGE, {"downstream.intermediate_inputs": []}, links=[]), INVALID, "downstream"),
    ("two-stage stage 2 no outputs", variant(TWO_STAGE, {"downstream.final_outputs": []}),
     INVALID, "downstream"),
    ("chain feeder no inputs", variant(CHAIN, {"research.exogenous_inputs": []}), INVALID,
     "research"),
    ("chain feeder no intermediates",
     variant(CHAIN, {"research.intermediate_outputs": []},
             links=[("operation", "market", "op_mid_0")]), INVALID, "research"),
    ("chain sink no intermediates", variant(CHAIN, {"market.intermediate_inputs": []}, links=[]),
     INVALID, "market"),
    ("chain sink no outputs", variant(CHAIN, {"market.final_outputs": []}), INVALID, "market"),
    ("duplicate producer",
     variant(CHAIN, {"research.intermediate_outputs": ["rd_mid_0", "op_mid_0"]}), INVALID,
     "research"),
    ("intermediate without consumer",
     variant(TWO_STAGE, {"upstream.intermediate_outputs": ["mid_0", "spare"]}), INVALID,
     "upstream"),
    ("missing link", variant(TWO_STAGE, links=[]), INVALID, "downstream"),
    ("source at stage 2",
     variant(CHAIN, {"research.stage": 2, "operation.importance_weight": 1.0,
                     "research.importance_weight": 0.5, "market.importance_weight": 0.5}),
     UNSUPPORTED, "research"),
    ("cycle",
     variant(TWO_STAGE, {"upstream.intermediate_inputs": ["back"],
                         "downstream.intermediate_outputs": ["back"]},
             links=[("upstream", "downstream", "mid_0"), ("downstream", "upstream", "back")]),
     UNSUPPORTED, "upstream"),
]
