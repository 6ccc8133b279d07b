import csv
import importlib.util
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, chain_topology, dataset_for, two_stage_topology
from dea_mpss.data import (
    DataWarning,
    Dataset,
    Link,
    NetworkTopology,
    ProcessSpec,
    csv_errors,
    load_dataset,
    parse_data_csv,
    parse_topology_json,
    summarize,
)
from dea_mpss.errors import UnsupportedTopologyError, ValidationError
from files import REJECTED, TWO_STAGE, dataset_to_csv, topology_to_json, variant


def write_pair(tmp_path, topology, csv_text):
    data = tmp_path / "d.csv"
    topo = tmp_path / "t.json"
    data.write_text(csv_text, encoding="utf-8")
    topo.write_text(topology_to_json(topology), encoding="utf-8")
    return data, topo


def test_load_round_trip(tmp_path):
    topo = two_stage_topology()
    csv_text = "dmu,in1_0,mid_0,out1_0,in2_0,out2_0\na,1,2,3,4,5\nb,2,3,4,5,6\n"
    data_path, topo_path = write_pair(tmp_path, topo, csv_text)
    dataset, topology = load_dataset(data_path, topo_path)
    assert dataset.dmu_ids == ("a", "b")
    assert topology.shape_tag == "two_stage_general"
    # serialize -> parse is the identity
    again = parse_data_csv(dataset_to_csv(dataset))
    assert again.dmu_ids == dataset.dmu_ids
    for name in dataset.measure_names:
        assert np.array_equal(again.measures[name], dataset.measures[name])
    topo_again = parse_topology_json(topology_to_json(topology))
    assert topo_again == topology


def test_missing_column_named_in_error(tmp_path):
    procs = [
        ProcessSpec("upstream", 1, exogenous_inputs=["cost"], intermediate_outputs=["sales2"]),
        ProcessSpec("downstream", 2, intermediate_inputs=["sales2"], final_outputs=["profit"]),
    ]
    topo = NetworkTopology(procs, [Link("upstream", "downstream", "sales2")], "two_stage_general")
    data_path, topo_path = write_pair(tmp_path, topo, "dmu,cost,profit\na,1,2\n")
    with pytest.raises(ValidationError, match="sales2"):
        load_dataset(data_path, topo_path)


def test_epsilon_substitution_warns():
    with pytest.warns(DataWarning, match="0.001"):
        ds = parse_data_csv("dmu,a\nu1,0\nu2,2\n", min_epsilon=0.001)
    assert ds.measures["a"][0] == 0.001


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, -0.0, math.nan, math.inf])
def test_bad_epsilon_rejected_before_parsing(epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no substitution warning
        with pytest.raises(ValidationError,
                           match=rf"^epsilon must be positive and finite, got {epsilon}$"):
            parse_data_csv("dmu,a\nu1,0\nu2,2\n", min_epsilon=epsilon)


def test_zero_rejected_without_epsilon():
    with pytest.raises(ValidationError, match="nonpositive"):
        parse_data_csv("dmu,a\nu1,0\n")


def test_non_numeric_cell_coordinates():
    with pytest.raises(ValidationError, match=r"row 3, column 'b'"):
        parse_data_csv("dmu,a,b\nu1,1,2\nu2,1,oops\n")


def test_duplicate_dmu_rejected():
    with pytest.raises(ValidationError, match="duplicate DMU"):
        parse_data_csv("dmu,a\nu1,1\nu1,2\n")


def test_header_must_start_with_dmu():
    with pytest.raises(ValidationError, match='"dmu"'):
        parse_data_csv("unit,a\nu1,1\n")


def test_unsupported_shape_rejected():
    with pytest.raises(UnsupportedTopologyError, match="unsupported topology"):
        NetworkTopology([ProcessSpec("p", 1, exogenous_inputs=["x"])], [], "ring")


def test_cycle_rejected():
    procs = [
        ProcessSpec("a", 1, exogenous_inputs=["x"], intermediate_outputs=["z1"],
                    intermediate_inputs=["z2"]),
        ProcessSpec("b", 2, intermediate_inputs=["z1"], intermediate_outputs=["z2"],
                    final_outputs=["y"]),
    ]
    links = [Link("a", "b", "z1"), Link("b", "a", "z2")]
    # a link back to stage 1 needs a role the layout forbids: 'a' consuming an intermediate
    with pytest.raises(UnsupportedTopologyError, match="'a' may not hold intermediate inputs"):
        NetworkTopology(procs, links, "two_stage_general")


@pytest.mark.parametrize("doc, error, process",
                         [pytest.param(*case[1:], id=case[0]) for case in REJECTED])
def test_each_layout_rule_rejects(doc, error, process):
    """One topology per rule of the ``SHAPES`` layout check: its class, and the process named."""
    with pytest.raises(ValidationError) as info:
        parse_topology_json(json.dumps(doc))
    assert info.type is error
    assert repr(process) in str(info.value)


def test_duplicated_link_accepted():
    doc = variant(TWO_STAGE, links=[("upstream", "downstream", "mid_0")] * 2)
    topology = parse_topology_json(json.dumps(doc))
    assert len(topology.links) == 2
    assert topology.processes == two_stage_topology().processes


def test_measure_with_two_roles_rejected():
    with pytest.raises(ValidationError, match="more than one role"):
        ProcessSpec("p", 1, exogenous_inputs=["x"], final_outputs=["x"])


def test_source_process_must_be_stage_one():
    procs = [
        ProcessSpec("up", 2, exogenous_inputs=["x"], intermediate_outputs=["z"]),
        ProcessSpec("down", 1, intermediate_inputs=["z"], final_outputs=["y"],
                    exogenous_inputs=["w"]),
    ]
    with pytest.raises(ValidationError):
        NetworkTopology(procs, [Link("up", "down", "z")], "two_stage_general")


def test_stage_weights_must_sum_to_one():
    procs = [
        ProcessSpec("op", 1, exogenous_inputs=["a"], intermediate_outputs=["z1"],
                    importance_weight=0.7),
        ProcessSpec("rd", 1, exogenous_inputs=["b"], intermediate_outputs=["z2"],
                    importance_weight=0.7),
        ProcessSpec("mkt", 2, intermediate_inputs=["z1", "z2"], final_outputs=["y"]),
    ]
    links = [Link("op", "mkt", "z1"), Link("rd", "mkt", "z2")]
    with pytest.raises(ValidationError, match="importance weights"):
        NetworkTopology(procs, links, "series_parallel_chain")


def test_chain_topology_builds():
    topo = chain_topology(m=2, p=1, k=3, e=1, s=1)
    assert topo.intermediate_measures() == ("op_mid_0", "rd_mid_0")
    assert len(topo.stage_processes(1)) == 2


def test_topology_json_field_names():
    doc = json.loads(topology_to_json(two_stage_topology()))
    assert set(doc) == {"shape", "processes", "links"}
    assert set(doc["processes"][0]) == {
        "name", "stage", "exogenous_inputs", "intermediate_outputs",
        "intermediate_inputs", "final_outputs", "importance_weight",
    }
    assert set(doc["links"][0]) == {"from", "to", "measure"}


def test_topology_json_takes_integral_stage_numbers():
    doc = json.loads(topology_to_json(two_stage_topology()))
    doc["processes"][1]["stage"] = 2.0
    doc["processes"][0]["importance_weight"] = 1
    topology = parse_topology_json(json.dumps(doc))
    assert topology == two_stage_topology()
    assert [type(p.stage) for p in topology.processes] == [int, int]
    assert type(topology.processes[0].importance_weight) is float


def test_summarize_basics():
    ds = Dataset(["a", "b", "c"], {"m": [1.0, 1.0, 1.0], "w": [1.0, 3.0, 2.0]})
    stats = summarize(ds)
    row = stats.row("m")
    assert (row.mean, row.sd, row.minimum, row.maximum) == (1.0, 0.0, 1.0, 1.0)


def test_summarize_two_point_sample():
    ds = Dataset(["a", "b"], {"m": [1.0, 3.0]})
    row = summarize(ds).row("m")
    assert row.mean == pytest.approx(2.0)
    assert row.sd == pytest.approx(math.sqrt(2.0))
    assert (row.minimum, row.maximum) == (1.0, 3.0)


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 9.0, size=12)
    ds = Dataset([f"u{i}" for i in range(12)], {"m": vals})
    perm = rng.permutation(12)
    ds_perm = Dataset([f"u{i}" for i in perm], {"m": vals[perm]})
    a, b = summarize(ds).row("m"), summarize(ds_perm).row("m")
    assert a.mean == pytest.approx(b.mean)
    assert a.sd == pytest.approx(b.sd)
    assert (a.minimum, a.maximum) == (b.minimum, b.maximum)


positive_floats = st.floats(0.001, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(positive_floats, min_size=1, max_size=20))
def test_summary_bounds_property(values):
    ds = Dataset([f"u{i}" for i in range(len(values))], {"m": values})
    row = summarize(ds).row("m")
    slack = 1e-9 * max(1.0, abs(row.maximum))  # summation rounding head-room
    assert row.minimum - slack <= row.mean <= row.maximum + slack
    assert row.sd >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(positive_floats, min_size=3, max_size=3), min_size=1, max_size=8
    )
)
def test_csv_round_trip_property(rows):
    ds = Dataset(
        [f"u{i}" for i in range(len(rows))],
        {name: [r[k] for r in rows] for k, name in enumerate(("a", "b", "c"))},
    )
    again = parse_data_csv(dataset_to_csv(ds))
    for name in ds.measure_names:
        assert np.array_equal(again.measures[name], ds.measures[name])


def test_dataset_helpers():
    topo = two_stage_topology()
    ds = dataset_for(topo, [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]])
    assert ds.value("u2", "mid_0") == 3.0
    assert ds.matrix(["in1_0", "out2_0"]).shape == (2, 2)
    with pytest.raises(ValidationError, match="unknown DMU"):
        ds.index_of("nope")
    with pytest.raises(ValidationError, match="unknown measure"):
        ds.column("nope")


# -- the column-wise loader against the row-major one it replaced -------------


def _reference_dataset(dmu_ids, measures):
    """The checks of the per-column ``Dataset`` the matrix replaced, in their order."""
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
        cols[str(name)] = v
    if not cols:
        raise ValidationError("dataset needs at least one measure")
    return ids, cols


def _reference_parse(text, *, min_epsilon=None):
    """The row-major parser the column-wise one replaced: one Python step per cell.

    Like ``parse_data_csv``, it rejects a nonpositive or non-finite
    ``min_epsilon`` before reading the text, and reports a fault of the csv
    module as a ``ValidationError``.
    """
    if min_epsilon is not None and not (math.isfinite(min_epsilon) and min_epsilon > 0.0):
        raise ValidationError(f"epsilon must be positive and finite, got {min_epsilon}")
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff")))
    with csv_errors(reader, "data"):
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
    return _reference_dataset(ids, columns)


def _outcome(parse, *args, **kwargs):
    """What a call yields: ids and values, or the error; plus the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(*args, **kwargs)
        except Exception as exc:  # the exception type is part of the outcome
            result = (type(exc), str(exc))
        else:
            if isinstance(result, Dataset):
                result = result.dmu_ids, result.measures
            ids, cols = result
            result = ids, {name: v.tolist() for name, v in cols.items()}
    return result, [(w.category, str(w.message)) for w in caught]


_cells = st.sampled_from([
    "1", "2.5", " 3 ", "1_000", "4e2", "0", "-0", "-1.5", "nan", "inf", "-inf",
    "x", "", " ", "0x10", "1,5",
])
_ids = st.sampled_from(["u1", "u2", "u3", " u4 ", "a,b", "", " "])


@st.composite
def _data_files(draw):
    """CSV text with the faults and oddities a hand-made data file can hold."""
    names = draw(st.lists(st.sampled_from(["a", "b", "c", " d "]), max_size=3))
    header = ["dmu"] + names if draw(st.integers(0, 9)) else ["unit"] + names
    rows = [header]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["data", "data", "data", "blank", "spaces", "commas"]))
        if kind == "blank":
            rows.append([])
        elif kind == "spaces":
            rows.append(["  "])
        elif kind == "commas":
            rows.append([" "] * draw(st.integers(2, 4)))
        else:
            width = len(names) + draw(st.sampled_from([0, 0, 0, -1, 1]))
            rows.append([draw(_ids)] + [draw(_cells) for _ in range(max(width, 0))])
    if draw(st.booleans()):
        rows.insert(0, [" ", " "])
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    return ("\ufeff" if draw(st.booleans()) else "") + out.getvalue()


@settings(max_examples=400, deadline=None)
@given(_data_files(), st.sampled_from([None, 0.001, 0.5, -1.0]))
def test_parse_matches_row_major_reference(text, min_epsilon):
    assert (_outcome(parse_data_csv, text, min_epsilon=min_epsilon)
            == _outcome(_reference_parse, text, min_epsilon=min_epsilon))


_FIELD_LIMIT = csv.field_size_limit()
_plain_numbers = ["1", "2.5", " 3 ", "-1", "0", "4e2", "nan", "inf", "1e400", "\t7\x0c", "\u20035"]
# numbers only ``float`` takes, and cells neither reader takes
_plain_faults = ["1_000", "\u0661\u0662", "x", "", " ", "1\x1c"]
_plain_ids = st.sampled_from(["u1", "u2", " u3 ", "a b", " x  y ", ""])


@st.composite
def _plain_files(draw):
    """Quote-free CSV text, a fair share of it plain tables.

    Half the texts hold nothing but what a plain table may hold.  The
    others may have a header that is not ``dmu`` or repeats a name, a row
    that is blank but not empty or has a trailing comma, or a cell numpy
    does not read as ``float`` does.  Either kind may then get a lone
    carriage return, a NUL, a 0x1C control or a run of digits past the
    field limit, inserted anywhere.
    """
    clean = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b", " c ", "d e"]), min_size=1, max_size=3,
                          unique=clean))
    first = "dmu" if clean else draw(st.sampled_from(["dmu", " dmu ", "unit"]))
    lines = [",".join([first, *names])]
    kinds = ["data"] * 4 + ["blank"] + ([] if clean else ["spaces", "commas", "trailing"])
    cells = st.sampled_from(_plain_numbers + ([] if clean else _plain_faults))
    for _ in range(draw(st.integers(int(clean), 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append("  ")
        elif kind == "commas":
            lines.append(" ," * len(names))
        else:
            row = [draw(_plain_ids)] + [draw(cells) for _ in names]
            lines.append(",".join(row) + ("," if kind == "trailing" else ""))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    oddity = draw(st.sampled_from([None] * 4 + ["\r", "\0", "\x1c", "long"]))
    if oddity:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + ("9" * (_FIELD_LIMIT + 1) if oddity == "long" else oddity) + text[at:]
    return ("\ufeff" if draw(st.booleans()) else "") + text


@settings(max_examples=400, deadline=None)
@given(_plain_files(), st.sampled_from([None, 0.001, -1.0]))
def test_plain_parse_matches_row_major_reference(text, min_epsilon):
    assert (_outcome(parse_data_csv, text, min_epsilon=min_epsilon)
            == _outcome(_reference_parse, text, min_epsilon=min_epsilon))


def _benchmark_files(tmp_path):
    """A two-stage and a value-chain file as ``perfbench/inputs.py`` writes them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name, write in (("pinned-stages-300", inputs.write_two_stage),
                        ("chain-300", inputs.write_chain)):
        (tmp_path / name).mkdir()
        write(tmp_path / name, np.random.default_rng([1, inputs.STREAMS[name]]), 300)
        yield tmp_path / name / "data.csv"


def test_plain_files_are_read_without_the_csv_module(tmp_path, monkeypatch):
    """Benchmark-shaped files and the bundled fixtures take numpy's reader alone."""
    paths = [*_benchmark_files(tmp_path), FIXTURES / "insurers_24.csv",
             FIXTURES / "log_spread.csv"]
    texts = [path.read_text(encoding="utf-8") for path in paths]
    expected = [_outcome(_reference_parse, text) for text in texts]
    readers = []
    reader = csv.reader

    def counted(*args, **kwargs):
        readers.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counted)
    assert [_outcome(parse_data_csv, text) for text in texts] == expected
    assert readers == []
    parse_data_csv('dmu,a\n"u1",1\n')  # a quoted id still goes to the csv module
    assert len(readers) == 1


_vectors = st.lists(st.sampled_from([1.0, 2.5, 0.0, -1.0, math.nan, math.inf]),
                    min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["u1", "u2", "u3"]), max_size=3),
       st.dictionaries(st.sampled_from(["a", "b", "c"]), _vectors, max_size=3))
def test_dataset_checks_match_reference(ids, measures):
    assert _outcome(Dataset, ids, measures) == _outcome(_reference_dataset, ids, measures)


@pytest.mark.parametrize("text, message", [
    # a column-wise reader would meet column 'a' of row 3 first
    ("dmu,a,b\nu1,1,x\nu2,y,2\n", r"^row 2, column 'b': non-numeric cell 'x'$"),
    # a cell fault comes before a later short row
    ("dmu,a,b\nu1,1,x\nu2,3\n", r"^row 2, column 'b'"),
    # a short row comes before a later cell fault
    ("dmu,a,b\nu1,1\nu2,x,2\n", r"^row 2: expected 3 cells, got 2$"),
    # blank rows are not counted
    ("dmu,a\n , \n\nu1,1\nu2,x\n", r"^row 3, column 'a'"),
    # without measure columns, whitespace-only rows are no DMUs
    ("dmu\n \n  \n", r"^dataset needs at least one DMU$"),
])
def test_first_fault_in_row_order(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_data_csv(text)


def test_blank_rows_between_units_are_skipped():
    ds = parse_data_csv("dmu,a,b\nu1,1,2\n , \nu2,3,4\n")
    assert ds.dmu_ids == ("u1", "u2")
    assert ds.matrix(["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("measures, message", [
    ({"a": [1, math.nan], "b": [-1, 2]}, r"measure 'a' contains non-finite"),
    ({"a": [1, -2], "b": [math.nan, 2]}, r"measure 'a' has nonpositive value -2.0 for DMU 'u2'"),
    ({"a": [-1, 2], "b": [1]}, r"measure 'a' has nonpositive"),
    ({"a": [1, 2], "b": [1], "c": [math.nan, 1]}, r"measure 'b' has 1 values for 2 DMUs"),
])
def test_dataset_names_first_faulty_measure(measures, message):
    with pytest.raises(ValidationError, match=message):
        Dataset(["u1", "u2"], measures)


def test_dataset_matrix_contract():
    ds = Dataset(["u1", "u2", "u3"], {"a": [1, 2, 3], "b": [4, 5, 6], "c": [7, 8, 9]})
    with pytest.raises(ValueError):
        ds.measures["a"][0] = 9.0
    assert ds.matrix(["c", "a"]).tolist() == [[7.0, 1.0], [8.0, 2.0], [9.0, 3.0]]
    assert ds.matrix(["b"]).shape == (3, 1)
    assert ds.matrix([]).shape == (3, 0)
    with pytest.raises(ValidationError, match=r"^unknown measure 'zz'$"):
        ds.matrix(["a", "zz"])
