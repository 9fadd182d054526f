"""Record validation and trace round-trip behaviour."""

import json
import math
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylog import geoexport, records
from skylog.cli import main as cli_main
from skylog.records import (
    AGL_CEILING_M,
    CELL_ID_MAX,
    DB_FIELD_RANGES,
    LAT_MAX_DEG,
    LON_MAX_DEG,
    MAX_NEIGHBORS,
    NEIGHBOR_FIELDS,
    PCI_MAX,
    POSITION_FIELDS,
    ROW_FIELDS,
    SERVING_FIELDS,
    TAC_MAX,
    GeoPosition,
    Invalid,
    MeasurementRecord,
    NeighborCellSample,
    RttSummary,
    ServingCellSample,
    TraceDecodeError,
    accepted_line,
    decode_e2e,
    decode_record,
    encode_e2e,
    encode_record,
    encode_row,
    iter_rows,
    read_e2e_trace,
    read_trace,
    validate_e2e,
    validate_record,
)
from skylog.records import _encode_record_reference, _record_of, _row_of, plain_row, valid_row

from conftest import make_e2e, make_neighbor, make_record, make_serving, violation
from record_strategies import StrSource, any_records


def test_valid_record_passes(record):
    assert violation(validate_record, record) is None


def test_record_reprs_are_pinned():
    assert repr(make_record()) == (
        "MeasurementRecord(ts_unix_ms=1700000000000, pos=GeoPosition(lat_deg=40.0, "
        "lon_deg=-100.0, alt_m_amsl=650.0, alt_m_agl=50.0), serving=ServingCellSample("
        "earfcn=1300, pci=101, cell_id=1715004, tac=4321, rsrp_dbm=-95.0, rsrq_db=-11.5, "
        "rssi_dbm=-70.0, sinr_db=12.5), neighbors=(NeighborCellSample(earfcn=1300, pci=202, "
        "rsrp_dbm=-101.5, rsrq_db=-14.0, rssi_dbm=-70.0),), source='sim')")
    assert repr(make_e2e()) == (
        "EndToEndRecord(ts_unix_ms=1700000000000, pos=GeoPosition(lat_deg=40.0, "
        "lon_deg=-100.0, alt_m_amsl=650.0, alt_m_agl=None), rtt=RttSummary(sent=20, "
        "received=19, min_ms=31.2, mean_ms=44.8, p50_ms=42.0, max_ms=88.1, "
        "loss_fraction=0.05), dl_mbps=24.6, ul_mbps=9.1, duration_s=5.0)")


def test_records_are_immutable_tuples_copied_with_replace():
    rec = make_record()
    assert rec == tuple(rec) and rec.pos == (40.0, -100.0, 650.0, 50.0)
    moved = rec._replace(source="hw")
    assert (moved.source, rec.source) == ("hw", "sim")
    with pytest.raises(AttributeError):
        rec.source = "hw"


def test_rsrp_above_ceiling_rejected():
    rec = make_record(serving=make_serving(rsrp_dbm=-30.0))
    with pytest.raises(Invalid) as refused:
        validate_record(rec)
    assert refused.value.field == "rsrp_dbm"
    assert refused.value.value == -30.0


def test_rsrp_below_floor_rejected():
    rec = make_record(serving=make_serving(rsrp_dbm=-141.0))
    assert violation(validate_record, rec)[0] == "rsrp_dbm"


def test_rssi_below_rsrp_rejected():
    rec = make_record(serving=make_serving(rsrp_dbm=-60.0, rssi_dbm=-61.0))
    assert violation(validate_record, rec)[0] == "rssi_dbm"


def test_neighbor_duplicating_serving_rejected():
    dup = make_neighbor(earfcn=1300, pci=101)
    rec = make_record(neighbors=(dup,))
    _, message = violation(validate_record, rec)
    assert "duplicates serving" in message


def test_same_pci_on_other_earfcn_allowed():
    rec = make_record(neighbors=(make_neighbor(earfcn=2850, pci=101),))
    assert violation(validate_record, rec) is None


def test_nine_neighbors_rejected():
    nbrs = tuple(make_neighbor(pci=200 + i) for i in range(9))
    assert violation(validate_record, make_record(neighbors=nbrs))[0] == "neighbors"


def test_agl_out_of_range_rejected():
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=900.0, alt_m_agl=250.0)
    assert violation(validate_record, make_record(pos=pos))[0] == "alt_m_agl"


def test_agl_may_be_absent():
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=900.0, alt_m_agl=None)
    assert violation(validate_record, make_record(pos=pos)) is None


def test_bad_source_rejected():
    assert violation(validate_record, make_record(source="live"))[0] == "source"


def test_nan_metric_rejected():
    rec = make_record(serving=make_serving(sinr_db=float("nan")))
    assert violation(validate_record, rec)[0] == "sinr_db"


def test_pci_range():
    assert violation(validate_record, make_record(serving=make_serving(pci=504)))[0] == "pci"
    assert violation(validate_record, make_record(serving=make_serving(pci=503))) is None


def test_cell_id_range():
    over = 2**28
    assert violation(validate_record, make_record(serving=make_serving(cell_id=over)))[0] == "cell_id"


def test_encode_uses_exact_keys(record):
    doc = json.loads(encode_record(record))
    assert set(doc) == {"ts_unix_ms", "lat_deg", "lon_deg", "alt_m_amsl",
                        "alt_m_agl", "serving", "neighbors", "source"}
    assert set(doc["serving"]) == {"earfcn", "pci", "cell_id", "tac",
                                   "rsrp_dbm", "rsrq_db", "rssi_dbm", "sinr_db"}
    assert set(doc["neighbors"][0]) == {"earfcn", "pci", "rsrp_dbm", "rsrq_db", "rssi_dbm"}


def test_encode_quantizes_db_to_one_decimal():
    rec = make_record(serving=make_serving(rsrp_dbm=-95.04, rssi_dbm=-70.06))
    doc = json.loads(encode_record(rec))
    assert doc["serving"]["rsrp_dbm"] == -95.0
    assert doc["serving"]["rssi_dbm"] == -70.1


def test_round_trip_identity(record):
    again = decode_record(encode_record(record))
    assert again == record


def test_decode_ignores_unknown_fields(record):
    doc = json.loads(encode_record(record))
    doc["vendor_extra"] = {"x": 1}
    again = decode_record(json.dumps(doc))
    assert again == record


def test_decode_missing_serving_errors(record):
    doc = json.loads(encode_record(record))
    del doc["serving"]
    with pytest.raises(TraceDecodeError, match="serving"):
        decode_record(json.dumps(doc), line_no=7)


def test_decode_reports_line_and_column():
    with pytest.raises(TraceDecodeError) as exc_info:
        decode_record("{not json", line_no=3)
    assert exc_info.value.line == 3
    assert exc_info.value.column is not None


def test_decode_wrong_type_errors(record):
    doc = json.loads(encode_record(record))
    doc["serving"]["pci"] = "101"
    with pytest.raises(TraceDecodeError, match="pci"):
        decode_record(json.dumps(doc))


def test_read_trace_round_trip(tmp_path, record):
    second = make_record(ts_unix_ms=record.ts_unix_ms + 1000)
    path = tmp_path / "t.trace"
    path.write_text(encode_record(record) + "\n" + encode_record(second) + "\n")
    got = read_trace(path)
    assert got == [record, second]


def test_read_trace_rejects_nonmonotonic_ts(tmp_path, record):
    same = make_record(ts_unix_ms=record.ts_unix_ms)
    path = tmp_path / "t.trace"
    path.write_text(encode_record(record) + "\n" + encode_record(same) + "\n")
    with pytest.raises(TraceDecodeError, match="strictly increasing") as exc_info:
        read_trace(path)
    assert exc_info.value.line == 2


def test_iter_rows_yields_rows_before_a_bad_line(tmp_path):
    good = [make_record(ts_unix_ms=1_700_000_000_000 + i * 1000) for i in range(2)]
    bad = make_record(ts_unix_ms=1_700_000_002_000, serving=make_serving(rsrp_dbm=-30.0))
    path = tmp_path / "t.trace"
    path.write_text("".join(encode_record(r) + "\n" for r in [*good, bad, *good]))
    stream = iter_rows(path)
    assert [next(stream), next(stream)] == [_row_of(r) for r in good]
    with pytest.raises(TraceDecodeError, match="rsrp_dbm") as exc_info:
        next(stream)
    assert exc_info.value.line == 3


def test_read_trace_rejects_out_of_range(tmp_path):
    bad = make_record(serving=make_serving(rsrp_dbm=-30.0))
    path = tmp_path / "t.trace"
    path.write_text(encode_record(bad) + "\n")
    with pytest.raises(TraceDecodeError, match="rsrp_dbm"):
        read_trace(path)


# --- end-to-end records ---

def test_valid_e2e_passes(e2e_record):
    assert violation(validate_e2e, e2e_record) is None


def test_e2e_round_trip(e2e_record):
    assert decode_e2e(encode_e2e(e2e_record)) == e2e_record


def test_e2e_total_loss_drops_stats():
    rtt = RttSummary(sent=10, received=0, loss_fraction=1.0)
    rec = make_e2e(rtt=rtt)
    assert violation(validate_e2e, rec) is None
    doc = json.loads(encode_e2e(rec))
    assert doc["rtt"]["min_ms"] is None
    assert decode_e2e(encode_e2e(rec)) == rec


def test_e2e_stats_with_zero_received_rejected():
    rtt = RttSummary(sent=10, received=0, min_ms=1.0, mean_ms=1.0,
                     p50_ms=1.0, max_ms=1.0, loss_fraction=1.0)
    assert violation(validate_e2e, make_e2e(rtt=rtt))[0] == "rtt"


def test_e2e_loss_fraction_consistency():
    rtt = RttSummary(sent=10, received=9, min_ms=1.0, mean_ms=1.0,
                     p50_ms=1.0, max_ms=1.0, loss_fraction=0.5)
    assert violation(validate_e2e, make_e2e(rtt=rtt))[0] == "rtt.loss_fraction"


@pytest.mark.parametrize("changes, field", [
    ({"dl_mbps": math.nan}, "dl_mbps"),
    ({"ul_mbps": math.inf}, "ul_mbps"),
    ({"dl_mbps": -math.inf}, "dl_mbps"),
    ({"duration_s": math.inf}, "duration_s"),
    ({"rtt.loss_fraction": math.nan}, "rtt.loss_fraction"),
    ({"rtt.p50_ms": math.nan}, "rtt.p50_ms"),
    ({f"rtt.{k}": math.inf for k in ("min_ms", "mean_ms", "p50_ms", "max_ms")}, "rtt.min_ms"),
])
def test_read_e2e_trace_rejects_non_finite(tmp_path, e2e_record, changes, field):
    doc = json.loads(encode_e2e(e2e_record))
    for name, value in changes.items():
        *parents, key = name.split(".")
        target = doc[parents[0]] if parents else doc
        target[key] = value
    path = tmp_path / "t.e2e"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(TraceDecodeError) as exc_info:
        read_e2e_trace(path)
    assert str(exc_info.value) == f"line 1: {field} is not finite"


def test_read_e2e_trace(tmp_path, e2e_record):
    later = make_e2e(ts_unix_ms=e2e_record.ts_unix_ms + 60_000)
    path = tmp_path / "p.e2e"
    path.write_text(encode_e2e(e2e_record) + "\n" + encode_e2e(later) + "\n")
    assert read_e2e_trace(path) == [e2e_record, later]


# --- property: arbitrary valid records survive encode/decode unchanged ---

def db_values(name):
    lo, hi = DB_FIELD_RANGES[name]
    return st.integers(int(lo * 10), int(hi * 10)).map(lambda n: n / 10)


@st.composite
def serving_samples(draw):
    rsrp = draw(db_values("rsrp_dbm"))
    rssi = draw(db_values("rssi_dbm").filter(lambda v: v >= rsrp))
    return ServingCellSample(
        earfcn=draw(st.integers(0, 65535)),
        pci=draw(st.integers(0, 503)),
        cell_id=draw(st.integers(0, 2**28 - 1)),
        tac=draw(st.integers(0, 65535)),
        rsrp_dbm=rsrp,
        rsrq_db=draw(db_values("rsrq_db")),
        rssi_dbm=rssi,
        sinr_db=draw(db_values("sinr_db")),
    )


@st.composite
def measurement_records(draw):
    serving = draw(serving_samples())
    keys = draw(st.lists(
        st.tuples(st.integers(0, 65535), st.integers(0, 503)).filter(
            lambda k: k != (serving.earfcn, serving.pci)),
        max_size=8, unique=True))
    neighbors = tuple(
        NeighborCellSample(
            earfcn=k[0], pci=k[1],
            rsrp_dbm=draw(db_values("rsrp_dbm")),
            rsrq_db=draw(db_values("rsrq_db")),
            rssi_dbm=draw(db_values("rssi_dbm")),
        )
        for k in keys)
    pos = GeoPosition(
        lat_deg=draw(st.floats(-90, 90, allow_nan=False)),
        lon_deg=draw(st.floats(-180, 180, allow_nan=False)),
        alt_m_amsl=draw(st.floats(-100, 5000, allow_nan=False)),
        alt_m_agl=draw(st.one_of(st.none(), st.floats(0, 200, allow_nan=False))),
    )
    return MeasurementRecord(
        ts_unix_ms=draw(st.integers(0, 2**53 - 1)),
        pos=pos,
        serving=serving,
        neighbors=neighbors,
        source=draw(st.sampled_from(["sim", "replay", "hw"])),
    )


@settings(max_examples=200, deadline=None)
@given(measurement_records())
def test_property_round_trip(rec):
    assert violation(validate_record, rec) is None
    again = decode_record(encode_record(rec))
    assert again == rec


@settings(max_examples=200, deadline=None)
@given(st.one_of(measurement_records(), any_records()))
def test_row_round_trip(rec):
    """_row_of lays a record out as ROW_FIELDS names it, and _record_of
    inverts it, keeping every value object (and so its type) as it was."""
    row = _row_of(rec)
    fields_of = {"ts_unix_ms": rec.ts_unix_ms, "source": rec.source,
                 "neighbors": tuple(tuple(getattr(n, f) for f in NEIGHBOR_FIELDS)
                                    for n in rec.neighbors),
                 **{f: getattr(rec.pos, f) for f in POSITION_FIELDS},
                 **{f: getattr(rec.serving, f) for f in SERVING_FIELDS}}
    assert row == tuple(fields_of[name] for name in ROW_FIELDS)
    again = _record_of(row)
    assert again == rec
    assert _field_types([again]) == _field_types([rec])


@settings(max_examples=200, deadline=None)
@given(measurement_records())
def test_property_encoded_db_fields_have_one_decimal(rec):
    doc = json.loads(encode_record(rec))
    for key in ("rsrp_dbm", "rsrq_db", "rssi_dbm", "sinr_db"):
        v = doc["serving"][key]
        assert math.isclose(v * 10, round(v * 10), abs_tol=1e-9)
    for nbr in doc["neighbors"]:
        for key in ("rsrp_dbm", "rsrq_db", "rssi_dbm"):
            assert math.isclose(nbr[key] * 10, round(nbr[key] * 10), abs_tol=1e-9)


# --- encode_record's fixed-layout path against json.dumps ---

def _reference_line(rec) -> str:
    """The trace line as json.dumps writes the record's trace object."""
    def cell(obj, layout):
        return {name: round(getattr(obj, name), 1) if name in DB_FIELD_RANGES else getattr(obj, name)
                for name in layout}
    doc = {"ts_unix_ms": rec.ts_unix_ms, "lat_deg": rec.pos.lat_deg, "lon_deg": rec.pos.lon_deg,
           "alt_m_amsl": rec.pos.alt_m_amsl, "alt_m_agl": rec.pos.alt_m_agl,
           "serving": cell(rec.serving, SERVING_FIELDS),
           "neighbors": [cell(n, NEIGHBOR_FIELDS) for n in rec.neighbors],
           "source": rec.source}
    return json.dumps(doc, separators=(",", ":"))


@settings(max_examples=400, deadline=None)
@given(any_records())
def test_encode_record_is_json_dumps_of_the_trace_object(rec):
    assert encode_record(rec) == _reference_line(rec)


@settings(max_examples=400, deadline=None)
@given(any_records())
def test_encode_row_is_the_reference_encoder(rec):
    """The writer's row encoder against json.dumps of the record: NaN and
    +-inf, bools, float subclasses, out-of-range values, a null alt_m_agl
    and odd sources take the reference path, every other row the template."""
    assert encode_row(_row_of(rec)) == _encode_record_reference(rec)


# --- encode_row's %.1f dB rendering ---

# Below this magnitude '%.1f' % x is repr(round(x, 1)); from it on, repr
# writes an exponent.
FIXED_DB_LIMIT = 1e16


@settings(max_examples=2000, deadline=None)
@given(st.one_of(
    st.floats(-FIXED_DB_LIMIT, FIXED_DB_LIMIT, exclude_min=True, exclude_max=True),
    st.floats(-300.0, 300.0),
    st.integers(-3000, 3000).map(lambda k: k / 10 + 0.05)))
def test_fixed_one_decimal_is_the_repr_of_round(x):
    assert "%.1f" % x == repr(round(x, 1))


def test_fixed_one_decimal_on_ties_and_signed_zeros():
    """Every k/10 + 0.05 in [-200, 60], one ulp either side of it, and the
    signed zeros, including values that round to -0.0."""
    values = [0.0, -0.0, -0.04, -0.05, 0.05, 5e-324, -5e-324]
    for k in range(-2000, 600):
        x = k / 10 + 0.05
        values += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    assert [v for v in values if "%.1f" % v != repr(round(v, 1))] == []
    assert ("%.1f" % FIXED_DB_LIMIT, repr(round(FIXED_DB_LIMIT, 1))) == ("10000000000000000.0", "1e+16")


@pytest.mark.parametrize("value", [FIXED_DB_LIMIT, -FIXED_DB_LIMIT, 1.5e16, 1e300])
@pytest.mark.parametrize("field", ["rsrp_dbm", "sinr_db", "neighbors.rssi_dbm"])
def test_a_db_value_at_or_above_the_limit_takes_the_reference_path(monkeypatch, field, value):
    calls = []

    def reference(rec):
        calls.append(rec)
        return _encode_record_reference(rec)

    monkeypatch.setattr(records, "_encode_record_reference", reference)
    if field.startswith("neighbors."):
        rec = make_record(neighbors=(make_neighbor(**{field.split(".")[1]: value}),))
    else:
        rec = make_record(serving=make_serving(**{field: value}))
    line = encode_row(_row_of(rec))
    assert line == _reference_line(rec)
    assert "e+" in line
    assert calls == [rec]


@st.composite
def valid_rows(draw):
    """Rows valid_row accepts with a float alt_m_agl and an exact str source,
    their dB values at full float precision anywhere in range."""
    def db(name, lo=None):
        low, high = DB_FIELD_RANGES[name]
        return draw(st.floats(low if lo is None else lo, high))

    rsrp = db("rsrp_dbm")
    rssi = db("rssi_dbm", lo=max(rsrp, DB_FIELD_RANGES["rssi_dbm"][0]))
    serving = (draw(st.integers(0, 2**40)), draw(st.integers(0, PCI_MAX)),
               draw(st.integers(0, CELL_ID_MAX)), draw(st.integers(0, TAC_MAX)),
               rsrp, db("rsrq_db"), rssi, db("sinr_db"))
    keys = draw(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, PCI_MAX)).filter(
        lambda k: k != serving[:2]), max_size=MAX_NEIGHBORS, unique=True))
    neighbors = tuple((*k, db("rsrp_dbm"), db("rsrq_db"), db("rssi_dbm")) for k in keys)
    position = (draw(st.floats(-LAT_MAX_DEG, LAT_MAX_DEG)), draw(st.floats(-LON_MAX_DEG, LON_MAX_DEG)),
                draw(st.floats(allow_nan=False, allow_infinity=False)),
                draw(st.floats(0.0, AGL_CEILING_M)))
    return (draw(st.integers(0, 2**63 - 1)), *position, *serving, neighbors,
            draw(st.sampled_from(["sim", "replay", "hw"])))


@settings(max_examples=400, deadline=None)
@given(valid_rows())
def test_a_valid_row_fills_the_template_with_the_json_dumps_bytes(row):
    assert valid_row(row)
    with mock.patch.object(records, "_encode_record_reference",
                           side_effect=AssertionError("reference path taken")):
        line = encode_row(row)
    assert line == _reference_line(_record_of(row))


@settings(max_examples=400, deadline=None)
@given(st.one_of(any_records().map(_row_of), valid_rows()))
def test_every_fixed_layout_writer_takes_its_template_exactly_on_plain_row(row):
    """One guard: the trace line and the GeoJSON feature each go to their
    reference path exactly when plain_row refuses the row."""
    taken = []

    def reference(name):
        return lambda *args: taken.append(name) or ""

    with mock.patch.object(records, "_encode_record_reference", reference("trace")), \
            mock.patch.object(geoexport, "_record_feature", reference("geojson")):
        encode_row(row)
        list(geoexport._record_features([row], list(records.METRIC_FIELDS.values())))
    assert taken == ([] if plain_row(row) else ["trace", "geojson"])


@pytest.mark.parametrize("ts, ok", [(0, True), (2**63 - 1, True), (-1, False), (2**63, False),
                                    (10**400, False)],
                         ids=["zero", "int64-max", "negative", "past-int64", "401-digits"])
def test_ts_unix_ms_is_int64_milliseconds(ts, ok):
    rec = make_record(ts_unix_ms=ts)
    assert valid_row(_row_of(rec)) is ok
    refused = None if ok else ("ts_unix_ms", "ts_unix_ms out of [0,9223372036854775807]")
    assert violation(validate_record, rec) == refused
    assert violation(validate_e2e, make_e2e(ts_unix_ms=ts)) == refused


# --- schema walker strictness: one test per kind of bad field ---

_DELETE = object()


@pytest.mark.parametrize("path, value, message", [
    (("serving", "sinr_db"), _DELETE, "missing field 'serving.sinr_db'"),
    (("serving", "pci"), True, "field 'serving.pci' has wrong type"),
    (("lat_deg",), None, "field 'lat_deg' has wrong type"),
    (("alt_m_agl",), False, "field 'alt_m_agl' has wrong type"),
    (("ts_unix_ms",), 1.7e12, "field 'ts_unix_ms' has wrong type"),
    (("neighbors", 0, "rsrq_db"), "-14.0", "field 'neighbors[0].rsrq_db' has wrong type"),
    (("neighbors", 0), [1], "field 'neighbors[0]' has wrong type"),
    (("source",), None, "field 'source' has wrong type"),
])
def test_decode_record_names_bad_field_and_line(record, path, value, message):
    doc = json.loads(encode_record(record))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(TraceDecodeError) as exc_info:
        decode_record(json.dumps(doc), line_no=4)
    assert str(exc_info.value) == f"line 4: {message}"
    assert exc_info.value.line == 4


@pytest.mark.parametrize("agl", [_DELETE, None])
def test_decode_record_agl_may_be_absent_or_null(record, agl):
    doc = json.loads(encode_record(record))
    if agl is _DELETE:
        del doc["alt_m_agl"]
    else:
        doc["alt_m_agl"] = agl
    assert decode_record(json.dumps(doc)).pos.alt_m_agl is None


# Every required field of each line kind, with the message computed from the
# readers the dataclass-driven scalar_fields replaced.  A dataclass default
# that made one of them optional would decode the line instead of raising.
_RAN_REQUIRED = [
    (("ts_unix_ms",), "line 3: missing field 'ts_unix_ms'"),
    (("lat_deg",), "line 3: missing field 'lat_deg'"),
    (("lon_deg",), "line 3: missing field 'lon_deg'"),
    (("alt_m_amsl",), "line 3: missing field 'alt_m_amsl'"),
    (("source",), "line 3: missing field 'source'"),
    (("serving",), "line 3: missing field 'serving'"),
    (("neighbors",), "line 3: missing field 'neighbors'"),
    (("serving", "earfcn"), "line 3: missing field 'serving.earfcn'"),
    (("serving", "pci"), "line 3: missing field 'serving.pci'"),
    (("serving", "cell_id"), "line 3: missing field 'serving.cell_id'"),
    (("serving", "tac"), "line 3: missing field 'serving.tac'"),
    (("serving", "rsrp_dbm"), "line 3: missing field 'serving.rsrp_dbm'"),
    (("serving", "rsrq_db"), "line 3: missing field 'serving.rsrq_db'"),
    (("serving", "rssi_dbm"), "line 3: missing field 'serving.rssi_dbm'"),
    (("serving", "sinr_db"), "line 3: missing field 'serving.sinr_db'"),
    (("neighbors", 0, "earfcn"), "line 3: missing field 'neighbors[0].earfcn'"),
    (("neighbors", 0, "pci"), "line 3: missing field 'neighbors[0].pci'"),
    (("neighbors", 0, "rsrp_dbm"), "line 3: missing field 'neighbors[0].rsrp_dbm'"),
    (("neighbors", 0, "rsrq_db"), "line 3: missing field 'neighbors[0].rsrq_db'"),
    (("neighbors", 0, "rssi_dbm"), "line 3: missing field 'neighbors[0].rssi_dbm'"),
]

_E2E_REQUIRED = [
    (("ts_unix_ms",), "line 3: missing field 'ts_unix_ms'"),
    (("lat_deg",), "line 3: missing field 'lat_deg'"),
    (("lon_deg",), "line 3: missing field 'lon_deg'"),
    (("alt_m_amsl",), "line 3: missing field 'alt_m_amsl'"),
    (("rtt",), "line 3: missing field 'rtt'"),
    (("rtt", "sent"), "line 3: missing field 'rtt.sent'"),
    (("rtt", "received"), "line 3: missing field 'rtt.received'"),
    (("rtt", "loss_fraction"), "line 3: missing field 'rtt.loss_fraction'"),
    (("dl_mbps",), "line 3: missing field 'dl_mbps'"),
    (("ul_mbps",), "line 3: missing field 'ul_mbps'"),
    (("duration_s",), "line 3: missing field 'duration_s'"),
]


def _without(text: str, path) -> str:
    doc = json.loads(text)
    target = doc
    for step in path[:-1]:
        target = target[step]
    del target[path[-1]]
    return json.dumps(doc)


@pytest.mark.parametrize("path, message", _RAN_REQUIRED)
def test_decode_record_requires_each_field(record, path, message):
    with pytest.raises(TraceDecodeError) as exc_info:
        decode_record(_without(encode_record(record), path), line_no=3)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("path, message", _E2E_REQUIRED)
def test_decode_e2e_requires_each_field(e2e_record, path, message):
    with pytest.raises(TraceDecodeError) as exc_info:
        decode_e2e(_without(encode_e2e(e2e_record), path), line_no=3)
    assert str(exc_info.value) == message


_E2E_FINITE_CHECKS = {
    "min_ms": ("rtt.min_ms", "rtt.min_ms is not finite"),
    "mean_ms": ("rtt.mean_ms", "rtt.mean_ms is not finite"),
    "p50_ms": ("rtt.p50_ms", "rtt.p50_ms is not finite"),
    "max_ms": ("rtt.max_ms", "rtt.max_ms is not finite"),
    "loss_fraction": ("rtt.loss_fraction", "rtt.loss_fraction is not finite"),
    "dl_mbps": ("dl_mbps", "dl_mbps is not finite"),
    "ul_mbps": ("ul_mbps", "ul_mbps is not finite"),
    "duration_s": ("duration_s", "duration_s is not finite"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(_E2E_FINITE_CHECKS))
def test_validate_e2e_finite_check_messages_are_pinned(e2e_record, name, value):
    if name in ("dl_mbps", "ul_mbps", "duration_s"):
        rec = e2e_record._replace(**{name: value})
    else:
        rec = e2e_record._replace(rtt=e2e_record.rtt._replace(**{name: value}))
    assert violation(validate_e2e, rec) == _E2E_FINITE_CHECKS[name]


def test_decode_e2e_optional_and_required_fields(e2e_record):
    doc = json.loads(encode_e2e(e2e_record))
    del doc["rtt"]["min_ms"]
    doc["rtt"]["max_ms"] = None
    doc["alt_m_agl"] = "ignored: e2e lines carry no height above ground"
    rec = decode_e2e(json.dumps(doc))
    assert (rec.rtt.min_ms, rec.rtt.max_ms, rec.pos.alt_m_agl) == (None, None, None)
    doc["rtt"]["loss_fraction"] = None
    with pytest.raises(TraceDecodeError, match=r"field 'rtt\.loss_fraction' has wrong type"):
        decode_e2e(json.dumps(doc), line_no=2)
    doc["rtt"]["loss_fraction"] = 0.05
    del doc["dl_mbps"]
    with pytest.raises(TraceDecodeError, match="missing field 'dl_mbps'"):
        decode_e2e(json.dumps(doc))


def test_read_e2e_trace_names_line(tmp_path, e2e_record):
    later = make_e2e(ts_unix_ms=e2e_record.ts_unix_ms + 60_000, dl_mbps=-1.0)
    path = tmp_path / "t.e2e"
    path.write_text(encode_e2e(e2e_record) + "\n\n" + encode_e2e(later) + "\n")
    with pytest.raises(TraceDecodeError, match="throughput negative") as exc_info:
        read_e2e_trace(path)
    assert exc_info.value.line == 3


# --- read_trace's one-pass check against the reference path ---

def _reference_read(text: str, line_no: int) -> list:
    """What read_trace must do with one line: decode_record, validate_record,
    and the violation raised as a TraceDecodeError naming the line."""
    rec = decode_record(text, line_no)
    refused = violation(validate_record, rec)
    if refused is not None:
        raise TraceDecodeError(refused[1], line=line_no)
    return [rec]


def _outcome(read, *args):
    try:
        return "ok", read(*args)
    except TraceDecodeError as exc:
        return "error", (str(exc), exc.line, exc.column)


def _leaf_types(value) -> list:
    """type() of every value in rows, neighbor tuples included."""
    return ([t for item in value for t in _leaf_types(item)] if type(value) in (list, tuple)
            else [type(value)])


def _field_types(recs) -> list:
    """type() of every field, nested records included, so an int read where
    the reference gives a float shows even though the two compare equal."""
    out = []
    for rec in recs:
        for obj in (rec, rec.pos, rec.serving, *rec.neighbors):
            out.append([type(getattr(obj, name)) for name in obj._fields])
    return out


@pytest.fixture(scope="module")
def seed7_flight(tmp_path_factory) -> tuple[list, list]:
    """The RAN and e2e trace lines of a 3 s seed-7 flight."""
    out = tmp_path_factory.mktemp("sim")
    env = resources.files("skylog").joinpath("data/threecell.env")
    plan = resources.files("skylog").joinpath("data/climb.plan")
    assert cli_main(["--seed", "7", "simulate", "--env", str(env), "--plan", str(plan),
                     "--duration", "3", "--out", str(out)]) == 0
    return (next(out.glob("*.trace")).read_text().splitlines(),
            next(out.glob("*.e2e")).read_text().splitlines())


@pytest.fixture(scope="module")
def simulated_line(seed7_flight) -> str:
    line = seed7_flight[0][0]
    assert len(json.loads(line)["neighbors"]) == 2
    return line


_BOUNDS = {  # field -> (low, high, one step); None for an open side
    "ts_unix_ms": (0, 2**63 - 1, 1),
    **{name: (lo, hi, 0.1) for name, (lo, hi) in DB_FIELD_RANGES.items()},
    "lat_deg": (-LAT_MAX_DEG, LAT_MAX_DEG, 0.1),
    "lon_deg": (-LON_MAX_DEG, LON_MAX_DEG, 0.1),
    "alt_m_agl": (0.0, AGL_CEILING_M, 0.1),
    "earfcn": (0, None, 1),
    "pci": (0, PCI_MAX, 1),
    "cell_id": (0, CELL_ID_MAX, 1),
    "tac": (0, TAC_MAX, 1),
}


def _leaf_values(key: str, value) -> list:
    """Every single-field replacement value: null, bool, string, the other
    number type, NaN, +-Infinity, and each bound and one step past it."""
    out = [None, True, "x"]
    if type(value) in (int, float):
        out += [float(value) if type(value) is int else int(value), math.nan, math.inf, -math.inf]
    lo, hi, step = _BOUNDS.get(key, (None, None, 0))
    if lo is not None:
        out += [lo, round(lo - step, 1)]
    if hi is not None:
        out += [hi, round(hi + step, 1)]
    return out


def _mutations(doc: dict) -> list:
    """(path, apply) pairs; apply edits a copy of doc in place."""
    def put(path, value):
        def apply(d):
            *parents, key = path
            for step in parents:
                d = d[step]
            if value is _DELETE:
                del d[key]
            else:
                d[key] = value
        return path, apply

    leaves = [((k,), v) for k, v in doc.items()]
    leaves += [(("serving", k), v) for k, v in doc["serving"].items()]
    leaves += [(("neighbors", i, k), v) for i, n in enumerate(doc["neighbors"]) for k, v in n.items()]
    out = []
    for path, value in leaves:
        if isinstance(value, (dict, list)):
            values = [None, True, "x", 7, {} if isinstance(value, list) else []]
        else:
            values = _leaf_values(path[-1], value)
        out += [put(path, v) for v in [_DELETE, *values]]
    for i in range(len(doc["neighbors"])):
        out += [put(("neighbors", i), v) for v in (None, 7, [1])]
    serving = doc["serving"]
    out.append(put(("neighbors", 0, "earfcn"), serving["earfcn"]))
    out.append(put(("neighbors", 0, "pci"), serving["pci"]))
    nine = [{**doc["neighbors"][0], "pci": (serving["pci"] + 1 + i) % (PCI_MAX + 1)}
            for i in range(MAX_NEIGHBORS + 1)]
    out.append(put(("neighbors",), nine))
    out.append(put(("neighbors",), nine[:MAX_NEIGHBORS]))
    out.append(put(("vendor_extra",), {"x": 1}))
    out.append(put(("serving", "vendor_extra"), 1))
    return out


# Fields a cross-field rule reads: rssi >= rsrp, and no neighbor repeating the
# serving (earfcn, pci).
_CROSS_CHECKED = {("serving", "rsrp_dbm"), ("serving", "rssi_dbm"),
                  ("serving", "earfcn"), ("serving", "pci"),
                  *((("neighbors", i, k) for i in range(MAX_NEIGHBORS) for k in ("earfcn", "pci")))}


def test_read_trace_agrees_with_reference_path(tmp_path, simulated_line):
    """Every single edit of a simulated line, and every pair of edits to two
    fields whose outcome the singles leave open: two edits each accepted on
    its own, or two edits to fields a cross-field rule reads.  (An edit that
    a per-field check refuses is refused whatever else changes.)"""
    base = json.loads(simulated_line)
    mutations = _mutations(base)

    def edited(*applies) -> str:
        doc = json.loads(simulated_line)
        for apply in applies:
            apply(doc)
        return json.dumps(doc)

    clean = [_outcome(_reference_read, edited(apply), 3)[0] == "ok" for _, apply in mutations]
    texts = [simulated_line, "[1]", "3", "null", simulated_line[:-1], simulated_line + "x",
             # whole lines the scanner leaves to json.loads: a BOM, surrounding
             # whitespace, two objects, an array of the object
             "\ufeff" + simulated_line, "  " + simulated_line, simulated_line + "\r",
             simulated_line + " ", simulated_line + simulated_line, "[" + simulated_line + "]"]
    for i, (path_a, apply_a) in enumerate(mutations):
        texts.append(edited(apply_a))
        for j in range(i + 1, len(mutations)):
            path_b, apply_b = mutations[j]
            if path_a[:len(path_b)] == path_b or path_b[:len(path_a)] == path_a:
                continue  # the same field, or one inside the other: not two edits
            if (clean[i] and clean[j]) or (path_a in _CROSS_CHECKED and path_b in _CROSS_CHECKED):
                texts.append(edited(apply_a, apply_b))
    path = tmp_path / "t.trace"
    mismatches = []
    accepted = 0
    for text in texts:
        path.write_text("\n\n" + text + "\n")  # the line under test is line 3
        got, want = _outcome(read_trace, path), _outcome(_reference_read, text, 3)
        # iter_rows gives _row_of of the reference record, or read_trace's error.
        rows = _outcome(lambda p: list(iter_rows(p)), path)
        want_rows = ("ok", [_row_of(r) for r in want[1]]) if want[0] == "ok" else got
        if (got != want or rows != want_rows
                or (got[0] == "ok" and (_field_types(got[1]) != _field_types(want[1])
                                        or _leaf_types(rows[1]) != _leaf_types(want_rows[1])))):
            mismatches.append((text, got, want, rows))
        accepted += got[0] == "ok"
    assert not mismatches[:5]
    assert 0 < accepted < len(texts)


@pytest.mark.parametrize("kind", ["ran", "e2e"])
def test_a_lone_cr_is_whitespace_and_crlf_reads_as_lf(tmp_path, seed7_flight, kind):
    """A trace line ends at LF alone.  A raw CR between two keys is JSON
    whitespace inside the line; read with universal newlines it split line 2
    (refused at column 44) and shifted every later line number by one."""
    ran_lines, e2e_lines = seed7_flight
    if kind == "ran":
        lines, read, decode = ran_lines[:3], read_trace, decode_record
    else:  # three lines a minute apart, made from the flight's one e2e line
        doc = json.loads(e2e_lines[0])
        lines = [json.dumps({**doc, "ts_unix_ms": doc["ts_unix_ms"] + 60_000 * i},
                            separators=(",", ":")) for i in range(3)]
        read, decode = read_e2e_trace, decode_e2e
    want = [decode(line) for line in lines]
    cut = lines[1].index(',"lon_deg"') + 1
    with_cr = [lines[0], lines[1][:cut] + "\r" + lines[1][cut:], lines[2]]
    bad = json.dumps({**json.loads(lines[2]), "ts_unix_ms": want[2].ts_unix_ms + 1,
                      "lat_deg": 95.0})
    path = tmp_path / "t.trace"

    path.write_bytes(("\n".join(with_cr) + "\n").encode())
    assert read(path) == want
    path.write_bytes(("\n".join([*with_cr, bad]) + "\n").encode())
    with pytest.raises(TraceDecodeError, match="lat_deg out of") as exc_info:
        read(path)
    assert exc_info.value.line == 4
    # A CRLF copy, blank CRLF lines included, reads as the LF file.
    path.write_bytes(("\r\n".join(["", lines[0], "", *lines[1:]]) + "\r\n\r\n").encode())
    assert read(path) == want
    path.write_bytes(("\r\n".join([*lines, "", bad]) + "\r\n").encode())
    with pytest.raises(TraceDecodeError, match="lat_deg out of") as exc_info:
        read(path)
    assert exc_info.value.line == 5


# --- exact messages of the per-field checks, pinned ---

_POSITION_FIELDS = ("lat_deg", "lon_deg", "alt_m_amsl", "alt_m_agl")


def _outside(name: str) -> dict:
    """The values just past each bound of a field, and the three non-finite
    ones.  alt_m_amsl has no bound but finiteness; earfcn no upper bound."""
    cases = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}
    lo, hi, _ = _BOUNDS.get(name, (None, None, None))
    if type(lo) is int:
        cases["below"] = lo - 1
        if hi is not None:
            cases["above"] = hi + 1
    elif lo is not None:
        cases["below"] = math.nextafter(lo, -math.inf)
        cases["above"] = math.nextafter(hi, math.inf)
    return cases


def _field_check_outcomes(tmp_path) -> dict:
    """(part, field, case) -> (validate_record's field, its message,
    read_trace's error) for one field of make_record() set to one value."""
    base = make_record()
    path = tmp_path / "t.trace"
    out = {}
    for part, names in (("pos", _POSITION_FIELDS), ("serving", SERVING_FIELDS),
                        ("neighbors", NEIGHBOR_FIELDS)):
        for name in names:
            for case, value in _outside(name).items():
                doc = json.loads(encode_record(base))
                if part == "pos":
                    rec = base._replace(pos=base.pos._replace(**{name: value}))
                    doc[name] = value
                elif part == "serving":
                    rec = base._replace(serving=base.serving._replace(**{name: value}))
                    doc["serving"][name] = value
                else:
                    nbr = base.neighbors[0]._replace(**{name: value})
                    rec = base._replace(neighbors=(nbr,))
                    doc["neighbors"][0][name] = value
                refused = violation(validate_record, rec)
                # The tick's check refuses the row as validate_record refuses the record.
                assert violation(accepted_line, _row_of(rec)) == refused
                path.write_text(json.dumps(doc) + "\n")
                try:
                    read_trace(path)
                    error = None
                except TraceDecodeError as exc:
                    error = str(exc)
                out[part, name, case] = (*(refused or (None, None)), error)
    return out


# Computed with the field-by-field validators the bounds walk replaced, so a
# change to any message shows here.  test_read_trace_agrees_with_reference_path
# cannot see one: both of its paths would change together.
_PINNED_FIELD_CHECKS = {
    ('pos', 'lat_deg', 'nan'): ('lat_deg', 'lat_deg is not finite', 'line 1: lat_deg is not finite'),
    ('pos', 'lat_deg', '+inf'): ('lat_deg', 'lat_deg is not finite', 'line 1: lat_deg is not finite'),
    ('pos', 'lat_deg', '-inf'): ('lat_deg', 'lat_deg is not finite', 'line 1: lat_deg is not finite'),
    ('pos', 'lat_deg', 'below'): ('lat_deg', 'lat_deg out of [-90,90]', 'line 1: lat_deg out of [-90,90]'),
    ('pos', 'lat_deg', 'above'): ('lat_deg', 'lat_deg out of [-90,90]', 'line 1: lat_deg out of [-90,90]'),
    ('pos', 'lon_deg', 'nan'): ('lon_deg', 'lon_deg is not finite', 'line 1: lon_deg is not finite'),
    ('pos', 'lon_deg', '+inf'): ('lon_deg', 'lon_deg is not finite', 'line 1: lon_deg is not finite'),
    ('pos', 'lon_deg', '-inf'): ('lon_deg', 'lon_deg is not finite', 'line 1: lon_deg is not finite'),
    ('pos', 'lon_deg', 'below'): ('lon_deg', 'lon_deg out of [-180,180]', 'line 1: lon_deg out of [-180,180]'),
    ('pos', 'lon_deg', 'above'): ('lon_deg', 'lon_deg out of [-180,180]', 'line 1: lon_deg out of [-180,180]'),
    ('pos', 'alt_m_amsl', 'nan'): ('alt_m_amsl', 'alt_m_amsl is not finite', 'line 1: alt_m_amsl is not finite'),
    ('pos', 'alt_m_amsl', '+inf'): ('alt_m_amsl', 'alt_m_amsl is not finite', 'line 1: alt_m_amsl is not finite'),
    ('pos', 'alt_m_amsl', '-inf'): ('alt_m_amsl', 'alt_m_amsl is not finite', 'line 1: alt_m_amsl is not finite'),
    ('pos', 'alt_m_agl', 'nan'): ('alt_m_agl', 'alt_m_agl is not finite', 'line 1: alt_m_agl is not finite'),
    ('pos', 'alt_m_agl', '+inf'): ('alt_m_agl', 'alt_m_agl is not finite', 'line 1: alt_m_agl is not finite'),
    ('pos', 'alt_m_agl', '-inf'): ('alt_m_agl', 'alt_m_agl is not finite', 'line 1: alt_m_agl is not finite'),
    ('pos', 'alt_m_agl', 'below'): ('alt_m_agl', 'alt_m_agl out of [0,200]', 'line 1: alt_m_agl out of [0,200]'),
    ('pos', 'alt_m_agl', 'above'): ('alt_m_agl', 'alt_m_agl out of [0,200]', 'line 1: alt_m_agl out of [0,200]'),
    ('serving', 'earfcn', 'nan'): (None, None, "line 1: field 'serving.earfcn' has wrong type"),
    ('serving', 'earfcn', '+inf'): (None, None, "line 1: field 'serving.earfcn' has wrong type"),
    ('serving', 'earfcn', '-inf'): ('earfcn', 'earfcn negative', "line 1: field 'serving.earfcn' has wrong type"),
    ('serving', 'earfcn', 'below'): ('earfcn', 'earfcn negative', 'line 1: earfcn negative'),
    ('serving', 'pci', 'nan'): ('pci', 'pci out of [0,503]', "line 1: field 'serving.pci' has wrong type"),
    ('serving', 'pci', '+inf'): ('pci', 'pci out of [0,503]', "line 1: field 'serving.pci' has wrong type"),
    ('serving', 'pci', '-inf'): ('pci', 'pci out of [0,503]', "line 1: field 'serving.pci' has wrong type"),
    ('serving', 'pci', 'below'): ('pci', 'pci out of [0,503]', 'line 1: pci out of [0,503]'),
    ('serving', 'pci', 'above'): ('pci', 'pci out of [0,503]', 'line 1: pci out of [0,503]'),
    ('serving', 'cell_id', 'nan'): ('cell_id', 'cell_id out of [0,268435455]', "line 1: field 'serving.cell_id' has wrong type"),
    ('serving', 'cell_id', '+inf'): ('cell_id', 'cell_id out of [0,268435455]', "line 1: field 'serving.cell_id' has wrong type"),
    ('serving', 'cell_id', '-inf'): ('cell_id', 'cell_id out of [0,268435455]', "line 1: field 'serving.cell_id' has wrong type"),
    ('serving', 'cell_id', 'below'): ('cell_id', 'cell_id out of [0,268435455]', 'line 1: cell_id out of [0,268435455]'),
    ('serving', 'cell_id', 'above'): ('cell_id', 'cell_id out of [0,268435455]', 'line 1: cell_id out of [0,268435455]'),
    ('serving', 'tac', 'nan'): ('tac', 'tac out of [0,65535]', "line 1: field 'serving.tac' has wrong type"),
    ('serving', 'tac', '+inf'): ('tac', 'tac out of [0,65535]', "line 1: field 'serving.tac' has wrong type"),
    ('serving', 'tac', '-inf'): ('tac', 'tac out of [0,65535]', "line 1: field 'serving.tac' has wrong type"),
    ('serving', 'tac', 'below'): ('tac', 'tac out of [0,65535]', 'line 1: tac out of [0,65535]'),
    ('serving', 'tac', 'above'): ('tac', 'tac out of [0,65535]', 'line 1: tac out of [0,65535]'),
    ('serving', 'rsrp_dbm', 'nan'): ('rsrp_dbm', 'rsrp_dbm is not finite', 'line 1: rsrp_dbm is not finite'),
    ('serving', 'rsrp_dbm', '+inf'): ('rsrp_dbm', 'rsrp_dbm is not finite', 'line 1: rsrp_dbm is not finite'),
    ('serving', 'rsrp_dbm', '-inf'): ('rsrp_dbm', 'rsrp_dbm is not finite', 'line 1: rsrp_dbm is not finite'),
    ('serving', 'rsrp_dbm', 'below'): ('rsrp_dbm', 'rsrp_dbm out of [-140,-44]', 'line 1: rsrp_dbm out of [-140,-44]'),
    ('serving', 'rsrp_dbm', 'above'): ('rsrp_dbm', 'rsrp_dbm out of [-140,-44]', 'line 1: rsrp_dbm out of [-140,-44]'),
    ('serving', 'rsrq_db', 'nan'): ('rsrq_db', 'rsrq_db is not finite', 'line 1: rsrq_db is not finite'),
    ('serving', 'rsrq_db', '+inf'): ('rsrq_db', 'rsrq_db is not finite', 'line 1: rsrq_db is not finite'),
    ('serving', 'rsrq_db', '-inf'): ('rsrq_db', 'rsrq_db is not finite', 'line 1: rsrq_db is not finite'),
    ('serving', 'rsrq_db', 'below'): ('rsrq_db', 'rsrq_db out of [-24,-3]', 'line 1: rsrq_db out of [-24,-3]'),
    ('serving', 'rsrq_db', 'above'): ('rsrq_db', 'rsrq_db out of [-24,-3]', 'line 1: rsrq_db out of [-24,-3]'),
    ('serving', 'rssi_dbm', 'nan'): ('rssi_dbm', 'rssi_dbm is not finite', 'line 1: rssi_dbm is not finite'),
    ('serving', 'rssi_dbm', '+inf'): ('rssi_dbm', 'rssi_dbm is not finite', 'line 1: rssi_dbm is not finite'),
    ('serving', 'rssi_dbm', '-inf'): ('rssi_dbm', 'rssi_dbm is not finite', 'line 1: rssi_dbm is not finite'),
    ('serving', 'rssi_dbm', 'below'): ('rssi_dbm', 'rssi_dbm out of [-120,-10]', 'line 1: rssi_dbm out of [-120,-10]'),
    ('serving', 'rssi_dbm', 'above'): ('rssi_dbm', 'rssi_dbm out of [-120,-10]', 'line 1: rssi_dbm out of [-120,-10]'),
    ('serving', 'sinr_db', 'nan'): ('sinr_db', 'sinr_db is not finite', 'line 1: sinr_db is not finite'),
    ('serving', 'sinr_db', '+inf'): ('sinr_db', 'sinr_db is not finite', 'line 1: sinr_db is not finite'),
    ('serving', 'sinr_db', '-inf'): ('sinr_db', 'sinr_db is not finite', 'line 1: sinr_db is not finite'),
    ('serving', 'sinr_db', 'below'): ('sinr_db', 'sinr_db out of [-20,40]', 'line 1: sinr_db out of [-20,40]'),
    ('serving', 'sinr_db', 'above'): ('sinr_db', 'sinr_db out of [-20,40]', 'line 1: sinr_db out of [-20,40]'),
    ('neighbors', 'earfcn', 'nan'): (None, None, "line 1: field 'neighbors[0].earfcn' has wrong type"),
    ('neighbors', 'earfcn', '+inf'): (None, None, "line 1: field 'neighbors[0].earfcn' has wrong type"),
    ('neighbors', 'earfcn', '-inf'): ('neighbors[0].earfcn', 'neighbors[0].earfcn negative', "line 1: field 'neighbors[0].earfcn' has wrong type"),
    ('neighbors', 'earfcn', 'below'): ('neighbors[0].earfcn', 'neighbors[0].earfcn negative', 'line 1: neighbors[0].earfcn negative'),
    ('neighbors', 'pci', 'nan'): ('neighbors[0].pci', 'neighbors[0].pci out of [0,503]', "line 1: field 'neighbors[0].pci' has wrong type"),
    ('neighbors', 'pci', '+inf'): ('neighbors[0].pci', 'neighbors[0].pci out of [0,503]', "line 1: field 'neighbors[0].pci' has wrong type"),
    ('neighbors', 'pci', '-inf'): ('neighbors[0].pci', 'neighbors[0].pci out of [0,503]', "line 1: field 'neighbors[0].pci' has wrong type"),
    ('neighbors', 'pci', 'below'): ('neighbors[0].pci', 'neighbors[0].pci out of [0,503]', 'line 1: neighbors[0].pci out of [0,503]'),
    ('neighbors', 'pci', 'above'): ('neighbors[0].pci', 'neighbors[0].pci out of [0,503]', 'line 1: neighbors[0].pci out of [0,503]'),
    ('neighbors', 'rsrp_dbm', 'nan'): ('neighbors[0].rsrp_dbm', 'neighbors[0].rsrp_dbm is not finite', 'line 1: neighbors[0].rsrp_dbm is not finite'),
    ('neighbors', 'rsrp_dbm', '+inf'): ('neighbors[0].rsrp_dbm', 'neighbors[0].rsrp_dbm is not finite', 'line 1: neighbors[0].rsrp_dbm is not finite'),
    ('neighbors', 'rsrp_dbm', '-inf'): ('neighbors[0].rsrp_dbm', 'neighbors[0].rsrp_dbm is not finite', 'line 1: neighbors[0].rsrp_dbm is not finite'),
    ('neighbors', 'rsrp_dbm', 'below'): ('neighbors[0].rsrp_dbm', 'neighbors[0].rsrp_dbm out of [-140,-44]', 'line 1: neighbors[0].rsrp_dbm out of [-140,-44]'),
    ('neighbors', 'rsrp_dbm', 'above'): ('neighbors[0].rsrp_dbm', 'neighbors[0].rsrp_dbm out of [-140,-44]', 'line 1: neighbors[0].rsrp_dbm out of [-140,-44]'),
    ('neighbors', 'rsrq_db', 'nan'): ('neighbors[0].rsrq_db', 'neighbors[0].rsrq_db is not finite', 'line 1: neighbors[0].rsrq_db is not finite'),
    ('neighbors', 'rsrq_db', '+inf'): ('neighbors[0].rsrq_db', 'neighbors[0].rsrq_db is not finite', 'line 1: neighbors[0].rsrq_db is not finite'),
    ('neighbors', 'rsrq_db', '-inf'): ('neighbors[0].rsrq_db', 'neighbors[0].rsrq_db is not finite', 'line 1: neighbors[0].rsrq_db is not finite'),
    ('neighbors', 'rsrq_db', 'below'): ('neighbors[0].rsrq_db', 'neighbors[0].rsrq_db out of [-24,-3]', 'line 1: neighbors[0].rsrq_db out of [-24,-3]'),
    ('neighbors', 'rsrq_db', 'above'): ('neighbors[0].rsrq_db', 'neighbors[0].rsrq_db out of [-24,-3]', 'line 1: neighbors[0].rsrq_db out of [-24,-3]'),
    ('neighbors', 'rssi_dbm', 'nan'): ('neighbors[0].rssi_dbm', 'neighbors[0].rssi_dbm is not finite', 'line 1: neighbors[0].rssi_dbm is not finite'),
    ('neighbors', 'rssi_dbm', '+inf'): ('neighbors[0].rssi_dbm', 'neighbors[0].rssi_dbm is not finite', 'line 1: neighbors[0].rssi_dbm is not finite'),
    ('neighbors', 'rssi_dbm', '-inf'): ('neighbors[0].rssi_dbm', 'neighbors[0].rssi_dbm is not finite', 'line 1: neighbors[0].rssi_dbm is not finite'),
    ('neighbors', 'rssi_dbm', 'below'): ('neighbors[0].rssi_dbm', 'neighbors[0].rssi_dbm out of [-120,-10]', 'line 1: neighbors[0].rssi_dbm out of [-120,-10]'),
    ('neighbors', 'rssi_dbm', 'above'): ('neighbors[0].rssi_dbm', 'neighbors[0].rssi_dbm out of [-120,-10]', 'line 1: neighbors[0].rssi_dbm out of [-120,-10]'),
}

# A NaN earfcn set in code passed the old `earfcn < 0` check; the bounds walk
# refuses it, as it refuses a NaN pci.  No trace can carry one: the decoder
# refuses a float earfcn.
_NAN_EARFCN_REFUSED = {
    ("serving", "earfcn", "nan"): ("earfcn", "earfcn negative"),
    ("neighbors", "earfcn", "nan"): ("neighbors[0].earfcn", "neighbors[0].earfcn negative"),
}


def test_field_check_messages_are_pinned(tmp_path):
    want = dict(_PINNED_FIELD_CHECKS)
    for key, (field, message) in _NAN_EARFCN_REFUSED.items():
        want[key] = (field, message, want[key][2])
    assert _field_check_outcomes(tmp_path) == want


def test_row_guard_never_accepts_what_validate_record_refuses(simulated_line):
    """The collector's tick checks its row with the guard ingest uses and
    writes it without calling validate_record.  Every single edit of a
    simulated row, and every pair of edits both accepted alone or both to
    fields a cross-field rule reads, is accepted by the guard only when
    validate_record accepts its record."""
    base = _row_of(decode_record(simulated_line))
    nbrs = ROW_FIELDS.index("neighbors")
    edits = []  # (field key, where in the row, new value)
    for i, name in enumerate(ROW_FIELDS[:nbrs]):
        edits += [((name,), i, v) for v in _leaf_values(name, base[i])]
    for j, nbr in enumerate(base[nbrs]):
        for k, name in enumerate(NEIGHBOR_FIELDS):
            edits += [(("neighbors", j, name), (nbrs, j, k), v) for v in _leaf_values(name, nbr[k])]
    earfcn, pci = base[ROW_FIELDS.index("earfcn")], base[ROW_FIELDS.index("pci")]
    many = [(earfcn, (pci + 1 + i) % (PCI_MAX + 1), *base[nbrs][0][2:]) for i in range(MAX_NEIGHBORS + 1)]
    edits += [(("neighbors",), nbrs, v) for v in ((), tuple(many[:MAX_NEIGHBORS]), tuple(many))]
    edits += [(("source",), nbrs + 1, v) for v in ("hw", "x", None, 7, StrSource("sim"))]

    def apply(row, where, value):
        row = list(row)
        if type(where) is int:
            row[where] = value
        else:
            i, j, k = where
            cells = [list(n) for n in row[i]]
            cells[j][k] = value
            row[i] = tuple(map(tuple, cells))
        return tuple(row)

    cross = {("rsrp_dbm",), ("rssi_dbm",), ("earfcn",), ("pci",),
             *(("neighbors", j, name) for j in range(MAX_NEIGHBORS) for name in ("earfcn", "pci"))}
    rows = [apply(base, where, v) for _, where, v in edits]
    ok = list(map(valid_row, rows))
    for a, (key_a, where_a, v_a) in enumerate(edits):
        for b in range(a + 1, len(edits)):
            key_b, where_b, v_b = edits[b]
            if key_a[:len(key_b)] == key_b or key_b[:len(key_a)] == key_a:
                continue
            if (ok[a] and ok[b]) or (key_a in cross and key_b in cross):
                rows.append(apply(apply(base, where_a, v_a), where_b, v_b))
    accepted = [row for row in rows if valid_row(row)]
    assert valid_row(base) and 0 < len(accepted) < len(rows)
    assert [row for row in accepted if violation(validate_record, _record_of(row))] == []


def _valid_spellings(doc: dict) -> list:
    """Valid variants of a simulated trace line's object: integer-valued dB
    and position fields, alt_m_agl missing or null, keys in reverse order,
    and unknown keys."""
    def whole(d) -> dict:
        return {k: int(round(v)) if type(v) is float else v for k, v in d.items()}

    return [{**whole(doc), "serving": whole(doc["serving"]),
             "neighbors": [whole(n) for n in doc["neighbors"]]},
            {k: v for k, v in doc.items() if k != "alt_m_agl"},
            {**doc, "alt_m_agl": None},
            {k: dict(reversed(v.items())) if k == "serving" else v for k, v in reversed(doc.items())},
            {**doc, "vendor_extra": {"x": [1]}, "serving": {**doc["serving"], "band": 3},
             "neighbors": [{**n, "note": None} for n in doc["neighbors"]]}]


def test_every_row_iter_rows_yields_passes_the_row_guard(tmp_path, monkeypatch, simulated_line):
    """Replay writes the rows iter_rows yields through the collector's tick,
    which checks each with valid_row.  A row built on the reference path
    (decode_record, then _row_of) must pass that guard as a row read on the
    fast path does.  Surrounding whitespace sends a line to the reference
    path, as an integer in a float field does; each spelling is read both
    ways."""
    doc = json.loads(simulated_line)
    spellings, ts = [doc, *_valid_spellings(doc)], doc["ts_unix_ms"]
    # One timestamp per line, increasing; a replaced key keeps its place.
    lines = [json.dumps({**d, "ts_unix_ms": ts + n}, separators=(",", ":"))
             for n, d in enumerate(spellings)]
    lines += [" " + json.dumps({**d, "ts_unix_ms": ts + len(spellings) + n}) + "\t "
              for n, d in enumerate(spellings)]
    assert lines[0] == simulated_line
    path = tmp_path / "t.trace"
    path.write_text("\n".join(lines) + "\n")
    decoded = []
    monkeypatch.setattr(records, "decode_record",
                        lambda text, line_no: decoded.append(line_no) or decode_record(text, line_no))
    rows = list(iter_rows(path))
    # The integer-valued line, then every padded line.
    assert decoded == [2, *range(len(spellings) + 1, len(lines) + 1)]
    assert [row[0] for row in rows] == [ts + n for n in range(len(lines))]
    assert [n for n, row in enumerate(rows, start=1) if not valid_row(row)] == []
