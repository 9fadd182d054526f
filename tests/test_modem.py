"""Modem report grammar: parse/render round-trip, positioned errors, replay."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylog.modem import (
    ModemError,
    ModemReport,
    RangeError,
    ReplayBackend,
    ReplayExhausted,
    ReportSyntaxError,
    parse_report,
    render_report,
)
from skylog.records import NeighborCellSample, TraceDecodeError, _cells_of, encode_record

from conftest import make_neighbor, make_record, make_serving
from modem_cases import RANGE_CASES, SYNTAX_CASES, VALID_NO_NEIGHBORS, VALID_ONE_NEIGHBOR
from test_records import db_values, serving_samples


def test_parse_valid_report_with_neighbor():
    report = parse_report(VALID_ONE_NEIGHBOR)
    s = report.serving
    assert (s.earfcn, s.pci, s.cell_id, s.tac) == (5230, 101, 27447301, 12802)
    assert (s.rsrp_dbm, s.rsrq_db, s.rssi_dbm, s.sinr_db) == (-91.0, -10.5, -62.0, 13.2)
    assert len(report.neighbors) == 1
    n = report.neighbors[0]
    assert (n.earfcn, n.pci) == (5230, 102)
    assert (n.rsrp_dbm, n.rsrq_db, n.rssi_dbm) == (-98.5, -14.0, -62.0)


def test_parse_valid_report_without_neighbors():
    report = parse_report(VALID_NO_NEIGHBORS)
    assert report.neighbors == ()


def test_error_line_raises_modem_error():
    with pytest.raises(ModemError) as exc_info:
        parse_report(b"ERROR: 7\r\n")
    assert exc_info.value.code == 7


@pytest.mark.parametrize("name,raw,line,column,expected", SYNTAX_CASES,
                         ids=[c[0] for c in SYNTAX_CASES])
def test_syntax_errors_are_positioned(name, raw, line, column, expected):
    with pytest.raises(ReportSyntaxError) as exc_info:
        parse_report(raw)
    err = exc_info.value
    assert (err.line, err.column) == (line, column)
    assert expected in err.expected


@pytest.mark.parametrize("name,raw,field,value", RANGE_CASES,
                         ids=[c[0] for c in RANGE_CASES])
def test_range_errors_name_field_and_value(name, raw, field, value):
    with pytest.raises(RangeError) as exc_info:
        parse_report(raw)
    assert exc_info.value.field == field
    assert exc_info.value.value == value


def test_render_no_neighbors_has_no_nbr_lines():
    report = ModemReport(serving=make_serving())
    wire = render_report(report)
    assert b"+NBR" not in wire
    assert wire.startswith(b"+SRV: ")
    assert wire.endswith(b"\r\nOK\r\n")


def test_render_eight_neighbors():
    nbrs = tuple(make_neighbor(pci=200 + i) for i in range(8))
    wire = render_report(ModemReport(serving=make_serving(), neighbors=nbrs))
    assert wire.count(b"+NBR: ") == 8
    assert parse_report(wire).neighbors == nbrs


def test_render_nine_neighbors_raises_range_error():
    nbrs = tuple(make_neighbor(pci=200 + i) for i in range(9))
    with pytest.raises(RangeError) as exc_info:
        render_report(ModemReport(serving=make_serving(), neighbors=nbrs))
    assert (exc_info.value.field, exc_info.value.value) == ("neighbors", 9)


def test_render_uses_crlf_and_one_decimal():
    # An int in a dB field still renders with one decimal: the format follows the field.
    for rsrp in (-95.0, -95):
        wire = render_report(ModemReport(serving=make_serving(rsrp_dbm=rsrp)))
        text = wire.decode("ascii")
        assert "\n" not in text.replace("\r\n", "")
        assert "-95.0," in text


def test_round_trip_reference_report():
    assert render_report(parse_report(VALID_ONE_NEIGHBOR)) == VALID_ONE_NEIGHBOR


@st.composite
def reports(draw):
    serving = draw(serving_samples())
    keys = draw(st.lists(
        st.tuples(st.integers(0, 65535), st.integers(0, 503)).filter(
            lambda k: k != (serving.earfcn, serving.pci)),
        max_size=8, unique=True))
    neighbors = tuple(
        NeighborCellSample(earfcn=k[0], pci=k[1],
                           rsrp_dbm=draw(db_values("rsrp_dbm")),
                           rsrq_db=draw(db_values("rsrq_db")),
                           rssi_dbm=draw(db_values("rssi_dbm")))
        for k in keys)
    return ModemReport(serving=serving, neighbors=neighbors)


@settings(max_examples=300, deadline=None)
@given(reports())
def test_property_grammar_round_trip(report):
    wire = render_report(report)
    assert parse_report(wire) == report


def write_trace(path, n):
    """n valid records, a second apart, one per line."""
    path.write_text("".join(encode_record(make_record(ts_unix_ms=1_700_000_000_000 + i * 1000)) + "\n"
                            for i in range(n)))
    return path


def test_replay_backend_in_order(tmp_path):
    recs = [make_record(ts_unix_ms=1_700_000_000_000 + i * 1000,
                        serving=make_serving(pci=100 + i)) for i in range(3)]
    path = tmp_path / "r.trace"
    path.write_text("".join(encode_record(r) + "\n" for r in recs))
    backend = ReplayBackend(path)
    assert backend.descriptor == "replay"
    got = [backend.poll_cells(None) for _ in range(3)]
    assert [g[1] for g in got] == [100, 101, 102]
    assert got == [_cells_of(r.serving, r.neighbors) for r in recs]
    with pytest.raises(ReplayExhausted):
        backend.poll_cells(None)


def test_replay_backend_rejects_bad_file_on_construction(tmp_path):
    bad = make_record(serving=make_serving(rsrp_dbm=-30.0))
    path = tmp_path / "bad.trace"
    path.write_text(encode_record(bad) + "\n")
    with pytest.raises(Exception) as exc_info:
        ReplayBackend(path)
    assert "rsrp_dbm" in str(exc_info.value)
    # A bad last line is refused too: construction checks the whole trace.
    late = write_trace(tmp_path / "late.trace", 3)
    with late.open("a") as fh:
        fh.write(encode_record(bad._replace(ts_unix_ms=1_700_000_003_000)) + "\n")
    with pytest.raises(TraceDecodeError, match="rsrp_dbm") as exc_info:
        ReplayBackend(late)
    assert exc_info.value.line == 4


def test_replay_backend_holds_no_trace(tmp_path):
    """Construction checks every line and keeps none, so neither what a
    backend holds nor the check pass's peak grows with the trace."""
    path = write_trace(tmp_path / "long.trace", 3600)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        backend = ReplayBackend(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - before < 2**20
    assert peak - before < 2**20
    assert backend.position(0.0).alt_m_agl == 50.0
