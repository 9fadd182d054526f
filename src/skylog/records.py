"""Canonical measurement record types and the line-oriented trace format.

Every other module exchanges data through the types defined here.  They
are typing.NamedTuples: immutable, indexable in field order, equal to a
plain tuple of the same values, and copied with _replace.  Unlike
dataclasses, they and the plan, config and summary types elsewhere need no
import beyond typing, so no command loads dataclasses.  Trace files are
UTF-8, one JSON object per LF-terminated line; a lone CR is not a line
break, and a CR before the LF is dropped, so CRLF reads as LF.  Each line
is decoded on its own, so a byte that is not UTF-8 is refused with its
line number.  dB/dBm fields are stored with one decimal digit of
precision, matching commodity modem reporting granularity.

The trace line and geoexport's per-record GeoJSON feature each have one
exact fast path for the plain row and a reference path for everything
else.  One guard, plain_row, decides for both fixed-layout writers.

- encode_row fills one %-template (_RECORD_LINE, _NEIGHBOR_LINE) for a
  plain row.  A dB field is written with %.1f, which gives round(x, 1)'s
  repr for any value in the reportable ranges.  Any other row goes through
  _encode_record_reference, json.dumps of the trace object.  Both give the
  same bytes.  encode_record is encode_row of the record's row.
- _ingest_row scans a line with json's object scanner and, when the scan
  covers the whole line, builds its row (ROW_FIELDS) with _clean_row, which
  pulls the fields out and hands the row to valid_row.  That row check
  requires every field to be exactly typed, finite and within the bounds,
  neighbor count and cross-field rules of validate_record.
  Any other line (a BOM, surrounding whitespace, trailing data, a refused
  field, an integer literal too long to convert) goes through decode_record
  and validate_record, whose errors name the line, column and field, and
  then _row_of.  analysis.Survey reduces iter_rows's rows, geoexport renders
  them and modem.ReplayBackend replays them, so analyze, export and replay
  build no record object.  _record_of turns a row back into a
  MeasurementRecord only for read_trace and the reference paths.

The collector's tick lives on the same rows: it builds one from the polled
cells (_cells_of's layout), and accepted_line checks it once and gives the
writer its finished line.

Every record check (validate_record, validate_cells, validate_e2e,
validate_position, accepted_line) returns nothing for what it accepts and
raises Invalid, a ValueError carrying the first violated invariant's field
and value, for what it refuses; each boundary turns that into its own error.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cache, partial
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

SOURCES = ("sim", "replay", "hw")

MAX_NEIGHBORS = 8
CELL_ID_MAX = 2**28 - 1
PCI_MAX = 503
TAC_MAX = 65535
AGL_CEILING_M = 200.0
LAT_MAX_DEG = 90.0
LON_MAX_DEG = 180.0

# 3GPP-style reporting envelopes; values outside are refused at ingest.
DB_FIELD_RANGES = {
    "rsrp_dbm": (-140.0, -44.0),
    "rsrq_db": (-24.0, -3.0),
    "rssi_dbm": (-120.0, -10.0),
    "sinr_db": (-20.0, 40.0),
}

# The one table of metric names: short name -> record field, in trace-schema
# order.  Analysis getters and export columns are derived from it.
METRIC_FIELDS = {"rsrp": "rsrp_dbm", "rsrq": "rsrq_db", "rssi": "rssi_dbm", "sinr": "sinr_db"}


class TraceDecodeError(ValueError):
    """Malformed trace line; carries 1-based line/column when known, and
    path (not in str()) when a trace reader raised it."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        self.line = line
        self.column = column
        self.path = None
        where = ""
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "") + ": "
        super().__init__(where + message)


class GeoPosition(NamedTuple):
    """WGS84 position; altitude above mean sea level, optionally above ground."""

    lat_deg: float
    lon_deg: float
    alt_m_amsl: float
    alt_m_agl: Optional[float] = None


class ServingCellSample(NamedTuple):
    earfcn: int
    pci: int
    cell_id: int
    tac: int
    rsrp_dbm: float
    rsrq_db: float
    rssi_dbm: float
    sinr_db: float


class NeighborCellSample(NamedTuple):
    earfcn: int
    pci: int
    rsrp_dbm: float
    rsrq_db: float
    rssi_dbm: float


# The one cell layout: field names in tuple order, the order of the trace
# objects, the modem report lines and the CSV columns.  A name in
# DB_FIELD_RANGES is a one-decimal dB value; any other is an unsigned int.
SERVING_FIELDS = ServingCellSample._fields
NEIGHBOR_FIELDS = NeighborCellSample._fields


class MeasurementRecord(NamedTuple):
    """One geo-tagged RAN sample: serving cell plus neighbor list."""

    ts_unix_ms: int
    pos: GeoPosition
    serving: ServingCellSample
    neighbors: tuple[NeighborCellSample, ...] = ()
    source: str = "sim"


POSITION_FIELDS = GeoPosition._fields
# The one row layout of a RAN record: MeasurementRecord's fields, pos and serving
# spread in place, neighbors a tuple of NEIGHBOR_FIELDS tuples; valid_row spells it out.
ROW_FIELDS = ("ts_unix_ms", *POSITION_FIELDS, *SERVING_FIELDS, "neighbors", "source")
_POSITION_ROW = slice(1, 1 + len(POSITION_FIELDS))
_SERVING_ROW = slice(_POSITION_ROW.stop, _POSITION_ROW.stop + len(SERVING_FIELDS))


def _cells_of(serving: ServingCellSample, neighbors) -> tuple:
    """A serving cell and its neighbors as the cell part of a ROW_FIELDS row:
    the serving fields, then the neighbors as plain tuples."""
    return (*serving, tuple(map(tuple, neighbors)))


def _row_of(rec: MeasurementRecord) -> tuple:
    """rec as a ROW_FIELDS row."""
    ts, pos, serving, neighbors, source = rec
    return (ts, *pos, *_cells_of(serving, neighbors), source)


def _record_of(row: tuple) -> MeasurementRecord:
    """The record a ROW_FIELDS row stands for; the inverse of _row_of."""
    return MeasurementRecord(row[0], GeoPosition(*row[_POSITION_ROW]),
                             ServingCellSample(*row[_SERVING_ROW]),
                             tuple([NeighborCellSample(*n) for n in row[-2]]), row[-1])


class RttSummary(NamedTuple):
    """Round-trip statistics over one probe burst; stats absent when nothing came back."""

    sent: int
    received: int
    min_ms: Optional[float] = None
    mean_ms: Optional[float] = None
    p50_ms: Optional[float] = None
    max_ms: Optional[float] = None
    loss_fraction: float = 0.0


class EndToEndRecord(NamedTuple):
    """One geo-tagged service sample: RTT summary plus bidirectional goodput."""

    ts_unix_ms: int
    pos: GeoPosition
    rtt: RttSummary
    dl_mbps: float
    ul_mbps: float
    duration_s: float


class Invalid(ValueError):
    """What every record check raises: the first violated invariant, with
    its field and value; str() is the check's message."""

    def __init__(self, field: str, value: object, message: str):
        self.field = field
        self.value = value
        super().__init__(message)


_FINITE = (-sys.float_info.max, sys.float_info.max)

# Inclusive (lo, hi) of every bounded record field.  An int bound is an
# identity or channel number; a float bound is finite, so the one chained
# lo <= v <= hi also refuses NaN and +-inf, and _FINITE refuses only those.
_BOUNDS = {
    "ts_unix_ms": (0, 2**63 - 1),  # int64 milliseconds
    "lat_deg": (-LAT_MAX_DEG, LAT_MAX_DEG),
    "lon_deg": (-LON_MAX_DEG, LON_MAX_DEG),
    "alt_m_amsl": _FINITE,
    "alt_m_agl": (0.0, AGL_CEILING_M),
    **DB_FIELD_RANGES,
    "earfcn": (0, math.inf),
    "pci": (0, PCI_MAX),
    "cell_id": (0, CELL_ID_MAX),
    "tac": (0, TAC_MAX),
    **dict.fromkeys(("min_ms", "mean_ms", "p50_ms", "max_ms", "loss_fraction",
                     "dl_mbps", "ul_mbps", "duration_s"), _FINITE),
}


def _checks(layout) -> tuple:
    return tuple((name, *_BOUNDS[name]) for name in layout)


_TS_CHECKS = _checks(("ts_unix_ms",))
_POSITION_CHECKS = _checks(POSITION_FIELDS)
_SERVING_CHECKS = _checks(SERVING_FIELDS)
_NEIGHBOR_CHECKS = _checks(NEIGHBOR_FIELDS)
_RTT_CHECKS = _checks(("min_ms", "mean_ms", "p50_ms", "max_ms", "loss_fraction"))
_SERVICE_CHECKS = _checks(("dl_mbps", "ul_mbps", "duration_s"))


def _check_fields(obj, checks, prefix: str = "") -> None:
    """Raise Invalid for the first field of obj outside its bounds; a message
    is built only on failure."""
    for name, lo, hi in checks:
        value = getattr(obj, name)
        if not (lo <= value <= hi):
            if type(lo) is int:
                message = "negative" if hi == math.inf else f"out of [{lo},{hi}]"
            elif not math.isfinite(value):
                message = "is not finite"
            else:
                message = f"out of [{lo:g},{hi:g}]"
            raise Invalid(prefix + name, value, f"{prefix}{name} {message}")


def validate_position(pos: GeoPosition) -> None:
    # alt_m_agl, checked last, may be absent.
    _check_fields(pos, _POSITION_CHECKS if pos.alt_m_agl is not None else _POSITION_CHECKS[:-1])


def validate_record(rec: MeasurementRecord) -> None:
    """Raise Invalid for the first violated invariant, naming its field and value."""
    if rec.source not in SOURCES:
        raise Invalid("source", rec.source, f"source not one of {SOURCES}")
    _check_fields(rec, _TS_CHECKS)
    validate_position(rec.pos)
    validate_cells(rec.serving, rec.neighbors)


def validate_cells(serving: ServingCellSample, neighbors) -> None:
    """Serving cell, neighbor count, then each neighbor; shared with modem reports."""
    _check_fields(serving, _SERVING_CHECKS)
    # Total wideband power includes the reference-signal component.
    if serving.rssi_dbm < serving.rsrp_dbm:
        raise Invalid("rssi_dbm", serving.rssi_dbm, "rssi_dbm below rsrp_dbm")
    if len(neighbors) > MAX_NEIGHBORS:
        raise Invalid("neighbors", len(neighbors), f"more than {MAX_NEIGHBORS} neighbors")
    for i, nbr in enumerate(neighbors):
        _check_fields(nbr, _NEIGHBOR_CHECKS, f"neighbors[{i}].")
        if (nbr.earfcn, nbr.pci) == (serving.earfcn, serving.pci):
            raise Invalid(f"neighbors[{i}]", (nbr.earfcn, nbr.pci), "neighbor duplicates serving cell")


def validate_e2e(rec: EndToEndRecord) -> None:
    _check_fields(rec, _TS_CHECKS)
    validate_position(rec.pos)
    rtt = rec.rtt
    if rtt.sent < 1:
        raise Invalid("rtt.sent", rtt.sent, "rtt.sent must be >= 1")
    if rtt.received < 0 or rtt.received > rtt.sent:
        raise Invalid("rtt.received", rtt.received, "rtt.received outside [0, sent]")
    stats = (rtt.min_ms, rtt.mean_ms, rtt.p50_ms, rtt.max_ms)
    if rtt.received == 0:
        if any(s is not None for s in stats):
            raise Invalid("rtt", stats, "rtt statistics present with zero replies")
    else:
        if any(s is None for s in stats):
            raise Invalid("rtt", stats, "rtt statistics missing with replies present")
        _check_fields(rtt, _RTT_CHECKS[:-1], "rtt.")
        if not (rtt.min_ms <= rtt.p50_ms <= rtt.max_ms):
            raise Invalid("rtt.p50_ms", rtt.p50_ms, "rtt p50 outside [min, max]")
        if not (rtt.min_ms <= rtt.mean_ms <= rtt.max_ms):
            raise Invalid("rtt.mean_ms", rtt.mean_ms, "rtt mean outside [min, max]")
    _check_fields(rtt, _RTT_CHECKS[-1:], "rtt.")
    expected_loss = (rtt.sent - rtt.received) / rtt.sent
    if abs(rtt.loss_fraction - expected_loss) > 1e-9:
        raise Invalid("rtt.loss_fraction", rtt.loss_fraction, "loss_fraction inconsistent with sent/received")
    _check_fields(rec, _SERVICE_CHECKS)
    if rec.dl_mbps < 0 or rec.ul_mbps < 0:
        raise Invalid("dl_mbps" if rec.dl_mbps < 0 else "ul_mbps",
                      min(rec.dl_mbps, rec.ul_mbps), "throughput negative")
    if rec.duration_s <= 0:
        raise Invalid("duration_s", rec.duration_s, "duration_s must be > 0")


def quantize_db(value: float) -> float:
    """Round a dB/dBm value to the stored one-decimal precision."""
    return round(value, 1)


# ---------------------------------------------------------------------------
# Trace line encoding (one JSON object per line)
# ---------------------------------------------------------------------------

def _cell_to_dict(cell, layout) -> dict:
    """A serving or neighbor sample as its trace object, dB fields quantized."""
    return {name: quantize_db(getattr(cell, name)) if name in DB_FIELD_RANGES else getattr(cell, name)
            for name in layout}


def _line_template(layout) -> str:
    """A cell's compact trace object: %d for an int field, %.1f for a dB field."""
    return "{" + ",".join(f'"{name}":%.1f' if name in DB_FIELD_RANGES else f'"{name}":%d'
                          for name in layout) + "}"


_NEIGHBOR_LINE = _line_template(NEIGHBOR_FIELDS)
_RECORD_LINE = ('{"ts_unix_ms":%d,"lat_deg":%r,"lon_deg":%r,"alt_m_amsl":%r,"alt_m_agl":%r,'
                '"serving":' + _line_template(SERVING_FIELDS) + ',"neighbors":[%s],"source":"%s"}')
_AGL = ROW_FIELDS.index("alt_m_agl")


def plain_row(row: tuple) -> bool:
    """The one guard of the fixed-layout writers, encode_row's trace line and
    geoexport's per-record GeoJSON feature: valid_row accepts the row,
    its alt_m_agl is a float and its source an exact str, so every value
    may go into a %-template as %d, %r or %.1f, and the source bare."""
    return valid_row(row) and type(row[_AGL]) is float and type(row[-1]) is str


def _template_line(row: tuple) -> str:
    return _RECORD_LINE % (*row[:-2], ",".join(map(_NEIGHBOR_LINE.__mod__, row[-2])), row[-1])


def encode_row(row: tuple) -> str:
    """Encode one ROW_FIELDS row as a single trace line (no trailing newline):
    the json.dumps bytes of its trace object, dB fields quantized.  A plain
    row fills _RECORD_LINE.  Its dB fields then lie in their reportable
    ranges, where '%.1f' % x is repr(round(x, 1)), quantize_db's bytes: both
    are dtoa with one digit after the point, and they part only from 1e16
    on, where repr turns to exponent form.  Any other row goes through the
    reference path, _encode_record_reference of the row's record."""
    return _template_line(row) if plain_row(row) else _encode_record_reference(_record_of(row))


def accepted_line(row: tuple) -> str:
    """encode_row of a row the collector accepts, with the row checked once:
    a plain row fills the template, any other must pass validate_record,
    which raises Invalid.  A row that is not ROW_FIELDS-shaped raises what
    unpacking it raises."""
    if plain_row(row):
        return _template_line(row)
    rec = _record_of(row)
    validate_record(rec)
    return _encode_record_reference(rec)


def encode_record(rec: MeasurementRecord) -> str:
    """encode_row of the record's row."""
    return encode_row(_row_of(rec))


def _encode_record_reference(rec: MeasurementRecord) -> str:
    """encode_row for any record: the trace object through json.dumps."""
    doc = {
        "ts_unix_ms": rec.ts_unix_ms,
        "lat_deg": rec.pos.lat_deg,
        "lon_deg": rec.pos.lon_deg,
        "alt_m_amsl": rec.pos.alt_m_amsl,
        "alt_m_agl": rec.pos.alt_m_agl,
        "serving": _cell_to_dict(rec.serving, SERVING_FIELDS),
        "neighbors": [_cell_to_dict(n, NEIGHBOR_FIELDS) for n in rec.neighbors],
        "source": rec.source,
    }
    return json.dumps(doc, separators=(",", ":"))


def encode_e2e(rec: EndToEndRecord) -> str:
    doc = {
        "ts_unix_ms": rec.ts_unix_ms,
        "lat_deg": rec.pos.lat_deg,
        "lon_deg": rec.pos.lon_deg,
        "alt_m_amsl": rec.pos.alt_m_amsl,
        "rtt": rec.rtt._asdict(),
        "dl_mbps": rec.dl_mbps,
        "ul_mbps": rec.ul_mbps,
        "duration_s": rec.duration_s,
    }
    return json.dumps(doc, separators=(",", ":"))


def _parse_json_line(text: str, line_no: Optional[int]) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceDecodeError(exc.msg, line=line_no, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # a too-long integer literal, or too deep a nesting
        raise TraceDecodeError(str(exc), line=line_no) from exc
    if not isinstance(doc, dict):
        raise TraceDecodeError("trace line is not an object", line=line_no, column=1)
    return doc


_REQUIRED = object()  # get_field's marker of an absent key, and of a field without a default
_NUMBER = (int, float)


def get_field(doc: dict, key: str, kind: type, fail, where: str = "", default=_REQUIRED):
    """One field of a trace line or config file, type-checked.

    kind is int, float (any number, returned as float), str, list or dict;
    bools never count as numbers.  An absent key returns default, or fails
    when there is none; default=None also accepts an explicit null.
    fail(dotted_name, missing) builds the exception, so each format keeps
    its own error type and wording.  Called directly only for what
    scalar_fields leaves out: nested objects and lists, source, the optional
    alt_m_agl, and RttSummary's fields.
    """
    value = doc.get(key, _REQUIRED)
    if type(value) is kind:  # the common case; everything else takes the checks below
        return value
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise fail(where + key, True)
        return default
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, _NUMBER if kind is float else kind):
        raise fail(where + key, False)
    if kind is float:
        try:
            return float(value)
        except OverflowError:  # an integer beyond any float
            raise fail(where + key, False) from None
    return int(value) if kind is int else value


_SCALAR_KINDS = {"float": float, "int": int}


@cache
def _scalar_table(cls) -> tuple:
    """(name, kind, default) of each float and int field of the NamedTuple
    cls, in field order; _REQUIRED where the field has no default.  Under
    `from __future__ import annotations` NamedTuple keeps each annotation as
    a typing.ForwardRef of its source text, read here once per class."""
    table = []
    for name, annotation in cls.__annotations__.items():
        kind = _SCALAR_KINDS.get(getattr(annotation, "__forward_arg__", annotation))
        if kind is not None:
            table.append((name, kind, cls._field_defaults.get(name, _REQUIRED)))
    return tuple(table)


def scalar_fields(cls, doc: dict, fail, where: str = "") -> dict:
    """Every float and int field of the NamedTuple cls, read from doc by
    name, with the field's own default (a field without one is required).  It
    reads the trace cells, positions and e2e scalars, and the config files'
    scalars.  _clean_row stays literal: a table walk there cost a third more
    per record.  RttSummary's decode stays explicit: loss_fraction's default
    would make a required trace field optional."""
    return {name: get_field(doc, name, kind, fail, where, default)
            for name, kind, default in _scalar_table(cls)}


def position_from_doc(doc: dict, fail, where: str = "", with_agl: bool = True) -> GeoPosition:
    """Parse lat/lon/alt fields; alt_m_agl may be absent or null."""
    return GeoPosition(
        **scalar_fields(GeoPosition, doc, fail, where),
        alt_m_agl=get_field(doc, "alt_m_agl", float, fail, where, None) if with_agl else None,
    )


def _field_error(line_no: Optional[int], name: str, missing: bool) -> TraceDecodeError:
    if missing:
        return TraceDecodeError(f"missing field '{name}'", line=line_no)
    return TraceDecodeError(f"field '{name}' has wrong type", line=line_no)


def decode_record(text: str, line_no: Optional[int] = None) -> MeasurementRecord:
    """Decode one trace line. Unknown fields are ignored (forward compatibility)."""
    doc = _parse_json_line(text, line_no)
    fail = partial(_field_error, line_no)
    serving_doc = get_field(doc, "serving", dict, fail)
    neighbors_doc = get_field(doc, "neighbors", list, fail)
    source = get_field(doc, "source", str, fail)
    if source not in SOURCES:
        raise TraceDecodeError(f"unknown source '{source}'", line=line_no)
    pos = position_from_doc(doc, fail)
    neighbors = []
    for i, item in enumerate(neighbors_doc):
        if not isinstance(item, dict):
            raise fail(f"neighbors[{i}]", False)
        neighbors.append(NeighborCellSample(
            **scalar_fields(NeighborCellSample, item, fail, f"neighbors[{i}].")))
    return MeasurementRecord(
        **scalar_fields(MeasurementRecord, doc, fail),
        pos=pos,
        serving=ServingCellSample(**scalar_fields(ServingCellSample, serving_doc, fail, "serving.")),
        neighbors=tuple(neighbors),
        source=source,
    )


def decode_e2e(text: str, line_no: Optional[int] = None) -> EndToEndRecord:
    doc = _parse_json_line(text, line_no)
    fail = partial(_field_error, line_no)
    rtt_doc = get_field(doc, "rtt", dict, fail)
    rtt = RttSummary(
        sent=get_field(rtt_doc, "sent", int, fail, "rtt."),
        received=get_field(rtt_doc, "received", int, fail, "rtt."),
        min_ms=get_field(rtt_doc, "min_ms", float, fail, "rtt.", None),
        mean_ms=get_field(rtt_doc, "mean_ms", float, fail, "rtt.", None),
        p50_ms=get_field(rtt_doc, "p50_ms", float, fail, "rtt.", None),
        max_ms=get_field(rtt_doc, "max_ms", float, fail, "rtt.", None),
        loss_fraction=get_field(rtt_doc, "loss_fraction", float, fail, "rtt."),
    )
    return EndToEndRecord(pos=position_from_doc(doc, fail, with_agl=False), rtt=rtt,
                          **scalar_fields(EndToEndRecord, doc, fail))


def _checked(rec, validate, line_no: int):
    """rec when validate accepts it, else its Invalid as a TraceDecodeError."""
    try:
        validate(rec)
    except Invalid as exc:
        raise TraceDecodeError(str(exc), line=line_no) from None
    return rec


_TS_MAX = _BOUNDS["ts_unix_ms"][1]
_RSRP_LO, _RSRP_HI = DB_FIELD_RANGES["rsrp_dbm"]
_RSRQ_LO, _RSRQ_HI = DB_FIELD_RANGES["rsrq_db"]
_RSSI_LO, _RSSI_HI = DB_FIELD_RANGES["rssi_dbm"]
_SINR_LO, _SINR_HI = DB_FIELD_RANGES["sinr_db"]


def valid_row(row: tuple) -> bool:
    """True when every field of a ROW_FIELDS row is exactly typed (a float
    field holds a float, not an int), finite and within the bounds,
    neighbor count and cross-field rules of validate_record.

    The row check of a trace line at ingest, and the first half of
    plain_row, the writers' and the tick's guard.  It never accepts a row
    whose record validate_record refuses, so a False only sends the row to
    that reference check.
    """
    ts, lat, lon, amsl, agl, earfcn, pci, cell_id, tac, rsrp, rsrq, rssi, sinr, nbrs, source = row
    # Chained comparisons are False for NaN, so each bounded check also
    # rejects non-finite values.
    if not (type(ts) is int and 0 <= ts <= _TS_MAX and source in SOURCES
            and type(lat) is float and -LAT_MAX_DEG <= lat <= LAT_MAX_DEG
            and type(lon) is float and -LON_MAX_DEG <= lon <= LON_MAX_DEG
            and type(amsl) is float and -math.inf < amsl < math.inf
            and (agl is None or type(agl) is float and 0.0 <= agl <= AGL_CEILING_M)
            and type(earfcn) is int and earfcn >= 0
            and type(pci) is int and 0 <= pci <= PCI_MAX
            and type(cell_id) is int and 0 <= cell_id <= CELL_ID_MAX
            and type(tac) is int and 0 <= tac <= TAC_MAX
            and type(rsrp) is float and _RSRP_LO <= rsrp <= _RSRP_HI
            and type(rsrq) is float and _RSRQ_LO <= rsrq <= _RSRQ_HI
            and type(rssi) is float and _RSSI_LO <= rssi <= _RSSI_HI
            and type(sinr) is float and _SINR_LO <= sinr <= _SINR_HI
            and rssi >= rsrp
            and len(nbrs) <= MAX_NEIGHBORS):
        return False
    for n_earfcn, n_pci, n_rsrp, n_rsrq, n_rssi in nbrs:
        if not (type(n_earfcn) is int and n_earfcn >= 0
                and type(n_pci) is int and 0 <= n_pci <= PCI_MAX
                and type(n_rsrp) is float and _RSRP_LO <= n_rsrp <= _RSRP_HI
                and type(n_rsrq) is float and _RSRQ_LO <= n_rsrq <= _RSRQ_HI
                and type(n_rssi) is float and _RSSI_LO <= n_rssi <= _RSSI_HI
                and (n_earfcn != earfcn or n_pci != pci)):
            return False
    return True


_neighbor_items = itemgetter(*NEIGHBOR_FIELDS)


def _clean_row(doc) -> Optional[tuple]:
    """The row (ROW_FIELDS) a parsed trace line stands for, when every field
    is present and valid_row accepts it; a None only sends the line to the
    reference path (decode_record, then validate_record).  Unknown keys are
    ignored, as decode_record ignores them."""
    try:
        s, nbrs = doc["serving"], doc["neighbors"]
        if type(nbrs) is not list:
            return None
        row = (doc["ts_unix_ms"], doc["lat_deg"], doc["lon_deg"], doc["alt_m_amsl"], doc.get("alt_m_agl"),
               s["earfcn"], s["pci"], s["cell_id"], s["tac"],
               s["rsrp_dbm"], s["rsrq_db"], s["rssi_dbm"], s["sinr_db"],
               tuple(map(_neighbor_items, nbrs)),
               doc["source"])
    except (KeyError, TypeError):  # a missing key, or a scalar or list where an object belongs
        return None
    return row if valid_row(row) else None


_scan_once = json.JSONDecoder().scan_once  # json.loads's object scanner, without its checks


def _ingest_row(text: str, line_no: int) -> tuple:
    """iter_rows's step per line: the scanner and the one-pass check, and for
    a line either refuses, the reference path, whose error names the line,
    column and field.  The scanner starts at column 1 and must end at the
    last character, so a BOM, surrounding whitespace or trailing data goes
    to json.loads in the reference path."""
    try:
        doc, end = _scan_once(text, 0)
        row = _clean_row(doc) if end == len(text) else None
    except (StopIteration, ValueError, RecursionError):  # JSONDecodeError, a long literal, deep nesting
        row = None
    if row is None:
        row = _row_of(_checked(decode_record(text, line_no), validate_record, line_no))
    return row


def _ingest_e2e(text: str, line_no: int) -> EndToEndRecord:
    return _checked(decode_e2e(text, line_no), validate_e2e, line_no)


def _read_lines(path, ingest) -> Iterator:
    """The one trace-reading loop: ingest(text, line_no) each non-empty line and
    enforce strictly increasing timestamps, item[0] of its result, naming the
    line on failure.
    Lines are split on LF as bytes and each is decoded as strict UTF-8 on its own,
    so a bad byte is refused with its line number and its offset in that line.
    A TraceDecodeError raised here carries path, the file it names."""
    last_ts: Optional[int] = None
    with open(path, "rb") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.removesuffix(b"\n").removesuffix(b"\r")
                if not raw:
                    continue
                try:
                    line = raw.decode()
                except UnicodeDecodeError as exc:
                    raise TraceDecodeError(f"not valid UTF-8: {exc}", line=line_no) from None
                item = ingest(line, line_no)
                ts = item[0]
                if last_ts is not None and ts <= last_ts:
                    raise TraceDecodeError(
                        f"ts_unix_ms not strictly increasing ({ts} after {last_ts})",
                        line=line_no,
                    )
                last_ts = ts
                yield item
        except TraceDecodeError as exc:
            exc.path = path
            raise


def iter_rows(path) -> Iterator[tuple]:
    """Yield a RAN trace file's records as ROW_FIELDS rows as they are read, enforcing
    validity and timestamp monotonicity; a bad line raises when the stream reaches it."""
    return _read_lines(path, _ingest_row)


def read_trace(path) -> list[MeasurementRecord]:
    """Ingest a whole RAN trace file as records; see iter_rows."""
    return list(map(_record_of, iter_rows(path)))


def read_e2e_trace(path) -> list[EndToEndRecord]:
    return list(_read_lines(path, _ingest_e2e))


__all__ = [
    "GeoPosition", "ServingCellSample", "NeighborCellSample", "MeasurementRecord",
    "RttSummary", "EndToEndRecord", "Invalid", "TraceDecodeError",
    "validate_record", "validate_cells", "validate_e2e", "validate_position",
    "encode_record", "encode_row", "accepted_line", "decode_record", "encode_e2e", "decode_e2e",
    "plain_row", "valid_row",
    "iter_rows", "read_trace", "read_e2e_trace", "quantize_db", "get_field",
    "scalar_fields", "position_from_doc",
    "DB_FIELD_RANGES", "METRIC_FIELDS", "SERVING_FIELDS", "NEIGHBOR_FIELDS", "POSITION_FIELDS",
    "ROW_FIELDS", "SOURCES",
    "MAX_NEIGHBORS", "PCI_MAX", "CELL_ID_MAX", "TAC_MAX", "AGL_CEILING_M", "LAT_MAX_DEG", "LON_MAX_DEG",
]
