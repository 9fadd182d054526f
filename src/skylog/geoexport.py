"""GeoJSON and CSV views of traces and voxel aggregates, streamed to a file.

GeoJSON coordinates follow the standard's (lon, lat, alt) order with
altitude above mean sea level; altitude is duplicated into the properties
table for consumers that drop the third coordinate.  Features are rendered
and written one at a time, byte-identical to ``json.dumps(doc, indent=2)``
of the whole document plus a newline.  Every CSV skylog writes, the analyze
tables included, goes through write_csv: float cells use repr-style
formatting, so re-parsing them reproduces the stored values bit-for-bit, and
None becomes an empty cell.  Input errors are raised before the output path
is touched; an I/O error mid-write can leave a partial file.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .analysis import EmptyInput, UnknownMetric, VoxelGrid
from .records import MAX_NEIGHBORS, METRIC_FIELDS, NEIGHBOR_FIELDS, SERVING_FIELDS
from .records import MeasurementRecord

Source = Union[Sequence[MeasurementRecord], VoxelGrid]

_NO_NEIGHBOR = [None] * len(NEIGHBOR_FIELDS)

RECORD_CSV_HEADER = (
    ["ts_unix_ms", "lat_deg", "lon_deg", "alt_m_amsl", "alt_m_agl"]
    + list(SERVING_FIELDS)
    + [f"nbr{i}_{f}" for i in range(1, MAX_NEIGHBORS + 1) for f in NEIGHBOR_FIELDS]
    + ["source"]
)

# How json.dumps writes each exact type.  Non-finite floats and every other
# type (bools, containers, subclasses) go through json.dumps itself.
_JSON_VALUE = {
    float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v),
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda v: "null",
}

_FEATURE = ('    {\n      "type": "Feature",\n      "geometry": {\n'
            '        "type": "Point",\n        "coordinates": [\n'
            '          %s,\n          %s,\n          %s\n        ]\n      },\n'
            '      "properties": {\n        %s\n      }\n    }')


def _metric_names(metric: Optional[str]) -> list[str]:
    if metric is None:
        return list(METRIC_FIELDS)
    if metric not in METRIC_FIELDS:
        raise UnknownMetric(metric, METRIC_FIELDS)
    return [metric]


def _check_nonempty(source: Source) -> None:
    if isinstance(source, VoxelGrid):
        if not source.cells:
            raise EmptyInput("voxel grid is empty")
    elif not source:
        raise EmptyInput("no records to export")


def _create(path) -> TextIO:
    """Open path for writing as Path.write_text does, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("w", encoding="utf-8")


def _json_value(value) -> str:
    return _JSON_VALUE.get(type(value), json.dumps)(value)


def _feature_text(lon, lat, alt, props: dict) -> str:
    """One Point feature, props not empty, as json.dumps(..., indent=2) lays
    it out inside the top-level "features" list, without separators."""
    body = ",\n        ".join(f"{encode_basestring_ascii(k)}: {_json_value(v)}"
                              for k, v in props.items())
    return _FEATURE % (_json_value(lon), _json_value(lat), _json_value(alt), body)


def export_geojson(source: Source, path, metric: Optional[str] = None) -> int:
    """Write records (one point each) or a voxel grid (one point per voxel
    centroid) to path as a GeoJSON FeatureCollection; returns the count."""
    names = _metric_names(metric)
    _check_nonempty(source)
    if isinstance(source, VoxelGrid):
        header = _voxel_header(names)
        features = (_voxel_feature(dict(zip(header, row)))
                    for row in _voxel_rows(source, names))
    else:
        keys = [METRIC_FIELDS[m] for m in names]
        features = (_record_feature(r, keys) for r in source)
    count = 0
    with _create(path) as out:
        out.write('{\n  "type": "FeatureCollection",\n  "features": [\n')
        for text in features:
            out.write(text if not count else ",\n" + text)
            count += 1
        out.write("\n  ]\n}\n")
    return count


def _record_feature(r: MeasurementRecord, keys: list[str]) -> str:
    props: dict = {"ts_unix_ms": r.ts_unix_ms, "source": r.source,
                   "cell_id": r.serving.cell_id, "pci": r.serving.pci,
                   "alt_m_amsl": r.pos.alt_m_amsl}
    if r.pos.alt_m_agl is not None:
        props["alt_m_agl"] = r.pos.alt_m_agl
    for key in keys:
        props[key] = getattr(r.serving, key)
    return _feature_text(r.pos.lon_deg, r.pos.lat_deg, r.pos.alt_m_amsl, props)


def _voxel_feature(row: dict) -> str:
    # A voxel's properties are its row without the center's lat/lon.
    return _feature_text(row.pop("lon_deg"), row.pop("lat_deg"), row["alt_m_amsl"], row)


def _voxel_header(names: list[str]) -> list[str]:
    return (["ix", "iy", "iz", "lat_deg", "lon_deg", "alt_m_amsl", "count"]
            + [f"{METRIC_FIELDS[name]}_{stat}" for name in names
               for stat in ("mean", "std", "min", "max")])


def _voxel_rows(grid: VoxelGrid, names: list[str]) -> Iterator[list]:
    """One row per voxel in index order, in _voxel_header's columns: indices,
    center, sample count, then mean/std/min/max of each named metric.  Both
    grid exports render these."""
    for index in sorted(grid.cells):
        stats = grid.cells[index]
        row = [*index, *grid.center_of(index), stats[names[0]].count]
        for name in names:
            s = stats[name]
            row += (s.mean, s.std, s.min, s.max)
        yield row


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: LF line ends, repr floats, empty cells for None."""
    with _create(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def export_csv(source: Source, path) -> int:
    """Flat CSV rendering, one row per record or per voxel, written to path;
    returns the row count."""
    _check_nonempty(source)
    if isinstance(source, VoxelGrid):
        names = _metric_names(None)
        write_csv(path, _voxel_header(names), _voxel_rows(source, names))
        return len(source.cells)
    write_csv(path, RECORD_CSV_HEADER, map(_record_row, source))
    return len(source)


def _record_row(r: MeasurementRecord) -> list:
    row = [r.ts_unix_ms, r.pos.lat_deg, r.pos.lon_deg, r.pos.alt_m_amsl, r.pos.alt_m_agl]
    row += [getattr(r.serving, f) for f in SERVING_FIELDS]
    for i in range(MAX_NEIGHBORS):
        if i < len(r.neighbors):
            row += [getattr(r.neighbors[i], f) for f in NEIGHBOR_FIELDS]
        else:
            row += _NO_NEIGHBOR
    row.append(r.source)
    return row
