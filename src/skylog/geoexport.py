"""GeoJSON and CSV views of traces and voxel aggregates, streamed to a file.

GeoJSON coordinates follow the standard's (lon, lat, alt) order with
altitude above mean sea level; altitude is duplicated into the properties
table for consumers that drop the third coordinate.  Features are rendered
and written one at a time, byte-identical to ``json.dumps(doc, indent=2)``
of the whole document plus a newline.  Every CSV skylog writes, the analyze
tables included, goes through write_csv: float cells use repr-style
formatting, so re-parsing them reproduces the stored values bit-for-bit, and
None becomes an empty cell.  An empty source or unknown metric is refused
before the output path is touched.  Records are rendered as they are read,
into a temporary sibling that replaces the path only once complete, so a
failed export (a bad trace line, a full disk) leaves the path as it was.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .analysis import EmptyInput, UnknownMetric, VoxelGrid
from .records import MAX_NEIGHBORS, METRIC_FIELDS, NEIGHBOR_FIELDS, SERVING_FIELDS
from .records import MeasurementRecord

Source = Union[Iterable[MeasurementRecord], VoxelGrid]

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


def _nonempty(source: Source) -> Source:
    """source, with records read one ahead to show there is at least one."""
    if isinstance(source, VoxelGrid):
        if not source.cells:
            raise EmptyInput("voxel grid is empty")
        return source
    records = iter(source)
    for first in records:
        return chain((first,), records)
    raise EmptyInput("no records to export")


@contextlib.contextmanager
def _create(path) -> Iterator[TextIO]:
    """Write path's content to a temporary file, then make path's directory
    and move the file over path; on any error the file is removed.  The file
    sits beside path, or in its nearest existing ancestor, so a failed
    export makes no directory."""
    path = Path(path)
    tmp = next(d for d in path.parents if d.is_dir()) / f".{path.name}.tmp"
    try:
        with tmp.open("w", encoding="utf-8") as out:
            yield out
        path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    source = _nonempty(source)
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    """The one CSV writer: LF line ends, repr floats, empty cells for None;
    returns the row count."""
    count = 0
    with _create(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, start=1):
            writer.writerow([_cell(v) for v in row])
    return count


def export_csv(source: Source, path) -> int:
    """Flat CSV rendering, one row per record or per voxel, written to path;
    returns the row count."""
    source = _nonempty(source)
    if isinstance(source, VoxelGrid):
        names = _metric_names(None)
        return write_csv(path, _voxel_header(names), _voxel_rows(source, names))
    return write_csv(path, RECORD_CSV_HEADER, map(_record_row, source))


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
