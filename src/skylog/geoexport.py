"""GeoJSON and CSV views of traces and voxel aggregates, streamed to a file.

Records come in as records.ROW_FIELDS rows, the flat tuples iter_rows yields
from its checked ingest; a caller holding MeasurementRecords passes
map(records._row_of, records).  No record object is built on the way out.

GeoJSON coordinates follow the standard's (lon, lat, alt) order with
altitude above mean sea level; altitude is duplicated into the properties
table for consumers that drop the third coordinate.  Features are rendered
and written one at a time, byte-identical to ``json.dumps(doc, indent=2)``
of the whole document plus a newline.  Both record writers take their fast
path on records.plain_row, the one guard of every fixed-layout writer (the
trace line's too): export_geojson builds one %-template per property
layout, once per call, and renders a plain row straight into it.  Any
other row, a null alt_m_agl included, goes through the reference path,
_record_feature and _feature_text, which write each value as json.dumps does.

Every CSV skylog writes, the analyze tables included, goes through
write_csv: float cells use repr-style formatting, so re-parsing them
reproduces the stored values bit-for-bit, and None becomes an empty cell.
A record's CSV columns are its row's, neighbors flattened and padded to
MAX_NEIGHBORS.  A plain record row fills the %-template for its neighbor
count and reaches write_csv as that finished line; any other row goes cell
by cell through csv.writer, the reference path, as every voxel and analyze
table row does.  An empty source or unknown metric is refused
before the output path is touched.  Rows are rendered as they are read, into a
temporary sibling that replaces the path only once complete, so a failed
export (a bad trace line, a full disk) leaves the path as it was; _create
does the same for a set of files, none replaced unless all are written.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import json
import math
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .analysis import EmptyInput, UnknownMetric, VoxelGrid
from .records import (
    DB_FIELD_RANGES,
    MAX_NEIGHBORS,
    METRIC_FIELDS,
    NEIGHBOR_FIELDS,
    POSITION_FIELDS,
    ROW_FIELDS,
    plain_row,
)

Source = Union[Iterable[tuple], VoxelGrid]  # records.ROW_FIELDS rows, or a grid

_NO_NEIGHBOR = (None,) * len(NEIGHBOR_FIELDS)
_NEIGHBORS = ROW_FIELDS.index("neighbors")

# A row's columns in ROW_FIELDS order, its neighbors spread into MAX_NEIGHBORS slots.
RECORD_CSV_HEADER = (
    list(ROW_FIELDS[:_NEIGHBORS])
    + [f"nbr{i}_{f}" for i in range(1, MAX_NEIGHBORS + 1) for f in NEIGHBOR_FIELDS]
    + list(ROW_FIELDS[_NEIGHBORS + 1:])
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
    """source, with rows read one ahead to show there is at least one."""
    if isinstance(source, VoxelGrid):
        if not source.cells:
            raise EmptyInput("voxel grid is empty")
        return source
    records = iter(source)
    for first in records:
        return chain((first,), records)
    raise EmptyInput("no records to export")


def _file_targets(*paths) -> list[Path]:
    """paths as Paths, each one a file may be written to: a path that is a
    directory, which no file can replace, raises IsADirectoryError."""
    paths = [Path(p) for p in paths]
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return paths


@contextlib.contextmanager
def _create(*paths) -> Iterator[list[TextIO]]:
    """Open one temporary file per path; once every one is written and
    closed, make each path's directory and move its file over it.  On any
    error every temporary file is removed and no path changes; the paths
    pass _file_targets before any file is opened.  A file sits beside its
    path, or in the nearest existing ancestor, so a failed write makes no
    directory."""
    paths = _file_targets(*paths)
    tmps = [next(d for d in p.parents if d.is_dir()) / f".{p.name}.tmp" for p in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(tmp.open("w", encoding="utf-8")) for tmp in tmps]
        for path, tmp in zip(paths, tmps):
            path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def _json_value(value) -> str:
    return _JSON_VALUE.get(type(value), json.dumps)(value)


def _row_getter(*names: str) -> itemgetter:
    return itemgetter(*map(ROW_FIELDS.index, names))


def _feature_text(lon, lat, alt, props: dict) -> str:
    """One Point feature, props not empty, as json.dumps(..., indent=2) lays
    it out inside the top-level "features" list, without separators."""
    body = ",\n        ".join(f"{encode_basestring_ascii(k)}: {_json_value(v)}"
                              for k, v in props.items())
    return _FEATURE % (_json_value(lon), _json_value(lat), _json_value(alt), body)


def export_geojson(source: Source, path, metric: Optional[str] = None) -> int:
    """Write ROW_FIELDS rows (one point each) or a voxel grid (one point per voxel
    centroid) to path as a GeoJSON FeatureCollection; returns the count."""
    names = _metric_names(metric)
    source = _nonempty(source)
    if isinstance(source, VoxelGrid):
        header = _voxel_header(names)
        features = (_voxel_feature(dict(zip(header, row)))
                    for row in _voxel_rows(source, names))
    else:
        features = _record_features(source, [METRIC_FIELDS[m] for m in names])
    count = 0
    with _create(path) as [out]:
        out.write('{\n  "type": "FeatureCollection",\n  "features": [\n')
        for text in features:
            out.write(text if not count else ",\n" + text)
            count += 1
        out.write("\n  ]\n}\n")
    return count


def _record_features(rows: Iterable[tuple], keys: list[str]) -> Iterator[str]:
    """Each ROW_FIELDS row's feature text.  A plain row (records.plain_row)
    fills one template made for this property layout; any other, a null
    alt_m_agl included, goes through _record_feature."""
    props = ['"ts_unix_ms": %d', '"source": "%s"', '"cell_id": %d', '"pci": %d',
             '"alt_m_amsl": %r', '"alt_m_agl": %r', *(f'"{key}": %r' for key in keys)]
    template = _FEATURE % ("%r", "%r", "%r", ",\n        ".join(props))
    # The template's values in its order: the coordinates, then the properties.
    fill = _row_getter("lon_deg", "lat_deg", "alt_m_amsl", "ts_unix_ms", "source", "cell_id", "pci",
                       "alt_m_amsl", "alt_m_agl", *keys)
    for row in rows:
        yield template % fill(row) if plain_row(row) else _record_feature(row, keys)


def _record_feature(row: tuple, keys: list[str]) -> str:
    """One row's feature text, for any row: the reference path."""
    r = dict(zip(ROW_FIELDS, row))
    props = {name: r[name] for name in ("ts_unix_ms", "source", "cell_id", "pci", "alt_m_amsl")}
    if r["alt_m_agl"] is not None:
        props["alt_m_agl"] = r["alt_m_agl"]
    for key in keys:
        props[key] = r[key]
    return _feature_text(r["lon_deg"], r["lat_deg"], r["alt_m_amsl"], props)


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


def write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Union[str, Sequence]]) -> int:
    """The one CSV writer, to an open file: LF line ends, repr floats, empty
    cells for None; returns the row count.  A row given as a str is a line
    already rendered so, written as it is."""
    count = 0
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for count, row in enumerate(rows, start=1):
        if type(row) is str:
            out.write(row)
        else:
            writer.writerow([_cell(v) for v in row])
    return count


def export_csv(source: Source, path) -> int:
    """Flat CSV rendering, one line per ROW_FIELDS row or per voxel, written to path;
    returns the row count."""
    source = _nonempty(source)
    if isinstance(source, VoxelGrid):
        names = _metric_names(None)
        header, rows = _voxel_header(names), _voxel_rows(source, names)
    else:
        header, rows = RECORD_CSV_HEADER, map(_record_line, source)
    with _create(path) as [out]:
        return write_csv(out, header, rows)


def _record_row(row: tuple) -> list:
    """A ROW_FIELDS row in RECORD_CSV_HEADER's columns."""
    nbrs = row[_NEIGHBORS][:MAX_NEIGHBORS]
    return [*row[:_NEIGHBORS], *chain.from_iterable(nbrs),
            *_NO_NEIGHBOR * (MAX_NEIGHBORS - len(nbrs)), *row[_NEIGHBORS + 1:]]


def _csv_template(n: int) -> str:
    """write_csv's line for a plain record row with n neighbors: %d for an int
    cell, %r for a float one, empty cells for the absent neighbors, then the
    bare source."""
    cells = ["%r" if name in POSITION_FIELDS or name in DB_FIELD_RANGES else "%d"
             for name in (*ROW_FIELDS[:_NEIGHBORS], *NEIGHBOR_FIELDS * n)]
    cells += [""] * (len(NEIGHBOR_FIELDS) * (MAX_NEIGHBORS - n))
    return ",".join([*cells, "%s"]) + "\n"


_CSV_LINES = tuple(map(_csv_template, range(MAX_NEIGHBORS + 1)))


def _record_line(row: tuple) -> Union[str, list]:
    """A ROW_FIELDS row for write_csv: its finished line when it is plain
    (records.plain_row, which allows at most MAX_NEIGHBORS neighbors), else
    its cells (_record_row) for the reference path."""
    if plain_row(row):
        nbrs = row[_NEIGHBORS]
        return _CSV_LINES[len(nbrs)] % (*row[:_NEIGHBORS], *chain.from_iterable(nbrs), row[-1])
    return _record_row(row)
