"""GeoJSON and CSV views of traces and voxel aggregates.

GeoJSON coordinates follow the standard's (lon, lat, alt) order with
altitude above mean sea level; altitude is duplicated into the properties
table for consumers that drop the third coordinate.  Every CSV skylog
writes, the analyze distribution tables included, goes through csv_text:
float cells use repr-style formatting, so re-parsing them reproduces the
stored values bit-for-bit, and None becomes an empty cell.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Optional, Sequence, Union

from .analysis import EmptyInput, UnknownMetric, VoxelGrid
from .records import MAX_NEIGHBORS, METRIC_FIELDS, NEIGHBOR_FIELDS, SERVING_FIELDS
from .records import MeasurementRecord

_NO_NEIGHBOR = [None] * len(NEIGHBOR_FIELDS)

RECORD_CSV_HEADER = (
    ["ts_unix_ms", "lat_deg", "lon_deg", "alt_m_amsl", "alt_m_agl"]
    + list(SERVING_FIELDS)
    + [f"nbr{i}_{f}" for i in range(1, MAX_NEIGHBORS + 1) for f in NEIGHBOR_FIELDS]
    + ["source"]
)


def _metric_names(metric: Optional[str]) -> list[str]:
    if metric is None:
        return list(METRIC_FIELDS)
    if metric not in METRIC_FIELDS:
        raise UnknownMetric(metric, METRIC_FIELDS)
    return [metric]


def export_geojson(source: Union[Sequence[MeasurementRecord], VoxelGrid],
                   metric: Optional[str] = None) -> dict:
    """Render records (one point each) or a voxel grid (one point per voxel
    centroid) as a GeoJSON FeatureCollection document."""
    if isinstance(source, VoxelGrid):
        return _grid_geojson(source, metric)
    return _records_geojson(list(source), metric)


def _records_geojson(records: list[MeasurementRecord],
                     metric: Optional[str]) -> dict:
    keys = [METRIC_FIELDS[m] for m in _metric_names(metric)]
    if not records:
        raise EmptyInput("no records to export")
    features = []
    for r in records:
        props: dict = {"ts_unix_ms": r.ts_unix_ms, "source": r.source,
                       "cell_id": r.serving.cell_id, "pci": r.serving.pci,
                       "alt_m_amsl": r.pos.alt_m_amsl}
        if r.pos.alt_m_agl is not None:
            props["alt_m_agl"] = r.pos.alt_m_agl
        for key in keys:
            props[key] = getattr(r.serving, key)
        features.append(_point(r.pos.lon_deg, r.pos.lat_deg, r.pos.alt_m_amsl, props))
    return {"type": "FeatureCollection", "features": features}


def _point(lon: float, lat: float, alt: float, props: dict) -> dict:
    """One GeoJSON Point feature, coordinates in the standard's order."""
    return {"type": "Feature",
            "geometry": {"type": "Point", "coordinates": [lon, lat, alt]},
            "properties": props}


def _voxel_rows(grid: VoxelGrid, names: list[str]) -> list[dict]:
    """One row per voxel in index order: indices, center, sample count, then
    mean/std/min/max of each named metric.  Both grid exports render these."""
    if not grid.cells:
        raise EmptyInput("voxel grid is empty")
    rows = []
    for index in sorted(grid.cells):
        lat, lon, alt = grid.center_of(index)
        stats = grid.cells[index]
        row = {"ix": index[0], "iy": index[1], "iz": index[2],
               "lat_deg": lat, "lon_deg": lon, "alt_m_amsl": alt,
               "count": stats[names[0]].count}
        for name in names:
            key, s = METRIC_FIELDS[name], stats[name]
            row.update((f"{key}_{stat}", getattr(s, stat))
                       for stat in ("mean", "std", "min", "max"))
        rows.append(row)
    return rows


def _grid_geojson(grid: VoxelGrid, metric: Optional[str]) -> dict:
    # A voxel's properties are its row without the center's lat/lon.
    features = [_point(row.pop("lon_deg"), row.pop("lat_deg"), row["alt_m_amsl"], row)
                for row in _voxel_rows(grid, _metric_names(metric))]
    return {"type": "FeatureCollection", "features": features}


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV writer: LF line ends, repr floats, empty cells for None."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def export_csv(source: Union[Sequence[MeasurementRecord], VoxelGrid]) -> str:
    """Flat CSV rendering; one row per record or per voxel."""
    if isinstance(source, VoxelGrid):
        return _grid_csv(source)
    return _records_csv(list(source))


def _records_csv(records: list[MeasurementRecord]) -> str:
    if not records:
        raise EmptyInput("no records to export")
    return csv_text(RECORD_CSV_HEADER, map(_record_row, records))


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


def _grid_csv(grid: VoxelGrid) -> str:
    rows = _voxel_rows(grid, _metric_names(None))
    return csv_text(rows[0].keys(), (row.values() for row in rows))
