import csv
import io
import json
import math
import random
import tracemalloc

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylog.analysis import EmptyInput, UnknownMetric, VoxelGrid, grid_aggregate
from skylog.geo import EARTH_RADIUS_M, tangent_forward, tangent_inverse
from skylog.geoexport import (
    RECORD_CSV_HEADER,
    _feature_text,
    _record_features,
    _record_row,
    export_csv,
    export_geojson,
    write_csv,
)
from skylog.records import (
    MAX_NEIGHBORS,
    METRIC_FIELDS,
    NEIGHBOR_FIELDS,
    SERVING_FIELDS,
    GeoPosition,
    MeasurementRecord,
    NeighborCellSample,
    _row_of,
)

from conftest import make_neighbor, make_record, make_serving
from record_strategies import any_records

# Structural subset of RFC 7946: enough to catch wrong nesting, wrong
# coordinate arity, or non-numeric coordinates.
FEATURE_COLLECTION_SCHEMA = {
    "type": "object",
    "required": ["type", "features"],
    "properties": {
        "type": {"const": "FeatureCollection"},
        "features": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type", "geometry", "properties"],
                "properties": {
                    "type": {"const": "Feature"},
                    "geometry": {
                        "type": "object",
                        "required": ["type", "coordinates"],
                        "properties": {
                            "type": {"const": "Point"},
                            "coordinates": {"type": "array", "minItems": 2,
                                            "maxItems": 3,
                                            "items": {"type": "number"}},
                        },
                    },
                    "properties": {"type": "object"},
                },
            },
        },
    },
}


def pos_at(x_east, y_north, alt_amsl=650.0, agl=50.0):
    lat, lon = tangent_inverse(40.0, -100.0, x_east, y_north)
    return GeoPosition(lat_deg=lat, lon_deg=lon, alt_m_amsl=alt_amsl, alt_m_agl=agl)


def spread_records(n, seed=31):
    rng = random.Random(seed)
    return [make_record(ts_unix_ms=1_700_000_000_000 + i * 1000,
                        pos=pos_at(rng.uniform(-150, 150), rng.uniform(-150, 150),
                                   alt_amsl=rng.uniform(610, 690)),
                        serving=make_serving(rsrp_dbm=round(rng.uniform(-120, -60), 1)))
            for i in range(n)]


def geojson_doc(tmp_path, source, **kwargs):
    """Export to a file and parse it back; the count returned must match."""
    out = tmp_path / "o.geojson"
    count = export_geojson(source, out, **kwargs)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert count == len(doc["features"])
    return doc


def csv_file_text(tmp_path, source):
    out = tmp_path / "o.csv"
    count = export_csv(source, out)
    text = out.read_text(encoding="utf-8")
    assert count == len(text.splitlines()) - 1
    return text


# --- GeoJSON: records ---

def test_single_record_feature(tmp_path):
    doc = geojson_doc(tmp_path, map(_row_of, [make_record()]))
    assert doc["type"] == "FeatureCollection"
    (feat,) = doc["features"]
    assert feat["geometry"]["coordinates"] == [-100.0, 40.0, 650.0]  # lon first
    assert feat["properties"]["rsrp_dbm"] == -95.0
    assert feat["properties"]["alt_m_amsl"] == 650.0


def test_record_features_count_preserved(tmp_path):
    recs = spread_records(37)
    doc = geojson_doc(tmp_path, map(_row_of, recs))
    assert len(doc["features"]) == 37


def test_metric_selection_limits_properties(tmp_path):
    doc = geojson_doc(tmp_path, map(_row_of, [make_record()]), metric="sinr")
    props = doc["features"][0]["properties"]
    assert props["sinr_db"] == 12.5
    assert "rsrp_dbm" not in props and "rsrq_db" not in props


def test_geojson_input_checks(tmp_path):
    with pytest.raises(EmptyInput):
        export_geojson([], tmp_path / "o.geojson")
    with pytest.raises(UnknownMetric):
        export_geojson(map(_row_of, [make_record()]), tmp_path / "o.geojson", metric="cqi")


def test_record_geojson_passes_schema(tmp_path):
    doc = geojson_doc(tmp_path, map(_row_of, spread_records(25)))
    jsonschema.validate(json.loads(json.dumps(doc)), FEATURE_COLLECTION_SCHEMA)


# --- GeoJSON: voxel grid ---

def test_grid_features_one_per_voxel(tmp_path):
    recs = spread_records(200)
    grid = grid_aggregate(recs, ground_m=50.0, alt_m=20.0)
    doc = geojson_doc(tmp_path, grid, metric="rsrp")
    assert len(doc["features"]) == len(grid.cells)
    total = sum(f["properties"]["count"] for f in doc["features"])
    assert total == 200
    jsonschema.validate(json.loads(json.dumps(doc)), FEATURE_COLLECTION_SCHEMA)


def test_grid_centroid_matches_hand_inversion(tmp_path):
    recs = [make_record(pos=pos_at(0.0, 0.0, alt_amsl=650.0)),
            make_record(pos=pos_at(60.0, 80.0, alt_amsl=672.0))]
    grid = grid_aggregate(recs, ground_m=25.0, alt_m=10.0)
    doc = geojson_doc(tmp_path, grid, metric="rssi")
    anchor = recs[0].pos
    feats = {(f["properties"]["ix"], f["properties"]["iy"], f["properties"]["iz"]): f
             for f in doc["features"]}
    feat = feats[(2, 3, 67)]
    lon, lat, alt = feat["geometry"]["coordinates"]
    # independent equirectangular inversion of the voxel center
    cx, cy = 2.5 * 25.0, 3.5 * 25.0
    exp_lat = anchor.lat_deg + math.degrees(cy / EARTH_RADIUS_M)
    exp_lon = anchor.lon_deg + math.degrees(
        cx / (EARTH_RADIUS_M * math.cos(math.radians(anchor.lat_deg))))
    assert lat == pytest.approx(exp_lat, abs=1e-9)
    assert lon == pytest.approx(exp_lon, abs=1e-9)
    assert alt == 675.0
    assert feat["properties"]["rssi_dbm_std"] is None  # single sample in voxel


def test_grid_geojson_all_metrics_by_default(tmp_path):
    grid = grid_aggregate([make_record()], ground_m=25.0, alt_m=10.0)
    props = geojson_doc(tmp_path, grid)["features"][0]["properties"]
    for key in ("rsrp_dbm", "rsrq_db", "rssi_dbm", "sinr_db"):
        assert f"{key}_mean" in props and f"{key}_max" in props


# --- CSV ---

def test_csv_header_schema_order(tmp_path):
    text = csv_file_text(tmp_path, map(_row_of, [make_record()]))
    header = text.splitlines()[0].split(",")
    assert header == RECORD_CSV_HEADER
    assert header[:5] == ["ts_unix_ms", "lat_deg", "lon_deg",
                          "alt_m_amsl", "alt_m_agl"]
    assert header[5:13] == ["earfcn", "pci", "cell_id", "tac",
                            "rsrp_dbm", "rsrq_db", "rssi_dbm", "sinr_db"]
    assert header[13] == "nbr1_earfcn" and header[-2] == "nbr8_rssi_dbm"
    assert header[-1] == "source"


def test_csv_row_count(tmp_path):
    text = csv_file_text(tmp_path, map(_row_of, spread_records(12)))
    assert len(text.splitlines()) == 13


def test_csv_round_trip_reproduces_records(tmp_path):
    full = make_record(neighbors=tuple(
        make_neighbor(pci=300 + i, rsrp_dbm=-100.0 - i) for i in range(8)))
    bare = make_record(ts_unix_ms=1_700_000_001_000, neighbors=(),
                       pos=GeoPosition(40.000123, -99.999877, 651.3, None))
    one = make_record(ts_unix_ms=1_700_000_002_000)
    originals = [full, bare, one]
    rows = list(csv.DictReader(io.StringIO(csv_file_text(tmp_path, map(_row_of, originals)))))
    assert len(rows) == 3
    rebuilt = []
    for row in rows:
        neighbors = []
        for i in range(1, 9):
            if row[f"nbr{i}_pci"] == "":
                continue
            neighbors.append(NeighborCellSample(
                earfcn=int(row[f"nbr{i}_earfcn"]), pci=int(row[f"nbr{i}_pci"]),
                rsrp_dbm=float(row[f"nbr{i}_rsrp_dbm"]),
                rsrq_db=float(row[f"nbr{i}_rsrq_db"]),
                rssi_dbm=float(row[f"nbr{i}_rssi_dbm"])))
        rebuilt.append(MeasurementRecord(
            ts_unix_ms=int(row["ts_unix_ms"]),
            pos=GeoPosition(
                lat_deg=float(row["lat_deg"]), lon_deg=float(row["lon_deg"]),
                alt_m_amsl=float(row["alt_m_amsl"]),
                alt_m_agl=None if row["alt_m_agl"] == "" else float(row["alt_m_agl"])),
            serving=make_serving(),
            neighbors=tuple(neighbors),
            source=row["source"]))
    assert rebuilt == originals


def test_csv_grid_rows_and_counts(tmp_path):
    recs = spread_records(80)
    grid = grid_aggregate(recs, ground_m=50.0, alt_m=20.0)
    lines = csv_file_text(tmp_path, grid).splitlines()
    assert len(lines) == len(grid.cells) + 1
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert sum(int(r["count"]) for r in rows) == 80
    # float cells parse back to the exact stored means
    for r in rows:
        key = (int(r["ix"]), int(r["iy"]), int(r["iz"]))
        assert float(r["rsrp_dbm_mean"]) == grid.cells[key]["rsrp"].mean


def test_csv_empty_inputs_rejected(tmp_path):
    with pytest.raises(EmptyInput):
        export_csv([], tmp_path / "o.csv")
    with pytest.raises(EmptyInput):
        export_csv(VoxelGrid(10.0, 10.0, 40.0, -100.0, {}), tmp_path / "o.csv")


# --- streaming ---

# The two property layouts the exports write, in their order.
RECORD_KEYS = ["ts_unix_ms", "source", "cell_id", "pci", "alt_m_amsl", "alt_m_agl",
               *METRIC_FIELDS.values()]
VOXEL_KEYS = ["ix", "iy", "iz", "alt_m_amsl", "count",
              *(f"{key}_{stat}" for key in METRIC_FIELDS.values()
                for stat in ("mean", "std", "min", "max"))]

# Every scalar kind, including the ones json.dumps writes through its
# fallbacks (NaN, +-Infinity, bools) and strings that need escaping.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 1e-07, 1e16, 5e-324, 2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "\x00\x07\x1f\n\t\r", "é—𝄞\u2028"]),
)


@settings(max_examples=300, deadline=None)
@given(lon=json_scalars, lat=json_scalars, alt=json_scalars,
       props=st.sampled_from([RECORD_KEYS, VOXEL_KEYS]).flatmap(
           lambda keys: st.fixed_dictionaries({k: json_scalars for k in keys})))
def test_feature_text_is_json_dumps_indent_2(lon, lat, alt, props):
    feature = {"type": "Feature",
               "geometry": {"type": "Point", "coordinates": [lon, lat, alt]},
               "properties": props}
    text = json.dumps({"features": [feature]}, indent=2)
    head, tail = '{\n  "features": [\n', "\n  ]\n}"
    assert text.startswith(head) and text.endswith(tail)
    assert _feature_text(lon, lat, alt, props) == text[len(head):-len(tail)]


@settings(max_examples=400, deadline=None)
@given(rec=any_records(), metric=st.sampled_from([None, *METRIC_FIELDS]))
def test_record_feature_fast_path_is_feature_text(rec, metric):
    keys = list(METRIC_FIELDS.values()) if metric is None else [METRIC_FIELDS[metric]]
    props = {"ts_unix_ms": rec.ts_unix_ms, "source": rec.source,
             "cell_id": rec.serving.cell_id, "pci": rec.serving.pci,
             "alt_m_amsl": rec.pos.alt_m_amsl}
    if rec.pos.alt_m_agl is not None:
        props["alt_m_agl"] = rec.pos.alt_m_agl
    props.update((key, getattr(rec.serving, key)) for key in keys)
    want = _feature_text(rec.pos.lon_deg, rec.pos.lat_deg, rec.pos.alt_m_amsl, props)
    assert list(_record_features([_row_of(rec)], keys)) == [want]


def csv_text(rows) -> str:
    out = io.StringIO()
    write_csv(out, RECORD_CSV_HEADER, rows)
    return out.getvalue()


@settings(max_examples=400, deadline=None)
@given(rec=any_records())
@example(rec=make_record(neighbors=tuple(make_neighbor(pci=300 + i) for i in range(9))))
def test_record_row_is_the_record_columns(rec):
    """A row's CSV line is the one the record's columns make: position,
    serving cell, each neighbor's fields padded with empty cells up to
    MAX_NEIGHBORS, then the source."""
    want = [rec.ts_unix_ms, rec.pos.lat_deg, rec.pos.lon_deg, rec.pos.alt_m_amsl,
            rec.pos.alt_m_agl, *(getattr(rec.serving, f) for f in SERVING_FIELDS)]
    for i in range(MAX_NEIGHBORS):
        if i < len(rec.neighbors):
            want += [getattr(rec.neighbors[i], f) for f in NEIGHBOR_FIELDS]
        else:
            want += [None] * len(NEIGHBOR_FIELDS)
    want.append(rec.source)
    got = _record_row(_row_of(rec))
    assert [type(v) for v in got] == [type(v) for v in want]
    assert csv_text([got]) == csv_text([want])


def test_refused_export_touches_nothing(tmp_path):
    out = tmp_path / "new" / "o"
    with pytest.raises(EmptyInput):
        export_geojson([], out)
    with pytest.raises(UnknownMetric):
        export_geojson(map(_row_of, [make_record()]), out, metric="cqi")
    with pytest.raises(EmptyInput):
        export_csv(VoxelGrid(10.0, 10.0, 40.0, -100.0, {}), out)
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("export", [export_geojson, export_csv])
def test_export_memory_does_not_grow_with_records(tmp_path, export):
    # 20k records make a ~10 MB GeoJSON file; building the document or the
    # whole text first costs tens of MB.
    records = [make_record(ts_unix_ms=1_700_000_000_000 + i * 1000) for i in range(20_000)]
    tracemalloc.start()
    try:
        assert export(map(_row_of, records), tmp_path / "o") == 20_000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- projection ---

def test_projection_round_trip_within_5km():
    rng = random.Random(41)
    for _ in range(500):
        alat = rng.uniform(-75, 75)
        alon = rng.uniform(-179, 179)
        x = rng.uniform(-5000, 5000)
        y = rng.uniform(-5000, 5000)
        lat, lon = tangent_inverse(alat, alon, x, y)
        x2, y2 = tangent_forward(alat, alon, lat, lon)
        lat2, lon2 = tangent_inverse(alat, alon, x2, y2)
        assert abs(lat2 - lat) < 1e-7 and abs(lon2 - lon) < 1e-7