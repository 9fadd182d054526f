"""Release gate: eight numbered checks, one per shipped guarantee.

``pytest -v tests/test_acceptance.py`` prints a single pass/fail line per
guarantee.  Oracles here are re-derived from scratch (hand-rolled ranks,
dict histograms, regrouped means) so library code never vouches for itself.
"""

import json
import math
import random
import socket
import time
from functools import partial
from importlib import resources

import jsonschema
import pytest

from conftest import make_record, make_serving
from coverage_fixtures import dl_coverage_trace, rsrq_poor_trace, rtt_coverage_trace
from modem_cases import RANGE_CASES, SYNTAX_CASES
from test_geoexport import FEATURE_COLLECTION_SCHEMA

from skylog import analysis
from skylog.cli import main
from skylog.collector import (
    CollectorConfig,
    SimClock,
    assemble_record,
    run_collection,
)
from skylog.geo import tangent_forward, tangent_inverse
from skylog.modem import (
    ModemReport,
    RangeError,
    ReportSyntaxError,
    parse_report,
    render_report,
)
from skylog.netprobe import MeasurementServer, ProbeConfig, rtt_probe, throughput_test
from skylog.records import (
    DB_FIELD_RANGES,
    GeoPosition,
    MeasurementRecord,
    NeighborCellSample,
    ServingCellSample,
    encode_record,
    read_trace,
)
from skylog.simenv import (
    SimModemBackend,
    flight_position,
    load_environment,
    load_flight_plan,
    plan_duration_s,
    _Radio,
    radio_sample,
)


def fixture(name: str) -> str:
    return str(resources.files("skylog").joinpath(f"data/{name}"))


ENV = fixture("threecell.env")
PLAN = fixture("climb.plan")
EPOCH_MS = 1_700_000_000_000


def collect_sim(out_dir, duration_s: float, run_id: str):
    """Simulated collection against the bundled environment and plan."""
    env = load_environment(ENV)
    plan = load_flight_plan(PLAN)
    cfg = CollectorConfig(output_dir=str(out_dir), sample_interval_ms=1000,
                          e2e_interval_s=0.0, duration_s=duration_s,
                          run_id=run_id)
    source = partial(flight_position, plan)
    summary = run_collection(cfg, SimClock(), SimModemBackend(env),
                             source)
    records = []
    for path in sorted(f for f in summary.files if f.endswith(".trace")):
        records.extend(read_trace(path))
    return summary, records


def test_criterion_1_sampling_cadence(tmp_path):
    """A 60 s simulated run yields 60 +/- 1 records spaced 1000 +/- 50 ms, fast."""
    started = time.perf_counter()
    summary, records = collect_sim(tmp_path, duration_s=60.0, run_id="cadence")
    elapsed = time.perf_counter() - started

    assert elapsed < 5.0
    assert summary.polls_failed == 0
    assert 59 <= len(records) <= 61
    for earlier, later in zip(records, records[1:]):
        assert 950 <= later.ts_unix_ms - earlier.ts_unix_ms <= 1050


def test_criterion_2_altitude_trend():
    """Over 20 seeds the climb survey sees RSRP improve and SINR degrade with height."""
    started = time.perf_counter()
    base_env = load_environment(ENV)
    plan = load_flight_plan(PLAN)
    horizon = math.ceil(plan_duration_s(plan))

    rho_rsrp = []
    rho_sinr = []
    for seed in range(1, 21):
        env = base_env._replace(seed=seed)
        records = []
        for t in range(horizon):
            pos = flight_position(plan, float(t))
            records.append(assemble_record(radio_sample(env, pos), pos,
                                           EPOCH_MS + 1000 * t))
        bins = analysis.altitude_bins(records, bin_m=10.0)
        for metric, acc in (("rsrp", rho_rsrp), ("sinr", rho_sinr)):
            acc.append(analysis.spearman_rho(list(bins),
                                             [s[metric].mean for s in bins.values()]))

    assert sum(rho_rsrp) / len(rho_rsrp) > 0.8
    assert sum(rho_sinr) / len(rho_sinr) < -0.5
    assert time.perf_counter() - started < 30.0


def test_criterion_3_rsrq_identity(tmp_path):
    """rsrq = 10*log10(n_prb) + rsrp - rssi pre-clamp, every sample of a 600 s trace."""
    env = load_environment(ENV)
    plan = load_flight_plan(PLAN)
    _, records = collect_sim(tmp_path, duration_s=600.0, run_id="identity")
    assert len(records) == 600

    prb_gain = 10.0 * math.log10(env.n_prb)
    lo, hi = DB_FIELD_RANGES["rsrp_dbm"]
    sample = _Radio(env).sample
    for second, rec in enumerate(records):
        # The serving cell first, then every neighbor, before the clamps.
        ranked, rssi, _ = sample(flight_position(plan, float(second)))
        for _station, power_dbm, rsrq_db in ranked:
            assert abs(rsrq_db - (prb_gain + power_dbm - rssi)) <= 0.05
        # pins the recomputed sample to the record the trace actually stored
        assert rec.serving.rsrp_dbm == round(min(max(ranked[0][1], lo), hi), 1)


def test_criterion_4_coverage_fractions():
    """Traces built to known quality mixes come back as those exact fractions."""
    poor = analysis.coverage_report(rsrq_poor_trace(), [])
    assert poor.frac_rsrq_poor == 0.15

    throughput = analysis.coverage_report([], dl_coverage_trace())
    assert throughput.frac_dl_ge == 0.90

    latency = analysis.coverage_report([], rtt_coverage_trace())
    assert latency.frac_rtt_le == 0.80


def test_criterion_5_statistics_match_brute_force():
    """ECDF, histogram, altitude bins, voxel grid and Spearman vs. brute force."""
    rng = random.Random(0xACE5)
    n = 1000

    # ECDF over a coarse value grid so ties are everywhere
    values = [round(-120.0 + 0.5 * rng.randrange(160), 1) for _ in range(n)]
    expected = [(x, sum(1 for v in values if v <= x) / n)
                for x in sorted(set(values))]
    assert list(analysis.ecdf(values)) == expected

    # histogram: bins anchored at multiples of the width, gaps kept
    width = 2.5
    samples = [rng.uniform(-60.0, -20.0) for _ in range(n - 1)] + [-90.0]
    counts = {}
    for v in samples:
        idx = math.floor(v / width)
        counts[idx] = counts.get(idx, 0) + 1
    expected_hist = [(i * width, counts.get(i, 0) / (n * width))
                     for i in range(min(counts), max(counts) + 1)]
    assert analysis.histogram_pdf(samples, width) == expected_hist

    # altitude bins against a regroup by hand
    records = []
    for i in range(n):
        agl = rng.uniform(0.0, 200.0)
        records.append(make_record(
            ts_unix_ms=EPOCH_MS + i,
            pos=GeoPosition(lat_deg=40.0, lon_deg=-100.0,
                            alt_m_amsl=600.0 + agl, alt_m_agl=agl),
            serving=make_serving(rsrp_dbm=rng.uniform(-140.0, -44.0)),
            neighbors=()))
    got = {lower: s["rsrp"]
           for lower, s in analysis.altitude_bins(records, bin_m=25.0).items()}
    groups = {}
    for rec in records:
        groups.setdefault(math.floor(rec.pos.alt_m_agl / 25.0),
                          []).append(rec.serving.rsrp_dbm)
    expected_bins = {}
    for idx in sorted(groups):
        vals = groups[idx]
        mean = math.fsum(vals) / len(vals)
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        expected_bins[idx * 25.0] = analysis.BinStats(len(vals), mean, std,
                                                      min(vals), max(vals))
    assert list(got.items()) == list(expected_bins.items())

    # voxel grid: recompute indices and per-cell stats from scratch
    vox_records = []
    for i in range(n):
        lat, lon = tangent_inverse(40.0, -100.0, rng.uniform(-400.0, 400.0),
                                   rng.uniform(-400.0, 400.0))
        vox_records.append(make_record(
            ts_unix_ms=EPOCH_MS + i,
            pos=GeoPosition(lat_deg=lat, lon_deg=lon,
                            alt_m_amsl=rng.uniform(550.0, 750.0), alt_m_agl=None),
            serving=make_serving(rsrp_dbm=rng.uniform(-140.0, -44.0),
                                 sinr_db=rng.uniform(-20.0, 40.0)),
            neighbors=()))
    grid = analysis.grid_aggregate(vox_records, ground_m=50.0, alt_m=20.0)
    anchor = vox_records[0].pos
    regrouped = {}
    for rec in vox_records:
        x, y = tangent_forward(anchor.lat_deg, anchor.lon_deg,
                               rec.pos.lat_deg, rec.pos.lon_deg)
        key = (math.floor(x / 50.0), math.floor(y / 50.0),
               math.floor(rec.pos.alt_m_amsl / 20.0))
        regrouped.setdefault(key, []).append(rec.serving.rsrp_dbm)
    assert set(grid.cells) == set(regrouped)
    assert grid.total_count() == n
    for key, vals in regrouped.items():
        stats = grid.cells[key]["rsrp"]
        mean = math.fsum(vals) / len(vals)
        assert stats.count == len(vals)
        assert stats.mean == mean
        assert (stats.min, stats.max) == (min(vals), max(vals))
        if len(vals) >= 2:
            assert stats.std == math.sqrt(
                math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        else:
            assert stats.std is None

    # Spearman through average ranks, straight from the definition
    xs = [float(rng.randrange(0, 25)) for _ in range(n)]
    ys = [x + rng.randrange(-6, 7) for x in xs]

    def midranks(vals):
        order = sorted(range(n), key=vals.__getitem__)
        ranks = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                ranks[order[k]] = (i + j) / 2 + 1.0
            i = j + 1
        return ranks

    rx, ry = midranks(xs), midranks(ys)
    mean_x = math.fsum(rx) / n
    mean_y = math.fsum(ry) / n
    cov = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    sxx = math.fsum((a - mean_x) ** 2 for a in rx)
    syy = math.fsum((b - mean_y) ** 2 for b in ry)
    assert abs(analysis.spearman_rho(xs, ys) - cov / math.sqrt(sxx * syy)) <= 1e-12


def test_criterion_6_round_trips_and_rejections(tmp_path):
    """10k reports and 10k records survive round trips; malformed corpus is positioned."""
    rng = random.Random(0xBEEF)

    def tenth(lo: float, hi: float) -> float:
        # db fields are stored at one-decimal precision; stay on that grid
        return rng.randint(round(lo * 10), round(hi * 10)) / 10.0

    def build_serving() -> ServingCellSample:
        rsrp = tenth(-140.0, -44.0)
        return ServingCellSample(
            earfcn=rng.randint(0, 65535), pci=rng.randint(0, 503),
            cell_id=rng.randint(0, 2 ** 28 - 1), tac=rng.randint(0, 65535),
            rsrp_dbm=rsrp, rsrq_db=tenth(-24.0, -3.0),
            rssi_dbm=tenth(max(rsrp, -120.0), -10.0),
            sinr_db=tenth(-20.0, 40.0))

    def build_neighbors(serving: ServingCellSample) -> tuple:
        out = []
        for _ in range(rng.randint(0, 8)):
            while True:
                pair = (rng.randint(0, 65535), rng.randint(0, 503))
                if pair != (serving.earfcn, serving.pci):
                    break
            out.append(NeighborCellSample(
                earfcn=pair[0], pci=pair[1], rsrp_dbm=tenth(-140.0, -44.0),
                rsrq_db=tenth(-24.0, -3.0), rssi_dbm=tenth(-120.0, -10.0)))
        return tuple(out)

    for _ in range(10_000):
        serving = build_serving()
        report = ModemReport(serving=serving, neighbors=build_neighbors(serving))
        assert parse_report(render_report(report)) == report

    records = []
    for i in range(10_000):
        serving = build_serving()
        agl = rng.uniform(0.0, 200.0) if rng.random() < 0.75 else None
        records.append(MeasurementRecord(
            ts_unix_ms=EPOCH_MS + i,
            pos=GeoPosition(lat_deg=rng.uniform(-90.0, 90.0),
                            lon_deg=rng.uniform(-180.0, 180.0),
                            alt_m_amsl=rng.uniform(-400.0, 9000.0),
                            alt_m_agl=agl),
            serving=serving, neighbors=build_neighbors(serving),
            source=rng.choice(("sim", "replay", "hw"))))
    trace = tmp_path / "roundtrip.trace"
    trace.write_text("".join(encode_record(r) + "\n" for r in records),
                     encoding="utf-8")
    assert read_trace(trace) == records

    assert len(SYNTAX_CASES) + len(RANGE_CASES) >= 20
    for name, raw, line_no, column, expected in SYNTAX_CASES:
        with pytest.raises(ReportSyntaxError) as caught:
            parse_report(raw)
        assert (caught.value.line, caught.value.column) == (line_no, column), name
        assert expected in caught.value.expected, name
    for name, raw, field, value in RANGE_CASES:
        with pytest.raises(RangeError) as caught:
            parse_report(raw)
        assert caught.value.field == field, name
        assert caught.value.value == value, name


def test_criterion_7_loopback_probes():
    """Loopback echo is lossless under 5 ms; 10 Mbps throttles land in [8, 10.5]."""
    started = time.perf_counter()
    server = MeasurementServer("127.0.0.1", 0, 0, dl_throttle_mbps=10.0)
    server.start()
    try:
        cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=server.rtt_port,
                          tp_port=server.tp_port, rtt_count=20,
                          rtt_interval_ms=20, rtt_timeout_ms=500,
                          tp_duration_s=2.0)
        rtt = rtt_probe(cfg)
        assert (rtt.sent, rtt.received) == (20, 20)
        assert rtt.loss_fraction == 0.0
        assert rtt.p50_ms is not None and rtt.p50_ms < 5.0

        assert 8.0 <= throughput_test(cfg, "DL") <= 10.5
        assert 8.0 <= throughput_test(cfg._replace(ul_throttle_mbps=10.0),
                                      "UL") <= 10.5

        # raw upload with a fixed block count: the server's total must match
        block, blocks = 4096, 100
        with socket.create_connection(("127.0.0.1", server.tp_port),
                                      timeout=5.0) as sock:
            header = json.dumps({"dir": "UL", "duration_s": 1.0,
                                 "block_bytes": block}) + "\n"
            sock.sendall(header.encode("utf-8"))
            for _ in range(blocks):
                sock.sendall(b"\x5a" * block)
            sock.shutdown(socket.SHUT_WR)
            result = json.loads(sock.makefile("r", encoding="utf-8").readline())
        assert result["bytes"] == block * blocks
    finally:
        server.stop()
    assert time.perf_counter() - started < 30.0


def test_criterion_8_pipeline_integrity(tmp_path, capsys):
    """simulate -> replay -> analyze -> export keeps counts; GeoJSON is schema-valid."""
    def run(*argv):
        rc = main(list(argv))
        out = capsys.readouterr().out
        return rc, json.loads(out.strip().splitlines()[-1])

    sim_dir = tmp_path / "sim"
    rc, sim = run("simulate", "--env", ENV, "--plan", PLAN, "--duration", "150",
                  "--out", str(sim_dir), "--run-id", "gate")
    assert rc == 0
    n = sim["records_written"]
    assert 149 <= n <= 151
    trace = next(f for f in sim["files"] if f.endswith(".trace"))

    replay_dir = tmp_path / "replay"
    rc, replayed = run("collect", "--config", ENV, "--backend", "replay",
                       "--replay", trace, "--out", str(replay_dir),
                       "--run-id", "again")
    assert rc == 0
    assert replayed["records_written"] == n
    replay_trace = next(f for f in replayed["files"] if f.endswith(".trace"))
    assert len(read_trace(replay_trace)) == n

    report = tmp_path / "coverage.json"
    rc, _ = run("analyze", "--ran", replay_trace, "--report", str(report))
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["coverage"]["n_ran_samples"] == n

    points = tmp_path / "points.geojson"
    rc, exported = run("export", "--ran", replay_trace, "--format", "geojson",
                       "--out", str(points))
    assert rc == 0
    assert exported["count"] == n
    collection = json.loads(points.read_text())
    jsonschema.validate(collection, FEATURE_COLLECTION_SCHEMA)
    assert len(collection["features"]) == n

    voxels = tmp_path / "voxels.geojson"
    rc, _ = run("export", "--ran", replay_trace, "--format", "geojson",
                "--grid", "25,10", "--metric", "rsrp", "--out", str(voxels))
    assert rc == 0
    grid_doc = json.loads(voxels.read_text())
    jsonschema.validate(grid_doc, FEATURE_COLLECTION_SCHEMA)
    assert 0 < len(grid_doc["features"]) <= n
