"""Sampling cadence, loss accounting, rotation, durability, replay equality."""

import contextlib
import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc
from collections import Counter
from functools import partial

import pytest

from skylog import collector, records
from skylog.collector import (
    CollectorConfig,
    SIM_EPOCH_MS,
    SimClock,
    assemble_record,
    run_collection,
)
from skylog.modem import ModemError, ModemReport, ReplayBackend
from skylog.records import (
    GeoPosition,
    MeasurementRecord,
    NeighborCellSample,
    ServingCellSample,
    encode_row,
    read_e2e_trace,
    read_trace,
)
from skylog.simenv import (
    DistanceTooSmall,
    FlightPlan,
    RadioEnvironment,
    SimE2eEngine,
    SimModemBackend,
    Waypoint,
    flight_position,
)

from conftest import make_e2e, make_neighbor, make_record, make_serving
from test_simenv import env_with, station_at, uav_at, wp


def canonical_env(seed=7):
    return env_with(
        [station_at(900, -450, antenna_m=35.0, eirp=42.0, pci=101, cell_id=1, tac=12802),
         station_at(300, 900, antenna_m=30.0, eirp=40.0, pci=205, cell_id=2, tac=12802),
         station_at(-350, 120, antenna_m=25.0, eirp=41.0, pci=47, cell_id=3, tac=12802)],
        seed=seed)


def climb_plan(levels=13, drift_m=150.0, hover_s=30.0, speed=5.0):
    return FlightPlan(waypoints=tuple(
        wp(drift_m * k, 0.0, 2.0 + 10.0 * k, speed=speed, hover=hover_s)
        for k in range(levels)))


def sim_setup(tmp_path, seed=7, duration=60.0, e2e_interval=60.0, **cfg_over):
    env = canonical_env(seed)
    plan = climb_plan()
    clock = SimClock()
    source = partial(flight_position, plan)
    modem = SimModemBackend(env)
    engine = SimE2eEngine(env)
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=duration,
                          e2e_interval_s=e2e_interval, **cfg_over)
    return cfg, clock, modem, source, engine


def read_all_ran(summary):
    records = []
    for path in summary.files:
        if path.endswith(".trace"):
            records.extend(read_trace(path))
    return records


def test_60s_run_yields_60_records_exactly_spaced(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=60.0)
    summary = run_collection(cfg, clock, modem, source, engine)
    records = read_all_ran(summary)
    assert len(records) == 60
    assert summary.records_written == 60
    deltas = [b.ts_unix_ms - a.ts_unix_ms for a, b in zip(records, records[1:])]
    assert all(d == 1000 for d in deltas)
    assert records[0].ts_unix_ms == SIM_EPOCH_MS


def test_records_carry_plan_positions_and_sim_source(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=40.0)
    summary = run_collection(cfg, clock, modem, source, engine)
    records = read_all_ran(summary)
    assert all(r.source == "sim" for r in records)
    # first 30 ticks hover at the first waypoint (2 m AGL), then the climb starts
    assert records[0].pos.alt_m_agl == pytest.approx(2.0)
    assert records[29].pos.alt_m_agl == pytest.approx(2.0)
    assert records[35].pos.alt_m_agl > 2.0


class FlakyBackend:
    """Fails specific poll indices with a modem ERROR."""

    descriptor = "sim"

    def __init__(self, fail_at):
        self.fail_at = set(fail_at)
        self.calls = 0

    def poll_cells(self, pos) -> tuple:
        i = self.calls
        self.calls += 1
        if i in self.fail_at:
            raise ModemError(7)
        return records._cells_of(make_serving(), (make_neighbor(),))


def test_failed_polls_are_counted_and_skipped(tmp_path):
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=10.0, e2e_interval_s=0)
    clock = SimClock()
    backend = FlakyBackend(fail_at={3, 7})
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    summary = run_collection(cfg, clock, backend, lambda _t: pos)
    assert summary.records_written == 8
    assert summary.polls_failed == 2
    assert summary.polls_attempted == 10
    records = read_all_ran(summary)
    assert len(records) == 8


def test_rotation_10_10_5(tmp_path):
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=25.0,
                          e2e_interval_s=0, max_file_records=10, run_id="rot")
    clock = SimClock()
    backend = FlakyBackend(fail_at=set())
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    summary = run_collection(cfg, clock, backend, lambda _t: pos)
    traces = [p for p in summary.files if p.endswith(".trace")]
    assert [len(read_trace(p)) for p in traces] == [10, 10, 5]
    # concatenation preserves order and monotonicity
    all_records = [r for p in traces for r in read_trace(p)]
    assert len(all_records) == 25
    ts = [r.ts_unix_ms for r in all_records]
    assert ts == sorted(ts) and len(set(ts)) == 25


def test_e2e_cadence(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=600.0,
                                                  e2e_interval=60.0)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert summary.e2e_tests_run == 10
    e2e_files = [p for p in summary.files if p.endswith(".e2e")]
    assert len(e2e_files) == 1
    e2e = read_e2e_trace(e2e_files[0])
    assert len(e2e) == 10
    assert [r.ts_unix_ms - SIM_EPOCH_MS for r in e2e] == [60_000 * k for k in range(10)]


def test_e2e_disabled(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=120.0, e2e_interval=0)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert summary.e2e_tests_run == 0
    assert not [p for p in summary.files if p.endswith(".e2e")]


def test_durability_written_equals_decodable(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=200.0,
                                                  max_file_records=37)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert len(read_all_ran(summary)) == summary.records_written == 200


def test_stop_event_halts_run(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=None)
    stop = threading.Event()
    stop.set()
    summary = run_collection(cfg, clock, modem, source, engine, stop_event=stop)
    assert summary.records_written == 0


def test_sim_collect_replay_round_trip(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg, clock, modem, source, engine = sim_setup(out_a, duration=90.0)
    summary_a = run_collection(cfg, clock, modem, source, engine)
    trace_a = [p for p in summary_a.files if p.endswith(".trace")][0]
    originals = read_trace(trace_a)

    replay_cfg = CollectorConfig(output_dir=str(out_b), duration_s=90.0,
                                 e2e_interval_s=0)
    replay = ReplayBackend(trace_a)
    summary_b = run_collection(replay_cfg, SimClock(), replay, replay.position)
    trace_b = [p for p in summary_b.files if p.endswith(".trace")][0]
    replayed = read_trace(trace_b)
    assert len(replayed) == len(originals) == 90
    for orig, rep in zip(originals, replayed):
        assert rep.source == "replay"
        assert dataclasses.replace(rep, source="sim") == orig


def test_replay_exhaustion_stops_cleanly(tmp_path):
    out_a = tmp_path / "a"
    cfg, clock, modem, source, engine = sim_setup(out_a, duration=30.0)
    summary_a = run_collection(cfg, clock, modem, source, engine)
    trace_a = [p for p in summary_a.files if p.endswith(".trace")][0]

    out_b = tmp_path / "b"
    replay_cfg = CollectorConfig(output_dir=str(out_b), duration_s=900.0, e2e_interval_s=0)
    replay = ReplayBackend(trace_a)
    summary_b = run_collection(replay_cfg, SimClock(), replay, replay.position)
    assert summary_b.records_written == 30
    assert summary_b.polls_failed == 0


def test_replay_of_empty_trace_ends_cleanly(tmp_path):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    replay = ReplayBackend(empty)
    cfg = CollectorConfig(output_dir=str(tmp_path / "out"), duration_s=60.0, e2e_interval_s=0)
    summary = run_collection(cfg, SimClock(), replay, replay.position)
    assert (summary.records_written, summary.polls_failed) == (0, 0)


def test_position_read_once_per_wake_and_polled_with(tmp_path, monkeypatch):
    plan = climb_plan()
    reads = []

    def position_at(t_s):
        reads.append((t_s, flight_position(plan, t_s)))
        return reads[-1][1]

    polled, tagged = [], []

    class RecordingBackend(SimModemBackend):
        def poll_cells(self, pos):
            polled.append(pos)
            return super().poll_cells(pos)

    def tag(pos):  # the tick spreads the polled position into its row
        tagged.append(pos)
        return position_row(pos)

    position_row = collector._position_row
    monkeypatch.setattr(collector, "_position_row", tag)
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=30.0, e2e_interval_s=1.5)
    summary = run_collection(cfg, SimClock(), RecordingBackend(canonical_env()), position_at,
                             SimE2eEngine(canonical_env()))
    # 30 RAN ticks plus the 10 e2e ticks at odd multiples of 1.5 s
    wakes = sorted({float(k) for k in range(30)} | {1.5 * k for k in range(20)})
    assert [t for t, _ in reads] == wakes
    assert summary.records_written == 30 and summary.e2e_tests_run == 20
    read_at = dict(reads)
    assert all(pos is read_at[float(k)] for k, pos in enumerate(polled))
    assert len(tagged) == len(polled) == 30
    assert all(t is p for t, p in zip(tagged, polled))


def test_e2e_only_wakes_read_their_own_time(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=60.0, e2e_interval=1.5,
                                                  sample_interval_ms=1000)
    summary = run_collection(cfg, clock, modem, source, engine)
    e2e = read_e2e_trace([p for p in summary.files if p.endswith(".e2e")][0])
    assert len(e2e) == 40
    plan = climb_plan()
    for rec in e2e:
        want = flight_position(plan, (rec.ts_unix_ms - SIM_EPOCH_MS) / 1000.0)
        assert (rec.pos.lat_deg, rec.pos.lon_deg, rec.pos.alt_m_amsl) == \
            (want.lat_deg, want.lon_deg, want.alt_m_amsl)
    # the climb starts at 30 s, so the e2e-only ticks after it read distinct heights
    assert len({rec.pos.alt_m_amsl for rec in e2e[20:]}) == 20


def test_identical_setup_is_bit_identical(tmp_path):
    texts = []
    for sub in ("x", "y"):
        cfg, clock, modem, source, engine = sim_setup(tmp_path / sub, duration=120.0,
                                                      run_id="fixed")
        summary = run_collection(cfg, clock, modem, source, engine)
        blob = b""
        for path in sorted(summary.files):
            with open(path, "rb") as fh:
                blob += fh.read()
        texts.append(blob)
    assert texts[0] == texts[1]


def test_assemble_record_sets_source_and_validates():
    report = ModemReport(serving=make_serving(), neighbors=(make_neighbor(),))
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    rec = assemble_record(report, pos, 1_700_000_000_000, source="replay")
    assert rec.source == "replay"
    assert rec.serving == report.serving
    bad = ModemReport(serving=make_serving(),
                      neighbors=(make_neighbor(earfcn=1300, pci=101),))
    with pytest.raises(ValueError, match="duplicates serving"):
        assemble_record(bad, pos, 1_700_000_000_000)


def test_system_clock_schedule_ignores_wall_clock_step(monkeypatch):
    clock = collector.SystemClock()
    real_time_ns = time.time_ns
    assert abs(clock.now_ms() - real_time_ns() // 1_000_000) < 1000  # wall-anchored
    deadline = clock.now_ms() + 20
    monkeypatch.setattr(time, "time_ns", lambda: real_time_ns() - 3600 * 10**9)
    asked = []
    monkeypatch.setattr(time, "sleep", asked.append)
    clock.sleep_until_ms(deadline)
    assert all(s <= 0.02 for s in asked)  # not the hour the wall clock fell back
    assert clock.now_ms() >= deadline - 20  # stamps do not step back either


def test_config_bounds():
    with pytest.raises(ValueError):
        CollectorConfig(output_dir="x", sample_interval_ms=50)
    with pytest.raises(ValueError):
        CollectorConfig(output_dir="x", max_file_records=0)
    # Deadlines are integer milliseconds: a non-finite interval or duration
    # must be refused before any thread starts.
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="e2e_interval_s"):
            CollectorConfig(output_dir="x", e2e_interval_s=bad)
        with pytest.raises(ValueError, match="duration_s"):
            CollectorConfig(output_dir="x", duration_s=bad)
    # A positive interval under 1 ms would truncate to 0 ms, which turns
    # end-to-end testing off; 0 itself and 1 ms are accepted.
    for bad in (1e-300, 0.0004, 0.000999):
        with pytest.raises(ValueError, match="e2e_interval_s"):
            CollectorConfig(output_dir="x", e2e_interval_s=bad)
    for good in (0.0, 0.001):
        assert CollectorConfig(output_dir="x", e2e_interval_s=good).e2e_interval_s == good
    # The run id names files inside output_dir: no separator may lead out of it.
    for bad in ("../evil", "a/b", "/abs", "a\\b", "a\0b"):
        with pytest.raises(ValueError, match="run_id"):
            CollectorConfig(output_dir="x", run_id=bad)
    for good in ("flight-7", "..", ".hidden"):
        assert CollectorConfig(output_dir="x", run_id=good).run_id == good


def test_unwritable_output_is_fatal(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a plain file, not a directory")
    cfg = CollectorConfig(output_dir=str(blocked), duration_s=5.0, e2e_interval_s=0)
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    with pytest.raises(RuntimeError, match="not writable"):
        run_collection(cfg, SimClock(), FlakyBackend(set()), lambda _t: pos)


class CrashingBackend(FlakyBackend):
    """Accepts crash_at polls, then raises an exception the loop does not handle."""

    def __init__(self, crash_at):
        super().__init__(set())
        self.crash_at = crash_at

    def poll_cells(self, pos) -> tuple:
        if self.calls == self.crash_at:
            raise DistanceTooSmall("distance 0.400 m below 1 m reference")
        return super().poll_cells(pos)


def test_unexpected_poll_error_flushes_and_stops_threads(tmp_path):
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=None, e2e_interval_s=10.0)
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    engine = SimE2eEngine(canonical_env())
    with pytest.raises(DistanceTooSmall, match="0.400 m"):
        run_collection(cfg, SimClock(), CrashingBackend(500), lambda _t: pos,
                       e2e_engine=engine)
    assert len(read_trace(next(tmp_path.glob("*.trace")))) == 500
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]


def test_replay_with_e2e_keeps_each_line_position(tmp_path):
    cfg, clock, modem, source, engine = sim_setup(tmp_path / "a", duration=300.0)
    summary_a = run_collection(cfg, clock, modem, source, engine)
    trace_a = [p for p in summary_a.files if p.endswith(".trace")][0]
    originals = read_trace(trace_a)

    replay = ReplayBackend(trace_a)
    replay_cfg = CollectorConfig(output_dir=str(tmp_path / "b"), duration_s=300.0,
                                 e2e_interval_s=60.0)
    summary_b = run_collection(replay_cfg, SimClock(), replay, replay.position,
                               e2e_engine=SimE2eEngine(canonical_env()))
    replayed = read_all_ran(summary_b)
    assert len(replayed) == len(originals) == 300
    for orig, rep in zip(originals, replayed):
        assert dataclasses.replace(rep, source="sim") == orig
    pos_at = {rec.ts_unix_ms: rec.pos for rec in replayed}
    e2e = read_e2e_trace([p for p in summary_b.files if p.endswith(".e2e")][0])
    assert len(e2e) == summary_b.e2e_tests_run == 5
    for rec in e2e:  # e2e lines store no height above ground
        assert rec.pos == dataclasses.replace(pos_at[rec.ts_unix_ms], alt_m_agl=None)


class FaultyE2eEngine(SimE2eEngine):
    """The simulated engine, except on test number fault_at: it returns a NaN
    download rate, or raises when raises is set."""

    def __init__(self, env, fault_at, raises=False):
        super().__init__(env)
        self.fault_at = fault_at
        self.raises = raises
        self.calls = 0

    def measure(self, pos, salt):
        i = self.calls
        self.calls += 1
        rtt, dl, ul, duration = super().measure(pos, salt)
        if i == self.fault_at:
            if self.raises:
                raise ConnectionResetError("server went away")
            dl = math.nan
        return rtt, dl, ul, duration


@pytest.mark.parametrize("raises, logged", [(False, "dl_mbps is not finite"),
                                            (True, "end-to-end test failed")])
def test_a_failed_e2e_test_is_dropped_and_the_run_continues(tmp_path, caplog, raises, logged):
    failed_e2e_run(tmp_path, caplog, raises, logged, SimClock())


def failed_e2e_run(tmp_path, caplog, raises, logged, clock):
    cfg, _, modem, source, _ = sim_setup(tmp_path, duration=600.0, e2e_interval=60.0)
    engine = FaultyE2eEngine(canonical_env(), fault_at=1, raises=raises)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert engine.calls == 10
    assert summary.e2e_tests_run == 9
    assert summary.records_written == 600
    e2e = read_e2e_trace(next(p for p in summary.files if p.endswith(".e2e")))
    assert [r.ts_unix_ms - SIM_EPOCH_MS for r in e2e] == [60_000 * k for k in range(10) if k != 1]
    assert logged in caplog.text


def test_trace_writer_failure_keeps_written_lines_and_stops_threads(tmp_path, monkeypatch):
    writer_failure_run(tmp_path, monkeypatch, SimClock())


class FullDisk:
    """A trace file whose write of a line for which fails(line) holds raises
    the full-disk OSError."""

    def __init__(self, fh, fails):
        self._fh, self._fails = fh, fails

    def write(self, text):
        if self._fails(text):
            raise OSError(28, "No space left on device")
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def fill_disk(monkeypatch, fails, opened=None):
    """Patch the collector's open: every file it opens is noted in opened,
    and each trace file fails as a FullDisk."""
    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        if opened is not None:
            opened.append(fh)
        return FullDisk(fh, fails) if fh.name.endswith(".trace") else fh

    monkeypatch.setattr(collector, "open", failing_open, raising=False)


def writer_failure_run(tmp_path, monkeypatch, clock):
    calls = 0

    def fails(line):
        nonlocal calls
        calls += 1
        return calls == 50

    fill_disk(monkeypatch, fails)
    cfg, _, modem, source, engine = sim_setup(tmp_path, duration=600.0)
    with pytest.raises(RuntimeError, match="trace writer failed"):
        run_collection(cfg, clock, modem, source, engine)
    assert len(read_trace(next(tmp_path.glob("*.trace")))) == 49
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]


# --- the row tick: one path for every backend, records accepted as validate_record accepts them ---

class NoPollBackend:
    """A backend with a descriptor and no poll method."""

    descriptor = "hw"


def test_a_backend_without_poll_cells_is_refused_before_any_thread_starts(tmp_path):
    cfg = CollectorConfig(output_dir=str(tmp_path / "out"), duration_s=5.0, e2e_interval_s=1.0)
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    with pytest.raises(AttributeError, match="poll"):
        run_collection(cfg, SimClock(), NoPollBackend(), lambda _t: pos,
                       e2e_engine=SimE2eEngine(canonical_env()))
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]
    assert not (tmp_path / "out").exists()


class OddReportBackend(FlakyBackend):
    """Poll 1 reports dB values as ints, which validate_record accepts and
    the row guard leaves to it; poll 2 repeats the serving cell as a
    neighbor, which both refuse."""

    def poll_cells(self, pos) -> tuple:
        i = self.calls
        cells = super().poll_cells(pos)
        if i == 1:
            return records._cells_of(make_serving(rsrp_dbm=-95, sinr_db=12),
                                     (make_neighbor(rssi_dbm=-70),))
        if i == 2:
            return records._cells_of(make_serving(), (make_neighbor(pci=101),))
        return cells


def test_a_row_the_guard_leaves_to_validate_record_is_written_as_before(tmp_path, caplog):
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=4.0, e2e_interval_s=0)
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    summary = run_collection(cfg, SimClock(), OddReportBackend(set()), lambda _t: pos)
    assert (summary.records_written, summary.polls_failed) == (3, 1)
    assert "poll 2 dropped: invalid record: neighbor duplicates serving cell" in caplog.text
    lines = next(tmp_path.glob("*.trace")).read_text(encoding="utf-8").splitlines()
    assert lines[1] == (
        '{"ts_unix_ms":1700000001000,"lat_deg":40.0,"lon_deg":-100.0,"alt_m_amsl":302.0,'
        '"alt_m_agl":2.0,"serving":{"earfcn":1300,"pci":101,"cell_id":1715004,"tac":4321,'
        '"rsrp_dbm":-95,"rsrq_db":-11.5,"rssi_dbm":-70.0,"sinr_db":12},"neighbors":'
        '[{"earfcn":1300,"pci":202,"rsrp_dbm":-101.5,"rsrq_db":-14.0,"rssi_dbm":-70}],'
        '"source":"sim"}')
    assert [json.loads(line)["ts_unix_ms"] - SIM_EPOCH_MS for line in lines] == [0, 1000, 3000]


def count_record_objects(monkeypatch) -> Counter:
    """Count, from here on, every report and record object built and every
    validate_record call."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (MeasurementRecord, ModemReport, ServingCellSample, NeighborCellSample):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for module in (collector, records):
        monkeypatch.setattr(module, "validate_record", counted("validate_record", module.validate_record))
    return counts


def test_a_clean_sim_flight_builds_no_record_objects(tmp_path, monkeypatch):
    """The tick builds rows: over a simulated flight with e2e tests on, no
    report or record object is made and validate_record never runs."""
    counts = count_record_objects(monkeypatch)
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=300.0)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert (summary.records_written, summary.polls_failed, summary.e2e_tests_run) == (300, 0, 5)
    assert counts == Counter()


def test_the_tick_checks_each_row_once(tmp_path, monkeypatch):
    """Over a clean simulated flight the row guard runs once per written
    row: the tick's one check renders the line the writer writes."""
    calls = 0
    valid_row = records.valid_row

    def counted(row):
        nonlocal calls
        calls += 1
        return valid_row(row)

    for module in (collector, records):  # wherever the guard is bound
        if hasattr(module, "valid_row"):
            monkeypatch.setattr(module, "valid_row", counted)
    cfg, clock, modem, source, engine = sim_setup(tmp_path, duration=60.0)
    summary = run_collection(cfg, clock, modem, source, engine)
    assert (summary.records_written, calls) == (60, 60)


def test_a_clean_replay_run_builds_no_record_objects(tmp_path, monkeypatch):
    """Replay streams checked rows: neither constructing the backend nor
    the run makes a report or record object or calls validate_record, and
    each line comes back with only its source changed."""
    cfg, clock, modem, source, engine = sim_setup(tmp_path / "a", duration=300.0, run_id="a")
    run_collection(cfg, clock, modem, source, engine)
    original = tmp_path / "a" / "a-0001.trace"
    counts = count_record_objects(monkeypatch)
    replay = ReplayBackend(original)
    cfg = CollectorConfig(output_dir=str(tmp_path / "b"), e2e_interval_s=0, run_id="b")
    summary = run_collection(cfg, SimClock(), replay, replay.position)
    assert (summary.records_written, summary.polls_failed) == (300, 0)
    assert counts == Counter()
    want = original.read_text(encoding="utf-8").replace('"source":"sim"', '"source":"replay"')
    assert (tmp_path / "b" / "b-0001.trace").read_text(encoding="utf-8") == want


# --- the writer thread: every item handed to it is written, in order ---

def _rows(n, start_ms=SIM_EPOCH_MS):
    return [records._row_of(dataclasses.replace(make_record(), ts_unix_ms=start_ms + 1000 * k))
            for k in range(n)]


def test_writer_writes_items_from_two_threads_in_submit_order(tmp_path):
    """RAN lines from the tick's thread and e2e records from a second thread,
    handed to the writer thread while it writes: every item lands, each file
    in the order its items were handed over."""
    rows = _rows(3000)
    e2e = [make_e2e(ts_unix_ms=SIM_EPOCH_MS + 60_000 * k) for k in range(300)]
    writer = collector._TraceWriter(tmp_path, "w", max_file_records=1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.ExitStack() as stack:
            stack.callback(writer.close)
            write = collector._on_thread(stack, "skylog-writer", writer.write)
            second = threading.Thread(target=lambda: [write(rec) for rec in e2e])
            second.start()
            for row in rows:
                write(encode_row(row))
            second.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not second.is_alive()
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]
    assert writer.error is None
    assert (writer.ran_written, writer.e2e_written) == (3000, 300)
    traces = sorted(tmp_path.glob("w-*.trace"))
    assert len(traces) == 3
    assert [records._row_of(r) for path in traces for r in read_trace(path)] == rows
    assert read_e2e_trace(tmp_path / "w.e2e") == e2e


# --- threads run only for a clock that waits ---

class VirtualClock:
    """SimClock's semantics without being a SimClock, so run_collection
    takes its threaded path."""

    def __init__(self):
        self._now_ms = SIM_EPOCH_MS

    def now_ms(self) -> int:
        return self._now_ms

    def sleep_until_ms(self, deadline_ms: int) -> None:
        self._now_ms = max(self._now_ms, deadline_ms)


class ThreadRecordingBackend(SimModemBackend):
    """The simulated backend, noting the name of every thread alive at a poll."""

    def __init__(self, env):
        super().__init__(env)
        self.threads = set()

    def poll_cells(self, pos) -> tuple:
        self.threads.update(t.name for t in threading.enumerate())
        return super().poll_cells(pos)


def skylog_threads(names) -> set:
    return {name for name in names if name.startswith("skylog-")}


def test_the_threaded_and_inline_paths_write_the_same_bytes(tmp_path):
    runs = {}
    for name, clock in (("inline", SimClock()), ("threaded", VirtualClock())):
        cfg, _, _, source, engine = sim_setup(tmp_path / name, seed=11, duration=600.0,
                                              e2e_interval=60.0, max_file_records=97)
        modem = ThreadRecordingBackend(canonical_env(11))
        summary = run_collection(cfg, clock, modem, source, engine)
        runs[name] = summary, skylog_threads(modem.threads)
    (inline, inline_threads), (threaded, threaded_threads) = runs["inline"], runs["threaded"]
    assert inline_threads == set()
    assert threaded_threads == {"skylog-writer_0", "skylog-e2e_0"}
    assert (inline.records_written, inline.e2e_tests_run) == (600, 10)
    names = {p.rsplit("/", 1)[1] for p in inline.files}
    assert len(names) == 8  # seven trace files of at most 97 lines, and the .e2e
    assert {p.rsplit("/", 1)[1] for p in threaded.files} == names
    for name in names:
        assert (tmp_path / "inline" / name).read_bytes() == (tmp_path / "threaded" / name).read_bytes()
    assert dataclasses.replace(inline, files=[]) == dataclasses.replace(threaded, files=[])


def test_trace_writer_failure_on_the_threaded_path(tmp_path, monkeypatch):
    writer_failure_run(tmp_path, monkeypatch, VirtualClock())


@pytest.mark.parametrize("raises, logged", [(False, "dl_mbps is not finite"),
                                            (True, "end-to-end test failed")])
def test_a_failed_e2e_test_on_the_threaded_path(tmp_path, caplog, raises, logged):
    failed_e2e_run(tmp_path, caplog, raises, logged, VirtualClock())


@pytest.mark.parametrize("make_clock", [SimClock, VirtualClock])
def test_a_writer_failure_closes_every_file(tmp_path, monkeypatch, make_clock):
    """Three rotated traces (and, unless the failure comes first, the .e2e
    file) are opened during the run; after the write that fails, each one
    is closed."""
    opened = []
    # The disk fills at 250 s.
    fill_disk(monkeypatch, lambda line: json.loads(line)["ts_unix_ms"] >= SIM_EPOCH_MS + 250_000,
              opened)
    cfg, _, modem, source, engine = sim_setup(tmp_path, duration=600.0, max_file_records=97)
    with pytest.raises(RuntimeError, match="trace writer failed: .* No space left"):
        run_collection(cfg, make_clock(), modem, source, engine)
    assert sorted(fh.name.rsplit("/", 1)[1] for fh in opened if fh.name.endswith(".trace")) == [
        "run1700000000000-0001.trace", "run1700000000000-0002.trace",
        "run1700000000000-0003.trace"]
    assert all(fh.closed for fh in opened)
    assert sum(len(read_trace(fh.name)) for fh in opened if fh.name.endswith(".trace")) == 250


class ContractBreakingBackend(FlakyBackend):
    """Poll break_at returns broken(cells) instead of its well-formed cells."""

    def __init__(self, break_at, broken):
        super().__init__(set())
        self.break_at, self.broken = break_at, broken

    def poll_cells(self, pos) -> tuple:
        i = self.calls
        cells = super().poll_cells(pos)
        return self.broken(cells) if i == self.break_at else cells


BROKEN_CELLS = {
    "ten-cell-items": lambda cells: (*cells, "extra"),
    "four-item-neighbor": lambda cells: (*cells[:-1], tuple(n[:4] for n in cells[-1])),
}


@pytest.mark.parametrize("make_clock", [SimClock, VirtualClock])
@pytest.mark.parametrize("shape", BROKEN_CELLS)
def test_cells_that_break_the_contract_end_the_run(tmp_path, caplog, make_clock, shape):
    """A backend that breaks poll_cells's contract is not a refused record:
    the unpacking error ends the run, every line accepted before it stays
    written, and no thread is left running."""
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=60.0, e2e_interval_s=10.0)
    pos = GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=302.0, alt_m_agl=2.0)
    backend = ContractBreakingBackend(50, BROKEN_CELLS[shape])
    with pytest.raises(ValueError, match="values to unpack"):
        run_collection(cfg, make_clock(), backend, lambda _t: pos,
                       e2e_engine=SimE2eEngine(canonical_env()))
    assert backend.calls == 51
    assert len(read_trace(next(tmp_path.glob("*.trace")))) == 50
    assert len(read_e2e_trace(next(tmp_path.glob("*.e2e")))) == 5
    assert "dropped" not in caplog.text
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]


def test_a_virtual_clock_run_starts_no_thread_and_holds_no_backlog(tmp_path):
    """Under SimClock the tick writes each row and runs each e2e test itself:
    no skylog thread is alive at any poll, and the traced peak of a ten-hour
    flight stays at what one tick holds, with no queue to grow."""
    cfg, clock, _, source, engine = sim_setup(tmp_path, duration=36_000.0, e2e_interval=60.0)
    modem = ThreadRecordingBackend(canonical_env())
    tracemalloc.start()
    try:
        summary = run_collection(cfg, clock, modem, source, engine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (summary.records_written, summary.e2e_tests_run) == (36_000, 600)
    assert skylog_threads(modem.threads) == set()
    # Measured at 0.05 MiB (0.15 MiB in a fresh process).  A held row takes
    # about 0.9 KiB, so a backlog of a few hundred rows breaks the bound.
    assert peak < 2**19
