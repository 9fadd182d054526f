"""Propagation, LoS model, radio sampling, flight paths, config loading."""

import hashlib
import json
import math
import pickle
import struct
import sys
import threading
from collections import Counter
from functools import partial
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from skylog import simenv
from skylog.collector import CollectorConfig, SimClock, run_collection
from skylog.geo import tangent_forward, tangent_inverse
from skylog.records import DB_FIELD_RANGES, MAX_NEIGHBORS, GeoPosition, _cells_of, validate_cells
from skylog.simenv import (
    BaseStation,
    ConfigError,
    DistanceTooSmall,
    FlightPlan,
    RadioEnvironment,
    SimE2eEngine,
    SimModemBackend,
    Waypoint,
    environment_from_doc,
    flight_position,
    fspl_1m_db,
    load_environment,
    load_flight_plan,
    plan_duration_s,
    plan_from_doc,
    radio_sample,
    station_distance_m,
    synth_e2e,
)

ANCHOR_LAT, ANCHOR_LON = 40.0, -100.0


def station_at(x_east_m, y_north_m, antenna_m=30.0, eirp=42.0, pci=101,
               earfcn=5230, cell_id=0x1A2B001, tac=12802):
    lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, x_east_m, y_north_m)
    pos = GeoPosition(lat_deg=lat, lon_deg=lon, alt_m_amsl=300.0 + antenna_m,
                      alt_m_agl=antenna_m)
    return BaseStation(site_pos=pos, eirp_dbm=eirp, earfcn=earfcn, pci=pci,
                       cell_id=cell_id, tac=tac)


def uav_at(x_east_m, y_north_m, agl_m):
    lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, x_east_m, y_north_m)
    return GeoPosition(lat_deg=lat, lon_deg=lon, alt_m_amsl=300.0 + agl_m, alt_m_agl=agl_m)


def env_with(stations, **over):
    return RadioEnvironment(stations=tuple(stations), **over)


def test_fspl_reference_at_2_1_ghz():
    assert round(fspl_1m_db(2.1e9), 1) == 38.9


def test_path_loss_1m_los_no_shadow():
    # tall mast, UAV 1 m away at the same height: agl >= 100 makes LoS certain
    st = station_at(0, 0, antenna_m=120.0)
    env = env_with([st], shadow_sigma_db=0.0)
    pos = uav_at(0, 1.001, 120.0)
    [(los, _, loss)] = simenv._Radio(env).paths(pos)
    assert los
    assert loss == pytest.approx(38.9, abs=0.05)


def test_path_loss_1km_exponent_2_2():
    st = station_at(0, 0, antenna_m=30.0)
    env = env_with([st], shadow_sigma_db=0.0)
    pos = uav_at(0, 1000.0, 120.0)  # agl >= 100 -> always LoS
    [(los, _, loss)] = simenv._Radio(env).paths(pos)
    assert los
    d = station_distance_m(st, pos)
    expected = fspl_1m_db(2.1e9) + 22.0 * math.log10(d)
    assert loss == pytest.approx(expected, abs=1e-9)
    # and the canonical spot check: exactly 1 km -> 104.9 dB
    assert fspl_1m_db(2.1e9) + 22.0 * math.log10(1000.0) == pytest.approx(104.9, abs=0.05)


def test_path_loss_below_1m_raises():
    st = station_at(0, 0, antenna_m=30.0)
    env = env_with([st])
    with pytest.raises(DistanceTooSmall):
        simenv._Radio(env).paths(uav_at(0, 0.5, 30.0))


def test_path_loss_deterministic():
    st = station_at(0, 0)
    env = env_with([st], seed=99)
    pos = uav_at(250, 130, 40.0)
    assert simenv._Radio(env).paths(pos) == simenv._Radio(env).paths(pos)


def test_los_always_above_100m():
    st = station_at(0, 0)
    radio = simenv._Radio(env_with([st], seed=3))
    for i in range(200):
        [(los, _, _)] = radio.paths(uav_at(17 * i, 13 * i, 100.0 + (i % 23)))
        assert los


def test_los_ground_rate_near_0_15():
    st = station_at(0, 0)
    radio = simenv._Radio(env_with([st], seed=5))
    hits = sum(radio.paths(uav_at(10.0 * i, 10.0 * j, 0.0))[0][0]
               for i in range(100) for j in range(100))
    assert hits / 10000 == pytest.approx(0.15, abs=0.03)


def test_los_deterministic_within_voxel():
    st = station_at(0, 0)
    radio = simenv._Radio(env_with([st], seed=12))
    [(a, _, _)] = radio.paths(uav_at(101.0, 52.0, 44.0))
    [(b, _, _)] = radio.paths(uav_at(108.9, 57.5, 41.1))  # same 10 m voxel, same band
    assert a == b


def test_shadowing_distribution_moments():
    radio = simenv._Radio(env_with([station_at(0, 0)], seed=8, shadow_sigma_db=6.0))
    draws = [radio.paths(uav_at(10.0 * i, 10.0 * j, 50.0))[0][1]
             for i in range(100) for j in range(100)]
    n = len(draws)
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / (n - 1)
    assert mean == pytest.approx(0.0, abs=0.25)
    assert math.sqrt(var) == pytest.approx(6.0, rel=0.05)


def test_single_station_sinr_and_rssi():
    # One station, received power -90 dBm, noise -104.5:
    # sinr = -90 - (-104.5) = 14.5; rssi = 10*log10(1e-9 + 10^-10.45) dBm (in mW)
    st = station_at(0, 0, antenna_m=30.0, eirp=42.0)
    env = env_with([st], shadow_sigma_db=0.0)
    pos = uav_at(0, 1000.0, 120.0)  # LoS guaranteed
    # tune eirp so received power is exactly -90
    [(_, _, pl)] = simenv._Radio(env).paths(pos)
    st2 = station_at(0, 0, antenna_m=30.0, eirp=pl - 90.0)
    env2 = env_with([st2], shadow_sigma_db=0.0)
    [(_, rsrp, _)], rssi, sinr = simenv._Radio(env2).sample(pos)
    assert rsrp == pytest.approx(-90.0, abs=1e-9)
    assert sinr == pytest.approx(14.5, abs=1e-9)
    expected_rssi = 10.0 * math.log10(10 ** (-90 / 10) + 10 ** (-104.5 / 10))
    assert rssi == pytest.approx(expected_rssi, abs=1e-9)
    assert rssi == pytest.approx(-89.85, abs=0.01)


def test_rsrq_identity_value():
    # rsrp -90, rssi -60, n_prb 50 -> rsrq = 16.99 - 30 = -13.0
    assert 10 * math.log10(50) + (-90.0) - (-60.0) == pytest.approx(-13.0, abs=0.02)
    st = station_at(0, 0)
    env = env_with([st], seed=2)
    [(_, rsrp, rsrq)], rssi, _ = simenv._Radio(env).sample(uav_at(400, 300, 60.0))
    assert rsrq == pytest.approx(10 * math.log10(env.n_prb) + rsrp - rssi, abs=1e-9)


def test_equal_power_tie_serves_lower_pci():
    a = station_at(0, 500.0, pci=77, cell_id=1)
    b = station_at(0, -500.0, pci=42, cell_id=2)
    env = env_with([a, b], shadow_sigma_db=0.0)
    pos = uav_at(0, 0, 120.0)  # equidistant, LoS at both
    report = radio_sample(env, pos)
    assert report.serving.pci == 42


def test_radio_sample_emits_valid_serving():
    stations = [station_at(900, -450, pci=101, cell_id=1),
                station_at(300, 900, pci=205, cell_id=2),
                station_at(-350, 120, pci=47, cell_id=3)]
    env = env_with(stations, seed=11)
    for i in range(50):
        report = radio_sample(env, uav_at(40.0 * i, 11.0 * i, 2.0 + (i % 12) * 10))
        assert validate_cells(report.serving, ()).ok
        assert len(report.neighbors) == 2
        for nbr in report.neighbors:
            assert (nbr.earfcn, nbr.pci) != (report.serving.earfcn, report.serving.pci)


def test_eirp_shift_never_changes_serving():
    stations = [station_at(900, -450, pci=101, cell_id=1, eirp=42.0),
                station_at(300, 900, pci=205, cell_id=2, eirp=40.0),
                station_at(-350, 120, pci=47, cell_id=3, eirp=41.0)]
    env_a = env_with(stations, seed=4)
    shifted = [BaseStation(site_pos=s.site_pos, eirp_dbm=s.eirp_dbm + 5.0,
                           earfcn=s.earfcn, pci=s.pci, cell_id=s.cell_id, tac=s.tac)
               for s in stations]
    env_b = env_with(shifted, seed=4)
    for i in range(40):
        pos = uav_at(45.0 * i, -20.0 * i, 2.0 + (i % 12) * 10)
        assert radio_sample(env_a, pos).serving.pci == radio_sample(env_b, pos).serving.pci


# --- flight path ---

def wp(x, y, agl, speed=10.0, hover=0.0):
    lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, x, y)
    return Waypoint(pos=GeoPosition(lat_deg=lat, lon_deg=lon,
                                    alt_m_amsl=300.0 + agl, alt_m_agl=agl),
                    speed_mps=speed, hover_s=hover)


def test_flight_t0_is_first_waypoint():
    plan = FlightPlan(waypoints=(wp(0, 0, 10), wp(100, 0, 10)))
    assert flight_position(plan, 0.0) == plan.waypoints[0].pos


def test_flight_leg_midpoint():
    plan = FlightPlan(waypoints=(wp(0, 0, 10, speed=10.0), wp(100, 0, 10)))
    mid = flight_position(plan, 5.0)
    from skylog.geo import tangent_forward
    x, y = tangent_forward(ANCHOR_LAT, ANCHOR_LON, mid.lat_deg, mid.lon_deg)
    assert x == pytest.approx(50.0, abs=1e-6)
    assert y == pytest.approx(0.0, abs=1e-9)


def test_flight_hover_then_leg():
    plan = FlightPlan(waypoints=(wp(0, 0, 10, speed=10.0, hover=30.0), wp(100, 0, 10)))
    assert flight_position(plan, 15.0) == plan.waypoints[0].pos
    end = flight_position(plan, 30.0 + 10.0)
    assert end == plan.waypoints[1].pos


def test_flight_past_end_holds_final():
    plan = FlightPlan(waypoints=(wp(0, 0, 10), wp(100, 0, 10)))
    assert flight_position(plan, 1e6) == plan.waypoints[1].pos


def test_plan_duration_sums_legs_and_hovers():
    plan = FlightPlan(waypoints=(wp(0, 0, 10, speed=10.0, hover=30.0),
                                 wp(100, 0, 10, speed=5.0, hover=15.0),
                                 wp(100, 50, 10)))
    assert plan_duration_s(plan) == pytest.approx(30.0 + 10.0 + 15.0 + 10.0, abs=1e-9)


def test_flight_interpolates_altitude():
    plan = FlightPlan(waypoints=(wp(0, 0, 10, speed=10.0), wp(0, 60, 20)))
    # leg length = sqrt(60^2 + 10^2) = 60.8276..., midpoint at half duration
    half = (60.8276503 / 10.0) / 2
    mid = flight_position(plan, half)
    assert mid.alt_m_agl == pytest.approx(15.0, abs=1e-3)
    assert mid.alt_m_amsl == pytest.approx(315.0, abs=1e-3)


@pytest.mark.parametrize("t_s", [float("nan"), math.inf, -math.inf, -1.0])
def test_flight_refuses_non_finite_or_negative_time(t_s):
    plan = FlightPlan(waypoints=(wp(0, 0, 10), wp(100, 0, 10)))
    with pytest.raises(ValueError, match=r"^t_s must be finite and >= 0$"):
        flight_position(plan, t_s)


def test_flight_plan_leg_table_is_derived_state():
    plan = FlightPlan(waypoints=(wp(0, 0, 10, speed=10.0), wp(100, 0, 10)))
    assert plan.leg_s == (simenv._leg_length_m(plan.waypoints[0].pos,
                                               plan.waypoints[1].pos) / 10.0,)
    assert plan.leg_s is plan.leg_s  # derived once, then kept
    # Left out of ==, hash and repr: two plans differing only there are one plan.
    # The table is kept in the plan's __dict__, which attribute assignment cannot
    # reach.
    other = FlightPlan(waypoints=plan.waypoints)
    vars(other)["leg_s"] = (123.0,)
    assert other.leg_s == (123.0,)
    assert other == plan
    assert hash(other) == hash(plan)
    assert "leg_s" not in repr(plan)
    with pytest.raises(AttributeError):
        plan.leg_s = (1.0,)
    with pytest.raises(TypeError):
        FlightPlan(waypoints=plan.waypoints, leg_s=(1.0,))
    # _replace builds a new plan, so the table follows the new waypoints.
    moved = plan._replace(waypoints=(wp(0, 0, 10, speed=5.0), wp(0, 60, 20)))
    assert moved.leg_s == (simenv._leg_length_m(moved.waypoints[0].pos,
                                                moved.waypoints[1].pos) / 5.0,)
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == plan
    assert restored.leg_s == plan.leg_s


def test_flight_plan_zero_speed_is_a_config_error(tmp_path):
    doc = plan_doc()
    doc["waypoints"][0]["speed_mps"] = 0.0
    path = tmp_path / "p.plan"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"waypoint 0: speed_mps must be > 0"):
        load_flight_plan(path)


# --- e2e synthesis ---

def test_synth_e2e_caps():
    st = station_at(0, 0)
    env = env_with([st], seed=6)
    dl, ul, rtt = synth_e2e(env, 40.0)
    assert dl == pytest.approx(36.0)  # 10 MHz * 6 b/s/Hz * 0.6
    assert ul == pytest.approx(15.0)
    for s in (-200.0, -20.0, 0.0, 15.0, 40.0, 100.0):
        dl, ul, rtt = synth_e2e(env, s)
        assert 0.0 <= dl <= 150.0
        assert 0.0 <= ul <= 50.0


def test_synth_e2e_no_signal_limit():
    env = env_with([station_at(0, 0)], seed=6)
    dl, ul, rtt = synth_e2e(env, -200.0)
    assert dl == pytest.approx(0.0, abs=1e-4)
    assert ul == pytest.approx(0.0, abs=1e-4)
    assert rtt >= 40.0 + 2000.0 / 0.5


def test_synth_e2e_rtt_jitter_bounded_and_deterministic():
    env = env_with([station_at(0, 0)], seed=6)
    base = 40.0 + 2000.0 / 36.0
    for salt in range(50):
        dl, ul, rtt = synth_e2e(env, 40.0, salt=salt)
        assert base <= rtt < base + 20.0
        assert synth_e2e(env, 40.0, salt=salt)[2] == rtt


# --- config loading ---

def env_doc():
    def st(x, y, pci, cid, eirp):
        lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, x, y)
        return {"site_pos": {"lat_deg": lat, "lon_deg": lon,
                             "alt_m_amsl": 330.0, "alt_m_agl": 30.0},
                "eirp_dbm": eirp, "earfcn": 5230, "pci": pci,
                "cell_id": cid, "tac": 12802}
    return {"stations": [st(900, -450, 101, 1, 42.0), st(300, 900, 205, 2, 40.0)],
            "n_los": 2.2, "n_nlos": 3.5, "shadow_sigma_db": 6.0,
            "n_prb": 50, "noise_dbm": -104.5, "freq_hz": 2.1e9, "seed": 7}


def test_load_environment(tmp_path):
    path = tmp_path / "e.env"
    path.write_text(json.dumps(env_doc()))
    env = load_environment(path)
    assert len(env.stations) == 2
    assert env.seed == 7
    assert env.stations[0].pci == 101


def test_load_environment_defaults(tmp_path):
    doc = env_doc()
    for key in ("n_los", "n_nlos", "shadow_sigma_db", "n_prb", "noise_dbm", "freq_hz", "seed"):
        del doc[key]
    path = tmp_path / "e.env"
    path.write_text(json.dumps(doc))
    env = load_environment(path)
    assert (env.n_los, env.n_nlos, env.shadow_sigma_db) == (2.2, 3.5, 6.0)
    assert (env.n_prb, env.noise_dbm, env.freq_hz, env.seed) == (50, -104.5, 2.1e9, 0)
    assert environment_from_doc(doc) == RadioEnvironment(stations=env.stations)


def test_load_environment_bad_json_has_position(tmp_path):
    path = tmp_path / "e.env"
    path.write_text('{"stations": [,]}')
    with pytest.raises(ConfigError) as exc_info:
        load_environment(path)
    assert exc_info.value.line == 1
    assert exc_info.value.column is not None
    assert str(path) in str(exc_info.value)


def test_load_environment_missing_key_named(tmp_path):
    doc = env_doc()
    del doc["stations"][0]["eirp_dbm"]
    path = tmp_path / "e.env"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"stations\[0\]\.eirp_dbm"):
        load_environment(path)


def test_load_environment_eirp_bounds(tmp_path):
    doc = env_doc()
    doc["stations"][0]["eirp_dbm"] = 70.0
    path = tmp_path / "e.env"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="eirp"):
        load_environment(path)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(n_los=None), "key 'n_los' has wrong type"),
    (lambda d: d.update(seed=True), "key 'seed' has wrong type"),
    (lambda d: d.pop("stations"), "missing key 'stations'"),
    (lambda d: d["stations"].append(7), "key 'stations[2]' has wrong type"),
    (lambda d: d["stations"][0].update(eirp_dbm=None),
     "key 'stations[0].eirp_dbm' has wrong type"),
    (lambda d: d["stations"][1]["site_pos"].update(alt_m_agl="30"),
     "key 'stations[1].site_pos.alt_m_agl' has wrong type"),
    (lambda d: d["stations"][0]["site_pos"].pop("lon_deg"),
     "missing key 'stations[0].site_pos.lon_deg'"),
])
def test_load_environment_names_bad_key_and_path(tmp_path, edit, message):
    doc = env_doc()
    edit(doc)
    path = tmp_path / "e.env"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc_info:
        load_environment(path)
    assert str(exc_info.value) == f"{path}: {message}"
    assert exc_info.value.path == path


def plan_doc(levels=3):
    wps = []
    for k in range(levels):
        lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, 150.0 * k, 0.0)
        agl = 2.0 + 10.0 * k
        wps.append({"pos": {"lat_deg": lat, "lon_deg": lon,
                            "alt_m_amsl": 300.0 + agl, "alt_m_agl": agl},
                    "speed_mps": 5.0, "hover_s": 30.0})
    return {"waypoints": wps}


def test_load_flight_plan(tmp_path):
    path = tmp_path / "p.plan"
    path.write_text(json.dumps(plan_doc()))
    plan = load_flight_plan(path)
    assert len(plan.waypoints) == 3
    assert plan.waypoints[0].hover_s == 30.0


def test_load_flight_plan_ceiling(tmp_path):
    doc = plan_doc()
    doc["waypoints"][1]["pos"]["alt_m_agl"] = 130.0
    path = tmp_path / "p.plan"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="ceiling"):
        load_flight_plan(path)


def test_load_flight_plan_hover_defaults_but_null_refused(tmp_path):
    doc = plan_doc()
    del doc["waypoints"][0]["hover_s"]
    path = tmp_path / "p.plan"
    path.write_text(json.dumps(doc))
    wp = load_flight_plan(path).waypoints[0]
    assert wp.hover_s == 0.0
    assert plan_from_doc(doc).waypoints[0] == Waypoint(wp.pos, doc["waypoints"][0]["speed_mps"])
    doc["waypoints"][0]["hover_s"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=r"key 'waypoints\[0\]\.hover_s' has wrong type"):
        load_flight_plan(path)


def test_load_flight_plan_empty_rejected(tmp_path):
    path = tmp_path / "p.plan"
    path.write_text(json.dumps({"waypoints": []}))
    with pytest.raises(ConfigError, match="at least one"):
        load_flight_plan(path)


def _wp(i, **values):
    return lambda d: d["waypoints"][i].update(values)


def _site(i, **values):
    return lambda d: d["stations"][i]["site_pos"].update(values)


def _station(i, **values):
    return lambda d: d["stations"][i].update(values)


@pytest.mark.parametrize("kind, edit, message", [
    ("plan", _wp(1, speed_mps=math.nan), "waypoint 1: speed_mps must be > 0"),
    ("plan", _wp(1, speed_mps=math.inf), "waypoint 1: speed_mps must be > 0"),
    ("plan", _wp(2, hover_s=math.nan), "waypoint 2: hover_s must be >= 0"),
    ("plan", _wp(2, hover_s=math.inf), "waypoint 2: hover_s must be >= 0"),
    ("plan", lambda d: d["waypoints"][0]["pos"].update(alt_m_agl=math.nan),
     "waypoint 0: alt_m_agl is not finite"),
    ("plan", lambda d: d["waypoints"][0]["pos"].update(alt_m_agl=-1.0),
     "waypoint 0: alt_m_agl out of [0,200]"),
    ("plan", lambda d: d["waypoints"][1]["pos"].update(lat_deg=95.0),
     "waypoint 1: lat_deg out of [-90,90]"),
    ("env", _site(0, alt_m_agl=math.nan), "station pci=101: antenna height must be > 0 m AGL"),
    ("env", _site(1, lat_deg=95.0), "station pci=205: site_pos.lat_deg out of [-90,90]"),
    ("env", _site(1, alt_m_amsl=math.inf), "station pci=205: site_pos.alt_m_amsl is not finite"),
    ("env", _station(1, pci=600), "station pci=600: pci out of [0,503]"),
    ("env", _station(0, earfcn=-1), "station pci=101: earfcn negative"),
    ("env", _station(0, cell_id=2**28), "station pci=101: cell_id out of [0,268435455]"),
    ("env", _station(1, tac=65536), "station pci=205: tac out of [0,65535]"),
    ("env", lambda d: d.update(shadow_sigma_db=math.nan), "shadow_sigma_db must be finite and >= 0"),
    ("env", lambda d: d.update(shadow_sigma_db=-1.0), "shadow_sigma_db must be finite and >= 0"),
    ("env", lambda d: d.update(noise_dbm=math.nan), "noise_dbm must be finite"),
    ("env", lambda d: d.update(freq_hz=math.nan), "freq_hz must be finite and > 0"),
    ("env", lambda d: d.update(freq_hz=-1.0), "freq_hz must be finite and > 0"),
    ("env", lambda d: d.update(n_los=0.0), "n_los must be finite and > 0"),
    ("env", lambda d: d.update(n_nlos=math.inf), "n_nlos must be finite and > 0"),
    ("env", lambda d: d.update(n_prb=0), "n_prb must be >= 1"),
])
def test_config_values_out_of_bounds_refused(tmp_path, kind, edit, message):
    make_doc, load = {"env": (env_doc, load_environment), "plan": (plan_doc, load_flight_plan)}[kind]
    doc = make_doc()
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as the tokens json.load accepts
    with pytest.raises(ConfigError) as exc_info:
        load(path)
    assert str(exc_info.value) == f"{path}: {message}"


def test_site_mast_may_stand_above_the_uav_ceiling(tmp_path):
    doc = env_doc()
    doc["stations"][0]["site_pos"].update(alt_m_amsl=550.0, alt_m_agl=250.0)
    path = tmp_path / "e.env"
    path.write_text(json.dumps(doc))
    assert load_environment(path).stations[0].site_pos.alt_m_agl == 250.0


# --- simulated backend ---

def test_sim_backend_polls_position_at_poll_time():
    stations = [station_at(900, -450, pci=101, cell_id=1),
                station_at(-350, 120, pci=47, cell_id=3)]
    env = env_with(stations, seed=9)
    backend = SimModemBackend(env)
    assert backend.descriptor == "sim"
    first = backend.poll_cells(uav_at(0, 0, 2.0))
    second = backend.poll_cells(uav_at(1200, 0, 102.0))
    direct_second = radio_sample(env, uav_at(1200, 0, 102.0))
    assert second == _cells_of(direct_second.serving, direct_second.neighbors)
    assert first != second


# --- tick fast path: exact against the per-call formulas, and bounded work ---

DATA = files("skylog") / "data"


def shipped_env(seed=7):
    return load_environment(DATA / "threecell.env")._replace(seed=seed)


def shipped_plan():
    return load_flight_plan(DATA / "climb.plan")


def reference_position(plan, t_s):
    """The walk before the leg table: every leg length recomputed per call."""
    t = float(t_s)
    wps = plan.waypoints
    for i, w in enumerate(wps):
        if t < w.hover_s:
            return w.pos
        t -= w.hover_s
        if i + 1 == len(wps):
            break
        a, b = w.pos, wps[i + 1].pos
        leg_s = simenv._leg_length_m(a, b) / w.speed_mps
        if t < leg_s:
            f = t / leg_s if leg_s > 0 else 1.0
            agl = None
            if a.alt_m_agl is not None and b.alt_m_agl is not None:
                agl = a.alt_m_agl + (b.alt_m_agl - a.alt_m_agl) * f
            return GeoPosition(lat_deg=a.lat_deg + (b.lat_deg - a.lat_deg) * f,
                               lon_deg=a.lon_deg + (b.lon_deg - a.lon_deg) * f,
                               alt_m_amsl=a.alt_m_amsl + (b.alt_m_amsl - a.alt_m_amsl) * f,
                               alt_m_agl=agl)
        t -= leg_s
    return wps[-1].pos


def reference_raw(env, pos):
    """_Radio.sample before the draw cache: per station, its own voxel,
    LoS probability, 1 m loss and two fresh digests.  The same (ranked, rssi,
    sinr): ranked holds (station index, power dBm, rsrq dB), serving first."""
    powers = []
    for st in env.stations:
        anchor = env.stations[0].site_pos
        x, y = tangent_forward(anchor.lat_deg, anchor.lon_deg, pos.lat_deg, pos.lon_deg)
        agl = pos.alt_m_agl if pos.alt_m_agl is not None else 0.0
        vox = (math.floor(x / simenv.VOXEL_M), math.floor(y / simenv.VOXEL_M),
               math.floor(agl / simenv.VOXEL_M))
        p_los = min(max(simenv.LOS_P_FLOOR + (1.0 - simenv.LOS_P_FLOOR) * agl
                        / simenv.LOS_P_FULL_AT_M, simenv.LOS_P_FLOOR), 1.0)
        u = simenv._uniform(b"skylog.los", env.seed, st.cell_id, *vox)
        z = simenv._std_normal(b"skylog.shadow", env.seed, st.cell_id, *vox)
        n = env.n_los if u < p_los else env.n_nlos
        d = station_distance_m(st, pos)
        loss = fspl_1m_db(env.freq_hz) + 10.0 * n * math.log10(d) + env.shadow_sigma_db * z
        powers.append(st.eirp_dbm - loss)

    def strongest(k):
        return -powers[k], env.stations[k].pci

    serving = min(range(len(powers)), key=strongest)
    p_serv = powers[serving]
    noise_mw = 10.0 ** (env.noise_dbm / 10.0)
    total_mw = 0.0
    for p in powers:
        total_mw += 10.0 ** (p / 10.0)
    total_mw += noise_mw
    rssi = 10.0 * math.log10(total_mw)
    prb_gain = 10.0 * math.log10(env.n_prb)
    interference_mw = total_mw - noise_mw - 10.0 ** (p_serv / 10.0)
    sinr = p_serv - 10.0 * math.log10(interference_mw + noise_mw)
    rest = sorted((k for k in range(len(powers)) if k != serving), key=strongest)
    return [(k, powers[k], prb_gain + powers[k] - rssi) for k in (serving, *rest)], rssi, sinr


def test_flight_position_exact_on_shipped_plan():
    plan = shipped_plan()
    duration = math.ceil(plan_duration_s(plan))
    assert duration == 2060
    for t in range(duration):
        assert flight_position(plan, t) == reference_position(plan, t)


def test_plan_duration_exact_on_shipped_plan():
    plan = shipped_plan()
    total = sum(w.hover_s for w in plan.waypoints)
    for a, b in zip(plan.waypoints, plan.waypoints[1:]):
        total += simenv._leg_length_m(a.pos, b.pos) / a.speed_mps
    assert plan_duration_s(plan) == total


waypoint_args = hst.tuples(
    hst.floats(-2000.0, 2000.0), hst.floats(-2000.0, 2000.0), hst.floats(0.0, 122.0),
    hst.floats(0.5, 30.0), hst.floats(0.0, 60.0))


@settings(max_examples=150, deadline=None)
@given(args=hst.lists(waypoint_args, min_size=1, max_size=6),
       fractions=hst.lists(hst.floats(0.0, 1.1), min_size=1, max_size=20))
def test_flight_position_exact_on_generated_plans(args, fractions):
    plan = FlightPlan(waypoints=tuple(wp(x, y, agl, speed=v, hover=h)
                                      for x, y, agl, v, h in args))
    duration = plan_duration_s(plan)
    for f in fractions:
        t = f * duration
        assert flight_position(plan, t) == reference_position(plan, t)


def test_radio_core_exact_over_seed7_flight():
    env, plan = shipped_env(), shipped_plan()
    positions = [flight_position(plan, t) for t in range(2060)]
    sample = simenv._Radio(env).sample
    simenv._voxel_draws.cache_clear()
    for _pass in ("cold cache", "warm cache"):
        for pos in positions:
            assert sample(pos) == reference_raw(env, pos)


def _reference_cells(env, pos):
    """A row's cell part as the per-call formulas give it: reference_raw with
    every metric clamped into its reportable range, the strongest
    MAX_NEIGHBORS others as neighbors; DistanceTooSmall, naming the first
    station in order within 1 m, when there is one."""
    near = [d for d in (station_distance_m(st, pos) for st in env.stations) if d < 1.0]
    if near:
        raise DistanceTooSmall(f"distance {near[0]:.3f} m below 1 m reference")
    ((k, p, q), *rest), rssi, sinr = reference_raw(env, pos)

    def clamp(value, name):
        lo, hi = DB_FIELD_RANGES[name]
        return min(max(value, lo), hi)

    st, rssi = env.stations[k], clamp(rssi, "rssi_dbm")
    return (st.earfcn, st.pci, st.cell_id, st.tac, clamp(p, "rsrp_dbm"),
            clamp(q, "rsrq_db"), rssi, clamp(sinr, "sinr_db"),
            tuple((env.stations[n].earfcn, env.stations[n].pci, clamp(p_n, "rsrp_dbm"),
                   clamp(q_n, "rsrq_db"), rssi)
                  for n, p_n, q_n in rest[:MAX_NEIGHBORS]))


def _outcome(fn, pos):
    try:
        return repr(fn(pos))  # repr tells every float bit apart, -0.0 included
    except DistanceTooSmall as exc:
        return f"DistanceTooSmall: {exc}"


def test_tick_cells_are_the_clamped_reference_over_20_seeds():
    """The tick's one radio function, with its per-environment constants,
    gives the per-call formulas' values bit for bit at every second of the
    shipped plan for seeds 1-20, and refuses the same positions: on, within
    and just beyond 1 m of each mast."""
    base, plan = shipped_env(), shipped_plan()
    positions = [flight_position(plan, t) for t in range(2060)]
    for st in base.stations:
        site = st.site_pos
        positions += [site._replace(alt_m_amsl=site.alt_m_amsl + dz,
                                      alt_m_agl=site.alt_m_agl + dz)
                      for dz in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0)]
    refused = 0
    for seed in range(1, 21):
        env = base._replace(seed=seed)
        cells = SimModemBackend(env).poll_cells
        for pos in positions:
            want = _outcome(partial(_reference_cells, env), pos)
            assert _outcome(cells, pos) == want
            refused += want.startswith("DistanceTooSmall")
    assert refused == 20 * 3 * 3


def test_draw_cache_shared_by_threads_stays_exact():
    """The e2e worker samples on its own thread through the same draw cache.
    Threads racing on the same keys, switching as often as the interpreter
    allows, must still get the per-call reference every time."""
    env, plan = shipped_env(), shipped_plan()
    positions = [flight_position(plan, t) for t in (0, 700, 1400)]
    expected = [reference_raw(env, pos) for pos in positions]
    mismatches = []
    radio = simenv._Radio(env)

    def sample(offset):
        for k in range(1500):
            i = (k + offset) % len(positions)
            if radio.sample(positions[i]) != expected[i]:
                mismatches.append(i)

    simenv._voxel_draws.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sample, args=(n,)) for n in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_radio_sample_refuses_within_1m_of_any_mast():
    far = station_at(900, -450, pci=101, cell_id=1)
    near = station_at(0, 0, antenna_m=30.0, pci=47, cell_id=3)
    for stations in ([near], [far, near]):
        env = env_with(stations, seed=7)
        with pytest.raises(DistanceTooSmall):
            radio_sample(env, uav_at(0, 0.5, 30.0))


def test_tick_work_is_bounded(tmp_path, monkeypatch):
    """One whole seed-7 flight of climb.plan, e2e on, counts pure work: the
    leg table and the per-voxel draw cache must keep it per-sample small.
    Only deterministic counts are checked, no timing."""
    env, plan = shipped_env(), shipped_plan()
    duration = math.ceil(plan_duration_s(plan))
    simenv._voxel_draws.cache_clear()
    counts = Counter()
    lock = threading.Lock()
    keys = set()  # (cell_id, voxel) of every draw asked for
    draws = simenv._voxel_draws

    def drawn(seed, cell_id, *voxel):
        with lock:
            keys.add((cell_id, voxel))
        return draws(seed, cell_id, *voxel)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("tangent_forward", "_digest", "_leg_length_m"):
        monkeypatch.setattr(simenv, name, counted(name, getattr(simenv, name)))
    # The tick and the e2e engine sample through _Radio.cells.
    monkeypatch.setattr(simenv._Radio, "cells", counted("radio_sample", simenv._Radio.cells))
    monkeypatch.setattr(simenv, "_voxel_draws", drawn)
    cfg = CollectorConfig(output_dir=str(tmp_path), duration_s=duration, e2e_interval_s=60)
    summary = run_collection(cfg, SimClock(), SimModemBackend(env),
                             partial(flight_position, plan), e2e_engine=SimE2eEngine(env))
    stations = len(env.stations)
    e2e_tests = summary.e2e_tests_run
    assert (summary.records_written, summary.polls_failed, e2e_tests) == (duration, 0, 35)
    assert counts["_leg_length_m"] == 0
    # One sample per tick plus one per e2e test, each projecting the voxel
    # once and each station's distance once.
    assert counts["radio_sample"] == duration + e2e_tests
    assert counts["tangent_forward"] <= (stations + 1) * counts["radio_sample"]
    # The flight's distinct 10 m voxels in station 0's projection, each drawn
    # for every station.
    voxels = {voxel for _, voxel in keys}
    assert len(voxels) == 369
    assert len(keys) == stations * len(voxels)
    # Two digests per (station, voxel) and one RTT jitter draw per e2e test;
    # without the cache this is six per sample.
    assert counts["_digest"] <= 2 * stations * len(voxels) + e2e_tests


def test_draws_hash_with_hashlibs_blake2b():
    """simenv takes blake2b from _blake2 to keep hashlib out; it must stay the
    very function hashlib.blake2b is, so the oracle below tests what the
    simulator calls."""
    assert simenv.blake2b is hashlib.blake2b


def _incremental_digest(domain, seed, *ints):
    """The seeded draw's hash fed one field at a time."""
    h = hashlib.blake2b(digest_size=16, person=domain)
    h.update(struct.pack(">Q", seed & 0xFFFFFFFFFFFFFFFF))
    for v in ints:
        h.update(struct.pack(">q", v))
    return h.digest()


def test_one_shot_digest_hashes_the_incremental_bytes():
    """For seeds the 64-bit mask folds (negative, 2**64 and above) and
    negative ints too."""
    seeds = [0, 7, -1, -(2**63), 2**63, 2**64 - 1, 2**64, 2**64 + 7, 3 * 2**70 - 5]
    int_lists = [(), (0,), (12,), (-3, 41, -7, 0, 2**63 - 1), (-(2**63), 1, -1)]
    for domain in (b"skylog.los", b"skylog.shadow", b"skylog.e2ejit", b""):
        for seed in seeds:
            for ints in int_lists:
                assert simenv._digest(domain, seed, *ints) == _incremental_digest(domain, seed, *ints), \
                    (domain, seed, ints)
