"""Deterministic multi-cell radio environment and flight-path generator.

Propagation is log-distance path loss with two exponents (LoS/NLoS) plus
lognormal shadowing.  Every stochastic draw is a pure function of the
environment seed and a spatial voxel, so a fixed (environment, plan, seed)
triple always produces bit-identical traces, and hovering in place yields
stable readings instead of per-sample fading.

Because the draws are pure functions of integers, they are cached per
(seed, cell, voxel) in a small bounded LRU: a hit returns the very floats a
fresh blake2b digest would give, so the cache changes no output bit.  The
aircraft stays in one 10 m voxel for several ticks, and an end-to-end test
re-samples the tick's position, so most samples hit.  Each plan likewise
keeps its leg flight times, computed once with the same float operations.

_Radio is the radio model's one API.  Built once per environment (by
SimModemBackend and SimE2eEngine), it keeps what does not depend on the
position: each station's projection scale, site, EIRP and identity, the 1 m
loss, the noise in mW and the PRB gain; station 0's projection is also the
voxel's.  Its paths method is the one copy of the propagation formula: one
flat loop over the stations, with no call per station but the cached draw.
Its sample method ranks the stations and gives RSSI and SINR, unclamped, and
its cells method gives the collector's tick the cell part of a trace row,
clamped, with no report object: SimModemBackend.poll_cells returns it as it
is.  radio_sample wraps the same cells in a ModemReport.  A draw that misses
the cache is one blake2b call over the packed seed and voxel.  blake2b comes
from _blake2, the builtin module hashlib.blake2b is itself taken from, so the
simulator never loads hashlib's OpenSSL backend.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from _blake2 import blake2b
from functools import cached_property, lru_cache, partial
from typing import NamedTuple, Optional

from .geo import EARTH_RADIUS_M, tangent_forward
from .modem import ModemReport
from .records import (
    MAX_NEIGHBORS,
    SERVING_FIELDS,
    _RSRP_HI,
    _RSRP_LO,
    _RSRQ_HI,
    _RSRQ_LO,
    _RSSI_HI,
    _RSSI_LO,
    _SINR_HI,
    _SINR_LO,
    GeoPosition,
    NeighborCellSample,
    RttSummary,
    ServingCellSample,
    _check_fields,
    _checks,
    get_field,
    position_from_doc,
    scalar_fields,
    validate_position,
)

LIGHT_SPEED_M_S = 299792458.0

# 400 ft flight ceiling, as flown.
PLAN_AGL_CEILING_M = 122.0

VOXEL_M = 10.0          # shadowing / LoS coherence cell, ground and altitude
LOS_P_FLOOR = 0.15      # LoS probability on the ground
LOS_P_FULL_AT_M = 100.0  # altitude at which LoS becomes certain

DL_CAP_MBPS = 150.0     # modem rate caps, DL/UL
UL_CAP_MBPS = 50.0
E2E_RTT_COUNT = 20      # echo probes per simulated end-to-end test
E2E_TP_DURATION_S = 5.0  # seconds per simulated throughput direction
SPECTRAL_EFF_CAP = 6.0  # bit/s/Hz ceiling of the rate mapping
BANDWIDTH_MHZ = 10.0
DL_UTILIZATION = 0.6
UL_UTILIZATION = 0.25


class ConfigError(ValueError):
    """Bad environment/plan file; carries the path and, when known, line/column."""

    def __init__(self, message: str, path=None, line: Optional[int] = None,
                 column: Optional[int] = None):
        self.path = path
        self.line = line
        self.column = column
        where = str(path) if path is not None else ""
        if line is not None:
            where += f":{line}"
            if column is not None:
                where += f":{column}"
        super().__init__(f"{where}: {message}" if where else message)


class DistanceTooSmall(ValueError):
    """UAV inside the 1 m near-field reference distance of a station."""


class BaseStation(NamedTuple):
    site_pos: GeoPosition  # antenna height above ground in alt_m_agl
    eirp_dbm: float
    earfcn: int
    pci: int
    cell_id: int
    tac: int


class RadioEnvironment(NamedTuple):
    stations: tuple[BaseStation, ...]
    n_los: float = 2.2
    n_nlos: float = 3.5
    shadow_sigma_db: float = 6.0
    n_prb: int = 50
    noise_dbm: float = -104.5
    freq_hz: float = 2.1e9
    seed: int = 0


class Waypoint(NamedTuple):
    pos: GeoPosition
    speed_mps: float  # speed on the leg leaving this waypoint
    hover_s: float = 0.0


class _PlanFields(NamedTuple):
    waypoints: tuple[Waypoint, ...]


class FlightPlan(_PlanFields):
    """A NamedTuple of waypoints.  Its leg table is kept in an instance
    __dict__, so the class refuses attribute assignment itself."""

    # Seconds to fly leg i (waypoint i to i + 1): derived once per plan, on first
    # read (a plan from _replace derives its own), and left out of ==, hash and repr.
    @cached_property
    def leg_s(self) -> tuple[float, ...]:
        wps = self.waypoints
        return tuple(_leg_length_m(a.pos, b.pos) / a.speed_mps for a, b in zip(wps, wps[1:]))

    def __setattr__(self, name, value):
        raise AttributeError(f"FlightPlan is immutable: cannot set {name!r}")


def _check_station(st: BaseStation) -> None:
    result = _check_fields(st, _checks(("earfcn", "pci", "cell_id", "tac")))
    if not result:
        raise ConfigError(f"station pci={st.pci}: {result.message}")
    if not (30.0 <= st.eirp_dbm <= 65.0):
        raise ConfigError(f"station pci={st.pci}: eirp_dbm {st.eirp_dbm} outside [30,65]")
    agl = st.site_pos.alt_m_agl
    if agl is None or not (0 < agl < math.inf):
        raise ConfigError(f"station pci={st.pci}: antenna height must be > 0 m AGL")
    # A mast may stand taller than the UAV ceiling that bounds a record's AGL.
    result = validate_position(st.site_pos._replace(alt_m_agl=None))
    if not result:
        raise ConfigError(f"station pci={st.pci}: site_pos.{result.message}")


def _check_environment(env: RadioEnvironment) -> None:
    if not env.stations:
        raise ConfigError("environment needs at least one station")
    for name in ("n_los", "n_nlos", "freq_hz"):
        if not (0 < getattr(env, name) < math.inf):
            raise ConfigError(f"{name} must be finite and > 0")
    if not (0 <= env.shadow_sigma_db < math.inf):
        raise ConfigError("shadow_sigma_db must be finite and >= 0")
    if not (-math.inf < env.noise_dbm < math.inf):
        raise ConfigError("noise_dbm must be finite")
    if not (env.n_prb >= 1):
        raise ConfigError("n_prb must be >= 1")
    for st in env.stations:
        _check_station(st)


def _check_waypoints(waypoints: tuple[Waypoint, ...]) -> None:
    if not waypoints:
        raise ConfigError("flight plan needs at least one waypoint")
    for i, wp in enumerate(waypoints):
        # Written so that NaN fails each check: every comparison with it is False.
        if not (0 < wp.speed_mps < math.inf):
            raise ConfigError(f"waypoint {i}: speed_mps must be > 0")
        if not (0 <= wp.hover_s < math.inf):
            raise ConfigError(f"waypoint {i}: hover_s must be >= 0")
        agl = wp.pos.alt_m_agl
        if agl is None:
            raise ConfigError(f"waypoint {i}: alt_m_agl required")
        if agl > PLAN_AGL_CEILING_M:
            raise ConfigError(f"waypoint {i}: alt_m_agl {agl} above {PLAN_AGL_CEILING_M} m ceiling")
        result = validate_position(wp.pos)
        if not result:
            raise ConfigError(f"waypoint {i}: {result.message}")


# ---------------------------------------------------------------------------
# Seeded draws: hash -> uniform/normal, no shared RNG state
# ---------------------------------------------------------------------------

def _digest(domain: bytes, seed: int, *ints: int) -> bytes:
    """blake2b-128 of the seed (mod 2**64, unsigned) and the ints (signed), each
    8 bytes big-endian, personalized with domain."""
    return blake2b(struct.pack(">Q" + "q" * len(ints), seed & 0xFFFFFFFFFFFFFFFF, *ints),
                   digest_size=16, person=domain).digest()


def _uniform(domain: bytes, seed: int, *ints: int) -> float:
    d = _digest(domain, seed, *ints)
    return int.from_bytes(d[:8], "big") / 2.0**64  # in [0, 1)


def _std_normal(domain: bytes, seed: int, *ints: int) -> float:
    d = _digest(domain, seed, *ints)
    u1 = (int.from_bytes(d[:8], "big") + 1) / 2.0**64   # (0, 1]
    u2 = int.from_bytes(d[8:16], "big") / 2.0**64
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@lru_cache(maxsize=512)
def _voxel_draws(seed: int, cell_id: int, vx: int, vy: int, vz: int) -> tuple[float, float]:
    """(u, z) of one cell in one voxel: the LoS uniform and the shadowing
    normal.  Pure in its integer arguments, so the cache is exact."""
    return (_uniform(b"skylog.los", seed, cell_id, vx, vy, vz),
            _std_normal(b"skylog.shadow", seed, cell_id, vx, vy, vz))


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def fspl_1m_db(freq_hz: float) -> float:
    """Free-space path loss at the 1 m reference distance."""
    return 20.0 * math.log10(4.0 * math.pi * freq_hz / LIGHT_SPEED_M_S)


def station_distance_m(station: BaseStation, pos: GeoPosition) -> float:
    """3D separation; vertical from AGL so no terrain model is needed."""
    site = station.site_pos
    dx, dy = tangent_forward(site.lat_deg, site.lon_deg, pos.lat_deg, pos.lon_deg)
    uav_agl = pos.alt_m_agl if pos.alt_m_agl is not None else 0.0
    dz = uav_agl - (site.alt_m_agl or 0.0)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _los_probability(pos: GeoPosition) -> float:
    """P(LoS) grows with UAV altitude: clamp(0.15 + 0.85*(agl/100), 0.15, 1.0)."""
    agl = pos.alt_m_agl if pos.alt_m_agl is not None else 0.0
    return min(max(LOS_P_FLOOR + (1.0 - LOS_P_FLOOR) * agl / LOS_P_FULL_AT_M, LOS_P_FLOOR), 1.0)


# ---------------------------------------------------------------------------
# Radio sampling
# ---------------------------------------------------------------------------

def _linear_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


_SINR = SERVING_FIELDS.index("sinr_db")


class _Radio:
    """The radio model of one environment, with everything that does not
    depend on the position computed once: each station's projection scale,
    site, EIRP and identity, the 1 m loss, the noise in mW and the PRB gain.
    Every float comes from the same operations, in the same order, as the
    per-call formulas (geo.tangent_forward, station_distance_m), so a sample
    is bit-identical to one computed from scratch."""

    def __init__(self, env: RadioEnvironment):
        self.env = env
        # What paths reads of a station: the cos of its site latitude (the
        # projection scale), its site, antenna height and cell_id.
        self._links = tuple((math.cos(math.radians(st.site_pos.lat_deg)), st.site_pos.lat_deg,
                             st.site_pos.lon_deg, st.site_pos.alt_m_agl or 0.0, st.cell_id)
                            for st in env.stations)
        self._eirps = tuple(st.eirp_dbm for st in env.stations)
        self._ids = tuple((st.earfcn, st.pci, st.cell_id, st.tac) for st in env.stations)
        self._pcis = tuple(st.pci for st in env.stations)
        self._fspl_db = fspl_1m_db(env.freq_hz)
        self._ten_n = (10.0 * env.n_nlos, 10.0 * env.n_los)  # indexed by line of sight
        self._noise_mw = _linear_mw(env.noise_dbm)
        self._prb_gain = 10.0 * math.log10(env.n_prb)

    def paths(self, pos: GeoPosition) -> list:
        """(line of sight, shadowing dB, path loss dB) of each station, in
        station order, seen from pos: log-distance with the LoS or NLoS
        exponent, plus the voxel's shadowing.  The voxel is the 10 m cell of
        pos in station 0's projection.  DistanceTooSmall names the first
        station within 1 m."""
        lat, lon = pos.lat_deg, pos.lon_deg
        agl = pos.alt_m_agl if pos.alt_m_agl is not None else 0.0
        los_p = _los_probability(pos)
        seed, sigma = self.env.seed, self.env.shadow_sigma_db
        fspl, ten_n = self._fspl_db, self._ten_n
        out = []
        voxel = None
        for scale, site_lat, site_lon, site_agl, cell_id in self._links:
            # geo.tangent_forward from this site.
            dx = math.radians(lon - site_lon) * EARTH_RADIUS_M * scale
            dy = math.radians(lat - site_lat) * EARTH_RADIUS_M
            if voxel is None:
                voxel = (math.floor(dx / VOXEL_M), math.floor(dy / VOXEL_M), math.floor(agl / VOXEL_M))
            dz = agl - site_agl
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d < 1.0:
                raise DistanceTooSmall(f"distance {d:.3f} m below 1 m reference")
            u, z = _voxel_draws(seed, cell_id, *voxel)
            los, shadow = u < los_p, sigma * z
            out.append((los, shadow, fspl + ten_n[los] * math.log10(d) + shadow))
        return out

    def sample(self, pos: GeoPosition) -> tuple[list, float, float]:
        """(ranked, rssi, sinr) at pos, unclamped.  ranked holds one
        (station index, received power dBm, rsrq dB) per station, strongest
        first, ties to the lowest pci: its head is the serving cell and its
        tail the neighbors."""
        powers = [eirp - loss for eirp, (_, _, loss) in zip(self._eirps, self.paths(pos))]
        linear = [10.0 ** (p / 10.0) for p in powers]
        # Left to right in station order on purpose: sum() of floats compensates
        # from Python 3.12 on, which moves the last bit and so the trace bytes
        # between versions.
        total_mw = 0.0
        for mw in linear:
            total_mw += mw
        noise_mw = self._noise_mw
        total_mw += noise_mw
        rssi = 10.0 * math.log10(total_mw)
        # (-power, pci, station index): the index keeps equal keys in station
        # order, as a stable sort on (-power, pci) would.
        order = sorted(zip(map(operator.neg, powers), self._pcis, range(len(powers))))
        serving = order[0][2]
        p_serv = powers[serving]
        interference_mw = total_mw - noise_mw - linear[serving]
        sinr = p_serv - 10.0 * math.log10(interference_mw + noise_mw)
        prb_gain = self._prb_gain
        return [(k, powers[k], prb_gain + powers[k] - rssi) for _, _, k in order], rssi, sinr

    def cells(self, pos: GeoPosition) -> tuple:
        """The cell part of the ROW_FIELDS row sampled at pos (records._cells_of's
        layout): the serving fields, then the strongest MAX_NEIGHBORS others as
        neighbor tuples, each metric clamped into its reportable range (a
        conditional expression gives min(max(x, lo), hi)'s float, NaN included)."""
        ranked, rssi, sinr = self.sample(pos)
        k, p, q = ranked[0]
        rssi = _RSSI_LO if rssi < _RSSI_LO else _RSSI_HI if rssi > _RSSI_HI else rssi
        ids = self._ids
        return (*ids[k],
                _RSRP_LO if p < _RSRP_LO else _RSRP_HI if p > _RSRP_HI else p,
                _RSRQ_LO if q < _RSRQ_LO else _RSRQ_HI if q > _RSRQ_HI else q,
                rssi,
                _SINR_LO if sinr < _SINR_LO else _SINR_HI if sinr > _SINR_HI else sinr,
                tuple([(*ids[n][:2],
                        _RSRP_LO if p_n < _RSRP_LO else _RSRP_HI if p_n > _RSRP_HI else p_n,
                        _RSRQ_LO if q_n < _RSRQ_LO else _RSRQ_HI if q_n > _RSRQ_HI else q_n,
                        rssi)
                       for n, p_n, q_n in ranked[1:MAX_NEIGHBORS + 1]]))


def radio_sample(env: RadioEnvironment, pos: GeoPosition) -> ModemReport:
    """Sample the environment at a position, clamped into reportable ranges."""
    *serving, neighbors = _Radio(env).cells(pos)
    return ModemReport(ServingCellSample(*serving), tuple(NeighborCellSample(*n) for n in neighbors))


# ---------------------------------------------------------------------------
# Flight path
# ---------------------------------------------------------------------------

def _lerp_pos(a: GeoPosition, b: GeoPosition, f: float) -> GeoPosition:
    agl = None
    if a.alt_m_agl is not None and b.alt_m_agl is not None:
        agl = a.alt_m_agl + (b.alt_m_agl - a.alt_m_agl) * f
    return GeoPosition(lat_deg=a.lat_deg + (b.lat_deg - a.lat_deg) * f,
                       lon_deg=a.lon_deg + (b.lon_deg - a.lon_deg) * f,
                       alt_m_amsl=a.alt_m_amsl + (b.alt_m_amsl - a.alt_m_amsl) * f,
                       alt_m_agl=agl)


def _leg_length_m(a: GeoPosition, b: GeoPosition) -> float:
    dx, dy = tangent_forward(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)
    dz = b.alt_m_amsl - a.alt_m_amsl
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def flight_position(plan: FlightPlan, t_s: float) -> GeoPosition:
    """Position at t seconds into the plan: hover at each waypoint, then fly
    the leg to the next at the departing waypoint's speed.  Past the end,
    the aircraft holds the final waypoint."""
    if not 0 <= t_s < math.inf:
        raise ValueError("t_s must be finite and >= 0")
    t = float(t_s)
    wps = plan.waypoints
    # One subtraction per hover and per leg, in flight order: pre-summed
    # segment start times would round differently and move positions.
    for i, leg_s in enumerate(plan.leg_s):
        wp = wps[i]
        if t < wp.hover_s:
            return wp.pos
        t -= wp.hover_s
        if t < leg_s:
            return _lerp_pos(wp.pos, wps[i + 1].pos, t / leg_s if leg_s > 0 else 1.0)
        t -= leg_s
    return wps[-1].pos


def plan_duration_s(plan: FlightPlan) -> float:
    total = sum(wp.hover_s for wp in plan.waypoints)
    for leg_s in plan.leg_s:
        total += leg_s
    return total


# ---------------------------------------------------------------------------
# End-to-end synthesis
# ---------------------------------------------------------------------------

def synth_e2e(env: RadioEnvironment, sinr_db: float, salt: int = 0) -> tuple[float, float, float]:
    """Map SINR to (dl_mbps, ul_mbps, rtt_ms) through a capped Shannon rate.

    Assumes a 10 MHz carrier at 60%/25% effective DL/UL utilization, capped
    at the modem's 150/50 Mbps rates.  RTT gets a seeded jitter in [0, 20) ms;
    salt distinguishes successive tests under one seed.
    """
    s = min(math.log2(1.0 + _linear_mw(sinr_db)), SPECTRAL_EFF_CAP)
    dl = min(DL_CAP_MBPS, BANDWIDTH_MHZ * s * DL_UTILIZATION)
    ul = min(UL_CAP_MBPS, BANDWIDTH_MHZ * s * UL_UTILIZATION)
    jitter = 20.0 * _uniform(b"skylog.e2ejit", env.seed, salt)
    rtt_ms = 40.0 + 2000.0 / max(dl, 0.5) + jitter
    return dl, ul, rtt_ms


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _load_doc(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc), path=path) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(exc.msg, path=path, line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # an integer literal beyond sys.get_int_max_str_digits()
        raise ConfigError(str(exc), path=path) from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object", path=path, line=1)
    return doc


def _key_error(path, name: str, missing: bool) -> ConfigError:
    if missing:
        return ConfigError(f"missing key '{name}'", path=path)
    return ConfigError(f"key '{name}' has wrong type", path=path)


def environment_from_doc(doc: dict, path=None) -> RadioEnvironment:
    fail = partial(_key_error, path)
    stations_doc = get_field(doc, "stations", list, fail)
    stations = []
    for i, st_doc in enumerate(stations_doc):
        where = f"stations[{i}]."
        if not isinstance(st_doc, dict):
            raise fail(f"stations[{i}]", False)
        site_doc = get_field(st_doc, "site_pos", dict, fail, where)
        stations.append(BaseStation(site_pos=position_from_doc(site_doc, fail, where + "site_pos."),
                                    **scalar_fields(BaseStation, st_doc, fail, where)))
    env = RadioEnvironment(stations=tuple(stations), **scalar_fields(RadioEnvironment, doc, fail))
    try:
        _check_environment(env)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=path) from None
    return env


def plan_from_doc(doc: dict, path=None) -> FlightPlan:
    fail = partial(_key_error, path)
    wps_doc = get_field(doc, "waypoints", list, fail)
    waypoints = []
    for i, wp_doc in enumerate(wps_doc):
        where = f"waypoints[{i}]."
        if not isinstance(wp_doc, dict):
            raise fail(f"waypoints[{i}]", False)
        pos_doc = get_field(wp_doc, "pos", dict, fail, where)
        waypoints.append(Waypoint(pos=position_from_doc(pos_doc, fail, where + "pos."),
                                  **scalar_fields(Waypoint, wp_doc, fail, where)))
    waypoints = tuple(waypoints)
    try:
        # Before the plan exists: a zero speed would fail its leg table.
        _check_waypoints(waypoints)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=path) from None
    return FlightPlan(waypoints=waypoints)


def load_environment(path) -> RadioEnvironment:
    return environment_from_doc(_load_doc(path), path=path)


def load_flight_plan(path) -> FlightPlan:
    return plan_from_doc(_load_doc(path), path=path)


# ---------------------------------------------------------------------------
# Simulated backend
# ---------------------------------------------------------------------------

class SimModemBackend:
    """Modem backend that samples the simulated environment at the position
    it is polled with; poll_cells gives the row's cell part without building
    a report."""

    descriptor = "sim"

    def __init__(self, env: RadioEnvironment):
        _check_environment(env)
        self.env = env
        self._radio = _Radio(env)

    def poll_cells(self, pos: GeoPosition) -> tuple:
        return self._radio.cells(pos)


class SimE2eEngine:
    """End-to-end engine that derives service quality from the local SINR
    instead of touching the network."""

    def __init__(self, env: RadioEnvironment):
        _check_environment(env)
        self.env = env
        self._radio = _Radio(env)

    def measure(self, pos: GeoPosition, salt: int):
        sinr_db = self._radio.cells(pos)[_SINR]
        dl, ul, rtt_ms = synth_e2e(self.env, sinr_db, salt=salt)
        rtt = RttSummary(sent=E2E_RTT_COUNT, received=E2E_RTT_COUNT,
                         min_ms=rtt_ms, mean_ms=rtt_ms, p50_ms=rtt_ms, max_ms=rtt_ms,
                         loss_fraction=0.0)
        return rtt, dl, ul, E2E_TP_DURATION_S


__all__ = [
    "BaseStation", "RadioEnvironment", "Waypoint", "FlightPlan",
    "ConfigError", "DistanceTooSmall", "fspl_1m_db", "station_distance_m",
    "radio_sample", "flight_position", "plan_duration_s",
    "synth_e2e", "load_environment", "load_flight_plan",
    "environment_from_doc", "plan_from_doc", "SimModemBackend", "SimE2eEngine",
    "PLAN_AGL_CEILING_M", "VOXEL_M",
]
