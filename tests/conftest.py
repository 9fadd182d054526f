import pytest

from skylog.records import (
    EndToEndRecord,
    GeoPosition,
    Invalid,
    MeasurementRecord,
    NeighborCellSample,
    RttSummary,
    ServingCellSample,
)


def make_serving(**over) -> ServingCellSample:
    base = dict(earfcn=1300, pci=101, cell_id=0x1A2B3C, tac=4321,
                rsrp_dbm=-95.0, rsrq_db=-11.5, rssi_dbm=-70.0, sinr_db=12.5)
    base.update(over)
    return ServingCellSample(**base)


def make_neighbor(**over) -> NeighborCellSample:
    base = dict(earfcn=1300, pci=202, rsrp_dbm=-101.5, rsrq_db=-14.0, rssi_dbm=-70.0)
    base.update(over)
    return NeighborCellSample(**base)


def make_record(**over) -> MeasurementRecord:
    base = dict(
        ts_unix_ms=1_700_000_000_000,
        pos=GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=650.0, alt_m_agl=50.0),
        serving=make_serving(),
        neighbors=(make_neighbor(),),
        source="sim",
    )
    base.update(over)
    return MeasurementRecord(**base)


def make_e2e(**over) -> EndToEndRecord:
    base = dict(
        ts_unix_ms=1_700_000_000_000,
        pos=GeoPosition(lat_deg=40.0, lon_deg=-100.0, alt_m_amsl=650.0),
        rtt=RttSummary(sent=20, received=19, min_ms=31.2, mean_ms=44.8,
                       p50_ms=42.0, max_ms=88.1, loss_fraction=1 / 20),
        dl_mbps=24.6,
        ul_mbps=9.1,
        duration_s=5.0,
    )
    base.update(over)
    return EndToEndRecord(**base)


def violation(check, *args):
    """(field, message) of the Invalid that check(*args) raises, or None
    when the check passes."""
    try:
        check(*args)
    except Invalid as exc:
        return exc.field, str(exc)
    return None


@pytest.fixture
def record():
    return make_record()


@pytest.fixture
def e2e_record():
    return make_e2e()
