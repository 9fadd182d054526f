"""Hypothesis strategies for records with arbitrary field values.

Shared by the equivalence tests of the fixed-layout writers (the trace line
and the GeoJSON feature).  Most drawn records are plain, so the fast paths
run; up to two fields of a record hold an odd value instead, one that a fast
path must either render exactly as json.dumps does or leave to its reference
path.
"""

import math

from hypothesis import strategies as st

from skylog.records import (
    DB_FIELD_RANGES,
    MAX_NEIGHBORS,
    NEIGHBOR_FIELDS,
    SERVING_FIELDS,
    SOURCES,
    GeoPosition,
    MeasurementRecord,
    NeighborCellSample,
    ServingCellSample,
)


class ReprFloat(float):
    """A float whose repr is not float.__repr__; json.dumps ignores it."""

    def __repr__(self):
        return "ReprFloat()"


class StrSource(str):
    """A str equal to its value but printing as something else; json.dumps
    writes the value."""

    def __str__(self):
        return "not-the-source"


FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-07, 0.05, -0.05, 1.25]),
)
_ODD_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.integers(),
    FINITE_FLOATS.map(ReprFloat),
)

# kind -> (plain values, odd values).  A dB field's odd values must survive
# round(x, 1), so only the position fields may be null.
_VALUES = {
    "int": (st.integers(), st.one_of(st.booleans(), FINITE_FLOATS)),
    "float": (FINITE_FLOATS, st.one_of(_ODD_NUMBERS, st.none())),
    "db": (FINITE_FLOATS, _ODD_NUMBERS),
    "source": (st.sampled_from(SOURCES), st.one_of(
        st.sampled_from(['sim"', "hw\\", "é𝄞", "\x00\n", StrSource("sim"), StrSource("hw")]),
        st.text())),
}

_POSITION_FIELDS = GeoPosition._fields


def _kind(name: str) -> str:
    if name in DB_FIELD_RANGES:
        return "db"
    if name in _POSITION_FIELDS:
        return "float"
    return "source" if name == "source" else "int"


@st.composite
def any_records(draw) -> MeasurementRecord:
    """A record with 0 to 8 neighbors whose fields are plain values, except
    for up to two numbers and, in a quarter of the records, the source,
    drawn from that field's odd values."""
    n = draw(st.integers(0, MAX_NEIGHBORS))
    slots = [("rec", "ts_unix_ms"),
             *(("pos", name) for name in _POSITION_FIELDS),
             *(("serving", name) for name in SERVING_FIELDS),
             *((i, name) for i in range(n) for name in NEIGHBOR_FIELDS)]
    odd = draw(st.sets(st.sampled_from(slots), max_size=2))
    # One slot among up to 44 would rarely be the source; give it a quarter.
    if draw(st.integers(0, 3)) == 0:
        odd.add(("rec", "source"))
    slots.append(("rec", "source"))
    value = {slot: draw(_VALUES[_kind(slot[1])][slot in odd]) for slot in slots}

    def part(key, cls, layout):
        return cls(*(value[key, name] for name in layout))

    return MeasurementRecord(
        ts_unix_ms=value["rec", "ts_unix_ms"],
        pos=part("pos", GeoPosition, _POSITION_FIELDS),
        serving=part("serving", ServingCellSample, SERVING_FIELDS),
        neighbors=tuple(part(i, NeighborCellSample, NEIGHBOR_FIELDS) for i in range(n)),
        source=value["rec", "source"],
    )
