"""Modem backend contract and the line-oriented modem report grammar.

The grammar is a vendor-neutral stand-in for a proprietary modem query
protocol.  "+SRV"/"+NBR" prefixes echo AT-style unsolicited result codes so
a hardware backend can be a thin translation layer:

    response   = serving-line *8(neighbor-line) ok-line / error-line
    serving-line  = "+SRV: " earfcn "," pci "," cellid "," tac "," db1 "," db1 "," db1 "," db1 CRLF
    neighbor-line = "+NBR: " earfcn "," pci "," db1 "," db1 "," db1 CRLF
    ok-line    = "OK" CRLF
    error-line = "ERROR: " 1*3DIGIT CRLF
    db1        = ["-"] 1*3DIGIT "." DIGIT

ASCII only, CRLF line endings, byte-exact.  The parser keeps one offset
into the text; a failure works out its 1-based line and column from it.

A backend has one method, poll_cells: the next report as the cell part of
a trace row, which the collector's tick spreads into its row as it is.  A
hardware backend would return records._cells_of of parse_report's
ModemReport; the simulator's radio core builds the cells directly, and
ReplayBackend slices them from the rows records.iter_rows streams, so
neither builds a report or record object.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Protocol, Union, runtime_checkable

from .records import (
    _POSITION_ROW,
    _SERVING_ROW,
    DB_FIELD_RANGES,
    MAX_NEIGHBORS,
    NEIGHBOR_FIELDS,
    SERVING_FIELDS,
    GeoPosition,
    Invalid,
    NeighborCellSample,
    ServingCellSample,
    iter_rows,
    validate_cells,
)


class ReportSyntaxError(ValueError):
    """Input violates the report grammar; 1-based line/column plus the expected token."""

    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


class RangeError(ValueError):
    """Grammar-valid report with a field value outside its permitted range."""

    def __init__(self, field: str, value):
        self.field = field
        self.value = value
        super().__init__(f"{field} out of range: {value!r}")


class ModemError(Exception):
    """The modem answered with an ERROR line carrying this code."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"modem error {code}")


class ReplayExhausted(Exception):
    """Replay backend has yielded every record in its file."""


class ModemReport(NamedTuple):
    """One poll result: serving cell plus neighbor list, not yet geo-tagged."""

    serving: ServingCellSample
    neighbors: tuple[NeighborCellSample, ...] = ()


@runtime_checkable
class ModemBackend(Protocol):
    """Polled by exactly one collector task at a time; poll order is the report order."""

    descriptor: str

    def poll_cells(self, pos: GeoPosition) -> tuple:
        """Next report as the cell part of a trace row (records._cells_of's
        layout: the serving fields, then a tuple of neighbor tuples), tagged
        with pos: a simulator samples there, a hardware driver ignores it."""


def _validate_report(report: ModemReport) -> None:
    try:
        validate_cells(report.serving, report.neighbors)
    except Invalid as exc:
        raise RangeError(exc.field, exc.value) from None


def _syntax_error(text: str, pos: int, expected: str) -> ReportSyntaxError:
    """The error for text at offset pos: its line is 1 plus the LFs before
    pos, its column 1 plus the characters since the last of them."""
    return ReportSyntaxError(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos), expected)


class _Scanner:
    """Character cursor over the text; a failure works out its 1-based line
    and column from the offset it stopped at."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, expected: str):
        raise _syntax_error(self.text, self.pos, expected)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def looking_at(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def expect(self, literal: str, expected: Optional[str] = None) -> None:
        # Advances to the first character that differs, so a failure points there.
        for ch in literal:
            if not self.looking_at(ch):
                self.fail(expected or f"'{literal}'")
            self.pos += 1

    def expect_crlf(self) -> None:
        if not self.looking_at("\r\n"):
            self.fail("CRLF")
        self.pos += 2

    def take_digits(self, max_digits: Optional[int] = None) -> str:
        start = self.pos
        # _to_text made the text ASCII, where isdigit means 0-9 alone.
        while not self.at_end() and self.text[self.pos].isdigit():
            if max_digits is not None and self.pos - start == max_digits:
                break
            self.pos += 1
        if self.pos == start:
            self.fail("digit")
        return self.text[start:self.pos]

    def take_uint(self) -> int:
        # Sign characters are refused here: unsigned fields carry bare digits.
        return int(self.take_digits())

    def take_db1(self) -> float:
        start = self.pos
        if self.looking_at("-"):
            self.pos += 1
        self.take_digits(max_digits=3)
        self.expect(".", expected="'.'")
        self.take_digits(max_digits=1)
        return float(self.text[start:self.pos])


def _to_text(raw: Union[bytes, bytearray, str]) -> str:
    data = raw.encode("utf-8", errors="surrogatepass") if isinstance(raw, str) else bytes(raw)
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # latin-1 gives one character per byte, so the column counts bytes.
        raise _syntax_error(data.decode("latin-1"), exc.start, "ASCII character") from None


def _parse_cell(sc: _Scanner, prefix: str, cls, layout):
    """One "+SRV: " or "+NBR: " line: the layout's fields, comma-separated."""
    sc.expect(prefix)
    values = []
    for i, name in enumerate(layout):
        if i:
            sc.expect(",", "','")
        values.append(sc.take_db1() if name in DB_FIELD_RANGES else sc.take_uint())
    sc.expect_crlf()
    return cls(*values)


def _render_cell(prefix: str, cell, layout) -> str:
    # Formatted by field, not by value: a dB field holding an int still gets one decimal.
    return prefix + ",".join(f"{getattr(cell, name):.1f}" if name in DB_FIELD_RANGES
                             else f"{getattr(cell, name)}" for name in layout)


def parse_report(raw: Union[bytes, bytearray, str]) -> ModemReport:
    """Parse one complete modem response.

    Raises ReportSyntaxError on grammar violations, RangeError when a field
    is outside its permitted range, ModemError when the response is an
    ERROR line.
    """
    sc = _Scanner(_to_text(raw))
    if sc.looking_at("ERROR"):
        sc.expect("ERROR: ")
        code = int(sc.take_digits(max_digits=3))
        sc.expect_crlf()
        if not sc.at_end():
            sc.fail("end of response")
        raise ModemError(code)
    if not sc.looking_at("+SRV"):
        sc.fail("'+SRV: ' or 'ERROR: '")
    serving = _parse_cell(sc, "+SRV: ", ServingCellSample, SERVING_FIELDS)
    neighbors = []
    while sc.looking_at("+NBR"):
        if len(neighbors) == MAX_NEIGHBORS:
            sc.fail(f"'OK' (at most {MAX_NEIGHBORS} neighbor lines)")
        neighbors.append(_parse_cell(sc, "+NBR: ", NeighborCellSample, NEIGHBOR_FIELDS))
    sc.expect("OK", "'OK' or '+NBR: '")
    sc.expect_crlf()
    if not sc.at_end():
        sc.fail("end of response")
    report = ModemReport(serving=serving, neighbors=tuple(neighbors))
    _validate_report(report)
    return report


def render_report(report: ModemReport) -> bytes:
    """Render a report in the wire grammar; inverse of parse_report."""
    _validate_report(report)
    lines = [_render_cell("+SRV: ", report.serving, SERVING_FIELDS),
             *(_render_cell("+NBR: ", n, NEIGHBOR_FIELDS) for n in report.neighbors),
             "OK"]
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


class ReplayBackend:
    """Feeds a previously recorded trace back as successive poll results.

    Also the position source of a replay run: position(t_s) is the position
    stored on the line the next poll returns, so each record keeps the
    position it was recorded with; poll_cells ignores the position it is
    given.  Both raise ReplayExhausted once every line has been polled.

    The trace is read twice and held by neither pass: the first checks every
    line, the second streams the rows, one line ahead of the collector.
    """

    descriptor = "replay"

    def __init__(self, trace_path):
        # Ingest errors (bad grammar, out-of-range fields) surface here, not on poll.
        deque(iter_rows(trace_path), maxlen=0)
        self._rows = iter_rows(trace_path)
        self._row = None
        self._polled = 0

    def _next(self) -> tuple:
        if self._row is None:
            self._row = next(self._rows, None)
            if self._row is None:
                raise ReplayExhausted(f"trace exhausted after {self._polled} reports")
        return self._row

    def poll_cells(self, pos: GeoPosition) -> tuple:
        cells = self._next()[_SERVING_ROW.start:-1]
        self._row = None
        self._polled += 1
        return cells

    def position(self, t_s: float) -> GeoPosition:
        return GeoPosition(*self._next()[_POSITION_ROW])


__all__ = [
    "ModemReport", "ModemBackend", "ReplayBackend",
    "parse_report", "render_report",
    "ReportSyntaxError", "RangeError", "ModemError", "ReplayExhausted",
]
