"""Malformed modem response corpus shared by the unit and acceptance suites.

Each syntax case records where the parser must point (1-based line/column)
and a fragment of the expected-token description.
"""

VALID_ONE_NEIGHBOR = (
    b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\n"
    b"+NBR: 5230,102,-98.5,-14.0,-62.0\r\n"
    b"OK\r\n"
)

VALID_NO_NEIGHBORS = b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n"

_SRV = b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\n"

# (name, raw, line, column, expected-fragment)
SYNTAX_CASES = [
    ("empty input", b"", 1, 1, "+SRV"),
    ("unknown prefix", b"SRV: 5230\r\n", 1, 1, "+SRV"),
    ("prefix missing colon", b"+SRV 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 5, "+SRV: "),
    ("empty earfcn", b"+SRV: ,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 7, "digit"),
    ("space instead of comma", b"+SRV: 5230 101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 11, "','"),
    ("signed unsigned field", b"+SRV: -5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 7, "digit"),
    ("two fractional digits", b"+SRV: 5230,101,27447301,12802,-91.05,-10.5,-62.0,13.2\r\nOK\r\n", 1, 36, "','"),
    ("no fractional part", b"+SRV: 5230,101,27447301,12802,-91,-10.5,-62.0,13.2\r\nOK\r\n", 1, 34, "'.'"),
    ("four integer digits in db1", b"+SRV: 5230,101,27447301,12802,-1910.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 35, "'.'"),
    ("trailing digit after sinr", b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.25\r\nOK\r\n", 1, 53, "CRLF"),
    ("bare LF line ending", b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\nOK\r\n", 1, 53, "CRLF"),
    ("missing fraction digit at line end", b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,13.\r\nOK\r\n", 1, 52, "digit"),
    ("bad neighbor prefix", _SRV + b"+NBX: 5230,102,-98.5,-14.0,-62.0\r\nOK\r\n", 2, 1, "OK"),
    ("neighbor field missing", _SRV + b"+NBR: 5230,102,-98.5,-14.0\r\nOK\r\n", 2, 27, "','"),
    ("truncated before OK", _SRV, 2, 1, "OK"),
    ("missing final CRLF", _SRV + b"+NBR: 5230,102,-98.5,-14.0,-62.0\r\nOK", 3, 3, "CRLF"),
    ("garbage after OK", _SRV + b"OK\r\nX", 3, 1, "end of response"),
    ("lowercase ok", _SRV + b"ok\r\n", 2, 1, "OK"),
    ("extra space after prefix", b"+SRV:  5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 7, "digit"),
    ("tab separator", b"+SRV:\t5230,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 6, "+SRV: "),
    ("non-ascii byte", b"+SRV: 5230\xc2\xb5,101,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", 1, 11, "ASCII"),
    ("ninth neighbor line",
     _SRV + b"".join(b"+NBR: 5230,%d,-98.5,-14.0,-62.0\r\n" % (110 + i) for i in range(9)) + b"OK\r\n",
     10, 1, "at most 8"),
    ("error code too long", b"ERROR: 1234\r\n", 1, 11, "CRLF"),
    ("error code missing", b"ERROR: \r\n", 1, 8, "digit"),
    ("error prefix malformed", b"ERROR:7\r\n", 1, 7, "ERROR: "),
    ("lone CR before OK", _SRV.removesuffix(b"\r\n") + b"\rOK\r\n", 1, 53, "CRLF"),
    ("non-ascii byte on a neighbor line",
     _SRV + b"+NBR: 5230,102,-98.5,-14.0,-62\xc2\xb5.0\r\nOK\r\n", 2, 31, "ASCII"),
]

# (name, raw, field, value)
RANGE_CASES = [
    ("pci above 503", b"+SRV: 5230,600,27447301,12802,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", "pci", 600),
    ("rsrp below floor", b"+SRV: 5230,101,27447301,12802,-150.0,-10.5,-62.0,13.2\r\nOK\r\n", "rsrp_dbm", -150.0),
    ("rsrq above ceiling", b"+SRV: 5230,101,27447301,12802,-91.0,-2.5,-62.0,13.2\r\nOK\r\n", "rsrq_db", -2.5),
    ("sinr above ceiling", b"+SRV: 5230,101,27447301,12802,-91.0,-10.5,-62.0,45.0\r\nOK\r\n", "sinr_db", 45.0),
    ("rssi below rsrp", b"+SRV: 5230,101,27447301,12802,-60.0,-10.5,-80.0,13.2\r\nOK\r\n", "rssi_dbm", -80.0),
    ("tac above ceiling", b"+SRV: 5230,101,27447301,70000,-91.0,-10.5,-62.0,13.2\r\nOK\r\n", "tac", 70000),
    ("neighbor rsrp below floor", _SRV + b"+NBR: 5230,102,-141.0,-14.0,-62.0\r\nOK\r\n", "neighbors[0].rsrp_dbm", -141.0),
    ("neighbor duplicates serving", _SRV + b"+NBR: 5230,101,-98.5,-14.0,-62.0\r\nOK\r\n", "neighbors[0]", (5230, 101)),
]
