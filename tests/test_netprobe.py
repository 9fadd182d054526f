"""Loopback echo/throughput behaviour, throttle oracle, failure modes."""

import gc
import json
import logging
import math
import socket
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import pytest

from skylog import netprobe
from skylog.netprobe import (
    ECHO_DATAGRAM_LEN,
    HandshakeError,
    MeasurementServer,
    PartialTransferError,
    ProbeConfig,
    ProbeE2eEngine,
    TokenBucket,
    pack_echo,
    rtt_probe,
    throughput_test,
    unpack_echo,
)
from skylog.records import validate_e2e

from conftest import make_e2e, violation


@pytest.fixture
def server():
    srv = MeasurementServer("127.0.0.1", 0, 0)
    srv.start()
    yield srv
    srv.stop()


def loopback_cfg(server, **over):
    base = dict(server_host="127.0.0.1", rtt_port=server.rtt_port,
                tp_port=server.tp_port, rtt_count=20, rtt_interval_ms=10,
                rtt_timeout_ms=500, tp_duration_s=1.0, tp_block_bytes=65536)
    base.update(over)
    return ProbeConfig(**base)


def test_echo_datagram_shape():
    data = pack_echo(0xDEADBEEF, 17, 123456789)
    assert len(data) == ECHO_DATAGRAM_LEN
    assert data[:4] == b"SKLG"
    assert unpack_echo(data) == (0xDEADBEEF, 17, 123456789)


def test_unpack_rejects_bad_magic_and_length():
    assert unpack_echo(b"\x00") is None
    assert unpack_echo(b"X" * 64) is None
    good = pack_echo(1, 2, 3)
    assert unpack_echo(good[:-1]) is None


def test_loopback_rtt_all_received(server):
    cfg = loopback_cfg(server)
    summary = rtt_probe(cfg)
    assert summary.sent == 20
    assert summary.received == 20
    assert summary.loss_fraction == 0.0
    assert summary.p50_ms < 5.0
    assert summary.min_ms <= summary.p50_ms <= summary.max_ms
    assert summary.min_ms <= summary.mean_ms <= summary.max_ms


def test_equal_rtts_give_a_mean_the_trace_format_accepts(monkeypatch):
    """Three echoes of exactly 0.1 ms each: their float average,
    0.10000000000000002, lies past the max, and the summary must hold the
    mean at the max for the record to pass validate_e2e."""
    now_ns, in_flight = [0], []

    class EchoAfterOneTenthMs:
        """A datagram socket whose every echo arrives 0.1 ms after its send."""

        def __init__(self, *args):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def settimeout(self, timeout):
            pass

        def sendto(self, data, addr):
            in_flight.append(data)

        def recv(self, size):
            if not in_flight:
                raise TimeoutError
            now_ns[0] += 100_000
            return in_flight.pop(0)

    monkeypatch.setattr(netprobe, "socket", SimpleNamespace(
        socket=EchoAfterOneTenthMs, AF_INET=socket.AF_INET, SOCK_DGRAM=socket.SOCK_DGRAM))
    monkeypatch.setattr(netprobe, "time", SimpleNamespace(perf_counter_ns=lambda: now_ns[0]))
    summary = rtt_probe(ProbeConfig(server_host="127.0.0.1", rtt_port=1, tp_port=1,
                                    rtt_count=3, rtt_interval_ms=10, rtt_timeout_ms=500))
    assert (summary.received, summary.min_ms, summary.max_ms) == (3, 0.1, 0.1)
    assert summary.mean_ms == summary.max_ms
    assert violation(validate_e2e, make_e2e(rtt=summary)) is None


def test_rtt_server_down():
    # bind-then-close to get a port nobody answers on
    probe_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe_sock.bind(("127.0.0.1", 0))
    dead_port = probe_sock.getsockname()[1]
    probe_sock.close()
    cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=dead_port, tp_port=1,
                      rtt_count=5, rtt_interval_ms=10, rtt_timeout_ms=100)
    summary = rtt_probe(cfg)
    assert summary.received == 0
    assert summary.loss_fraction == 1.0
    assert summary.min_ms is None and summary.p50_ms is None


def test_echo_ignores_garbage(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(0.2)
    sock.sendto(b"\x01", ("127.0.0.1", server.rtt_port))
    with pytest.raises(socket.timeout):
        sock.recvfrom(128)
    # a valid datagram still comes back after the garbage
    good = pack_echo(7, 0, 1)
    sock.sendto(good, ("127.0.0.1", server.rtt_port))
    data, _ = sock.recvfrom(128)
    assert data == good
    sock.close()


def test_duplicate_echo_counted_once(server):
    # use a relay that duplicates every reply
    relay = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    relay.bind(("127.0.0.1", 0))
    relay_port = relay.getsockname()[1]
    stop = threading.Event()

    def duplicate_loop():
        relay.settimeout(0.1)
        while not stop.is_set():
            try:
                data, addr = relay.recvfrom(2048)
            except socket.timeout:
                continue
            # echo twice, verbatim
            relay.sendto(data, addr)
            relay.sendto(data, addr)

    t = threading.Thread(target=duplicate_loop, daemon=True)
    t.start()
    try:
        cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=relay_port, tp_port=1,
                          rtt_count=5, rtt_interval_ms=10, rtt_timeout_ms=300)
        summary = rtt_probe(cfg)
        assert summary.sent == 5
        assert summary.received == 5  # not 10
    finally:
        stop.set()
        t.join()
        relay.close()


def test_loopback_dl_byte_conservation(server):
    cfg = loopback_cfg(server, tp_duration_s=0.3)
    mbps = throughput_test(cfg, "DL")
    assert mbps > 0


def test_loopback_ul(server):
    cfg = loopback_cfg(server, tp_duration_s=0.3)
    mbps = throughput_test(cfg, "UL")
    assert mbps > 0


def test_ul_throttle_oracle(server):
    cfg = loopback_cfg(server, tp_duration_s=1.0, ul_throttle_mbps=10.0,
                       tp_block_bytes=16384)
    mbps = throughput_test(cfg, "UL")
    assert 8.0 <= mbps <= 10.5


def test_dl_throttle_oracle():
    srv = MeasurementServer("127.0.0.1", 0, 0, dl_throttle_mbps=10.0)
    srv.start()
    try:
        cfg = loopback_cfg(srv, tp_duration_s=1.0, tp_block_bytes=16384)
        mbps = throughput_test(cfg, "DL")
        assert 8.0 <= mbps <= 10.5
    finally:
        srv.stop()


def test_concurrent_downloads(server):
    cfg = loopback_cfg(server, tp_duration_s=0.4)
    results = {}

    def run(key):
        results[key] = throughput_test(cfg, "DL")

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 2
    assert all(v > 0 for v in results.values())


def test_zero_duration_rejected_at_handshake(server):
    # json parses the non-standard Infinity and NaN tokens into floats
    for duration in (b"0", b"Infinity", b"NaN"):
        sock = socket.create_connection(("127.0.0.1", server.tp_port), timeout=5.0)
        sock.sendall(b'{"dir":"DL","duration_s":' + duration + b',"block_bytes":1024}\n')
        reply = sock.makefile("rb").readline(65536)  # bounded: a bad server streams zeros
        doc = json.loads(reply)
        assert "error" in doc
        assert "duration" in doc["error"]
        sock.close()


def test_bad_direction_rejected_at_handshake(server):
    sock = socket.create_connection(("127.0.0.1", server.tp_port), timeout=5.0)
    sock.sendall(b'{"dir":"SIDEWAYS","duration_s":1,"block_bytes":1024}\n')
    doc = json.loads(sock.makefile("rb").readline())
    assert "error" in doc
    sock.close()


@pytest.mark.parametrize("duration,block", [
    (0, 1024), (-1.0, 1024), (math.nan, 1024), (math.inf, 1024), (True, 1024), ("1", 1024),
    (1.0, 0), (1.0, -1), (1.0, 1.5), (1.0, False), (1.0, netprobe.MAX_BLOCK_BYTES + 1),
], ids=["duration-zero", "duration-negative", "duration-nan", "duration-inf", "duration-bool",
        "duration-str", "block-zero", "block-negative", "block-float", "block-bool",
        "block-over-max"])
def test_client_and_server_refuse_a_test_by_one_rule(server, duration, block):
    with pytest.raises(ValueError) as refused:
        ProbeConfig(tp_duration_s=duration, tp_block_bytes=block)
    with socket.create_connection(("127.0.0.1", server.tp_port), timeout=5.0) as sock:
        header = {"dir": "DL", "duration_s": duration, "block_bytes": block}
        sock.sendall(json.dumps(header).encode() + b"\n")
        reply = json.loads(sock.makefile("rb").readline(65536))
    assert reply == {"error": str(refused.value)}


@pytest.mark.parametrize("line,error", [
    (b"[1]\n", "malformed control line: not an object"),
    (b"{\"dir\"\n", "malformed control line: "),
    (b"\xff\n", "malformed control line: "),
    (b"[" * 60000 + b"\n", "malformed control line: "),
    (b'{"dir":"DL","duration_s":' + b"1" * 5000 + b',"block_bytes":1024}\n',
     "malformed control line: "),
    (b'{"dir":"DL","duration_s":1', "no complete control line: "),
    (b"{" + b" " * 70000, "no complete control line: "),
], ids=["not-object", "bad-json", "bad-utf8", "deep-nesting", "too-many-digits", "cut",
        "over-long"])
def test_server_answers_a_bad_header_with_the_clients_error_text(server, line, error):
    with socket.create_connection(("127.0.0.1", server.tp_port), timeout=5.0) as sock:
        sock.sendall(line)
        sock.shutdown(socket.SHUT_WR)
        reply = json.loads(sock.makefile("rb").readline(65536))
    assert reply["error"].startswith(error)


def test_busy_port_is_refused_with_no_socket_left_open():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen(1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                MeasurementServer("127.0.0.1", 0, busy.getsockname()[1])
            gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_stop_returns_promptly_unstarted_and_twice():
    for start in (False, True):
        srv = MeasurementServer("127.0.0.1", 0, 0)
        if start:
            srv.start()
        began = time.perf_counter()
        srv.stop()
        srv.stop()
        assert time.perf_counter() - began < 1.0
        assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]


def test_dropped_download_session_is_logged_and_the_next_test_runs(server, caplog):
    caplog.set_level(logging.WARNING, logger="skylog.netprobe")
    with socket.create_connection(("127.0.0.1", server.tp_port), timeout=5.0) as sock:
        sock.sendall(b'{"dir":"DL","duration_s":5.0,"block_bytes":65536}\n')
        assert sock.recv(65536)  # mid-stream; unread bytes make the close a reset
    deadline = time.monotonic() + 5.0
    while not caplog.records and time.monotonic() < deadline:
        time.sleep(0.02)
    assert [r.getMessage().startswith("throughput session aborted: ")
            for r in caplog.records] == [True]
    assert throughput_test(loopback_cfg(server, tp_duration_s=0.2), "DL") > 0


def test_upload_to_a_peer_that_closes_is_partial_transfer():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def read_header_and_close():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()

        t = threading.Thread(target=read_header_and_close, daemon=True)
        t.start()
        cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=1,
                          tp_port=listener.getsockname()[1], tp_duration_s=5.0)
        with pytest.raises(PartialTransferError) as exc_info:
            throughput_test(cfg, "UL")
        t.join(timeout=5.0)
    assert not t.is_alive()
    assert exc_info.value.bytes_so_far > 0


def test_client_raises_handshake_error_on_rejection(server):
    cfg = loopback_cfg(server)
    # bypass ProbeConfig validation by rigging the header through a tiny server
    # instead: point the client at a responder that always rejects
    rejecter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    rejecter.bind(("127.0.0.1", 0))
    rejecter.listen(1)
    port = rejecter.getsockname()[1]

    def reject_once():
        conn, _ = rejecter.accept()
        conn.makefile("rb").readline()
        conn.sendall(b'{"error":"nope"}\n')
        conn.close()

    t = threading.Thread(target=reject_once, daemon=True)
    t.start()
    bad_cfg = loopback_cfg(server, tp_port=port, tp_duration_s=0.2)
    with pytest.raises(HandshakeError, match="nope"):
        throughput_test(bad_cfg, "DL")
    t.join()
    rejecter.close()


def serve_once(reply: bytes):
    """A throughput server for one connection: it reads the header, drains
    an upload, sends reply and closes.  Returns (port, thread, listener)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_once():
        conn, _ = listener.accept()
        header = json.loads(conn.makefile("rb").readline())
        if header["dir"] == "UL":
            while conn.recv(65536):
                pass
        conn.sendall(reply)
        conn.close()

    t = threading.Thread(target=answer_once, daemon=True)
    t.start()
    return listener.getsockname()[1], t, listener


@pytest.mark.parametrize("direction", ["DL", "UL"])
@pytest.mark.parametrize("result", [
    b"{}\n",
    b'{"bytes":null,"duration_s":1.0}\n',
    b'{"bytes":true,"duration_s":1.0}\n',
    b'{"bytes":-1,"duration_s":1.0}\n',
    b'{"bytes":0,"duration_s":null}\n',
    b'{"bytes":0,"duration_s":NaN}\n',
    b'{"bytes":0,"duration_s":Infinity}\n',
], ids=["empty", "bytes-null", "bytes-bool", "bytes-negative", "duration-null",
        "duration-nan", "duration-inf"])
def test_malformed_result_line_is_handshake_error(direction, result):
    port, t, listener = serve_once(result)
    cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=1, tp_port=port,
                      tp_duration_s=0.05, tp_block_bytes=1024, ul_throttle_mbps=8.0)
    try:
        with pytest.raises(HandshakeError, match="malformed result line"):
            throughput_test(cfg, direction)
    finally:
        t.join(timeout=5.0)
        listener.close()
    assert not t.is_alive()


class _StreamingSocket:
    """recv() hands out n_blocks fresh zero blocks, then tail in 7-byte
    pieces (so the result line straddles reads), then EOF."""

    def __init__(self, n_blocks: int, block: int, tail: bytes):
        self.left, self.block, self.tail = n_blocks, block, tail

    def recv(self, _bufsize: int) -> bytes:
        if self.left:
            self.left -= 1
            return bytes(self.block)
        piece, self.tail = self.tail[:7], self.tail[7:]
        return piece


def test_download_memory_does_not_grow_with_payload():
    n_blocks, block = 1024, 65536  # 64 MiB of payload
    payload = n_blocks * block
    sock = _StreamingSocket(n_blocks, block,
                            json.dumps({"bytes": payload, "duration_s": 1.0}).encode() + b"\n")
    tracemalloc.start()
    try:
        mbps = netprobe._run_download(ProbeConfig(), sock)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mbps == payload * 8 / 1.0 / 1e6
    assert peak < 4 * 1024 * 1024


def test_dl_partial_transfer_detected():
    # server sends some payload then vanishes without a result line
    trap = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    trap.bind(("127.0.0.1", 0))
    trap.listen(1)
    port = trap.getsockname()[1]

    def truncate_once():
        conn, _ = trap.accept()
        conn.makefile("rb").readline()
        conn.sendall(b"\x00" * 8192)
        conn.close()

    t = threading.Thread(target=truncate_once, daemon=True)
    t.start()
    cfg = ProbeConfig(server_host="127.0.0.1", rtt_port=1, tp_port=port,
                      tp_duration_s=0.2, tp_block_bytes=1024)
    with pytest.raises(PartialTransferError) as exc_info:
        throughput_test(cfg, "DL")
    assert exc_info.value.bytes_so_far == 8192
    t.join()
    trap.close()


def test_token_bucket_rate():
    bucket = TokenBucket(80.0)  # 10 MB/s
    start = time.perf_counter()
    total = 0
    while total < 2_000_000:
        bucket.pace(100_000)
        total += 100_000
    elapsed = time.perf_counter() - start
    assert elapsed == pytest.approx(0.2, abs=0.05)


def test_probe_config_bounds():
    with pytest.raises(ValueError):
        ProbeConfig(rtt_count=0)
    with pytest.raises(ValueError):
        ProbeConfig(rtt_timeout_ms=10, rtt_interval_ms=50)
    for bad in (0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ProbeConfig(tp_duration_s=bad)
    with pytest.raises(ValueError):
        ProbeConfig(tp_block_bytes=0)
    for bad in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ul_throttle_mbps"):
            ProbeConfig(ul_throttle_mbps=bad)
        with pytest.raises(ValueError, match="dl_throttle_mbps"):
            MeasurementServer("127.0.0.1", 0, 0, dl_throttle_mbps=bad)


@pytest.mark.parametrize("change,message", [
    ({"rtt_count": 0}, "rtt counts and intervals must be positive"),
    ({"rtt_timeout_ms": 10, "rtt_interval_ms": 50}, "rtt_timeout_ms must be >= rtt_interval_ms"),
    ({"tp_duration_s": math.inf}, "duration_s must be finite and positive"),
    ({"tp_block_bytes": 0}, "block_bytes must be a positive integer"),
    ({"tp_block_bytes": netprobe.MAX_BLOCK_BYTES + 1}, f"block_bytes above {netprobe.MAX_BLOCK_BYTES}"),
    ({"ul_throttle_mbps": 0.0}, "ul_throttle_mbps must be finite and positive, got 0.0"),
])
def test_probe_config_bounds_hold_for_replace(monkeypatch, change, message):
    # _replace builds a new config, so it is refused as a direct build is, with
    # the same message, before any socket could open.
    def no_socket(*args, **kwargs):
        raise AssertionError("a socket was opened")
    monkeypatch.setattr(socket, "socket", no_socket)
    cfg = ProbeConfig()
    for build in (lambda: ProbeConfig(**change), lambda: cfg._replace(**change)):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message
    assert cfg._replace(rtt_count=5) == ProbeConfig(rtt_count=5)


def test_probe_engine_returns_full_tuple(server):
    cfg = loopback_cfg(server, rtt_count=3, tp_duration_s=0.2)
    engine = ProbeE2eEngine(cfg)
    from skylog.records import GeoPosition
    rtt, dl, ul, duration = engine.measure(
        GeoPosition(lat_deg=0.0, lon_deg=0.0, alt_m_amsl=0.0), salt=0)
    assert rtt.received == 3
    assert dl > 0 and ul > 0
    assert duration == 0.2
