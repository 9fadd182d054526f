"""End-to-end probing engine and the dedicated measurement server.

RTT uses an unprivileged datagram echo (application-layer round trips, no
ICMP), throughput a one-test-per-connection byte stream with a line-oriented
handshake.  The receiver's byte count is authoritative; the sender's active
duration is the time base.  A token-bucket throttle exists on the send side
purely to create testable ground truth.

Client and server share one control-line reader, one test-size rule and one
sender.  The server runs on stdlib socketserver, one thread per session.
"""

from __future__ import annotations

import json
import logging
import math
import os
import socket
import socketserver
import struct
import threading
import time
from statistics import median
from typing import NamedTuple, Optional

from .records import GeoPosition, RttSummary

log = logging.getLogger("skylog.netprobe")

ECHO_MAGIC = 0x534B4C47  # "SKLG"
ECHO_VERSION = 1
ECHO_HEADER = struct.Struct(">IBIIQ")  # magic, version, session, seq, client-send-us
ECHO_DATAGRAM_LEN = 64

MAX_BLOCK_BYTES = 4 * 1024 * 1024
MAX_CONTROL_LINE = 65536
# What the server still reads from a client whose header it refused.
MAX_REFUSED_INPUT = 1024 * 1024


class HandshakeError(RuntimeError):
    """Throughput control handshake failed or the server rejected the test."""


class PartialTransferError(RuntimeError):
    """Transfer broke mid-stream; carries the bytes moved before the break."""

    def __init__(self, message: str, bytes_so_far: int):
        self.bytes_so_far = bytes_so_far
        super().__init__(f"{message} (after {bytes_so_far} bytes)")


class _ProbeConfigFields(NamedTuple):
    server_host: str = "127.0.0.1"
    rtt_port: int = 7701
    tp_port: int = 7702
    rtt_count: int = 20
    rtt_interval_ms: int = 200
    rtt_timeout_ms: int = 1000
    tp_duration_s: float = 5.0
    tp_block_bytes: int = 65536
    ul_throttle_mbps: Optional[float] = None  # None = unthrottled


class ProbeConfig(_ProbeConfigFields):
    """A NamedTuple checked when built, by _replace too, as
    collector.CollectorConfig is: a bad config raises ValueError before any
    socket opens."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.rtt_count < 1 or self.rtt_interval_ms <= 0 or self.rtt_timeout_ms <= 0:
            raise ValueError("rtt counts and intervals must be positive")
        if self.rtt_timeout_ms < self.rtt_interval_ms:
            raise ValueError("rtt_timeout_ms must be >= rtt_interval_ms")
        error = _test_error(self.tp_duration_s, self.tp_block_bytes)
        if error is not None:
            raise ValueError(error)
        _check_throttle("ul_throttle_mbps", self.ul_throttle_mbps)
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, whose tuple.__new__ would skip the checks.
        return cls(*iterable)


def _test_error(duration_s, block_bytes) -> Optional[str]:
    """Why a throughput test's duration or block size is refused, or None.
    The client checks its config and the server a test header by this rule."""
    if (not isinstance(duration_s, (int, float)) or isinstance(duration_s, bool)
            or not 0 < duration_s < math.inf):  # also refuses NaN
        return "duration_s must be finite and positive"
    if not isinstance(block_bytes, int) or isinstance(block_bytes, bool) or block_bytes <= 0:
        return "block_bytes must be a positive integer"
    if block_bytes > MAX_BLOCK_BYTES:
        return f"block_bytes above {MAX_BLOCK_BYTES}"
    return None


def _check_throttle(name: str, rate_mbps: Optional[float]) -> None:
    if rate_mbps is not None and not 0 < rate_mbps < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {rate_mbps!r}")


def pack_echo(session: int, seq: int, send_us: int) -> bytes:
    head = ECHO_HEADER.pack(ECHO_MAGIC, ECHO_VERSION, session, seq, send_us)
    return head + b"\x00" * (ECHO_DATAGRAM_LEN - len(head))


def unpack_echo(data: bytes) -> Optional[tuple[int, int, int]]:
    """(session, seq, send_us) for a well-formed echo datagram, else None."""
    if len(data) != ECHO_DATAGRAM_LEN:
        return None
    magic, version, session, seq, send_us = ECHO_HEADER.unpack_from(data)
    if magic != ECHO_MAGIC or version != ECHO_VERSION:
        return None
    return session, seq, send_us


class TokenBucket:
    """Paces a sender to a target rate on an absolute schedule (no drift)."""

    def __init__(self, rate_mbps: float):
        if rate_mbps <= 0:
            raise ValueError("rate must be positive")
        self.bytes_per_s = rate_mbps * 1e6 / 8.0
        self.t0 = time.perf_counter()
        self.sent = 0

    def pace(self, nbytes: int) -> None:
        """Block until nbytes more may be sent."""
        self.sent += nbytes
        due_at = self.t0 + self.sent / self.bytes_per_s
        delay = due_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)


def rtt_probe(cfg: ProbeConfig) -> RttSummary:
    """Send rtt_count echo datagrams on a fixed schedule and summarize RTTs.

    Loss is data: an unreachable server yields received=0, loss 1.0.
    """
    session = int.from_bytes(os.urandom(4), "big")
    server = (cfg.server_host, cfg.rtt_port)
    interval_ns = cfg.rtt_interval_ms * 1_000_000
    timeout_ns = cfg.rtt_timeout_ms * 1_000_000
    send_ns: dict[int, int] = {}
    rtt_ms: dict[int, float] = {}
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:

        def read_replies(deadline_ns: int, until_answered: bool) -> None:
            """Time the replies that arrive before deadline_ns; with
            until_answered, return as soon as every probe sent has its reply."""
            while not (until_answered and len(rtt_ms) == len(send_ns)):
                left_ns = deadline_ns - time.perf_counter_ns()
                if left_ns <= 0:
                    return
                sock.settimeout(left_ns / 1e9)
                try:
                    data = sock.recv(2048)
                except TimeoutError:
                    return
                except OSError:
                    continue
                recv_ns = time.perf_counter_ns()
                parsed = unpack_echo(data)
                if parsed is None:
                    continue
                got_session, seq, _send_us = parsed
                if got_session != session or seq not in send_ns or seq in rtt_ms:
                    continue  # foreign traffic or duplicate echo
                elapsed_ms = (recv_ns - send_ns[seq]) / 1e6
                if elapsed_ms <= cfg.rtt_timeout_ms:
                    rtt_ms[seq] = elapsed_ms

        t0 = time.perf_counter_ns()
        for seq in range(cfg.rtt_count):
            # The schedule runs from t0: a sender past it reads nothing and catches up.
            read_replies(t0 + seq * interval_ns, until_answered=False)
            try:
                sock.sendto(pack_echo(session, seq, time.perf_counter_ns() // 1000), server)
                send_ns[seq] = time.perf_counter_ns()
            except OSError:
                pass  # unreachable network: the probe is simply lost
        read_replies(max(send_ns.values(), default=0) + timeout_ns, until_answered=True)

    sent = cfg.rtt_count
    values = sorted(rtt_ms.values())
    if not values:
        return RttSummary(sent=sent, received=0, loss_fraction=1.0)
    return RttSummary(
        sent=sent,
        received=len(values),
        min_ms=values[0],
        # A float sum can carry the mean past the extremes: three replies of
        # 0.1 ms average 0.10000000000000002.
        mean_ms=min(max(sum(values) / len(values), values[0]), values[-1]),
        p50_ms=median(values),
        max_ms=values[-1],
        loss_fraction=(sent - len(values)) / sent,
    )


def _read_line(reader) -> bytes:
    line = reader.readline(MAX_CONTROL_LINE)
    if not line.endswith(b"\n"):
        raise HandshakeError("no complete control line: the stream ended or the line "
                             f"passed {MAX_CONTROL_LINE} bytes")
    return line


def _json_object(line: bytes) -> dict:
    """The JSON object a control line holds, header or result."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits or levels
        raise HandshakeError(f"malformed control line: {exc}") from exc
    if not isinstance(doc, dict):
        raise HandshakeError("malformed control line: not an object")
    return doc


def _parse_result_line(line: bytes) -> tuple[int, float]:
    """The server's (bytes, duration_s) from its result line."""
    doc = _json_object(line)
    if "error" in doc:
        raise HandshakeError(f"server rejected test: {doc['error']}")
    nbytes, duration = doc.get("bytes"), doc.get("duration_s")
    if not isinstance(nbytes, int) or isinstance(nbytes, bool) or nbytes < 0:
        raise HandshakeError(f"malformed result line: bytes {nbytes!r}")
    if (not isinstance(duration, (int, float)) or isinstance(duration, bool)
            or not math.isfinite(duration)):
        raise HandshakeError(f"malformed result line: duration_s {duration!r}")
    return nbytes, duration


def _send_for(sock: socket.socket, block_bytes: int, duration_s: float,
              rate_mbps: Optional[float]) -> tuple[int, float]:
    """Send zero blocks for duration_s, paced to rate_mbps when one is given:
    an upload's client and a download's server.  Returns (bytes sent, active
    seconds); a send that fails raises PartialTransferError with the bytes
    sent before it."""
    block = b"\x00" * block_bytes
    bucket = TokenBucket(rate_mbps) if rate_mbps else None
    sent = 0
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < duration_s:
            if bucket is not None:
                bucket.pace(block_bytes)
            sock.sendall(block)
            sent += block_bytes
    except OSError as exc:
        raise PartialTransferError(f"send broke: {exc}", bytes_so_far=sent) from exc
    return sent, time.perf_counter() - start


def throughput_test(cfg: ProbeConfig, direction: str) -> float:
    """One-direction goodput in Mbit/s over a fresh connection."""
    if direction not in ("UL", "DL"):
        raise ValueError("direction must be UL or DL")
    header = json.dumps({"dir": direction, "duration_s": cfg.tp_duration_s,
                         "block_bytes": cfg.tp_block_bytes}) + "\n"
    try:
        sock = socket.create_connection((cfg.server_host, cfg.tp_port), timeout=10.0)
    except OSError as exc:
        raise HandshakeError(f"cannot connect: {exc}") from exc
    try:
        sock.settimeout(max(30.0, cfg.tp_duration_s * 4))
        sock.sendall(header.encode("utf-8"))
        if direction == "DL":
            return _run_download(cfg, sock)
        sent, active_s = _send_for(sock, cfg.tp_block_bytes, cfg.tp_duration_s,
                                   cfg.ul_throttle_mbps)
        sock.shutdown(socket.SHUT_WR)
        server_bytes, _ = _parse_result_line(_read_line(sock.makefile("rb")))
        if server_bytes != sent:
            raise PartialTransferError(
                f"server counted {server_bytes} of {sent} bytes", bytes_so_far=server_bytes)
        return server_bytes * 8 / active_s / 1e6
    finally:
        sock.close()


def _run_download(cfg: ProbeConfig, sock: socket.socket) -> float:
    # Payload blocks are zero-filled, so the last '{' starts the result line.
    # Only the bytes from there on are kept, capped near a control line's
    # length so a server that streams on past a '{' cannot grow them unbounded.
    total = 0
    payload_bytes = -1  # stream offset of the last '{'
    tail = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except OSError as exc:
            raise PartialTransferError(f"download broke: {exc}", bytes_so_far=total) from exc
        if not chunk:
            break
        idx = chunk.rfind(b"{")
        if idx >= 0:
            payload_bytes, tail = total + idx, chunk[idx:]
        elif payload_bytes >= 0 and len(tail) <= MAX_CONTROL_LINE:
            tail += chunk
        total += len(chunk)
    if payload_bytes < 0:
        raise PartialTransferError("no result line received", bytes_so_far=total)
    server_bytes, sender_duration = _parse_result_line(tail)
    if server_bytes != payload_bytes:
        raise PartialTransferError(
            f"received {payload_bytes} of {server_bytes} bytes", bytes_so_far=payload_bytes)
    if sender_duration <= 0:
        raise HandshakeError("server reported nonpositive duration")
    return payload_bytes * 8 / sender_duration / 1e6


_POLL_S = 0.1  # how often a server looks for stop(), which waits this long for each


class _EchoHandler(socketserver.BaseRequestHandler):
    """Returns a well-formed echo datagram to its sender; drops any other."""

    def handle(self) -> None:
        data, sock = self.request
        if unpack_echo(data) is not None:
            try:
                sock.sendto(data, self.client_address)
            except OSError:
                pass


class _ThroughputServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 16


class _ThroughputHandler(socketserver.StreamRequestHandler):
    """One test per connection: the client's header line, then the payload
    in the header's direction, then the receiver's result line.  A refused
    header is answered with an error line instead."""

    timeout = 60.0

    def handle(self) -> None:
        try:
            try:
                header = _json_object(_read_line(self.rfile))
                error = ("dir must be UL or DL" if header.get("dir") not in ("UL", "DL")
                         else _test_error(header.get("duration_s"), header.get("block_bytes")))
            except HandshakeError as exc:
                error = str(exc)
            if error is not None:
                result = {"error": error}
            elif header["dir"] == "UL":
                result = self._receive()
            else:
                sent, active_s = _send_for(self.connection, header["block_bytes"],
                                           header["duration_s"], self.server.dl_throttle_mbps)
                result = {"bytes": sent, "duration_s": active_s}
            self.wfile.write((json.dumps(result) + "\n").encode("utf-8"))
            if error is not None:
                # Closing with input unread resets the connection, which can
                # reach the client before it has read the reply or shut down
                # its own side: end the reply, then read what the client
                # still sends, up to MAX_REFUSED_INPUT bytes.
                self.wfile.flush()
                self.connection.shutdown(socket.SHUT_WR)
                self.rfile.read(MAX_REFUSED_INPUT)
        except (PartialTransferError, OSError) as exc:
            log.warning("throughput session aborted: %s", exc)

    def _receive(self) -> dict:
        """An upload's byte count, and the seconds from its first byte to
        the client's end of the stream."""
        total, started = 0, None
        while chunk := self.rfile.read(65536):
            if started is None:
                started = time.perf_counter()
            total += len(chunk)
        return {"bytes": total,
                "duration_s": 0.0 if started is None else time.perf_counter() - started}


class MeasurementServer:
    """Datagram echo plus one-test-per-connection throughput responder.

    Sessions are isolated: malformed datagrams are dropped, bad handshakes
    answered with an error line, and each connection runs on its own thread.
    """

    def __init__(self, bind_addr: str = "0.0.0.0", rtt_port: int = 7701,
                 tp_port: int = 7702, dl_throttle_mbps: Optional[float] = None):
        _check_throttle("dl_throttle_mbps", dl_throttle_mbps)
        self.bind_addr = bind_addr
        self.dl_throttle_mbps = dl_throttle_mbps
        self._stop = threading.Event()
        self._serving: list[tuple[socketserver.BaseServer, threading.Thread]] = []
        # A server whose bind fails closes its own socket; the other is closed here.
        self._echo = socketserver.UDPServer((bind_addr, rtt_port), _EchoHandler)
        try:
            self._tp = _ThroughputServer((bind_addr, tp_port), _ThroughputHandler)
        except BaseException:
            self._echo.server_close()
            raise
        self._tp.dl_throttle_mbps = dl_throttle_mbps
        self.rtt_port = self._echo.server_address[1]
        self.tp_port = self._tp.server_address[1]

    def start(self) -> None:
        for server, name in ((self._echo, "skylog-echo"), (self._tp, "skylog-tp")):
            thread = threading.Thread(target=server.serve_forever, args=(_POLL_S,),
                                      name=name, daemon=True)
            thread.start()
            self._serving.append((server, thread))

    def stop(self) -> None:
        self._stop.set()
        # shutdown() waits for serve_forever to return, forever on a server
        # never started: shut each started one down once.
        while self._serving:
            server, thread = self._serving.pop()
            server.shutdown()
            thread.join()
        self._echo.server_close()
        self._tp.server_close()

    def wait(self, stop_event: Optional[threading.Event] = None) -> None:
        """Block until the given event (or KeyboardInterrupt) stops the server.

        The event is polled, not waited on: a signal handler that sets it runs
        on this thread, and Event.set would block forever on the lock that
        Event.wait holds between its timed sleeps.
        """
        try:
            while not self._stop.is_set() and not (stop_event is not None and stop_event.is_set()):
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        self.stop()


class ProbeE2eEngine:
    """Collector-facing engine that runs real probes against a server."""

    def __init__(self, cfg: ProbeConfig):
        self.cfg = cfg

    def measure(self, pos: GeoPosition, salt: int):
        rtt = rtt_probe(self.cfg)
        dl = throughput_test(self.cfg, "DL")
        ul = throughput_test(self.cfg, "UL")
        return rtt, dl, ul, self.cfg.tp_duration_s


__all__ = [
    "ProbeConfig", "RttSummary", "HandshakeError", "PartialTransferError",
    "TokenBucket", "pack_echo", "unpack_echo",
    "rtt_probe", "throughput_test", "MeasurementServer",
    "ProbeE2eEngine", "ECHO_MAGIC", "ECHO_VERSION", "ECHO_DATAGRAM_LEN",
]
