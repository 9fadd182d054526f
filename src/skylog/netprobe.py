"""End-to-end probing engine and the dedicated measurement server.

RTT uses an unprivileged datagram echo (application-layer round trips, no
ICMP), throughput a one-test-per-connection byte stream with a line-oriented
handshake.  The receiver's byte count is authoritative; the sender's active
duration is the time base.  A token-bucket throttle exists on the send side
purely to create testable ground truth.
"""

from __future__ import annotations

import json
import logging
import math
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Optional

from .records import GeoPosition, RttSummary

log = logging.getLogger("skylog.netprobe")

ECHO_MAGIC = 0x534B4C47  # "SKLG"
ECHO_VERSION = 1
ECHO_HEADER = struct.Struct(">IBIIQ")  # magic, version, session, seq, client-send-us
ECHO_DATAGRAM_LEN = 64

MAX_BLOCK_BYTES = 4 * 1024 * 1024
MAX_CONTROL_LINE = 65536


class HandshakeError(RuntimeError):
    """Throughput control handshake failed or the server rejected the test."""


class PartialTransferError(RuntimeError):
    """Transfer broke mid-stream; carries the bytes moved before the break."""

    def __init__(self, message: str, bytes_so_far: int):
        self.bytes_so_far = bytes_so_far
        super().__init__(f"{message} (after {bytes_so_far} bytes)")


@dataclass
class ProbeConfig:
    server_host: str = "127.0.0.1"
    rtt_port: int = 7701
    tp_port: int = 7702
    rtt_count: int = 20
    rtt_interval_ms: int = 200
    rtt_timeout_ms: int = 1000
    tp_duration_s: float = 5.0
    tp_block_bytes: int = 65536
    ul_throttle_mbps: Optional[float] = None  # None = unthrottled

    def __post_init__(self):
        if self.rtt_count < 1 or self.rtt_interval_ms <= 0 or self.rtt_timeout_ms <= 0:
            raise ValueError("rtt counts and intervals must be positive")
        if self.rtt_timeout_ms < self.rtt_interval_ms:
            raise ValueError("rtt_timeout_ms must be >= rtt_interval_ms")
        if not 0 < self.tp_duration_s < math.inf:  # also refuses NaN
            raise ValueError("throughput duration must be finite and positive")
        if self.tp_block_bytes <= 0:
            raise ValueError("throughput block size must be positive")
        if self.tp_block_bytes > MAX_BLOCK_BYTES:
            raise ValueError(f"tp_block_bytes above {MAX_BLOCK_BYTES}")
        _check_throttle("ul_throttle_mbps", self.ul_throttle_mbps)


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
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    interval_ns = cfg.rtt_interval_ms * 1_000_000
    timeout_ns = cfg.rtt_timeout_ms * 1_000_000
    send_ns: dict[int, int] = {}
    rtt_ms: dict[int, float] = {}
    try:
        t0 = time.perf_counter_ns()
        next_seq = 0
        while True:
            now = time.perf_counter_ns()
            while next_seq < cfg.rtt_count and now >= t0 + next_seq * interval_ns:
                payload = pack_echo(session, next_seq, now // 1000)
                try:
                    sock.sendto(payload, server)
                    send_ns[next_seq] = time.perf_counter_ns()
                except OSError:
                    pass  # unreachable network: the probe is simply lost
                next_seq += 1
                now = time.perf_counter_ns()
            deadlines = []
            if next_seq < cfg.rtt_count:
                deadlines.append(t0 + next_seq * interval_ns)
            elif send_ns:
                last_deadline = max(send_ns.values()) + timeout_ns
                if now >= last_deadline or len(rtt_ms) == len(send_ns):
                    break
                deadlines.append(last_deadline)
            else:
                break  # nothing ever sent
            wait_s = max(0.0, (min(deadlines) - now) / 1e9)
            readable, _, _ = select.select([sock], [], [], wait_s)
            if not readable:
                continue
            try:
                data, _addr = sock.recvfrom(2048)
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
    finally:
        sock.close()

    sent = cfg.rtt_count
    values = sorted(rtt_ms.values())
    if not values:
        return RttSummary(sent=sent, received=0, loss_fraction=1.0)
    return RttSummary(
        sent=sent,
        received=len(values),
        min_ms=values[0],
        mean_ms=sum(values) / len(values),
        p50_ms=median(values),
        max_ms=values[-1],
        loss_fraction=(sent - len(values)) / sent,
    )


def _read_line(reader) -> bytes:
    line = reader.readline(MAX_CONTROL_LINE)
    if not line.endswith(b"\n"):
        raise HandshakeError("connection closed before a complete control line")
    return line


def _parse_result_line(line: bytes) -> tuple[int, float]:
    """The server's (bytes, duration_s) from its result line."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HandshakeError(f"malformed control line: {exc}") from exc
    if not isinstance(doc, dict):
        raise HandshakeError("malformed control line: not an object")
    if "error" in doc:
        raise HandshakeError(f"server rejected test: {doc['error']}")
    nbytes, duration = doc.get("bytes"), doc.get("duration_s")
    if not isinstance(nbytes, int) or isinstance(nbytes, bool) or nbytes < 0:
        raise HandshakeError(f"malformed result line: bytes {nbytes!r}")
    if (not isinstance(duration, (int, float)) or isinstance(duration, bool)
            or not math.isfinite(duration)):
        raise HandshakeError(f"malformed result line: duration_s {duration!r}")
    return nbytes, duration


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
        if direction == "UL":
            return _run_upload(cfg, sock)
        return _run_download(cfg, sock)
    finally:
        sock.close()


def _run_upload(cfg: ProbeConfig, sock: socket.socket) -> float:
    block = b"\x00" * cfg.tp_block_bytes
    bucket = TokenBucket(cfg.ul_throttle_mbps) if cfg.ul_throttle_mbps else None
    sent = 0
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < cfg.tp_duration_s:
            if bucket is not None:
                bucket.pace(len(block))
            sock.sendall(block)
            sent += len(block)
    except OSError as exc:
        raise PartialTransferError(f"upload broke: {exc}", bytes_so_far=sent) from exc
    active_s = time.perf_counter() - start
    sock.shutdown(socket.SHUT_WR)
    reader = sock.makefile("rb")
    server_bytes, _ = _parse_result_line(_read_line(reader))
    if server_bytes != sent:
        raise PartialTransferError(
            f"server counted {server_bytes} of {sent} bytes", bytes_so_far=server_bytes)
    return server_bytes * 8 / active_s / 1e6


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
        self._threads: list[threading.Thread] = []
        self._echo_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._echo_sock.bind((bind_addr, rtt_port))
            self._tp_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._tp_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._tp_sock.bind((bind_addr, tp_port))
            self._tp_sock.listen(16)
        except OSError:
            self._echo_sock.close()
            raise
        # finite accept/recv timeouts so stop() can interrupt the loops
        self._echo_sock.settimeout(0.2)
        self._tp_sock.settimeout(0.2)
        self.rtt_port = self._echo_sock.getsockname()[1]
        self.tp_port = self._tp_sock.getsockname()[1]

    def start(self) -> None:
        for target, name in ((self._echo_loop, "skylog-echo"),
                             (self._accept_loop, "skylog-tp")):
            t = threading.Thread(target=target, name=name, daemon=True)
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        self._stop.set()
        self._echo_sock.close()
        self._tp_sock.close()
        for t in self._threads:
            t.join(timeout=2.0)

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

    # --- echo ---

    def _echo_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self._echo_sock.recvfrom(2048)
            except TimeoutError:
                continue  # periodic stop check
            except OSError:
                return  # socket closed on stop
            if unpack_echo(data) is None:
                continue  # magic/shape check failed: drop silently
            try:
                self._echo_sock.sendto(data, addr)
            except OSError:
                continue

    # --- throughput ---

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._tp_sock.accept()
            except TimeoutError:
                continue  # periodic stop check
            except OSError:
                return
            conn.settimeout(None)  # sessions block; the listener timeout must not leak
            t = threading.Thread(target=self._serve_one, args=(conn,),
                                 name="skylog-tp-session", daemon=True)
            t.start()

    def _serve_one(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(60.0)
            reader = conn.makefile("rb")
            line = reader.readline(MAX_CONTROL_LINE)
            error = None
            header = None
            if not line.endswith(b"\n"):
                error = "incomplete header"
            else:
                try:
                    header = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    error = "header is not valid JSON"
            if error is None:
                error = self._check_header(header)
            if error is not None:
                conn.sendall((json.dumps({"error": error}) + "\n").encode("utf-8"))
                return
            if header["dir"] == "UL":
                self._serve_upload(conn, reader)
            else:
                self._serve_download(conn, header)
        except OSError as exc:
            log.warning("throughput session aborted: %s", exc)
        finally:
            conn.close()

    @staticmethod
    def _check_header(header) -> Optional[str]:
        if not isinstance(header, dict):
            return "header must be an object"
        direction = header.get("dir")
        if direction not in ("UL", "DL"):
            return "dir must be UL or DL"
        duration = header.get("duration_s")
        if (not isinstance(duration, (int, float)) or isinstance(duration, bool)
                or not 0 < duration < math.inf):
            return "duration_s must be finite and positive"
        block = header.get("block_bytes")
        if not isinstance(block, int) or isinstance(block, bool) or block <= 0:
            return "block_bytes must be a positive integer"
        if block > MAX_BLOCK_BYTES:
            return f"block_bytes above {MAX_BLOCK_BYTES}"
        return None

    def _serve_upload(self, conn: socket.socket, reader) -> None:
        total = 0
        started = None
        while True:
            chunk = reader.read(65536)
            if not chunk:
                break
            if started is None:
                started = time.perf_counter()
            total += len(chunk)
        elapsed = 0.0 if started is None else time.perf_counter() - started
        result = json.dumps({"bytes": total, "duration_s": elapsed}) + "\n"
        conn.sendall(result.encode("utf-8"))

    def _serve_download(self, conn: socket.socket, header: dict) -> None:
        block = b"\x00" * int(header["block_bytes"])
        duration = float(header["duration_s"])
        bucket = TokenBucket(self.dl_throttle_mbps) if self.dl_throttle_mbps else None
        sent = 0
        start = time.perf_counter()
        while time.perf_counter() - start < duration:
            if bucket is not None:
                bucket.pace(len(block))
            conn.sendall(block)
            sent += len(block)
        active_s = time.perf_counter() - start
        result = json.dumps({"bytes": sent, "duration_s": active_s}) + "\n"
        conn.sendall(result.encode("utf-8"))


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
