"""Fixed-cadence sampling daemon.

Reads the position once per tick, polls a modem backend with it, and
appends the report, tagged with that position, as a validated record to
rotating trace files.  End-to-end tests fire on their own cadence.

Threads run only for a clock that waits (SystemClock, or any clock but
SimClock): the end-to-end tests run on one thread, so a seconds-long
throughput test never punches holes in the 1 Hz RAN series, and the
writes on another, so storage stalls stay off the tick.  Each is a
one-worker concurrent.futures.ThreadPoolExecutor, which runs what it is
handed in order.  The virtual SimClock never waits, so a thread would have
nothing to overlap: the tick runs each test and writes each line itself,
through the same per-item code, and no thread starts.

A tick handles one flat row (records.ROW_FIELDS), never a record object:
the tick time, the position's fields, the cells returned by poll_cells
(modem.ModemBackend's one method) and the backend's descriptor.
records.accepted_line checks it once and renders its trace line: a plain
row (records.plain_row, the guard of every fixed-layout writer) fills the
template, any other is dropped or kept exactly as validate_record would
the record.  On the threaded path the writer thread is handed the
finished lines (and the e2e records).

Ticks are scheduled on absolute deadlines (t0 + n*interval) so cadence
cannot drift over an hour-long flight.  Records are stamped with the
scheduled tick time from the injected clock, and the position is read at
that time too, which makes simulated runs bit-reproducible.
"""

from __future__ import annotations

import contextlib
import logging
import math
import threading
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Protocol

from .modem import ModemBackend, ModemError, ModemReport, RangeError, ReplayExhausted, ReportSyntaxError
from .records import (
    EndToEndRecord,
    GeoPosition,
    MeasurementRecord,
    RecordRefused,
    RttSummary,
    accepted_line,
    encode_e2e,
    validate_e2e,
    validate_record,
)

log = logging.getLogger("skylog.collector")

# Epoch for simulated runs; any fixed value works, stability is the point.
SIM_EPOCH_MS = 1_700_000_000_000


class Clock(Protocol):
    def now_ms(self) -> int: ...
    def sleep_until_ms(self, deadline_ms: int) -> None: ...


class SimClock:
    """Virtual clock: sleeping jumps straight to the deadline."""

    def __init__(self):
        self._now_ms = SIM_EPOCH_MS

    def now_ms(self) -> int:
        return self._now_ms

    def sleep_until_ms(self, deadline_ms: int) -> None:
        if deadline_ms > self._now_ms:
            self._now_ms = deadline_ms


class SystemClock:
    """Wall-anchored monotonic time: the wall clock is read once, so a step
    of it (NTP, GPS fix) neither stalls nor races the tick schedule."""

    def __init__(self):
        self._offset_ns = time.time_ns() - time.monotonic_ns()

    def now_ms(self) -> int:
        return (self._offset_ns + time.monotonic_ns()) // 1_000_000

    def sleep_until_ms(self, deadline_ms: int) -> None:
        delta_s = (deadline_ms - self.now_ms()) / 1000.0
        if delta_s > 0:
            time.sleep(delta_s)


class E2eEngine(Protocol):
    def measure(self, pos: GeoPosition, salt: int) -> tuple[RttSummary, float, float, float]:
        """Returns (rtt summary, dl_mbps, ul_mbps, duration_s)."""
        ...


class _CollectorConfigFields(NamedTuple):
    output_dir: str
    sample_interval_ms: int = 1000
    e2e_interval_s: float = 60.0  # 0 disables end-to-end testing
    max_file_records: int = 100_000
    duration_s: Optional[float] = None  # None = run until stop signal
    run_id: Optional[str] = None


class CollectorConfig(_CollectorConfigFields):
    """A NamedTuple checked when built, by _replace too: a config that breaks
    a bound raises ValueError before any run can start."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.sample_interval_ms < 100:
            raise ValueError("sample_interval_ms must be >= 100")
        if self.max_file_records < 1:
            raise ValueError("max_file_records must be >= 1")
        # The deadlines are integer milliseconds, so inf and NaN are refused here,
        # and so is a positive interval under 1 ms: it would truncate to 0 (off).
        if not (self.e2e_interval_s == 0 or 0.001 <= self.e2e_interval_s < math.inf):
            raise ValueError("e2e_interval_s must be finite and 0 (off) or >= 0.001")
        if self.duration_s is not None and not (0 <= self.duration_s < math.inf):
            raise ValueError("duration_s must be finite and >= 0")
        # The run id is a file name stem inside output_dir, never a path.
        if self.run_id is not None and any(c in self.run_id for c in ("/", "\\", "\0")):
            raise ValueError("run_id must not hold a path separator or NUL")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, whose tuple.__new__ would skip the checks.
        return cls(*iterable)


class RunSummary(NamedTuple):
    records_written: int
    polls_failed: int
    e2e_tests_run: int
    start_ms: int
    end_ms: int
    files: tuple[str, ...]

    @property
    def polls_attempted(self) -> int:
        return self.records_written + self.polls_failed

    def to_doc(self) -> dict:
        return self._asdict()


def assemble_record(report: ModemReport, pos: GeoPosition, ts_unix_ms: int,
                    source: str = "sim") -> MeasurementRecord:
    """Build and validate a record; raises ValueError naming the violation.
    The tick builds a row instead (see run_collection); this is the same
    check on a record."""
    rec = MeasurementRecord(ts_unix_ms=ts_unix_ms, pos=pos,
                            serving=report.serving, neighbors=report.neighbors,
                            source=source)
    result = validate_record(rec)
    if not result:
        raise ValueError(f"invalid record: {result.message}")
    return rec


class _TraceWriter:
    """The only component that touches output files.  write(item) writes a
    RAN trace line (a str from records.accepted_line) or an e2e record;
    after a failure, kept in error for run_collection to raise, it drops
    every item, so the lines before it stay written.  The tick calls write,
    or under a clock that waits, the writer thread does."""

    def __init__(self, out_dir: Path, run_id: str, max_file_records: int):
        self.out_dir = out_dir
        self.run_id = run_id
        self.max_file_records = max_file_records
        self.files: list[str] = []
        self.ran_written = 0
        self.e2e_written = 0
        self.error: Optional[Exception] = None
        self._ran_fh = None
        self._ran_seq = 0
        self._ran_in_file = 0
        self._e2e_fh = None

    def _rotate_ran(self):
        if self._ran_fh is not None:
            self._ran_fh.close()
        self._ran_seq += 1
        path = self.out_dir / f"{self.run_id}-{self._ran_seq:04d}.trace"
        self._ran_fh = open(path, "w", encoding="utf-8", newline="\n")
        self._ran_in_file = 0
        self.files.append(str(path))

    def _write_ran(self, line: str):
        if self._ran_fh is None or self._ran_in_file >= self.max_file_records:
            self._rotate_ran()
        self._ran_fh.write(line + "\n")
        self._ran_in_file += 1
        self.ran_written += 1

    def _write_e2e(self, rec: EndToEndRecord):
        if self._e2e_fh is None:
            path = self.out_dir / f"{self.run_id}.e2e"
            self._e2e_fh = open(path, "w", encoding="utf-8", newline="\n")
            self.files.append(str(path))
        self._e2e_fh.write(encode_e2e(rec) + "\n")
        self.e2e_written += 1

    def write(self, item) -> None:
        """Write a RAN line or an EndToEndRecord unless an earlier write failed."""
        if self.error is not None:
            return
        try:
            if type(item) is str:
                self._write_ran(item)
            else:
                self._write_e2e(item)
        except Exception as exc:  # noqa: BLE001 - surfaced to the main loop as fatal
            self.error = exc

    def close(self) -> None:
        """Close the files; called after the last write."""
        if self._ran_fh is not None:
            self._ran_fh.close()
        if self._e2e_fh is not None:
            self._e2e_fh.close()


class _E2eWorker:
    """Runs end-to-end tests; each run_test hands its record to put (the
    writer's write, or the call that hands it to the writer thread)."""

    def __init__(self, engine: E2eEngine, put: Callable[[EndToEndRecord], None]):
        self.engine = engine
        self.put = put
        self.completed = 0

    def run_test(self, pos: GeoPosition, ts: int, salt: int) -> None:
        """One test; a failed test or an invalid record is logged and dropped."""
        try:
            rtt, dl, ul, duration = self.engine.measure(pos, salt)
            rec = EndToEndRecord(ts_unix_ms=ts, pos=pos, rtt=rtt,
                                 dl_mbps=dl, ul_mbps=ul, duration_s=duration)
            result = validate_e2e(rec)
            if not result:
                log.warning("dropping invalid e2e record: %s", result.message)
                return
            self.put(rec)
            self.completed += 1
        except Exception:
            log.exception("end-to-end test failed")


def _on_thread(stack: contextlib.ExitStack, name: str, fn: Callable) -> Callable:
    """A call that hands fn's arguments to a thread named name, which runs
    them in order; stack's exit waits for everything handed to it.  No
    future is read, so fn handles its own errors, as write and run_test do."""
    # Imported here: cli loads this module for analyze and export too.
    from concurrent.futures import ThreadPoolExecutor
    pool = stack.enter_context(ThreadPoolExecutor(max_workers=1, thread_name_prefix=name))
    return partial(pool.submit, fn)


def run_collection(cfg: CollectorConfig, clock: Clock, modem: ModemBackend,
                   position_at: Callable[[float], GeoPosition],
                   e2e_engine: Optional[E2eEngine] = None,
                   stop_event: Optional[threading.Event] = None) -> RunSummary:
    """Run the sampling loop until duration elapses, the backend is exhausted,
    or the stop event fires; returns the run summary after a full flush.

    Only this loop knows the flight time: each wake calls position_at once
    with the scheduled offset in seconds from the run start, and hands that
    position to the backend's poll_cells on a RAN tick and to the e2e worker
    on an e2e tick.  ReplayExhausted from either call ends the run cleanly.
    A poll error other than the counted modem, range and syntax errors ends
    the run: the threads are stopped after flushing every accepted record, and
    the exception propagates unchanged.

    A RAN tick builds one records.ROW_FIELDS row (the tick time, the
    position's fields, the polled cells and the backend's descriptor) and
    hands the writer its records.accepted_line.  That checks the row once:
    a record validate_record refuses is dropped and counted in
    polls_failed, any other is written, so a record is accepted exactly
    when validate_record accepts it.  Cells that break poll_cells's
    contract (a tuple of the wrong length) end the run like any other
    poll error.

    Threads run only for a clock that waits: under SimClock the tick calls
    the writer's and the e2e worker's per-item code itself, so nothing
    queues and memory does not grow with the flight.  On every exit path,
    an exception's too, the e2e thread finishes the tests it was handed,
    then the writer thread the writes, then the files close.

    The backend is read before anything is created or started: one without
    poll_cells raises AttributeError with no directory made and no thread
    left running."""
    poll_cells = modem.poll_cells
    source = getattr(modem, "descriptor", "hw")
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"output directory not writable: {exc}") from exc

    t0 = clock.now_ms()
    run_id = cfg.run_id or f"run{t0}"

    e2e_ms = int(cfg.e2e_interval_s * 1000)
    end_ms = None if cfg.duration_s is None else t0 + int(cfg.duration_s * 1000)
    # A virtual clock never waits, so a thread would have nothing to overlap.
    threaded = not isinstance(clock, SimClock)
    writer = _TraceWriter(out_dir, run_id, cfg.max_file_records)
    interval = cfg.sample_interval_ms
    n_ran = 0
    n_e2e = 0
    polls_failed = 0

    # Unwound last in, first out: the e2e thread, the writer thread, the files.
    with contextlib.ExitStack() as stack:
        stack.callback(writer.close)
        write = _on_thread(stack, "skylog-writer", writer.write) if threaded else writer.write
        worker = None
        if e2e_engine is not None and e2e_ms > 0:
            worker = _E2eWorker(e2e_engine, write)
            run_test = _on_thread(stack, "skylog-e2e", worker.run_test) if threaded else worker.run_test
        while True:
            if writer.error is not None:
                break
            if stop_event is not None and stop_event.is_set():
                break
            next_ran = t0 + n_ran * interval
            deadlines = [next_ran]
            next_e2e = None
            if worker is not None:
                next_e2e = t0 + n_e2e * e2e_ms
                deadlines.append(next_e2e)
            wake = min(deadlines)
            if end_ms is not None and wake >= end_ms:
                break
            clock.sleep_until_ms(wake)
            if stop_event is not None and stop_event.is_set():
                break
            try:
                pos = position_at((wake - t0) / 1000.0)
            except ReplayExhausted:
                break

            if wake == next_ran:
                try:
                    cells = poll_cells(pos)
                except ReplayExhausted:
                    break
                except (ModemError, RangeError, ReportSyntaxError) as exc:
                    polls_failed += 1
                    log.warning("poll %d failed: %s", n_ran, exc)
                else:
                    try:
                        line = accepted_line((next_ran, *pos, *cells, source))
                    except RecordRefused as exc:
                        polls_failed += 1
                        log.warning("poll %d dropped: invalid record: %s", n_ran, exc)
                    else:
                        write(line)
                n_ran += 1

            if worker is not None and wake == next_e2e:
                run_test(pos, next_e2e, n_e2e)
                n_e2e += 1
    if writer.error is not None:
        raise RuntimeError(f"trace writer failed: {writer.error}")

    return RunSummary(
        records_written=writer.ran_written,
        polls_failed=polls_failed,
        e2e_tests_run=worker.completed if worker is not None else 0,
        start_ms=t0,
        end_ms=clock.now_ms(),
        files=tuple(writer.files),
    )


__all__ = [
    "Clock", "SimClock", "SystemClock", "SIM_EPOCH_MS",
    "E2eEngine", "CollectorConfig", "RunSummary",
    "assemble_record", "run_collection",
]
