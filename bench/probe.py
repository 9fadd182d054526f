"""Run one skylog command in this fresh interpreter, the way a user runs it.

Usage: python3 bench/probe.py SIDE_JSON TRACE -- SKYLOG_ARGS...

Calls ``skylog.cli.main(SKYLOG_ARGS)`` and exits with its code.  Before that
it marks the first workload call (``run_collection`` for simulate,
``cmd_analyze`` and ``cmd_export`` for the others), which ends set-up.  With
TRACE=1 it also wraps every callable in TARGETS at its module attributes and
keeps one span per call in memory.  Everything goes to SIDE_JSON after main
returns, outside the timed work (first workload call to the return of main).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module:attribute, span name, stage).  Stages use the analyze/export stage
# names (read, decode, validate, reduce, render, write) plus two for the
# collection tick: sample (flight position and radio) and collect (the loop).
TARGETS = (
    ("skylog.collector:run_collection", "collector.run_collection", "collect"),
    ("skylog.collector:SimClock.sleep_until_ms", "collector.sleep_until_ms", "collect"),
    ("skylog.collector:assemble_record", "collector.assemble_record", "validate"),
    ("skylog.simenv:flight_position", "simenv.flight_position", "sample"),
    ("skylog.simenv:radio_sample", "simenv.radio_sample", "sample"),
    ("skylog.simenv:SimE2eEngine.measure", "simenv.e2e_measure", "sample"),
    ("skylog.records:encode_record", "records.encode_record", "write"),
    ("skylog.records:encode_e2e", "records.encode_e2e", "write"),
    ("skylog.records:read_trace", "records.read_trace", "read"),
    ("skylog.records:read_e2e_trace", "records.read_e2e_trace", "read"),
    ("skylog.records:decode_record", "records.decode_record", "decode"),
    ("skylog.records:decode_e2e", "records.decode_e2e", "decode"),
    ("skylog.records:validate_record", "records.validate_record", "validate"),
    ("skylog.records:validate_e2e", "records.validate_e2e", "validate"),
    ("skylog.analysis:coverage_report", "analysis.coverage_report", "reduce"),
    ("skylog.analysis:grid_aggregate", "analysis.grid_aggregate", "reduce"),
    ("skylog.analysis:cell_dominance", "analysis.cell_dominance", "reduce"),
    ("skylog.analysis:neighbor_stats", "analysis.neighbor_stats", "reduce"),
    ("skylog.analysis:ecdf", "analysis.ecdf", "reduce"),
    ("skylog.analysis:altitude_bins", "analysis.altitude_bins", "reduce"),
    ("skylog.analysis:histogram_pdf", "analysis.histogram_pdf", "reduce"),
    ("skylog.geoexport:export_geojson", "geoexport.export_geojson", "render"),
    ("skylog.cli:cmd_analyze", "cli.analyze", "write"),
    ("skylog.cli:cmd_export", "cli.export", "write"),
)

FIRST_CALLS = ("run_collection", "cmd_analyze", "cmd_export")


class Spans:
    """Span log: rows of (id, name, thread name, start ns, end ns, parent id).

    The parent is the innermost open span of the same thread, so a span's
    self time never includes work done by another thread.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        rows, ids, local, clock = self.rows, self._ids, self._local, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [0]
                local.thread = threading.current_thread().name
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((sid, name, local.thread, start, end, parent))
        return traced


def patch(target: str, make_wrapper) -> bool:
    """Replace a callable by make_wrapper(callable) wherever a skylog module
    holds it; False when a refactor has removed or renamed the target."""
    module_name, _, attr = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = getattr(owner, name, None)
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    if path:  # a method: the class attribute is the only reference
        setattr(owner, name, wrapper)
        return True
    # `from .records import encode_record` copies the reference into the
    # importing module, so every module holding the same object is patched.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "skylog" or mod_name.startswith("skylog."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


def peak_rss_kb() -> int:
    """This process's resident high-water mark.  getrusage's ru_maxrss would
    also count the parent's pages that the fork copied before exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    side_path, trace, sep, *skylog_argv = argv
    if sep != "--" or trace not in ("0", "1"):
        print("usage: probe.py SIDE_JSON 0|1 -- SKYLOG_ARGS...", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import skylog.cli as cli

    spans = Spans() if trace == "1" else None
    absent = []
    if spans is not None:
        for target, name, _stage in TARGETS:
            if not patch(target, functools.partial(spans.wrap, name)):
                absent.append(name)

    first_call: list[int] = []

    def mark_first(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not first_call:
                first_call.append(time.monotonic_ns())
            return fn(*args, **kwargs)
        return marked

    for name in FIRST_CALLS:
        if hasattr(cli, name):
            setattr(cli, name, mark_first(getattr(cli, name)))

    code = cli.main(skylog_argv)
    t_end = time.monotonic_ns()
    side = {"t_first": first_call[0] if first_call else None, "t_end": t_end,
            "peak_rss_kb": peak_rss_kb(),
            "main_thread": threading.main_thread().name, "absent": absent,
            "spans": spans.rows if spans is not None else []}
    Path(side_path).write_text(json.dumps(side), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
