"""Command-line entry point.

One subcommand per workflow stage: collect (daemon), serve/probe (active
measurement endpoints), simulate (collector against the simulated backend),
analyze, export.  Exit codes: 0 success, 1 usage error, 2 runtime failure.

The simulator (simenv), the socket code (netprobe), the collection stage
(collector, modem, signal) and logging are imported by the commands that
run them, so analyze and export load none of them.  Only the commands that
log (collect, serve, probe, simulate) configure logging.  main() imports
analysis and geoexport for analyze and export only, before dispatch, so
their compile counts as set-up, not as the command's work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import threading
import time
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional

from .records import (
    METRIC_FIELDS,
    EndToEndRecord,
    GeoPosition,
    encode_e2e,
    iter_rows,
    read_e2e_trace,
    validate_position,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

LOGGING_COMMANDS = ("collect", "serve", "probe", "simulate")
ANALYSIS_COMMANDS = ("analyze", "export")


class UsageError(Exception):
    """Bad flag combination detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for runtime failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _grid_spec(text: str) -> tuple[float, float]:
    try:
        ground_s, alt_s = text.split(",")
        ground, alt = float(ground_s), float(alt_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected GROUND,ALT meters (e.g. 25,10), got {text!r}")
    if not (0 < ground < math.inf and 0 < alt < math.inf):  # also refuses NaN
        raise argparse.ArgumentTypeError("voxel sizes must be positive")
    return ground, alt


def _port(text: str) -> int:
    try:
        port = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {port}")
    return port


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="skylog",
                     description="UAV cellular-coverage survey toolkit")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="logging verbosity of collect, serve, probe and simulate "
                             "(default: warning)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the environment file's RNG seed "
                             "(sim paths only)")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("collect", help="run the sampling daemon",
                       description="Poll a modem backend on a fixed cadence and "
                                   "write trace files until stopped.")
    p.add_argument("--config",
                   help="environment file: stations, propagation, seed (required for the sim backend)")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds (default: run until SIGINT)")
    p.add_argument("--backend", choices=["sim", "replay", "hw"], default="sim",
                   help="modem backend (default: sim)")
    p.add_argument("--plan", help="flight plan file (required for the sim backend)")
    p.add_argument("--replay", metavar="TRACE",
                   help="trace file to re-ingest (required for the replay backend)")
    p.add_argument("--out", default="skylog-out", help="output directory")
    p.add_argument("--interval-ms", type=int, default=1000,
                   help="RAN sampling interval (default: 1000)")
    p.add_argument("--e2e-interval", type=float, default=60.0,
                   help="seconds between end-to-end tests, 0 disables, else >= 0.001 (default: 60)")
    p.add_argument("--run-id", default=None, help="output file name stem")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("serve", help="run the echo/throughput server",
                       description="Measurement server; prints the bound ports "
                                   "as one JSON line, then serves until SIGINT.")
    p.add_argument("--bind", default="0.0.0.0", help="bind address")
    p.add_argument("--rtt-port", type=_port, default=7701, help="UDP echo port")
    p.add_argument("--tp-port", type=_port, default=7702, help="TCP throughput port")
    p.add_argument("--dl-throttle-mbps", type=float, default=None,
                   help="cap download streaming rate (testing aid)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("probe", help="run one end-to-end test",
                       description="RTT burst plus bidirectional throughput "
                                   "against a server; prints one record line.")
    p.add_argument("--server", required=True, help="server host")
    p.add_argument("--rtt-port", type=_port, default=7701)
    p.add_argument("--tp-port", type=_port, default=7702)
    p.add_argument("--count", type=int, default=20, help="RTT probes per burst")
    p.add_argument("--interval-ms", type=int, default=200, help="RTT probe spacing")
    p.add_argument("--timeout-ms", type=int, default=1000, help="RTT reply timeout")
    p.add_argument("--duration", type=float, default=5.0,
                   help="seconds per throughput direction (default: 5)")
    p.add_argument("--block-bytes", type=int, default=65536, help="upload block size")
    p.add_argument("--ul-throttle-mbps", type=float, default=None,
                   help="cap upload rate (testing aid)")
    p.add_argument("--lat", type=float, default=0.0, help="tag position latitude")
    p.add_argument("--lon", type=float, default=0.0, help="tag position longitude")
    p.add_argument("--alt", type=float, default=0.0, help="tag altitude (m AMSL)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("simulate", help="run the collector on the simulated backend",
                       description="Full collection run against the simulated "
                                   "radio environment on a virtual clock; "
                                   "deterministic for a fixed seed.")
    p.add_argument("--env", required=True, help="environment file")
    p.add_argument("--plan", required=True, help="flight plan file")
    p.add_argument("--duration", type=float, required=True, help="simulated seconds")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--interval-ms", type=int, default=1000,
                   help="RAN sampling interval (default: 1000)")
    p.add_argument("--e2e-interval", type=float, default=60.0,
                   help="seconds between end-to-end tests, 0 disables, else >= 0.001 (default: 60)")
    p.add_argument("--run-id", default=None, help="output file name stem")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="summarize traces into a coverage report",
                       description="Coverage report plus distribution tables, "
                                   "written as one JSON document and sibling "
                                   "CSV tables next to it.")
    p.add_argument("--ran", nargs="+", required=True, metavar="TRACE",
                   help="RAN trace file(s)")
    p.add_argument("--e2e", nargs="+", default=[], metavar="TRACE",
                   help="end-to-end trace file(s)")
    p.add_argument("--report", required=True, help="output report path")
    p.add_argument("--rsrq-poor", type=float,
                   help="poor-quality RSRQ threshold, dB (default: -19)")
    p.add_argument("--tp-min", type=float,
                   help="throughput floor, Mbps (default: 5)")
    p.add_argument("--rtt-max", type=float,
                   help="latency ceiling on RTT medians, ms (default: 150)")
    p.add_argument("--alt-bin", type=float, default=10.0,
                   help="altitude bin height, m (default: 10)")
    p.add_argument("--rtt-bin", type=float, default=10.0,
                   help="RTT histogram bin width, ms (default: 10)")
    p.add_argument("--grid", type=_grid_spec, default=None,
                   metavar="GROUND,ALT", help="voxel sizes in m (default: 25,10)")
    p.add_argument("--by-voxel", action="store_true",
                   help="weight the RSRQ fraction by occupied voxel instead of "
                        "by sample (de-biases hover dwells)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export", help="export a trace for map rendering")
    p.add_argument("--ran", required=True, metavar="TRACE", help="RAN trace file")
    p.add_argument("--format", required=True, choices=["geojson", "csv"])
    p.add_argument("--metric", choices=list(METRIC_FIELDS),
                   help="limit geojson properties to one metric")
    p.add_argument("--grid", type=_grid_spec, default=None, metavar="GROUND,ALT",
                   help="aggregate into voxels of this size instead of "
                        "exporting raw records")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_export)

    return parser


def run_collection(*args, **kwargs):
    """collector.run_collection, looked up on each call, so a wrapper put on
    the collector's own name (bench/probe.py's traced run) is the one run."""
    from .collector import run_collection
    return run_collection(*args, **kwargs)


def _collector_config(args):
    from .collector import CollectorConfig
    return CollectorConfig(output_dir=args.out, sample_interval_ms=args.interval_ms,
                           e2e_interval_s=args.e2e_interval, duration_s=args.duration,
                           run_id=args.run_id)


def _simulated_run(args, env_path: str) -> tuple:
    """(config, modem, position_at, e2e engine) of a run on the simulated
    backend, for run_collection; the one place cli imports simenv.  Each
    input is checked as it is loaded, so the first bad one is the one
    reported: the environment (with --seed applied), the flight plan, then
    the collector options."""
    from .simenv import (SimE2eEngine, SimModemBackend, flight_position, load_environment,
                         load_flight_plan)
    env = load_environment(env_path)
    if args.seed is not None:
        env = env._replace(seed=args.seed)
    position_at = partial(flight_position, load_flight_plan(args.plan))
    cfg = _collector_config(args)
    return (cfg, SimModemBackend(env), position_at,
            SimE2eEngine(env) if args.e2e_interval > 0 else None)


@contextlib.contextmanager
def _stop_on_signals():
    """An Event that SIGINT and SIGTERM set, with the previous handlers put back
    on exit.  Installed explicitly because a process started with SIGINT
    ignored (a background job) never gets a KeyboardInterrupt."""
    import signal
    stop = threading.Event()
    previous = {s: signal.signal(s, lambda *_: stop.set())
                for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        yield stop
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def cmd_collect(args) -> int:
    from .collector import SimClock, SystemClock
    if args.backend == "hw":
        raise UsageError("no hardware modem driver is built in; use sim or replay")
    if args.backend == "sim":
        if not args.config:
            raise UsageError("--config is required with the sim backend")
        if not args.plan:
            raise UsageError("--plan is required with the sim backend")
        cfg, modem, position_at, engine = _simulated_run(args, args.config)
        clock = SystemClock()
    else:
        if not args.replay:
            raise UsageError("--replay TRACE is required with the replay backend")
        # A bad line is refused here, before the run starts; the rows are then
        # streamed, each line giving both a report and its position.
        from .modem import ReplayBackend
        modem = ReplayBackend(args.replay)
        position_at = modem.position
        cfg, engine = _collector_config(args), None
        clock = SimClock()  # re-ingesting a trace should not wait out wall time
    with _stop_on_signals() as stop:
        summary = run_collection(cfg, clock, modem, position_at,
                                 e2e_engine=engine, stop_event=stop)
    print(json.dumps(summary.to_doc()))
    return EXIT_OK


def cmd_serve(args) -> int:
    from .netprobe import MeasurementServer
    server = MeasurementServer(args.bind, args.rtt_port, args.tp_port,
                               dl_throttle_mbps=args.dl_throttle_mbps)
    server.start()
    try:
        with _stop_on_signals() as stop:
            print(json.dumps({"bind": args.bind, "rtt_port": server.rtt_port,
                              "tp_port": server.tp_port}), flush=True)
            server.wait(stop)
    finally:
        server.stop()
    return EXIT_OK


def cmd_probe(args) -> int:
    from .netprobe import ProbeConfig, ProbeE2eEngine
    try:
        cfg = ProbeConfig(server_host=args.server, rtt_port=args.rtt_port,
                          tp_port=args.tp_port, rtt_count=args.count,
                          rtt_interval_ms=args.interval_ms,
                          rtt_timeout_ms=args.timeout_ms,
                          tp_duration_s=args.duration,
                          tp_block_bytes=args.block_bytes,
                          ul_throttle_mbps=args.ul_throttle_mbps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pos = GeoPosition(args.lat, args.lon, args.alt)
    result = validate_position(pos)
    if not result:
        raise UsageError(f"tag position: {result.message}")
    rtt, dl, ul, duration = ProbeE2eEngine(cfg).measure(pos, salt=0)
    rec = EndToEndRecord(ts_unix_ms=time.time_ns() // 1_000_000, pos=pos,
                         rtt=rtt, dl_mbps=dl, ul_mbps=ul, duration_s=duration)
    print(encode_e2e(rec))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .collector import SimClock
    cfg, modem, position_at, engine = _simulated_run(args, args.env)
    summary = run_collection(cfg, SimClock(), modem, position_at, e2e_engine=engine)
    print(json.dumps(summary.to_doc()))
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analysis
    from .geoexport import _create, _file_targets, write_csv
    if args.grid is not None and not args.by_voxel:
        raise UsageError("--grid needs --by-voxel")
    # A bad target, bin size or threshold is refused before any input is read.
    [report_path] = _file_targets(args.report)
    analysis._check_bin_sizes("bin width", args.alt_bin)
    analysis._check_bin_sizes("bin width", args.rtt_bin)
    thresholds = {"rsrq_poor_db": args.rsrq_poor, "tp_min_mbps": args.tp_min,
                  "rtt_max_ms": args.rtt_max}
    thresholds = {k: v for k, v in thresholds.items() if v is not None}  # else report's default
    analysis._check_thresholds(**thresholds)

    survey = analysis.Survey(chain.from_iterable(map(iter_rows, args.ran)), args.alt_bin,
                             (args.grid or analysis.DEFAULT_GRID_M) if args.by_voxel else None)
    rtt_medians: list[float] = []

    def e2e_records():
        """Each e2e file's records in turn, its RTT medians gathered on the
        way; a file's list is let go before the next file is read."""
        for path in args.e2e:
            recs = read_e2e_trace(path)
            rtt_medians.extend(r.rtt.p50_ms for r in recs if r.rtt.p50_ms is not None)
            yield from recs
            del recs

    report = survey.report(e2e_records(), **thresholds)

    doc: dict = {"coverage": report.to_doc()}
    tables = []  # (suffix, header, rows)
    if survey.n:
        doc["ecdf_rsrq_db"] = survey.ecdf_rsrq()
        tables.append(("ecdf-rsrq", ["rsrq_db", "cum_frac"], doc["ecdf_rsrq_db"]))
        rendered = ("rsrp", "sinr")
        bins = survey.altitude_bins(rendered)
        for metric in rendered:
            doc[f"alt_bins_{metric}"] = [{**s[metric].to_doc(), "lower": lower}
                                         for lower, s in bins.items()]
            tables.append((f"alt-{metric}",
                           ["alt_lower_m", "count", "mean", "std", "min", "max"],
                           [(lower, *s[metric])
                            for lower, s in bins.items()]))
    if rtt_medians:
        doc["pdf_rtt_ms"] = analysis.histogram_pdf(rtt_medians, args.rtt_bin)
        tables.append(("pdf-rtt", ["bin_start_ms", "density"], doc["pdf_rtt_ms"]))

    # Every reduction has run, so a refused input leaves no directory behind;
    # no file replaces its path until all of them are written.
    table_paths = [report_path.with_name(f"{report_path.stem}-{suffix}.csv")
                   for suffix, _, _ in tables]
    with _create(*table_paths, report_path) as [*table_outs, out]:
        for table_out, (_, header, rows) in zip(table_outs, tables):
            write_csv(table_out, header, rows)
        out.write(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"report": str(report_path),
                      "csv_tables": len(tables),
                      "fractions": doc["coverage"]["fractions"]}))
    return EXIT_OK


def cmd_export(args) -> int:
    from . import analysis
    from .geoexport import _file_targets, export_csv, export_geojson
    if args.format == "csv" and args.metric:
        raise UsageError("--metric applies to geojson export only")
    _file_targets(args.out)  # refused before any input is read
    rows = iter_rows(args.ran)
    source = analysis.Survey(rows, grid=args.grid).voxel_grid() if args.grid is not None else rows
    if args.format == "geojson":
        count, what = export_geojson(source, args.out, metric=args.metric), "features"
    else:
        count, what = export_csv(source, args.out), "rows"
    print(json.dumps({"out": str(Path(args.out)), "count": count, "kind": what}))
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in LOGGING_COMMANDS:
        import logging
        logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                            format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    if args.command in ANALYSIS_COMMANDS:
        from . import analysis, geoexport  # noqa: F401
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"skylog: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("skylog: interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, RuntimeError) as exc:
        # config errors, trace decode errors, socket failures, analysis errors
        print(f"skylog: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
