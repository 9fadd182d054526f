"""skylog benchmark: the simulate, analyze and export workloads.

    python3 bench/run.py --workload simulate|analyze|export|all --seed N \\
        --seconds S --trace 0|1 [--record FILE]
    python3 bench/run.py --selftest

Each timed invocation is ``skylog.cli.main(argv)`` in a fresh interpreter
(bench/probe.py), the way a user runs the tool.  With --trace 0 a run prints
the end-to-end metrics of its workload.  With --trace 1 it prints the
per-layer metrics of all three workloads, from one traced run.  Every
invocation's output is checked; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  bench/README.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from probe import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "skylog" / "data"
ENV = str(DATA / "threecell.env")
PLAN = str(DATA / "climb.plan")
WORK = ROOT / ".bench_work"

E2E_INTERVAL_S = 60
RSRQ_POOR_DB = -19.0
GRID_GROUND_M, GRID_ALT_M = 25.0, 10.0
EARTH_RADIUS_M = 6371000.0
CHILD_TIMEOUT_S = 120
RUN_CAP_S = 150  # stop measuring early rather than overrun a 180 s run


@dataclass(frozen=True)
class Sizes:
    sim_seeds: int       # distinct flights simulate cycles through
    corpus_flights: int  # N: traces analyzed together, and exported in turn
    min_calls: int       # fewest invocations in one measured stretch


SIZES = Sizes(sim_seeds=3, corpus_flights=6, min_calls=3)
TINY = Sizes(sim_seeds=1, corpus_flights=1, min_calls=1)

END_TO_END = (
    ("records_per_s", "records/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

S, A, E = "simulate", "analyze", "export"

# (name, unit, better, span it is read from or None when the harness measures
# it from outputs, workloads it is reported on).  A name ending in .us or .ms
# is the median time of one call of that span, children included.  The traced
# run reports each as "<workload>.<name>".
PER_LAYER = (
    ("collector.tick_us.p50", "us", "lower", "collector.sleep_until_ms", (S,)),
    ("collector.tick_us.p99", "us", "lower", "collector.sleep_until_ms", (S,)),
    ("collector.drain_ms", "ms", "lower", "collector.run_collection", (S,)),
    ("collector.assemble_record.us", "us", "lower", "collector.assemble_record", (S,)),
    ("collector.polls_failed", "count", "lower", None, (S,)),
    ("collector.e2e_written_ratio", "ratio", "higher", None, (S,)),
    ("simenv.flight_position.us", "us", "lower", "simenv.flight_position", (S,)),
    ("simenv.flight_position.calls_per_tick", "1/tick", "lower", "simenv.flight_position", (S,)),
    ("simenv.radio_sample.us", "us", "lower", "simenv.radio_sample", (S,)),
    ("simenv.radio_sample.calls_per_tick", "1/tick", "lower", "simenv.radio_sample", (S,)),
    ("simenv.e2e_measure.us", "us", "lower", "simenv.e2e_measure", (S,)),
    ("records.encode_record.us", "us", "lower", "records.encode_record", (S,)),
    ("records.trace_bytes_per_record", "B", "lower", None, (S,)),
    ("records.read_trace.ms", "ms", "lower", "records.read_trace", (A, E)),
    ("records.decode_record.us", "us", "lower", "records.decode_record", (A, E)),
    ("records.validate_record.us", "us", "lower", "records.validate_record", (S, A, E)),
    ("records.read_e2e_trace.ms", "ms", "lower", "records.read_e2e_trace", (A,)),
    ("analysis.coverage_report.ms", "ms", "lower", "analysis.coverage_report", (A,)),
    ("analysis.grid_aggregate.ms", "ms", "lower", "analysis.grid_aggregate", (A,)),
    ("analysis.neighbor_stats.ms", "ms", "lower", "analysis.neighbor_stats", (A,)),
    ("analysis.ecdf.ms", "ms", "lower", "analysis.ecdf", (A,)),
    ("analysis.altitude_bins.ms", "ms", "lower", "analysis.altitude_bins", (A,)),
    ("analysis.histogram_pdf.ms", "ms", "lower", "analysis.histogram_pdf", (A,)),
    ("geoexport.export_geojson.ms", "ms", "lower", "geoexport.export_geojson", (E,)),
    ("cli.export.self_ms", "ms", "lower", "cli.export", (E,)),
    ("cli.export.bytes_per_record", "B", "lower", None, (E,)),
    ("cli.analyze.self_ms", "ms", "lower", "cli.analyze", (A,)),
    # Main-thread self time per invocation by stage; with the residual they
    # add up to stage.wall_ms.  offthread_ms is writer and e2e thread time.
    ("stage.read.ms", "ms", "lower", None, (A, E)),
    ("stage.decode.ms", "ms", "lower", None, (A, E)),
    ("stage.validate.ms", "ms", "lower", None, (S, A, E)),
    ("stage.reduce.ms", "ms", "lower", None, (A,)),
    ("stage.render.ms", "ms", "lower", None, (E,)),
    ("stage.write.ms", "ms", "lower", None, (A, E)),
    ("stage.sample.ms", "ms", "lower", None, (S,)),
    ("stage.collect.ms", "ms", "lower", None, (S,)),
    ("stage.residual.ms", "ms", "lower", None, (S, A, E)),
    ("stage.wall_ms", "ms", "lower", None, (S, A, E)),
    ("stage.offthread_ms", "ms", "lower", None, (S,)),
    ("trace.records_per_s.untraced", "records/s", "higher", None, (S, A, E)),
    ("trace.records_per_s.traced", "records/s", "higher", None, (S, A, E)),
    ("trace.overhead_ratio", "ratio", "lower", None, (S, A, E)),
)
LAYER_METRICS = [(f"{w}.{name}", unit, better)
                 for w in (S, A, E) for name, unit, better, _span, on in PER_LAYER if w in on]

STAGE_OF = {name: stage for _target, name, stage in TARGETS}
STAGES = ("read", "decode", "validate", "reduce", "render", "write", "sample", "collect")


def import_skylog():
    """The checkout's own skylog; refuses to run without it."""
    if not (SRC / "skylog" / "__init__.py").is_file():
        raise SystemExit(f"bench: no skylog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skylog.cli
    import skylog.records
    import skylog.simenv
    return skylog


# ---------------------------------------------------------------------------
# One invocation in a fresh interpreter
# ---------------------------------------------------------------------------

@dataclass
class Call:
    exit: int
    wall_s: float = 0.0   # spawn to exit, as the parent saw it
    setup_s: float = 0.0  # spawn to the first workload call
    work_s: float = 0.0   # first workload call to the return of main
    rss_mb: float = 0.0
    stdout: str = ""
    stderr: str = ""
    side: dict = field(default_factory=dict)
    records: int = 0      # RAN records produced or consumed
    trace_bytes: int = 0  # bytes of the trace written by simulate
    out_bytes: int = 0    # bytes of the GeoJSON written by export
    attempted: int = 0    # operations: the exit, each check, and for
    failed: int = 0       # simulate each scheduled poll and e2e test
    errors: list = field(default_factory=list)  # one per failed exit or check
    polls_failed: int = 0
    e2e_scheduled: int = 0
    e2e_written: int = 0

    @property
    def ok(self) -> bool:
        return self.exit == 0 and not self.errors


def invoke(argv: list[str], trace: int) -> Call:
    side_path, out_path, err_path = WORK / "side.json", WORK / "stdout", WORK / "stderr"
    side_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "probe.py"), str(side_path), str(trace), "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # killed below; the nonzero exit fails the call
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        t_exit = time.monotonic_ns()
    call = Call(exit=proc.returncode, wall_s=(t_exit - t_spawn) / 1e9,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"))
    if side_path.exists():
        call.side = json.loads(side_path.read_text(encoding="utf-8"))
    t_first = call.side.get("t_first")
    if call.exit == 0 and t_first is None:
        call.errors.append("the workload call was never reached")
    elif t_first is not None:
        call.setup_s = (t_first - t_spawn) / 1e9
        call.work_s = (call.side["t_end"] - t_first) / 1e9
        call.rss_mb = call.side["peak_rss_kb"] * 1024 / 1e6
    call.attempted = 1  # the CLI exit itself
    if call.exit != 0:
        call.errors.append(f"exit {call.exit}: {call.stderr.strip()[-300:]}")
    return call


def last_json(text: str) -> dict:
    try:
        return json.loads(text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {}


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0")
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def flight_seeds(seed: int, n: int) -> list[int]:
    """Env seed of flight i: a fixed function of (workload seed, i)."""
    return [int.from_bytes(hashlib.sha256(f"skylog-bench/{seed}/{i}".encode()).digest()[:4], "big")
            for i in range(n)]


def flight_duration_s(skylog) -> int:
    """Whole seconds that fit the plan: climb.plan lasts 2059.2 s, so ticks at
    0..2059 s all fly it and none holds the aircraft parked at its end."""
    plan = skylog.simenv.load_flight_plan(PLAN)
    return math.ceil(skylog.simenv.plan_duration_s(plan))


def simulate_argv(env_seed: int, duration_s: int, out_dir: Path, run_id: str) -> list[str]:
    return ["--seed", str(env_seed), "simulate", "--env", ENV, "--plan", PLAN,
            "--duration", str(duration_s), "--e2e-interval", str(E2E_INTERVAL_S),
            "--out", str(out_dir), "--run-id", run_id]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failures, empty when correct
# ---------------------------------------------------------------------------

def check_flight(skylog, trace: Path, e2e: Path, n_ran: int, n_e2e: int) -> list[str]:
    """Strict re-read of one simulated flight against its schedule."""
    errors = []
    try:
        ran = skylog.records.read_trace(trace)
    except (OSError, ValueError) as exc:
        return [f"read_trace {trace.name}: {exc}"]
    if len(ran) != n_ran:
        errors.append(f"{trace.name}: {len(ran)} records, schedule has {n_ran}")
    try:
        got_e2e = len(skylog.records.read_e2e_trace(e2e))
    except (OSError, ValueError) as exc:
        return errors + [f"read_e2e_trace {e2e.name}: {exc}"]
    if got_e2e != n_e2e:
        errors.append(f"{e2e.name}: {got_e2e} e2e records, schedule has {n_e2e}")
    return errors


def read_raw(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def analyze_oracle(ran_docs: list[dict], n_e2e: int) -> dict:
    """One pass over the raw lines: the report fields the check compares."""
    anchor = ran_docs[0]
    scale = math.cos(math.radians(anchor["lat_deg"]))
    cells = Counter()
    voxels = defaultdict(list)
    for doc in ran_docs:
        cells[doc["serving"]["cell_id"]] += 1
        x = math.radians(doc["lon_deg"] - anchor["lon_deg"]) * EARTH_RADIUS_M * scale
        y = math.radians(doc["lat_deg"] - anchor["lat_deg"]) * EARTH_RADIUS_M
        key = (math.floor(x / GRID_GROUND_M), math.floor(y / GRID_GROUND_M),
               math.floor(doc["alt_m_amsl"] / GRID_ALT_M))
        voxels[key].append(doc["serving"]["rsrq_db"])
    n = len(ran_docs)
    poor = sum(1 for vals in voxels.values() if math.fsum(vals) / len(vals) < RSRQ_POOR_DB)
    return {"n_ran_samples": n, "n_e2e_samples": n_e2e,
            "dominance": {str(cid): c / n for cid, c in sorted(cells.items())},
            "frac_rsrq_poor": poor / len(voxels)}


def check_report(report_path: Path, oracle: dict) -> list[str]:
    try:
        cov = json.loads(report_path.read_text(encoding="utf-8"))["coverage"]
        got = {"n_ran_samples": cov["n_ran_samples"], "n_e2e_samples": cov["n_e2e_samples"],
               "dominance": cov["dominance"], "frac_rsrq_poor": cov["fractions"]["rsrq_poor"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc!r}"]
    return [f"report {k}={got[k]!r}, oracle {v!r}" for k, v in oracle.items() if got[k] != v]


def check_geojson(out_path: Path, ran_docs: list[dict]) -> list[str]:
    try:
        features = json.loads(out_path.read_text(encoding="utf-8"))["features"]
        coords = [features[0]["geometry"]["coordinates"], features[-1]["geometry"]["coordinates"]]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"geojson unreadable: {exc!r}"]
    errors = []
    if len(features) != len(ran_docs):
        errors.append(f"{len(features)} features for {len(ran_docs)} records")
    for got, doc in zip(coords, (ran_docs[0], ran_docs[-1])):
        want = [doc["lon_deg"], doc["lat_deg"], doc["alt_m_amsl"]]
        if got != want:
            errors.append(f"coordinates {got} do not round-trip {want}")
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Simulate:
    """N back-to-back simulated flights of the whole plan, one per invocation.

    Flights cycle through sizes.sim_seeds env seeds, so later flights repeat
    earlier ones and must reproduce their bytes.
    """

    name = "simulate"

    def __init__(self, skylog, seed: int, sizes: Sizes):
        self.skylog = skylog
        self.duration_s = flight_duration_s(skylog)
        self.n_e2e = math.ceil(self.duration_s / E2E_INTERVAL_S)
        self.seeds = flight_seeds(seed, sizes.sim_seeds)
        self.min_calls = sizes.sim_seeds + 1
        self.digests: dict[int, str] = {}
        self.count = 0
        self.facts = {"flight_s": self.duration_s, "distinct_flights": len(self.seeds)}

    def run_one(self, trace: int) -> Call:
        env_seed = self.seeds[self.count % len(self.seeds)]
        self.count += 1
        out = WORK / "simulate"
        shutil.rmtree(out, ignore_errors=True)
        call = invoke(simulate_argv(env_seed, self.duration_s, out, "flight"), trace)
        ran, e2e = out / "flight-0001.trace", out / "flight.e2e"
        call.attempted += self.duration_s + self.n_e2e + 3  # + record, e2e, bytes checks
        call.e2e_scheduled = self.n_e2e
        if call.exit != 0:
            return call
        summary = last_json(call.stdout)
        call.polls_failed = summary.get("polls_failed", 0)
        call.e2e_written = summary.get("e2e_tests_run", 0)
        call.failed += call.polls_failed + max(self.n_e2e - call.e2e_written, 0)
        call.errors += check_flight(self.skylog, ran, e2e, self.duration_s, self.n_e2e)
        if not call.errors:
            call.records = self.duration_s
            call.trace_bytes = ran.stat().st_size
            digest = sha256_files([ran, e2e])
            if self.digests.setdefault(env_seed, digest) != digest:
                call.errors.append(f"seed {env_seed}: bytes differ from the earlier flight")
        return call


class Corpus:
    """N flights simulated in-process, untimed: the analyze/export inputs."""

    def __init__(self, skylog, seed: int, sizes: Sizes):
        duration_s = flight_duration_s(skylog)
        out = WORK / "corpus"
        self.traces, self.e2es = [], []
        for i, env_seed in enumerate(flight_seeds(seed, sizes.corpus_flights)):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = skylog.cli.main(simulate_argv(env_seed, duration_s, out, f"flight{i}"))
            if rc != 0:
                raise RuntimeError(f"corpus flight {i} (env seed {env_seed}) exited {rc}")
            self.traces.append(out / f"flight{i}-0001.trace")
            self.e2es.append(out / f"flight{i}.e2e")
        self.sha256 = sha256_files(self.traces + self.e2es)
        self.ran_docs = [read_raw(p) for p in self.traces]
        self.n_e2e = sum(len(read_raw(p)) for p in self.e2es)
        self.records = sum(len(d) for d in self.ran_docs)
        self.facts = {"corpus_flights": len(self.traces), "corpus_records": self.records,
                      "corpus_sha256": self.sha256}


class Analyze:
    """One `analyze --by-voxel` over all N traces and their .e2e files."""

    name = "analyze"

    def __init__(self, corpus: Corpus, sizes: Sizes):
        self.corpus = corpus
        self.oracle = analyze_oracle([d for docs in self.corpus.ran_docs for d in docs],
                                     self.corpus.n_e2e)
        self.min_calls = sizes.min_calls
        self.facts = self.corpus.facts

    def run_one(self, trace: int) -> Call:
        report = WORK / "analyze" / "report.json"
        shutil.rmtree(report.parent, ignore_errors=True)
        argv = ["analyze", "--by-voxel", "--ran", *map(str, self.corpus.traces),
                "--e2e", *map(str, self.corpus.e2es), "--report", str(report),
                f"--rsrq-poor={RSRQ_POOR_DB}", f"--grid={GRID_GROUND_M},{GRID_ALT_M}"]
        call = invoke(argv, trace)
        call.attempted += 4  # the four report fields
        if call.exit == 0:
            call.errors += check_report(report, self.oracle)
            call.records = self.corpus.records
        return call


class Export:
    """`export --format geojson` of each of the N traces in turn."""

    name = "export"

    def __init__(self, corpus: Corpus, sizes: Sizes):
        self.corpus = corpus
        self.min_calls = max(sizes.min_calls, sizes.corpus_flights)
        self.count = 0
        self.facts = self.corpus.facts

    def run_one(self, trace: int) -> Call:
        i = self.count % len(self.corpus.traces)
        self.count += 1
        out = WORK / "export.geojson"
        out.unlink(missing_ok=True)
        argv = ["export", "--format", "geojson", "--ran", str(self.corpus.traces[i]),
                "--out", str(out)]
        call = invoke(argv, trace)
        call.attempted += 3  # feature count, first and last coordinates
        if call.exit == 0:
            call.errors += check_geojson(out, self.corpus.ran_docs[i])
            call.records = len(self.corpus.ran_docs[i])
            call.out_bytes = out.stat().st_size
        return call


WORKLOADS = (S, A, E)


def make_workloads(skylog, names, seed: int, sizes: Sizes) -> list:
    """analyze and export share one corpus, simulated once."""
    corpus = Corpus(skylog, seed, sizes) if A in names or E in names else None
    make = {S: lambda: Simulate(skylog, seed, sizes),
            A: lambda: Analyze(corpus, sizes), E: lambda: Export(corpus, sizes)}
    return [make[name]() for name in names]


def measure(workload, trace: int, seconds: float, deadline: float) -> list[Call]:
    """Invoke until the invocations (not their checks) took `seconds` and at
    least workload.min_calls of them ran."""
    calls: list[Call] = []
    while ((sum(c.wall_s for c in calls) < seconds or len(calls) < workload.min_calls)
           and time.monotonic() < deadline):
        call = workload.run_one(trace)
        call.failed += len(call.errors)
        calls.append(call)
    return calls


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rate(calls: list[Call]) -> float:
    return statistics.median(c.records / c.work_s for c in calls)


def end_to_end(calls: list[Call]) -> dict:
    return {"records_per_s": rate(calls),
            "setup_s": statistics.median(c.setup_s for c in calls),
            "peak_rss_mb": statistics.median(c.rss_mb for c in calls)}


def per_layer(workload: str, traced: list[Call], untraced: list[Call]) -> tuple[dict, list[str]]:
    """The workload's per-layer metrics from its traced calls, and those left
    out because a refactor removed the callable they wrap."""
    missing = {name for c in traced for name in c.side.get("absent", [])}
    durations = defaultdict(list)            # span name -> inclusive ns per call
    self_ms = defaultdict(list)              # span name -> self ms per invocation
    stage_ms = {s: 0.0 for s in STAGES}
    wall_ms = offthread_ms = 0.0
    ticks_us, drains_ms = [], []
    n_ticks = 0
    calls_by_name = Counter()
    for c in traced:
        spans = c.side["spans"]
        child_ns = Counter()
        for _sid, _name, _thread, start, end, parent in spans:
            child_ns[parent] += end - start
        main = c.side["main_thread"]
        t_first = c.side["t_first"]
        own = Counter()
        for sid, name, thread, start, end, parent in spans:
            durations[name].append(end - start)
            calls_by_name[name] += 1
            self_ns = end - start - child_ns[sid]
            own[name] += self_ns
            if thread != main:
                offthread_ms += self_ns / 1e6
            elif start >= t_first:
                stage_ms[STAGE_OF[name]] += self_ns / 1e6
        for name, ns in own.items():
            self_ms[name].append(ns / 1e6)
        wall_ms += (c.side["t_end"] - t_first) / 1e6
        sleeps = sorted((s[3], s[4]) for s in spans if s[1] == "collector.sleep_until_ms")
        n_ticks += len(sleeps)
        ticks_us += [(b[0] - a[0]) / 1e3 for a, b in zip(sleeps, sleeps[1:])]
        runs = [s for s in spans if s[1] == "collector.run_collection"]
        if runs and sleeps:
            drains_ms.append((runs[0][4] - sleeps[-1][1]) / 1e6)

    def per_call(name: str, scale: float) -> float:
        return statistics.median(durations[name]) / scale if durations[name] else 0.0

    def per_tick(name: str) -> float:
        return calls_by_name[name] / n_ticks if n_ticks else 0.0

    n = len(traced)
    m = {}
    for name, unit, _better, span, _on in PER_LAYER:
        if span is not None and (name.endswith(".us") or name.endswith(".ms")):
            m[name] = per_call(span, 1e3 if unit == "us" else 1e6)
    m["collector.tick_us.p50"] = statistics.median(ticks_us) if ticks_us else 0.0
    m["collector.tick_us.p99"] = statistics.quantiles(ticks_us, n=100)[98] if len(ticks_us) > 1 else 0.0
    m["collector.drain_ms"] = statistics.median(drains_ms) if drains_ms else 0.0
    m["collector.polls_failed"] = sum(c.polls_failed for c in traced)
    scheduled = sum(c.e2e_scheduled for c in traced)
    m["collector.e2e_written_ratio"] = (sum(c.e2e_written for c in traced) / scheduled
                                        if scheduled else 0.0)
    m["simenv.flight_position.calls_per_tick"] = per_tick("simenv.flight_position")
    m["simenv.radio_sample.calls_per_tick"] = per_tick("simenv.radio_sample")
    records = sum(c.records for c in traced)
    m["records.trace_bytes_per_record"] = sum(c.trace_bytes for c in traced) / records
    m["cli.export.bytes_per_record"] = sum(c.out_bytes for c in traced) / records
    for cmd in ("export", "analyze"):
        vals = self_ms[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_ms"] = statistics.median(vals) if vals else 0.0
    for s in STAGES:
        m[f"stage.{s}.ms"] = stage_ms[s] / n
    m["stage.wall_ms"] = wall_ms / n
    m["stage.residual.ms"] = (wall_ms - sum(stage_ms.values())) / n
    m["stage.offthread_ms"] = offthread_ms / n
    m["trace.records_per_s.untraced"] = rate(untraced)
    m["trace.records_per_s.traced"] = rate(traced)
    m["trace.overhead_ratio"] = m["trace.records_per_s.untraced"] / m["trace.records_per_s.traced"]
    mine = [(name, span) for name, _u, _b, span, on in PER_LAYER if workload in on]
    return ({f"{workload}.{name}": m[name] for name, span in mine if span not in missing},
            [f"{workload}.{name}" for name, span in mine if span in missing])


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def summarize(calls: list[Call]) -> dict:
    return {"correct": all(c.ok for c in calls),
            "attempted": sum(c.attempted for c in calls),
            "failed": sum(c.failed for c in calls),
            "calls": len(calls),
            "errors": [e for c in calls for e in c.errors][:10]}


def run_end_to_end(skylog, name: str, seed: int, seconds: float, sizes: Sizes = SIZES) -> dict:
    deadline = time.monotonic() + RUN_CAP_S
    [workload] = make_workloads(skylog, [name], seed, sizes)
    calls = measure(workload, 0, seconds, deadline)
    res = {"run": name, "seed": seed, "facts": workload.facts, "absent": [], **summarize(calls)}
    metrics = end_to_end(calls) if res["correct"] else {}
    units = {n: u for n, u, _b in END_TO_END}
    res["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return res


def run_traced(skylog, seed: int, seconds: float, sizes: Sizes = SIZES) -> dict:
    """Every traced run reports every per-layer metric, so it measures all
    three workloads, each for a third of `seconds`: half untraced, half
    traced."""
    deadline = time.monotonic() + RUN_CAP_S
    all_calls, metrics, absent, facts = [], {}, [], {}
    for workload in make_workloads(skylog, WORKLOADS, seed, sizes):
        untraced = measure(workload, 0, seconds / 6, deadline)
        traced = measure(workload, 1, seconds / 6, deadline)
        all_calls += untraced + traced
        facts[workload.name] = workload.facts
        if all(c.ok for c in untraced + traced):
            got, missing = per_layer(workload.name, traced, untraced)
            metrics.update(got)
            absent += missing
    res = {"run": "traced", "seed": seed, "facts": facts, "absent": absent, **summarize(all_calls)}
    units = {n: u for n, u, _b in LAYER_METRICS}
    res["metrics"] = ({k: {"value": metrics[k], "unit": units[k]} for k, _u, _b in LAYER_METRICS
                       if k in metrics} if res["correct"] else {})
    return res


def print_result(res: dict) -> None:
    print(f"# {res['run']} seed={res['seed']} invocations={res['calls']} "
          f"{json.dumps(res['facts'])}")
    for err in res["errors"]:
        print(f"# CHECK FAILED: {err}")
    for name, m in res["metrics"].items():
        print(f"{res['run']:8} {name:48} {m['value']:16.6f} {m['unit']}")
    for name in res["absent"]:
        print(f"{res['run']:8} {name:48} {'absent':>16}")
    print(f"{res['run']:8} {'failed_fraction':48} "
          f"{res['failed'] / max(res['attempted'], 1):16.6f} {res['failed']}/{res['attempted']}")


def machine_facts() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def selftest(skylog) -> int:
    """Tiny-N runs that must emit every metric BENCHMARK.json names, then
    corrupted outputs that each check must catch."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        if [(m["name"], m["unit"], m["better"]) for m in spec[key]] != list(table):
            problems.append(f"BENCHMARK.json {key} differs from bench/run.py")
    results = [run_end_to_end(skylog, name, 1, 0, TINY) for name in WORKLOADS]
    results.append(run_traced(skylog, 1, 0, TINY))
    for res in results:
        want = spec["per_layer" if res["run"] == "traced" else "end_to_end"]
        missing = sorted({m["name"] for m in want} - set(res["metrics"]))
        if not res["correct"] or missing or res["failed"]:
            problems.append(f"{res['run']}: correct={res['correct']} "
                            f"missing={missing} errors={res['errors']}")
    corpus = Corpus(skylog, 1, TINY)
    trace_path, e2e_path = corpus.traces[0], corpus.e2es[0]
    n_ran, n_e2e = len(corpus.ran_docs[0]), corpus.n_e2e
    if check_flight(skylog, trace_path, e2e_path, n_ran, n_e2e):
        problems.append("check_flight fails an intact flight")
    text = trace_path.read_text(encoding="utf-8")
    cut = len(text) - 1 - len(text.splitlines()[-1]) // 2  # power lost mid-line
    trace_path.write_text(text[:cut], encoding="utf-8")
    if not check_flight(skylog, trace_path, e2e_path, n_ran, n_e2e):
        problems.append("check_flight passes a truncated trace line")
    trace_path.write_text(text, encoding="utf-8")
    report = WORK / "selftest-report.json"
    oracle = analyze_oracle(corpus.ran_docs[0], n_e2e)
    skylog.cli.main(["analyze", "--by-voxel", "--ran", str(trace_path), "--e2e", str(e2e_path),
                     "--report", str(report), f"--rsrq-poor={RSRQ_POOR_DB}",
                     f"--grid={GRID_GROUND_M},{GRID_ALT_M}"])
    if check_report(report, oracle):
        problems.append("check_report fails an intact report")
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["coverage"]["n_ran_samples"] += 1
    report.write_text(json.dumps(doc), encoding="utf-8")
    if not check_report(report, oracle):
        problems.append("check_report passes a wrong record count")
    geo = WORK / "selftest.geojson"
    skylog.cli.main(["export", "--format", "geojson", "--ran", str(trace_path), "--out", str(geo)])
    if check_geojson(geo, corpus.ran_docs[0]):
        problems.append("check_geojson fails an intact export")
    doc = json.loads(geo.read_text(encoding="utf-8"))
    doc["features"].pop()
    geo.write_text(json.dumps(doc), encoding="utf-8")
    if not check_geojson(geo, corpus.ran_docs[0]):
        problems.append("check_geojson passes a dropped feature")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="also write the results with machine facts here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    skylog = import_skylog()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        if args.selftest:
            with contextlib.redirect_stdout(sys.stderr):
                return selftest(skylog)
        if args.workload == "all":
            results = [run_end_to_end(skylog, n, args.seed, args.seconds) for n in WORKLOADS]
            if args.trace:
                results.append(run_traced(skylog, args.seed, args.seconds))
        elif args.trace:
            results = [run_traced(skylog, args.seed, args.seconds)]
        else:
            results = [run_end_to_end(skylog, args.workload, args.seed, args.seconds)]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for res in results:
        print_result(res)
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"machine": machine_facts(), "seed": args.seed, "seconds": args.seconds,
             "results": results}, indent=2) + "\n", encoding="utf-8")
    prefix = len(results) > 1
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "metrics": {(f"{r['run']}.{k}" if prefix and r["run"] != "traced" else k): v
                           for r in results for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
