"""End-to-end command-line behavior: exit codes, output contracts, pipelines."""

import json
import math
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from skylog import analysis, collector
from skylog.cli import main
from skylog.geo import tangent_inverse
from skylog.records import (GeoPosition, _record_of, decode_record, encode_record, iter_rows,
                            read_e2e_trace, read_trace)
from skylog.simenv import ConfigError, load_environment

from conftest import make_neighbor, make_record, make_serving


def fixture(name: str) -> str:
    return str(resources.files("skylog").joinpath(f"data/{name}"))


ENV = fixture("threecell.env")
PLAN = fixture("climb.plan")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# --- exit code contract ---

@pytest.mark.parametrize("argv", [
    ["--help"],
    ["collect", "--help"],
    ["serve", "--help"],
    ["probe", "--help"],
    ["simulate", "--help"],
    ["analyze", "--help"],
    ["export", "--help"],
])
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flags_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 1


def test_malformed_grid_spec_usage_error(tmp_path):
    for spec in ("25", "0,10", "inf,10", "25,inf", "nan,10"):
        with pytest.raises(SystemExit) as exc:
            main(["export", "--ran", "x.trace", "--format", "csv",
                  "--grid", spec, "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 1


@pytest.mark.parametrize("flag,value", [("--duration", "inf"), ("--duration", "nan"),
                                        ("--e2e-interval", "inf")])
def test_simulate_nonfinite_time_is_runtime_error(capsys, tmp_path, flag, value):
    times = {"--duration": "10", "--e2e-interval": "60", flag: value}
    rc, _, err = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                         "--out", str(tmp_path / "out"),
                         *(arg for pair in times.items() for arg in pair))
    assert rc == 2
    assert "must be finite" in err
    assert not [t.name for t in threading.enumerate() if t.name.startswith("skylog-")]


def test_simulate_sub_millisecond_e2e_interval_is_runtime_error(capsys, tmp_path):
    # It would truncate to a 0 ms deadline and silently run no end-to-end test.
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                              "--duration", "30", "--e2e-interval", "0.0004", "--out", str(out))
    assert rc == 2
    assert "e2e_interval_s" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("run_id", ["../evil", "a/b"])
def test_simulate_run_id_with_a_separator_is_runtime_error(capsys, tmp_path, run_id):
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                              "--duration", "30", "--run-id", run_id, "--out", str(out))
    assert rc == 2
    assert "run_id" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_calls_the_collectors_run_collection_at_call_time(capsys, tmp_path,
                                                                    monkeypatch):
    # A wrapper put on skylog.collector.run_collection after cli is imported
    # (a traced benchmark run) must still be the one simulate runs.
    calls = []
    real = collector.run_collection
    monkeypatch.setattr("skylog.collector.run_collection",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rc, stdout, _ = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                            "--duration", "30", "--out", str(tmp_path))
    assert rc == 0
    assert calls == [1]
    assert last_json_line(stdout)["records_written"] == 30


def test_collect_hw_backend_rejected(capsys):
    rc, _, err = run_cli(capsys, "collect", "--config", ENV, "--backend", "hw")
    assert rc == 1
    assert "no hardware modem driver" in err


def test_collect_sim_without_plan_rejected(capsys):
    rc, _, err = run_cli(capsys, "collect", "--config", ENV)
    assert rc == 1
    assert "--plan" in err


def test_collect_replay_without_trace_rejected(capsys):
    rc, _, err = run_cli(capsys, "collect", "--config", ENV, "--backend", "replay")
    assert rc == 1
    assert "--replay" in err


def test_collect_sim_without_config_rejected(capsys, tmp_path):
    out = tmp_path / "x"
    rc, _, err = run_cli(capsys, "collect", "--plan", PLAN, "--duration", "1", "--out", str(out))
    assert rc == 1
    assert "--config" in err
    assert not out.exists()


def test_collect_replay_needs_no_config(capsys, tmp_path):
    """Replay never reads an environment file, so it does not ask for one."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--env", ENV, "--plan", PLAN, "--duration", "30",
                 "--out", str(sim), "--run-id", "flight"]) == 0
    capsys.readouterr()
    trace = sim / "flight-0001.trace"
    rc, stdout, err = run_cli(capsys, "collect", "--backend", "replay", "--replay", str(trace),
                              "--e2e-interval", "0", "--out", str(tmp_path / "rp"),
                              "--run-id", "rp")
    assert (rc, err) == (0, "")
    assert last_json_line(stdout)["records_written"] == 30
    want = trace.read_text(encoding="utf-8").replace('"source":"sim"', '"source":"replay"')
    assert (tmp_path / "rp" / "rp-0001.trace").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("command, env_flag", [("simulate", "--env"), ("collect", "--config")])
def test_a_simulated_run_checks_env_then_plan_then_options(capsys, tmp_path, command, env_flag):
    """simulate and collect's sim backend build their run one way: each
    reports the first bad input of the environment, the flight plan and the
    collector options, in that order, before writing anything."""
    no_env, no_plan, out = str(tmp_path / "no.env"), str(tmp_path / "no.plan"), tmp_path / "out"
    for env, plan, message in ((no_env, no_plan, "no.env"), (ENV, no_plan, "no.plan"),
                               (ENV, PLAN, "must be finite")):
        rc, stdout, err = run_cli(capsys, command, env_flag, env, "--plan", plan,
                                  "--duration", "nan", "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert [m for m in ("no.env", "no.plan", "must be finite") if m in err] == [message]
        assert not out.exists()


def test_probe_inconsistent_timing_rejected(capsys):
    # reply timeout shorter than the probe interval can never be satisfied
    rc, _, err = run_cli(capsys, "probe", "--server", "127.0.0.1",
                         "--timeout-ms", "50", "--interval-ms", "200")
    assert rc == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_probe_nonfinite_duration_rejected(capsys, monkeypatch, value):
    def no_socket(*_args, **_kwargs):
        pytest.fail("probe opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    rc, _, err = run_cli(capsys, "probe", "--server", "127.0.0.1", "--duration", value)
    assert rc == 1
    assert "finite" in err


@pytest.mark.parametrize("flag,value,message", [
    ("--lat", "95", "lat_deg out of [-90,90]"),
    ("--lon", "-181", "lon_deg out of [-180,180]"),
    ("--lat", "nan", "lat_deg is not finite"),
    ("--alt", "inf", "alt_m_amsl is not finite"),
])
def test_probe_refuses_a_position_its_reader_refuses(capsys, monkeypatch, flag, value, message):
    def no_socket(*_args, **_kwargs):
        pytest.fail("probe opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    rc, out, err = run_cli(capsys, "probe", "--server", "127.0.0.1", flag, value)
    assert rc == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("port", ["-1", "65536"])
@pytest.mark.parametrize("argv", [["serve", "--bind", "127.0.0.1", "--tp-port", "0", "--rtt-port"],
                                  ["serve", "--bind", "127.0.0.1", "--rtt-port", "0", "--tp-port"],
                                  ["probe", "--server", "127.0.0.1", "--rtt-port"],
                                  ["probe", "--server", "127.0.0.1", "--tp-port"]])
def test_out_of_range_port_is_usage_error(capsys, monkeypatch, argv, port):
    def no_socket(*_args, **_kwargs):
        pytest.fail("opened a socket")

    monkeypatch.setattr(socket, "socket", no_socket)
    with pytest.raises(SystemExit) as exc:
        main([*argv, port])
    assert exc.value.code == 1
    assert "port must be 0-65535" in capsys.readouterr().err


def test_simulate_missing_env_is_runtime_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "simulate", "--env", str(tmp_path / "no.env"),
                         "--plan", PLAN, "--duration", "10",
                         "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "no.env" in err


def test_simulate_nan_environment_exits_before_any_tick(capsys, tmp_path):
    env = json.loads(resources.files("skylog").joinpath("data/threecell.env").read_text())
    env["shadow_sigma_db"] = float("nan")
    env_path = tmp_path / "nan.env"
    env_path.write_text(json.dumps(env))
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "simulate", "--env", str(env_path), "--plan", PLAN,
                              "--duration", "30", "--out", str(out))
    assert rc == 2
    assert "shadow_sigma_db must be finite" in err
    assert stdout == ""
    assert not out.exists()


def test_simulate_bad_station_identity_exits_before_any_tick(capsys, tmp_path):
    env = json.loads(resources.files("skylog").joinpath("data/threecell.env").read_text())
    env["stations"][0]["pci"] = 600
    env_path = tmp_path / "pci600.env"
    env_path.write_text(json.dumps(env))
    with pytest.raises(ConfigError, match=r"station pci=600: pci out of \[0,503\]"):
        load_environment(env_path)
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, "simulate", "--env", str(env_path), "--plan", PLAN,
                              "--duration", "30", "--out", str(out))
    assert rc == 2
    assert "station pci=600: pci out of [0,503]" in err
    assert stdout == ""
    assert not out.exists()


def test_analyze_missing_trace_is_runtime_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "analyze", "--ran", str(tmp_path / "no.trace"),
                         "--report", str(tmp_path / "report.json"))
    assert rc == 2


def test_export_metric_with_csv_rejected(capsys, tmp_path):
    out = tmp_path / "sim"
    rc, _, _ = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                       "--duration", "5", "--out", str(out))
    assert rc == 0
    trace = next(out.glob("*.trace"))
    missing = tmp_path / "missing"
    rc, _, err = run_cli(capsys, "export", "--ran", str(trace),
                         "--format", "csv", "--metric", "rsrp",
                         "--out", str(missing / "o.csv"))
    assert rc == 1
    assert "geojson" in err
    assert not missing.exists()  # refused before any work


@pytest.fixture(scope="module")
def short_flight(tmp_path_factory):
    """(RAN trace, e2e trace) of a 120 s simulated flight with two e2e tests."""
    out = tmp_path_factory.mktemp("short_flight")
    assert main(["simulate", "--env", ENV, "--plan", PLAN, "--duration", "120",
                 "--out", str(out)]) == 0
    return next(out.glob("*.trace")), next(out.glob("*.e2e"))


@pytest.mark.parametrize("flag,value,message", [
    ("--alt-bin", "inf", "bin width must be positive"),
    ("--rtt-bin", "1e-300", "bin width 1e-300 gives"),
    ("--rsrq-poor", "nan", "threshold rsrq_poor_db must be finite"),
    ("--tp-min", "nan", "threshold tp_min_mbps must be finite"),
    ("--rtt-max", "nan", "threshold rtt_max_ms must be finite"),
    ("--rtt-max", "inf", "threshold rtt_max_ms must be finite"),
])
def test_analyze_refuses_bad_value_before_writing(capsys, tmp_path, short_flight,
                                                  flag, value, message):
    trace, e2e = short_flight
    rc, _, err = run_cli(capsys, "analyze", "--ran", str(trace), "--e2e", str(e2e),
                         flag, value, "--report", str(tmp_path / "new" / "r.json"))
    assert rc == 2
    assert message in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("value", ["-5", "0", "nan"])
def test_analyze_refuses_a_bad_rtt_bin_with_no_e2e_trace(capsys, tmp_path, short_flight, value):
    # The histogram that reads --rtt-bin is drawn only from RTT medians, so
    # without a check up front a run with no --e2e wrote its report.
    trace, _ = short_flight
    rc, stdout, err = run_cli(capsys, "analyze", "--ran", str(trace), "--rtt-bin", value,
                              "--report", str(tmp_path / "new" / "r.json"))
    assert (rc, stdout) == (2, "")
    assert f"bin width must be positive, got {float(value)!r}" in err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("source", ["ran", "e2e"])
def test_analyze_reports_a_bad_threshold_before_a_bad_trace(capsys, tmp_path, short_flight,
                                                            source):
    trace, e2e = short_flight
    bad = tmp_path / f"bad.{source}"
    good = trace if source == "ran" else e2e
    bad.write_text("{\n" + good.read_text(encoding="utf-8").split("\n", 1)[1], encoding="utf-8")
    paths = {"ran": trace, "e2e": e2e, source: bad}
    rc, stdout, err = run_cli(capsys, "analyze", "--ran", str(paths["ran"]),
                              "--e2e", str(paths["e2e"]), "--tp-min", "nan",
                              "--report", str(tmp_path / "new" / "r.json"))
    assert (rc, stdout) == (2, "")
    assert "threshold tp_min_mbps must be finite" in err
    assert "line 1" not in err
    assert not (tmp_path / "new").exists()


def test_analyze_reads_each_e2e_trace_once(capsys, tmp_path, monkeypatch, short_flight):
    trace, e2e = short_flight
    second = tmp_path / "second.e2e"
    second.write_bytes(e2e.read_bytes())
    calls = []
    monkeypatch.setattr("skylog.cli.read_e2e_trace",
                        lambda path: calls.append(path) or read_e2e_trace(path))
    rc, _, _ = run_cli(capsys, "analyze", "--ran", str(trace), "--e2e", str(e2e), str(second),
                       "--report", str(tmp_path / "r.json"))
    assert rc == 0
    assert calls == [str(e2e), str(second)]
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["coverage"]["n_e2e_samples"] == 2 * len(read_e2e_trace(e2e)) == 4
    assert (tmp_path / "r-pdf-rtt.csv").exists()


def test_a_bad_line_in_the_second_e2e_trace_is_named(capsys, tmp_path, short_flight):
    trace, e2e = short_flight
    first, second = e2e.read_text(encoding="utf-8").splitlines(keepends=True)
    bad = tmp_path / "bad.e2e"
    bad.write_text(first + second[:40] + "\n", encoding="utf-8")  # line 2 cut off mid-object
    rc, stdout, err = run_cli(capsys, "analyze", "--ran", str(trace), "--e2e", str(e2e), str(bad),
                              "--report", str(tmp_path / "new" / "r.json"))
    assert (rc, stdout) == (2, "")
    assert "line 2" in err
    assert not (tmp_path / "new").exists()


def test_a_refused_line_in_the_second_ran_trace_names_its_file(capsys, tmp_path, short_flight):
    trace, _ = short_flight
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), "lat_deg": 91.0}, separators=(",", ":")) + "\n"
    bad = tmp_path / "b" / "bad.trace"
    bad.parent.mkdir()
    bad.write_text("".join(lines), encoding="utf-8")
    rc, stdout, err = run_cli(capsys, "analyze", "--ran", str(trace), str(bad),
                              "--report", str(tmp_path / "new" / "r.json"))
    assert (rc, stdout) == (2, "")
    assert err == f"skylog: error: {bad}: line 3: lat_deg out of [-90,90]\n"
    assert not (tmp_path / "new").exists()


def _with_literal(path, key: str, dest, literal: str) -> str:
    """A copy of a trace (its first line) or environment file at dest, with
    key's value written as the JSON literal given."""
    text = path.read_text(encoding="utf-8")
    first, tail = (text, "") if path.suffix == ".env" else text.split("\n", 1)
    first = json.dumps({**json.loads(first), key: "LITERAL"}).replace('"LITERAL"', literal)
    dest.write_text(first if path.suffix == ".env" else first + "\n" + tail, encoding="utf-8")
    return str(dest)


def _with_huge_int(path, key: str, dest) -> str:
    """_with_literal with a 400-digit integer: valid JSON, but beyond any float."""
    return _with_literal(path, key, dest, str(10 ** 399))


@pytest.mark.parametrize("source, key, argv", [
    ("trace", "lat_deg", ["analyze", "--ran", "{bad}", "--report", "{out}/r.json"]),
    ("trace", "lat_deg", ["export", "--format", "geojson", "--ran", "{bad}", "--out", "{out}/p.geojson"]),
    ("trace", "lat_deg", ["collect", "--backend", "replay", "--replay", "{bad}",
                          "--e2e-interval", "0", "--out", "{out}"]),
    ("e2e", "dl_mbps", ["analyze", "--ran", "{trace}", "--e2e", "{bad}", "--report", "{out}/r.json"]),
    ("env", "noise_dbm", ["simulate", "--env", "{bad}", "--plan", PLAN, "--duration", "5",
                          "--out", "{out}"]),
], ids=["analyze", "export", "replay", "e2e", "env"])
def test_an_integer_beyond_any_float_is_a_named_field_error(capsys, tmp_path, short_flight,
                                                            source, key, argv):
    """float() of such an integer raises OverflowError, not ValueError: each
    reader refuses it as a wrong-typed field, naming the line and field, and
    exits 2 with nothing written."""
    trace, e2e = short_flight
    path = {"trace": trace, "e2e": e2e, "env": Path(ENV)}[source]
    bad = _with_huge_int(path, key, tmp_path / f"bad{path.suffix}")
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, *(a.format(bad=bad, trace=trace, out=out) for a in argv))
    where = f"{bad}: key" if source == "env" else "line 1: field"
    assert (rc, stdout) == (2, "")
    assert f"{where} '{key}' has wrong type" in err
    assert not out.exists()


@pytest.mark.parametrize("source, line_no, argv", [
    ("trace", 50, ["analyze", "--ran", "{bad}", "--report", "{out}/r.json"]),
    ("trace", 50, ["export", "--format", "geojson", "--ran", "{bad}", "--out", "{out}/p.geojson"]),
    ("trace", 50, ["collect", "--backend", "replay", "--replay", "{bad}",
                   "--e2e-interval", "0", "--out", "{out}"]),
    ("e2e", 2, ["analyze", "--ran", "{trace}", "--e2e", "{bad}", "--report", "{out}/r.json"]),
], ids=["analyze", "export", "replay", "e2e"])
def test_a_line_that_is_not_utf8_is_named(capsys, tmp_path, short_flight, source, line_no, argv):
    """Each line is decoded on its own, so the error names the line and the
    byte's offset in it, not an offset into a read-ahead chunk."""
    trace, e2e = short_flight
    lines = (trace if source == "trace" else e2e).read_bytes().splitlines(keepends=True)[:60]
    lines[line_no - 1] = lines[line_no - 1][:3] + b"\xff" + lines[line_no - 1][4:]
    bad = tmp_path / f"bad.{source}"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, *(a.format(bad=bad, trace=trace, out=out) for a in argv))
    assert (rc, stdout) == (2, "")
    assert f"line {line_no}: not valid UTF-8: " in err
    assert "can't decode byte 0xff in position 3: " in err
    assert not out.exists()


@pytest.fixture
def int_digit_limit():
    """The interpreter's default limit on the digits of an int literal, set
    for the test and restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("source, key, argv", [
    ("trace", "lat_deg", ["analyze", "--ran", "{bad}", "--report", "{out}/r.json"]),
    ("trace", "lat_deg", ["export", "--format", "geojson", "--ran", "{bad}", "--out", "{out}/p.geojson"]),
    ("trace", "lat_deg", ["export", "--format", "csv", "--ran", "{bad}", "--out", "{out}/p.csv"]),
    ("trace", "lat_deg", ["collect", "--backend", "replay", "--replay", "{bad}",
                          "--e2e-interval", "0", "--out", "{out}"]),
    ("e2e", "dl_mbps", ["analyze", "--ran", "{trace}", "--e2e", "{bad}", "--report", "{out}/r.json"]),
    ("env", "seed", ["simulate", "--env", "{bad}", "--plan", PLAN, "--duration", "5",
                     "--out", "{out}"]),
], ids=["analyze", "export", "export-csv", "replay", "e2e", "env"])
def test_an_integer_literal_past_the_digit_limit_names_its_line_or_file(
        capsys, tmp_path, short_flight, int_digit_limit, source, key, argv):
    """json refuses such a literal with a plain ValueError, which the fast
    scan and the reference parse both let through; each reader now names
    the line (or the environment file) and exits 2 with nothing written."""
    trace, e2e = short_flight
    path = {"trace": trace, "e2e": e2e, "env": Path(ENV)}[source]
    bad = _with_literal(path, key, tmp_path / f"bad{path.suffix}", "9" * (int_digit_limit + 700))
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, *(a.format(bad=bad, trace=trace, out=out) for a in argv))
    where = f"{bad}: " if source == "env" else "line 1: "
    assert (rc, stdout) == (2, "")
    assert f"{where}Exceeds the limit" in err
    assert not out.exists()


@pytest.mark.parametrize("source, key, argv", [
    ("trace", "lat_deg", ["analyze", "--ran", "{bad}", "--report", "{out}/r.json"]),
    ("trace", "lat_deg", ["export", "--format", "geojson", "--ran", "{bad}", "--out", "{out}/p.geojson"]),
    ("trace", "lat_deg", ["export", "--format", "csv", "--ran", "{bad}", "--out", "{out}/p.csv"]),
    ("trace", "lat_deg", ["collect", "--backend", "replay", "--replay", "{bad}",
                          "--e2e-interval", "0", "--out", "{out}"]),
    ("e2e", "dl_mbps", ["analyze", "--ran", "{trace}", "--e2e", "{bad}", "--report", "{out}/r.json"]),
    ("env", "seed", ["simulate", "--env", "{bad}", "--plan", PLAN, "--duration", "5",
                     "--out", "{out}"]),
], ids=["analyze", "export", "export-csv", "replay", "e2e", "env"])
def test_json_nested_past_the_recursion_limit_names_its_line_or_file(
        capsys, tmp_path, short_flight, source, key, argv):
    """json raises RecursionError for such nesting, which is no ValueError:
    each reader refuses it as it refuses a bad literal, naming the file and
    the line (or the environment file), and exits 2 with nothing written."""
    trace, e2e = short_flight
    path = {"trace": trace, "e2e": e2e, "env": Path(ENV)}[source]
    bad = _with_literal(path, key, tmp_path / f"bad{path.suffix}", "[" * 100_000 + "]" * 100_000)
    out = tmp_path / "out"
    rc, stdout, err = run_cli(capsys, *(a.format(bad=bad, trace=trace, out=out) for a in argv))
    where = f"{bad}: " if source == "env" else f"{bad}: line 1: "
    assert (rc, stdout) == (2, "")
    assert f"{where}maximum recursion depth exceeded" in err
    assert not out.exists()


@pytest.mark.parametrize("ts", [-5, 2 ** 63, 10 ** 400], ids=["negative", "past-int64", "401-digits"])
@pytest.mark.parametrize("fmt", ["geojson", "csv"])
def test_export_refuses_a_ts_unix_ms_outside_int64(capsys, tmp_path, short_flight, fmt, ts):
    trace, _ = short_flight
    first, second, rest = trace.read_text(encoding="utf-8").split("\n", 2)
    second = json.dumps({**json.loads(second), "ts_unix_ms": ts}, separators=(",", ":"))
    bad = tmp_path / "bad.trace"
    bad.write_text("\n".join([first, second, rest]), encoding="utf-8")
    out = tmp_path / "out" / f"p.{fmt}"
    rc, stdout, err = run_cli(capsys, "export", "--format", fmt, "--ran", str(bad), "--out", str(out))
    assert (rc, stdout) == (2, "")
    assert "line 2: ts_unix_ms out of [0,9223372036854775807]" in err
    assert not out.parent.exists()


def test_analyze_grid_without_by_voxel_rejected(capsys, tmp_path, short_flight):
    trace, _ = short_flight
    rc, _, err = run_cli(capsys, "analyze", "--ran", str(trace), "--grid", "5,5",
                         "--report", str(tmp_path / "new" / "r.json"))
    assert rc == 1
    assert "--by-voxel" in err
    assert not (tmp_path / "new").exists()


def test_analyze_by_voxel_defaults_to_the_25_10_grid(capsys, tmp_path, short_flight):
    trace, _ = short_flight
    for name, extra in (("default", []), ("explicit", ["--grid", "25,10"])):
        rc, _, _ = run_cli(capsys, "analyze", "--by-voxel", "--ran", str(trace), *extra,
                           "--report", str(tmp_path / name / "r.json"))
        assert rc == 0
    for path in sorted((tmp_path / "default").iterdir()):
        assert path.read_bytes() == (tmp_path / "explicit" / path.name).read_bytes()


def _limit_file_size():
    # A full disk: writes past 4096 bytes fail with EFBIG instead of a signal.
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))


def test_failed_analyze_leaves_the_previous_report(tmp_path, short_flight):
    trace, e2e = short_flight
    report = tmp_path / "report.json"
    report.write_bytes(b"previous report\n")
    # The previous run's four tables: none may be replaced unless all are.
    tables = [tmp_path / f"report-{suffix}.csv"
              for suffix in ("ecdf-rsrq", "alt-rsrp", "alt-sinr", "pdf-rtt")]
    for table in tables:
        table.write_bytes(f"previous {table.name}\n".encode())
    proc = subprocess.run(
        [sys.executable, "-m", "skylog.cli", "analyze", "--ran", str(trace), "--e2e", str(e2e),
         "--report", str(report)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_file_size)
    assert proc.returncode == 2
    assert "File too large" in proc.stderr
    assert report.read_bytes() == b"previous report\n"
    for table in tables:
        assert table.read_bytes() == f"previous {table.name}\n".encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in [report, *tables])


def test_analyze_onto_a_directory_leaves_the_previous_tables(capsys, tmp_path, short_flight):
    trace, e2e = short_flight
    report = tmp_path / "report.json"
    report.mkdir()
    tables = [tmp_path / f"report-{suffix}.csv"
              for suffix in ("ecdf-rsrq", "alt-rsrp", "alt-sinr", "pdf-rtt")]
    for table in tables:
        table.write_bytes(f"previous {table.name}\n".encode())
    rc, stdout, err = run_cli(capsys, "analyze", "--ran", str(trace), "--e2e", str(e2e),
                              "--report", str(report))
    assert rc == 2
    assert "Is a directory" in err and str(report) in err
    assert stdout == ""
    for table in tables:
        assert table.read_bytes() == f"previous {table.name}\n".encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in [report, *tables])
    assert list(report.iterdir()) == []


# --- each command loads only what it runs ---

# Run in a fresh interpreter: prints the modules main(argv) loaded, beyond a
# bare interpreter's, after its exit code.
_LOADED_BY_MAIN = """\
import sys
bare = set(sys.modules)
import skylog.cli
rc = skylog.cli.main(sys.argv[1:])
print(rc, *sorted(set(sys.modules) - bare))
"""

SIMULATOR_AND_SOCKETS = {"skylog.simenv", "skylog.netprobe", "_hashlib", "socket", "statistics"}
# The collection stage, and logging, which only collect, serve, probe and simulate configure.
COLLECTION = {"skylog.collector", "skylog.modem", "logging", "signal"}
# dataclasses and what it imports: inspect, and through it ast, dis and tokenize.
DATACLASSES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
# Only a run on a clock that waits starts the collector's threads.
THREAD_POOLS = {"queue", "concurrent.futures"}


def loaded_by_main(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", _LOADED_BY_MAIN, *argv],
                          capture_output=True, text=True, timeout=60)
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    assert rc == "0", proc.stderr
    return set(loaded)


@pytest.mark.parametrize("command", [
    ["analyze", "--by-voxel", "--ran", "{trace}", "--e2e", "{e2e}", "--report", "{out}/r.json"],
    ["export", "--format", "geojson", "--ran", "{trace}", "--out", "{out}/p.geojson"],
    ["export", "--format", "csv", "--grid", "25,10", "--ran", "{trace}", "--out", "{out}/v.csv"],
], ids=["analyze", "export-geojson", "export-grid-csv"])
def test_analyze_and_export_load_no_simulator_or_sockets(tmp_path, short_flight, command):
    trace, e2e = short_flight
    argv = [a.format(trace=trace, e2e=e2e, out=tmp_path) for a in command]
    loaded = loaded_by_main(*argv)
    assert "skylog.analysis" in loaded
    assert loaded & SIMULATOR_AND_SOCKETS == set()
    assert loaded & COLLECTION == set()
    assert loaded & THREAD_POOLS == set()
    assert loaded & DATACLASSES == set()


# Loaded by neither simulate nor collect: dataclasses and what it imports, but
# tokenize, which logging imports too (through traceback and linecache), and the
# analysis code with its csv writer.
NOT_COLLECTING = (DATACLASSES - {"tokenize"}) | {"skylog.analysis", "skylog.geoexport", "csv"}


@pytest.mark.parametrize("command", [
    ["simulate", "--env", ENV, "--plan", PLAN, "--duration", "60", "--out", "{out}/sim"],
    ["collect", "--backend", "replay", "--replay", "{trace}", "--e2e-interval", "0",
     "--out", "{out}/rp"],
], ids=["simulate", "collect-replay"])
def test_simulate_and_collect_load_no_dataclasses_or_analysis(tmp_path, short_flight, command):
    trace, _ = short_flight
    argv = [a.format(trace=trace, out=tmp_path) for a in command]
    loaded = loaded_by_main(*argv)
    assert "skylog.collector" in loaded
    assert loaded & NOT_COLLECTING == set()


def test_netprobe_loads_no_dataclasses():
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, skylog.netprobe; print(*sorted(sys.modules))"],
                          capture_output=True, text=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert "skylog.netprobe" in loaded, proc.stderr
    assert loaded & (DATACLASSES - {"tokenize"}) == set()


def test_simulate_loads_no_sockets(tmp_path):
    loaded = loaded_by_main("simulate", "--env", ENV, "--plan", PLAN, "--duration", "60",
                            "--out", str(tmp_path))
    assert "skylog.simenv" in loaded
    # The seeded draws hash with _blake2, so OpenSSL's hashlib backend stays out.
    assert loaded & {"skylog.netprobe", "socket", "hashlib", "_hashlib"} == set()
    assert loaded & THREAD_POOLS == set()


# The root logger main(argv) leaves in a fresh interpreter: exit code, level, formats.
_ROOT_LOGGER_AFTER_MAIN = """\
import logging, sys
import skylog.cli
rc = skylog.cli.main(sys.argv[1:])
root = logging.getLogger()
print(rc, logging.getLevelName(root.level), *(h.formatter._fmt for h in root.handlers), sep="|")
"""


@pytest.mark.parametrize("command", [
    ["simulate", "--env", ENV, "--plan", PLAN, "--duration", "30", "--out", "{out}/sim"],
    ["collect", "--backend", "replay", "--replay", "{trace}", "--e2e-interval", "0",
     "--out", "{out}/rp"],
], ids=["simulate", "collect-replay"])
def test_log_level_configures_the_root_logger_of_the_commands_that_log(tmp_path, short_flight,
                                                                       command):
    trace, _ = short_flight
    argv = [a.format(trace=trace, out=tmp_path) for a in command]
    proc = subprocess.run([sys.executable, "-c", _ROOT_LOGGER_AFTER_MAIN, "--log-level", "info",
                           *argv], capture_output=True, text=True, timeout=60)
    assert proc.stdout.splitlines()[-1].split("|") == [
        "0", "INFO", "%(asctime)s %(levelname)s %(name)s: %(message)s"], proc.stderr


def test_export_empty_trace_writes_nothing(capsys, tmp_path):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    for extra in ([], ["--grid", "25,10"]):
        rc, _, err = run_cli(capsys, "export", "--ran", str(empty), "--format", "csv",
                             *extra, "--out", str(tmp_path / "new" / "o.csv"))
        assert rc == 2
        assert "no records" in err
        assert not (tmp_path / "new").exists()


@pytest.fixture(scope="module")
def whole_flight(tmp_path_factory):
    """RAN trace of the whole 2060 s shipped plan."""
    out = tmp_path_factory.mktemp("whole_flight")
    assert main(["simulate", "--env", ENV, "--plan", PLAN, "--duration", "2060",
                 "--e2e-interval", "0", "--out", str(out)]) == 0
    return next(out.glob("*.trace"))


@pytest.mark.parametrize("extra", [["--format", "geojson"], ["--format", "csv"],
                                   ["--format", "csv", "--grid", "25,10"]])
def test_refused_export_leaves_the_target_as_it_was(capsys, tmp_path, whole_flight, extra):
    lines = whole_flight.read_text().splitlines(keepends=True)
    assert len(lines) == 2060
    lines[999] = lines[999][:40] + "\n"  # line 1000 cut off mid-object
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "points"
    target.write_bytes(b"previous export\n")
    rc, stdout, err = run_cli(capsys, "export", "--ran", str(bad), *extra, "--out", str(target))
    assert rc == 2
    assert "line 1000" in err
    assert stdout == ""
    assert target.read_bytes() == b"previous export\n"
    rc, _, err = run_cli(capsys, "export", "--ran", str(bad), *extra,
                         "--out", str(out_dir / "new" / "points"))
    assert rc == 2
    assert "line 1000" in err
    assert list(out_dir.iterdir()) == [target]  # no temporary file or new directory left


@pytest.mark.parametrize("fmt", ["geojson", "csv"])
def test_export_onto_a_directory_is_refused_before_rendering(capsys, tmp_path, whole_flight,
                                                             fmt):
    # Rendering would stop at line 1000; a refused target is named before that.
    lines = whole_flight.read_text().splitlines(keepends=True)
    lines[999] = lines[999][:40] + "\n"
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines))
    target = tmp_path / "out"
    target.mkdir()
    rc, stdout, err = run_cli(capsys, "export", "--ran", str(bad), "--format", fmt,
                              "--out", str(target))
    assert rc == 2
    assert "Is a directory" in err and str(target) in err
    assert "line 1000" not in err
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.trace", "out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["export", "--format", "csv", "--grid", "25,10", "--out"],
    ["export", "--format", "geojson", "--grid", "25,10", "--out"],
    ["analyze", "--report"],
    ["analyze", "--by-voxel", "--report"],
], ids=["export-grid-csv", "export-grid-geojson", "analyze", "analyze-by-voxel"])
def test_a_directory_target_is_refused_before_any_input_is_read(capsys, tmp_path, short_flight,
                                                                command):
    # Reading the input would stop at line 50; a refused target is named before that.
    trace, _ = short_flight
    lines = trace.read_text().splitlines(keepends=True)
    lines[49] = lines[49][:28] + "\n"
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines))
    target = tmp_path / "d"
    target.mkdir()
    rc, stdout, err = run_cli(capsys, command[0], "--ran", str(bad), *command[1:], str(target))
    assert rc == 2
    assert "Is a directory" in err and str(target) in err
    assert "line 50" not in err
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.trace", "d"]
    assert list(target.iterdir()) == []


def test_analyze_report_does_not_depend_on_the_ingest_path(capsys, tmp_path, monkeypatch,
                                                           whole_flight):
    """A line with a leading space skips the one-pass check and takes
    decode_record and validate_record; the report and tables must not tell."""
    spaced = tmp_path / "spaced.trace"
    spaced.write_text("".join(" " + line for line in whole_flight.read_text().splitlines(True)))
    decoded = []
    monkeypatch.setattr("skylog.records.decode_record",
                        lambda *a: decoded.append(1) or decode_record(*a))
    for name, trace in (("fast", whole_flight), ("reference", spaced)):
        decoded.clear()
        rc, _, _ = run_cli(capsys, "analyze", "--by-voxel", "--ran", str(trace),
                           "--report", str(tmp_path / name / "report.json"))
        assert rc == 0
        assert len(decoded) == (0 if name == "fast" else 2060)
    outputs = sorted(p.name for p in (tmp_path / "fast").iterdir())
    assert outputs == ["report-alt-rsrp.csv", "report-alt-sinr.csv", "report-ecdf-rsrq.csv",
                       "report.json"]
    fast, reference = tmp_path / "fast", tmp_path / "reference"
    for name in outputs:
        assert (fast / name).read_bytes() == (reference / name).read_bytes(), name
    # The record-signature entry point agrees with Survey over the file's rows.
    recs = read_trace(whole_flight)
    for grid in (None, analysis.DEFAULT_GRID_M):
        survey = analysis.Survey(iter_rows(whole_flight), grid=grid)
        assert survey.report([]) == analysis.coverage_report(recs, [], by_voxel=grid is not None)


def test_export_does_not_depend_on_the_ingest_path(capsys, tmp_path, monkeypatch, whole_flight):
    """Export renders the checked rows without building a record; a line with
    a leading space takes decode_record and validate_record, and the outputs
    must not tell."""
    spaced = tmp_path / "spaced.trace"
    spaced.write_text("".join(" " + line for line in whole_flight.read_text().splitlines(True)))
    decoded, built = [], []
    monkeypatch.setattr("skylog.records.decode_record",
                        lambda *a: decoded.append(1) or decode_record(*a))
    monkeypatch.setattr("skylog.records._record_of", lambda row: built.append(1) or _record_of(row))
    exports = {"all.geojson": ["--format", "geojson"],
               "sinr.geojson": ["--format", "geojson", "--metric", "sinr"],
               "points.csv": ["--format", "csv"]}
    for name, trace in (("fast", whole_flight), ("reference", spaced)):
        for out, argv in exports.items():
            decoded.clear()
            built.clear()
            rc, _, _ = run_cli(capsys, "export", "--ran", str(trace), *argv,
                               "--out", str(tmp_path / name / out))
            assert rc == 0
            assert len(decoded) == (0 if name == "fast" else 2060)
            if name == "fast":
                assert not built, out
    fast, reference = tmp_path / "fast", tmp_path / "reference"
    for out in exports:
        assert (fast / out).read_bytes() == (reference / out).read_bytes(), out


def test_export_of_rows_without_alt_m_agl_is_the_stdlib_writers(capsys, tmp_path, short_flight):
    """Lines with no alt_m_agl (a GNSS fix with no takeoff altitude) fill no
    template: the GeoJSON is json.dumps's indent=2 text with no alt_m_agl
    property, and each CSV row is the full trace's with an empty alt_m_agl."""
    trace = short_flight[0]
    no_agl = tmp_path / "no_agl.trace"
    with open(no_agl, "w", encoding="utf-8") as fh:
        for line in trace.read_text().splitlines():
            doc = json.loads(line)
            del doc["alt_m_agl"]
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
    for name, fmt in (("p.geojson", "geojson"), ("full.csv", "csv"), ("no_agl.csv", "csv")):
        src = trace if name == "full.csv" else no_agl
        rc, _, _ = run_cli(capsys, "export", "--ran", str(src), "--format", fmt,
                           "--out", str(tmp_path / name))
        assert rc == 0
    text = (tmp_path / "p.geojson").read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert len(doc["features"]) == 120
    assert not [f for f in doc["features"] if "alt_m_agl" in f["properties"]]
    full = (tmp_path / "full.csv").read_text().splitlines()
    got = (tmp_path / "no_agl.csv").read_text().splitlines()
    assert got[0] == full[0] and len(got) == len(full) == 121
    agl = full[0].split(",").index("alt_m_agl")
    for want, row in zip(full[1:], got[1:]):
        cells = want.split(",")
        assert cells[agl] != ""
        cells[agl] = ""
        assert row == ",".join(cells)


def write_orbit_trace(path, n: int) -> None:
    """n records of a survey that keeps circling one 100 m loop at four
    heights under three cells: the record count grows with n, while the
    surveyed area and the set of stored values do not."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            k = i % 240
            lat, lon = tangent_inverse(40.0, -100.0, 100.0 * math.cos(k * math.pi / 30),
                                       100.0 * math.sin(k * math.pi / 30))
            agl = 40.0 + 20.0 * (k // 60)
            level = round(-90.0 + 0.5 * (k % 60) - 0.1 * (i % 7), 1)
            serving = make_serving(cell_id=1 + k % 3, rsrp_dbm=level,
                                   rsrq_db=round(-10.0 - 0.1 * (i % 11), 1),
                                   rssi_dbm=round(level + 25.0, 1),
                                   sinr_db=round(level + 100.0, 1))
            rec = make_record(ts_unix_ms=1_700_000_000_000 + 1000 * i,
                              pos=GeoPosition(lat, lon, 600.0 + agl, agl), serving=serving,
                              neighbors=(make_neighbor(pci=200 + k % 4,
                                                       rsrp_dbm=round(level - 6.0, 1)),))
            fh.write(encode_record(rec) + "\n")


@pytest.fixture(scope="module")
def orbit_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("orbit") / "orbit.trace"
    write_orbit_trace(path, 20_000)
    return path


def test_survey_groups_do_not_grow_with_records(tmp_path):
    # Two laps over the orbit's rows survey the same cells, bands and voxels as one.
    path = tmp_path / "orbit.trace"
    write_orbit_trace(path, 480)
    rows = list(iter_rows(path))
    for grid in (None, analysis.DEFAULT_GRID_M):
        once, twice = analysis.Survey(rows, grid=grid), analysis.Survey(rows + rows, grid=grid)
        assert twice.n == 2 * once.n
        assert len(twice.groups) == len(once.groups) > 3
        assert len(twice.pcis) == len(once.pcis) == 4


def traced_peak(argv) -> tuple[int, int]:
    """main(argv)'s exit code and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, peak


def test_analyze_memory_does_not_grow_with_records(capsys, tmp_path, orbit_trace):
    # Measured at 0.9 MiB for these 20k records; reading them into a list
    # first peaked at 15.7 MiB.
    report = tmp_path / "r.json"
    rc, peak = traced_peak(["analyze", "--by-voxel", "--ran", str(orbit_trace),
                            "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["coverage"]["n_ran_samples"] == 20_000
    assert peak < 3 * 2**20


@pytest.mark.parametrize("fmt", ["geojson", "csv"])
def test_export_from_file_memory_does_not_grow_with_records(capsys, tmp_path, orbit_trace,
                                                            fmt):
    # Measured at 0.1 (geojson) and 0.2 MiB (csv); reading the records into
    # a list first peaked at 15 MiB.
    rc, peak = traced_peak(["export", "--ran", str(orbit_trace), "--format", fmt,
                            "--out", str(tmp_path / "o")])
    assert rc == 0
    assert last_json_line(capsys.readouterr().out)["count"] == 20_000
    assert peak < 2 * 2**20


# --- simulate ---

def test_simulate_cadence_and_summary(capsys, tmp_path):
    out = tmp_path / "run"
    rc, stdout, _ = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                            "--duration", "60", "--out", str(out),
                            "--run-id", "cadence")
    assert rc == 0
    summary = last_json_line(stdout)
    assert summary["records_written"] == 60
    assert summary["polls_failed"] == 0
    assert summary["e2e_tests_run"] == 1
    # The whole line is pinned: the summary's files tuple is written as a JSON list.
    assert stdout == ('{"records_written": 60, "polls_failed": 0, "e2e_tests_run": 1, '
                      '"start_ms": 1700000000000, "end_ms": 1700000059000, "files": '
                      + json.dumps([str(out / "cadence-0001.trace"), str(out / "cadence.e2e")])
                      + "}\n")
    traces = [f for f in summary["files"] if f.endswith(".trace")]
    records = read_trace(traces[0])
    assert len(records) == 60
    deltas = {b.ts_unix_ms - a.ts_unix_ms for a, b in zip(records, records[1:])}
    assert deltas == {1000}


def test_simulate_deterministic_and_seed_sensitive(capsys, tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc, _, _ = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                           "--duration", "45", "--out", str(out),
                           "--run-id", "det")
        assert rc == 0
        blobs.append(b"".join(sorted(p.read_bytes() for p in out.iterdir())))
    assert blobs[0] == blobs[1]

    out = tmp_path / "c"
    rc, _, _ = run_cli(capsys, "--seed", "5", "simulate", "--env", ENV,
                       "--plan", PLAN, "--duration", "45", "--out", str(out),
                       "--run-id", "det")
    assert rc == 0
    reseeded = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
    assert reseeded != blobs[0]


# --- simulate -> replay -> analyze -> export ---

def test_full_pipeline(capsys, tmp_path):
    sim_out = tmp_path / "sim"
    rc, stdout, _ = run_cli(capsys, "simulate", "--env", ENV, "--plan", PLAN,
                            "--duration", "120", "--out", str(sim_out),
                            "--run-id", "flight")
    assert rc == 0
    sim_summary = last_json_line(stdout)
    n_sim = sim_summary["records_written"]
    trace = next(f for f in sim_summary["files"] if f.endswith(".trace"))

    replay_out = tmp_path / "replayed"
    rc, stdout, _ = run_cli(capsys, "collect", "--config", ENV,
                            "--backend", "replay", "--replay", str(trace),
                            "--out", str(replay_out), "--run-id", "second")
    assert rc == 0
    replay_summary = last_json_line(stdout)
    assert replay_summary["records_written"] == n_sim
    replayed = read_trace(
        next(f for f in replay_summary["files"] if f.endswith(".trace")))
    assert [r.serving for r in replayed] == [r.serving for r in read_trace(trace)]
    assert all(r.source == "replay" for r in replayed)

    e2e_trace = next(f for f in sim_summary["files"] if f.endswith(".e2e"))
    report = tmp_path / "report" / "coverage.json"
    rc, stdout, _ = run_cli(capsys, "analyze", "--ran", str(trace),
                            "--e2e", e2e_trace,
                            "--report", str(report))
    assert rc == 0
    line = last_json_line(stdout)
    assert line["csv_tables"] == 4
    doc = json.loads(report.read_text())
    assert doc["coverage"]["n_ran_samples"] == n_sim
    assert set(line["fractions"]) == {"rsrq_poor", "dl_ge", "ul_ge", "rtt_le"}
    for suffix in ("ecdf-rsrq", "alt-rsrp", "alt-sinr", "pdf-rtt"):
        assert (report.parent / f"coverage-{suffix}.csv").exists()

    geo = tmp_path / "cells.geojson"
    rc, stdout, _ = run_cli(capsys, "export", "--ran", str(trace),
                            "--format", "geojson", "--out", str(geo))
    assert rc == 0
    assert last_json_line(stdout)["count"] == n_sim
    collection = json.loads(geo.read_text())
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) == n_sim

    table = tmp_path / "cells.csv"
    rc, stdout, _ = run_cli(capsys, "export", "--ran", str(trace),
                            "--format", "csv", "--out", str(table))
    assert rc == 0
    assert last_json_line(stdout)["count"] == n_sim

    voxels = tmp_path / "voxels.geojson"
    rc, stdout, _ = run_cli(capsys, "export", "--ran", str(trace),
                            "--format", "geojson", "--grid", "25,10",
                            "--metric", "rsrp", "--out", str(voxels))
    assert rc == 0
    grid_doc = json.loads(voxels.read_text())
    assert 0 < len(grid_doc["features"]) <= n_sim
    assert last_json_line(stdout)["count"] == len(grid_doc["features"])
    assert all("rsrp_dbm_mean" in f["properties"] for f in grid_doc["features"])

    voxel_table = tmp_path / "voxels.csv"
    rc, stdout, _ = run_cli(capsys, "export", "--ran", str(trace),
                            "--format", "csv", "--grid", "25,10", "--out", str(voxel_table))
    assert rc == 0
    data_rows = voxel_table.read_text().splitlines()[1:]
    assert last_json_line(stdout)["count"] == len(data_rows) == len(grid_doc["features"])


# --- serve + probe over loopback ---

def test_probe_against_served_endpoints(capsys, tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "skylog.cli", "serve", "--bind", "127.0.0.1",
         "--rtt-port", "0", "--tp-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ports = json.loads(proc.stdout.readline())
        rc, stdout, _ = run_cli(capsys, "probe", "--server", "127.0.0.1",
                                "--rtt-port", str(ports["rtt_port"]),
                                "--tp-port", str(ports["tp_port"]),
                                "--count", "5", "--interval-ms", "30",
                                "--timeout-ms", "500", "--duration", "0.4",
                                "--lat", "40.0", "--lon", "-100.0",
                                "--alt", "650.0")
        assert rc == 0
        line_file = tmp_path / "probe.e2e"
        line_file.write_text(stdout.strip().splitlines()[-1] + "\n")
        rec = read_e2e_trace(line_file)[0]
        assert rec.rtt.sent == 5 and rec.rtt.received == 5
        assert rec.dl_mbps > 0 and rec.ul_mbps > 0
        assert rec.pos.lat_deg == 40.0
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            assert proc.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
def test_serve_stops_on_signal_with_sigint_ignored(sig):
    # A background job starts with SIGINT ignored, so Python never raises
    # KeyboardInterrupt; serve must still stop cleanly on SIGINT and SIGTERM.
    proc = subprocess.Popen(
        [sys.executable, "-m", "skylog.cli", "serve", "--bind", "127.0.0.1",
         "--rtt-port", "0", "--tp-port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    try:
        assert "rtt_port" in json.loads(proc.stdout.readline())
        proc.send_signal(sig)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=lambda s: s.name)
def test_a_stop_signal_loses_no_line_on_the_real_clock(tmp_path, sig):
    """collect on the real clock, started as a background job with SIGINT
    ignored and no --duration: a stop signal mid-run waits for the writer
    and e2e threads, so the summary counts exactly the lines on disk."""
    out = tmp_path / "live"
    proc = subprocess.Popen(
        [sys.executable, "-m", "skylog.cli", "collect", "--backend", "sim", "--config", ENV,
         "--plan", PLAN, "--interval-ms", "100", "--e2e-interval", "1", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
    try:
        deadline = time.monotonic() + 30
        while not list(out.glob("*.e2e")) and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)  # mid-run: about ten ticks and one more e2e test on
        proc.send_signal(sig)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)
    assert proc.returncode == 0, stderr
    summary = json.loads(stdout.splitlines()[-1])
    ran = [line for path in sorted(out.glob("*.trace")) for line in path.read_text().splitlines()]
    [e2e] = out.glob("*.e2e")
    assert summary["records_written"] == len(ran) >= 10
    assert summary["e2e_tests_run"] == len(e2e.read_text().splitlines()) >= 2
