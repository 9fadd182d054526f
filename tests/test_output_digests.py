"""Byte-identity guard: sha256 of every file the pipeline writes.

One deterministic flight (shipped env and plan, seed 7, 3600 s, e2e on) is
simulated, analyzed and exported through the CLI.  A refactor must leave
every output byte-identical; a change that moves any of them on purpose
updates the digest here and says why.
"""

import hashlib
from importlib.resources import files

import pytest

from skylog.cli import main

DIGESTS = {
    "sim/run1700000000000-0001.trace":
        "7c7a441ace96acdc7291118a92d340d5265eb30507c7b099753c659437f31c00",
    "sim/run1700000000000.e2e":
        "d6d9d78acec3a7654db550b72f95ddd64b2e8abbdcc183f251e30742eeeee6d0",
    "report.json":
        "9eda1613a74b170b050031051978a2c8b7b87eeb5006e3fb3526fc1f1821f3e3",
    "report-ecdf-rsrq.csv":
        "fa9c038436d6e713377f954bbbf5550ec7fbc9a7d9152f4fd4c3d3eb99cbf97e",
    "report-alt-rsrp.csv":
        "28c75c2a5d7612135d33a75c5e013e26454f3034e398393061701fb987df2369",
    "report-alt-sinr.csv":
        "4666fa0bcb3fb3547140490a5d3d6689f9715ea0eb047699a2c86feaf98162d4",
    "report-pdf-rtt.csv":
        "a6e88fc30f6b3b34492f242c683df0591f7974300bcd33b6705360823979f122",
    "points.geojson":
        "f41a0bd9794a87874f34ae6249be5f90237139678d9f62d3ec34f1c72e62383f",
    "points.csv":
        "cc5689fd7e27ca00a96c387ef3028bdcdc4fc1e2c498b49ef598a32e38be3f00",
    "voxels.geojson":
        "f24e3bf21f7e73aecd58e980b3a997b5ead1d639c29de54cea6f0b7b89ce6179",
    "voxels.csv":
        "491ea4f16a9f75132d9064bb3c6c2a726fa5edb23d415e13f19d7e56813da853",
    "points-sinr.geojson":
        "775221a5c07891e3b3a27102b689b9de3c386c98761af95d77febf7603ead67d",
    "voxels-rsrp.geojson":
        "27fe46a7a480f2caa5536058182b6d37a11044dc5df95984639d21fd37b7934d",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("digests")
    data = files("skylog") / "data"
    sim = out / "sim"
    assert main(["--seed", "7", "simulate", "--env", str(data / "threecell.env"),
                 "--plan", str(data / "climb.plan"), "--duration", "3600",
                 "--e2e-interval", "60", "--out", str(sim)]) == 0
    trace = str(sim / "run1700000000000-0001.trace")
    assert main(["analyze", "--ran", trace, "--e2e", str(sim / "run1700000000000.e2e"),
                 "--report", str(out / "report.json")]) == 0
    for fmt in ("geojson", "csv"):
        assert main(["export", "--ran", trace, "--format", fmt,
                     "--out", str(out / f"points.{fmt}")]) == 0
        assert main(["export", "--ran", trace, "--format", fmt, "--grid", "25,10",
                     "--out", str(out / f"voxels.{fmt}")]) == 0
    assert main(["export", "--ran", trace, "--format", "geojson", "--metric", "sinr",
                 "--out", str(out / "points-sinr.geojson")]) == 0
    assert main(["export", "--ran", trace, "--format", "geojson", "--grid", "25,10",
                 "--metric", "rsrp", "--out", str(out / "voxels-rsrp.geojson")]) == 0
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_pinned(outputs, name):
    digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
    assert digest == DIGESTS[name]
