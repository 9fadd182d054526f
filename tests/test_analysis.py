import math
import random
import warnings
from contextlib import contextmanager
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylog import analysis
from skylog.analysis import (
    BinStats,
    EmptyInput,
    LengthMismatch,
    NonfiniteThreshold,
    NonpositiveBinWidth,
    TooFewSamples,
    TooManyBins,
    Survey,
    altitude_bins,
    cell_dominance,
    coverage_report,
    ecdf,
    grid_aggregate,
    histogram_pdf,
    neighbor_stats,
    spearman_rho,
)
from skylog.cli import main as cli_main
from skylog.geo import tangent_forward, tangent_inverse
from skylog.records import (METRIC_FIELDS, GeoPosition, NeighborCellSample, RttSummary, _row_of,
                            iter_rows)

from conftest import make_e2e, make_neighbor, make_record, make_serving
from coverage_fixtures import (
    dl_coverage_trace,
    low_share_trace,
    rsrq_poor_trace,
    rtt_coverage_trace,
)

ANCHOR_LAT, ANCHOR_LON = 40.0, -100.0


def pos_at(x_east: float, y_north: float, alt_amsl: float = 650.0,
           agl: float = 50.0) -> GeoPosition:
    lat, lon = tangent_inverse(ANCHOR_LAT, ANCHOR_LON, x_east, y_north)
    return GeoPosition(lat_deg=lat, lon_deg=lon, alt_m_amsl=alt_amsl, alt_m_agl=agl)


# --- tallies ---

# Stored values are quantized to 0.1 dB; drawing from a small pool gives repeats.
quantized_samples = st.lists(st.floats(-140.0, 40.0).map(lambda v: round(v, 1)),
                             min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(quantized_samples, st.randoms(use_true_random=False))
def test_bin_stats_of_a_tally_equal_the_list_formula(samples, rng):
    rng.shuffle(samples)
    tally: dict = {}
    for v in samples:  # in stream order, as a survey pass counts them
        tally[v] = tally.get(v, 0) + 1
    n = len(samples)
    mean = math.fsum(samples) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in samples) / (n - 1)) if n > 1 else None
    got = analysis._bin_stats(tally)
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(got) == repr(analysis.BinStats(n, mean, std, min(samples), max(samples)))


def test_bin_stats_count_is_the_field_not_tuple_count():
    stats = BinStats(2, 1.0, 0.5, 0.5, 1.5)
    assert stats.count == 2 and stats == (2, 1.0, 0.5, 0.5, 1.5)
    assert stats.to_doc() == {"count": 2, "mean": 1.0, "std": 0.5, "min": 0.5, "max": 1.5}


# --- ecdf ---

def test_ecdf_basic():
    assert list(ecdf([3, 1, 2])) == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]


def test_ecdf_merges_duplicates():
    assert list(ecdf([5, 5, 5])) == [(5, 1.0)]


def test_ecdf_empty_rejected():
    with pytest.raises(EmptyInput):
        ecdf([])


def test_ecdf_matches_counting_oracle():
    rng = random.Random(11)
    samples = [rng.gauss(-95, 8) for _ in range(1000)]
    samples[100:120] = [samples[0]] * 20  # force ties through the merge path
    table = ecdf(samples)
    n = len(samples)
    expected = [(v, sum(1 for s in samples if s <= v) / n)
                for v in sorted(set(samples))]
    assert list(table) == expected
    xs = [x for x, _ in table]
    assert xs == sorted(set(xs))
    assert table[-1][1] == 1.0


# --- histogram ---

def test_histogram_two_bins():
    assert histogram_pdf([0.5, 1.5], 1.0) == [(0.0, 0.5), (1.0, 0.5)]


def test_histogram_edge_sample_goes_to_upper_bin():
    # 2.0 sits on the edge between [1,2) and [2,3); right-open bins put it up
    out = dict(histogram_pdf([1.5, 2.0], 1.0))
    assert out[1.0] == 0.5 and out[2.0] == 0.5


def test_histogram_reports_empty_interior_bins():
    out = histogram_pdf([0.5, 3.5], 1.0)
    assert [b for b, _ in out] == [0.0, 1.0, 2.0, 3.0]
    assert [d for _, d in out] == [0.5, 0.0, 0.0, 0.5]


def test_histogram_anchor_at_width_multiple():
    (start, _), = histogram_pdf([7.3], 2.0)
    assert start == 6.0


def test_histogram_rejects_bad_input():
    for w in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonpositiveBinWidth):
            histogram_pdf([1.0], w)
    with pytest.raises(EmptyInput):
        histogram_pdf([], 1.0)


def test_histogram_caps_bin_count(monkeypatch):
    # refused before any bin is listed: this width would need ~6e301 of them
    with pytest.raises(TooManyBins, match=r"bin width 1e-300 gives 6e\+301 bins"):
        histogram_pdf([20.0, 80.0], 1e-300)
    with pytest.raises(TooManyBins, match="gives inf bins"):  # 50 / 1e-310 overflows
        histogram_pdf([50.0], 1e-310)
    monkeypatch.setattr(analysis, "MAX_HISTOGRAM_BINS", 3)
    assert len(histogram_pdf([0.5, 2.5], 1.0)) == 3
    with pytest.raises(TooManyBins, match="gives 4 bins; the cap is 3"):
        histogram_pdf([0.5, 3.5], 1.0)


@given(st.lists(st.floats(-120, -40), min_size=1, max_size=200),
       st.sampled_from([0.25, 0.5, 1.0, 2.0, 5.0]))
@settings(max_examples=100)
def test_histogram_normalizes(samples, width):
    total = sum(d * width for _, d in histogram_pdf(samples, width))
    assert abs(total - 1.0) < 1e-9


def test_histogram_matches_counting_oracle():
    rng = random.Random(7)
    samples = [rng.uniform(20, 400) for _ in range(1000)]
    width = 25.0
    out = histogram_pdf(samples, width)
    n = len(samples)
    for start, density in out:
        count = sum(1 for x in samples if start <= x < start + width)
        assert density == count / (n * width)
    assert sum(d for _, d in out) * width == pytest.approx(1.0, abs=1e-9)


# --- altitude bins ---

def test_altitude_bins_two_bands():
    recs = [make_record(pos=pos_at(0, 0, agl=5.0)),
            make_record(pos=pos_at(0, 0, agl=15.0))]
    bins = altitude_bins(recs, bin_m=10.0)
    assert [(lower, s["rsrp"].count) for lower, s in bins.items()] == [(0.0, 1), (10.0, 1)]
    one = bins[0.0]["rsrp"]
    assert one.min == one.mean == one.max == -95.0
    assert one.std is None


def test_altitude_bins_unknown_metric():
    with pytest.raises(EmptyInput):
        altitude_bins([])
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(NonpositiveBinWidth, match="bin width must be positive"):
            altitude_bins([make_record()], bin_m=bad)


def test_altitude_bins_amsl_fallback_warns():
    recs = [make_record(pos=GeoPosition(40.0, -100.0, 655.0, None)),
            make_record(pos=GeoPosition(40.0, -100.0, 665.0, 15.0))]
    with pytest.warns(UserWarning, match="alt_m_amsl"):
        bins = altitude_bins(recs, bin_m=10.0)
    # both records binned by AMSL, so lowers sit in the 650s/660s
    assert list(bins) == [650.0, 660.0]


def test_altitude_bins_match_regroup_oracle():
    rng = random.Random(3)
    recs = [make_record(pos=pos_at(0, 0, agl=rng.uniform(0, 120)),
                        serving=make_serving(rsrp_dbm=rng.uniform(-120, -60),
                                             rsrq_db=rng.uniform(-20, -3),
                                             rssi_dbm=rng.uniform(-110, -50),
                                             sinr_db=rng.uniform(-5, 30)))
            for _ in range(1000)]
    bins = altitude_bins(recs, bin_m=10.0)
    groups: dict[float, list] = {}
    for r in recs:
        lower = math.floor(r.pos.alt_m_agl / 10.0) * 10.0
        groups.setdefault(lower, []).append(r.serving)
    assert list(bins) == sorted(groups)
    for lower, by_metric in bins.items():
        assert list(by_metric) == list(METRIC_FIELDS)
        for metric, field in METRIC_FIELDS.items():
            b = by_metric[metric]
            vals = [getattr(s, field) for s in groups[lower]]
            assert b.count == len(vals)
            mean = math.fsum(vals) / len(vals)
            assert b.mean == mean
            assert b.std == math.sqrt(
                math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
            assert b.min == min(vals) and b.max == max(vals)
            assert b.min <= b.mean <= b.max


# --- grouping ---

def test_cell_dominance_single_cell():
    recs = [make_record() for _ in range(10)]
    assert cell_dominance(recs) == {0x1A2B3C: 1.0}


def test_cell_dominance_split():
    recs = ([make_record(serving=make_serving(cell_id=1)) for _ in range(6)]
            + [make_record(serving=make_serving(cell_id=2)) for _ in range(4)])
    shares = cell_dominance(recs)
    assert shares == {1: 0.6, 2: 0.4}
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    with pytest.raises(EmptyInput):
        cell_dominance([])


def test_per_cell_stats_single_record_collapses():
    recs = [make_record(serving=make_serving(cell_id=1, rsrp_dbm=-88.0)),
            make_record(serving=make_serving(cell_id=2, rsrp_dbm=-102.0))]
    stats = coverage_report(recs, []).per_cell
    assert stats[1]["rsrp"].min == stats[1]["rsrp"].mean == stats[1]["rsrp"].max == -88.0
    assert stats[2]["rsrp"].count == 1 and stats[2]["rsrp"].std is None


def test_per_cell_stats_match_regroup_oracle():
    rng = random.Random(5)
    recs = [make_record(serving=make_serving(cell_id=rng.choice([1, 2, 7]),
                                             rsrp_dbm=rng.uniform(-120, -60),
                                             rsrq_db=rng.uniform(-20, -3),
                                             rssi_dbm=rng.uniform(-110, -50),
                                             sinr_db=rng.uniform(-5, 30)))
            for _ in range(400)]
    stats = coverage_report(recs, []).per_cell
    assert list(stats) == [1, 2, 7]
    for cid in (1, 2, 7):
        for metric, field in METRIC_FIELDS.items():
            vals = [getattr(r.serving, field) for r in recs if r.serving.cell_id == cid]
            assert stats[cid][metric].count == len(vals)
            assert stats[cid][metric].mean == math.fsum(vals) / len(vals)


def test_neighbor_stats_pools_by_pci():
    recs = [
        make_record(neighbors=(make_neighbor(pci=301, rsrp_dbm=-98.0),)),
        make_record(neighbors=(make_neighbor(pci=301, rsrp_dbm=-100.0),
                               make_neighbor(pci=77, rsrp_dbm=-110.0))),
    ]
    stats = neighbor_stats(recs)
    assert stats[301]["rsrp"].mean == -99.0
    assert stats[301]["rsrp"].count == 2
    total = sum(per["rsrp"].count for per in stats.values())
    assert total == 3


def test_neighbor_stats_requires_entries():
    with pytest.raises(EmptyInput):
        neighbor_stats([make_record(neighbors=())])
    with pytest.raises(EmptyInput):
        neighbor_stats([])


# --- spearman ---

def test_spearman_monotone_limits():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert spearman_rho(x, [v * 3 + 1 for v in x]) == 1.0
    assert spearman_rho(x, [-v for v in x]) == -1.0


def test_spearman_tie_handling():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [10.0, 20.0, 30.0, 30.0]
    # ranks y: 1, 2, 3.5, 3.5; Pearson on ranks by hand: cov 4.5, vars 5 and 4.5
    assert spearman_rho(x, y) == pytest.approx(4.5 / math.sqrt(5 * 4.5), abs=1e-12)


def test_spearman_input_checks():
    with pytest.raises(LengthMismatch):
        spearman_rho([1, 2, 3], [1, 2])
    with pytest.raises(TooFewSamples):
        spearman_rho([1, 2], [1, 2])
    assert spearman_rho([1, 1, 1], [1, 2, 3]) == 0.0


def _pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    vx = math.fsum((a - mx) ** 2 for a in xs)
    vy = math.fsum((b - my) ** 2 for b in ys)
    return cov / math.sqrt(vx * vy)


def _rank_by_counting(values):
    # average rank = (# strictly below) + (ties + 1) / 2, 1-based
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v)
        out.append(below + (ties + 1) / 2)
    return out


def test_spearman_matches_rank_then_pearson_oracle():
    rng = random.Random(19)
    for trial in range(20):
        n = rng.randrange(3, 120)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.choice([rng.uniform(-50, 50), x[i]]) for i in range(n)]
        expected = _pearson(_rank_by_counting(x), _rank_by_counting(y))
        assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.integers(-30, 30), min_size=3, max_size=60),
       st.lists(st.integers(-30, 30), min_size=3, max_size=60))
@settings(max_examples=150)
def test_spearman_oracle_property(x, y):
    n = min(len(x), len(y))
    x, y = [float(v) for v in x[:n]], [float(v) for v in y[:n]]
    rx, ry = _rank_by_counting(x), _rank_by_counting(y)
    if len(set(rx)) == 1 or len(set(ry)) == 1:
        assert spearman_rho(x, y) == 0.0
        return
    assert spearman_rho(x, y) == pytest.approx(_pearson(rx, ry), abs=1e-12)


# --- voxel grid ---

def test_grid_nearby_records_share_voxel():
    recs = [make_record(pos=pos_at(2.0, 2.0)),
            make_record(pos=pos_at(7.0, 2.0))]
    grid = grid_aggregate(recs, ground_m=10.0, alt_m=10.0)
    assert len(grid.cells) == 1
    assert grid.total_count() == 2


def test_grid_counts_sum_to_records():
    rng = random.Random(23)
    recs = [make_record(pos=pos_at(rng.uniform(-200, 200),
                                   rng.uniform(-200, 200),
                                   alt_amsl=rng.uniform(600, 720)))
            for _ in range(300)]
    grid = grid_aggregate(recs, ground_m=25.0, alt_m=10.0)
    assert grid.total_count() == 300
    assert len(grid.cells) > 10


def test_grid_means_match_regroup_oracle():
    from skylog.geo import tangent_forward
    rng = random.Random(29)
    recs = [make_record(pos=pos_at(rng.uniform(-100, 100),
                                   rng.uniform(-100, 100),
                                   alt_amsl=rng.uniform(600, 680)),
                        serving=make_serving(rsrp_dbm=rng.uniform(-120, -60)))
            for _ in range(1000)]
    grid = grid_aggregate(recs, ground_m=25.0, alt_m=10.0)
    anchor = recs[0].pos
    groups: dict[tuple, list[float]] = {}
    for r in recs:
        x, y = tangent_forward(anchor.lat_deg, anchor.lon_deg,
                               r.pos.lat_deg, r.pos.lon_deg)
        key = (math.floor(x / 25.0), math.floor(y / 25.0),
               math.floor(r.pos.alt_m_amsl / 10.0))
        groups.setdefault(key, []).append(r.serving.rsrp_dbm)
    assert set(grid.cells) == set(groups)
    for key, vals in groups.items():
        st_ = grid.cells[key]["rsrp"]
        assert st_.count == len(vals)
        assert st_.mean == math.fsum(vals) / len(vals)


def test_grid_center_round_trip():
    # anchor is the first record, so that record lands in voxel (0, 0, z)
    recs = [make_record(pos=pos_at(30.0, 30.0, alt_amsl=655.0))]
    grid = grid_aggregate(recs, ground_m=25.0, alt_m=10.0)
    (index,) = grid.cells
    assert index == (0, 0, 65)
    lat, lon, alt = grid.center_of(index)
    assert alt == 655.0
    # voxel center sits 12.5 m east/north of the anchor
    clat, clon = tangent_inverse(recs[0].pos.lat_deg, recs[0].pos.lon_deg,
                                 12.5, 12.5)
    assert lat == pytest.approx(clat, abs=1e-9)
    assert lon == pytest.approx(clon, abs=1e-9)


def test_grid_rejects_bad_sizes():
    with pytest.raises(NonpositiveBinWidth):
        grid_aggregate([make_record()], ground_m=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(NonpositiveBinWidth, match="voxel sizes must be positive"):
            grid_aggregate([make_record()], ground_m=bad)
        with pytest.raises(NonpositiveBinWidth, match="voxel sizes must be positive"):
            grid_aggregate([make_record()], alt_m=bad)
    with pytest.raises(EmptyInput):
        grid_aggregate([])


# --- one survey against a regroup from scratch ---

CELL_PCIS = {11: 101, 22: 102, 33: 103}
NEIGHBOR_METRICS = {m: f for m, f in METRIC_FIELDS.items()
                    if f in NeighborCellSample._fields}


def survey_records(agl_missing_from: int, n: int = 600) -> list:
    """n records under three cells, each heard with the other two as
    neighbors, over a spread of places and heights; alt_m_agl is None from
    record agl_missing_from on.  Values are quantized to 0.1 dB, so tallies
    repeat, and no SINR is zero, whose sign a tally keeps from one sample."""
    rng = random.Random(41)

    def db(lo, hi):
        return round(rng.uniform(lo, hi), 1)

    recs = []
    for i in range(n):
        cell = rng.choice(list(CELL_PCIS))
        pos = pos_at(rng.uniform(-80, 80), rng.uniform(-80, 80), alt_amsl=db(600, 700),
                     agl=None if i >= agl_missing_from else db(0, 120))
        neighbors = tuple(make_neighbor(pci=pci, rsrp_dbm=db(-125, -80), rsrq_db=db(-20, -8),
                                        rssi_dbm=db(-90, -60))
                          for cid, pci in CELL_PCIS.items() if cid != cell)
        recs.append(make_record(pos=pos, neighbors=neighbors,
                                serving=make_serving(cell_id=cell, pci=CELL_PCIS[cell],
                                                     rsrp_dbm=db(-120, -60), rsrq_db=db(-20, -3),
                                                     rssi_dbm=db(-110, -50), sinr_db=db(1, 30))))
    return recs


def oracle_stats(vals: list) -> BinStats:
    n = len(vals)
    mean = math.fsum(vals) / n
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (n - 1)) if n > 1 else None
    return BinStats(n, mean, std, min(vals), max(vals))


def regroup(samples, metrics: dict) -> dict:
    """{key: {metric: BinStats}} of (key, sample) pairs, in key order."""
    groups: dict = {}
    for key, sample in samples:
        groups.setdefault(key, []).append(sample)
    return {key: {m: oracle_stats([getattr(s, f) for s in groups[key]]) for m, f in metrics.items()}
            for key in sorted(groups)}


def voxel_of(anchor: GeoPosition, pos: GeoPosition) -> tuple[int, int, int]:
    x, y = tangent_forward(anchor.lat_deg, anchor.lon_deg, pos.lat_deg, pos.lon_deg)
    return math.floor(x / 25.0), math.floor(y / 25.0), math.floor(pos.alt_m_amsl / 10.0)


@pytest.mark.parametrize("agl_missing_from", [600, 250, 0])
def test_survey_tables_match_a_regroup_from_scratch(agl_missing_from):
    recs = survey_records(agl_missing_from)
    fallback = agl_missing_from < len(recs)

    def tables(recs):
        survey = Survey(map(_row_of, recs), 10.0, (25.0, 10.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bins, bins_2 = survey.altitude_bins(), survey.altitude_bins(("rsrp", "sinr"))
        assert [str(w.message) for w in caught] == (
            ["alt_m_agl missing on some records; binning by alt_m_amsl"] * 2 if fallback else [])
        return survey, survey.report([], rsrq_poor_db=-11.5), bins, bins_2

    survey, report, bins, bins_2 = tables(recs)
    assert report.per_cell == regroup(((r.serving.cell_id, r.serving) for r in recs),
                                      METRIC_FIELDS)
    assert report.dominance == {cid: sum(r.serving.cell_id == cid for r in recs) / len(recs)
                                for cid in sorted(CELL_PCIS)}
    assert report.neighbors == regroup(((nb.pci, nb) for r in recs for nb in r.neighbors),
                                       NEIGHBOR_METRICS)
    assert list(report.neighbors) == [101, 102, 103]

    height = "alt_m_amsl" if fallback else "alt_m_agl"
    expected_bins = regroup(((math.floor(getattr(r.pos, height) / 10.0) * 10.0, r.serving)
                             for r in recs), METRIC_FIELDS)
    assert bins == expected_bins
    assert bins_2 == {lower: {m: s[m] for m in ("rsrp", "sinr")}
                      for lower, s in expected_bins.items()}

    def expected_voxels(recs):
        return regroup(((voxel_of(recs[0].pos, r.pos), r.serving) for r in recs), METRIC_FIELDS)

    voxels = expected_voxels(recs)
    assert survey.voxel_grid().cells == voxels
    means = [s["rsrq"].mean for s in voxels.values()]
    assert report.frac_rsrq_poor == sum(m < -11.5 for m in means) / len(means)
    assert 0 < report.frac_rsrq_poor < 1

    # Backwards, only the voxel anchor (the first record's place) moves.
    back, back_report, back_bins, back_bins_2 = tables(recs[::-1])
    assert (back_bins, back_bins_2) == (bins, bins_2)
    for field in ("per_cell", "dominance", "neighbors"):
        assert getattr(back_report, field) == getattr(report, field)
    assert back.ecdf_rsrq() == survey.ecdf_rsrq()
    assert back.anchor == (recs[-1].pos.lat_deg, recs[-1].pos.lon_deg)
    assert back.voxel_grid().cells == expected_voxels(recs[::-1])


# --- tally keys: one float object per distinct value ---

def reference_count(groups: dict, key, values, interned: dict) -> None:
    """Survey's _count as it was before it shared its float keys."""
    tallies = groups.get(key)
    if tallies is None:
        groups[key] = [{v: 1} for v in values]
    else:
        for tally, v in zip(tallies, values):
            tally[v] = tally.get(v, 0) + 1


@contextmanager
def unshared_keys():
    with mock.patch.object(analysis, "_count", reference_count):
        yield


def outputs_repr(survey: Survey) -> str:
    """Everything a survey reports, as a repr: it tells 3 from 3.0 and -0.0 from 0.0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bins = survey.altitude_bins()
    return repr((survey.report([]), survey.voxel_grid(), bins, survey.ecdf_rsrq()))


def tally_keys(survey: Survey) -> list:
    return [v for groups in (survey.groups, survey.pcis) for tallies in groups.values()
            for tally in tallies for v in tally]


@pytest.fixture(scope="module")
def seed7_trace(tmp_path_factory):
    """RAN trace of the whole shipped plan, flown in the shipped seed-7 environment."""
    out = tmp_path_factory.mktemp("seed7")
    data = resources.files("skylog") / "data"
    assert cli_main(["simulate", "--env", str(data / "threecell.env"), "--plan",
                     str(data / "climb.plan"), "--duration", "2060", "--e2e-interval", "0",
                     "--out", str(out)]) == 0
    return next(out.glob("*.trace"))


def test_a_survey_holds_one_float_per_distinct_value(seed7_trace):
    survey = Survey(iter_rows(seed7_trace), grid=analysis.DEFAULT_GRID_M)
    keys = [v for v in tally_keys(survey) if type(v) is float and v]
    distinct = len(set(keys))
    assert len({id(v) for v in keys}) == distinct < len(keys) / 2
    with unshared_keys():
        unshared = Survey(iter_rows(seed7_trace), grid=analysis.DEFAULT_GRID_M)
    assert len({id(v) for v in tally_keys(unshared) if type(v) is float and v}) > 2 * distinct
    assert outputs_repr(survey) == outputs_repr(unshared)


def test_each_tally_keeps_the_sign_of_its_first_zero():
    # Cells 1 and 2 share a voxel, and cell 1 flies on to a second one.
    rows = [_row_of(make_record(pos=pos_at(x, 2.0), neighbors=(),
                                serving=make_serving(cell_id=cell, sinr_db=sinr)))
            for x, cell, sinr in [(2.0, 1, -0.0), (3.0, 2, 0.0), (60.0, 1, -0.0)]]
    survey = Survey(rows, grid=analysis.DEFAULT_GRID_M)
    sinr = list(METRIC_FIELDS).index("sinr")
    assert len(survey.groups) == 3
    assert [math.copysign(1, v) for tallies in survey.groups.values()
            for v in tallies[sinr]] == [-1, 1, -1]
    report = survey.report([])
    assert repr(report.per_cell[2]["sinr"]) == "BinStats(count=1, mean=0.0, std=None, min=0.0, max=0.0)"
    with unshared_keys():
        unshared = Survey(rows, grid=analysis.DEFAULT_GRID_M)
    assert repr(report.per_cell) == repr(unshared.report([]).per_cell)
    assert repr(survey.voxel_grid()) == repr(unshared.voxel_grid())


# Values that compare equal across types: an int or bool must keep its own
# type in every tally that counts it first, and a float its own.
_MIXED = st.sampled_from([3, 3.0, True, 1, 1.0, False, 0, 0.0, -0.0, -12.5, float("-12.5")])


@st.composite
def mixed_type_records(draw):
    metrics = {f: draw(_MIXED) for f in METRIC_FIELDS.values()}
    neighbor = {f: draw(_MIXED) for f in ("rsrp_dbm", "rsrq_db", "rssi_dbm")}
    return make_record(pos=pos_at(draw(st.sampled_from([2.0, 40.0])), 2.0,
                                  agl=draw(st.sampled_from([5.0, 25.0]))),
                       serving=make_serving(cell_id=draw(st.sampled_from([1, 2])), **metrics),
                       neighbors=(make_neighbor(pci=draw(st.sampled_from([7, 8])), **neighbor),))


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_type_records(), min_size=1, max_size=12))
def test_ints_and_bools_keep_their_type_in_every_tally(recs):
    rows = list(map(_row_of, recs))
    survey = Survey(rows, grid=analysis.DEFAULT_GRID_M)
    with unshared_keys():
        unshared = Survey(rows, grid=analysis.DEFAULT_GRID_M)
    assert outputs_repr(survey) == outputs_repr(unshared)


# --- coverage report ---

def test_report_rsrq_poor_fraction_exact():
    report = coverage_report(rsrq_poor_trace(), [])
    assert report.frac_rsrq_poor == 0.15
    assert report.n_ran_samples == 20
    assert report.frac_dl_ge is None and report.frac_rtt_le is None


def test_report_dl_fraction_exact():
    report = coverage_report([], dl_coverage_trace())
    assert report.frac_dl_ge == 0.9
    assert report.frac_rsrq_poor is None and report.dominance == {}


def test_report_rtt_fraction_exact():
    report = coverage_report([], rtt_coverage_trace())
    assert report.frac_rtt_le == 0.8


def test_report_lost_burst_counts_against_latency():
    dead = make_e2e(rtt=RttSummary(sent=20, received=0, loss_fraction=1.0),
                    dl_mbps=0.0, ul_mbps=0.0)
    ok = make_e2e()
    report = coverage_report([], [dead, ok])
    assert report.frac_rtt_le == 0.5


@pytest.mark.parametrize("lost_bursts", [0, 3])
def test_report_reads_a_one_shot_iterator_like_a_list(lost_bursts):
    lost = make_e2e(rtt=RttSummary(sent=20, received=0, loss_fraction=1.0), dl_mbps=2.0)
    recs = rtt_coverage_trace() + dl_coverage_trace() + [lost] * lost_bursts
    survey = Survey(map(_row_of, rsrq_poor_trace()))
    one_shot = survey.report(iter(recs))
    assert one_shot == survey.report(list(recs))
    assert one_shot.n_e2e_samples == 20 + lost_bursts
    assert one_shot.frac_rtt_le == (8 + 10) / (20 + lost_bursts)


def test_report_checks_thresholds_before_reading_e2e():
    def unread():
        raise AssertionError("e2e records read before the thresholds were checked")
        yield

    with pytest.raises(NonfiniteThreshold, match="threshold rtt_max_ms must be finite"):
        Survey(map(_row_of, rsrq_poor_trace())).report(unread(), rtt_max_ms=math.nan)


def test_report_flags_low_contribution_cell():
    report = coverage_report(low_share_trace(), [])
    assert report.low_contribution_cells == (9,)
    assert report.per_cell[9]["rssi"].mean == -55.0
    assert report.dominance[9] == 1 / 40
    assert abs(sum(report.dominance.values()) - 1.0) < 1e-9


def test_report_requires_some_input():
    with pytest.raises(EmptyInput):
        coverage_report([], [])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["rsrq_poor_db", "tp_min_mbps", "rtt_max_ms"])
def test_report_refuses_nonfinite_threshold(name, value):
    # NaN made every fraction 0.0; inf reached report.json as bare Infinity
    with pytest.raises(NonfiniteThreshold, match=f"threshold {name} must be finite"):
        coverage_report(rsrq_poor_trace(), rtt_coverage_trace(), **{name: value})


def test_report_by_voxel_reweights_hover():
    # 10 poor samples hovering in one voxel, 9 good ones spread over 9 voxels
    hover = [make_record(pos=pos_at(2.0, 2.0),
                         serving=make_serving(rsrq_db=-21.0), neighbors=())
             for _ in range(10)]
    spread = [make_record(pos=pos_at(40.0 * (i + 1), 2.0),
                          serving=make_serving(rsrq_db=-9.0), neighbors=())
              for i in range(9)]
    recs = hover + spread
    by_sample = coverage_report(recs, [])
    by_voxel = coverage_report(recs, [], by_voxel=True)
    assert by_sample.frac_rsrq_poor == 10 / 19
    assert by_voxel.frac_rsrq_poor == 0.1


@given(st.lists(st.floats(-24, -3), min_size=1, max_size=40),
       st.floats(-24, -3), st.floats(-24, -3))
@settings(max_examples=60)
def test_report_threshold_monotonicity(rsrqs, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    recs = [make_record(serving=make_serving(rsrq_db=q), neighbors=())
            for q in rsrqs]
    f_lo = coverage_report(recs, [], rsrq_poor_db=lo).frac_rsrq_poor
    f_hi = coverage_report(recs, [], rsrq_poor_db=hi).frac_rsrq_poor
    assert f_lo <= f_hi


def test_report_to_doc_is_json_clean():
    import json
    report = coverage_report(rsrq_poor_trace(), dl_coverage_trace())
    doc = report.to_doc()
    parsed = json.loads(json.dumps(doc))
    assert parsed["fractions"]["rsrq_poor"] == 0.15
    assert parsed["fractions"]["dl_ge"] == 0.9
    assert parsed["n_ran_samples"] == 20 and parsed["n_e2e_samples"] == 10
