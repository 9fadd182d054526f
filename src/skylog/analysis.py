"""Statistical reductions over measurement traces.

Everything in this module is a deterministic pure function of its inputs:
no clocks, no RNG, no I/O.  One pass (Survey) reduces rows (records.iter_rows
yields them; no record object is built) into a {value: count} tally per
metric for each group of rows that share a serving cell, altitude band and
voxel; the per-cell, per-band and per-voxel tables merge those groups when
they are read.  Values are stored to 0.1 dB, so the tallies are bounded by
the surveyed area, not by flight time.  Means and variances are accumulated
with math.fsum, which is exactly rounded and therefore independent of input
order: a tally expanded value by value gives the floats of the sample list,
and grouped results can be compared bit-for-bit against a reimplementation.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .geo import EARTH_RADIUS_M, tangent_inverse
from .records import (METRIC_FIELDS, NEIGHBOR_FIELDS, ROW_FIELDS, EndToEndRecord, MeasurementRecord,
                      _row_of)

DEFAULT_RSRQ_POOR_DB = -19.0
DEFAULT_TP_MIN_MBPS = 5.0
DEFAULT_RTT_MAX_MS = 150.0
DEFAULT_GRID_M = (25.0, 10.0)  # voxel (ground, altitude) sizes
# Serving cells with fewer than this share of samples are called out in the
# coverage report: their per-cell stats describe too little of the survey to
# read as coverage quality on their own.
LOW_CONTRIBUTION_SHARE = 0.05
# histogram_pdf lists every bin from the lowest sample to the highest.
MAX_HISTOGRAM_BINS = 1_000_000


class EmptyInput(ValueError):
    """Raised when an operation is asked to summarize zero samples."""


class UnknownMetric(ValueError):
    def __init__(self, metric: str, known: Iterable[str]) -> None:
        super().__init__(f"unknown metric {metric!r}; expected one of "
                         + ", ".join(sorted(known)))
        self.metric = metric


class NonpositiveBinWidth(ValueError):
    pass


def _check_bin_sizes(what: str, *sizes: float) -> None:
    """Refuse any size that is not finite and positive; NaN fails both comparisons."""
    if not all(0 < size < math.inf for size in sizes):
        raise NonpositiveBinWidth(f"{what} must be positive, got {'x'.join(map(str, sizes))}")


class TooManyBins(ValueError):
    pass


class NonfiniteThreshold(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


# Metric short names in METRIC_FIELDS order; getters of Survey's reads from a row and a neighbor.
_SERVING = tuple(METRIC_FIELDS)
_NEIGHBOR = tuple(m for m, f in METRIC_FIELDS.items() if f in NEIGHBOR_FIELDS)
_place = itemgetter(*map(ROW_FIELDS.index, ("cell_id", "lat_deg", "lon_deg", "alt_m_amsl",
                                           "alt_m_agl", "neighbors", *METRIC_FIELDS.values())))
_neighbor_values = itemgetter(*(NEIGHBOR_FIELDS.index(METRIC_FIELDS[m]) for m in _NEIGHBOR))
_PCI = NEIGHBOR_FIELDS.index("pci")
_RSRQ = _SERVING.index("rsrq")
# The parts of a Survey group key, in order.
_CELL, _AGL, _AMSL, _VOXEL = range(4)


class BinStats(NamedTuple):
    """Summary of one group of samples; std is absent below two samples.
    The count field hides tuple.count."""

    count: int
    mean: float
    std: Optional[float]
    min: float
    max: float

    def to_doc(self) -> dict:
        return self._asdict()


def _bin_stats(tally: dict[float, int]) -> BinStats:
    """Stats of the samples a tally counts, equal to those of the sample list."""
    n = sum(tally.values())
    mean = math.fsum(chain.from_iterable(repeat(v, c) for v, c in tally.items())) / n
    std = None
    if n >= 2:
        squares = chain.from_iterable(repeat((v - mean) ** 2, c) for v, c in tally.items())
        std = math.sqrt(math.fsum(squares) / (n - 1))
    return BinStats(n, mean, std, min(tally), max(tally))


def _count(groups: dict, key, values: Sequence) -> None:
    """Add one sample of each metric to the tallies of group key."""
    tallies = groups.get(key)
    if tallies is None:
        groups[key] = [{v: 1} for v in values]
    else:
        for tally, v in zip(tallies, values):
            tally[v] = tally.get(v, 0) + 1


def _merge(groups: dict, part: int, metrics: Sequence[int]) -> dict:
    """{key[part]: [tally of each metric]}: the groups' tallies of the metrics
    at these indexes, summed over every other part of the key."""
    merged: dict = {}
    for key, tallies in groups.items():
        into = merged.get(key[part])
        if into is None:
            merged[key[part]] = [dict(tallies[m]) for m in metrics]
        else:
            for tally, m in zip(into, metrics):
                for v, c in tallies[m].items():
                    tally[v] = tally.get(v, 0) + c
    return merged


def _table(groups: dict, names: tuple) -> dict:
    """{key: {metric: BinStats}} of each group's tallies, in key order."""
    return {k: dict(zip(names, map(_bin_stats, tallies)))
            for k, tallies in sorted(groups.items())}


def _shares(cells: dict, n: int) -> dict[int, float]:
    """Each cell's share of n samples, from {cell_id: tallies} of any metrics."""
    return {cid: sum(tallies[0].values()) / n for cid, tallies in sorted(cells.items())}


def _ecdf(tally: dict[float, int]) -> list[tuple[float, float]]:
    n = sum(tally.values())
    if not n:
        raise EmptyInput("ecdf of zero samples")
    points, at_or_below = [], 0
    for v in sorted(tally):
        at_or_below += tally[v]
        points.append((v, at_or_below / n))
    return points


def ecdf(samples: Iterable[float]) -> list[tuple[float, float]]:
    """F(x) = fraction of samples <= x, tabulated at each unique value: the
    values strictly increase and the final fraction is 1."""
    return _ecdf(Counter(samples))


def histogram_pdf(samples: Sequence[float],
                  bin_width: float) -> list[tuple[float, float]]:
    """Density histogram over left-closed right-open bins.

    Bins are anchored at integer multiples of the width, so output does not
    depend on where the sample range happens to start.  Returns (bin_start,
    density) for every bin from the lowest occupied to the highest, empty
    ones included; densities integrate to one.
    """
    _check_bin_sizes("bin width", bin_width)
    if not samples:
        raise EmptyInput("histogram of zero samples")
    lo, hi = min(samples) / bin_width, max(samples) / bin_width
    n_bins = math.floor(hi) - math.floor(lo) + 1 if math.isfinite(hi - lo) else math.inf
    if n_bins > MAX_HISTOGRAM_BINS:  # inf: a quotient overflowed, so no bin index exists
        raise TooManyBins(f"bin width {bin_width!r} gives {n_bins:.7g} bins; the cap is "
                          f"{MAX_HISTOGRAM_BINS}")
    n = len(samples)
    counts: Counter[int] = Counter(math.floor(x / bin_width) for x in samples)
    return [(i * bin_width, counts.get(i, 0) / (n * bin_width))
            for i in range(math.floor(lo), math.floor(hi) + 1)]


def _nonempty(survey: Survey, message: str = "no records") -> Survey:
    if not survey.n:
        raise EmptyInput(message)
    return survey


def altitude_bins(records: Iterable[MeasurementRecord],
                  bin_m: float = 10.0) -> dict[float, dict[str, BinStats]]:
    """Survey.altitude_bins of records, in bands bin_m meters tall."""
    return _nonempty(Survey(map(_row_of, records), bin_m), "no records to bin").altitude_bins()


def cell_dominance(records: Iterable[MeasurementRecord]) -> dict[int, float]:
    """Share of serving-cell samples per cell_id; shares sum to one."""
    return _nonempty(Survey(map(_row_of, records))).dominance()


def neighbor_stats(
        records: Iterable[MeasurementRecord]) -> dict[int, dict[str, BinStats]]:
    """Stats per neighbor pci, pooled over every neighbor entry in the trace."""
    pcis = _nonempty(Survey(map(_row_of, records))).pcis
    if not pcis:
        raise EmptyInput("trace contains no neighbor entries")
    return _table(pcis, _NEIGHBOR)


def _average_ranks(values: Sequence[float]) -> list[float]:
    # 1-based ranks; tied runs all get the mean of their positions.
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Rank correlation in [-1, 1], with average ranks for ties."""
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} x values vs {len(y)} y values")
    if len(x) < 3:
        raise TooFewSamples(f"need at least 3 pairs, got {len(x)}")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    n = len(rx)
    mx = math.fsum(rx) / n
    my = math.fsum(ry) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0  # a constant series carries no ordering information
    return cov / math.sqrt(vx * vy)


class VoxelGrid(NamedTuple):
    """Per-voxel serving-metric stats on a local east/north/up grid.

    Horizontal indices count ground_m squares east/north of the anchor (the
    first record's position); the vertical index counts alt_m slabs of
    sea-level altitude.
    """

    ground_m: float
    alt_m: float
    anchor_lat_deg: float
    anchor_lon_deg: float
    cells: dict[tuple[int, int, int], dict[str, BinStats]]

    def center_of(self, index: tuple[int, int, int]) -> tuple[float, float, float]:
        """Voxel center as (lat, lon, alt_m_amsl)."""
        ix, iy, iz = index
        lat, lon = tangent_inverse(self.anchor_lat_deg, self.anchor_lon_deg,
                                   (ix + 0.5) * self.ground_m,
                                   (iy + 0.5) * self.ground_m)
        return lat, lon, (iz + 0.5) * self.alt_m

    def total_count(self) -> int:
        return sum(stats["rsrp"].count for stats in self.cells.values())


def grid_aggregate(records: Iterable[MeasurementRecord],
                   ground_m: float = DEFAULT_GRID_M[0],
                   alt_m: float = DEFAULT_GRID_M[1]) -> VoxelGrid:
    return Survey(map(_row_of, records), grid=(ground_m, alt_m)).voxel_grid()


class CoverageReport(NamedTuple):
    """Threshold coverage fractions plus per-cell and neighbor breakdowns.

    Fields derived from an absent input side are None (RAN-side ones when no
    RAN records were given, service-side ones when no e2e records were).
    """

    n_ran_samples: int
    n_e2e_samples: int
    rsrq_poor_db: float
    tp_min_mbps: float
    rtt_max_ms: float
    by_voxel: bool
    frac_rsrq_poor: Optional[float]
    frac_dl_ge: Optional[float]
    frac_ul_ge: Optional[float]
    frac_rtt_le: Optional[float]
    dominance: dict[int, float]
    low_contribution_cells: tuple[int, ...]
    per_cell: dict[int, dict[str, BinStats]]
    neighbors: dict[int, dict[str, BinStats]]

    def to_doc(self) -> dict:
        return {
            "n_ran_samples": self.n_ran_samples,
            "n_e2e_samples": self.n_e2e_samples,
            "thresholds": {"rsrq_poor_db": self.rsrq_poor_db,
                           "tp_min_mbps": self.tp_min_mbps,
                           "rtt_max_ms": self.rtt_max_ms},
            "by_voxel": self.by_voxel,
            "fractions": {"rsrq_poor": self.frac_rsrq_poor,
                          "dl_ge": self.frac_dl_ge,
                          "ul_ge": self.frac_ul_ge,
                          "rtt_le": self.frac_rtt_le},
            "dominance": {str(cid): share for cid, share in self.dominance.items()},
            "low_contribution_cells": list(self.low_contribution_cells),
            "per_cell": {str(cid): {m: s.to_doc() for m, s in by_metric.items()}
                         for cid, by_metric in self.per_cell.items()},
            "neighbors": {str(pci): {m: s.to_doc() for m, s in by_metric.items()}
                          for pci, by_metric in self.neighbors.items()},
        }


class Survey:
    """One pass over RAN records as records.ROW_FIELDS rows.  Each row's
    serving metrics are counted into one group, keyed (cell_id, altitude band
    above ground or None where the row lacks that height, band above sea
    level, voxel or None), and each neighbor's into one group per pci.  Voxels
    are indexed as in VoxelGrid, given grid=(ground_m, alt_m), from anchor,
    the first record's (lat, lon).  The per-cell, per-band and per-voxel
    tables merge the groups on one key part when they are read, for only the
    metrics they return.  There are at most cells x bands x voxels groups, so
    memory follows the surveyed area, not the length of the trace."""

    def __init__(self, rows: Iterable[tuple], alt_bin_m: float = 10.0,
                 grid: Optional[tuple[float, float]] = None) -> None:
        _check_bin_sizes("bin width", alt_bin_m)
        if grid is not None:
            _check_bin_sizes("voxel sizes", *grid)
            ground_m, slab_m = grid
        self.grid = grid
        groups, pcis = self.groups, self.pcis = {}, {}
        floor, radians, n, voxel = math.floor, math.radians, 0, None
        for n, row in enumerate(rows, start=1):
            cell_id, lat, lon, amsl_m, agl_m, nbrs, *values = _place(row)
            if grid is not None:
                if n == 1:
                    self.anchor = anchor_lat, anchor_lon = lat, lon
                    scale = math.cos(radians(anchor_lat))
                # geo.tangent_forward from the anchor.
                x = radians(lon - anchor_lon) * EARTH_RADIUS_M * scale
                y = radians(lat - anchor_lat) * EARTH_RADIUS_M
                voxel = (floor(x / ground_m), floor(y / ground_m), floor(amsl_m / slab_m))
            agl_band = None if agl_m is None else floor(agl_m / alt_bin_m) * alt_bin_m
            _count(groups, (cell_id, agl_band, floor(amsl_m / alt_bin_m) * alt_bin_m, voxel),
                   values)
            for nb in nbrs:
                _count(pcis, nb[_PCI], _neighbor_values(nb))
        self.n = n

    def _stats(self, part: int, names: tuple) -> dict:
        """_table of the groups merged on one key part, for the named metrics."""
        return _table(_merge(self.groups, part, [_SERVING.index(m) for m in names]), names)

    def voxel_grid(self) -> VoxelGrid:
        """grid_aggregate of a survey made with a grid."""
        _nonempty(self)
        return VoxelGrid(*self.grid, *self.anchor, self._stats(_VOXEL, _SERVING))

    def altitude_bins(self, metrics: tuple = _SERVING) -> dict[float, dict[str, BinStats]]:
        """Per-altitude-band stats of the named serving metrics, keyed by the
        band's lower bound.  Heights are above ground; when any record lacks
        that field the whole trace falls back to sea-level altitude (with a
        warning) rather than mixing the two frames."""
        if all(key[_AGL] is not None for key in self.groups):
            return self._stats(_AGL, metrics)
        warnings.warn("alt_m_agl missing on some records; binning by alt_m_amsl", stacklevel=2)
        return self._stats(_AMSL, metrics)

    def dominance(self) -> dict[int, float]:
        return _shares(_merge(self.groups, _CELL, [_RSRQ]), self.n)

    def ecdf_rsrq(self) -> list[tuple[float, float]]:
        """The ECDF of the whole survey's serving RSRQ."""
        rsrq: Counter = Counter()
        for tallies in self.groups.values():
            rsrq.update(tallies[_RSRQ])
        return _ecdf(rsrq)

    def report(self, e2e_records: Iterable[EndToEndRecord], *,
               rsrq_poor_db: float = DEFAULT_RSRQ_POOR_DB,
               tp_min_mbps: float = DEFAULT_TP_MIN_MBPS,
               rtt_max_ms: float = DEFAULT_RTT_MAX_MS) -> CoverageReport:
        """coverage_report of this survey, by voxel when it has a grid."""
        for name, value in [("rsrq_poor_db", rsrq_poor_db), ("tp_min_mbps", tp_min_mbps),
                            ("rtt_max_ms", rtt_max_ms)]:
            if not math.isfinite(value):  # NaN would compare false against every sample
                raise NonfiniteThreshold(f"threshold {name} must be finite, got {value!r}")
        e2e = list(e2e_records)
        if not self.n and not e2e:
            raise EmptyInput("nothing to report: both traces are empty")

        frac_rsrq_poor = None
        dominance: dict[int, float] = {}
        low: tuple[int, ...] = ()
        cells = _merge(self.groups, _CELL, range(len(_SERVING)))
        if self.n:
            if self.grid is not None:
                means = [_bin_stats(rsrq).mean
                         for rsrq, in _merge(self.groups, _VOXEL, [_RSRQ]).values()]
                frac_rsrq_poor = sum(1 for m in means if m < rsrq_poor_db) / len(means)
            else:
                poor = (c for tallies in cells.values()
                        for v, c in tallies[_RSRQ].items() if v < rsrq_poor_db)
                frac_rsrq_poor = sum(poor) / self.n
            dominance = _shares(cells, self.n)
            low = tuple(cid for cid, share in dominance.items()
                        if share < LOW_CONTRIBUTION_SHARE)

        frac_dl = frac_ul = frac_rtt = None
        if e2e:
            n = len(e2e)
            frac_dl = sum(1 for r in e2e if r.dl_mbps >= tp_min_mbps) / n
            frac_ul = sum(1 for r in e2e if r.ul_mbps >= tp_min_mbps) / n
            frac_rtt = sum(1 for r in e2e
                           if r.rtt.p50_ms is not None and r.rtt.p50_ms <= rtt_max_ms) / n

        return CoverageReport(
            n_ran_samples=self.n, n_e2e_samples=len(e2e),
            rsrq_poor_db=rsrq_poor_db, tp_min_mbps=tp_min_mbps,
            rtt_max_ms=rtt_max_ms, by_voxel=self.grid is not None,
            frac_rsrq_poor=frac_rsrq_poor, frac_dl_ge=frac_dl, frac_ul_ge=frac_ul,
            frac_rtt_le=frac_rtt, dominance=dominance, low_contribution_cells=low,
            per_cell=_table(cells, _SERVING), neighbors=_table(self.pcis, _NEIGHBOR))


def coverage_report(ran_records: Iterable[MeasurementRecord],
                    e2e_records: Iterable[EndToEndRecord],
                    *,
                    rsrq_poor_db: float = DEFAULT_RSRQ_POOR_DB,
                    tp_min_mbps: float = DEFAULT_TP_MIN_MBPS,
                    rtt_max_ms: float = DEFAULT_RTT_MAX_MS,
                    by_voxel: bool = False,
                    grid_ground_m: float = DEFAULT_GRID_M[0],
                    grid_alt_m: float = DEFAULT_GRID_M[1]) -> CoverageReport:
    """Coverage summary of a survey against quality thresholds.

    frac_rsrq_poor counts samples strictly below the threshold; throughput
    fractions count records at or above it; the latency fraction counts
    records whose RTT median is at or under the limit (bursts that lost
    every probe have no median and count against it).  With by_voxel=True
    the RSRQ fraction is computed over per-voxel means instead of raw
    samples, so hovering in one spot no longer over-weights that spot.
    """
    return Survey(map(_row_of, ran_records),
                  grid=(grid_ground_m, grid_alt_m) if by_voxel else None).report(
        e2e_records, rsrq_poor_db=rsrq_poor_db, tp_min_mbps=tp_min_mbps, rtt_max_ms=rtt_max_ms)
