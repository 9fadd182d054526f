"""Statistical reductions over measurement traces.

Everything in this module is a deterministic pure function of its inputs:
no clocks, no RNG, no I/O.  Means and variances are accumulated with
math.fsum, which is exactly rounded and therefore independent of input
order; grouped results can be compared bit-for-bit against a straight
reimplementation.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from .geo import tangent_forward, tangent_inverse
from .records import METRIC_FIELDS, NEIGHBOR_FIELDS, EndToEndRecord, MeasurementRecord

DEFAULT_RSRQ_POOR_DB = -19.0
DEFAULT_TP_MIN_MBPS = 5.0
DEFAULT_RTT_MAX_MS = 150.0
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


# Metric short name -> value getter, derived from the records metric table.
_SERVING = {m: attrgetter("serving." + f) for m, f in METRIC_FIELDS.items()}
_NEIGHBOR = {m: attrgetter(f) for m, f in METRIC_FIELDS.items() if f in NEIGHBOR_FIELDS}


@dataclass(frozen=True)
class BinStats:
    """Summary of one group of samples; std is absent below two samples."""

    count: int
    mean: float
    std: Optional[float]
    min: float
    max: float

    def to_doc(self) -> dict:
        return {"count": self.count, "mean": self.mean, "std": self.std,
                "min": self.min, "max": self.max}


def _bin_stats(values: Sequence[float]) -> BinStats:
    n = len(values)
    mean = math.fsum(values) / n
    std = None
    if n >= 2:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return BinStats(n, mean, std, min(values), max(values))


def _group_stats(items: Iterable, key: Callable, getters: dict[str, Callable]) -> dict:
    """Group items by key(item); per group, BinStats of each getter's values.
    Groups come out in key order, metrics in getter order."""
    groups: dict = defaultdict(list)
    for item in items:
        groups[key(item)].append(item)
    return {k: {m: _bin_stats([get(item) for item in members])
                for m, get in getters.items()}
            for k, members in sorted(groups.items())}


def ecdf(samples: Sequence[float]) -> list[tuple[float, float]]:
    """F(x) = fraction of samples <= x, tabulated at each unique value: the
    values strictly increase and the final fraction is 1."""
    if not samples:
        raise EmptyInput("ecdf of zero samples")
    n = len(samples)
    ordered = sorted(samples)
    points = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue  # merge duplicates: keep the last slot so F counts all of them
        points.append((v, (i + 1) / n))
    return points


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


def altitude_bins(records: Sequence[MeasurementRecord],
                  bin_m: float = 10.0) -> dict[float, dict[str, BinStats]]:
    """Per-altitude-band stats of every serving metric, keyed by the band's
    lower bound; bands are bin_m meters tall.

    Heights are above ground; when any record lacks that field the whole
    trace falls back to sea-level altitude (with a warning) rather than
    mixing the two frames.
    """
    _check_bin_sizes("bin width", bin_m)
    if not records:
        raise EmptyInput("no records to bin")
    alt = attrgetter("pos.alt_m_agl")
    if any(r.pos.alt_m_agl is None for r in records):
        warnings.warn("alt_m_agl missing on some records; binning by alt_m_amsl",
                      stacklevel=2)
        alt = attrgetter("pos.alt_m_amsl")
    return _group_stats(records, lambda r: math.floor(alt(r) / bin_m) * bin_m, _SERVING)


def cell_dominance(records: Sequence[MeasurementRecord]) -> dict[int, float]:
    """Share of serving-cell samples per cell_id; shares sum to one."""
    if not records:
        raise EmptyInput("no records")
    counts = Counter(r.serving.cell_id for r in records)
    n = len(records)
    return {cid: c / n for cid, c in sorted(counts.items())}


def per_cell_stats(
        records: Sequence[MeasurementRecord]) -> dict[int, dict[str, BinStats]]:
    """Stats of every serving metric per serving cell_id."""
    if not records:
        raise EmptyInput("no records")
    return _group_stats(records, attrgetter("serving.cell_id"), _SERVING)


def neighbor_stats(
        records: Sequence[MeasurementRecord]) -> dict[int, dict[str, BinStats]]:
    """Stats per neighbor pci, pooled over every neighbor entry in the trace."""
    if not records:
        raise EmptyInput("no records")
    pools = _group_stats((nb for r in records for nb in r.neighbors),
                         attrgetter("pci"), _NEIGHBOR)
    if not pools:
        raise EmptyInput("trace contains no neighbor entries")
    return pools


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


@dataclass(frozen=True)
class VoxelGrid:
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


def grid_aggregate(records: Sequence[MeasurementRecord],
                   ground_m: float = 25.0,
                   alt_m: float = 10.0) -> VoxelGrid:
    _check_bin_sizes("voxel sizes", ground_m, alt_m)
    if not records:
        raise EmptyInput("no records")
    anchor = records[0].pos

    def voxel_of(r: MeasurementRecord) -> tuple[int, int, int]:
        x, y = tangent_forward(anchor.lat_deg, anchor.lon_deg,
                               r.pos.lat_deg, r.pos.lon_deg)
        return (math.floor(x / ground_m), math.floor(y / ground_m),
                math.floor(r.pos.alt_m_amsl / alt_m))

    cells = _group_stats(records, voxel_of, _SERVING)
    return VoxelGrid(ground_m, alt_m, anchor.lat_deg, anchor.lon_deg, cells)


@dataclass(frozen=True)
class CoverageReport:
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


def coverage_report(ran_records: Sequence[MeasurementRecord],
                    e2e_records: Sequence[EndToEndRecord],
                    *,
                    rsrq_poor_db: float = DEFAULT_RSRQ_POOR_DB,
                    tp_min_mbps: float = DEFAULT_TP_MIN_MBPS,
                    rtt_max_ms: float = DEFAULT_RTT_MAX_MS,
                    by_voxel: bool = False,
                    grid_ground_m: float = 25.0,
                    grid_alt_m: float = 10.0) -> CoverageReport:
    """Coverage summary of a survey against quality thresholds.

    frac_rsrq_poor counts samples strictly below the threshold; throughput
    fractions count records at or above it; the latency fraction counts
    records whose RTT median is at or under the limit (bursts that lost
    every probe have no median and count against it).  With by_voxel=True
    the RSRQ fraction is computed over per-voxel means instead of raw
    samples, so hovering in one spot no longer over-weights that spot.
    """
    for name, value in [("rsrq_poor_db", rsrq_poor_db), ("tp_min_mbps", tp_min_mbps),
                        ("rtt_max_ms", rtt_max_ms)]:
        if not math.isfinite(value):  # NaN would compare false against every sample
            raise NonfiniteThreshold(f"threshold {name} must be finite, got {value!r}")
    ran = list(ran_records)
    e2e = list(e2e_records)
    if not ran and not e2e:
        raise EmptyInput("nothing to report: both traces are empty")

    frac_rsrq_poor = None
    dominance: dict[int, float] = {}
    low: tuple[int, ...] = ()
    per_cell: dict[int, dict[str, BinStats]] = {}
    neighbors: dict[int, dict[str, BinStats]] = {}
    if ran:
        if by_voxel:
            grid = grid_aggregate(ran, grid_ground_m, grid_alt_m)
            means = [stats["rsrq"].mean for stats in grid.cells.values()]
            frac_rsrq_poor = sum(1 for m in means if m < rsrq_poor_db) / len(means)
        else:
            frac_rsrq_poor = (sum(1 for r in ran if r.serving.rsrq_db < rsrq_poor_db)
                              / len(ran))
        dominance = cell_dominance(ran)
        low = tuple(cid for cid, share in dominance.items()
                    if share < LOW_CONTRIBUTION_SHARE)
        per_cell = per_cell_stats(ran)
        try:
            neighbors = neighbor_stats(ran)
        except EmptyInput:
            neighbors = {}

    frac_dl = frac_ul = frac_rtt = None
    if e2e:
        n = len(e2e)
        frac_dl = sum(1 for r in e2e if r.dl_mbps >= tp_min_mbps) / n
        frac_ul = sum(1 for r in e2e if r.ul_mbps >= tp_min_mbps) / n
        frac_rtt = sum(1 for r in e2e
                       if r.rtt.p50_ms is not None and r.rtt.p50_ms <= rtt_max_ms) / n

    return CoverageReport(
        n_ran_samples=len(ran), n_e2e_samples=len(e2e),
        rsrq_poor_db=rsrq_poor_db, tp_min_mbps=tp_min_mbps,
        rtt_max_ms=rtt_max_ms, by_voxel=by_voxel,
        frac_rsrq_poor=frac_rsrq_poor, frac_dl_ge=frac_dl, frac_ul_ge=frac_ul,
        frac_rtt_le=frac_rtt, dominance=dominance, low_contribution_cells=low,
        per_cell=per_cell, neighbors=neighbors)
