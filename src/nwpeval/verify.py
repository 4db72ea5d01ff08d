"""Latitude-weighted RMSE and ACC over region masks.

Weights are cos(latitude) over the evaluation mask, normalized to sum to
one, so the RMSE of a constant offset equals the offset. All accumulation
is in float64 regardless of field precision. The ACC correlates forecast
and truth departures from a supplied climatology. Each region is scored
on its own (rows, cols) block of the grid, so a value outside the region
cannot reach its scores.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .grids import (GridMismatchError, GridSpec, RegionBox, StateSet, Var,
                    channel_name, region_mask)

# The paper-style report set: 4 surface channels plus the 500 hPa levels.
DEFAULT_REPORT_CHANNELS: tuple[tuple[Var, int], ...] = (
    (Var.MSLP, 0), (Var.T2, 0), (Var.U10, 0), (Var.V10, 0),
    (Var.Q, 500), (Var.T, 500), (Var.U, 500), (Var.V, 500), (Var.Z, 500),
)

ANOMALY_VARIANCE_FLOOR = 1e-30


class EmptyMaskError(ValueError):
    """Region mask selects no grid points."""


class DegenerateAnomalyError(ValueError):
    """Anomaly variance too small for a meaningful correlation."""


@dataclass(frozen=True, slots=True)
class MetricRecord:
    """One row of the metric report. Q-channel RMSE values are reported
    in g/kg (stored specific humidity is kg/kg)."""

    init_time: datetime
    source_label: str
    variable: Var
    level: int
    region: str
    lead_hours: int
    metric: str   # "RMSE" | "ACC"
    value: float

    def sort_key(self):
        return (self.source_label, self.variable.name, self.level,
                self.region, self.lead_hours, self.metric)


def lat_weights(grid: GridSpec, mask: np.ndarray) -> np.ndarray:
    """cos(lat) weights over the mask, normalized to sum to 1.

    A mask whose cos(lat) sums to 0 or less falls back to uniform weights,
    so a single pole row stays evaluable: a row up to 1e-9 degrees past a
    pole, as GridSpec allows, has cos < 0 (at exactly 90 degrees cos is
    6e-17, so a pole row's weights are uniform anyway). Built in one
    float64 array, bitwise where(mask, cos, 0) / its sum.
    """
    if mask.shape != grid.shape:
        raise GridMismatchError("mask shape does not match grid")
    if not mask.any():
        raise EmptyMaskError("mask selects no grid points")
    w = np.empty(grid.shape)
    w[:] = np.cos(np.radians(grid.latitudes()))[:, np.newaxis]
    np.copyto(w, 0.0, where=np.logical_not(mask))
    total = w.sum()
    if total <= 0.0:
        w[:] = mask
        total = w.sum()
    w /= total
    return w


# np.sum adds a contiguous float64 array up a pairwise tree: a node of
# n > 128 elements splits at n//2 - (n//2) % 8, and one of 128 or fewer is
# summed in a single pass. A cell is scored in tiles that are the leaves of
# that tree at LEAF elements, so LEAF must stay >= 128; a block of LEAF
# elements or fewer is one tile.
LEAF = 1 << 16


def _pairwise(tile, start: int, n: int) -> np.ndarray:
    """tile(start, n), the sums of elements [start, start + n) of a block,
    at each leaf of numpy's pairwise-sum tree over those elements, added
    back up the tree: bitwise the sums np.sum gives in one pass."""
    if n <= LEAF:
        return tile(start, n)
    half = n // 2 - n // 2 % 8
    return _pairwise(tile, start, half) + _pairwise(tile, start + half, n - half)


def _score_cell(f: np.ndarray, o: np.ndarray, c: np.ndarray, w: np.ndarray,
               work: np.ndarray, var_o=None):
    """(rmse, (var_f, var_o, cov)) of one 2-D block. Each tile's rows are
    copied into C-contiguous views of `work`, where the products are formed
    in place; each tile sum keeps the operand order of sum(w*d*d),
    sum(w*af*af), sum(w*af*ao) or sum(w*ao*ao), and the tiles are numpy's
    own, so every sum is bitwise the one rmse_weighted or acc_weighted
    forms. A given var_o is used, not recomputed."""
    ncols = f.shape[1]

    def tile(start: int, n: int) -> np.ndarray:
        rows = slice(start // ncols, -(-(start + n) // ncols))   # the rows it touches
        wr, cut = w[rows], slice(start % ncols, start % ncols + n)
        F, O, C, T = work[:, :wr.size].reshape((4,) + wr.shape)
        F_, _, C_, T_ = work[:, cut]   # the tile, flat
        np.copyto(F, f[rows])
        np.copyto(O, o[rows])
        np.subtract(F, O, out=C)   # d, in C's row until c is read
        np.multiply(wr, C, out=T)
        T *= C
        sums = [np.sum(T_)]
        np.copyto(C, c[rows])
        F -= C                     # af
        O -= C                     # ao
        np.multiply(wr, F, out=T)  # w*af
        np.multiply(T, O, out=C)
        sums.append(np.sum(C_))    # cov, while C is still in cache
        F *= T                     # af*(w*af), bitwise (w*af)*af
        sums.append(np.sum(F_))
        if var_o is None:
            np.multiply(wr, O, out=T)
            T *= O
            sums.append(np.sum(T_))
        return np.array(sums)

    sums = _pairwise(tile, 0, f.size)
    var_f, cov = float(sums[2]), float(sums[1])
    return math.sqrt(sums[0]), (var_f, float(sums[3]) if var_o is None else var_o, cov)


_thread = threading.local()


def _work_area(size: int) -> np.ndarray:
    """This thread's scoring work area, 4 rows of at least `size` float64
    elements: one per thread, kept for the thread's life and regrown only
    when a block needs more room. _score_cell only slices it."""
    work = getattr(_thread, "work", None)
    if work is None or work.shape[1] < size:
        work = _thread.work = np.empty((4, size))
    return work


def _acc(var_f: float, var_o: float, cov: float) -> float:
    if var_f < ANOMALY_VARIANCE_FLOOR or var_o < ANOMALY_VARIANCE_FLOOR:
        raise DegenerateAnomalyError(
            f"anomaly variance too small (forecast {var_f:.3e}, truth {var_o:.3e})")
    return cov / math.sqrt(var_f * var_o)


def rmse_weighted(forecast: np.ndarray, truth: np.ndarray,
                  weights: np.ndarray) -> float:
    """sqrt(sum(w * (f - o)^2)) over 2-D fields, in float64: the plain
    expression whose value evaluate_run's kernel gives bitwise."""
    if forecast.shape != truth.shape:
        raise GridMismatchError(f"shape mismatch: {forecast.shape} vs {truth.shape}")
    d = forecast.astype(np.float64) - truth
    return math.sqrt(np.sum(weights * d * d))


def acc_weighted(forecast: np.ndarray, truth: np.ndarray, clim: np.ndarray,
                 weights: np.ndarray) -> float:
    """Weighted correlation of forecast and truth anomalies from clim, over
    2-D fields, in float64: the plain expressions whose value evaluate_run's
    kernel gives bitwise."""
    if not forecast.shape == truth.shape == clim.shape:
        raise GridMismatchError(f"shape mismatch: {forecast.shape}, "
                                f"{truth.shape}, {clim.shape}")
    af = forecast.astype(np.float64) - clim
    ao = truth.astype(np.float64) - clim
    return _acc(*(float(np.sum(weights * a * b)) for a, b in ((af, af), (ao, ao), (af, ao))))


def _report_value(var: Var, metric: str, value: float) -> float:
    # specific humidity displayed in g/kg; correlations are scale-free
    if var is Var.Q and metric == "RMSE":
        return value * 1000.0
    return value


@functools.lru_cache(maxsize=64)
def region_block(grid: GridSpec, box: RegionBox):
    """(index, weights) of the box's block of rows and columns. region_mask
    is a Cartesian product of rows and columns, so the block holds exactly
    the region's points and lat_weights over the mask, cut to the block,
    are its normalized weights, held C-contiguous. Where the rows and the
    columns are each one contiguous range (east_asia, global) the index is
    a pair of slices, so a plane indexes to a view; columns that wrap round
    the grid's edge, as those of a box that takes in 0 degrees through
    lon_max 360 do, index as an np.ix_ gather, a copy. EmptyMaskError if
    the box selects no grid point."""
    mask = region_mask(grid, box)
    weights = lat_weights(grid, mask)
    ranges = [np.flatnonzero(mask.any(axis=axis)) for axis in (1, 0)]
    if all(ix[-1] - ix[0] + 1 == ix.size for ix in ranges):
        block = tuple(slice(int(ix[0]), int(ix[-1]) + 1) for ix in ranges)
    else:
        block = np.ix_(*ranges)
    weights = np.ascontiguousarray(weights[block])
    weights.flags.writeable = False
    return block, weights


def evaluate_run(lead: int, forecast: StateSet, truth: StateSet,
                 climatology: StateSet, regions: dict[str, RegionBox],
                 report_channels=DEFAULT_REPORT_CHANNELS, var_o=None
                 ) -> tuple[list[MetricRecord], list[str]]:
    """Score the forecast at one lead against its truth.

    forecast, truth and climatology are states, full or subset reads, or
    archive.PlaneReaders, that hold every report channel; each plane
    is looked up once, by its channel. GridMismatchError if the truth or
    the climatology is off the forecast grid. Returns (records, errors); a
    non-finite RMSE or ACC is an error, not a row. Region blocks and
    weights are built once per (grid, box), not once per call, and every
    cell is scored in its thread's work area (_work_area). var_o, a dict
    that the calls scoring this lead against the same truth and
    climatology may share, across threads too, holds each cell's truth
    anomaly variance: read if there, else put in.
    """
    if truth.grid != forecast.grid or climatology.grid != forecast.grid:
        raise GridMismatchError("truth or climatology grid does not match the "
                                "forecast grid")
    init_time = forecast.valid_time - timedelta(hours=lead)
    blocks = {name: region_block(forecast.grid, box) for name, box in regions.items()}
    # room for a whole block, or for a tile of LEAF elements and the two rows it may cut
    work = _work_area(max((min(w.size, LEAF + 2 * w.shape[1]) for _, w in blocks.values()),
                          default=0))
    var_o = {} if var_o is None else var_o
    records: list[MetricRecord] = []
    errors: list[str] = []
    for var, level in report_channels:
        f, o, c = (s.channel(var, level) for s in (forecast, truth, climatology))
        for name, (block, w) in blocks.items():
            where = f"lead {lead} {channel_name(var, level)} {name}"
            key = (var, level, name)
            rmse, sums = _score_cell(f[block], o[block], c[block], w, work,
                                     var_o.get(key))
            var_o[key] = sums[1]
            values = {"RMSE": rmse}
            try:
                values["ACC"] = _acc(*sums)
            except DegenerateAnomalyError as exc:
                errors.append(f"{where}: {exc}")
            for metric, value in values.items():
                if not math.isfinite(value):
                    errors.append(f"{where}: {metric} is not finite ({value})")
                    continue
                records.append(MetricRecord(
                    init_time=init_time, source_label=forecast.source_label,
                    variable=var, level=level, region=name, lead_hours=lead,
                    metric=metric, value=_report_value(var, metric, value)))
    return records, errors
