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


@dataclass(frozen=True)
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

    A mask consisting only of pole points (cos = 0) falls back to uniform
    weights so a single pole row stays evaluable.
    """
    if mask.shape != grid.shape:
        raise GridMismatchError("mask shape does not match grid")
    if not mask.any():
        raise EmptyMaskError("mask selects no grid points")
    w = np.cos(np.radians(grid.latitudes()))[:, np.newaxis] * np.ones(grid.nlon)
    w = np.where(mask, w, 0.0)
    total = w.sum(dtype=np.float64)
    if total <= 0.0:
        w = mask.astype(np.float64)
        total = w.sum(dtype=np.float64)
    return w / total


def rmse_weighted(forecast: np.ndarray, truth: np.ndarray,
                  weights: np.ndarray) -> float:
    """sqrt(sum(w * (f - o)^2)) with float64 accumulation."""
    if forecast.shape != truth.shape:
        raise GridMismatchError(f"shape mismatch: {forecast.shape} vs {truth.shape}")
    diff = forecast.astype(np.float64) - truth.astype(np.float64)
    return float(math.sqrt(np.sum(weights * diff * diff)))


def acc_weighted(forecast: np.ndarray, truth: np.ndarray, clim: np.ndarray,
                 weights: np.ndarray) -> float:
    """Weighted correlation of forecast and truth anomalies from clim."""
    if not forecast.shape == truth.shape == clim.shape:
        raise GridMismatchError(f"shape mismatch: {forecast.shape}, "
                                f"{truth.shape}, {clim.shape}")
    c = clim.astype(np.float64)
    af = forecast.astype(np.float64) - c
    ao = truth.astype(np.float64) - c
    var_f = float(np.sum(weights * af * af))
    var_o = float(np.sum(weights * ao * ao))
    if var_f < ANOMALY_VARIANCE_FLOOR or var_o < ANOMALY_VARIANCE_FLOOR:
        raise DegenerateAnomalyError(
            f"anomaly variance too small (forecast {var_f:.3e}, truth {var_o:.3e})")
    cov = float(np.sum(weights * af * ao))
    return cov / math.sqrt(var_f * var_o)


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
    are its normalized weights. A whole-grid block indexes to a view.
    EmptyMaskError if the box selects no grid point."""
    mask = region_mask(grid, box)
    block = ((slice(None), slice(None)) if mask.all()
             else np.ix_(mask.any(axis=1), mask.any(axis=0)))
    weights = lat_weights(grid, mask)[block]
    weights.flags.writeable = False
    return block, weights


def evaluate_run(lead: int, forecast: StateSet, truth: StateSet,
                 climatology: StateSet, regions: dict[str, RegionBox],
                 report_channels=DEFAULT_REPORT_CHANNELS
                 ) -> tuple[list[MetricRecord], list[str]]:
    """Score the forecast at one lead against its truth.

    forecast, truth and climatology are states, full or subset reads,
    that hold every report channel; each plane is looked up by its
    channel. GridMismatchError if the truth or the climatology is off the
    forecast grid. Returns (records, errors); a non-finite RMSE or ACC is
    an error, not a row. Region blocks and weights are built once per
    (grid, box), not once per call.
    """
    if truth.grid != forecast.grid or climatology.grid != forecast.grid:
        raise GridMismatchError("truth or climatology grid does not match the "
                                "forecast grid")
    init_time = forecast.valid_time - timedelta(hours=lead)
    blocks = {name: region_block(forecast.grid, box) for name, box in regions.items()}
    records: list[MetricRecord] = []
    errors: list[str] = []
    for var, level in report_channels:
        f, o, c = (s.channel(var, level) for s in (forecast, truth, climatology))
        for name, (block, w) in blocks.items():
            where = f"lead {lead} {channel_name(var, level)} {name}"
            fb, ob = f[block], o[block]
            values = {"RMSE": rmse_weighted(fb, ob, w)}
            try:
                values["ACC"] = acc_weighted(fb, ob, c[block], w)
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
