"""Output checks for one experiment run, written apart from nwpeval.

The oracle rereads the on-grid source's initial planes and the truth and
climatology planes straight from the input files, at the fixed offsets
of the documented `.nws` and raw-dump layouts, rolls the initial planes
by the number of cells the backend has moved them, and recomputes
cos(lat)-weighted RMSE and ACC in float64. Every expected CSV cell is
also checked for presence, finiteness and (ACC) range.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from workloads import CLIMATOLOGY, REGIONS, REPORT_CHANNELS, Grid, Workload

# The CSV keeps 9 significant digits: rounding moves a value by at most
# half a unit in the 9th digit, 5e-9 of it. Allow twice that.
RTOL = 1e-8
ORACLE_CHANNELS = ("Z500", "T2", "Q500")
METRICS = ("RMSE", "ACC")

_SURFACE = ("MSLP", "U10", "V10", "T2")
_UPPER = ("Z", "Q", "T", "U", "V")
_LEVELS = (1000, 925, 850, 700, 600, 500, 400, 300, 250, 200, 150, 100, 50)


def split_channel(name: str) -> tuple[str, int]:
    """'T2' -> ('T2', 0); 'Z500' -> ('Z', 500)."""
    if name in _SURFACE:
        return name, 0
    return name[0], int(name[1:])


def plane_index(name: str) -> int:
    """Position of a channel plane in the archive payload."""
    var, level = split_channel(name)
    if level == 0:
        return _SURFACE.index(var)
    return len(_SURFACE) + _UPPER.index(var) * len(_LEVELS) + _LEVELS.index(level)


def read_plane(path: Path, name: str, grid: Grid, fmt: str = "nws") -> np.ndarray:
    """One channel plane, north first, as float64."""
    plane = grid.nlat * grid.nlon * 4
    offset = plane_index(name) * plane
    with open(path, "rb") as fh:
        if fmt == "nws":
            # magic 8s, version, nlat, nlon u32, 4 f64, i64; then u16 label
            # length, label, u32 channel count, 4 bytes per channel
            fh.seek(60)
            (label_len,) = struct.unpack("<H", fh.read(2))
            offset += 62 + label_len + 4 + 4 * 69
        fh.seek(offset)
        raw = fh.read(plane)
    if len(raw) != plane:
        raise ValueError(f"{path}: short read of {name}")
    values = np.frombuffer(raw, dtype="<f4").reshape(grid.nlat, grid.nlon)
    if fmt == "raw-south":
        values = values[::-1]
    return values.astype(np.float64)


def region_weights(grid: Grid, box: tuple[float, float, float, float]) -> np.ndarray:
    """cos(lat) over the inclusive box, summing to one."""
    lat_min, lat_max, lon_min, lon_max = box
    lats = 90.0 - grid.step * np.arange(grid.nlat)
    lons = (grid.step * np.arange(grid.nlon)) % 360.0
    eps = 1e-9
    rows = (lats >= lat_min - eps) & (lats <= lat_max + eps)
    cols = (lons >= lon_min - eps) & (lons <= lon_max + eps)
    if lon_max >= 360.0 - eps:
        cols |= lons <= lon_max - 360.0 + eps
    w = np.where(rows[:, None] & cols[None, :], np.cos(np.radians(lats))[:, None], 0.0)
    return w / w.sum()


def scores(fc: np.ndarray, truth: np.ndarray, clim: np.ndarray,
           w: np.ndarray) -> dict[str, float]:
    d = fc - truth
    af, ao = fc - clim, truth - clim
    acc = float((w * af * ao).sum()) / math.sqrt((w * af * af).sum() * (w * ao * ao).sum())
    return {"RMSE": math.sqrt((w * d * d).sum()), "ACC": acc}


def expected_values(w: Workload, inputs: Path) -> dict[tuple, float]:
    """Oracle values keyed like `read_cells`, for the on-grid source."""
    src = next(s for s in w.sources if s.label == w.oracle_source)
    if src.factor != w.model_factor:
        raise ValueError(f"oracle source {src.label} is not on the model grid")
    grid = w.model
    weights = {name: region_weights(grid, box) for name, box in REGIONS.items()}
    out = {}
    for chan in ORACLE_CHANNELS:
        ic = read_plane(inputs / src.filename, chan, grid, src.fmt)
        clim = read_plane(inputs.parent / CLIMATOLOGY, chan, grid)
        var, level = split_channel(chan)
        for lead in w.leads:
            fc = np.roll(ic, w.forecast_shift(lead), axis=1)
            truth = read_plane(inputs / f"truth_{lead}.nws", chan, grid)
            for region, wt in weights.items():
                for metric, value in scores(fc, truth, clim, wt).items():
                    if var == "Q" and metric == "RMSE":
                        value *= 1000.0     # reported in g/kg
                    out[(src.label, var, level, region, lead, metric)] = value
    return out


def expected_keys(w: Workload) -> set[tuple]:
    return {(run, *split_channel(chan), region, lead, metric)
            for run in w.runs for chan in REPORT_CHANNELS for region in REGIONS
            for lead in w.leads for metric in METRICS}


def read_cells(csv_path: Path) -> tuple[dict[tuple, str], int]:
    """CSV rows keyed by (source, variable, level, region, lead, metric),
    and the number of data rows."""
    cells, rows = {}, 0
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            rows += 1
            _, source, var, level, region, lead, metric, value = row
            cells[(source, var, int(level), region, int(lead), metric)] = value
    return cells, rows


def check_run(w: Workload, csv_path: Path, failures: dict[str, str],
              oracle: dict[tuple, float]) -> tuple[set[tuple], list[str]]:
    """Failed expected cells and problems found, for one metrics.csv.

    A cell fails when it is missing, not finite, an ACC outside [-1, 1],
    off the oracle by more than RTOL, or belongs to a run that
    RunReport.failures lists.
    """
    expected = expected_keys(w)
    problems: list[str] = []
    cells, rows = read_cells(csv_path) if csv_path.exists() else ({}, 0)
    if rows != len(expected) or len(cells) != rows:
        problems.append(f"{rows} CSV rows ({len(cells)} distinct), expected {len(expected)}")
    failed = set()
    unscored = 0
    for key in expected:
        text = cells.get(key)
        value = float(text) if text is not None else math.nan
        if key[0] in failures:
            failed.add(key)
        elif not math.isfinite(value):
            failed.add(key)
            unscored += 1
        elif key[-1] == "ACC" and not -1.0 <= value <= 1.0:
            failed.add(key)
            problems.append(f"ACC out of range at {key}: {text}")
        elif key in oracle and not math.isclose(value, oracle[key], rel_tol=RTOL):
            failed.add(key)
            problems.append(f"oracle mismatch at {key}: csv {text}, oracle {oracle[key]!r}")
    for run, msg in sorted(failures.items()):
        problems.append(f"run {run} failed: {msg}")
    if unscored:
        problems.append(f"{unscored} expected cells missing or not finite")
    return failed, problems


def fingerprint(outdir: Path) -> dict[str, str]:
    """SHA-256 of metrics.csv and of the sorted set of SVG files."""
    svgs = hashlib.sha256()
    for path in sorted((outdir / "plots").glob("*.svg")):
        svgs.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    csv_path = outdir / "metrics.csv"
    csv_digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.exists() else ""
    return {"metrics_csv": csv_digest, "svgs": svgs.hexdigest()}
