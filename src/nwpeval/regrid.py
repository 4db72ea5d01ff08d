"""Bilinear interpolation between regular lat/lon grids.

Interpolation is separable in (lat, lon). Longitude brackets wrap modulo
360 when the source grid covers the full circle; otherwise they clamp to
the edge columns. Destination latitudes poleward of the source's extreme
rows clamp to the nearest row, collapsing the stencil to 1D longitude
interpolation. Weights are computed and applied in float64; field data
stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Field, GridMismatchError, GridSpec, StateSet


@dataclass(frozen=True)
class RegridPlan:
    """Precomputed bilinear stencil. Separable: per destination row the
    bracketing source rows (i0, i1) and the weight on i0; per destination
    column the bracketing source columns (j0, j1) and the weight on j0."""

    source: GridSpec
    destination: GridSpec
    rows0: np.ndarray = field(repr=False)
    rows1: np.ndarray = field(repr=False)
    wlat: np.ndarray = field(repr=False)   # weight on rows0, f64
    cols0: np.ndarray = field(repr=False)
    cols1: np.ndarray = field(repr=False)
    wlon: np.ndarray = field(repr=False)   # weight on cols0, f64

    def point_stencil(self, i: int, j: int):
        """4 (source row, source col) indices and 4 weights for one
        destination point. Weights are >= 0 and sum to 1."""
        wy, wx = self.wlat[i], self.wlon[j]
        idx = [(self.rows0[i], self.cols0[j]), (self.rows0[i], self.cols1[j]),
               (self.rows1[i], self.cols0[j]), (self.rows1[i], self.cols1[j])]
        w = [wy * wx, wy * (1.0 - wx), (1.0 - wy) * wx, (1.0 - wy) * (1.0 - wx)]
        return idx, w


def _bracket_lat(src: GridSpec, lats: np.ndarray):
    # fractional row coordinate; rows run north to south
    t = (src.lat_start - lats) / src.dlat
    t = np.clip(t, 0.0, src.nlat - 1)
    i0 = np.floor(t).astype(np.intp)
    i0 = np.minimum(i0, src.nlat - 1)
    i1 = np.minimum(i0 + 1, src.nlat - 1)
    w0 = 1.0 - (t - i0)
    return i0, i1, w0


def _bracket_lon(src: GridSpec, lons: np.ndarray):
    u = ((lons - src.lon_start) % 360.0) / src.dlon
    if src.is_cyclic():
        u = u % src.nlon
        j0 = np.floor(u).astype(np.intp) % src.nlon
        j1 = (j0 + 1) % src.nlon
        w0 = 1.0 - (u - np.floor(u))
    else:
        u = np.clip(u, 0.0, src.nlon - 1)
        j0 = np.floor(u).astype(np.intp)
        j0 = np.minimum(j0, src.nlon - 1)
        j1 = np.minimum(j0 + 1, src.nlon - 1)
        w0 = 1.0 - (u - j0)
    return j0, j1, w0


def build_plan(src: GridSpec, dst: GridSpec) -> RegridPlan:
    """Locate the bracketing source points and weights for every
    destination point."""
    if src.nlat < 2 or src.nlon < 2:
        raise ValueError("source grid must have at least 2 rows and 2 columns")
    rows0, rows1, wlat = _bracket_lat(src, dst.latitudes())
    cols0, cols1, wlon = _bracket_lon(src, dst.longitudes())
    return RegridPlan(source=src, destination=dst,
                      rows0=rows0, rows1=rows1, wlat=wlat,
                      cols0=cols0, cols1=cols1, wlon=wlon)


def _apply_planes(plan: RegridPlan, planes: np.ndarray) -> np.ndarray:
    """Interpolate a stack of planes, each through the same float64 work
    buffers, allocated once. Per plane the operations and their order are
    those of

        v = plane.astype(float64); top, bot = v[rows0], v[rows1]
        row_top = wx * top[:, cols0] + (1 - wx) * top[:, cols1]  (bot alike)
        out = (wy * row_top + (1 - wy) * row_bot).astype(float32)

    so the result is bitwise that expression's. take() runs with
    mode="clip" because mode="raise" copies into a temporary first;
    build_plan's indices are in range, so clipping changes nothing."""
    src, dst = plan.source, plan.destination
    out = np.empty((len(planes),) + dst.shape, dtype=np.float32)
    v = np.empty(src.shape)
    top, bot = np.empty((2, dst.nlat, src.nlon))
    row_top, row_bot, tmp = np.empty((3,) + dst.shape)
    wx, wy = plan.wlon, plan.wlat[:, np.newaxis]
    wx1, wy1 = 1.0 - wx, 1.0 - wy
    for plane, res in zip(planes, out):
        v[...] = plane
        np.take(v, plan.rows0, axis=0, out=top, mode="clip")
        np.take(v, plan.rows1, axis=0, out=bot, mode="clip")
        for rows, acc in ((top, row_top), (bot, row_bot)):
            np.take(rows, plan.cols0, axis=1, out=acc, mode="clip")
            np.multiply(wx, acc, out=acc)
            np.take(rows, plan.cols1, axis=1, out=tmp, mode="clip")
            np.multiply(wx1, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        np.multiply(wy, row_top, out=row_top)
        np.multiply(wy1, row_bot, out=row_bot)
        np.add(row_top, row_bot, out=row_top)
        res[...] = row_top
    return out


def apply_plan(plan: RegridPlan, fld: Field) -> Field:
    """Interpolate one field onto the plan's destination grid."""
    if fld.grid != plan.source:
        raise GridMismatchError("field grid does not match the plan's source grid")
    return Field(variable=fld.variable, level=fld.level, grid=plan.destination,
                 values=_apply_planes(plan, fld.values[np.newaxis])[0])


def regrid_state(state: StateSet, dst: GridSpec) -> StateSet:
    """Regrid all planes with one shared plan; metadata and channels preserved."""
    if state.grid == dst:
        return state
    return state.replace(grid=dst,
                         data=_apply_planes(build_plan(state.grid, dst), state.data))
