"""Bilinear interpolation between regular lat/lon grids.

Interpolation is separable in (lat, lon). Longitude brackets wrap modulo
360 when the source grid covers the full circle; otherwise a destination
column past the source's span takes the nearer edge column, by angular
distance (the east one on a tie). Destination latitudes poleward of the
source's extreme rows clamp to the nearest row, collapsing the stencil to
1D longitude interpolation. Weights are computed and applied in float64;
field data stays float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import SURFACE_LEVEL, Field, GridMismatchError, GridSpec, StateSet, Var, gather


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


def _bracket(t: np.ndarray, n: int, cyclic: bool):
    """Bracketing indices (i0, i1) on an axis of n points, and the weight
    on i0, for fractional coordinates t. A cyclic axis wraps modulo n;
    otherwise t clamps to [0, n - 1], so past an edge all weight falls on
    the edge point."""
    t = t % n if cyclic else np.clip(t, 0.0, n - 1)
    f = np.floor(t)
    i0 = f.astype(np.intp) % n
    i1 = (i0 + 1) % n if cyclic else np.minimum(i0 + 1, n - 1)
    return i0, i1, 1.0 - (t - f)


def build_plan(src: GridSpec, dst: GridSpec) -> RegridPlan:
    """Locate the bracketing source points and weights for every
    destination point."""
    if src.nlat < 2 or src.nlon < 2:
        raise ValueError("source grid must have at least 2 rows and 2 columns")
    # fractional source coordinates; rows run north to south
    rows0, rows1, wlat = _bracket((src.lat_start - dst.latitudes()) / src.dlat,
                                  src.nlat, cyclic=False)
    east = (dst.longitudes() - src.lon_start) % 360.0   # degrees east of column 0
    if not src.is_cyclic():   # past the span, nearer column 0 than the last: column 0
        east = np.where(east - (src.nlon - 1) * src.dlon > 360.0 - east, 0.0, east)
    cols0, cols1, wlon = _bracket(east / src.dlon, src.nlon, cyclic=src.is_cyclic())
    return RegridPlan(source=src, destination=dst,
                      rows0=rows0, rows1=rows1, wlat=wlat,
                      cols0=cols0, cols1=cols1, wlon=wlon)


def _lerp(v, i0, i1, w0, w1, axis, out, tmp) -> None:
    """out = w0 * v[i0] + w1 * v[i1] along `axis`: the 1-D kernel of both
    passes. take() runs with mode="clip" because mode="raise" copies into
    a temporary first; build_plan's indices are in range, so clipping
    changes nothing."""
    np.take(v, i0, axis=axis, out=out, mode="clip")
    np.multiply(w0, out, out=out)
    np.take(v, i1, axis=axis, out=tmp, mode="clip")
    np.multiply(w1, tmp, out=tmp)
    np.add(out, tmp, out=out)


def _interpolator(plan: RegridPlan):
    """A function that interpolates a plane onto the plan's destination
    grid, in two passes of one 1-D kernel, longitude first, through float64
    work buffers allocated here once, into one float32 plane, which it
    returns and its next call overwrites. Per plane this evaluates

        v = plane.astype(float64)
        h = wx * v[:, cols0] + (1 - wx) * v[:, cols1]
        out = (wy * h[rows0] + (1 - wy) * h[rows1]).astype(float32)

    so each output point is wy*(wx*v[i0,j0] + (1-wx)*v[i0,j1]) +
    (1-wy)*(wx*v[i1,j0] + (1-wx)*v[i1,j1]) with its operands in that
    order; interpolating latitude first would round differently."""
    src, dst = plan.source, plan.destination
    # one block for all work buffers, so that freeing it leaves no holes
    # in the heap to raise the peak RSS of what follows
    nv, nh = src.nlat * src.nlon, 2 * src.nlat * dst.nlon
    work = np.empty(nv + nh + 2 * dst.nlat * dst.nlon)
    v = work[:nv].reshape(src.shape)
    h, h_tmp = work[nv:nv + nh].reshape(2, src.nlat, dst.nlon)
    d, d_tmp = work[nv + nh:].reshape((2,) + dst.shape)
    wx, wy = plan.wlon, plan.wlat[:, np.newaxis]
    wx1, wy1 = 1.0 - wx, 1.0 - wy
    out = np.empty(dst.shape, dtype=np.float32)

    def interpolate(plane: np.ndarray) -> np.ndarray:
        v[...] = plane
        _lerp(v, plan.cols0, plan.cols1, wx, wx1, 1, h, h_tmp)
        _lerp(h, plan.rows0, plan.rows1, wy, wy1, 0, d, d_tmp)
        out[...] = d
        return out
    return interpolate


class Regridded:
    """`source`, a state or any other plane source, regridded onto `grid`:
    channel() reads the source's plane and interpolates it through one plan
    and one _interpolator, both kept for the view's life, so the plane it
    returns is overwritten by its next call. The source's planes are not
    written. The view has the source's channels, valid_time and
    source_label. Not safe to share across threads."""

    def __init__(self, source, grid: GridSpec):
        self._source, self.grid, self.channels = source, grid, source.channels
        self.valid_time, self.source_label = source.valid_time, source.source_label
        self._interpolate = _interpolator(build_plan(source.grid, grid))

    def channel(self, variable: Var, level: int = SURFACE_LEVEL) -> np.ndarray:
        return self._interpolate(self._source.channel(variable, level))


def apply_plan(plan: RegridPlan, fld: Field) -> Field:
    """Interpolate one field onto the plan's destination grid."""
    if fld.grid != plan.source:
        raise GridMismatchError("field grid does not match the plan's source grid")
    return Field(variable=fld.variable, level=fld.level, grid=plan.destination,
                 values=_interpolator(plan)(fld.values))


def regrid_state(source, dst: GridSpec) -> StateSet:
    """A state or any other plane source regridded onto `dst` as a state,
    each plane read once through `channel()`; one on `dst` comes back unread."""
    return source if source.grid == dst else gather(Regridded(source, dst), source.channels)
