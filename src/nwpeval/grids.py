"""Grid geometry, the canonical variable/level/channel scheme, and the
in-memory atmospheric state shared by every other module.

The model state is a fixed set of 69 channels on a regular lat/lon grid:
4 surface channels [MSLP, U10, V10, T2] followed by 65 upper-air channels,
variable-major [Z, Q, T, U, V] over 13 pressure levels (1000 hPa down to
50 hPa). Row 0 of every array is the northmost latitude; column 0 is
lon_start, increasing eastward.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np


class Var(enum.Enum):
    """Variable kinds with their archive codes."""

    MSLP = 0
    U10 = 1
    V10 = 2
    T2 = 3
    Z = 4
    Q = 5
    T = 6
    U = 7
    V = 8

    @property
    def is_surface(self) -> bool:
        return self in SURFACE_VARS


SURFACE_VARS = (Var.MSLP, Var.U10, Var.V10, Var.T2)
UPPER_VARS = (Var.Z, Var.Q, Var.T, Var.U, Var.V)

# Descending pressure; 0 denotes the surface.
LEVELS = (1000, 925, 850, 700, 600, 500, 400, 300, 250, 200, 150, 100, 50)
SURFACE_LEVEL = 0

# Canonical channel order: surface block then upper block.
CHANNELS: tuple[tuple[Var, int], ...] = tuple(
    [(v, SURFACE_LEVEL) for v in SURFACE_VARS]
    + [(v, p) for v in UPPER_VARS for p in LEVELS]
)
N_SURFACE = len(SURFACE_VARS)
N_UPPER = len(UPPER_VARS) * len(LEVELS)
N_CHANNELS = N_SURFACE + N_UPPER  # 69
CHANNEL_INDEX: dict[tuple[Var, int], int] = {ch: k for k, ch in enumerate(CHANNELS)}


class InvalidChannelError(ValueError):
    """Raised for an illegal (variable, level) combination."""


class GridMismatchError(ValueError):
    """Raised when two objects that must share a grid do not."""


def flat_channel_index(variable: Var, level: int) -> int:
    """Position of a channel in the flat canonical 0..68 order.

    Surface variables live at level 0; upper-air variables at one of the
    13 pressure levels. Any other pair raises InvalidChannelError.
    """
    try:
        return CHANNEL_INDEX[(variable, level)]
    except KeyError:
        raise InvalidChannelError(f"no channel ({variable}, {level})") from None


def channel_name(variable: Var, level: int) -> str:
    """Display name: MSLP, T2, ... for surface; Z500, Q850, ... for upper."""
    return variable.name if variable.is_surface else f"{variable.name}{level}"


# Display name -> channel, for every canonical channel: channel_name's inverse.
CHANNEL_BY_NAME: dict[str, tuple[Var, int]] = {channel_name(*ch): ch for ch in CHANNELS}


def whole_number(what: str, value) -> int:
    """`value` as an int, e.g. 24 from 24, 24.0 or "24"; ValueError naming
    `what` if it has a fraction, is a bool or is no number, where int()
    alone would cut 24.5 to 24 and read True as 1."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            n = int(value)
            if not isinstance(value, float) or n == value:
                return n
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def degrees(what: str, value) -> float:
    """`value` as a finite float, e.g. 22.5 from 22.5, 22 or "22.5";
    ValueError naming `what` if it is a bool or no number, where float()
    alone would read True as 1.0 and fail without naming `what`."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            x = float(value)
            if math.isfinite(x):
                return x
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number of degrees, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Regular lat/lon grid: row 0 at lat_start (northmost), stepping south
    by dlat; column 0 at lon_start, stepping east by dlon."""

    nlat: int
    nlon: int
    lat_start: float = 90.0
    dlat: float = 0.25
    lon_start: float = 0.0
    dlon: float = 0.25

    def __post_init__(self):
        for name in ("nlat", "nlon"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        for name in ("lat_start", "dlat", "lon_start", "dlon"):
            object.__setattr__(self, name, degrees(name, getattr(self, name)))
        if self.nlat < 1 or self.nlon < 1:
            raise ValueError("grid must have at least one row and column")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("dlat and dlon must be positive")
        if self.lat_start > 90.0 or self.lat_start - (self.nlat - 1) * self.dlat < -90.0 - 1e-9:
            raise ValueError("latitude rows must lie within [-90, 90]")
        if not (0.0 <= self.lon_start < 360.0):
            raise ValueError("lon_start must lie in [0, 360)")
        if self.nlon * self.dlon > 360.0 + 1e-9:
            raise ValueError("longitudes overlap after wrap")

    @classmethod
    def canonical(cls) -> "GridSpec":
        """The 0.25-degree 721x1440 model grid."""
        return cls(nlat=721, nlon=1440, lat_start=90.0, dlat=0.25, lon_start=0.0, dlon=0.25)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nlat, self.nlon)

    def latitudes(self) -> np.ndarray:
        return self.lat_start - self.dlat * np.arange(self.nlat)

    def longitudes(self) -> np.ndarray:
        return (self.lon_start + self.dlon * np.arange(self.nlon)) % 360.0

    def coords(self, i: int, j: int) -> tuple[float, float]:
        """(lat, lon) of grid point (i, j)."""
        if not (0 <= i < self.nlat and 0 <= j < self.nlon):
            raise IndexError(f"grid index ({i}, {j}) out of range for {self.shape}")
        return (self.lat_start - i * self.dlat, (self.lon_start + j * self.dlon) % 360.0)

    def is_cyclic(self) -> bool:
        """True when the columns cover the full circle of longitude."""
        return abs(self.nlon * self.dlon - 360.0) <= 1e-6


@dataclass(frozen=True)
class RegionBox:
    """Inclusive lat/lon rectangle. No dateline-crossing boxes."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (-90.0 <= self.lat_min <= self.lat_max <= 90.0):
            raise ValueError("latitude bounds must satisfy -90 <= lat_min <= lat_max <= 90")
        if not (0.0 <= self.lon_min <= self.lon_max <= 360.0):
            raise ValueError("longitude bounds must satisfy 0 <= lon_min <= lon_max <= 360")


EAST_ASIA = RegionBox(lat_min=-10.0, lat_max=60.0, lon_min=60.0, lon_max=150.0)
GLOBAL = RegionBox(lat_min=-90.0, lat_max=90.0, lon_min=0.0, lon_max=360.0)
DEFAULT_REGIONS = {"global": GLOBAL, "east_asia": EAST_ASIA}

_EPS = 1e-9


def _excursions(grid: GridSpec, box: RegionBox) -> tuple[np.ndarray, np.ndarray]:
    """(dlat, dlon): how far in degrees each row's latitude and each
    column's longitude lie outside the box's bounds, 0 inside. Longitude
    distance goes the short way round the circle, so the seam at 0/360
    degrees is no edge."""
    lats = grid.latitudes()
    lons = grid.longitudes()
    dlat = np.maximum(np.maximum(box.lat_min - lats, lats - box.lat_max), 0.0)
    inside = (lons >= box.lon_min) & (lons <= box.lon_max)
    dlon = np.where(inside, 0.0, np.minimum((box.lon_min - lons) % 360.0,
                                            (lons - box.lon_max) % 360.0))
    return dlat, dlon


def box_distance(grid: GridSpec, box: RegionBox) -> np.ndarray:
    """Rectangular-degree distance to the box: max of the latitude and
    longitude excursions (see _excursions), 0 inside."""
    dlat, dlon = _excursions(grid, box)
    return np.maximum(dlat[:, np.newaxis], dlon[np.newaxis, :])


def region_mask(grid: GridSpec, box: RegionBox) -> np.ndarray:
    """Boolean (nlat, nlon) mask, true iff the point lies inside the box,
    bounds inclusive to 1e-9 degrees; lon_max 360 takes in 0 degrees. The
    product of a row and a column test: no float64 grid is formed."""
    dlat, dlon = _excursions(grid, box)
    return np.logical_and.outer(dlat <= _EPS, dlon <= _EPS)


def _spans(grid: GridSpec, north: float, south: float, west: float, width: float) -> bool:
    """True if the grid's rows reach from `south` to `north`, cut to [-90,
    90], and, unless the grid is cyclic, its columns from `west` east over
    `width` degrees, across 0/360 degrees if need be."""
    if (grid.lat_start < min(north, 90.0) - 1e-6
            or grid.lat_start - (grid.nlat - 1) * grid.dlat > max(south, -90.0) + 1e-6):
        return False
    if grid.is_cyclic():
        return True
    # degrees east of the grid's first column to `west`
    west = (west - grid.lon_start + 1e-6) % 360.0 - 1e-6
    return west + width <= (grid.nlon - 1) * grid.dlon + 1e-6


def covers(grid: GridSpec, box: RegionBox, margin: float = 0.0) -> bool:
    """True if the grid's points span the box widened by `margin` degrees
    on every side, its latitudes cut to [-90, 90]. Regridding fills a point
    past the grid's span with an edge value."""
    return _spans(grid, box.lat_max + margin, box.lat_min - margin, box.lon_min - margin,
                  box.lon_max - box.lon_min + 2.0 * margin)


def covers_grid(grid: GridSpec, model: GridSpec) -> bool:
    """True if `grid` covers the `model` grid: its rows reach within one of
    its own row steps of the model's first and last rows, so a global grid
    that stops half a step short of the poles covers it, and it is cyclic
    or its columns span the model's."""
    south = model.lat_start - (model.nlat - 1) * model.dlat
    return _spans(grid, model.lat_start - grid.dlat, south + grid.dlat, model.lon_start,
                  (model.nlon - 1) * model.dlon)


@dataclass(frozen=True)
class Field:
    """One 2D channel plane. Values are float32, row 0 = northmost row."""

    variable: Var
    level: int
    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        flat_channel_index(self.variable, self.level)  # legality check
        vals = np.ascontiguousarray(self.values, dtype=np.float32)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        object.__setattr__(self, "values", vals)


def _as_utc(t: datetime) -> datetime:
    if t.tzinfo is None:
        return t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


@dataclass(frozen=True)
class StateSet:
    """One timestamped global state.

    `data` is a (len(channels), nlat, nlon) float32 array of the planes of
    `channels`, in that order: all 69 canonical channels by default, or those
    a subset read (`read_archive(src, channels)`) asked for; a channel named
    twice is a ValueError. `channel()` and `field()` look a plane up by its
    channel; asked for one it lacks, they fail.
    """

    valid_time: datetime
    source_label: str
    grid: GridSpec
    data: np.ndarray = field(repr=False)
    channels: tuple[tuple[Var, int], ...] = CHANNELS

    def __post_init__(self):
        object.__setattr__(self, "valid_time", _as_utc(self.valid_time))
        object.__setattr__(self, "channels", tuple(self.channels))
        if len(set(self.channels)) < len(self.channels):
            twice = next(ch for ch in self.channels if self.channels.count(ch) > 1)
            raise ValueError(f"state names channel {channel_name(*twice)} twice")
        d = np.ascontiguousarray(self.data, dtype=np.float32)
        if d.shape != (len(self.channels),) + self.grid.shape:
            raise ValueError(f"data shape {d.shape} does not hold {len(self.channels)} "
                             f"channels on grid {self.grid.shape}")
        object.__setattr__(self, "data", d)

    def channel(self, variable: Var, level: int = SURFACE_LEVEL) -> np.ndarray:
        try:
            return self.data[self.channels.index((variable, level))]
        except ValueError:
            flat_channel_index(variable, level)   # InvalidChannelError if illegal
            raise ValueError(f"state holds no {channel_name(variable, level)} plane") from None

    def field(self, variable: Var, level: int = SURFACE_LEVEL) -> Field:
        return Field(variable=variable, level=level, grid=self.grid,
                     values=self.channel(variable, level))

    def replace(self, **kwargs) -> "StateSet":
        return dataclasses.replace(self, **kwargs)

    def subset(self, channels) -> "StateSet":
        """The state of `channels` alone, in that order; itself if it holds
        just those."""
        channels = tuple(channels)
        return self if channels == self.channels else gather(self, channels)


def gather(source, channels) -> StateSet:
    """The state of `channels`, in that order, each plane copied from
    `source.channel()` as it is asked for: a state, an archive.PlaneReader,
    a regrid.Regridded or a splice.Spliced. It has the source's grid,
    valid_time and source_label."""
    state = StateSet(valid_time=source.valid_time, source_label=source.source_label,
                     grid=source.grid, channels=channels,
                     data=np.empty((len(channels),) + source.grid.shape, dtype=np.float32))
    for plane, ch in zip(state.data, state.channels):
        plane[...] = source.channel(*ch)
    return state


# Sanity gates applied at ingestion (harness-chosen, not physical constants).
RANGE_CHECKS: dict[Var, tuple[float, float]] = {
    Var.T2: (150.0, 350.0),
    Var.T: (150.0, 350.0),
    Var.MSLP: (85000.0, 110000.0),
    Var.Q: (0.0, 0.05),
    Var.U10: (-150.0, 150.0),
    Var.V10: (-150.0, 150.0),
    Var.U: (-150.0, 150.0),
    Var.V: (-150.0, 150.0),
}


def plane_fault(channel: tuple[Var, int], plane: np.ndarray, ranges=False) -> str | None:
    """Why `plane`, the values of `channel`, cannot be used, or None: it
    holds NaN/Inf or, with `ranges`, a value outside the channel's
    RANGE_CHECKS bounds. The one test of a plane, whether it is read,
    ingested or handed over in memory."""
    if not np.isfinite(plane).all():
        return f"plane {channel_name(*channel)} contains NaN/Inf"
    if ranges and channel[0] in RANGE_CHECKS:
        lo, hi = RANGE_CHECKS[channel[0]]
        pmin, pmax = float(plane.min()), float(plane.max())
        if pmin < lo or pmax > hi:
            return (f"range: {channel_name(*channel)} in [{pmin:.6g}, {pmax:.6g}] "
                    f"outside [{lo:g}, {hi:g}]")
    return None
