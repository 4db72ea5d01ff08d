"""Regional initial-condition concatenation: a box of a base global state
overwritten with a donor's values, the seam optionally feathered (Spliced).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (SURFACE_LEVEL, GridMismatchError, RegionBox, StateSet, Var, box_distance,
                    degrees, gather, region_mask)


class SpliceError(ValueError):
    """Base/donor states are incompatible."""


@dataclass(frozen=True)
class SpliceSpec:
    """How to splice: the box, which channels, and the feather width in
    rectangular degrees (0 = hard splice)."""

    region: RegionBox
    variable_scope: str = "upper-only"   # or "all-channels"
    blend_width: float = 0.0

    def __post_init__(self):
        if self.variable_scope not in ("upper-only", "all-channels"):
            raise ValueError(f"unknown variable scope {self.variable_scope!r}")
        object.__setattr__(self, "blend_width", degrees("blend_width", self.blend_width))
        if self.blend_width < 0:
            raise ValueError("blend_width must be >= 0")


class Spliced:
    """The base with the donor's in-scope channels (upper-air alone under
    upper-only) spliced in within the box, a plane at a time: base and donor
    are states or any other plane sources. Grids and, unless
    allow_time_mismatch, valid_times are compared here (GridMismatchError,
    SpliceError), before any plane is read, and the mask, ring and alpha are
    built once. channel() copies the base's plane into the view's one
    float32 plane, which it returns and the next call overwrites, and
    splices the donor's plane of that channel in; neither source's plane is
    written. Inside the box (region_mask) the output is the donor, bitwise.
    On the ring outside it, closer than blend_width degrees (box_distance),
    output = alpha*donor + (1-alpha)*base, where alpha falls linearly from 1
    at the box edge to 0 at blend_width degrees out; a hard splice
    (blend_width 0) has no ring. The view has the base's grid, valid_time
    and channels; its source_label is "<donor>pad<base>". Not safe to share
    across threads.
    """

    def __init__(self, base, donor, spec: SpliceSpec, allow_time_mismatch: bool = False):
        if base.grid != donor.grid:
            raise GridMismatchError(f"differ in grid: {base.grid} against {donor.grid}")
        if base.valid_time != donor.valid_time and not allow_time_mismatch:
            raise SpliceError(f"differ in valid_time: {base.valid_time} against "
                              f"{donor.valid_time}")
        self._base, self._donor, self._spec = base, donor, spec
        self.grid, self.valid_time, self.channels = base.grid, base.valid_time, base.channels
        self.source_label = f"{donor.source_label}pad{base.source_label}"
        self._mask = region_mask(base.grid, spec.region)
        distance = box_distance(base.grid, spec.region)
        self._ring = np.nonzero(~self._mask & (distance < spec.blend_width))   # empty when hard
        self._alpha = 1.0 - distance[self._ring] / spec.blend_width
        self._out = np.empty(base.grid.shape, dtype=np.float32)

    def channel(self, variable: Var, level: int = SURFACE_LEVEL) -> np.ndarray:
        plane, ring, alpha = self._out, self._ring, self._alpha
        plane[...] = self._base.channel(variable, level)
        if variable.is_surface and self._spec.variable_scope == "upper-only":
            return plane
        d = self._donor.channel(variable, level)
        np.copyto(plane, d, where=self._mask)
        plane[ring] = (alpha * d[ring].astype(np.float64)
                       + (1.0 - alpha) * plane[ring].astype(np.float64)).astype(np.float32)
        return plane


def splice_states(base, donor, spec: SpliceSpec, allow_time_mismatch: bool = False) -> StateSet:
    """The Spliced view of base and donor gathered into a state of the
    base's channels: each base plane, and the donor's plane of its channel,
    read once through `channel()`."""
    return gather(Spliced(base, donor, spec, allow_time_mismatch), base.channels)
