"""Regional initial-condition concatenation: overwrite a box of a base
global state with a donor state's values, optionally feathering the seam.

Planes are matched by channel, not by position. The default hard splice
(blend_width 0) copies donor values verbatim inside the box and leaves
base values untouched elsewhere, so every output value is bitwise one of
the two inputs. The default scope is upper-air channels only; the 4
surface channels come from the base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (GridMismatchError, RegionBox, StateSet, box_distance, degrees,
                    region_mask)


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


def splice_states(base: StateSet, donor: StateSet, spec: SpliceSpec,
                  allow_time_mismatch: bool = False) -> StateSet:
    """Splice the donor's in-scope channels into the base within the box.

    Grids and, unless allow_time_mismatch, valid_times are compared before
    any plane is read. Each base plane and the donor's plane of its channel
    are then read once through `channel()`, so either may be an archive.PlaneReader.
    Inside the box (region_mask) the output is the donor. On the ring
    outside it, closer than blend_width degrees (box_distance), output =
    alpha*donor + (1-alpha)*base, where alpha falls linearly from 1 at the
    box edge to 0 at blend_width degrees out. The result holds the base's
    channels; its source_label is "<donor>pad<base>".
    """
    if base.grid != donor.grid:
        raise GridMismatchError(f"differ in grid: {base.grid} against {donor.grid}")
    if base.valid_time != donor.valid_time and not allow_time_mismatch:
        raise SpliceError(f"differ in valid_time: {base.valid_time} against {donor.valid_time}")
    mask = region_mask(base.grid, spec.region)
    distance = box_distance(base.grid, spec.region)
    ring = np.nonzero(~mask & (distance < spec.blend_width))   # empty when hard
    alpha = 1.0 - distance[ring] / spec.blend_width
    out = np.empty((len(base.channels),) + base.grid.shape, dtype=np.float32)
    for plane, (var, level) in zip(out, base.channels):
        plane[...] = base.channel(var, level)
        if var.is_surface and spec.variable_scope == "upper-only":
            continue
        d = donor.channel(var, level)
        np.copyto(plane, d, where=mask)
        plane[ring] = (alpha * d[ring].astype(np.float64)
                       + (1.0 - alpha) * plane[ring].astype(np.float64)).astype(np.float32)
    return StateSet(valid_time=base.valid_time, grid=base.grid, channels=base.channels,
                    source_label=f"{donor.source_label}pad{base.source_label}", data=out)
