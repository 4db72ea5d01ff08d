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

    Each of the base's planes is matched with the donor's plane of the
    same channel, looked up with `channel()` one at a time, so the donor
    may be an archive.PlaneReader as well as a state. Inside the box
    (region_mask) the output is the donor. On the ring outside it, closer
    than blend_width degrees (box_distance), output = alpha*donor +
    (1-alpha)*base, where alpha falls linearly from 1 at the box edge to 0
    at blend_width degrees out. The result holds the base's channels; its
    source_label is "<donor>pad<base>".
    """
    if base.grid != donor.grid:
        raise GridMismatchError("base and donor must share a grid")
    if base.valid_time != donor.valid_time and not allow_time_mismatch:
        raise SpliceError(f"valid_time mismatch: base {base.valid_time}, "
                          f"donor {donor.valid_time}")
    mask = region_mask(base.grid, spec.region)
    distance = box_distance(base.grid, spec.region)
    ring = np.nonzero(~mask & (distance < spec.blend_width))   # empty when hard
    alpha = 1.0 - distance[ring] / spec.blend_width
    out = base.data.copy()
    for plane, (var, level) in zip(out, base.channels):
        if var.is_surface and spec.variable_scope == "upper-only":
            continue
        d = donor.channel(var, level)
        np.copyto(plane, d, where=mask)
        plane[ring] = (alpha * d[ring].astype(np.float64)
                       + (1.0 - alpha) * plane[ring].astype(np.float64)).astype(np.float32)
    return base.replace(source_label=f"{donor.source_label}pad{base.source_label}",
                        data=out)
