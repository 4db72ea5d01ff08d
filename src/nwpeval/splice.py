"""Regional initial-condition concatenation: overwrite a box of a base
global state with a donor state's values, optionally feathering the seam.

The default hard splice (blend_width 0) copies donor values verbatim
inside the box and leaves base values untouched elsewhere, so every
output value is bitwise one of the two inputs. The default scope is
upper-air channels only; the 4 surface channels come from the base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (N_CHANNELS, N_SURFACE, GridMismatchError, RegionBox,
                    StateSet, box_distance, region_mask)


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
        if self.blend_width < 0:
            raise ValueError("blend_width must be >= 0")


def splice_states(base: StateSet, donor: StateSet, spec: SpliceSpec,
                  allow_time_mismatch: bool = False) -> StateSet:
    """Splice the donor's in-scope channels into the base within the box.

    With blend_width > 0, output = alpha*donor + (1-alpha)*base where
    alpha falls linearly from 1 at the box edge to 0 at blend_width
    degrees outside. The result's source_label is "<donor>pad<base>".
    """
    if base.grid != donor.grid:
        raise GridMismatchError("base and donor must share a grid")
    if base.valid_time != donor.valid_time and not allow_time_mismatch:
        raise SpliceError(f"valid_time mismatch: base {base.valid_time}, "
                          f"donor {donor.valid_time}")
    first = 0 if spec.variable_scope == "all-channels" else N_SURFACE
    out = base.data.copy()
    if spec.blend_width == 0.0:
        mask = region_mask(base.grid, spec.region)
        for k in range(first, N_CHANNELS):
            np.copyto(out[k], donor.data[k], where=mask)
    else:
        alpha = np.clip(1.0 - box_distance(base.grid, spec.region) / spec.blend_width,
                        0.0, 1.0)
        seam = alpha > 0.0
        for k in range(first, N_CHANNELS):
            mixed = (alpha * donor.data[k].astype(np.float64)
                     + (1.0 - alpha) * base.data[k].astype(np.float64)).astype(np.float32)
            np.copyto(out[k], mixed, where=seam)
    return StateSet(valid_time=base.valid_time,
                    source_label=f"{donor.source_label}pad{base.source_label}",
                    grid=base.grid, data=out)
