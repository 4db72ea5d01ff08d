"""Synthetic states and climatologies for tests and desk-scale runs.

Generated fields are smooth (large-scale sinusoids plus small noise) and
stay inside the ingestion sanity ranges, so validate_state returns a
clean report for them.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from .grids import CHANNELS, GridSpec, StateSet, Var

# (center, wave amplitude, noise amplitude) per variable kind, in stored units
_PROFILES = {
    Var.MSLP: (101325.0, 1500.0, 200.0),
    Var.U10: (0.0, 12.0, 2.0),
    Var.V10: (0.0, 8.0, 2.0),
    Var.T2: (285.0, 25.0, 2.0),
    Var.Z: (50000.0, 4000.0, 300.0),
    Var.Q: (0.006, 0.004, 0.0005),
    Var.T: (250.0, 30.0, 2.0),
    Var.U: (5.0, 20.0, 2.0),
    Var.V: (0.0, 12.0, 2.0),
}


def default_time() -> datetime:
    return datetime(2023, 6, 6, 0, 0, tzinfo=timezone.utc)


def make_state(grid: GridSpec, seed: int = 0, source_label: str = "synthetic",
               valid_time: datetime | None = None) -> StateSet:
    """Physically-plausible random state on the given grid."""
    rng = np.random.default_rng(seed)
    lats = np.radians(grid.latitudes())[:, np.newaxis]
    lons = np.radians(grid.longitudes())[np.newaxis, :]
    data = np.empty((len(CHANNELS), grid.nlat, grid.nlon), dtype=np.float32)
    for k, (var, level) in enumerate(CHANNELS):
        center, wave, noise = _PROFILES[var]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        zonal_wave = rng.integers(1, 4)
        scale = 1.0 if level == 0 else 0.4 + 0.6 * level / 1000.0
        plane = (center
                 + wave * scale * np.cos(lats) * np.sin(zonal_wave * lons + phase)
                 + noise * rng.standard_normal((grid.nlat, grid.nlon)))
        if var is Var.Q:
            plane = np.clip(plane, 0.0, 0.05)
        data[k] = plane.astype(np.float32)
    return StateSet(valid_time=valid_time or default_time(),
                    source_label=source_label, grid=grid, data=data)


def make_climatology(grid: GridSpec, seed: int = 99) -> StateSet:
    """Time-invariant climatology: a make_state draw (waves plus the same
    small noise) under its own seed and the label "climatology"."""
    state = make_state(grid, seed=seed, source_label="climatology")
    return state


def perturb(state: StateSet, seed: int, amplitude: float = 1.0,
            source_label: str | None = None) -> StateSet:
    """Add channel-scaled Gaussian noise everywhere (an imperfect-analysis
    surrogate). The noise for each plane scales with its own variable's
    natural magnitude so every channel is actually perturbed; planes draw
    their noise in the state's channel order."""
    rng = np.random.default_rng(seed)
    data = state.data.copy()
    for plane, (var, _) in zip(data, state.channels):
        _, _, noise = _PROFILES[var]
        plane += (amplitude * noise
                  * rng.standard_normal(state.grid.shape)).astype(np.float32)
        if var is Var.Q:
            np.clip(plane, 0.0, 0.05, out=plane)
    return state.replace(data=data,
                         source_label=source_label or state.source_label)
