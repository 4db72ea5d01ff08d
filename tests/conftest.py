from pathlib import Path

import numpy as np
import pytest

from nwpeval.archive import PlaneReader
from nwpeval.grids import N_CHANNELS, GridSpec, StateSet
from nwpeval.synthetic import default_time, make_state


@pytest.fixture
def small_grid():
    # 9x16 global grid at 22.5 degrees, poles included
    return GridSpec(nlat=9, nlon=16, lat_start=90.0, dlat=22.5,
                    lon_start=0.0, dlon=22.5)


@pytest.fixture
def coarse_grid():
    # 2.5-degree global grid, 73x144
    return GridSpec(nlat=73, nlon=144, lat_start=90.0, dlat=2.5,
                    lon_start=0.0, dlon=2.5)


@pytest.fixture
def small_state(small_grid):
    return make_state(small_grid, seed=7, source_label="test")


def random_state(grid: GridSpec, seed: int, label: str = "rand") -> StateSet:
    """Unconstrained random values (not physically plausible)."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((N_CHANNELS, grid.nlat, grid.nlon)).astype(np.float32)
    return StateSet(valid_time=default_time(), source_label=label,
                    grid=grid, data=data)


def name_of(src) -> str:
    """The file name of a path, or of a file opened by its path: what a spy
    on an archive reader records."""
    return Path(getattr(src, "name", src)).name


def spy_plane_reader(monkeypatch, record):
    """Call record(path, channels, plane) as each archive.PlaneReader opens
    its file to check the header (channels (), plane None) and after it has
    read each plane (that channel alone, and the array it was read into)."""
    init, read = PlaneReader.__init__, PlaneReader._read

    def opening(self, path, *args, **kwargs):
        record(path, (), None)
        init(self, path, *args, **kwargs)

    def reading(self, channel, buf):
        read(self, channel, buf)
        record(self.path, (channel,), buf)

    monkeypatch.setattr(PlaneReader, "__init__", opening)
    monkeypatch.setattr(PlaneReader, "_read", reading)


def spy_payload_reads(monkeypatch) -> list:
    """The (file name, channel) of each plane an archive.PlaneReader reads
    from now on: every payload read, of an archive or a raw dump, by
    read_archive, ingest_raw or a reader itself. A header read adds none."""
    reads = []
    spy_plane_reader(monkeypatch, lambda path, channels, plane:
                     channels and reads.append((name_of(path), *channels)))
    return reads
