import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nwpeval
from nwpeval.grids import (CHANNELS, N_CHANNELS, Field, GridSpec,
                           InvalidChannelError, RegionBox, StateSet, Var,
                           channel_name, flat_channel_index, validate_state)
from nwpeval.synthetic import default_time


def enumerate_channels():
    """Independent enumeration of all legal (variable, level) pairs in
    canonical order: surface [MSLP,U10,V10,T2], then [Z,Q,T,U,V] x
    descending levels."""
    pairs = [(v, 0) for v in (Var.MSLP, Var.U10, Var.V10, Var.T2)]
    for v in (Var.Z, Var.Q, Var.T, Var.U, Var.V):
        for lvl in (1000, 925, 850, 700, 600, 500, 400, 300, 250, 200, 150, 100, 50):
            pairs.append((v, lvl))
    return pairs


class TestChannelIndex:
    def test_mslp_is_first_surface(self):
        assert flat_channel_index(Var.MSLP, 0) == 0

    def test_q1000(self):
        # enumeration oracle: 4 surface channels, then Z over 13 levels,
        # then Q from 1000 hPa
        assert flat_channel_index(Var.Q, 1000) == 17

    def test_v50_is_last(self):
        assert flat_channel_index(Var.V, 50) == 68

    def test_bijection_over_enumeration(self):
        seen = {flat_channel_index(var, lvl) for var, lvl in enumerate_channels()}
        assert seen == set(range(N_CHANNELS))

    def test_flat_index_matches_enumeration(self):
        for k, (var, lvl) in enumerate(enumerate_channels()):
            assert flat_channel_index(var, lvl) == k
            assert CHANNELS[k] == (var, lvl)

    @pytest.mark.parametrize("var,lvl", [
        (Var.T2, 500), (Var.MSLP, 1000), (Var.Z, 0), (Var.Q, 123),
    ])
    def test_illegal_combinations(self, var, lvl):
        with pytest.raises(InvalidChannelError):
            flat_channel_index(var, lvl)


class TestGridSpec:
    def test_canonical_constants(self):
        g = GridSpec.canonical()
        assert (g.nlat, g.nlon) == (721, 1440)
        assert (g.lat_start, g.dlat, g.lon_start, g.dlon) == (90.0, 0.25, 0.0, 0.25)

    def test_coords_origin(self):
        assert GridSpec.canonical().coords(0, 0) == (90.0, 0.0)

    def test_coords_south_pole(self):
        assert GridSpec.canonical().coords(720, 0) == (-90.0, 0.0)

    def test_coords_equator(self):
        assert GridSpec.canonical().coords(360, 240) == (0.0, 60.0)

    def test_coords_out_of_range(self):
        with pytest.raises(IndexError):
            GridSpec.canonical().coords(721, 0)

    def test_coords_round_trip_canonical(self):
        g = GridSpec.canonical()
        for i in range(0, g.nlat, 90):
            for j in range(0, g.nlon, 180):
                lat, lon = g.coords(i, j)
                assert (g.lat_start - lat) / g.dlat == i
                assert ((lon - g.lon_start) % 360.0) / g.dlon == j

    def test_rejects_overlapping_longitudes(self):
        with pytest.raises(ValueError):
            GridSpec(nlat=3, nlon=10, lat_start=90, dlat=45, lon_start=0, dlon=40)

    def test_rejects_out_of_range_latitudes(self):
        with pytest.raises(ValueError):
            GridSpec(nlat=10, nlon=4, lat_start=90, dlat=45, lon_start=0, dlon=90)

    @pytest.mark.parametrize("nlat,nlon,key", [(9.5, 16, "nlat"), (9, 16.5, "nlon")])
    def test_rejects_a_fractional_row_or_column_count(self, nlat, nlon, key):
        # int() would cut 9.5 rows to 9
        with pytest.raises(ValueError, match=f"{key} must be a whole number"):
            GridSpec(nlat=nlat, nlon=nlon, dlat=22.5, dlon=22.5)
        assert GridSpec(nlat=9.0, nlon=16.0, dlat=22.5, dlon=22.5).shape == (9, 16)


class TestRegionBox:
    def test_bad_latitudes(self):
        with pytest.raises(ValueError):
            RegionBox(lat_min=10, lat_max=-10, lon_min=0, lon_max=90)

    def test_bad_longitudes(self):
        with pytest.raises(ValueError):
            RegionBox(lat_min=0, lat_max=10, lon_min=-30, lon_max=90)


class TestStateSet:
    def test_field_legality_checked(self, small_grid):
        with pytest.raises(InvalidChannelError):
            Field(variable=Var.T2, level=500, grid=small_grid,
                  values=np.zeros(small_grid.shape, np.float32))

    def test_channel_accessor_matches_data(self, small_state):
        for k, (var, lvl) in enumerate(CHANNELS):
            assert np.array_equal(small_state.channel(var, lvl),
                                  small_state.data[k])


class TestValidateState:
    def test_plausible_synthetic_state_is_clean(self, small_state):
        assert validate_state(small_state) == []

    def test_zero_temperature_flagged(self, small_state):
        data = small_state.data.copy()
        data[flat_channel_index(Var.T2, 0)] = 0.0
        bad = small_state.replace(data=data)
        report = validate_state(bad)
        assert any("T2" in msg and msg.startswith("range") for msg in report)

    def test_channel_count_violation(self, small_grid):
        # a 68-plane array under the canonical 69-channel list is refused
        with pytest.raises(ValueError, match="does not hold 69 channels"):
            StateSet(valid_time=default_time(), source_label="x", grid=small_grid,
                     data=np.zeros((68,) + small_grid.shape, np.float32))

    def test_nan_flagged(self, small_state):
        data = small_state.data.copy()
        data[20, 0, 0] = np.nan
        report = validate_state(small_state.replace(data=data))
        assert any(msg.startswith("non-finite") for msg in report)

    def test_range_checks_can_be_disabled(self, small_state):
        data = small_state.data.copy()
        data[flat_channel_index(Var.T2, 0)] = 0.0
        bad = small_state.replace(data=data)
        assert validate_state(bad, check_ranges=False) == []


def test_channel_names():
    assert channel_name(Var.MSLP, 0) == "MSLP"
    assert channel_name(Var.Z, 500) == "Z500"


def test_public_names_resolve():
    for name in nwpeval.__all__:
        assert getattr(nwpeval, name) is not None, name


def test_the_archive_module_imports_alone():
    # as a backend step that reads and writes archives imports it: the
    # config parser and the pipeline's modules are not loaded
    src = str(Path(nwpeval.__file__).parents[1])
    code = ("import sys, nwpeval.archive; print(*sorted(m for m in sys.modules "
            "if m == 'yaml' or m.startswith('nwpeval')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["nwpeval", "nwpeval.archive", "nwpeval.grids"]


@pytest.mark.parametrize("plane, value", [(None, 0.0), (0, np.inf), (N_CHANNELS - 1, np.nan),
                                          (N_CHANNELS // 2, -np.inf)])
def test_all_finite_looks_at_every_plane(plane, value):
    # the one NaN/Inf check of a state in memory names each bad plane
    data = np.zeros((N_CHANNELS, 3, 4), np.float32)
    if plane is not None:
        data[plane, 2, 3] = value
    state = StateSet(valid_time=default_time(), source_label="x",
                     grid=GridSpec(nlat=3, nlon=4, dlat=45, dlon=90), data=data)
    expected = [] if plane is None else [
        f"non-finite: {channel_name(*CHANNELS[plane])} contains NaN/Inf"]
    assert validate_state(state, check_ranges=False) == expected
