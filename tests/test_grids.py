import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nwpeval
from nwpeval.grids import (CHANNELS, N_CHANNELS, Field, GridSpec,
                           InvalidChannelError, RegionBox, StateSet, Var,
                           channel_name, covers, covers_grid, degrees, flat_channel_index,
                           plane_fault)
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


    @pytest.mark.parametrize("value", [True, np.bool_(False), "north", None, [1.0],
                                       float("nan"), float("inf")])
    def test_rejects_a_degree_value_that_is_no_number(self, value):
        # float() would read True as 1.0 and fail on "north" naming no key
        message = f"dlat must be a number of degrees, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridSpec(nlat=9, nlon=16, dlat=value, dlon=22.5)

    def test_degrees_in_any_spelling(self):
        assert [degrees("x", v) for v in (22.5, 22, "22.5", np.float32(0.5))] == [
            22.5, 22.0, 22.5, 0.5]


class TestCovers:
    # 5 rows 67.5..-22.5 N, 7 columns 45..180 E
    REGIONAL = GridSpec(nlat=5, nlon=7, lat_start=67.5, dlat=22.5, lon_start=45.0,
                        dlon=22.5)
    BOX = RegionBox(lat_min=-10, lat_max=60, lon_min=60, lon_max=150)

    def test_a_global_grid_covers_any_box(self, small_grid):
        assert covers(small_grid, RegionBox(-90, 90, 0, 360), margin=30.0)

    @pytest.mark.parametrize("margin, inside", [
        (0.0, True), (7.5, True), (7.6, False), (12.5, False)])
    def test_the_margin_widens_the_box(self, margin, inside):
        # 7.5 degrees reaches 67.5 N and the 45 E column; further runs off
        assert covers(self.REGIONAL, self.BOX, margin) == inside

    @pytest.mark.parametrize("grid, inside", [
        # 337.5 E across 0/360 to 67.5 E: the widened box is 350..40 E
        (GridSpec(nlat=9, nlon=5, dlat=22.5, lon_start=337.5, dlon=22.5), True),
        # 0..67.5 E: misses 350..360 E
        (GridSpec(nlat=9, nlon=4, dlat=22.5, lon_start=0.0, dlon=22.5), False),
        # 292.5..337.5 E: misses 0..40 E
        (GridSpec(nlat=9, nlon=3, dlat=22.5, lon_start=292.5, dlon=22.5), False)])
    def test_longitudes_across_the_seam(self, grid, inside):
        assert covers(grid, RegionBox(lat_min=-10, lat_max=60, lon_min=0, lon_max=30),
                      margin=10.0) == inside

    def test_a_whole_circle_needs_a_cyclic_grid(self):
        wide = GridSpec(nlat=9, nlon=15, dlat=22.5, dlon=22.5)   # 0..315 E
        assert not covers(wide, RegionBox(lat_min=-10, lat_max=60, lon_min=0,
                                          lon_max=360))


class TestCoversGrid:
    # the 19x36 model grid at 10 degrees, poles included
    MODEL = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0, dlon=10.0)

    @pytest.mark.parametrize("grid, covering", [
        (MODEL, True),
        # 85..-85 N: half a step short of each pole
        (GridSpec(nlat=18, nlon=36, lat_start=85.0, dlat=10.0, dlon=10.0), True),
        # 80..-80 N: one step short, the most a source may fall short
        (GridSpec(nlat=17, nlon=36, lat_start=80.0, dlat=10.0, dlon=10.0), True),
        # 75..-75 N: more than one of its steps short
        (GridSpec(nlat=16, nlon=36, lat_start=75.0, dlat=10.0, dlon=10.0), False),
        # 90..50 N: a cap
        (GridSpec(nlat=5, nlon=36, lat_start=90.0, dlat=10.0, dlon=10.0), False),
        # 20-degree rows 80..-80 N: within one of its own steps
        (GridSpec(nlat=9, nlon=18, lat_start=80.0, dlat=20.0, dlon=20.0), True),
        # 0..340 E: not cyclic, and short of the model's 350 E column
        (GridSpec(nlat=19, nlon=35, lat_start=90.0, dlat=10.0, dlon=10.0), False)],
        ids=["same", "half-step-short", "one-step-short", "too-short", "cap",
             "coarser", "columns-short"])
    def test_rows_within_one_step_and_every_column(self, grid, covering):
        assert covers_grid(grid, self.MODEL) == covering

    def test_columns_that_span_a_regional_model_grid(self):
        # a model grid 60..150 E on columns 45..180 E, and on 90..180 E
        model = GridSpec(nlat=5, nlon=10, lat_start=60.0, dlat=10.0, lon_start=60.0,
                         dlon=10.0)
        wide = GridSpec(nlat=7, nlon=10, lat_start=70.0, dlat=10.0, lon_start=45.0,
                        dlon=15.0)
        east = GridSpec(nlat=7, nlon=10, lat_start=70.0, dlat=10.0, lon_start=90.0,
                        dlon=15.0)
        assert covers_grid(wide, model) and not covers_grid(east, model)


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


class TestPlaneFault:
    def test_plausible_synthetic_state_is_clean(self, small_state):
        for ranges in (False, True):
            assert [plane_fault(ch, plane, ranges) for ch, plane
                    in zip(small_state.channels, small_state.data)] == [None] * N_CHANNELS

    def test_zero_temperature_is_a_range_fault_only_with_ranges(self, small_grid):
        plane = np.zeros(small_grid.shape, np.float32)
        assert plane_fault((Var.T2, 0), plane) is None
        assert plane_fault((Var.T2, 0), plane, ranges=True) == \
            "range: T2 in [0, 0] outside [150, 350]"

    def test_range_fault_names_the_planes_extremes(self, small_grid):
        plane = np.full(small_grid.shape, 250.0, np.float32)
        plane[0, 0], plane[-1, -1] = 140.5, 351.25
        assert plane_fault((Var.T, 850), plane, ranges=True) == \
            "range: T850 in [140.5, 351.25] outside [150, 350]"

    def test_channel_without_bounds_has_no_range_fault(self, small_grid):
        plane = np.full(small_grid.shape, 1e9, np.float32)
        assert plane_fault((Var.Z, 500), plane, ranges=True) is None

    def test_channel_count_violation(self, small_grid):
        # a 68-plane array under the canonical 69-channel list is refused
        with pytest.raises(ValueError, match="does not hold 69 channels"):
            StateSet(valid_time=default_time(), source_label="x", grid=small_grid,
                     data=np.zeros((68,) + small_grid.shape, np.float32))


def test_channel_names():
    assert channel_name(Var.MSLP, 0) == "MSLP"
    assert channel_name(Var.Z, 500) == "Z500"


def test_the_archive_module_imports_alone():
    # as a backend step that reads and writes archives imports it: the
    # config parser and the pipeline's modules are not loaded
    src = str(Path(nwpeval.__file__).parents[1])
    code = ("import sys, nwpeval.archive; print(*sorted(m for m in sys.modules "
            "if m == 'yaml' or m.startswith('nwpeval')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["nwpeval", "nwpeval.archive", "nwpeval.grids"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("plane", [0, N_CHANNELS // 2, N_CHANNELS - 1])
@pytest.mark.parametrize("at", [(0, 0), (1, 2), (2, 3)])
def test_plane_fault_looks_at_every_value(plane, value, at):
    # the one NaN/Inf test of a plane names it, and only it
    data = np.zeros((N_CHANNELS, 3, 4), np.float32)
    data[(plane,) + at] = value
    expected = [None] * N_CHANNELS
    expected[plane] = f"plane {channel_name(*CHANNELS[plane])} contains NaN/Inf"
    assert [plane_fault(ch, p) for ch, p in zip(CHANNELS, data)] == expected
    # with ranges too, before any range fault (zeros are out of MSLP's and T's)
    assert plane_fault(CHANNELS[plane], data[plane], ranges=True) == expected[plane]
