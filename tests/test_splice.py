import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nwpeval.grids import (EAST_ASIA, N_SURFACE, GridMismatchError, GridSpec,
                           RegionBox, Var, flat_channel_index)
from nwpeval.splice import SpliceError, SpliceSpec, region_mask, splice_states
from tests.conftest import random_state


def mask_count_oracle(grid, box):
    """Independent point-by-point enumeration."""
    n = 0
    for i in range(grid.nlat):
        for j in range(grid.nlon):
            lat, lon = grid.coords(i, j)
            if box.lat_min <= lat <= box.lat_max and box.lon_min <= lon <= box.lon_max:
                n += 1
    return n


def member_oracle(grid, box, eps=1e-9):
    """Point-by-point membership, bounds inclusive to eps. A longitude is
    tried as itself and one turn either way, so 360 counts as 0."""
    mask = np.zeros(grid.shape, dtype=bool)
    for i in range(grid.nlat):
        for j in range(grid.nlon):
            lat, lon = grid.coords(i, j)
            mask[i, j] = (box.lat_min - eps <= lat <= box.lat_max + eps
                          and any(box.lon_min - eps <= x <= box.lon_max + eps
                                  for x in (lon - 360.0, lon, lon + 360.0)))
    return mask


@st.composite
def grid_and_box(draw):
    """A grid with any lon_start, and a box whose bounds are half degrees,
    the seam (0 or 360) or grid coordinates rounded to 6 decimals, which
    a grid point may miss by a few ulps either way."""
    dlat = draw(st.sampled_from([0.1, 0.3, 2.5, 7.5, 22.5]))
    lat_start = round(draw(st.integers(0, 1800)) * 0.1 - 90.0, 1)
    nlat = draw(st.integers(1, min(8, int((lat_start + 90.0) / dlat) + 1)))
    dlon = draw(st.sampled_from([0.1, 0.3, 0.7, 2.5, 7.5, 22.5, 45.0]))
    nlon = draw(st.integers(1, min(24, int(360.0 / dlon + 1e-6))))
    lon_start = round(draw(st.integers(0, 3599)) * 0.1, 1)
    grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=lat_start, dlat=dlat,
                    lon_start=lon_start, dlon=dlon)
    lat_bound = st.one_of(st.integers(-180, 180).map(lambda k: k * 0.5),
                          st.sampled_from([round(x, 6) for x in grid.latitudes()]))
    lon_bound = st.one_of(st.integers(0, 720).map(lambda k: k * 0.5),
                          st.sampled_from([0.0, 360.0]),
                          st.sampled_from([round(x, 6) for x in grid.longitudes()]))

    def bounds(strategy):
        lo = draw(strategy)
        return sorted((lo, draw(st.one_of(st.just(lo), strategy))))

    lats, lons = bounds(lat_bound), bounds(lon_bound)
    box = RegionBox(lat_min=lats[0], lat_max=lats[1], lon_min=lons[0], lon_max=lons[1])
    return grid, box


class TestRegionMask:
    @settings(max_examples=200, deadline=None)
    @given(grid_and_box())
    @example((GridSpec(nlat=1, nlon=24, lat_start=0.0, dlat=1.0, lon_start=0.0, dlon=0.1),
              RegionBox(lat_min=0.0, lat_max=0.0, lon_min=0.3, lon_max=0.3)))
    def test_matches_membership_oracle(self, case):
        # in the example, 3 * 0.1 lies a few ulps east of the box's 0.3
        grid, box = case
        np.testing.assert_array_equal(region_mask(grid, box), member_oracle(grid, box))

    def test_east_asia_on_canonical_grid(self):
        g = GridSpec.canonical()
        mask = region_mask(g, EAST_ASIA)
        # (60-(-10))/0.25+1 = 281 rows, (150-60)/0.25+1 = 361 cols
        assert mask.sum() == 281 * 361 == 101_441

    def test_matches_enumeration_oracle(self, small_grid):
        box = RegionBox(lat_min=-10, lat_max=60, lon_min=60, lon_max=150)
        mask = region_mask(small_grid, box)
        assert mask.sum() == mask_count_oracle(small_grid, box)

    def test_whole_globe(self, small_grid):
        box = RegionBox(lat_min=-90, lat_max=90, lon_min=0, lon_max=360)
        assert region_mask(small_grid, box).all()

    def test_single_row(self, small_grid):
        box = RegionBox(lat_min=0, lat_max=0, lon_min=0, lon_max=360)
        mask = region_mask(small_grid, box)
        assert mask.sum() == small_grid.nlon
        assert mask[4].all()  # row 4 is the equator on the 22.5-degree grid


class TestSpliceStates:
    @pytest.fixture
    def pair(self, small_grid):
        base = random_state(small_grid, seed=20, label="gfs")
        donor = random_state(small_grid, seed=21, label="ifs")
        return base, donor

    def test_donor_equals_base_is_identity(self, small_grid):
        base = random_state(small_grid, seed=22, label="a")
        donor = base.replace(source_label="b")
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        assert np.array_equal(out.data, base.data)

    def test_hard_splice_values_and_scope(self, pair):
        base, donor = pair
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        g = base.grid
        z500 = flat_channel_index(Var.Z, 500)
        # (30N, 100E) inside the box -> row (90-30)/22.5 not integral; use
        # grid points: row 3 = 22.5N, col 4 = 90E inside; col 1 = 22.5E outside
        assert out.data[z500, 3, 4] == donor.data[z500, 3, 4]
        assert out.data[z500, 3, 1] == base.data[z500, 3, 1]
        # surface untouched under upper-only scope
        for k in range(N_SURFACE):
            assert np.array_equal(out.data[k], base.data[k])

    def test_changed_value_count(self, pair):
        base, donor = pair  # random floats differ everywhere w.p. 1
        assert (base.data != donor.data).all()
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        mask_n = region_mask(base.grid, EAST_ASIA).sum()
        assert (out.data != base.data).sum() == 65 * mask_n

    def test_all_channels_scope(self, pair):
        base, donor = pair
        spec = SpliceSpec(region=EAST_ASIA, variable_scope="all-channels")
        out = splice_states(base, donor, spec)
        mask_n = region_mask(base.grid, EAST_ASIA).sum()
        assert (out.data != base.data).sum() == 69 * mask_n

    def test_hard_splice_no_arithmetic_mixing(self, pair):
        base, donor = pair
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        from_base = out.data == base.data
        from_donor = out.data == donor.data
        assert (from_base | from_donor).all()

    def test_idempotence(self, pair):
        base, donor = pair
        spec = SpliceSpec(region=EAST_ASIA)
        once = splice_states(base, donor, spec)
        twice = splice_states(once, donor, spec)
        assert np.array_equal(twice.data, once.data)

    def test_locality_with_blend(self, pair):
        base, donor = pair
        spec = SpliceSpec(region=RegionBox(lat_min=-10, lat_max=60,
                                           lon_min=60, lon_max=150),
                          blend_width=22.5)
        out = splice_states(base, donor, spec)
        g = base.grid
        lats, lons = g.latitudes(), g.longitudes()
        for i in range(g.nlat):
            for j in range(g.nlon):
                dlat = max(spec.region.lat_min - lats[i], lats[i] - spec.region.lat_max, 0)
                dlon = max(spec.region.lon_min - lons[j], lons[j] - spec.region.lon_max, 0)
                if max(dlat, dlon) >= spec.blend_width:
                    assert (out.data[:, i, j] == base.data[:, i, j]).all()

    def test_blend_mixes_linearly_in_seam(self, small_grid):
        base = random_state(small_grid, seed=30, label="a")
        donor = base.replace(data=base.data + np.float32(10.0), source_label="b")
        box = RegionBox(lat_min=0, lat_max=0, lon_min=90, lon_max=90)
        spec = SpliceSpec(region=box, blend_width=45.0, variable_scope="all-channels")
        out = splice_states(base, donor, spec)
        # one grid step (22.5 deg) from the box -> alpha = 0.5
        k = 0
        i_eq, j_box = 4, 4
        assert out.data[k, i_eq, j_box] == donor.data[k, i_eq, j_box]
        np.testing.assert_allclose(out.data[k, i_eq, j_box + 1],
                                   base.data[k, i_eq, j_box + 1] + 5.0, rtol=1e-6)

    def test_blend_is_symmetric_across_the_dateline_seam(self):
        g = GridSpec(nlat=3, nlon=360, lat_start=10, dlat=10, lon_start=0, dlon=1)
        base = random_state(g, seed=31, label="a").replace(
            data=np.zeros((69, 3, 360), np.float32))
        donor = base.replace(data=np.ones((69, 3, 360), np.float32), source_label="b")
        spec = SpliceSpec(region=RegionBox(lat_min=-10, lat_max=10, lon_min=0, lon_max=10),
                          blend_width=5.0, variable_scope="all-channels")
        out = splice_states(base, donor, spec)
        # 359 E is 1 degree west of the box, 11 E 1 degree east: alpha 0.8 both
        np.testing.assert_allclose(out.data[:, :, 11], 0.8, rtol=1e-6)
        np.testing.assert_array_equal(out.data[:, :, 359], out.data[:, :, 11])
        np.testing.assert_allclose(out.data[:, :, 356], 0.2, rtol=1e-5)
        assert (out.data[:, :, 180] == 0.0).all()

    @pytest.mark.parametrize("shift", [1, 7, 20, 33])
    def test_blend_is_invariant_under_rotation(self, shift):
        # at shift 33 the box is [330, 360], so its blend zone crosses 0 degrees
        def grid(lon_start):
            return GridSpec(nlat=5, nlon=36, lat_start=40, dlat=20,
                            lon_start=lon_start, dlon=10)

        def spec(lon_min):
            box = RegionBox(lat_min=-20, lat_max=20, lon_min=lon_min, lon_max=lon_min + 30)
            return SpliceSpec(region=box, blend_width=25.0, variable_scope="all-channels")

        base = random_state(grid(0), seed=32, label="a")
        donor = random_state(grid(0), seed=33, label="b")
        out = splice_states(base, donor, spec(0)).data
        assert not np.array_equal(out, base.data)
        rot = 10 * shift
        # fields and box rotated east on the same grid: the output rolls with them
        rolled = [s.replace(data=np.roll(s.data, shift, axis=2)) for s in (base, donor)]
        np.testing.assert_array_equal(splice_states(*rolled, spec(rot)).data,
                                      np.roll(out, shift, axis=2))
        # grid origin and box rotated, each point keeping its value: no change
        moved = [s.replace(grid=grid(rot)) for s in (base, donor)]
        np.testing.assert_array_equal(splice_states(*moved, spec(rot)).data, out)

    def test_source_label(self, pair):
        base, donor = pair
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        assert out.source_label == "ifspadgfs"

    def test_grid_mismatch(self, small_grid):
        base = random_state(small_grid, seed=31)
        other = GridSpec(nlat=5, nlon=8, lat_start=90, dlat=45, lon_start=0, dlon=45)
        donor = random_state(other, seed=32)
        with pytest.raises(GridMismatchError):
            splice_states(base, donor, SpliceSpec(region=EAST_ASIA))

    def test_time_mismatch(self, pair):
        from datetime import timedelta
        base, donor = pair
        donor = donor.replace(valid_time=donor.valid_time + timedelta(hours=6))
        with pytest.raises(SpliceError):
            splice_states(base, donor, SpliceSpec(region=EAST_ASIA))
        out = splice_states(base, donor, SpliceSpec(region=EAST_ASIA),
                            allow_time_mismatch=True)
        assert out.valid_time == base.valid_time
