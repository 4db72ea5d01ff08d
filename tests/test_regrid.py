import tracemalloc
from collections import Counter
from contextlib import closing

import numpy as np
import pytest

from nwpeval.archive import PlaneReader, read_archive, write_archive
from nwpeval.grids import (CHANNELS, Field, GridMismatchError, GridSpec, Var,
                           flat_channel_index)
from nwpeval.regrid import apply_plan, build_plan, regrid_state
from nwpeval.synthetic import make_state
from tests.conftest import random_state, spy_payload_reads


def field_on(grid, values, var=Var.T2, level=0):
    return Field(variable=var, level=level, grid=grid,
                 values=np.asarray(values, np.float32))


def stencil(plan):
    """The 4 (source row, source col) index grids and the 4 weights of
    every destination point, from the plan's separable arrays."""
    r0, r1 = plan.rows0[:, None], plan.rows1[:, None]
    c0, c1 = plan.cols0[None, :], plan.cols1[None, :]
    wy, wx = plan.wlat[:, None], plan.wlon[None, :]
    return ([(r0, c0), (r0, c1), (r1, c0), (r1, c1)],
            [wy * wx, wy * (1.0 - wx), (1.0 - wy) * wx, (1.0 - wy) * (1.0 - wx)])


class TestBuildPlan:
    def test_identity_plan_weights(self):
        g = GridSpec.canonical()
        plan = build_plan(g, g)
        assert np.all(plan.wlat == 1.0)
        assert np.all(plan.wlon == 1.0)
        assert np.array_equal(plan.rows0, np.arange(g.nlat))
        assert np.array_equal(plan.cols0, np.arange(g.nlon))

    def test_longitude_wraparound_bracket(self):
        src = GridSpec.canonical()
        dst = GridSpec(nlat=2, nlon=1, lat_start=0.25, dlat=0.25,
                       lon_start=359.9, dlon=0.25)
        plan = build_plan(src, dst)
        assert plan.cols0[0] == 1439
        assert plan.cols1[0] == 0
        assert plan.wlon[0] == pytest.approx(0.4)   # 359.9 is 0.6 of the way to 360

    def test_pole_clamp(self):
        src = GridSpec(nlat=719, nlon=1440, lat_start=89.75, dlat=0.25,
                       lon_start=0, dlon=0.25)
        dst = GridSpec(nlat=2, nlon=4, lat_start=89.9, dlat=89.9,
                       lon_start=0, dlon=90)
        plan = build_plan(src, dst)
        # clamped: full weight on row 0, stencil collapses to 1D in longitude
        assert plan.rows0[0] == 0
        assert plan.wlat[0] == 1.0

    def test_degenerate_source_rejected(self):
        src = GridSpec(nlat=1, nlon=4, lat_start=0, dlat=1, lon_start=0, dlon=90)
        with pytest.raises(ValueError):
            build_plan(src, GridSpec.canonical())

    def test_partition_of_unity(self, small_grid):
        dst = GridSpec(nlat=19, nlon=36, lat_start=90, dlat=10, lon_start=5, dlon=10)
        _, w = stencil(build_plan(small_grid, dst))
        assert all((x >= 0.0).all() for x in w)
        assert np.max(np.abs(sum(w) - 1.0)) < 1e-12


class TestApplyPlan:
    def test_identity_bitwise(self, small_grid):
        plan = build_plan(small_grid, small_grid)
        f = field_on(small_grid, np.random.default_rng(0).standard_normal(
            small_grid.shape))
        out = apply_plan(plan, f)
        assert np.array_equal(out.values, f.values)

    def test_constant_preserved(self, small_grid):
        dst = GridSpec(nlat=17, nlon=32, lat_start=88, dlat=11, lon_start=3, dlon=11)
        plan = build_plan(small_grid, dst)
        out = apply_plan(plan, field_on(small_grid,
                                        np.full(small_grid.shape, 3.25)))
        assert np.all(out.values == np.float32(3.25))

    def test_affine_field_exact_in_interior(self):
        # non-wrapping subregion: src covers lon [0, 150], lat [60, -60]
        src = GridSpec(nlat=13, nlon=16, lat_start=60, dlat=10, lon_start=0, dlon=10)
        dst = GridSpec(nlat=23, nlon=27, lat_start=55, dlat=5, lon_start=5, dlon=5)
        lats = src.latitudes()[:, None]
        lons = src.longitudes()[None, :]
        f = field_on(src, 2.0 * lats + 3.0 * lons)
        out = apply_plan(build_plan(src, dst), f)
        expect = 2.0 * dst.latitudes()[:, None] + 3.0 * dst.longitudes()[None, :]
        assert np.max(np.abs(out.values - expect)) <= 1e-5

    def test_convexity(self, small_grid):
        dst = GridSpec(nlat=37, nlon=72, lat_start=90, dlat=5, lon_start=0, dlon=5)
        plan = build_plan(small_grid, dst)
        vals = np.random.default_rng(1).standard_normal(small_grid.shape)
        out = apply_plan(plan, field_on(small_grid, vals))
        idx, _ = stencil(plan)
        corners = np.stack([vals.astype(np.float32)[a, b] for a, b in idx])
        assert (corners.min(axis=0) - 1e-5 <= out.values).all()
        assert (out.values <= corners.max(axis=0) + 1e-5).all()

    def test_grid_mismatch(self, small_grid):
        dst = GridSpec(nlat=5, nlon=8, lat_start=90, dlat=45, lon_start=0, dlon=45)
        plan = build_plan(small_grid, dst)
        f = field_on(dst, np.zeros(dst.shape))
        with pytest.raises(GridMismatchError):
            apply_plan(plan, f)


class TestRegridState:
    def test_same_grid_identity(self, small_state):
        out = regrid_state(small_state, small_state.grid)
        assert np.array_equal(out.data, small_state.data)

    def test_one_degree_to_quarter_degree_bounded(self):
        src = GridSpec(nlat=181, nlon=360, lat_start=90, dlat=1.0, lon_start=0, dlon=1.0)
        s = make_state(src, seed=3)
        dst = GridSpec(nlat=721, nlon=1440)
        out = regrid_state(s, dst)
        assert out.grid == dst
        for k in range(s.data.shape[0]):
            assert out.data[k].min() >= s.data[k].min() - 1e-4
            assert out.data[k].max() <= s.data[k].max() + 1e-4

    def test_metadata_preserved(self, small_state):
        dst = GridSpec(nlat=19, nlon=36, lat_start=90, dlat=10, lon_start=0, dlon=10)
        out = regrid_state(small_state, dst)
        assert out.valid_time == small_state.valid_time
        assert out.source_label == small_state.source_label

    def test_two_row_source(self):
        src = GridSpec(nlat=2, nlon=8, lat_start=45, dlat=90, lon_start=0, dlon=45)
        s = random_state(src, seed=4)
        out = regrid_state(s, GridSpec(nlat=9, nlon=16, lat_start=90, dlat=22.5,
                                       lon_start=0, dlon=22.5))
        assert np.isfinite(out.data).all()

    def test_a_reader_is_regridded_as_its_state(self, tmp_path, monkeypatch, small_grid):
        # each plane read once, through channel(), as it is regridded
        path = tmp_path / "src.nws"
        write_archive(random_state(small_grid, seed=5, label="gfs"), path)
        dst = GridSpec(nlat=19, nlon=36, lat_start=90, dlat=10, lon_start=5, dlon=10)
        want = regrid_state(read_archive(path), dst)
        reads = spy_payload_reads(monkeypatch)
        with closing(PlaneReader(path)) as reader:
            out = regrid_state(reader, dst)
        assert Counter(reads) == Counter(("src.nws", ch) for ch in CHANNELS)
        assert (out.grid, out.valid_time, out.source_label, out.channels) == \
            (want.grid, want.valid_time, want.source_label, want.channels)
        assert out.data.tobytes() == want.data.tobytes()

    def test_a_reader_is_regridded_holding_one_input_plane(self, tmp_path):
        # 0.5 to 1 degree: the output, the work area and the plane being
        # regridded; the last plane is dropped before the next is read, and
        # half a plane (0.5 MiB) is room for small objects
        src = GridSpec(nlat=361, nlon=720, lat_start=90.0, dlat=0.5, lon_start=0.0,
                       dlon=0.5)
        dst = GridSpec(nlat=181, nlon=360, lat_start=90.0, dlat=1.0, lon_start=0.0,
                       dlon=1.0)
        path = tmp_path / "src.nws"
        write_archive(random_state(src, seed=8, label="gfs"), path)
        with closing(PlaneReader(path)) as reader:
            tracemalloc.start()
            try:
                out = regrid_state(reader, dst)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        work = 8 * (src.nlat * src.nlon + 2 * src.nlat * dst.nlon + 2 * dst.nlat * dst.nlon)
        assert peak < out.data.nbytes + work + 1.5 * src.nlat * src.nlon * 4

    def test_a_reader_on_the_grid_comes_back_unread(self, tmp_path, monkeypatch,
                                                    small_grid):
        path = tmp_path / "src.nws"
        write_archive(random_state(small_grid, seed=6), path)
        reads = spy_payload_reads(monkeypatch)
        with closing(PlaneReader(path)) as reader:
            assert regrid_state(reader, small_grid) is reader
        assert reads == []


def per_plane_expression(plan, values):
    """The per-plane expression regrid_state evaluated before it kept its
    work buffers, one temporary per step: the bitwise oracle."""
    v = values.astype(np.float64)
    top = v[plan.rows0]
    bot = v[plan.rows1]
    wx = plan.wlon[np.newaxis, :]
    row_top = wx * top[:, plan.cols0] + (1.0 - wx) * top[:, plan.cols1]
    row_bot = wx * bot[:, plan.cols0] + (1.0 - wx) * bot[:, plan.cols1]
    out = plan.wlat[:, np.newaxis] * row_top + (1.0 - plan.wlat[:, np.newaxis]) * row_bot
    return out.astype(np.float32)


@pytest.mark.parametrize("src,dst", [
    # full circle, destination columns crossing the 0/360 seam
    (GridSpec(nlat=37, nlon=72, lat_start=90, dlat=5, lon_start=0, dlon=5),
     GridSpec(nlat=46, nlon=97, lat_start=88, dlat=3.9, lon_start=357.5, dlon=3.7)),
    # a regional source: columns clamp at both edges
    (GridSpec(nlat=20, nlon=30, lat_start=60, dlat=2, lon_start=60, dlon=3),
     GridSpec(nlat=33, nlon=61, lat_start=64, dlat=1.5, lon_start=50, dlon=1.8)),
    # a source without pole rows: polar destination rows clamp
    (GridSpec(nlat=72, nlon=144, lat_start=88.75, dlat=2.5, lon_start=1.25, dlon=2.5),
     GridSpec(nlat=91, nlon=180, lat_start=90, dlat=2, lon_start=0, dlon=2)),
    # more source rows than destination rows: the longitude pass runs
    # over every source row, the latitude pass picks from them
    (GridSpec(nlat=361, nlon=720, lat_start=90, dlat=0.5, lon_start=0, dlon=0.5),
     GridSpec(nlat=180, nlon=360, lat_start=89.7, dlat=1, lon_start=0.3, dlon=1)),
], ids=["cyclic", "non-cyclic", "pole-clamped", "row-downsampling"])
def test_bitwise_equal_to_the_per_plane_expression(src, dst):
    state = random_state(src, seed=21)
    plan = build_plan(src, dst)
    want = np.stack([per_plane_expression(plan, plane) for plane in state.data])
    assert regrid_state(state, dst).data.tobytes() == want.tobytes()
    fld = apply_plan(plan, state.field(Var.Z, 500))
    assert fld.values.tobytes() == want[flat_channel_index(Var.Z, 500)].tobytes()


def bilinear_at(src, values, lat, lon):
    """The value at (lat, lon) of a field on `src`, found point by point
    from GridSpec.coords: bilinear between the bracketing rows and
    columns; past the rows, the nearer edge row; past the columns of a
    source short of the full circle, the nearer edge column by angular
    distance. The oracle of build_plan's clamping."""
    lats = [src.coords(i, 0)[0] for i in range(src.nlat)]
    lons = [src.coords(0, j)[1] for j in range(src.nlon)]
    if lat >= lats[0] or lat <= lats[-1]:
        rows = [(0 if lat >= lats[0] else src.nlat - 1, 1.0)]
    else:
        i = max(k for k in range(src.nlat) if lats[k] >= lat)
        w = (lat - lats[i + 1]) / (lats[i] - lats[i + 1])
        rows = [(i, w), (i + 1, 1.0 - w)]
    last = src.nlon if src.is_cyclic() else src.nlon - 1   # columns that open a bracket
    cols = None
    for j in range(last):
        east = (lon - lons[j]) % 360.0
        if east < src.dlon - 1e-9:
            cols = [(j, 1.0 - east / src.dlon), ((j + 1) % src.nlon, east / src.dlon)]
            break
    if cols is None:   # past the span: the nearer edge, the east one on a tie
        past_east, short_of_west = (lon - lons[-1]) % 360.0, (lons[0] - lon) % 360.0
        cols = [(0 if short_of_west < past_east else src.nlon - 1, 1.0)]
    return sum(wr * wc * float(values[i, j]) for i, wr in rows for j, wc in cols)


@pytest.mark.parametrize("src", [
    # 60-150 E, as the east_asia donor: 0-50 E is nearer 60 E than 150 E
    GridSpec(nlat=21, nlon=31, lat_start=70, dlat=4, lon_start=60, dlon=3),
    # across the 0/360 seam, 300 E to 30 E
    GridSpec(nlat=12, nlon=21, lat_start=45, dlat=5, lon_start=300, dlon=3),
    # the full circle: brackets wrap, no edge
    GridSpec(nlat=19, nlon=24, lat_start=88, dlat=9, lon_start=7, dlon=15),
], ids=["regional", "across-the-seam", "cyclic"])
def test_regridded_equals_a_per_point_oracle(src):
    dst = GridSpec(nlat=37, nlon=72, lat_start=90, dlat=5, lon_start=2.5, dlon=5)
    state = random_state(src, seed=22)
    out = regrid_state(state, dst)
    for var, level in [(Var.MSLP, 0), (Var.Z, 500)]:
        plane, got = state.channel(var, level), out.channel(var, level)
        want = np.array([[bilinear_at(src, plane, *dst.coords(i, j))
                          for j in range(dst.nlon)] for i in range(dst.nlat)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_a_column_midway_between_the_edges_takes_the_east_one():
    # 60-150 E: 285 E lies 135 degrees past 150 E and 135 short of 60 E
    src = GridSpec(nlat=4, nlon=10, lat_start=30, dlat=10, lon_start=60, dlon=10)
    dst = GridSpec(nlat=1, nlon=3, lat_start=0, dlat=1, lon_start=284, dlon=1)
    plan = build_plan(src, dst)
    assert plan.cols0.tolist() == [9, 9, 0] and plan.wlon.tolist() == [1.0, 1.0, 1.0]
